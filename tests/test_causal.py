import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polybounds import (
    ACE_COEFFS,
    ExperimentalData,
    InconsistentDataError,
    InfeasibleTableError,
    Interval,
    ObservationalData,
    ObservedIVTable,
    RESPONSE_MATRIX,
    ValidationError,
    ZeroConditioningError,
    ace_bounds,
    instrumental_inequality,
    iv_table_from_response_dist,
    manski_bounds,
    oracle_extremal_scan,
    pn_ps_point_bounds,
    pns_bounds,
)
from polybounds.causal import counterfactual_atom_system, pns_objective
from polybounds.solvers import TOL, LpProblem, lp_solve
from conftest import near_edge_iv_table, random_counterfactual_instance, random_iv_table, structural_iv_tables


def perfect_compliance_table(p1=0.7, p0=0.4) -> ObservedIVTable:
    p = np.zeros((2, 2, 2))
    p[1, 1, 1] = p1
    p[0, 1, 1] = 1 - p1
    p[1, 0, 0] = p0
    p[0, 0, 0] = 1 - p0
    return ObservedIVTable(p)


def crafted_violating_table() -> ObservedIVTable:
    p = np.zeros((2, 2, 2))
    p[1, 1, 0] = 1.0  # p(y=1, x=1 | z=0) = 1
    p[0, 1, 1] = 1.0  # p(y=0, x=1 | z=1) = 1
    return ObservedIVTable(p)


def test_response_matrix_structure():
    assert RESPONSE_MATRIX.shape == (8, 16)
    # each type produces exactly one (y, x) cell per instrument arm
    np.testing.assert_allclose(RESPONSE_MATRIX.sum(axis=0), 2.0)
    table = iv_table_from_response_dist(np.full(16, 1 / 16))
    assert np.abs(table.p.sum(axis=(0, 1)) - 1.0).max() < 1e-12


def test_response_matrix_matches_the_explicit_response_functions():
    # type 4i + j: treatment response i and outcome response j, each listed as (f(0), f(1))
    responses = ((0, 0), (0, 1), (1, 0), (1, 1))
    reference = np.zeros((8, 16))
    for i, treatment in enumerate(responses):
        for j, outcome in enumerate(responses):
            for z in range(2):
                x = treatment[z]
                y = outcome[x]
                reference[4 * y + 2 * x + z, 4 * i + j] = 1.0
    assert np.array_equal(RESPONSE_MATRIX, reference)
    assert not RESPONSE_MATRIX.flags.writeable


def test_instrumental_inequality_perfect_compliance():
    t = perfect_compliance_table()
    check = instrumental_inequality(t)
    assert check.holds and check.value == pytest.approx(1.0)
    assert check.variant == "standard"


def test_instrumental_inequality_crafted_violation():
    t = crafted_violating_table()
    check = instrumental_inequality(t)
    assert not check.holds
    assert check.value == pytest.approx(2.0)
    # the literal printed form never exceeds one, even here
    literal = instrumental_inequality(t, "paper_literal")
    assert literal.holds and literal.value == pytest.approx(1.0)


def test_paper_literal_variant_is_vacuous_on_random_tables():
    rng = np.random.default_rng(51)
    for _ in range(50):
        raw = rng.dirichlet(np.ones(4), size=2)  # arbitrary conditional tables, not IV-generated
        p = np.zeros((2, 2, 2))
        for z in range(2):
            p[:, :, z] = raw[z].reshape(2, 2)
        check = instrumental_inequality(ObservedIVTable(p), "paper_literal")
        assert check.value <= 1.0 + 1e-12


def test_instrumental_inequality_on_forward_simulated_tables():
    rng = np.random.default_rng(52)
    for raw in structural_iv_tables(rng, 300):
        assert instrumental_inequality(ObservedIVTable(raw)).holds


def test_the_inequality_holds_exactly_when_the_effect_bounds_answer():
    # both read 2 (value - 1) <= tol, the simplex's phase-1 test
    table = near_edge_iv_table(np.random.default_rng(0), 1e-10)
    value = instrumental_inequality(table).value
    assert 1.0 + 1e-12 < value <= 1.0 + 1e-10
    for variant in ("standard", "paper_literal"):
        assert instrumental_inequality(table, variant).holds
    assert ace_bounds(table).lo == pytest.approx(-0.00997, abs=1e-5)
    assert ace_bounds(table).hi == pytest.approx(0.389, abs=1e-3)
    assert not instrumental_inequality(table, tol=1e-10).holds
    with pytest.raises(InfeasibleTableError):
        ace_bounds(table, 1e-10)


def test_ace_bounds_perfect_compliance_point_identified():
    iv = ace_bounds(perfect_compliance_table())
    assert iv.lo == pytest.approx(0.3, abs=1e-9)
    assert iv.hi == pytest.approx(0.3, abs=1e-9)


def test_ace_bounds_degenerate_table_matches_oracle():
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = 1.0
    p[0, 0, 1] = 1.0
    t = ObservedIVTable(p)
    iv = ace_bounds(t)
    oracle = oracle_extremal_scan(ACE_COEFFS, A=RESPONSE_MATRIX, b=t.flat())
    assert iv.lo == pytest.approx(oracle.lo, abs=1e-9)
    assert iv.hi == pytest.approx(oracle.hi, abs=1e-9)
    # everyone untreated with null outcomes leaves only the treated response free
    assert iv.lo == pytest.approx(0.0, abs=1e-9)
    assert iv.hi == pytest.approx(1.0, abs=1e-9)


def test_ace_bounds_infeasible_table_raises():
    with pytest.raises(InfeasibleTableError):
        ace_bounds(crafted_violating_table())


def test_ace_bounds_against_oracle_and_monte_carlo():
    rng = np.random.default_rng(53)
    from polybounds import oracle_feasible_vertices

    for _ in range(25):
        t = random_iv_table(rng)
        iv = ace_bounds(t)
        assert -1.0 - 1e-9 <= iv.lo <= iv.hi <= 1.0 + 1e-9
        assert iv.width < 1.0
        oracle = oracle_extremal_scan(ACE_COEFFS, A=RESPONSE_MATRIX, b=t.flat())
        assert iv.lo == pytest.approx(oracle.lo, abs=1e-9)
        assert iv.hi == pytest.approx(oracle.hi, abs=1e-9)
        # every feasible mixture's effect lands inside the interval
        vertices = oracle_feasible_vertices(RESPONSE_MATRIX, t.flat())
        weights = rng.dirichlet(np.ones(len(vertices)), size=20)
        for q in weights @ vertices:
            assert iv.lo - 1e-9 <= ACE_COEFFS @ q <= iv.hi + 1e-9


def test_balke_pearl_interval_nested_in_manski_interval():
    rng = np.random.default_rng(58)
    for _ in range(30):
        t = random_iv_table(rng)
        bp = ace_bounds(t)
        p_yx = t.p.mean(axis=2)  # uniform instrument mixing
        px1 = float(p_yx[:, 1].sum())
        e1 = float(p_yx[1, 1] / px1)
        e0 = float(p_yx[1, 0] / (1.0 - px1))
        manski = manski_bounds(e1, e0, px1)
        assert manski.encloses(bp, tol=1e-9)


def test_manski_examples_and_invariants():
    iv = manski_bounds(0.7, 0.4, 0.5)
    assert iv.lo == pytest.approx(-0.35, abs=1e-12)
    assert iv.hi == pytest.approx(0.65, abs=1e-12)
    everyone_treated = manski_bounds(1.0, 0.0, 1.0)
    assert everyone_treated.lo == pytest.approx(0.0, abs=1e-12)
    assert everyone_treated.hi == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(54)
    for _ in range(200):
        e1, e0, px1 = rng.uniform(0, 1, 3)
        iv = manski_bounds(e1, e0, px1)
        assert iv.width == pytest.approx(1.0, abs=1e-12)
        assert iv.lo <= 1e-12 and iv.hi >= -1e-12
    with pytest.raises(ValidationError):
        manski_bounds(1.2, 0.0, 0.5)


def test_pns_worked_example():
    exp = ExperimentalData(0.7, 0.3)
    obs = ObservationalData([[0.3, 0.2], [0.1, 0.4]])
    iv = pns_bounds(exp, obs)
    assert iv.lo == pytest.approx(0.4, abs=1e-12)
    assert iv.hi == pytest.approx(0.7, abs=1e-12)


def test_pns_equal_rates_bounds():
    rng = np.random.default_rng(55)
    for _ in range(40):
        pi = rng.dirichlet(np.ones(8))
        # symmetrize so both interventional rates agree
        pi = (pi + pi[[0, 1, 4, 5, 2, 3, 6, 7]]) / 2  # swap y0 <-> y1 atom blocks
        p_do1 = float(pi[2] + pi[3] + pi[6] + pi[7])
        p_do0 = float(pi[4] + pi[5] + pi[6] + pi[7])
        assert p_do1 == pytest.approx(p_do0)
        joint = np.array([[pi[0] + pi[2], pi[4] + pi[6]], [pi[1] + pi[5], pi[3] + pi[7]]])
        iv = pns_bounds(ExperimentalData(p_do1, p_do0), ObservationalData(joint))
        assert iv.lo >= -1e-12
        assert iv.hi <= p_do1 + 1e-12


def test_pns_formula_matches_lp_oracle():
    rng = np.random.default_rng(56)
    for _ in range(150):
        exp, obs = random_counterfactual_instance(rng)
        formula = pns_bounds(exp, obs)
        A, b = counterfactual_atom_system(exp, obs)
        oracle = oracle_extremal_scan(pns_objective(), A=A, b=b)
        assert formula.lo == pytest.approx(oracle.lo, abs=1e-9)
        assert formula.hi == pytest.approx(oracle.hi, abs=1e-9)


def test_pns_inconsistent_data_raises():
    exp = ExperimentalData(1.0, 0.0)
    obs = ObservationalData([[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(InconsistentDataError):
        pns_bounds(exp, obs)


def test_pns_consistency_conditions_match_the_basis_oracle():
    # random experimental rates against random joints, 3 in 10 with a zero
    # cell: pns_bounds raises exactly when the atom system has no feasible
    # point, and otherwise agrees with the oracle's bracket
    rng = np.random.default_rng(1)
    answered = 0
    for _ in range(3000):
        joint = rng.dirichlet(np.ones(4))
        if rng.uniform() < 0.3:
            joint[rng.integers(4)] = 0.0
            joint /= joint.sum()
        exp = ExperimentalData(*(float(v) for v in rng.uniform(size=2)))
        obs = ObservationalData(joint.reshape(2, 2))
        A, b = counterfactual_atom_system(exp, obs)
        try:
            oracle = oracle_extremal_scan(pns_objective(), A=A, b=b)
        except InfeasibleTableError:
            with pytest.raises(InconsistentDataError):
                pns_bounds(exp, obs)
            continue
        bounds = pns_bounds(exp, obs)
        assert abs(bounds.lo - oracle.lo) <= 1e-12 and abs(bounds.hi - oracle.hi) <= 1e-12
        answered += 1
    assert 300 < answered < 2700  # both verdicts are well represented


def test_pn_deterministic_outcome_equals_one():
    exp = ExperimentalData(1.0, 0.0)
    obs = ObservationalData([[0.5, 0.0], [0.0, 0.5]])
    pn, ps = pn_ps_point_bounds(exp, obs)
    assert pn.lo == pytest.approx(1.0, abs=1e-9)
    assert pn.hi == pytest.approx(1.0, abs=1e-9)
    assert ps.lo == pytest.approx(1.0, abs=1e-9)


def test_pn_symmetric_null_contains_no_effect_point():
    # treatment independent of everything, same outcome rate everywhere
    p = 0.4
    joint = np.array([[0.5 * (1 - p), 0.5 * p], [0.5 * (1 - p), 0.5 * p]])
    exp = ExperimentalData(p, p)
    pn, ps = pn_ps_point_bounds(exp, ObservationalData(joint))
    assert pn.contains(0.0, tol=1e-9)
    assert ps.contains(0.0, tol=1e-9)


def test_pn_ps_well_ordered_and_match_enumeration():
    rng = np.random.default_rng(57)
    pn_obj = np.zeros(8)
    pn_obj[3] = 1.0  # atom (y0=0, y1=1, x=1)
    ps_obj = np.zeros(8)
    ps_obj[2] = 1.0  # atom (y0=0, y1=1, x=0)
    for _ in range(60):
        exp, obs = random_counterfactual_instance(rng)
        if obs.joint[1, 1] <= 1e-6 or obs.joint[0, 0] <= 1e-6:
            continue
        pn, ps = pn_ps_point_bounds(exp, obs)
        assert pn.lo <= pn.hi + 1e-12
        assert ps.lo <= ps.hi + 1e-12
        A, b = counterfactual_atom_system(exp, obs)
        oracle_pn = oracle_extremal_scan(pn_obj, A=A, b=b)
        assert pn.lo == pytest.approx(oracle_pn.lo / obs.joint[1, 1], abs=1e-8)
        assert pn.hi == pytest.approx(oracle_pn.hi / obs.joint[1, 1], abs=1e-8)
        oracle_ps = oracle_extremal_scan(ps_obj, A=A, b=b)
        assert ps.lo == pytest.approx(oracle_ps.lo / obs.joint[0, 0], abs=1e-8)
        assert ps.hi == pytest.approx(oracle_ps.hi / obs.joint[0, 0], abs=1e-8)


def test_pn_zero_conditioning_raises():
    exp = ExperimentalData(0.5, 0.5)
    obs = ObservationalData([[0.5, 0.5], [0.0, 0.0]])
    with pytest.raises(ZeroConditioningError):
        pn_ps_point_bounds(exp, obs)


# ---------------------------------------------------------------------------
# the closed forms against the simplex and an outside LP solver


@pytest.fixture(scope="module")
def alpha_sweep():
    """3000 tables whose arms are drawn from Dirichlet(alpha) over the four
    (y, x) cells, 750 for each alpha (about 30 % violate the inequality),
    each with the simplex's lower-endpoint run."""
    rng = np.random.default_rng(5)
    tables = [
        ObservedIVTable(np.stack([rng.dirichlet(np.full(4, alpha)).reshape(2, 2) for _ in range(2)], axis=-1))
        for alpha in (0.1, 0.5, 1.0, 5.0)
        for _ in range(750)
    ]
    return [(t, lp_solve(LpProblem(c=ACE_COEFFS, A=RESPONSE_MATRIX, b=t.flat(), sense="min"))) for t in tables]


def excess(t: ObservedIVTable) -> float:
    return instrumental_inequality(t).value - 1.0


def test_ace_bounds_match_the_simplex_on_the_alpha_sweep(alpha_sweep):
    infeasible = 0
    for t, lo in alpha_sweep:
        if lo.status == "infeasible":
            infeasible += 1
            with pytest.raises(InfeasibleTableError) as err:
                ace_bounds(t)
            # the closed form reports the simplex's own figure, to the printed digit
            assert str(err.value) == f"observed table is not IV-compatible (phase-1 infeasibility {lo.phase1_infeasibility:.3e})"
            continue
        hi = lp_solve(LpProblem(c=ACE_COEFFS, A=RESPONSE_MATRIX, b=t.flat(), sense="max"))
        iv = ace_bounds(t)
        assert abs(iv.lo - lo.value) <= 1e-11 and abs(iv.hi - hi.value) <= 1e-11
    assert 500 < infeasible < 1500


def test_phase1_mass_is_twice_the_instrumental_excess(alpha_sweep):
    checked = 0
    for t, lo in alpha_sweep:
        if lo.status == "infeasible":
            assert lo.phase1_infeasibility == pytest.approx(2.0 * excess(t), rel=1e-8)
            checked += 1
    assert checked > 500


def _block_linprog(c_block, A_block, rhs):
    """One LP per row of ``rhs`` (min c_block'x, A_block x = row, x >= 0),
    solved by scipy as a single block-diagonal program; the optimal x per row.

    HiGHS's feasibility tolerances are absolute (1e-10 at the tightest), so
    the right-hand sides are scaled up by 1e4 and the solutions scaled back.
    """
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    n = len(rhs)
    res = optimize.linprog(
        np.tile(c_block, n),
        A_eq=sparse.kron(sparse.eye(n), sparse.csr_matrix(A_block), format="csr"),
        b_eq=1e4 * np.ravel(rhs),
        method="highs-ds",
        options={"presolve": False, "primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0
    return res.x.reshape(n, -1) / 1e4


def test_ace_bounds_match_scipy_on_the_alpha_sweep(alpha_sweep):
    tables = [t for t, _ in alpha_sweep]
    cells = np.array([t.flat() for t in tables])
    # phase 1 of every table: R q + u - v = p, minimize the artificial mass sum(u + v)
    phase1 = np.hstack([RESPONSE_MATRIX, np.eye(8), -np.eye(8)])
    mass = _block_linprog(np.r_[np.zeros(16), np.ones(16)], phase1, cells)[:, 16:].sum(axis=1)
    feasible = []
    for t, m in zip(tables, mass):
        assert m == pytest.approx(max(0.0, 2.0 * excess(t)), rel=1e-8, abs=1e-12)
        try:
            feasible.append((t, ace_bounds(t)))
        except InfeasibleTableError:
            assert m > TOL
        else:
            assert m <= TOL
    rhs = [t.flat() for t, _ in feasible]
    lows = _block_linprog(ACE_COEFFS, RESPONSE_MATRIX, rhs) @ ACE_COEFFS
    highs = _block_linprog(-ACE_COEFFS, RESPONSE_MATRIX, rhs) @ ACE_COEFFS
    closed = np.array([(iv.lo, iv.hi) for _, iv in feasible])
    assert np.abs(closed[:, 0] - lows).max() <= 1e-11
    assert np.abs(closed[:, 1] - highs).max() <= 1e-11


def table_at_excess(inside: ObservedIVTable, outside: ObservedIVTable, target: float):
    """The mixture (1 - s) inside + s outside whose instrumental excess is
    ``target``, by bisection on s (the excess is convex in s)."""
    def mix(s):
        return ObservedIVTable((1.0 - s) * inside.p + s * outside.p)

    lo, hi = 0.0, 1.0
    assert excess(mix(lo)) <= target < excess(mix(hi))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if excess(mix(mid)) <= target:
            lo = mid
        else:
            hi = mid
    return mix(lo)


def test_infeasibility_verdict_matches_the_simplex_in_the_boundary_band():
    rng = np.random.default_rng(6)
    magnitudes = list(10.0 ** rng.uniform(-12, -8, size=60)) + [4.5e-10, 5.5e-10, 9e-10, 4.9e-12, 5.1e-12]
    checked = 0
    for magnitude in magnitudes:
        for sign in (1.0, -1.0):
            inside = random_iv_table(rng)
            outside = ObservedIVTable(0.5 * crafted_violating_table().p + 0.5 * random_iv_table(rng).p)
            t = table_at_excess(inside, outside, sign * magnitude)
            assert 1e-12 * 0.99 <= abs(excess(t)) <= 1e-8 * 1.01
            for tol in (TOL, 1e-11):
                lp = lp_solve(LpProblem(c=ACE_COEFFS, A=RESPONSE_MATRIX, b=t.flat(), sense="min"), tol)
                try:
                    ace_bounds(t, tol)
                    closed_feasible = True
                except InfeasibleTableError:
                    closed_feasible = False
                assert closed_feasible == (lp.status != "infeasible"), (excess(t), tol)
                checked += 1
    assert checked == 4 * len(magnitudes)


_arm = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda a: sum(a) > 0.01)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    types=st.lists(st.floats(0.01, 1.0), min_size=16, max_size=16),
    arms=st.tuples(_arm, _arm),
    share=st.floats(0.0, 1.0),
    tol=st.sampled_from((1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5)),
)
def test_ace_bounds_within_tolerance_never_fail_the_interval_check(types, arms, share, tol):
    # a model's table mixed with arbitrary arms; outside the polytope the
    # Balke-Pearl endpoints can cross, and at the larger tolerances such
    # tables still pass the feasibility test
    inside = iv_table_from_response_dist(np.array(types) / sum(types))
    outside = np.stack([np.array(a).reshape(2, 2) / sum(a) for a in arms], axis=-1)
    t = ObservedIVTable((1.0 - share) * inside.p + share * outside)
    if excess(t) > tol:
        return
    try:
        iv = ace_bounds(t, tol)  # a ValidationError from Interval fails the test
    except InfeasibleTableError:
        assert 2.0 * excess(t) > tol
    else:
        assert 2.0 * excess(t) <= tol and iv.lo <= iv.hi


def test_pn_ps_numerators_match_the_atom_lp_down_to_tiny_conditioning_cells():
    rng = np.random.default_rng(59)
    for k in range(300):
        pi = rng.dirichlet(np.ones(8))  # atom index 4*y0 + 2*y1 + x
        scale = 10.0 ** rng.uniform(-12, -3)
        pi[[3, 7] if k % 2 else [0, 2]] *= scale  # shrink P(x=1, y=1) or P(x=0, y=0)
        pi /= pi.sum()
        joint = np.array([[pi[0] + pi[2], pi[4] + pi[6]], [pi[1] + pi[5], pi[3] + pi[7]]])
        exp = ExperimentalData(float(pi[2] + pi[3] + pi[6] + pi[7]), float(pi[4] + pi[5] + pi[6] + pi[7]))
        obs = ObservationalData(joint)
        pn, ps = pn_ps_point_bounds(exp, obs)
        A, b = counterfactual_atom_system(exp, obs)
        for bounds, atom, cell in ((pn, 3, joint[1, 1]), (ps, 2, joint[0, 0])):
            assert 0.0 <= bounds.lo <= bounds.hi <= 1.0
            lp_lo, lp_hi = (lp_solve(LpProblem(c=np.eye(8)[atom], A=A, b=b, sense=s)).value for s in ("min", "max"))
            assert abs(bounds.lo * cell - lp_lo) <= 1e-12
            assert abs(bounds.hi * cell - lp_hi) <= 1e-12


def test_pn_ps_inconsistent_data_raises_like_the_atom_lp():
    exp = ExperimentalData(0.1, 0.5)  # P(y_x) = 0.1 < P(x, y) = 0.25: no model has both
    obs = ObservationalData(np.full((2, 2), 0.25))
    A, b = counterfactual_atom_system(exp, obs)
    assert lp_solve(LpProblem(c=np.eye(8)[3], A=A, b=b, sense="min")).status == "infeasible"
    with pytest.raises(InconsistentDataError):
        pn_ps_point_bounds(exp, obs)


def test_pn_ps_stay_probabilities_on_data_inconsistent_within_tolerance():
    # P(y_x') exceeds its largest compatible value by 1e-11, and P(x, y) is 1e-6
    obs = ObservationalData([[0.5, 0.2], [0.3 - 1e-6, 1e-6]])
    exp = ExperimentalData(0.3, 0.5 + 1e-11)
    A, b = counterfactual_atom_system(exp, obs)
    assert lp_solve(LpProblem(c=np.eye(8)[3], A=A, b=b, sense="min")).status == "optimal"
    pn, ps = pn_ps_point_bounds(exp, obs)
    assert 0.0 <= pn.lo <= pn.hi <= 1.0 and 0.0 <= ps.lo <= ps.hi <= 1.0
    assert pn.hi == 0.0  # the numerator's upper end, -1e-11, is held at zero before dividing by 1e-6
    pns = pns_bounds(exp, obs)
    for bounds in (pn_ps_point_bounds, pns_bounds):
        with pytest.raises(InconsistentDataError, match=r"P\(y_x'\) = 0.500000 lies 1.000e-11 outside"):
            bounds(exp, obs, tol=1e-12)
    assert 0.0 <= pns.lo <= pns.hi <= 1.0


def test_pns_upper_end_is_held_at_zero_within_tolerance():
    # P(y_x) 1e-10 below P(x, y) and P(y_x') 1e-10 above P(x', y) + P(x): the
    # mixed term of the upper bound is -2e-10
    exp = ExperimentalData(0.25 - 1e-10, 0.75 + 1e-10)
    obs = ObservationalData(np.full((2, 2), 0.25))
    assert pns_bounds(exp, obs) == Interval(0.0, 0.0)
    with pytest.raises(InconsistentDataError, match=r"P\(y_x\)"):
        pns_bounds(exp, obs, tol=1e-11)
