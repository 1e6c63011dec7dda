import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from polybounds import (
    Behavior,
    CHSH_COEFFS,
    CHSH_VARIANTS,
    DichotomicObservable,
    FloatRangeError,
    InfeasibleTableError,
    NpaLevel,
    ObservedIVTable,
    TwoQubitState,
    ValidationError,
    ace_bounds,
    behavior_to_correlations,
    chsh_operator,
    chsh_value,
    chsh_variant_values,
    iv_table_from_response_dist,
    local_max,
    moment_program,
    no_signaling_max,
    npa_bound,
    quantum_ace_bounds,
    quantum_behavior,
    quantum_gap_report,
    tsirelson_bound,
)
from polybounds.causal import (
    BALKE_PEARL_HI,
    BALKE_PEARL_LO,
    ActiveRows,
    active_rows,
    instrumental_inequality,
    manski_bounds,
)
from polybounds.errors import SdpConvergenceError
from polybounds.polytope import STRATEGY_CORRELATIONS
from polybounds.solvers import TOL
from polybounds.quantum import (
    PAULI_X,
    PAULI_Z,
    _entry_monomial,
    _level1_ace_bounds,
    _pinned_letters,
    _words,
    quantum_ace_sdp,
)
from conftest import (
    near_edge_iv_table,
    one_sided_iv_table,
    random_iv_table,
    structural_iv_tables,
    random_observable,
    random_quantum_behavior,
    random_state,
    tsirelson_closed_form,
    two_qubit_iv_model,
)

KET0 = np.array([1.0, 0.0])
Z = DichotomicObservable(PAULI_Z)
X = DichotomicObservable(PAULI_X)


def test_state_validation():
    with pytest.raises(ValidationError):
        TwoQubitState(np.eye(4))  # trace 4
    with pytest.raises(ValidationError):
        TwoQubitState(np.diag([1.5, -0.5, 0.0, 0.0]))  # not PSD
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1] = 0.3
    with pytest.raises(ValidationError):
        TwoQubitState(bad)  # not Hermitian


def test_observable_validation():
    with pytest.raises(ValidationError):
        DichotomicObservable(np.array([[1.0, 0.0], [0.0, 0.5]]))  # eigenvalue not +-1
    with pytest.raises(ValidationError):
        DichotomicObservable(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    o = DichotomicObservable.from_angle(0.7)
    assert np.abs(o.m @ o.m - np.eye(2)).max() < 1e-12


def test_product_state_deterministic_behavior():
    rho = TwoQubitState.product(KET0, KET0)
    b = quantum_behavior(rho, Z, Z, Z, Z)
    assert b.p[0, 0].min() == pytest.approx(1.0, abs=1e-12)
    assert chsh_value(behavior_to_correlations(b)) == pytest.approx(2.0, abs=1e-12)


def test_maximally_mixed_state_has_no_correlations():
    b = quantum_behavior(TwoQubitState.maximally_mixed(), Z, X, Z, X)
    assert np.abs(behavior_to_correlations(b).e).max() < 1e-12


def test_singlet_correlations_follow_angle_difference():
    rng = np.random.default_rng(61)
    singlet = TwoQubitState.singlet()
    for _ in range(36):
        ta, tb = rng.uniform(0, 2 * np.pi, 2)
        b = quantum_behavior(
            singlet,
            DichotomicObservable.from_angle(ta),
            Z,
            DichotomicObservable.from_angle(tb),
            Z,
        )
        e = behavior_to_correlations(b).e
        assert e[0, 0] == pytest.approx(-np.cos(ta - tb), abs=1e-12)


def test_singlet_optimal_angles_reach_tsirelson():
    singlet = TwoQubitState.singlet()
    b = quantum_behavior(
        singlet,
        DichotomicObservable.from_angle(0.0),
        DichotomicObservable.from_angle(-np.pi / 2),
        DichotomicObservable.from_angle(3 * np.pi / 4),
        DichotomicObservable.from_angle(-3 * np.pi / 4),
    )
    e = behavior_to_correlations(b).e
    s = np.sqrt(2) / 2
    np.testing.assert_allclose(e, [[s, s], [s, -s]], atol=1e-12)
    assert chsh_value(behavior_to_correlations(b)) == pytest.approx(2 * np.sqrt(2), abs=1e-12)


def test_quantum_behaviors_are_nosignaling_and_tsirelson_bounded():
    rng = np.random.default_rng(62)
    for _ in range(40):
        b = random_quantum_behavior(rng)
        assert b.no_signaling_at(TOL)
        assert chsh_variant_values(behavior_to_correlations(b)).max() <= 2 * np.sqrt(2) + 1e-9


def test_chsh_operator_identity():
    rng = np.random.default_rng(63)
    for _ in range(40):
        a0, a1, b0, b1 = (random_observable(rng) for _ in range(4))
        C = chsh_operator(a0, a1, b0, b1)
        comm_a = a0.m @ a1.m - a1.m @ a0.m
        comm_b = b0.m @ b1.m - b1.m @ b0.m
        identity = 4 * np.eye(4) - np.kron(comm_a, comm_b)
        assert np.abs(C @ C - identity).max() <= 1e-10


def _top_chsh(a0, a1, b0, b1) -> float:
    """The best CHSH value any state reaches with these fixed observables."""
    return float(np.linalg.eigvalsh(chsh_operator(a0, a1, b0, b1)).max())


def test_chsh_operator_of_a_commuting_pair_is_capped_at_two():
    assert _top_chsh(Z, Z, X, X) <= 2.0 + 1e-9


def test_chsh_operator_of_anticommuting_pairs_reaches_tsirelson():
    assert _top_chsh(Z, X, Z, X) == pytest.approx(2 * np.sqrt(2), abs=1e-12)


def test_chsh_operator_at_an_intermediate_angle_lies_strictly_between():
    mid = DichotomicObservable.from_angle(np.pi / 4)
    assert 2.0 + 1e-6 < _top_chsh(Z, mid, Z, mid) < 2 * np.sqrt(2) - 1e-6


def test_the_simulator_types_refuse_non_finite_input():
    # a NaN passes every "error > tol" check, and an eigensolver given one
    # fails to converge: each is refused before either
    builds = (
        lambda: DichotomicObservable(np.full((2, 2), np.nan)),
        lambda: DichotomicObservable.from_angle(np.nan),
        lambda: DichotomicObservable.from_angle(np.inf),
        lambda: DichotomicObservable.from_bloch([np.inf, 0.0, 0.0]),
        lambda: TwoQubitState(np.full((4, 4), np.nan)),
        lambda: TwoQubitState.from_ket([np.nan, 0.0, 0.0, 0.0]),
    )
    for build in builds:
        with pytest.raises(ValidationError, match="finite"):
            build()


def test_npa_chsh_both_levels():
    v1 = npa_bound(NpaLevel.L1, CHSH_COEFFS).value
    v2 = npa_bound(NpaLevel.L1AB, CHSH_COEFFS).value
    assert v1 == pytest.approx(2 * np.sqrt(2), abs=1e-4)
    assert v2 == pytest.approx(2 * np.sqrt(2), abs=1e-4)
    assert v2 <= v1 + 1e-6


def test_npa_single_correlator():
    assert npa_bound(NpaLevel.L1, [[1, 0], [0, 0]]).value == pytest.approx(1.0, abs=1e-6)


def test_npa_hierarchy_monotone_on_random_functionals():
    rng = np.random.default_rng(64)
    for _ in range(10):
        f = rng.normal(size=(2, 2))
        v1 = npa_bound(NpaLevel.L1, f).value
        v2 = npa_bound(NpaLevel.L1AB, f).value
        assert v2 <= v1 + 1e-6


def test_npa_level1ab_random_functionals_converge_to_closed_form():
    rng = np.random.default_rng(70)
    for _ in range(20):
        f = rng.normal(size=(2, 2))
        result = npa_bound(NpaLevel.L1AB, f)
        assert result.termination in ("converged", "stalled")
        assert result.value == pytest.approx(tsirelson_closed_form(f), abs=1e-8)


def _sampled_functionals() -> list:
    """100 normal and 60 integer-valued functionals in {-2..2}, from default_rng(1)."""
    rng = np.random.default_rng(1)
    normal = [rng.normal(size=(2, 2)) for _ in range(100)]
    return normal + [rng.integers(-2, 3, size=(2, 2)).astype(float) for _ in range(60)]


def test_tsirelson_bound_matches_the_ternary_reference():
    cases = set()
    for f in _sampled_functionals():
        b = 2.0 * f[0] * f[1]
        if b[0] * b[1] < 0:
            a = f[0] ** 2 + f[1] ** 2
            stationary = (b[1] ** 2 * a[0] - b[0] ** 2 * a[1]) / (b[0] * b[1] * (b[0] - b[1]))
            cases.add("interior" if -1 < stationary < 1 else "outside")
        else:
            cases.add("positive" if b[0] * b[1] > 0 else "zero")
        reference = tsirelson_closed_form(f)
        assert tsirelson_bound(f) == pytest.approx(reference, rel=1e-12, abs=1e-12), f
    assert cases == {"interior", "outside", "positive", "zero"}


def test_tsirelson_bound_chsh_and_zero_are_exact():
    assert tsirelson_bound(CHSH_COEFFS) == 2 * np.sqrt(2)
    assert tsirelson_bound(np.zeros((2, 2))) == 0.0


def test_tsirelson_bound_with_coefficients_near_the_underflow_range():
    # b0 b1 (b0 - b1) underflows for the smaller ones: the endpoints decide
    for eps in (1e-50, 1e-154, 2.2125284822930556e-154, 1e-200, 5e-324):
        for f in ([[1.0, eps], [eps, -1.0]], [[1.0, eps], [2 * eps, -eps]], [[eps, 1.0], [-3 * eps, 1.0]]):
            f = np.array(f)
            assert tsirelson_bound(f) == pytest.approx(tsirelson_closed_form(f), rel=1e-12), f


def test_tsirelson_bound_is_invariant_under_relabelling():
    for f in _sampled_functionals():
        value = tsirelson_bound(f)
        for g in (f.T, f[::-1], f[:, ::-1], f * [[1.0], [-1.0]], f * [[-1.0, 1.0]]):
            assert tsirelson_bound(g) == pytest.approx(value, rel=1e-12), (f, g)


def test_tsirelson_bound_agrees_with_both_relaxation_levels():
    functionals = _sampled_functionals()
    for f in functionals[:10] + functionals[100:110]:
        for level in NpaLevel:
            assert npa_bound(level, f).value == pytest.approx(tsirelson_bound(f), abs=1e-7), (f, level)


def test_npa_bound_scales_a_dominant_coefficient():
    f = [[1e20, 1.0], [1.0, -1.0]]
    for level in NpaLevel:
        assert npa_bound(level, f).value == pytest.approx(tsirelson_bound(f), rel=1e-8)


def test_gap_entries_past_the_float_range_are_solver_errors():
    # quantum 2*sqrt(2)*5e307 and classical 1e308 are finite; sum |f| is not
    with pytest.raises(FloatRangeError, match="no-signaling"):
        quantum_gap_report(5e307 * CHSH_COEFFS)
    with pytest.raises(FloatRangeError, match="quantum"):
        tsirelson_bound(1e308 * CHSH_COEFFS)


def test_npa_upper_bounds_quantum_behaviors():
    rng = np.random.default_rng(65)
    for _ in range(10):
        f = rng.normal(size=(2, 2))
        bound = npa_bound(NpaLevel.L1, f).value
        for _ in range(5):
            b = random_quantum_behavior(rng)
            value = float(np.sum(f * behavior_to_correlations(b).e))
            assert value <= bound + 1e-6


def test_moment_matrix_dimensions_and_monomials():
    assert moment_program(NpaLevel.L1, {((0,), (0,)): 1.0}).dimension == 5
    assert moment_program(NpaLevel.L1AB, {((0,), (0,)): 1.0}).dimension == 9
    # the cross product words make the length-2 monomials appear: an objective
    # on one is accepted at level 1ab and rejected at level 1
    length_two = {((0, 1), (0, 1)): 1.0}
    assert moment_program(NpaLevel.L1AB, length_two).C.any()
    with pytest.raises(ValidationError, match="does not appear at level 1"):
        moment_program(NpaLevel.L1, length_two)


def _table_with_arms(rng, arms) -> ObservedIVTable:
    """A random IV table whose arm z takes treatment arms[z] with
    certainty, or both treatments when arms[z] is None.  Two arms pinned to
    one treatment share its outcome distribution, as in every table that a
    moment matrix fits."""
    p = rng.dirichlet(np.ones(4), size=2).reshape(2, 2, 2).transpose(1, 2, 0)  # (y, x, z)
    for z, x in enumerate(arms):
        if x is not None:
            p[:, 1 - x, z] = 0.0
            p[:, x, z] = rng.dirichlet(np.ones(2))
    if arms[0] is not None and arms[0] == arms[1]:
        p[:, :, 1] = p[:, :, 0]
    return ObservedIVTable(p)


def _bits(problem) -> tuple:
    return problem.C.tobytes(), problem.A.tobytes(), problem.b.tobytes()


@pytest.mark.parametrize("level", list(NpaLevel))
@pytest.mark.parametrize("arms", list(itertools.product((None, 0, 1), repeat=2)))
def test_tables_of_one_pin_pattern_share_one_family(level, arms):
    rng = np.random.default_rng(67)
    tables = [_table_with_arms(rng, arms) for _ in range(2)]
    effect = {((), (0,)): 0.5, ((), (1,)): -0.5}
    problems = [moment_program(level, effect, table) for table in tables]
    assert np.array_equal(problems[0].A, problems[1].A)  # the table moves only b
    # each pinned letter takes its word, and at level 1ab its two cross
    # products, out of the matrix: 3x3 with both arms pinned
    pinned = sum(x is not None for x in arms)
    assert problems[0].dimension == (5 - pinned if level is NpaLevel.L1 else 9 - 3 * pinned)
    assert not any(v.flags.writeable for v in (problems[0].C, problems[0].A, problems[0].b))
    assert not np.array_equal(problems[0].b, problems[1].b)
    for table, problem in zip(tables, problems):
        assert _bits(moment_program(level, effect, table)) == _bits(problem)


@pytest.mark.parametrize("level", list(NpaLevel))
def test_programs_without_a_table_have_equal_A_and_b(level):
    chsh = {((x,), (y,)): CHSH_COEFFS[x, y] for x in range(2) for y in range(2)}
    problem = moment_program(level, chsh)
    other = moment_program(level, {((0,), (1,)): 1.0})
    assert np.array_equal(other.A, problem.A) and np.array_equal(other.b, problem.b)
    assert _bits(moment_program(level, chsh)) == _bits(problem)


def test_exact_quantum_moment_matrix_is_feasible_for_the_relaxation():
    """Soundness: the real part of an actual quantum model's moment matrix
    is PSD, satisfies every constraint of the relaxation and never beats
    its bound."""
    rng = np.random.default_rng(66)
    words = _words(NpaLevel.L1AB)

    for _ in range(5):
        rho = random_state(rng)
        a_ops = [random_observable(rng).m for _ in range(2)]
        b_ops = [random_observable(rng).m for _ in range(2)]

        def word_operator(word):
            op_a = np.eye(2, dtype=complex)
            for i in word[0]:
                op_a = op_a @ a_ops[i]
            op_b = np.eye(2, dtype=complex)
            for j in word[1]:
                op_b = op_b @ b_ops[j]
            return np.kron(op_a, op_b)

        ops = [word_operator(w) for w in words]
        n = len(ops)
        gamma = np.empty((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                gamma[i, j] = np.trace(rho.rho @ ops[i].conj().T @ ops[j])
        assert np.abs(gamma - gamma.conj().T).max() < 1e-10
        re_gamma = gamma.real
        assert np.linalg.eigvalsh(re_gamma).min() >= -1e-10

        f = rng.normal(size=(2, 2))
        problem = moment_program(
            NpaLevel.L1AB, {((x,), (y,)): f[x, y] for x in range(2) for y in range(2)}
        )
        for A, rhs in zip(problem.A, problem.b):
            assert float(np.tensordot(A, re_gamma)) == pytest.approx(rhs, abs=1e-10)
        achieved = float(np.tensordot(problem.C, re_gamma))
        assert achieved <= npa_bound(NpaLevel.L1AB, f).value + 1e-6


def test_gap_report_chsh_triple():
    report = quantum_gap_report(CHSH_COEFFS)
    assert report.kind == "functional"
    assert report.classical == pytest.approx(2.0, abs=1e-9)
    assert report.quantum == pytest.approx(2 * np.sqrt(2), abs=1e-4)
    assert report.nosignaling == pytest.approx(4.0, abs=1e-9)
    assert report.gap == pytest.approx(2 * np.sqrt(2) - 2.0, abs=1e-4)


def test_gap_report_single_correlator_has_no_gap():
    report = quantum_gap_report(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert report.classical == pytest.approx(1.0, abs=1e-9)
    assert report.quantum == pytest.approx(1.0, abs=1e-6)
    assert report.nosignaling == pytest.approx(1.0, abs=1e-9)
    assert abs(report.gap) <= 1e-6


def test_correlator_plane_cross_section_matches_closed_forms():
    """In the plane of two orthogonal CHSH combinations the three bodies are
    exactly a square (half-width 2), a disk (radius 2*sqrt(2)), and a diamond
    (vertices at 4); the support functions must match."""
    f2 = np.array([[1.0, -1.0], [1.0, 1.0]])
    for phi in np.linspace(0, 2 * np.pi, 8, endpoint=False):
        c, s = np.cos(phi), np.sin(phi)
        f = c * CHSH_COEFFS + s * f2
        assert local_max(f) == pytest.approx(2 * (abs(c) + abs(s)), abs=1e-9)
        assert no_signaling_max(f) == pytest.approx(4 * max(abs(c), abs(s)), abs=1e-9)
        assert npa_bound(NpaLevel.L1, f).value == pytest.approx(2 * np.sqrt(2), abs=1e-6)


def test_gap_report_ordering_on_random_functionals():
    rng = np.random.default_rng(67)
    for _ in range(150):
        f = rng.normal(size=(2, 2))
        report = quantum_gap_report(f)
        assert report.classical <= report.quantum + 1e-6
        assert report.quantum <= report.nosignaling + 1e-6


def test_quantum_ace_full_compliance_table_gives_the_point_effect():
    """Deterministic compliance pins both Alice letters; with A_0 = +1 and
    A_1 = -1 substituted out, the data fix <B_0> and <B_1>, and the effect is
    p(y=1 | z=1) - p(y=1 | z=0) exactly."""
    p = np.zeros((2, 2, 2))
    p[1, 1, 1] = 0.7
    p[0, 1, 1] = 0.3
    p[1, 0, 0] = 0.4
    p[0, 0, 0] = 0.6
    for level in NpaLevel:
        interval, _ = quantum_ace_bounds(ObservedIVTable(p), level)
        assert interval.lo == pytest.approx(0.3, abs=1e-7)
        assert interval.hi == pytest.approx(0.3, abs=1e-7)


def test_quantum_ace_one_sided_tables_enclose_classical_and_shrink_with_level():
    rng = np.random.default_rng(3)
    for _ in range(6):
        table = one_sided_iv_table(rng)
        assert not table.p[:, 1, 0].any()
        level1, _ = quantum_ace_bounds(table, NpaLevel.L1)
        level1ab, _ = quantum_ace_bounds(table, NpaLevel.L1AB)
        assert level1.encloses(ace_bounds(table), tol=1e-6)
        assert level1.encloses(level1ab, tol=1e-6)


def test_quantum_ace_interval_contains_the_models_own_effect():
    """Soundness: the table of a quantum model, with a pinned treatment arm
    (A_0 = +-I) or a generic one, gives a level-1 interval that holds the
    model's own effect (<B_0> - <B_1>) / 2."""
    rng = np.random.default_rng(5)
    for k in range(20):
        rho = random_state(rng)
        if k % 2 == 0:
            a0 = DichotomicObservable(np.eye(2) * (1.0 if k % 4 == 0 else -1.0))
        else:
            a0 = random_observable(rng)
        a1, b0, b1 = (random_observable(rng) for _ in range(3))
        behavior = quantum_behavior(rho, a0, a1, b0, b1)
        table = ObservedIVTable(np.einsum("xyzx->yxz", behavior.p))
        bob = [float(np.trace(rho.rho @ np.kron(np.eye(2), b.m)).real) for b in (b0, b1)]
        interval, _ = quantum_ace_bounds(table, NpaLevel.L1)
        assert interval.contains(0.5 * (bob[0] - bob[1]), tol=1e-6)


def _types_with_arms(rng, arms) -> ObservedIVTable:
    """The table of random response-type weights whose treatment responses
    send arm z to treatment arms[z] with certainty, or to both treatments
    when arms[z] is None (responses (f(0), f(1)): never-taker, complier,
    defier, always-taker)."""
    responses = [i for i, f in enumerate(((0, 0), (0, 1), (1, 0), (1, 1)))
                 if all(x is None or f[z] == x for z, x in enumerate(arms))]
    weights = np.zeros(16)
    for i in responses:
        weights[4 * i : 4 * i + 4] = rng.dirichlet(np.ones(4))
    return iv_table_from_response_dist(weights / weights.sum())


@pytest.mark.parametrize("arms", list(itertools.product((None, 0, 1), repeat=2)))
def test_level1_closed_form_matches_the_sdp_on_every_pin_pattern(arms):
    rng = np.random.default_rng(71)
    for _ in range(3):
        table = _types_with_arms(rng, arms)
        pins = _pinned_letters(table)
        assert sorted(pins) == [z for z, x in enumerate(arms) if x is not None]
        assert all(pins[z] == (1.0 if x == 0 else -1.0) for z, x in enumerate(arms) if x is not None)
        closed, diagnostics = quantum_ace_bounds(table, NpaLevel.L1)
        sdp, _ = quantum_ace_sdp(table, NpaLevel.L1)
        assert diagnostics == {"engine": "closed-form", "level": "1"}
        assert closed.lo == pytest.approx(sdp.lo, abs=1e-8)
        assert closed.hi == pytest.approx(sdp.hi, abs=1e-8)
        # the SDP reports a primal iterate, inside the exact interval
        assert closed.encloses(sdp, tol=1e-11)


def test_level1_closed_form_matches_the_sdp_on_random_and_structural_tables():
    # the searched angle between the two arms' directions lands on both
    # sides of pi / 2 in this pool
    rng = np.random.default_rng(76)
    tables = [random_iv_table(rng) for _ in range(12)] + [ObservedIVTable(t) for t in structural_iv_tables(rng, 12)]
    for table in tables:
        closed, _ = quantum_ace_bounds(table, NpaLevel.L1)
        sdp, _ = quantum_ace_sdp(table, NpaLevel.L1)
        assert closed.lo == pytest.approx(sdp.lo, abs=1e-8)
        assert closed.hi == pytest.approx(sdp.hi, abs=1e-8)


def test_level1_searched_endpoints_match_the_boxed_sdp_on_two_qubit_models():
    # a model's table often has an active row that is not natural, and that
    # endpoint is searched over the chords clipped to the box
    rng = np.random.default_rng(79)
    searched = 0
    for _ in range(20):
        table, _ = two_qubit_iv_model(rng)
        rows = active_rows(table)
        searched += (not rows.lo_natural) + (not rows.hi_natural)
        closed, _ = quantum_ace_bounds(table, NpaLevel.L1)
        sdp, _ = quantum_ace_sdp(table, NpaLevel.L1)
        assert closed.lo == pytest.approx(sdp.lo, abs=1e-8)
        assert closed.hi == pytest.approx(sdp.hi, abs=1e-8)
    assert searched >= 3


def test_every_quantum_level_refuses_tables_past_the_instrumental_inequality(monkeypatch):
    """A table that fails the instrumental inequality at the default
    tolerance empties the box of the natural bounds, which every quantum
    model obeys: the closed form, level 1ab and the audit SDP at both levels
    all refuse it, before any solve."""

    def refuse(*args):
        raise AssertionError("a table past the instrumental inequality reached the SDP")

    monkeypatch.setattr("polybounds.quantum.sdp_solve", refuse)
    for excess in (1e-6, 1e-3, 0.05):
        for seed in range(20):
            table = near_edge_iv_table(np.random.default_rng(seed), excess)
            for level in NpaLevel:
                for bounds in (quantum_ace_bounds, quantum_ace_sdp):
                    with pytest.raises(InfeasibleTableError, match="not IV-compatible"):
                        bounds(table, level)


def _bits_of(interval) -> tuple:
    return interval.lo.hex(), interval.hi.hex()


def test_natural_active_rows_answer_level1_with_no_search(monkeypatch):
    """When both active Balke-Pearl rows are natural, the level-1 endpoints
    are the ace_bounds endpoints bit for bit, and no angle is searched."""

    def refuse(*args):
        raise AssertionError("the level-1 closed form searched an angle")

    monkeypatch.setattr("polybounds.quantum._peak_bracket", refuse)
    rng = np.random.default_rng(77)
    for arms in itertools.product((None, 0, 1), repeat=2):
        natural = 0
        for _ in range(10):
            table = _types_with_arms(rng, arms)
            rows = active_rows(table)
            if rows.lo_natural and rows.hi_natural:
                natural += 1
                quantum, _ = quantum_ace_bounds(table, NpaLevel.L1)
                assert _bits_of(quantum) == _bits_of(ace_bounds(table))
        assert natural, arms


def test_pinned_arms_answer_level1_with_ace_bounds(monkeypatch):
    """A pin fixes its b_x to a point of its box, and the free arm's 3x3
    block holds every b of the other box, with b_0 and b_1 uncoupled: on a
    table with a pinned arm, level 1 is ace_bounds bit for bit, with no
    angle searched.  Among the structural tables, seed 0's table 148 once
    got an upper end an ulp inside ace_bounds' from a searched chord."""

    def refuse(*args):
        raise AssertionError("the level-1 closed form searched an angle")

    monkeypatch.setattr("polybounds.quantum._peak_bracket", refuse)
    rng = np.random.default_rng(74)
    patterns = [arms for arms in itertools.product((None, 0, 1), repeat=2) if arms != (None, None)]
    tables = [_types_with_arms(rng, arms) for arms in patterns for _ in range(5)]
    for seed in range(10):
        tables += [ObservedIVTable(t) for t in structural_iv_tables(np.random.default_rng(seed), 300)]
    answered = 0
    for table in tables:
        if not _pinned_letters(table):
            continue
        try:
            classical = ace_bounds(table)
        except InfeasibleTableError:
            continue
        answered += 1
        quantum, _ = quantum_ace_bounds(table, NpaLevel.L1)
        assert _bits_of(quantum) == _bits_of(classical)
    assert answered == len(patterns) * 5 + 283


def test_level1_answers_every_table_at_the_edge_that_ace_bounds_answers():
    """A table past the edge by up to 4e-10 empties the box by up to 8e-10,
    within the tolerance at which ace_bounds still answers.  Here the optimum
    often sits on a kink, where a clipped chord first reaches its box, and
    every searched endpoint is still an outer bound: at or outside the
    level-1 SDP's primal value, or inside it by at most its duality gap and
    1e-9."""
    searched, inside = 0, []
    for excess in (0.0, 1e-12, 4e-10):
        rng = np.random.default_rng(78)
        for k in range(20):
            table = near_edge_iv_table(rng, excess)
            classical = ace_bounds(table)
            quantum, _ = quantum_ace_bounds(table, NpaLevel.L1)
            assert quantum.encloses(classical, tol=1e-12)
            rows = active_rows(table)
            sdp, diagnostics = quantum_ace_sdp(table, NpaLevel.L1)
            gap_lo, gap_hi = diagnostics["duality_gaps"]
            for natural, depth, gap, end in (
                (rows.lo_natural, quantum.lo - sdp.lo, gap_lo, "lo"),
                (rows.hi_natural, sdp.hi - quantum.hi, gap_hi, "hi"),
            ):
                searched += not natural
                if not natural and depth > gap + 1e-9:
                    inside.append((excess, k, end, depth))
    assert searched == 120
    assert inside == []


def test_boxed_level1_holds_each_two_qubit_models_effect_and_encloses_level1ab():
    """Soundness of the unobserved cells: the interval lies in the box of
    the natural bounds and holds the model's own effect (every one lies at
    least 0.0088 inside it), and it encloses level 1ab."""
    rng = np.random.default_rng(12345)
    natural = [0, 1, 4, 5]
    for k in range(300):
        table, effect = two_qubit_iv_model(rng)
        interval, _ = quantum_ace_bounds(table, NpaLevel.L1)
        assert interval.contains(effect, tol=1e-9), k
        cells = np.append(table.flat(), 1.0)
        assert (BALKE_PEARL_LO[natural] @ cells).max() <= interval.lo + 1e-12
        assert interval.hi <= (BALKE_PEARL_HI[natural] @ cells).min() + 1e-12
        if k < 30:
            level1ab, _ = quantum_ace_bounds(table, NpaLevel.L1AB)
            assert interval.encloses(level1ab, tol=1e-7), k


def test_level1_closed_form_calls_no_solver(monkeypatch):
    def refuse(*args):
        raise AssertionError("the level-1 closed form called the SDP")

    monkeypatch.setattr("polybounds.quantum.sdp_solve", refuse)
    monkeypatch.setattr("polybounds.quantum.moment_program", refuse)
    rng = np.random.default_rng(72)
    for arms in itertools.product((None, 0, 1), repeat=2):
        table = _types_with_arms(rng, arms)
        quantum, _ = quantum_ace_bounds(table, NpaLevel.L1)
        assert quantum.encloses(ace_bounds(table), tol=1e-12)
        assert quantum_gap_report(table).diagnostics == {"engine": "closed-form", "level": "1"}


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16).filter(lambda w: sum(w) > 0.01))
def test_level1_interval_encloses_classical_and_level1ab(weights):
    table = iv_table_from_response_dist(np.array(weights) / sum(weights))
    try:
        level1ab, _ = quantum_ace_bounds(table, NpaLevel.L1AB)
    except SdpConvergenceError:
        assume(False)  # the zero-cell tables that 1ab cannot solve yet
    level1, _ = quantum_ace_bounds(table, NpaLevel.L1)
    assert level1.encloses(ace_bounds(table), tol=1e-12)
    assert -1.0 <= level1.lo <= level1.hi <= 1.0
    assert level1.encloses(level1ab, tol=1e-7)


def test_near_pinned_arms_approach_the_pinned_interval():
    """(1 - eps) of a one-sided table, whose arm z = 0 is pinned, plus eps of
    an interior one: every table answers, and from eps = 1e-9 on each
    endpoint lies within 2 sqrt(eps) of the pinned table's."""
    rng = np.random.default_rng(7)
    for _ in range(6):
        pinned, inner = one_sided_iv_table(rng), random_iv_table(rng)
        assert _pinned_letters(pinned) == {0: 1.0}
        at_pin, _ = quantum_ace_bounds(pinned, NpaLevel.L1)
        for eps in (1e-12, 1e-10, 1e-9, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2):
            table = ObservedIVTable((1.0 - eps) * pinned.p + eps * inner.p)
            assert not _pinned_letters(table)
            interval, _ = quantum_ace_bounds(table, NpaLevel.L1)
            assert interval.encloses(ace_bounds(table), tol=1e-12)
            if eps >= 1e-9:
                assert abs(interval.lo - at_pin.lo) <= 2.0 * np.sqrt(eps)
                assert abs(interval.hi - at_pin.hi) <= 2.0 * np.sqrt(eps)


def test_an_sdp_that_stops_at_its_cap_names_the_least_treated_arm():
    """An arm pinned but for 1e-7 of its mass stops the level-1 SDP at its
    iteration cap; the error names that arm and its treatment mass, so the
    case reads apart from a solver fault.  (The unobserved cells let most
    such tables converge: this one ends with a primal residual of 1.7e-7.)"""
    rng = np.random.default_rng(1)
    table = ObservedIVTable((1.0 - 1e-7) * one_sided_iv_table(rng).p + 1e-7 * random_iv_table(rng).p)
    mass = table.p[:, 1, 0].sum()
    with pytest.raises(SdpConvergenceError) as raised:
        quantum_ace_sdp(table, NpaLevel.L1)
    message = str(raised.value)
    assert message.startswith("no convergence in 200 iterations")
    assert message.endswith(f"(arm z=0 has a treatment mass of {mass:.3g}, the least of the unpinned arms)")


def test_level1_closed_form_rejects_tables_outside_the_relaxation():
    # 80 % of a table whose instrumental-inequality value is 2: the box of
    # the natural bounds is empty
    rng = np.random.default_rng(73)
    crafted = np.zeros((2, 2, 2))
    crafted[1, 1, 0] = crafted[0, 1, 1] = 1.0
    violating = ObservedIVTable(0.8 * crafted + 0.2 * random_iv_table(rng).p)
    with pytest.raises(InfeasibleTableError, match="not IV-compatible"):
        quantum_ace_bounds(violating, NpaLevel.L1)
    # both arms always treat, with different outcome distributions: the one
    # <B_1> cannot take both values, and the inequality fails too
    p = np.zeros((2, 2, 2))
    p[:, 1, 0] = (0.3, 0.7)
    p[:, 1, 1] = (0.6, 0.4)
    with pytest.raises(InfeasibleTableError):
        quantum_ace_bounds(ObservedIVTable(p), NpaLevel.L1)
    # a treatment mass too small to resolve is no pin: where both active rows
    # are natural, no chord is computed and the endpoints are ace_bounds'
    tiny = ObservedIVTable((1.0 - 1e-300) * one_sided_iv_table(rng).p + 1e-300 * random_iv_table(rng).p)
    assert _bits_of(quantum_ace_bounds(tiny, NpaLevel.L1)[0]) == _bits_of(ace_bounds(tiny))
    # and where an endpoint is searched, it is a range error: the treated
    # cells of arm z=0 of a structural table scaled by 1e-300, the lower
    # endpoint searched
    p = structural_iv_tables(np.random.default_rng(0), 20)[19]
    p[:, 1, 0] *= 1e-300
    p[:, :, 0] /= p[:, :, 0].sum()
    rows = active_rows(ObservedIVTable(p))
    assert (rows.lo_natural, rows.hi_natural) == (False, True)
    with pytest.raises(FloatRangeError, match="arm z=0"):
        quantum_ace_bounds(ObservedIVTable(p), NpaLevel.L1)


def test_level1_refuses_a_chord_that_misses_the_ball_at_every_angle():
    # active_rows refuses these tables first, so their rows are forged here,
    # none natural, and both endpoints are searched
    crafted = np.zeros((2, 2, 2))
    crafted[1, 1, 0] = crafted[0, 1, 1] = 1.0
    interior = random_iv_table(np.random.default_rng(0)).p
    forged = ActiveRows(0.0, 0.0, 2, 2, False, False)
    for mix, excess in ((0.5, "0.47"), (0.8, "7.25")):
        table = ObservedIVTable(mix * crafted + (1.0 - mix) * interior)
        with pytest.raises(InfeasibleTableError, match=rf"outside the level-1 quantum relaxation \(by {excess} past"):
            _level1_ace_bounds(table, forged)


def test_pinned_arms_that_disagree_fit_no_moment_matrix():
    # both arms always take treatment 1, one with outcome 1 and one with
    # outcome 0: a least-squares <B_1> = 0 misses both rows by 0.5
    p = np.zeros((2, 2, 2))
    p[1, 1, 0] = p[0, 1, 1] = 1.0
    for level in NpaLevel:
        with pytest.raises(InfeasibleTableError, match="fits no moment matrix"):
            quantum_ace_sdp(ObservedIVTable(p), level)
    with pytest.raises(InfeasibleTableError, match="fits no moment matrix"):
        quantum_ace_bounds(ObservedIVTable(p), NpaLevel.L1AB)
    # outcome distributions that differ less still miss; equal ones fit, and
    # pin the effect's <B_1>
    p[:, 1, 0], p[:, 1, 1] = (0.3, 0.7), (0.3 + 1e-8, 0.7 - 1e-8)
    with pytest.raises(InfeasibleTableError, match="fits no moment matrix"):
        moment_program(NpaLevel.L1, {((), (1,)): 1.0}, ObservedIVTable(p))
    p[:, 1, 1] = (0.3, 0.7)
    for level in NpaLevel:
        interval, _ = quantum_ace_sdp(ObservedIVTable(p), level)
        assert interval.lo == pytest.approx(-0.5 - 0.5 * (0.3 - 0.7), abs=1e-7)
        assert interval.hi == pytest.approx(0.5 - 0.5 * (0.3 - 0.7), abs=1e-7)


def test_gap_report_behavior_route():
    b = quantum_behavior(
        TwoQubitState.singlet(),
        DichotomicObservable.from_angle(0.0),
        DichotomicObservable.from_angle(-np.pi / 2),
        DichotomicObservable.from_angle(3 * np.pi / 4),
        DichotomicObservable.from_angle(-3 * np.pi / 4),
    )
    report = quantum_gap_report(b)
    assert report.kind == "behavior"
    assert report.classical == pytest.approx(2 * np.sqrt(2), abs=1e-9)
    assert report.quantum == pytest.approx(2 * np.sqrt(2), abs=1e-4)
    assert report.nosignaling == pytest.approx(4.0, abs=1e-9)


def test_gap_report_pr_box_flags_superquantum():
    report = quantum_gap_report(Behavior.pr_box())
    assert report.classical == pytest.approx(4.0, abs=1e-9)
    assert any("super-quantum" in note for note in report.notes)


def test_quantum_ace_interval_contains_classical():
    rng = np.random.default_rng(68)
    table = random_iv_table(rng)
    classical = ace_bounds(table)
    quantum, _ = quantum_ace_bounds(table, NpaLevel.L1)
    assert quantum.lo <= classical.lo + 1e-6
    assert classical.hi <= quantum.hi + 1e-6
    assert -1.0 - 1e-6 <= quantum.lo <= quantum.hi <= 1.0 + 1e-6


def test_gap_report_iv_table_route():
    rng = np.random.default_rng(69)
    report = quantum_gap_report(random_iv_table(rng))
    assert report.kind == "iv-table"
    assert report.nosignaling.width == pytest.approx(1.0, abs=1e-12)
    assert report.gap >= -1e-6
    assert report.quantum.encloses(report.classical, tol=1e-6)


def test_entry_monomial_reduction():
    # (A0 B0)'(A0 B1) = B0 A0 A0 B1 = B0 B1
    assert _entry_monomial(((0,), (0,)), ((0,), (1,))) == ((), (0, 1))
    # (A0 B0)'(A1 B1) keeps both parties' length-2 words
    assert _entry_monomial(((0,), (0,)), ((1,), (1,))) == ((0, 1), (0, 1))
    # diagonal entries collapse to the identity
    assert _entry_monomial(((0, 1), ()), ((0, 1), ())) == ((), ())


# ---------------------------------------------------------------------------
# the closed forms on Python floats against the vectorized numpy expressions
# they replaced, held here as references: equal bit for bit, signed zeros,
# infinities and raised errors included


def _local_max_vectorized(f: np.ndarray) -> float:
    with np.errstate(over="ignore"):
        return float((STRATEGY_CORRELATIONS * f).sum(axis=(1, 2)).max())


def _no_signaling_max_vectorized(f: np.ndarray) -> float:
    with np.errstate(over="ignore"):
        return float(np.abs(f).sum())


def _tsirelson_vectorized(f: np.ndarray) -> float:
    scale = float(np.abs(f).max())
    if scale == 0.0:
        return 0.0
    g = f / scale
    a = g[0] ** 2 + g[1] ** 2
    b = 2.0 * g[0] * g[1]
    cosines = [-1.0, 1.0]
    if b[0] * b[1] < 0.0:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            stationary = (b[1] ** 2 * a[0] - b[0] ** 2 * a[1]) / (b[0] * b[1] * (b[0] - b[1]))
        if -1.0 < stationary < 1.0:
            cosines.append(float(stationary))
    c = np.array(cosines)[:, None]
    value = scale * float(np.sqrt(np.maximum(a + b * c, 0.0)).sum(axis=1).max())
    if not np.isfinite(value):
        raise FloatRangeError("the quantum value of the functional is past the floating-point range")
    return value


def _exact(function, *args):
    """The result's exact bits (negative zero apart from zero), or the type
    of the error raised."""
    try:
        return function(*args).hex()
    except FloatRangeError as exc:
        return type(exc)


#: Functionals where the closed form's rounding is delicate: a squared
#: coefficient that C ``pow`` and x * x round apart, and a stationary
#: denominator of -0.0.
WITNESS_FUNCTIONALS = (
    [[14689.204016873298, -23885.34276419946], [13598.813150448486, 24514.51694544626]],
    [[1.0, 1.0], [1e-162, -1e-162]],
)


def _functional_sweep(rng, count: int) -> list:
    out = [np.array(f) for f in WITNESS_FUNCTIONALS]
    out += [np.array([[1e300, 1.0], [1.0, -1.0]]), np.zeros((2, 2)), np.full((2, 2), -0.0)]
    out += [sign * scale * v for v in CHSH_VARIANTS for sign in (1.0, -1.0) for scale in (0.5, 2.0)]
    while len(out) < count:
        # one scale for the four cells, or (3 in 10) a scale per cell
        f = rng.standard_normal((2, 2)) * 10.0 ** rng.uniform(-300.0, 300.0, size=(2, 2) if rng.random() < 0.3 else 1)
        kind = rng.integers(5)
        if kind == 0:
            f[rng.integers(2)] = 0.0  # a zero row
        elif kind == 1:
            f[rng.random((2, 2)) < 0.5] = rng.choice((0.0, -0.0))  # zero cells
        elif kind == 2:
            f = CHSH_VARIANTS[rng.integers(8)] * rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
        out.append(f)
    return out


def test_functional_closed_forms_match_the_vectorized_forms_bit_for_bit():
    for f in _functional_sweep(np.random.default_rng(29), 12000):
        assert _exact(local_max, f) == _exact(_local_max_vectorized, f), f.tolist()
        assert _exact(no_signaling_max, f) == _exact(_no_signaling_max_vectorized, f), f.tolist()
        assert _exact(tsirelson_bound, f) == _exact(_tsirelson_vectorized, f), f.tolist()


def test_witness_functionals_take_the_rounding_of_the_vectorized_forms():
    squared, flat = (np.array(f) for f in WITNESS_FUNCTIONALS)
    b1 = 2.0 * (squared[0, 1] / squared.max()) * (squared[1, 1] / squared.max())
    assert b1 ** 2 != b1 * b1  # C pow and the product round apart here
    g = flat / np.abs(flat).max()
    b = 2.0 * g[0] * g[1]
    assert b[0] * b[1] < 0.0 and str(b[0] * b[1] * (b[0] - b[1])) == "-0.0"
    assert tsirelson_bound(flat) == 2.0
    for f in (squared, flat):
        assert tsirelson_bound(f).hex() == _tsirelson_vectorized(f).hex()


def _iv_tables(rng) -> list:
    tables = [random_iv_table(rng) for _ in range(40)] + [one_sided_iv_table(rng) for _ in range(40)]
    tables += [ObservedIVTable(p) for p in structural_iv_tables(rng, 40)]
    tables += [_types_with_arms(rng, arms) for arms in itertools.product((None, 0, 1), repeat=2) for _ in range(3)]
    untreated = np.zeros((2, 2, 2))
    untreated[0, 0] = 1.0  # no unit is ever treated, and none recovers
    tables.append(ObservedIVTable(untreated))
    # the zero cells as negative zeros
    tables += [ObservedIVTable(np.where(t.p == 0.0, -0.0, t.p)) for t in tables if (t.p == 0.0).any()]
    return tables


def test_instrumental_inequality_matches_the_vectorized_form_bit_for_bit():
    rng = np.random.default_rng(30)
    tables = _iv_tables(rng) + [near_edge_iv_table(rng, excess) for excess in (0.0, 1e-6, 0.05)]
    for t in tables:
        for variant, axis in (("standard", 2), ("paper_literal", 1)):
            reference = float(t.p.max(axis=axis).sum(axis=0).max())
            assert instrumental_inequality(t, variant).value.hex() == reference.hex()


def test_gap_report_manski_inputs_match_the_vectorized_form_bit_for_bit(monkeypatch):
    seen = []
    monkeypatch.setattr("polybounds.quantum.manski_bounds", lambda *args: seen.append(args) or manski_bounds(*args))
    for t in _iv_tables(np.random.default_rng(31)):
        quantum_gap_report(t)
        p_yx = t.p.mean(axis=2)
        mass = p_yx.sum(axis=0)
        px1 = float(mass[1] / mass.sum())
        e1 = float(p_yx[1, 1] / mass[1]) if px1 > 0 else 0.0
        e0 = float(p_yx[1, 0] / mass[0]) if px1 < 1 else 0.0
        assert [v.hex() for v in seen.pop()] == [e1.hex(), e0.hex(), px1.hex()]
