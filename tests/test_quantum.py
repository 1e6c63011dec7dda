import numpy as np
import pytest

from polybounds import (
    Behavior,
    CHSH_COEFFS,
    DichotomicObservable,
    NpaLevel,
    TwoQubitState,
    ValidationError,
    ace_bounds,
    behavior_to_correlations,
    chsh_operator,
    chsh_value,
    chsh_variant_values,
    local_max,
    moment_program,
    no_signaling_max,
    noncommutativity_witness,
    npa_bound,
    quantum_ace_bounds,
    quantum_behavior,
    quantum_gap_report,
    realify,
)
from polybounds.quantum import (
    PAULI_X,
    PAULI_Z,
    _classical_moment_start,
    _entry_monomial,
    _iv_data_constraints,
    _words,
)
from conftest import random_iv_table, random_observable, random_quantum_behavior, random_state

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
        assert b.no_signaling
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


def test_witness_commuting_observables_capped_at_two():
    w = noncommutativity_witness(Z, Z, X, X)
    assert w.comm_a == pytest.approx(0.0, abs=1e-12)
    assert w.achievable_chsh <= 2.0 + 1e-9


def test_witness_anticommuting_observables_reach_tsirelson():
    w = noncommutativity_witness(Z, X, Z, X)
    assert w.comm_a == pytest.approx(2.0, abs=1e-12)
    assert w.comm_b == pytest.approx(2.0, abs=1e-12)
    assert w.achievable_chsh == pytest.approx(2 * np.sqrt(2), abs=1e-12)


def test_witness_intermediate_angle_strictly_between():
    mid = DichotomicObservable.from_angle(np.pi / 4)
    w = noncommutativity_witness(Z, mid, Z, mid)
    assert 2.0 + 1e-6 < w.achievable_chsh < 2 * np.sqrt(2) - 1e-6


def test_npa_chsh_both_levels():
    v1 = npa_bound(NpaLevel.L1, CHSH_COEFFS)
    v2 = npa_bound(NpaLevel.L1AB, CHSH_COEFFS)
    assert v1 == pytest.approx(2 * np.sqrt(2), abs=1e-4)
    assert v2 == pytest.approx(2 * np.sqrt(2), abs=1e-4)
    assert v2 <= v1 + 1e-6


def test_npa_single_correlator():
    assert npa_bound(NpaLevel.L1, [[1, 0], [0, 0]]) == pytest.approx(1.0, abs=1e-6)


def test_npa_hierarchy_monotone_on_random_functionals():
    rng = np.random.default_rng(64)
    for _ in range(10):
        f = rng.normal(size=(2, 2))
        v1 = npa_bound(NpaLevel.L1, f)
        v2 = npa_bound(NpaLevel.L1AB, f)
        assert v2 <= v1 + 1e-6


def _tsirelson_closed_form(f) -> float:
    """max over c in [-1, 1] of sum_y sqrt(f0y^2 + f1y^2 + 2 f0y f1y c).

    c is the cosine between Alice's two unit vectors; the sum is concave in
    c, so a ternary search finds the maximum.
    """

    def value(c):
        return sum(np.sqrt(max(f[0, y] ** 2 + f[1, y] ** 2 + 2 * f[0, y] * f[1, y] * c, 0.0)) for y in range(2))

    lo, hi = -1.0, 1.0
    for _ in range(200):
        a, b = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if value(a) < value(b):
            lo = a
        else:
            hi = b
    return max(value(-1.0), value(1.0), value(0.5 * (lo + hi)))


def test_npa_level1ab_random_functionals_converge_to_closed_form():
    rng = np.random.default_rng(70)
    for _ in range(20):
        f = rng.normal(size=(2, 2))
        value, result = npa_bound(NpaLevel.L1AB, f, return_result=True)
        assert result.termination in ("converged", "stalled")
        assert value == pytest.approx(_tsirelson_closed_form(f), abs=1e-8)


def test_npa_upper_bounds_quantum_behaviors():
    rng = np.random.default_rng(65)
    for _ in range(10):
        f = rng.normal(size=(2, 2))
        bound = npa_bound(NpaLevel.L1, f)
        for _ in range(5):
            b = random_quantum_behavior(rng)
            value = float(np.sum(f * behavior_to_correlations(b).e))
            assert value <= bound + 1e-6


def test_moment_matrix_dimensions_and_monomials():
    p1 = moment_program(NpaLevel.L1, {((0,), (0,)): 1.0})
    assert p1.dimension == 5
    p2 = moment_program(NpaLevel.L1AB, {((0,), (0,)): 1.0})
    assert p2.dimension == 9
    # the cross product words make the length-2 monomials appear
    assert p2.entry(((0, 1), (0, 1)))
    with pytest.raises(ValidationError):
        p1.entry(((0, 1), (0, 1)))


def test_exact_quantum_moment_matrix_is_feasible_for_the_relaxation():
    """Soundness: the realified moment matrix of an actual quantum model
    satisfies every constraint of the relaxation and never beats its bound."""
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
        assert np.linalg.eigvalsh(realify(gamma)).min() >= -1e-10

        f = rng.normal(size=(2, 2))
        program = moment_program(
            NpaLevel.L1AB, {((x,), (y,)): f[x, y] for x in range(2) for y in range(2)}
        )
        re_gamma = gamma.real
        for A, rhs in program.problem.constraints:
            assert float(np.tensordot(A, re_gamma)) == pytest.approx(rhs, abs=1e-10)
        achieved = float(np.tensordot(program.problem.C, re_gamma))
        assert achieved <= npa_bound(NpaLevel.L1AB, f) + 1e-6


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
        assert npa_bound(NpaLevel.L1, f) == pytest.approx(2 * np.sqrt(2), abs=1e-6)


def test_gap_report_ordering_on_random_functionals():
    rng = np.random.default_rng(67)
    for _ in range(150):
        f = rng.normal(size=(2, 2))
        report = quantum_gap_report(f)
        assert report.classical <= report.quantum + 1e-6
        assert report.quantum <= report.nosignaling + 1e-6


def test_quantum_ace_boundary_table_raises_solver_error():
    """Deterministic-compliance data leaves the moment relaxation with no
    interior point; the solver error propagates rather than a loose value."""
    from polybounds import SolverError

    p = np.zeros((2, 2, 2))
    p[1, 1, 1] = 0.7
    p[0, 1, 1] = 0.3
    p[1, 0, 0] = 0.4
    p[0, 0, 0] = 0.6
    from polybounds import ObservedIVTable

    with pytest.raises(SolverError):
        quantum_ace_bounds(ObservedIVTable(p), NpaLevel.L1)


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
    quantum, diagnostics = quantum_ace_bounds(table, NpaLevel.L1)
    assert quantum.lo <= classical.lo + 1e-6
    assert classical.hi <= quantum.hi + 1e-6
    assert -1.0 - 1e-6 <= quantum.lo <= quantum.hi <= 1.0 + 1e-6
    assert diagnostics["classical_start"]


@pytest.mark.parametrize("level", list(NpaLevel))
def test_classical_start_is_positive_definite_and_feasible(level):
    rng = np.random.default_rng(70)
    for _ in range(10):
        table = random_iv_table(rng)
        gamma = _classical_moment_start(table, level)
        assert gamma is not None
        assert np.linalg.eigvalsh(gamma).min() > 0.0
        program = moment_program(level, {((), (0,)): 1.0}, _iv_data_constraints(table))
        for A, rhs in program.problem.constraints:
            assert abs(float(np.tensordot(A, gamma)) - rhs) <= 1e-12


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
