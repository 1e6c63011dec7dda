from collections import Counter

import numpy as np
import pytest

from polybounds import (
    CHSH_COEFFS,
    DimensionMismatchError,
    NpaLevel,
    ObservedIVTable,
    SdpConvergenceError,
    SdpProblem,
    SolverError,
    ValidationError,
    moment_program,
    sdp_solve,
)
from polybounds.quantum import _effect_program, quantum_ace_sdp
from polybounds.solvers import sdp
from conftest import one_sided_iv_table, random_iv_table, structural_iv_tables


def _unit(n, i, j):
    E = np.zeros((n, n))
    if i == j:
        E[i, i] = 1.0
    else:
        E[i, j] = E[j, i] = 0.5
    return E


def test_diagonal_objective_pinned_by_diagonal_constraints():
    p = SdpProblem(np.diag([1.0, -1.0]), [_unit(2, 0, 0), _unit(2, 1, 1)], [1.0, 1.0])
    r = sdp_solve(p)
    assert r.termination == "converged"
    assert r.value == pytest.approx(0.0, abs=1e-7)


def test_offdiagonal_capped_by_psd():
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    p = SdpProblem(C, [_unit(2, 0, 0), _unit(2, 1, 1)], [1.0, 1.0])
    r = sdp_solve(p)
    assert r.value == pytest.approx(2.0, abs=1e-7)
    assert np.linalg.eigvalsh(r.X).min() >= -1e-7


def test_npa_level1_chsh_instance():
    problem = moment_program(NpaLevel.L1, {((x,), (y,)): CHSH_COEFFS[x, y] for x in range(2) for y in range(2)})
    r = sdp_solve(problem)
    assert r.value == pytest.approx(2 * np.sqrt(2), abs=1e-6)


def test_random_instances_meet_hygiene_invariants():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, max(2, n)))
        As = [0.5 * (M + M.T) for M in rng.normal(size=(m, n, n))]
        As.append(np.eye(n))  # trace cap keeps the maximum finite
        X0 = rng.normal(size=(n, n))
        X0 = X0 @ X0.T + 0.1 * np.eye(n)
        b = [float(np.tensordot(A, X0)) for A in As]
        C = rng.normal(size=(n, n))
        C = 0.5 * (C + C.T)
        r = sdp_solve(SdpProblem(C, As, b))
        assert np.linalg.eigvalsh(r.X).min() >= -1e-7
        worst = max(abs(float(np.tensordot(A, r.X)) - bk) for A, bk in zip(As, b))
        assert worst <= 1e-7
        assert r.gap <= 1e-6 * (1 + abs(r.value))
        assert r.value <= r.dual_value + 1e-6  # weak duality, max sense


def test_iteration_cap_is_never_reported_as_converged(monkeypatch):
    problem = moment_program(NpaLevel.L1AB, {((x,), (y,)): CHSH_COEFFS[x, y] for x in range(2) for y in range(2)})
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 3)
    try:
        r = sdp_solve(problem)
    except SdpConvergenceError:
        return
    assert r.termination == "iteration_limit"
    assert r.iterations == 3


def test_non_finite_data_raises_convergence_error():
    p = SdpProblem(np.array([[1e300, 1e300], [1e300, 1.0]]), [np.eye(2)], [1.0])
    with pytest.raises(SdpConvergenceError):
        sdp_solve(p)


def test_size_ceiling_32x32():
    rng = np.random.default_rng(33)
    n, m = 32, 30
    As = [0.5 * (M + M.T) for M in rng.normal(size=(m, n, n))]
    As.append(np.eye(n))
    X0 = rng.normal(size=(n, n))
    X0 = X0 @ X0.T + 0.5 * np.eye(n)
    b = [float(np.tensordot(A, X0)) for A in As]
    C = rng.normal(size=(n, n))
    C = 0.5 * (C + C.T)
    r = sdp_solve(SdpProblem(C, As, b))
    assert np.linalg.eigvalsh(r.X).min() >= -1e-7
    assert max(abs(float(np.tensordot(A, r.X)) - bk) for A, bk in zip(As, b)) <= 1e-7
    assert r.gap <= 1e-6 * (1 + abs(r.value))


def test_infeasible_sdp_raises_convergence_error():
    # X11 = -1 is impossible for a PSD matrix
    p = SdpProblem(np.eye(2), [_unit(2, 0, 0)], [-1.0])
    with pytest.raises((SdpConvergenceError, SolverError)):
        sdp_solve(p)


def test_symmetry_validation():
    with pytest.raises(ValidationError):
        SdpProblem(np.array([[0.0, 1.0], [0.0, 0.0]]), [np.eye(2)], [1.0])


def test_problem_checks_copies_and_freezes_its_arrays():
    def data():
        return np.eye(2), np.stack([_unit(2, 0, 0), _unit(2, 1, 1)]), np.array([1.0, 2.0])

    given = data()
    problem = SdpProblem(*given)
    assert problem.dimension == 2
    for mine, kept in zip(given, (problem.C, problem.A, problem.b)):
        assert np.array_equal(mine, kept) and not np.shares_memory(mine, kept) and not kept.flags.writeable
        mine[0] = 5.0
    assert all(np.array_equal(kept, fresh) for kept, fresh in zip((problem.C, problem.A, problem.b), data()))

    C, A, b = data()
    for shapes in (
        (np.ones((2, 3)), A, b),  # a non-square objective
        (np.eye(3), A, b),  # matrices of another size than the objective
        (C, A[0], b),  # one matrix where a stack is due
        (C, A, b[:1]),  # fewer right-hand sides than matrices
        (C, A[:1], b),  # more right-hand sides than matrices
        (C, A, b[:, None]),  # right-hand sides that are not a vector
    ):
        with pytest.raises(DimensionMismatchError):
            SdpProblem(*shapes)
    with pytest.raises(ValidationError, match="at least one equality constraint"):
        SdpProblem(C, np.zeros((0, 2, 2)), np.zeros(0))
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError, match="symmetric"):
        SdpProblem(skew, A, b)
    with pytest.raises(ValidationError, match="symmetric"):
        SdpProblem(C, np.stack([A[0], skew]), b)


def _endpoint_pair(table, level=NpaLevel.L1):
    """The two quantum-IV endpoint programs of ``table``: the effect and its negation."""
    problem = moment_program(level, {((), (0,)): 0.5, ((), (1,)): -0.5}, table)
    return problem, SdpProblem(-problem.C, problem.A, problem.b)


def test_negated_problem_shares_the_validated_constraints():
    problem, negated = _endpoint_pair(random_iv_table(np.random.default_rng(5)))
    assert np.array_equal(negated.A, problem.A) and np.array_equal(negated.b, problem.b)
    assert np.array_equal(negated.C, -problem.C)
    assert not any(v.flags.writeable for v in (negated.C, negated.A, negated.b))
    rebuilt = SdpProblem(-problem.C.copy(), problem.A.copy(), problem.b.copy())
    for shared, checked in zip(map(sdp_solve, (problem, negated)), map(sdp_solve, (problem, rebuilt))):
        assert (shared.value, shared.gap, shared.iterations) == (checked.value, checked.gap, checked.iterations)


def test_problem_with_new_data_shares_the_validated_constraints():
    problem = moment_program(NpaLevel.L1, {((x,), (y,)): CHSH_COEFFS[x, y] for x in range(2) for y in range(2)})
    b = np.arange(problem.b.size, dtype=float)
    twin = SdpProblem(-problem.C, problem.A, b)
    assert np.array_equal(twin.A, problem.A) and twin.b.tolist() == b.tolist()
    assert np.array_equal(twin.C, -problem.C) and not twin.C.flags.writeable
    with pytest.raises(ValidationError):
        SdpProblem(np.triu(np.ones((5, 5))), problem.A, b)
    with pytest.raises(DimensionMismatchError):
        SdpProblem(np.eye(4), problem.A, b)
    with pytest.raises(DimensionMismatchError):
        SdpProblem(problem.C, problem.A, b[1:])


def _pinned_table() -> ObservedIVTable:
    """Full compliance: both treatment arms deterministic, a 3x3 program."""
    p = np.zeros((2, 2, 2))
    p[1, 1, 1], p[0, 1, 1], p[1, 0, 0], p[0, 0, 0] = 0.7, 0.3, 0.4, 0.6
    return ObservedIVTable(p)


def test_sdp_endpoints_do_not_cross_and_stop_within_forty_iterations():
    rng = np.random.default_rng(13)
    tables = [random_iv_table(rng) for _ in range(3)]
    tables += [ObservedIVTable(t) for t in structural_iv_tables(rng, 3)]
    tables += [one_sided_iv_table(rng) for _ in range(3)] + [_pinned_table()]
    for table in tables:
        for level in NpaLevel:
            interval, diagnostics = quantum_ace_sdp(table, level)
            # an explicit inverse of the Schur complement in place of the
            # LU solve runs level-1ab endpoints to the cap
            assert max(diagnostics["sdp_iterations"]) < 40
            # the program solved, with the unobserved cells at level 1
            problem = _effect_program(table, level)
            hi, lo = map(sdp_solve, (problem, SdpProblem(-problem.C, problem.A, problem.b)))
            assert (lo.iterations, hi.iterations) == diagnostics["sdp_iterations"]
            assert hi.value >= -lo.value - hi.gap - lo.gap
            assert interval.lo <= interval.hi


def test_iv_endpoints_converge_within_sixteen_iterations():
    # Mehrotra's second-order correction: these 50 endpoints take at most 14
    # iterations at level 1 and 15 at level 1ab (19 and 22 without it)
    rng = np.random.default_rng(0)
    tables = [random_iv_table(rng) for _ in range(10)]
    tables += [ObservedIVTable(t) for t in structural_iv_tables(rng, 10)]
    tables += [one_sided_iv_table(rng) for _ in range(5)]
    for level in NpaLevel:
        for table in tables:
            for result in map(sdp_solve, _endpoint_pair(table, level)):
                assert result.termination == "converged"
                assert result.iterations <= 16


def test_infeasible_problems_raise_at_the_iteration_cap():
    # X11 = -1 and X11 = -2 have no PSD solution; X11 = 1 does
    infeasible = [SdpProblem(np.eye(2), [_unit(2, 0, 0)], [-v]) for v in (1.0, 2.0)]
    feasible = SdpProblem(-np.eye(2), [_unit(2, 0, 0)], [1.0])
    assert sdp_solve(feasible).iterations < sdp.MAX_ITERATIONS
    messages = []
    for problem in infeasible:
        with pytest.raises(SdpConvergenceError) as raised:
            sdp_solve(problem)
        messages.append(str(raised.value))
    assert messages[0] != messages[1]
    for message in messages:
        assert message.startswith(f"no convergence in {sdp.MAX_ITERATIONS} iterations")


def test_pinned_arms_converge_quickly():
    for result in map(sdp_solve, _endpoint_pair(_pinned_table())):
        assert result.X.shape == (3, 3)
        assert result.termination == "converged"
        assert result.iterations < 30


def test_duplicated_constraint_rows_solve_like_the_original():
    # a repeated row makes the Schur complement singular; the regularized LU
    # solve takes the same steps as on the program without the repeat
    chsh = moment_program(NpaLevel.L1, {((x,), (y,)): CHSH_COEFFS[x, y] for x in range(2) for y in range(2)})
    table = random_iv_table(np.random.default_rng(5))
    problems = [chsh, *_endpoint_pair(table, NpaLevel.L1), *_endpoint_pair(table, NpaLevel.L1AB)]
    for problem in problems:
        expected = sdp_solve(problem)
        m = problem.b.size
        for rows in ([0], [0, m - 1], list(range(m))):
            keep = list(range(m)) + rows
            result = sdp_solve(SdpProblem(problem.C, problem.A[keep], problem.b[keep]))
            assert result.iterations == expected.iterations
            assert abs(result.value - expected.value) <= 1e-11


def test_linear_algebra_calls_per_iteration(monkeypatch):
    # Per iteration that steps: one eigh of the pair [X; Z], taken by the PD
    # guard and reused by the next iteration, one eigh for the NT point, one
    # eigvalsh per evaluated direction, and two solves, each with its
    # refinement step.  The CHSH program never escalates its centering
    # weight nor halves a step in the guard, so it evaluates two directions
    # (the predictor and the corrector it takes) per iteration.
    problem = moment_program(NpaLevel.L1, {((x,), (y,)): CHSH_COEFFS[x, y] for x in range(2) for y in range(2)})
    calls = Counter()

    def counting(name, fn, operand):
        def counted(*args):
            calls[name, np.shape(args[operand])] += 1
            return fn(*args)

        return counted

    for name in ("eigh", "eigvalsh", "solve"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name), 0))
    monkeypatch.setattr(sdp, "_direction", counting("direction", sdp._direction, 1))
    result = sdp_solve(problem)
    steps = result.iterations - 1  # the last iteration stops before it steps
    m = len(problem.b)
    assert steps > 0
    assert dict(calls) == {
        ("eigh", (2, 5, 5)): 1 + steps,  # the starting point's, then the guard's
        ("eigh", (5, 5)): steps,
        ("eigvalsh", (2, 5, 5)): 2 * steps,
        ("solve", (m, m)): 4 * steps,
        ("direction", ()): 2 * steps,
    }
