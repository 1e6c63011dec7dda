import numpy as np
import pytest

from polybounds import (
    ACE_COEFFS,
    DimensionMismatchError,
    IterationLimitError,
    LpProblem,
    ObservedIVTable,
    RESPONSE_MATRIX,
    lp_solve,
    oracle_extremal_scan,
)
from polybounds.solvers import lp


def test_trivial_max():
    r = lp_solve(LpProblem(c=[1, 0], A=[[1, 1]], b=[1], sense="max"))
    assert r.status == "optimal"
    assert r.value == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(r.x, [1, 0], atol=1e-12)


def test_infeasible_certified_by_phase1():
    r = lp_solve(LpProblem(c=np.zeros(3), A=[[1, 1, 1], [1, 1, 1]], b=[1, 2], sense="min"))
    assert r.status == "infeasible"
    assert r.phase1_infeasibility > 1e-9
    # Farkas certificate: b'y > 0 while A'y <= 0
    y = r.dual
    assert y @ np.array([1.0, 2.0]) > 1e-9
    assert (np.array([[1, 1, 1], [1, 1, 1]]).T @ y).max() <= 1e-9


def test_unbounded():
    r = lp_solve(LpProblem(c=[1, 0], A=[[0, 1]], b=[1], sense="max"))
    assert r.status == "unbounded"
    assert r.value == np.inf


def test_redundant_rows_are_dropped():
    r = lp_solve(LpProblem(c=[1, 0], A=[[1, 1], [1, 1], [2, 2]], b=[1, 1, 2], sense="max"))
    assert r.status == "optimal"
    assert r.value == pytest.approx(1.0, abs=1e-12)


def test_balke_pearl_point_identified_instance():
    p = np.zeros((2, 2, 2))
    p[1, 1, 1] = 0.7
    p[0, 1, 1] = 0.3
    p[1, 0, 0] = 0.4
    p[0, 0, 0] = 0.6
    flat = ObservedIVTable(p).flat()
    lo = lp_solve(LpProblem(c=ACE_COEFFS, A=RESPONSE_MATRIX, b=flat, sense="min"))
    hi = lp_solve(LpProblem(c=ACE_COEFFS, A=RESPONSE_MATRIX, b=flat, sense="max"))
    assert lo.value == pytest.approx(0.3, abs=1e-9)
    assert hi.value == pytest.approx(0.3, abs=1e-9)
    oracle = oracle_extremal_scan(ACE_COEFFS, A=RESPONSE_MATRIX, b=flat)
    assert oracle.lo == pytest.approx(lo.value, abs=1e-9)
    assert oracle.hi == pytest.approx(hi.value, abs=1e-9)


def test_optimal_solution_feasibility_invariants():
    rng = np.random.default_rng(21)
    for _ in range(60):
        m, n = int(rng.integers(1, 6)), int(rng.integers(2, 10))
        A = rng.normal(size=(m, n))
        b = A @ rng.uniform(0.1, 1.0, n)
        c = rng.normal(size=n)
        r = lp_solve(LpProblem(c=c, A=A, b=b, sense="max"))
        assert r.status in ("optimal", "unbounded")  # feasible by construction
        if r.status == "optimal":
            assert np.abs(A @ r.x - b).max() <= 1e-9 * (1 + np.abs(b).max())
            assert r.x.min() >= -1e-9


def test_weak_duality_and_strong_duality_at_optimum():
    rng = np.random.default_rng(22)
    for _ in range(40):
        m, n = int(rng.integers(1, 5)), int(rng.integers(2, 9))
        A = rng.normal(size=(m, n))
        b = A @ rng.uniform(0.1, 1.0, n)
        c = rng.normal(size=n)
        r = lp_solve(LpProblem(c=c, A=A, b=b, sense="max"))
        if r.status != "optimal":
            continue
        assert r.value <= r.dual @ b + 1e-6
        assert abs(r.value - r.dual @ b) <= 1e-6
        rmin = lp_solve(LpProblem(c=c, A=A, b=b, sense="min"))
        if rmin.status == "optimal":
            assert rmin.value >= rmin.dual @ b - 1e-6


def test_value_invariant_under_column_permutation():
    rng = np.random.default_rng(23)
    for _ in range(15):
        m, n = int(rng.integers(1, 5)), int(rng.integers(3, 10))
        A = rng.normal(size=(m, n))
        b = A @ rng.uniform(0.1, 1.0, n)
        c = rng.normal(size=n)
        base = lp_solve(LpProblem(c=c, A=A, b=b, sense="max"))
        perm = rng.permutation(n)
        permuted = lp_solve(LpProblem(c=c[perm], A=A[:, perm], b=b, sense="max"))
        assert base.status == permuted.status
        if base.status == "optimal":
            assert permuted.value == pytest.approx(base.value, abs=1e-9)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        LpProblem(c=[1, 2, 3], A=[[1, 1]], b=[1])
    with pytest.raises(DimensionMismatchError):
        LpProblem(c=[1, 2], A=[[1, 1]], b=[1, 2])


def test_iteration_limit_error(monkeypatch):
    monkeypatch.setattr(lp, "ITERATION_FACTOR", 0)  # floor of one pivot total
    with pytest.raises(IterationLimitError):
        lp_solve(
            LpProblem(c=[1.0, 0.0, 0.0], A=[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]], b=[1.0, 1.0], sense="max"),
        )
