"""Dense two-phase simplex for small equality-form linear programs.

Solves  min/max c'x  subject to  A x = b,  x >= 0  with Bland's smallest-
index rule in both the entering and leaving choice, which guarantees
termination without cycling.  Instances in this package have at most a few
dozen variables, so a dense tableau is the right tool; there is no sparsity
machinery and no warm starting.

Phase 1 minimizes the sum of artificial variables.  A strictly positive
phase-1 optimum is the infeasibility certificate.  Redundant constraint
rows (artificial basic at zero with no eligible pivot) are dropped before
phase 2, which makes rank-deficient systems such as the response-type
constraints safe to pass in directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatchError, IterationLimitError, ValidationError

#: The package's one decision tolerance: the phase-1 optimum above which an
#: LP is infeasible.  Callers pass the same value on as the basis oracle's
#: feasibility slack, the CHSH facet slack and the no-signaling slack
#: (``--tolerance`` in the CLI).
TOL = 1e-9
#: Smallest entry treated as nonzero in pivoting and reduced-cost tests.
PIVOT_TOL = 1e-10
#: Pivot cap per tableau dimension: at most ITERATION_FACTOR * (m + n) pivots.
ITERATION_FACTOR = 50


@dataclass(frozen=True, eq=False)
class LpProblem:
    """min/max c'x subject to A x = b, x >= 0."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    sense: str = "max"

    def __post_init__(self):
        c = np.atleast_1d(np.array(self.c, dtype=float))
        A = np.array(self.A, dtype=float)
        b = np.atleast_1d(np.array(self.b, dtype=float))
        if A.ndim != 2:
            raise DimensionMismatchError(f"A must be a matrix, got ndim {A.ndim}")
        m, n = A.shape
        if c.shape != (n,):
            raise DimensionMismatchError(f"c has length {c.shape[0]}, expected {n}")
        if b.shape != (m,):
            raise DimensionMismatchError(f"b has length {b.shape[0]}, expected {m}")
        if self.sense not in ("min", "max"):
            raise ValidationError(f"sense must be 'min' or 'max', got {self.sense!r}")
        for name, arr in (("c", c), ("A", A), ("b", b)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True, eq=False)
class LpResult:
    """Outcome of a simplex run.

    For ``optimal`` results ``x`` satisfies A x = b within the feasibility
    tolerance and ``dual`` is the equality multiplier vector (zeros on rows
    dropped as redundant).  For ``infeasible`` results ``dual`` is the
    Farkas certificate from phase 1 and ``phase1_infeasibility`` its
    strictly positive optimum.
    """

    status: str
    value: float
    x: np.ndarray | None
    dual: np.ndarray | None
    iterations: int
    phase1_infeasibility: float


class _Simplex:
    def __init__(self, T: np.ndarray, basis: list[int], max_pivots: int):
        self.T = T  # constraint rows augmented with rhs column
        self.basis = basis
        self.max_pivots = max_pivots
        self.pivots = 0

    def pivot(self, row: int, col: int, obj: np.ndarray) -> None:
        T = self.T
        T[row] /= T[row, col]
        factors = T[:, col].copy()
        factors[row] = 0.0
        T -= np.outer(factors, T[row])
        obj -= obj[col] * T[row]
        self.basis[row] = col
        self.pivots += 1
        if self.pivots > self.max_pivots:
            raise IterationLimitError(
                f"simplex exceeded {self.max_pivots} pivots; instance is numerically degenerate"
            )

    def run(self, obj: np.ndarray, allowed: int) -> str:
        """Minimize over the first ``allowed`` columns; returns 'optimal' or 'unbounded'."""
        T = self.T
        while True:
            reduced = obj[:allowed]
            entering = -1
            for j in range(allowed):  # Bland: smallest index with negative reduced cost
                if reduced[j] < -PIVOT_TOL:
                    entering = j
                    break
            if entering < 0:
                return "optimal"
            col = T[:, entering]
            rows = np.nonzero(col > PIVOT_TOL)[0]
            if rows.size == 0:
                return "unbounded"
            ratios = T[rows, -1] / col[rows]
            best = ratios.min()
            ties = rows[ratios <= best + 1e-12]
            leaving = min(ties, key=lambda i: self.basis[i])  # Bland tie-break
            self.pivot(leaving, entering, obj)


def _multipliers(B: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """The multipliers y of the final basis B: B' y = c_B, by least squares
    when B is singular."""
    try:
        return np.linalg.solve(B.T, cb)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(B.T, cb, rcond=None)[0]


def lp_solve(problem: LpProblem, tol: float = TOL) -> LpResult:
    """Solve a small dense equality-form LP by two-phase simplex; infeasible
    when the phase-1 optimum exceeds ``tol``."""
    m, n = problem.A.shape
    minimize = problem.sense == "min"
    c = problem.c if minimize else -problem.c

    A = problem.A.copy()
    b = problem.b.copy()
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    max_pivots = max(1, ITERATION_FACTOR * (m + n))

    # phase 1: feasibility via artificial variables
    T = np.hstack([A, np.eye(m), b[:, None]])
    basis = list(range(n, n + m))
    cost1 = np.concatenate([np.zeros(n), np.ones(m), [0.0]])
    obj1 = cost1.copy()
    for i in range(m):
        obj1 -= T[i]  # reduce artificial basic columns out of the cost row
    sx = _Simplex(T, basis, max_pivots)
    sx.run(obj1, n + m)
    infeasibility = -obj1[-1]

    signs = np.where(flip, -1.0, 1.0)

    if infeasibility > tol:
        return LpResult(
            status="infeasible",
            value=float("nan"),
            x=None,
            dual=signs * _multipliers(np.hstack([A, np.eye(m)])[:, basis], cost1[basis]),  # the Farkas certificate
            iterations=sx.pivots,
            phase1_infeasibility=float(infeasibility),
        )

    # drive remaining artificials out of the basis; drop redundant rows
    redundant: list[int] = []
    for i in range(m):
        if basis[i] >= n:
            pivot_col = -1
            for j in range(n):
                if j not in basis and abs(T[i, j]) > PIVOT_TOL:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                sx.pivot(i, pivot_col, obj1)
            else:
                redundant.append(i)
    keep = [i for i in range(m) if i not in redundant]
    basis = [basis[i] for i in keep]

    # phase 2 on the original columns
    T2 = np.hstack([T[keep][:, :n], T[keep][:, -1:]])
    total_pivots = sx.pivots
    sx = _Simplex(T2, basis, max_pivots)
    sx.pivots = total_pivots
    obj2 = np.concatenate([c, [0.0]])
    for i, bj in enumerate(basis):
        if abs(obj2[bj]) > 0.0:
            obj2 -= obj2[bj] * T2[i]
    status = sx.run(obj2, n)

    if status == "unbounded":
        return LpResult(
            status="unbounded",
            value=float("-inf") if minimize else float("inf"),
            x=None,
            dual=None,
            iterations=sx.pivots,
            phase1_infeasibility=float(infeasibility),
        )

    x = np.zeros(n)
    for i, bj in enumerate(basis):
        x[bj] = T2[i, -1]
    value = float(c @ x)

    dual = np.zeros(m)
    dual[keep] = _multipliers(A[keep][:, basis], c[basis])
    dual *= signs

    if minimize:
        return LpResult("optimal", value, x, dual, sx.pivots, float(infeasibility))
    return LpResult("optimal", -value, x, -dual, sx.pivots, float(infeasibility))
