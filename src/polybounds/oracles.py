"""Brute-force oracle: basic-solution enumeration.

The independent slow path every optimized bound is checked against before
being trusted.  ``oracle_extremal_scan`` brackets a linear functional over
all basic feasible solutions of A q = b, q >= 0, enumerated basis by basis;
``oracle_feasible_vertices`` lists them and ``oracle_vertex_average`` takes
their mean.  No simplex is involved: each basis is solved by its inverse.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np

from .errors import EnumerationLimitError, InfeasibleTableError
from .model import Interval
from .solvers import TOL

#: Cap on the candidate bases of one basis enumeration.
MAX_BASES = 10**6
#: Candidate bases whose determinants and inverses are computed together.
BASIS_CHUNK = 1024


def _independent_rows(A: np.ndarray, tol: float) -> list[int]:
    """Indices of a maximal linearly independent row subset (greedy elimination)."""
    work = A.astype(float).copy()
    m, n = work.shape
    chosen: list[int] = []
    used_cols: list[int] = []
    for i in range(m):
        row = work[i].copy()
        for r, c in zip(chosen, used_cols):
            row -= row[c] * work[r]
        pivot = int(np.argmax(np.abs(row)))
        if abs(row[pivot]) <= tol:
            continue
        work[i] = row / row[pivot]
        chosen.append(i)
        used_cols.append(pivot)
    return chosen


_BASIS_CACHE: dict[bytes, tuple] = {}


def _basis_data(A: np.ndarray) -> tuple:
    """Independent rows, basis column subsets, and batched inverses for A.

    Determinants and inverses are taken ``BASIS_CHUNK`` candidate bases at
    a time, which bounds the working set of one enumeration."""
    key = A.tobytes() + bytes(str(A.shape), "ascii")
    if key in _BASIS_CACHE:
        return _BASIS_CACHE[key]
    rows = _independent_rows(A, 1e-10)
    Ar = A[rows]
    r, n = Ar.shape
    n_bases = comb(n, r)
    if n_bases > MAX_BASES:
        raise EnumerationLimitError(
            f"basis enumeration would visit {n_bases} bases (cap {MAX_BASES})"
        )
    candidates = itertools.combinations(range(n), r)
    subsets, inverses = [], []
    for _ in range(0, n_bases, BASIS_CHUNK):
        chunk = np.array(list(itertools.islice(candidates, BASIS_CHUNK)), dtype=int)
        mats = Ar[:, chunk].transpose(1, 0, 2)  # (bases in the chunk, r, r)
        ok = np.abs(np.linalg.det(mats)) > 1e-9
        subsets.append(chunk[ok])
        inverses.append(np.linalg.inv(mats[ok]))
    data = (rows, np.concatenate(subsets), np.concatenate(inverses))
    _BASIS_CACHE[key] = data
    return data


def oracle_extremal_scan(objective, *, A, b, tol: float = TOL) -> Interval:
    """Bracket a linear functional over every basic feasible solution of
    A q = b, q >= 0, with entries down to ``-tol`` counted as feasible.
    The scan is capped at ``MAX_BASES`` candidate bases."""
    c = np.asarray(objective, dtype=float)
    subsets, solutions, _ = _basic_feasible_solutions(A, b, tol)
    values = np.einsum("bi,bi->b", solutions, c[subsets])
    return Interval(float(values.min()), float(values.max()))


def _basic_feasible_solutions(A, b, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Basic feasible solutions of A q = b, q >= 0 that also satisfy the
    dependent rows: (basis columns, basic values, full vectors), unclipped."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    rows, subsets, inverses = _basis_data(A)
    solutions = np.einsum("bij,j->bi", inverses, b[rows])
    feasible = solutions.min(axis=1) >= -tol
    if not feasible.any():
        raise InfeasibleTableError("no basic feasible solution: the system A q = b, q >= 0 is empty")
    subsets, solutions = subsets[feasible], solutions[feasible]
    # verify against the full system (guards dropped dependent rows)
    full = np.zeros((len(solutions), A.shape[1]))
    np.put_along_axis(full, subsets, solutions, axis=1)
    consistent = np.abs(full @ A.T - b).max(axis=1) <= 1e-8
    if not consistent.any():
        raise InfeasibleTableError("basic solutions violate the dependent rows: system inconsistent")
    return subsets[consistent], solutions[consistent], full[consistent]


def oracle_feasible_vertices(A, b, tol: float = TOL) -> np.ndarray:
    """All basic feasible solutions of A q = b, q >= 0, as rows.

    These are the vertices of the feasible polytope (repeated for
    degenerate bases).  Raises ``InfeasibleTableError`` on an empty
    polytope.
    """
    return np.clip(_basic_feasible_solutions(A, b, tol)[2], 0.0, None)


def oracle_vertex_average(A, b, tol: float = TOL) -> np.ndarray:
    """Average of all basic feasible solutions: a relative-interior point
    of the feasible polytope (full support whenever any interior point has it)."""
    return oracle_feasible_vertices(A, b, tol).mean(axis=0)
