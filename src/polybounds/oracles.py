"""Brute-force oracles: explicit atom grids and basic-solution enumeration.

These are the independent slow paths every optimized bound is checked
against before being trusted.  ``oracle_joint_feasibility`` poses a
moment-matching problem over an explicit atom grid and asks LP phase 1
whether any probability vector works.  ``oracle_extremal_scan`` brackets a
linear functional either over an explicit vertex list or over all basic
feasible solutions of A q = b, q >= 0, enumerated basis by basis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import EnumerationLimitError, InfeasibleTableError, ValidationError
from .model import Interval
from .solvers import LpProblem, lp_solve


@dataclass(frozen=True, eq=False)
class AtomGrid:
    """Enumeration of the atoms of a small discrete joint, optionally with
    a probability vector attached (a witness distribution)."""

    atoms: tuple
    probs: np.ndarray | None = None

    def __post_init__(self):
        atoms = tuple(tuple(float(v) for v in atom) for atom in self.atoms)
        if not atoms:
            raise ValidationError("atom grid must contain at least one atom")
        width = len(atoms[0])
        if any(len(a) != width for a in atoms):
            raise ValidationError("all atoms must assign the same variables")
        object.__setattr__(self, "atoms", atoms)
        if self.probs is not None:
            p = np.array(self.probs, dtype=float)
            if p.shape != (len(atoms),):
                raise ValidationError("probability vector length must match the atom count")
            if p.min() < -DEFAULT_TOLERANCES.normalization:
                raise ValidationError("atom probabilities must be nonnegative")
            if abs(p.sum() - 1.0) > DEFAULT_TOLERANCES.normalization:
                raise ValidationError("atom probabilities must sum to 1")
            p.setflags(write=False)
            object.__setattr__(self, "probs", p)

    @classmethod
    def signs(cls, n: int) -> "AtomGrid":
        """All +-1 assignments to n variables (+1 listed first)."""
        return cls(tuple(itertools.product((1.0, -1.0), repeat=n)))

    @classmethod
    def binary(cls, n: int) -> "AtomGrid":
        return cls(tuple(itertools.product((0.0, 1.0), repeat=n)))

    def __len__(self) -> int:
        return len(self.atoms)


def oracle_joint_feasibility(
    constraints, grid: AtomGrid, tol: Tolerances = DEFAULT_TOLERANCES
) -> bool:
    """Does any probability vector on the grid satisfy the moment constraints?

    Each constraint is (coefficient vector over atoms, target value);
    normalization is always imposed.  Decided by LP phase 1.
    """
    n = len(grid)
    rows = [np.ones(n)]
    rhs = [1.0]
    for coeffs, target in constraints:
        row = np.asarray(coeffs, dtype=float)
        if row.shape != (n,):
            raise ValidationError(f"constraint vector must have length {n}, got {row.shape}")
        rows.append(row)
        rhs.append(float(target))
    result = lp_solve(LpProblem(c=np.zeros(n), A=np.array(rows), b=np.array(rhs), sense="min"), tol)
    return result.status == "optimal"


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


def _basis_data(A: np.ndarray, max_bases: int) -> tuple:
    """Independent rows, basis column subsets, and batched inverses for A."""
    key = A.tobytes() + bytes(str(A.shape), "ascii")
    if key in _BASIS_CACHE:
        return _BASIS_CACHE[key]
    rows = _independent_rows(A, 1e-10)
    Ar = A[rows]
    r, n = Ar.shape
    n_bases = comb(n, r)
    if n_bases > max_bases:
        raise EnumerationLimitError(
            f"basis enumeration would visit {n_bases} bases (cap {max_bases})"
        )
    subsets = np.array(list(itertools.combinations(range(n), r)), dtype=int)
    mats = Ar[:, subsets].transpose(1, 0, 2)  # (n_bases, r, r)
    dets = np.linalg.det(mats)
    ok = np.abs(dets) > 1e-9
    inverses = np.linalg.inv(mats[ok])
    data = (rows, subsets[ok], inverses)
    _BASIS_CACHE[key] = data
    return data


def oracle_extremal_scan(
    objective,
    *,
    vertices=None,
    A=None,
    b=None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> Interval:
    """Bracket a linear functional by brute force.

    Either over an explicit ``vertices`` array (rows are vertices), or over
    every basic feasible solution of A q = b, q >= 0.  The basis scan is
    capped at ``tol.oracle_max_bases`` candidate bases.
    """
    c = np.asarray(objective, dtype=float)
    if vertices is not None:
        V = np.asarray(vertices, dtype=float)
        if V.ndim != 2 or V.shape[1] != c.shape[0]:
            raise ValidationError("vertices must be rows of the objective's dimension")
        values = V @ c
        return Interval(float(values.min()), float(values.max()))

    if A is None or b is None:
        raise ValidationError("provide either vertices or the system (A, b)")
    subsets, solutions, _ = _basic_feasible_solutions(A, b, tol)
    values = np.einsum("bi,bi->b", solutions, c[subsets])
    return Interval(float(values.min()), float(values.max()))


def _basic_feasible_solutions(A, b, tol: Tolerances) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Basic feasible solutions of A q = b, q >= 0 that also satisfy the
    dependent rows: (basis columns, basic values, full vectors), unclipped."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    rows, subsets, inverses = _basis_data(A, tol.oracle_max_bases)
    solutions = np.einsum("bij,j->bi", inverses, b[rows])
    feasible = solutions.min(axis=1) >= -tol.lp_feasibility
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


def oracle_feasible_vertices(A, b, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """All basic feasible solutions of A q = b, q >= 0, as rows.

    These are the vertices of the feasible polytope (repeated for
    degenerate bases).  Raises ``InfeasibleTableError`` on an empty
    polytope.
    """
    return np.clip(_basic_feasible_solutions(A, b, tol)[2], 0.0, None)


def oracle_vertex_average(A, b, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Average of all basic feasible solutions: a relative-interior point
    of the feasible polytope (full support whenever any interior point has it)."""
    return oracle_feasible_vertices(A, b, tol).mean(axis=0)
