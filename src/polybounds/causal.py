"""Partial identification for the binary instrumental-variable model.

The latent coordinate is a distribution over 16 response types: a
treatment response (instrument -> treatment) paired with an outcome
response (treatment -> outcome), four functions each.  The observed table
pins the type distribution down to a polytope; causal quantities are
linear, so their sharp bounds are linear programs over that polytope.  It is
fixed and tiny, so the bounds come in closed form: the 8 Balke-Pearl dual
vertices for the average causal effect, the Tian-Pearl bounds for the
probabilities of causation.  ``lp_solve`` cross-checks both in tests and audits.

Type order (index = 4 * treatment_response + outcome_response):

======================  =========================
treatment response      outcome response
======================  =========================
0  never-taker (0, 0)   0  never-recover (0, 0)
1  complier    (0, 1)   1  helped        (0, 1)
2  defier      (1, 0)   2  hurt          (1, 0)
3  always-taker (1, 1)  3  always-recover (1, 1)
======================  =========================

where (f(0), f(1)) lists the response function's values.  Type t is
strategy t of ``polytope.STRATEGY_SIGNS`` read causally: the treatment is
Alice's answer to the instrument and the outcome is Bob's answer to the
treatment, so the observed table of a type is that strategy's behavior with
Bob's setting wired to Alice's outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    InconsistentDataError,
    InfeasibleTableError,
    ValidationError,
    ZeroConditioningError,
)
from .model import Interval, ObservedIVTable, ResponseTypeDist, check_probability, probability_array
from .polytope import STRATEGY_BEHAVIORS
from .solvers import TOL

#: The 8x16 matrix mapping type weights to the observed table, rows in the
#: order of ``ObservedIVTable.flat()`` (4y + 2x + z): entry [(y, x, z), t] is
#: strategy t's probability of the answers (x, y) to the settings (z, x).
RESPONSE_MATRIX = np.einsum("sxyzx->yxzs", STRATEGY_BEHAVIORS).reshape(8, 16)
RESPONSE_MATRIX.setflags(write=False)

#: Treatment-effect coefficient of each type: y(1) - y(0), a function of the
#: outcome response alone (0 for never/always, +1 helped, -1 hurt).
ACE_COEFFS = np.tile([0.0, 1.0, -1.0, 0.0], 4)
ACE_COEFFS.setflags(write=False)

#: The 8 Balke-Pearl dual vertices of the lower effect bound (Balke and Pearl,
#: JASA 92, 1997): columns are the cells of ``ObservedIVTable.flat()``
#: (4y + 2x + z) and a constant, and the bound is the largest row value.
#: With p_yx.z = p(y, x | z), the rows read p11.1 + p00.0 - 1,
#: p11.0 + p00.1 - 1, p11.0 - p11.1 - p10.1 - p01.0 - p10.0, the same with
#: z swapped, -p01.1 - p10.1, -p01.0 - p10.0,
#: p00.1 - p01.1 - p10.1 - p01.0 - p00.0, and the same with z swapped.
BALKE_PEARL_LO = np.array([
    [1, 0, 0, 0, 0, 0, 0, 1, -1], [0, 1, 0, 0, 0, 0, 1, 0, -1],
    [0, 0, -1, 0, -1, -1, 1, -1, 0], [0, 0, 0, -1, -1, -1, -1, 1, 0],
    [0, 0, 0, -1, 0, -1, 0, 0, 0], [0, 0, -1, 0, -1, 0, 0, 0, 0],
    [-1, 1, -1, -1, 0, -1, 0, 0, 0], [1, -1, -1, -1, -1, 0, 0, 0, 0],
], dtype=float)
#: The upper bound's vertices, the smallest row value: relabelling the
#: outcome (y -> 1 - y) negates the effect, so hi(p) = -lo(p with y flipped).
BALKE_PEARL_HI = -BALKE_PEARL_LO[:, [4, 5, 6, 7, 0, 1, 2, 3, 8]]
BALKE_PEARL_LO.setflags(write=False)
BALKE_PEARL_HI.setflags(write=False)
#: The natural rows of both tables, then the others.  A natural row is the
#: sum of one natural bound per treatment, P(Y(x) = 1) in
#: [p(1, x | z), p(1, x | z) + p(1 - x | z)] for some arm z: these bounds
#: hold for a quantum confounder too (Gachechiladze, Miklin and Chaves, PRL
#: 125, 230401, 2020), and rows 2, 3, 6 and 7, which mix the arms with
#: opposite signs, need not.
_NATURAL_FIRST = (0, 1, 4, 5, 2, 3, 6, 7)
#: The constant column of the Balke-Pearl rows.
_ONE = np.ones(1)
_ONE.setflags(write=False)


def iv_table_from_response_dist(q) -> ObservedIVTable:
    """Forward map: the observed table generated by a type distribution."""
    qv = q.q if isinstance(q, ResponseTypeDist) else ResponseTypeDist(q).q
    return ObservedIVTable((RESPONSE_MATRIX @ qv).reshape(2, 2, 2))


class InstrumentalCheck(NamedTuple):
    holds: bool
    value: float
    variant: str


def instrumental_inequality(t: ObservedIVTable, variant: str = "standard", tol: float = TOL) -> InstrumentalCheck:
    """Testable implication of the IV model on the observed table.

    ``standard`` evaluates max over treatment arms of
    sum_y max_z p(y, x | z); ``paper_literal`` evaluates
    max_z sum_y max_x p(y, x | z), which is algebraically vacuous
    (bounded by each arm's normalization) and is kept only so the
    discrepancy with the standard form can be surfaced, not resolved.
    Either holds when 2 (value - 1) <= ``tol``: on the standard form, the
    simplex's phase-1 test on the type polytope, which ``ace_bounds`` reads.
    """
    p = t.p.tolist()  # indexed [y][x][z]
    if variant == "standard":
        value = max(max(p[0][x]) + max(p[1][x]) for x in range(2))
    elif variant == "paper_literal":
        value = max(max(p[0][0][z], p[0][1][z]) + max(p[1][0][z], p[1][1][z]) for z in range(2))
    else:
        raise ValidationError(f"unknown variant {variant!r}")
    return InstrumentalCheck(2.0 * (value - 1.0) <= tol, value, variant)


class ActiveRows(NamedTuple):
    """Each effect endpoint's best Balke-Pearl row: the value, the row, and
    whether a natural row attains it (ties counted)."""

    lo: float
    hi: float
    lo_row: int
    hi_row: int
    lo_natural: bool
    hi_natural: bool

    @property
    def interval(self) -> Interval:
        """The endpoints as an interval; ends that cross, within the
        tolerance of the table's inequality test, collapse to the upper one."""
        return Interval(min(self.lo, self.hi), self.hi)


def active_rows(t: ObservedIVTable, tol: float = TOL) -> ActiveRows:
    """The 8 Balke-Pearl rows of each endpoint evaluated once: the best row
    of each side, the first in ``_NATURAL_FIRST`` that attains it.

    Raises ``InfeasibleTableError`` when the instrumental inequality fails at
    ``tol``; for binary Z, X and Y the inequality is exactly the polytope's
    boundary (Bonet, UAI 2001).
    """
    check = instrumental_inequality(t, tol=tol)
    if not check.holds:
        raise InfeasibleTableError(
            f"observed table is not IV-compatible (phase-1 infeasibility {2.0 * (check.value - 1.0):.3e})"
        )
    cells = np.concatenate((t.flat(), _ONE))
    lows, highs = (BALKE_PEARL_LO @ cells).tolist(), (BALKE_PEARL_HI @ cells).tolist()
    lo, hi = max(lows), min(highs)
    lo_row = next(k for k in _NATURAL_FIRST if lows[k] == lo)
    hi_row = next(k for k in _NATURAL_FIRST if highs[k] == hi)
    return ActiveRows(lo, hi, lo_row, hi_row, lo_row in _NATURAL_FIRST[:4], hi_row in _NATURAL_FIRST[:4])


def ace_bounds(t: ObservedIVTable, tol: float = TOL) -> Interval:
    """Sharp bounds on the average causal effect, in closed form: each
    endpoint is the best of the 8 Balke-Pearl dual-vertex expressions
    (``active_rows``, which refuses a table that fails the instrumental
    inequality at ``tol``).  Endpoints that cross within that tolerance
    collapse to the upper one.
    """
    return active_rows(t, tol).interval


def manski_bounds(e1: float, e0: float, px1: float) -> Interval:
    """No-assumption bounds on the average treatment effect for a bounded
    outcome: width exactly 1 and always containing zero."""
    e1, e0, px1 = (check_probability(v, name) for name, v in (("e1", e1), ("e0", e0), ("px1", px1)))
    px0 = 1.0 - px1
    lower = e1 * px1 - (e0 * px0 + px1)
    upper = e1 * px1 + px0 - e0 * px0
    return Interval(lower, upper)


@dataclass(frozen=True)
class ExperimentalData:
    """Interventional outcome rates: P(Y=1 | do(X=1)) and P(Y=1 | do(X=0))."""

    p_do1: float
    p_do0: float

    def __post_init__(self):
        for name in ("p_do1", "p_do0"):
            object.__setattr__(self, name, check_probability(getattr(self, name), name))


@dataclass(frozen=True, eq=False)
class ObservationalData:
    """Joint distribution of (treatment, outcome), indexed [x, y]."""

    joint: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "joint", probability_array(self.joint, (2, 2), None, "observational joint"))

    @property
    def p_y(self) -> float:
        return float(self.joint[:, 1].sum())


def _check_consistent(exp: ExperimentalData, obs: ObservationalData, tol: float) -> None:
    """Raise ``InconsistentDataError`` unless the data admit a common model:
    the Tian-Pearl conditions P(x, y) <= P(y_x) <= P(x, y) + P(x') and
    P(x', y) <= P(y_x') <= P(x', y) + P(x) (Tian and Pearl, Ann. Math.
    Artif. Intell. 28, 2000), each allowed to fail by ``tol``."""
    p_xpyp, p_xpy, p_xyp, p_xy = (float(v) for v in obs.joint.ravel())
    for name, rate, lo, hi in (
        ("P(y_x)", exp.p_do1, p_xy, p_xy + p_xpy + p_xpyp),
        ("P(y_x')", exp.p_do0, p_xpy, p_xpy + p_xy + p_xyp),
    ):
        excess = max(lo - rate, rate - hi)
        if excess > tol:
            raise InconsistentDataError(
                f"experimental and observational data admit no common model "
                f"({name} = {rate:.6f} lies {excess:.3e} outside [{lo:.6f}, {hi:.6f}])"
            )


def pns_bounds(exp: ExperimentalData, obs: ObservationalData, tol: float = TOL) -> Interval:
    """Sharp closed-form bounds on the probability that treatment is both
    necessary and sufficient, combining experimental and observational data.

    Data failing ``_check_consistent`` by more than ``tol`` raise
    ``InconsistentDataError``; an upper end that such a failure within
    ``tol`` pushes below 0 is held at 0.  The upper bound carries four terms;
    dropping the mixed term P(y_x) - P(y_x') + P(x, y') + P(x', y) leaves a
    valid but non-sharp bound that the basis oracle beats on some inputs.
    """
    _check_consistent(exp, obs, tol)
    p_y = obs.p_y
    p_xpyp, p_xpy, p_xyp, p_xy = (float(v) for v in obs.joint.ravel())
    lower = max(0.0, exp.p_do1 - exp.p_do0, p_y - exp.p_do0, exp.p_do1 - p_y)
    upper = max(0.0, min(
        exp.p_do1,
        1.0 - exp.p_do0,
        p_xy + p_xpyp,
        exp.p_do1 - exp.p_do0 + p_xyp + p_xpy,
    ))
    return Interval(min(lower, upper), upper)


def counterfactual_atom_system(exp: ExperimentalData, obs: ObservationalData) -> tuple[np.ndarray, np.ndarray]:
    """Constraint system over the 8 atoms of (Y0, Y1, X).

    Atom index = 4*y0 + 2*y1 + x.  Rows: the two interventional rates and
    the four observational cells (which imply normalization).
    """
    y0, y1, x = np.indices((2, 2, 2)).reshape(3, 8)
    observed_cell = 2 * x + np.where(x == 1, y1, y0)  # index of (x, y) in obs.joint.ravel()
    A = np.vstack([y1, y0, np.arange(4)[:, None] == observed_cell]).astype(float)
    return A, np.array([exp.p_do1, exp.p_do0, *obs.joint.ravel()])


def pns_objective() -> np.ndarray:
    """Coefficients of P(Y1=1, Y0=0) over the 8 atoms."""
    return np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])


class PointBounds(NamedTuple):
    pn: Interval
    ps: Interval


def _conditioned(lo: float, hi: float, cell: float) -> Interval:
    """[lo, hi] / cell for a numerator bounded by [0, cell].  On data that
    pass ``_check_consistent`` the ends cross by at most its tolerance: the
    upper end is held at 0 and the lower one at the upper."""
    hi = max(hi, 0.0)
    return Interval(min(lo, hi) / cell, hi / cell)


def pn_ps_point_bounds(
    exp: ExperimentalData, obs: ObservationalData, tol: float = TOL
) -> PointBounds:
    """Sharp bounds on the probabilities of necessity and of sufficiency:
    the Tian-Pearl closed forms (Ann. Math. Artif. Intell. 28, 2000) of
    their numerators over the counterfactual atom polytope, divided by the
    conditioning cells.  PN's numerator lies in
    [max(0, P(y) - P(y_x')), min(P(x, y), P(y'_x') - P(x', y'))], PS's in
    [max(0, P(y_x) - P(y)), min(P(x', y'), P(y_x) - P(x, y))].  Those ends
    cross exactly when a condition of ``_check_consistent`` fails, PN's on
    P(y_x') and PS's on P(y_x), and by as much, so data failing it by more
    than ``tol`` raise ``InconsistentDataError``.
    """
    p_xy = float(obs.joint[1, 1])
    p_xpyp = float(obs.joint[0, 0])
    if p_xy <= 0.0:
        raise ZeroConditioningError("necessity is conditioned on P(X=1, Y=1) > 0")
    if p_xpyp <= 0.0:
        raise ZeroConditioningError("sufficiency is conditioned on P(X=0, Y=0) > 0")
    _check_consistent(exp, obs, tol)
    p_y = obs.p_y
    pn = _conditioned(max(0.0, p_y - exp.p_do0), min(p_xy, 1.0 - exp.p_do0 - p_xpyp), p_xy)
    ps = _conditioned(max(0.0, exp.p_do1 - p_y), min(p_xpyp, exp.p_do1 - p_xy), p_xpyp)
    return PointBounds(pn, ps)
