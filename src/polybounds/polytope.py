"""The local-realist polytope and its coupling-side relatives.

The polytope is the convex hull of the 16 deterministic strategies
(4 sign bits: Alice's two answers and Bob's two answers).  Their sign
table ``STRATEGY_SIGNS`` is the strategies' one source: the correlation
and behavior tables derive from it, and a ``DeterministicStrategy`` reads
its row.  A no-signaling behavior is a member exactly when the 8 CHSH
facets hold (Fine, J. Math. Phys. 23, 1306, 1982), so membership is
decided by the facets, and the mixing weights of a member come from Fine's
explicit joint distribution of (A0, A1, B0, B1), with no solver; biased
marginals are handled.
Non-membership is certified by the most-violated facet.  The strategy LP
stays as the independent check behind ``fine_check``.  Maxima of
correlation functionals over the local and no-signaling polytopes are read
off their vertex tables, with no solver.

The same module houses the three-variable correlation checks (the
two-sided inequality |E[AB] - E[AC]| <= 1 - E[BC] and the exact
joint-feasibility LP) and the coupling bounds on a pair of event
probabilities, since all of these are faces of one marginal-compatibility
story.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SignalingError, ValidationError
from .model import (
    CHSH_VARIANTS,
    INEQUALITY_SLACK,
    SIGNS,
    Behavior,
    CorrelationTable,
    CorrelationTriple,
    Interval,
    behavior_to_correlations,
    check_probability,
    chsh_variant_values,
    correlator_functional,
)
from .solvers import TOL, LpProblem, lp_solve


#: The 16 deterministic strategies as a (16, 4) sign table with columns (a0,
#: a1, b0, b1), in lexicographic order with +1 first: the one source of every
#: strategy fact.  Row 4 rx + ry is the response pair (rx, ry) of
#: ``ResponseTypeDist``, each response 2 f(0) + f(1) with bit(+1) = 0.
STRATEGY_SIGNS = np.array(list(itertools.product((1.0, -1.0), repeat=4)))
#: Correlators E[A_x B_y] = a_x b_y of each strategy, shape (16, 2, 2).
STRATEGY_CORRELATIONS = STRATEGY_SIGNS[:, :2, None] * STRATEGY_SIGNS[:, None, 2:]
_ANSWERS = (STRATEGY_SIGNS[:, None, :] == SIGNS[None, :, None]).astype(float)  # [s, bit, observable]
#: Behaviors p(a, b | x, y) of each strategy, shape (16, 2, 2, 2, 2).
STRATEGY_BEHAVIORS = np.einsum("sax,sby->sabxy", _ANSWERS[:, :, :2], _ANSWERS[:, :, 2:])
#: Strategy behaviors as the columns of a (16 behavior entries, 16 strategies) matrix.
_STRATEGY_MATRIX = STRATEGY_BEHAVIORS.reshape(16, 16).T
for _table in (STRATEGY_SIGNS, STRATEGY_CORRELATIONS, STRATEGY_BEHAVIORS, _STRATEGY_MATRIX):
    _table.setflags(write=False)
#: Each strategy's correlators as a row (e00, e01, e10, e11) of floats, for
#: ``local_max`` on a functional's four floats.
_CORRELATION_ROWS = STRATEGY_CORRELATIONS.reshape(16, 4).tolist()


@dataclass(frozen=True)
class DeterministicStrategy:
    """One of the 16 deterministic strategies: pre-agreed +-1 answers
    (a0, a1) for Alice's settings and (b0, b1) for Bob's, read from its row
    of ``STRATEGY_SIGNS``.

    The causal view of the same object is a response pair: the treatment
    response maps instrument to treatment via bit(a_z), the outcome
    response maps treatment to outcome via bit(b_x), and the row is
    4 rx + ry.
    """

    a0: int
    a1: int
    b0: int
    b1: int

    def __post_init__(self):
        for name, v in (("a0", self.a0), ("a1", self.a1), ("b0", self.b0), ("b1", self.b1)):
            if v not in (-1, 1):
                raise ValidationError(f"{name} must be +1 or -1, got {v}")

    @classmethod
    def from_response_indices(cls, rx: int, ry: int) -> "DeterministicStrategy":
        if not (0 <= rx < 4 and 0 <= ry < 4):
            raise ValidationError("response indices must lie in 0..3")
        return cls(*map(int, STRATEGY_SIGNS[4 * rx + ry]))

    @property
    def row(self) -> int:
        """Its row of ``STRATEGY_SIGNS``."""
        return STRATEGY_SIGNS.tolist().index([self.a0, self.a1, self.b0, self.b1])

    def response_indices(self) -> tuple[int, int]:
        """(treatment response, outcome response), each 2*f(0) + f(1)."""
        return divmod(self.row, 4)

    def correlations(self) -> CorrelationTable:
        return CorrelationTable(STRATEGY_CORRELATIONS[self.row])

    def behavior(self) -> Behavior:
        return Behavior(STRATEGY_BEHAVIORS[self.row])


def enumerate_strategies() -> list[DeterministicStrategy]:
    """All 16 strategies in the row order of ``STRATEGY_SIGNS``."""
    return [DeterministicStrategy(*map(int, signs)) for signs in STRATEGY_SIGNS]


@dataclass(frozen=True, eq=False)
class MembershipCertificate:
    """Either mixing weights reproducing the behavior, or the most-violated
    CHSH facet (sign-variant index into ``model.CHSH_VARIANTS``), or neither
    for a signaling behavior whose facets all hold."""

    member: bool
    weights: np.ndarray | None
    facet_index: int | None
    facet_coefficients: np.ndarray | None
    facet_value: float | None


def _fine_joint(p: np.ndarray) -> np.ndarray:
    """Fine's joint distribution of (A0, A1, B0, B1) for the behavior table
    ``p``, as weights over the 16 strategies (Fine 1982; Halliwell, Phys.
    Lett. A 378, 2945, 2014).

    P(a_x = a, b0, b1) is a 2x2 table with margins p(a, b0 | x, 0) and
    p(a, b1 | x, 1), free in one corner P(a_x = a, b0 = 0, b1 = 0) within a
    Frechet range.  For each x the two corners add up to t = P(b0 = 0,
    b1 = 0), taken at the midpoint of the intersection [L, U] of their sums'
    ranges, and the a = 0 corner at the midpoint of its range given t.
    Glued on Bob's pair, w = P(a0, b0, b1) P(a1, b0, b1) / P(b0, b1) (0 where
    P(b0, b1) = 0).  In the tolerance band L passes U by up to a quarter of
    the CHSH excess: there the corners are clamped into their ranges and
    negative weights clipped, and the rest renormalized.
    """
    q = p.tolist()  # q[a][b][x][y]
    margins = []  # [x][a]: row sum, column sum, total, and the corner's range lo, hi
    for x in (0, 1):
        per_a = []
        for a in (0, 1):
            row, col = q[a][0][x][0], q[a][0][x][1]  # P(a_x = a, b0 = 0), P(a_x = a, b1 = 0)
            total = 0.5 * (row + q[a][1][x][0] + col + q[a][1][x][1])  # P(a_x = a)
            per_a.append((row, col, total, max(row + col - total, 0.0), min(row, col)))
        margins.append(per_a)
    t = 0.5 * (max(m0[3] + m1[3] for m0, m1 in margins) + min(m0[4] + m1[4] for m0, m1 in margins))
    cells = []  # [x][a][2 b0 + b1] = P(a_x = a, b0, b1)
    for (r0, c0, n0, lo0, hi0), (r1, c1, n1, lo1, hi1) in margins:
        # the a = 0 corner s needs s in [lo0, hi0] and t - s in [lo1, hi1]
        s = min(max(0.5 * (max(lo0, t - hi1) + min(hi0, t - lo1)), lo0), hi0)
        cells.append([_table(s, r0, c0, n0), _table(t - s, r1, c1, n1)])
    (a00, a01), (a10, a11) = cells
    pair = [0.5 * (a00[k] + a01[k] + a10[k] + a11[k]) for k in range(4)]  # P(b0, b1), the two x averaged
    w = np.array(
        [a0[k] * a1[k] / pair[k] if pair[k] > 0.0 else 0.0 for a0 in cells[0] for a1 in cells[1] for k in range(4)]
    )
    if w.min() < 0.0:  # within the tolerance band
        w = np.maximum(w, 0.0)
        w /= w.sum()
    return w


def _table(corner: float, row: float, col: float, total: float) -> tuple:
    """The 2x2 table of mass ``total``, first-row sum ``row``, first-column
    sum ``col`` and top-left cell ``corner``, row-major."""
    return corner, row - corner, col - corner, total - row - col + corner


def local_membership(b: Behavior, tol: float = TOL) -> MembershipCertificate:
    """Decide membership in the local polytope by Fine's theorem.

    A behavior is a member when it is no-signaling (``no_signaling_at``)
    and the 8 CHSH facets hold (``_facets_hold``, the rule of
    ``chsh_facets_hold``, on CHSH variants evaluated once), both at ``tol``:
    the two tests of the strategy LP's phase 1, without the simplex.  A member's weights are Fine's joint
    distribution (``_fine_joint``); a non-member gets the most-violated
    CHSH facet, or none (every field but ``member`` None) when it is
    signaling with every facet holding.
    """
    variants = chsh_variant_values(behavior_to_correlations(b))
    if not _facets_hold(variants, tol):
        k = int(np.argmax(variants))
        return MembershipCertificate(False, None, k, CHSH_VARIANTS[k].copy(), float(variants[k]))
    if b.no_signaling_at(tol):
        return MembershipCertificate(True, _fine_joint(b.p), None, None, None)
    return MembershipCertificate(False, None, None, None, None)


class FineCheckResult(NamedTuple):
    joint_exists: bool
    all_chsh_hold: bool


def _facets_hold(variants: np.ndarray, tol: float) -> bool:
    return bool(2.0 * (variants.max() - 2.0) <= tol)


def chsh_facets_hold(b: Behavior, tol: float = TOL) -> bool:
    """Do all 8 CHSH facets hold at tolerance ``tol``?  For a no-signaling
    behavior this is local-polytope membership (Fine, J. Math. Phys. 23,
    1306, 1982).  A CHSH excess e over 2 leaves the strategy LP a phase-1
    optimum of 2e, so the facets hold when 2 (max CHSH - 2) <= ``tol``:
    the LP's own test, so that both give one verdict."""
    return _facets_hold(chsh_variant_values(behavior_to_correlations(b)), tol)


def fine_check(b: Behavior, tol: float = TOL) -> FineCheckResult:
    """Joint-distribution existence versus the 8 CHSH inequalities.

    A joint of (A0, A1, B0, B1) is a distribution over the 16 strategies
    that reproduces the behavior.  Its existence is decided here by the
    strategy LP's phase 1 (``lp_solve``), independently of the facet check
    ``chsh_facets_hold`` and of ``local_membership``, which both read the
    facets.  The two answers must agree for every no-signaling behavior;
    input that is signaling at ``tol`` is rejected, because the equivalence
    presupposes no-signaling.
    """
    if not b.no_signaling_at(tol):
        raise SignalingError("joint-distribution equivalence requires a no-signaling behavior")
    # the rows of each setting pair (x, y) sum to the total weight and their
    # targets to 1, so the weights' normalization needs no row of its own
    problem = LpProblem(c=np.zeros(16), A=_STRATEGY_MATRIX, b=b.p.reshape(16), sense="min")
    return FineCheckResult(lp_solve(problem, tol).status == "optimal", chsh_facets_hold(b, tol))


class BooleBellResult(NamedTuple):
    holds: bool
    slack: float


def boole_bell_check(t: CorrelationTriple) -> BooleBellResult:
    """Two-sided three-variable inequality |E[AB] - E[AC]| <= 1 - E[BC]."""
    slack = (1.0 - t.e_bc) - abs(t.e_ab - t.e_ac)
    return BooleBellResult(slack >= -INEQUALITY_SLACK, float(slack))


def triple_feasibility(t: CorrelationTriple, tol: float = TOL) -> bool:
    """Is there a joint +-1 distribution with the three pair correlations?

    Decided by LP phase 1 over the 8 sign assignments of (A, B, C).
    Single-variable marginals are left free; unit variances are automatic
    for sign variables.
    """
    a, b, c = np.array(list(itertools.product((1.0, -1.0), repeat=3))).T
    rows = np.vstack([np.ones(8), a * b, a * c, b * c])
    rhs = np.array([1.0, t.e_ab, t.e_ac, t.e_bc])
    return lp_solve(LpProblem(c=np.zeros(8), A=rows, b=rhs, sense="min"), tol).status == "optimal"


def frechet_bounds(u: float, v: float) -> Interval:
    """Coupling bounds on P(A and B) given P(A) = u, P(B) = v:
    max(u + v - 1, 0) <= P(A and B) <= min(u, v)."""
    u, v = check_probability(u, "u"), check_probability(v, "v")
    return Interval(max(u + v - 1.0, 0.0), min(u, v))


def comonotone_coupling(u: float, v: float) -> np.ndarray:
    """Joint table [i, j] = P(A=i, B=j) of the rank-preserving coupling;
    attains the upper coupling bound min(u, v)."""
    u, v = check_probability(u, "u"), check_probability(v, "v")
    p11 = min(u, v)
    return np.array([[1.0 - u - v + p11, v - p11], [u - p11, p11]])


def countermonotone_coupling(u: float, v: float) -> np.ndarray:
    """Rank-reversing coupling; attains the lower bound max(u + v - 1, 0)."""
    u, v = check_probability(u, "u"), check_probability(v, "v")
    p11 = max(u + v - 1.0, 0.0)
    return np.array([[1.0 - u - v + p11, v - p11], [u - p11, p11]])


def local_max(functional) -> float:
    """Maximum of a correlation functional over the local polytope: the best
    of its 16 vertices, the deterministic strategies; inf when a vertex
    value passes the float range.  Computed on the four floats, bit for bit
    the vectorized numpy form that the tests keep as a reference: each
    vertex value is summed left to right in row-major order, and the + 0.0
    reads a best value of -0.0 (every term a negative zero) as 0.0, as a
    numpy sum, which starts at +0.0, does."""
    f00, f01, f10, f11 = correlator_functional(functional).ravel().tolist()
    return max(e00 * f00 + e01 * f01 + e10 * f10 + e11 * f11 for e00, e01, e10, e11 in _CORRELATION_ROWS) + 0.0


def no_signaling_max(functional) -> float:
    """Maximum of a correlation functional over the no-signaling polytope.

    The correlation tables of its 24 vertices (Barrett et al., PRA 71,
    022101, 2005) are all 16 sign patterns: even parity for the 16
    strategies, odd parity for the 8 PR boxes (the ``CHSH_VARIANTS``).  So
    the correlators fill the cube [-1, 1]^4 and the maximum is sum |f|
    (inf past the float range), summed in row-major order.
    """
    f00, f01, f10, f11 = correlator_functional(functional).ravel().tolist()
    return abs(f00) + abs(f01) + abs(f10) + abs(f11)
