"""The local-realist polytope and its coupling-side relatives.

The polytope is the convex hull of the 16 deterministic strategies
(4 sign bits: Alice's two answers and Bob's two answers).  Membership is
decided by LP in behavior space (16-dimensional), so biased marginals are
handled; non-membership of a no-signaling behavior is certified by the
most-violated of the 8 CHSH facets.  Maxima of correlation functionals
over the local and no-signaling polytopes are read off their vertex
tables, with no solver.

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
    chsh_variant_values,
    correlator_functional,
)
from .solvers import TOL, LpProblem, lp_solve


def _bit(sign: int) -> int:
    return (1 - sign) // 2


@dataclass(frozen=True)
class DeterministicStrategy:
    """One of the 16 deterministic strategies: pre-agreed +-1 answers
    (a0, a1) for Alice's settings and (b0, b1) for Bob's.

    The causal view of the same object is a response pair: the treatment
    response maps instrument to treatment via bit(a_z), the outcome
    response maps treatment to outcome via bit(b_x), with bit(+1) = 0 and
    bit(-1) = 1.  ``response_indices`` and ``from_response_indices`` fix
    the bijection.
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
    def from_bits(cls, bits: tuple[int, int, int, int]) -> "DeterministicStrategy":
        return cls(*(int(SIGNS[b]) for b in bits))

    @classmethod
    def from_response_indices(cls, rx: int, ry: int) -> "DeterministicStrategy":
        if not (0 <= rx < 4 and 0 <= ry < 4):
            raise ValidationError("response indices must lie in 0..3")
        return cls.from_bits((rx >> 1, rx & 1, ry >> 1, ry & 1))

    def response_indices(self) -> tuple[int, int]:
        """(treatment response, outcome response), each 2*f(0) + f(1)."""
        rx = 2 * _bit(self.a0) + _bit(self.a1)
        ry = 2 * _bit(self.b0) + _bit(self.b1)
        return rx, ry

    def correlations(self) -> CorrelationTable:
        a = np.array([self.a0, self.a1], dtype=float)
        b = np.array([self.b0, self.b1], dtype=float)
        return CorrelationTable(np.outer(a, b))

    def behavior(self) -> Behavior:
        rx, ry = self.response_indices()
        return Behavior(STRATEGY_BEHAVIORS[4 * rx + ry])


def enumerate_strategies() -> list[DeterministicStrategy]:
    """All 16 strategies in lexicographic (a0, a1, b0, b1) order, +1 first."""
    return [DeterministicStrategy.from_bits(bits) for bits in itertools.product((0, 1), repeat=4)]


#: The strategies' answers as a (16, 4) sign table with columns (a0, a1, b0,
#: b1).  Its row order is that of ``enumerate_strategies``, of
#: ``itertools.product((1, -1), repeat=4)`` and of the response types (4 * rx + ry).
STRATEGY_SIGNS = np.array([[s.a0, s.a1, s.b0, s.b1] for s in enumerate_strategies()], dtype=float)
#: Correlators E[A_x B_y] = a_x b_y of each strategy, shape (16, 2, 2).
STRATEGY_CORRELATIONS = STRATEGY_SIGNS[:, :2, None] * STRATEGY_SIGNS[:, None, 2:]
_ANSWERS = (STRATEGY_SIGNS[:, None, :] == SIGNS[None, :, None]).astype(float)  # [s, bit, observable]
#: Behaviors p(a, b | x, y) of each strategy, shape (16, 2, 2, 2, 2).
STRATEGY_BEHAVIORS = np.einsum("sax,sby->sabxy", _ANSWERS[:, :, :2], _ANSWERS[:, :, 2:])
#: Strategy behaviors as the columns of a (16 behavior entries, 16 strategies) matrix.
_STRATEGY_MATRIX = STRATEGY_BEHAVIORS.reshape(16, 16).T
for _table in (STRATEGY_SIGNS, STRATEGY_CORRELATIONS, STRATEGY_BEHAVIORS, _STRATEGY_MATRIX):
    _table.setflags(write=False)


@dataclass(frozen=True, eq=False)
class MembershipCertificate:
    """Either mixing weights reproducing the behavior, or the most-violated
    CHSH facet (sign-variant index into ``model.CHSH_VARIANTS``)."""

    member: bool
    weights: np.ndarray | None
    facet_index: int | None
    facet_coefficients: np.ndarray | None
    facet_value: float | None


def local_membership(b: Behavior, tol: float = TOL) -> MembershipCertificate:
    """Decide membership in the local polytope by LP over the 16 strategies."""
    # the rows of each setting pair (x, y) sum to the total weight and their
    # targets to 1, so the weights' normalization needs no row of its own
    target = b.p.reshape(16)
    result = lp_solve(
        LpProblem(c=np.zeros(16), A=_STRATEGY_MATRIX, b=target, sense="min"), tol
    )
    if result.status == "optimal":
        w = np.clip(result.x, 0.0, None)
        return MembershipCertificate(True, w / w.sum(), None, None, None)
    variants = chsh_variant_values(behavior_to_correlations(b))
    k = int(np.argmax(variants))
    return MembershipCertificate(False, None, k, CHSH_VARIANTS[k].copy(), float(variants[k]))


class FineCheckResult(NamedTuple):
    joint_exists: bool
    all_chsh_hold: bool


def chsh_facets_hold(b: Behavior, tol: float = TOL) -> bool:
    """Do all 8 CHSH facets hold at tolerance ``tol``?  For a no-signaling
    behavior this is local-polytope membership (Fine, J. Math. Phys. 23,
    1306, 1982).  A CHSH excess e over 2 leaves the strategy LP a phase-1
    optimum of 2e, so the facets hold when 2 (max CHSH - 2) <= ``tol``:
    the LP's own test, so that both give one verdict."""
    return bool(2.0 * (chsh_variant_values(behavior_to_correlations(b)).max() - 2.0) <= tol)


def fine_check(b: Behavior, tol: float = TOL) -> FineCheckResult:
    """Joint-distribution existence versus the 8 CHSH inequalities.

    A joint of (A0, A1, B0, B1) is a distribution over the 16 strategies
    that reproduces the behavior, so its existence is ``local_membership``;
    the facet check is ``chsh_facets_hold``.  The two answers must agree
    for every no-signaling behavior; signaling input is rejected because
    the equivalence presupposes no-signaling.
    """
    if not b.no_signaling:
        raise SignalingError("joint-distribution equivalence requires a no-signaling behavior")
    return FineCheckResult(local_membership(b, tol).member, chsh_facets_hold(b, tol))


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
    for name, p in (("u", u), ("v", v)):
        if not (np.isfinite(p) and 0.0 <= p <= 1.0):
            raise ValidationError(f"{name} must be a probability in [0, 1], got {p}")
    return Interval(max(u + v - 1.0, 0.0), min(u, v))


def comonotone_coupling(u: float, v: float) -> np.ndarray:
    """Joint table [i, j] = P(A=i, B=j) of the rank-preserving coupling;
    attains the upper coupling bound min(u, v)."""
    frechet_bounds(u, v)  # domain check
    p11 = min(u, v)
    return np.array([[1.0 - u - v + p11, v - p11], [u - p11, p11]])


def countermonotone_coupling(u: float, v: float) -> np.ndarray:
    """Rank-reversing coupling; attains the lower bound max(u + v - 1, 0)."""
    frechet_bounds(u, v)
    p11 = max(u + v - 1.0, 0.0)
    return np.array([[1.0 - u - v + p11, v - p11], [u - p11, p11]])


def local_max(functional) -> float:
    """Maximum of a correlation functional over the local polytope: the best
    of its 16 vertices, the deterministic strategies; inf when a vertex
    value passes the float range."""
    f = correlator_functional(functional)
    with np.errstate(over="ignore"):
        return float((STRATEGY_CORRELATIONS * f).sum(axis=(1, 2)).max())


def no_signaling_max(functional) -> float:
    """Maximum of a correlation functional over the no-signaling polytope.

    The correlation tables of its 24 vertices (Barrett et al., PRA 71,
    022101, 2005) are all 16 sign patterns: even parity for the 16
    strategies, odd parity for the 8 PR boxes (the ``CHSH_VARIANTS``).  So
    the correlators fill the cube [-1, 1]^4 and the maximum is sum |f|
    (inf past the float range).
    """
    f = correlator_functional(functional)
    with np.errstate(over="ignore"):
        return float(np.abs(f).sum())
