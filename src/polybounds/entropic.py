"""Shannon entropies of behaviors and the polymatroid outer cone.

Entropies are in bits throughout.  Entropy vectors are indexed by subset
bitmask: component s is the joint entropy of the variables whose bits are
set in s, with component 0 (the empty set) pinned to zero, so a vector
over n variables has length 2**n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .model import INEQUALITY_SLACK, Behavior, float_array, probability_array


def entropy(dist) -> float:
    """Base-2 entropy of a discrete distribution, with 0 log 0 = 0."""
    p = float_array(dist, "distribution")
    return _checked_entropy(probability_array(p, p.shape, None, "distribution"))


def _checked_entropy(p: np.ndarray) -> float:
    """``entropy`` of a table that ``probability_array`` has checked."""
    p = p.reshape(-1)
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum() + 0.0)


def mutual_information(joint) -> float:
    """I(A : B) of a bivariate joint given as a 2-D table."""
    j = float_array(joint, "distribution")
    if j.ndim != 2:
        raise ValidationError("mutual information needs a 2-D joint table")
    return entropy(j.sum(axis=1)) + entropy(j.sum(axis=0)) - entropy(j)


class EntropicChshResult(NamedTuple):
    lhs: float
    rhs: float
    holds: bool
    mutual_informations: tuple
    settings_entropy: float


#: How the right-hand side is read; surfaced in every report that uses it.
SETTINGS_CONVENTION = (
    "rhs = 2 * H(joint settings distribution), uniform settings by default (rhs = 4 bits); "
    "the inequality is evaluated as printed (paper-literal form)"
)


def entropic_chsh(b: Behavior, settings=None) -> EntropicChshResult:
    """Entropic analog of the CHSH combination:
    I(A:B|00) + I(A:B|01) + I(A:B|10) - I(A:B|11) <= 2 H(settings)."""
    s = np.full((2, 2), 0.25) if settings is None else settings
    s = probability_array(s, (2, 2), None, "settings distribution")
    # the 12 entropies of the four setting blocks in one pass over the
    # validated table, each summed in entropy's (a, b) order, so that every
    # value equals mutual_information(b.p[:, :, x, y]) bit for bit
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 log 0 = 0
        alice, bob, joint = (np.where(q > 0.0, q * np.log2(q), 0.0) for q in (b.p.sum(axis=1), b.p.sum(axis=0), b.p))
    h_alice, h_bob = (-(t[0] + t[1]) + 0.0 for t in (alice, bob))
    h_joint = -(((joint[0, 0] + joint[0, 1]) + joint[1, 0]) + joint[1, 1]) + 0.0
    infos = tuple(map(float, (h_alice + h_bob - h_joint).reshape(-1)))  # settings (x, y) in row-major order
    lhs = infos[0] + infos[1] + infos[2] - infos[3]
    h_settings = _checked_entropy(s)
    rhs = 2.0 * h_settings
    holds = lhs <= rhs + INEQUALITY_SLACK
    return EntropicChshResult(float(lhs), float(rhs), bool(holds), infos, float(h_settings))


@dataclass(frozen=True, eq=False)
class EntropyVector:
    """Joint entropies of every nonempty subset of n <= 4 variables,
    indexed by subset bitmask (component 0 is the empty set, fixed at 0)."""

    h: np.ndarray
    n: int

    def __post_init__(self):
        arr = float_array(self.h, "entropy vector")
        if self.n < 1 or self.n > 4:
            raise ValidationError(f"entropy vectors cover 1..4 variables, got n = {self.n}")
        if arr.shape != (2**self.n,):
            raise ValidationError(
                f"incomplete entropy vector: need {2**self.n} components for n = {self.n}, got {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValidationError("entropy vector has non-finite components")
        if abs(arr[0]) > 1e-12:
            raise ValidationError("the empty-set component must be zero")
        if arr.min() < -1e-12:
            raise ValidationError("entropies must be nonnegative")
        arr.setflags(write=False)
        object.__setattr__(self, "h", arr)

    @classmethod
    def from_joint(cls, joint) -> "EntropyVector":
        """Entropy vector of an explicit joint distribution; axis i of the
        array is variable i (bit i of the subset mask)."""
        j = float_array(joint, "joint distribution")
        n = j.ndim
        if n < 1 or n > 4:
            raise ValidationError("joint must have between 1 and 4 axes")
        h = np.zeros(2**n)
        for mask in range(1, 2**n):
            drop = tuple(i for i in range(n) if not (mask >> i) & 1)
            h[mask] = entropy(j.sum(axis=drop) if drop else j)
        return cls(h, n)


class ShannonViolation(NamedTuple):
    kind: str
    description: str
    amount: float


class ShannonConeResult(NamedTuple):
    member: bool
    violations: tuple


def shannon_cone_check(vector: EntropyVector, tol: float = 1e-9) -> ShannonConeResult:
    """Check every elemental polymatroid inequality.

    Elemental monotonicity: H(all) >= H(all minus one variable).
    Elemental submodularity: H(iK) + H(jK) >= H(ijK) + H(K) for each pair
    i < j and each context K avoiding both.  Together these imply all
    monotonicity and submodularity relations.
    """
    h = vector.h
    n = vector.n
    full = 2**n - 1
    violations: list[ShannonViolation] = []
    for i in range(n):
        amount = h[full] - h[full ^ (1 << i)]
        if amount < -tol:
            violations.append(
                ShannonViolation(
                    "monotonicity",
                    f"H(all) >= H(all \\ {{{i}}}) fails by {-amount:.3e}",
                    float(amount),
                )
            )
    for i in range(n - 1):
        for j in range(i + 1, n):
            rest = [k for k in range(n) if k not in (i, j)]
            for pick in range(2 ** len(rest)):
                K = 0
                for t, k in enumerate(rest):
                    if (pick >> t) & 1:
                        K |= 1 << k
                amount = h[K | 1 << i] + h[K | 1 << j] - h[K | (1 << i) | (1 << j)] - h[K]
                if amount < -tol:
                    violations.append(
                        ShannonViolation(
                            "submodularity",
                            f"I({i};{j}|K=0b{K:0{n}b}) >= 0 fails by {-amount:.3e}",
                            float(amount),
                        )
                    )
    return ShannonConeResult(not violations, tuple(violations))
