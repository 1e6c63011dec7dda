"""Core value types shared by every analysis.

Conventions fixed here once and for all:

* Outcomes are bits; the sign encoding is bit 0 -> +1, bit 1 -> -1.
* A ``Behavior`` stores p(a, b | x, y) as a (2, 2, 2, 2) array indexed
  ``[a, b, x, y]``.
* An ``ObservedIVTable`` stores p(y, x | z) as a (2, 2, 2) array indexed
  ``[y, x, z]``.
* Invalid tables raise at construction; ``renormalize`` classmethods exist
  for deliberately noisy input.

All types are immutable values (backing arrays are frozen), so every
operation in the package is a pure function and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import NormalizationError, ValidationError

#: Sign of an outcome bit: 0 -> +1, 1 -> -1.
SIGNS = np.array([1.0, -1.0])

#: Coefficients of the canonical CHSH combination e00 + e01 + e10 - e11.
CHSH_COEFFS = np.array([[1.0, 1.0], [1.0, -1.0]])


def _frozen_array(values, shape, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    if arr.shape != shape:
        raise ValidationError(f"expected array of shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


def _check_probabilities(arr: np.ndarray, tol: float) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ValidationError("probability table contains non-finite entries")
    if arr.min() < -tol:
        raise ValidationError(f"negative probability entry {arr.min():.3e}")
    return np.where(arr < 0.0, 0.0, arr)


@dataclass(frozen=True, eq=False)
class Behavior:
    """Conditional outcome distribution p(a, b | x, y) of a two-setting,
    two-outcome bipartite experiment.

    Signaling tables are accepted but flagged via ``no_signaling``.
    """

    p: np.ndarray
    no_signaling: bool = field(init=False)

    def __post_init__(self):
        tol = DEFAULT_TOLERANCES
        arr = np.array(self.p, dtype=float)
        if arr.shape != (2, 2, 2, 2):
            raise ValidationError(f"behavior must have shape (2,2,2,2), got {arr.shape}")
        arr = _check_probabilities(arr, tol.normalization)
        sums = arr.sum(axis=(0, 1))
        if np.abs(sums - 1.0).max() > tol.normalization:
            raise NormalizationError(
                f"behavior blocks must sum to 1 (worst deviation {np.abs(sums - 1.0).max():.3e})"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

        alice = arr.sum(axis=1)  # (a, x, y)
        bob = arr.sum(axis=0)  # (b, x, y)
        ns = (
            np.abs(alice[:, :, 0] - alice[:, :, 1]).max() <= tol.no_signaling
            and np.abs(bob[:, 0, :] - bob[:, 1, :]).max() <= tol.no_signaling
        )
        object.__setattr__(self, "no_signaling", bool(ns))

    @classmethod
    def uniform(cls) -> "Behavior":
        return cls(np.full((2, 2, 2, 2), 0.25))

    @classmethod
    def pr_box(cls) -> "Behavior":
        """Popescu-Rohrlich box: p(a, b | x, y) = 1/2 iff a XOR b = x AND y."""
        p = np.zeros((2, 2, 2, 2))
        for a in range(2):
            for b in range(2):
                for x in range(2):
                    for y in range(2):
                        if (a ^ b) == (x & y):
                            p[a, b, x, y] = 0.5
        return cls(p)

    @classmethod
    def from_correlations(cls, e) -> "Behavior":
        """Unbiased-marginal behavior with the given correlators:
        p(a, b | x, y) = (1 + (-1)^(a+b) e[x, y]) / 4."""
        e = np.asarray(e, dtype=float)
        if e.shape != (2, 2):
            raise ValidationError("correlations must be a 2x2 array")
        p = np.empty((2, 2, 2, 2))
        for a in range(2):
            for b in range(2):
                p[a, b] = (1.0 + SIGNS[a] * SIGNS[b] * e) / 4.0
        return cls(p)

    @classmethod
    def renormalize(cls, raw) -> "Behavior":
        """Explicit renormalization helper for noisy input tables."""
        arr = np.array(raw, dtype=float)
        if arr.shape != (2, 2, 2, 2):
            raise ValidationError(f"behavior must have shape (2,2,2,2), got {arr.shape}")
        sums = arr.sum(axis=(0, 1))
        if sums.min() <= 0:
            raise ValidationError("cannot renormalize a block with non-positive mass")
        return cls(arr / sums)


@dataclass(frozen=True, eq=False)
class ObservedIVTable:
    """Observed conditional distribution p(y, x | z) of an instrumental-
    variable experiment with binary instrument, treatment and outcome."""

    p: np.ndarray

    def __post_init__(self):
        tol = DEFAULT_TOLERANCES
        arr = np.array(self.p, dtype=float)
        if arr.shape != (2, 2, 2):
            raise ValidationError(f"IV table must have shape (2,2,2), got {arr.shape}")
        arr = _check_probabilities(arr, tol.normalization)
        sums = arr.sum(axis=(0, 1))
        if np.abs(sums - 1.0).max() > tol.normalization:
            raise NormalizationError(
                f"each instrument arm must sum to 1 (worst deviation {np.abs(sums - 1.0).max():.3e})"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    @classmethod
    def renormalize(cls, raw) -> "ObservedIVTable":
        arr = np.array(raw, dtype=float)
        if arr.shape != (2, 2, 2):
            raise ValidationError(f"IV table must have shape (2,2,2), got {arr.shape}")
        sums = arr.sum(axis=(0, 1))
        if sums.min() <= 0:
            raise ValidationError("cannot renormalize an arm with non-positive mass")
        return cls(arr / sums)

    def flat(self) -> np.ndarray:
        """Table as a length-8 vector in (y, x, z) row-major order."""
        return self.p.reshape(8)


@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """The four correlators E[A_x B_y] of a two-setting Bell experiment."""

    e: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.e, (2, 2))
        if np.abs(arr).max() > 1.0 + DEFAULT_TOLERANCES.interval_slack:
            raise ValidationError(f"correlators must lie in [-1, 1], got max |e| = {np.abs(arr).max()}")
        object.__setattr__(self, "e", arr)


@dataclass(frozen=True)
class CorrelationTriple:
    """Pairwise correlations E[AB], E[AC], E[BC] of three +-1 variables."""

    e_ab: float
    e_ac: float
    e_bc: float

    def __post_init__(self):
        for name, v in (("e_ab", self.e_ab), ("e_ac", self.e_ac), ("e_bc", self.e_bc)):
            if not np.isfinite(v) or abs(v) > 1.0 + DEFAULT_TOLERANCES.interval_slack:
                raise ValidationError(f"{name} must lie in [-1, 1], got {v}")


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi]; the shape of every partial-identification result."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValidationError("interval endpoints must be finite")
        if self.lo > self.hi + DEFAULT_TOLERANCES.interval_slack:
            raise ValidationError(f"interval lower bound {self.lo} exceeds upper bound {self.hi}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, value: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= value <= self.hi + tol

    def encloses(self, other: "Interval", tol: float = 0.0) -> bool:
        return self.lo - tol <= other.lo and other.hi <= self.hi + tol


@dataclass(frozen=True, eq=False)
class ResponseTypeDist:
    """Probability vector over the 16 deterministic response types.

    Index (i, j) is flattened as 4*i + j where i encodes the treatment
    response Z -> X and j the outcome response X -> Y (see
    ``causal.X_RESPONSES`` / ``causal.Y_RESPONSES`` for the order).  Under
    the Bell-causal bijection each type is one hidden-variable value.
    """

    q: np.ndarray

    def __post_init__(self):
        tol = DEFAULT_TOLERANCES
        arr = np.array(self.q, dtype=float)
        if arr.shape != (16,):
            raise ValidationError(f"response-type distribution must have 16 entries, got {arr.shape}")
        arr = _check_probabilities(arr, tol.normalization)
        if abs(arr.sum() - 1.0) > tol.normalization:
            raise NormalizationError(f"weights must sum to 1, got {arr.sum()!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "q", arr)


def behavior_to_correlations(b: Behavior) -> CorrelationTable:
    """Correlators E[A_x B_y] = sum_ab (-1)^(a+b) p(a, b | x, y)."""
    signs = np.outer(SIGNS, SIGNS)
    e = np.einsum("ab,abxy->xy", signs, b.p)
    return CorrelationTable(np.clip(e, -1.0, 1.0))


def chsh_value(c: CorrelationTable | np.ndarray) -> float:
    """Canonical CHSH combination S = e00 + e01 + e10 - e11."""
    e = c.e if isinstance(c, CorrelationTable) else np.asarray(c, dtype=float)
    return float(np.sum(CHSH_COEFFS * e))


def chsh_variant_coefficients() -> np.ndarray:
    """The 8 sign variants of the CHSH combination as (8, 2, 2) coefficients.

    Variant k negates term k % 4 (row-major position) and carries a global
    sign of +1 for k < 4, -1 otherwise.  Variant 3 is the canonical CHSH.
    """
    variants = np.empty((8, 2, 2))
    for k in range(8):
        m = np.ones((2, 2))
        m[divmod(k % 4, 2)] = -1.0
        variants[k] = m if k < 4 else -m
    return variants


CHSH_VARIANTS = chsh_variant_coefficients()
CHSH_VARIANTS.setflags(write=False)


def chsh_variant_values(c: CorrelationTable | np.ndarray) -> np.ndarray:
    """All 8 CHSH variants evaluated on a correlation table."""
    e = c.e if isinstance(c, CorrelationTable) else np.asarray(c, dtype=float)
    return np.tensordot(CHSH_VARIANTS, e, axes=([1, 2], [0, 1]))
