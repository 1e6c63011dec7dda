"""Core value types shared by every analysis.

Conventions fixed here once and for all:

* Outcomes are bits; the sign encoding is bit 0 -> +1, bit 1 -> -1.
* A ``Behavior`` stores p(a, b | x, y) as a (2, 2, 2, 2) array indexed
  ``[a, b, x, y]``.
* An ``ObservedIVTable`` stores p(y, x | z) as a (2, 2, 2) array indexed
  ``[y, x, z]``.
* Every distribution type (behaviors, IV tables, response-type
  distributions, observational joints, entropy inputs, settings
  distributions) is checked by one rule, ``probability_array``: a
  rectangular numeric array (``float_array``, which also refuses string
  and boolean entries and an integer past the float range) of the right
  shape, finite entries, none below -NORMALIZATION_SLACK (smaller dips
  are set to 0), and block sums within NORMALIZATION_SLACK of 1.
  ``rescale_blocks`` makes the same entry checks and divides each block
  by its mass, which must be positive and finite: it is the
  ``renormalize`` classmethods and the command line's reading of every
  distribution.  Correlation functionals are checked by
  ``correlator_functional`` and correlators by ``CorrelationTable``,
  both through ``float_array`` too, and scalar probabilities by
  ``check_probability``, which returns them as floats.  Invalid input
  raises ``ValidationError`` at construction, naming what it is.

All types are immutable values (backing arrays are frozen), so every
operation in the package is a pure function and safe to call concurrently.
The model imports nothing from the solver package: a check that takes a
tolerance, such as ``Behavior.no_signaling_at``, is given it by its caller.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import NormalizationError, ValidationError

#: Sign of an outcome bit: 0 -> +1, 1 -> -1.
SIGNS = np.array([1.0, -1.0])

#: Rounding allowances of exact-valued checks, never settable: a probability
#: may dip below 0 and a table's sums may miss 1 by NORMALIZATION_SLACK, an
#: interval's endpoints may cross and a correlator may pass +-1 by
#: INTERVAL_SLACK, and an inequality may fail by INEQUALITY_SLACK and still
#: hold.
NORMALIZATION_SLACK = 1e-12
INTERVAL_SLACK = 1e-12
INEQUALITY_SLACK = 1e-12

#: Entry types that numpy turns into floats but that are not numbers (numpy's
#: str_ and bytes_ are str and bytes).
_NOT_NUMBERS = (str, bytes, bool, np.bool_)


def float_array(values, what: str) -> np.ndarray:
    """``values`` as a new float array; a ragged or non-numeric nesting, a
    string or boolean entry (which numpy would convert), or an integer past
    the float range raises ``ValidationError`` naming ``what``."""
    try:
        arr = np.array(values, dtype=float)
    except OverflowError:
        raise ValidationError(f"{what} has an entry past the floating-point range") from None
    except (TypeError, ValueError):
        raise ValidationError(f"{what} is not a rectangular array of numbers") from None
    # the entries' own types, which the float array has lost (True is 1.0
    # there); a numeric array's entries are numbers
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "fiu"):
        leaves = [values]
        for _ in range(arr.ndim):
            leaves = list(chain.from_iterable(leaves))
        for kind in dict.fromkeys(map(type, leaves)):  # in the order of first occurrence
            if issubclass(kind, _NOT_NUMBERS):
                raise ValidationError(f"{what} has an entry of type {kind.__name__}, not a number")
    return arr


def check_probability(value, what: str) -> float:
    """``value`` as a float probability: a real number, not a boolean, in
    [0, 1].  Anything else raises ``ValidationError`` naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):  # numpy's bool is no Real
        raise ValidationError(f"{what} must be a number, got {type(value).__name__}")
    try:
        p = float(value)
    except OverflowError:
        raise ValidationError(f"{what} is past the floating-point range") from None
    if not 0.0 <= p <= 1.0:  # a NaN fails too
        raise ValidationError(f"{what} must lie in [0, 1], got {p}")
    return p


def _entries(values, shape: tuple, what: str) -> np.ndarray:
    """``values`` as a float array of ``shape`` with finite entries, those
    down to -NORMALIZATION_SLACK set to 0 and lower ones rejected."""
    arr = float_array(values, what)
    if arr.shape != shape:
        raise ValidationError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} has non-finite entries")
    low = float(arr.min(initial=0.0))
    if low < -NORMALIZATION_SLACK:
        raise ValidationError(f"{what} has a negative entry {low:.3e}")
    if low < 0.0:
        arr = np.where(arr < 0.0, 0.0, arr)
    return arr


def probability_array(values, shape: tuple, axes, what: str) -> np.ndarray:
    """``values`` as a frozen probability table of ``shape``: entries finite,
    those down to -NORMALIZATION_SLACK set to 0 and lower ones rejected, and
    the sums over ``axes`` (all axes for None) within NORMALIZATION_SLACK of
    1.  Each error names ``what``."""
    arr = _entries(values, shape, what)
    deviation = float(np.abs(arr.sum(axis=axes) - 1.0).max())
    if deviation > NORMALIZATION_SLACK:
        raise NormalizationError(f"{what} must sum to 1 (worst deviation {deviation:.3e})")
    arr.setflags(write=False)
    return arr


def rescale_blocks(values, shape: tuple, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``values``, entries checked as by ``probability_array``, with each block
    over the first two axes divided by its mass; and the masses.  A mass that
    is not positive and finite raises ``ValidationError`` naming ``what``."""
    arr = _entries(values, shape, what)
    with np.errstate(over="ignore"):
        masses = arr.sum(axis=(0, 1), keepdims=True)
    bad = masses[~(np.isfinite(masses) & (masses > 0.0))]
    if bad.size:
        raise ValidationError(f"{what} has a block of mass {bad[0]:.3e}, which cannot be rescaled to 1")
    return arr / masses, masses


class _BlockTable:
    """A table of conditional distributions, ``_SHAPE`` with one block per
    setting: its sums over the first two axes are each 1."""

    @classmethod
    def renormalize(cls, raw):
        """Each block divided by its mass: the explicit helper for noisy input."""
        return cls(rescale_blocks(raw, cls._SHAPE, cls._WHAT)[0])


@dataclass(frozen=True, eq=False)
class Behavior(_BlockTable):
    """Conditional outcome distribution p(a, b | x, y) of a two-setting,
    two-outcome bipartite experiment.

    Signaling tables are accepted.  ``signaling`` is the largest gap
    between two marginals that no-signaling makes equal (Alice's at x
    across y, Bob's at y across x), and ``no_signaling_at`` is the one rule
    that reads it.
    """

    p: np.ndarray
    signaling: float = field(init=False)

    _SHAPE = (2, 2, 2, 2)
    _WHAT = "behavior"

    def __post_init__(self):
        arr = probability_array(self.p, self._SHAPE, (0, 1), self._WHAT)
        object.__setattr__(self, "p", arr)

        alice = arr.sum(axis=1)  # (a, x, y)
        bob = arr.sum(axis=0)  # (b, x, y)
        gap = max(np.abs(alice[:, :, 0] - alice[:, :, 1]).max(), np.abs(bob[:, 0, :] - bob[:, 1, :]).max())
        object.__setattr__(self, "signaling", float(gap))

    def no_signaling_at(self, tol: float) -> bool:
        """Is the behavior no-signaling at tolerance ``tol``: 4 ``signaling``
        <= ``tol``?  A largest marginal gap g leaves the strategy LP a phase-1
        optimum of 4g (the gaps of different marginals do not add), so this
        is the LP's own test."""
        return 4.0 * self.signaling <= tol

    @classmethod
    def uniform(cls) -> "Behavior":
        return cls(np.full((2, 2, 2, 2), 0.25))

    @classmethod
    def pr_box(cls) -> "Behavior":
        """Popescu-Rohrlich box: p(a, b | x, y) = 1/2 iff a XOR b = x AND y."""
        return cls.from_correlations(CHSH_COEFFS)

    @classmethod
    def from_correlations(cls, e) -> "Behavior":
        """Unbiased-marginal behavior with the given correlators:
        p(a, b | x, y) = (1 + (-1)^(a+b) e[x, y]) / 4, with ``e`` checked as
        a ``CorrelationTable``."""
        e = CorrelationTable(e).e
        p = np.empty((2, 2, 2, 2))
        for a in range(2):
            for b in range(2):
                p[a, b] = (1.0 + SIGNS[a] * SIGNS[b] * e) / 4.0
        return cls(p)


@dataclass(frozen=True, eq=False)
class ObservedIVTable(_BlockTable):
    """Observed conditional distribution p(y, x | z) of an instrumental-
    variable experiment with binary instrument, treatment and outcome."""

    p: np.ndarray

    _SHAPE = (2, 2, 2)
    _WHAT = "IV table"

    def __post_init__(self):
        object.__setattr__(self, "p", probability_array(self.p, self._SHAPE, (0, 1), self._WHAT))

    def flat(self) -> np.ndarray:
        """Table as a length-8 vector in (y, x, z) row-major order."""
        return self.p.reshape(8)


@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """The four correlators E[A_x B_y] of a two-setting Bell experiment."""

    e: np.ndarray

    def __post_init__(self):
        arr = float_array(self.e, "correlation table")
        if arr.shape != (2, 2):
            raise ValidationError(f"correlation table must have shape (2, 2), got {arr.shape}")
        if not np.abs(arr).max() <= 1.0 + INTERVAL_SLACK:  # a NaN fails too
            raise ValidationError(f"correlators must lie in [-1, 1], got max |e| = {np.abs(arr).max()}")
        arr.setflags(write=False)
        object.__setattr__(self, "e", arr)


def correlator_functional(functional) -> np.ndarray:
    """The coefficients f[x, y] of a correlation functional, given as an
    array or a ``CorrelationTable``, checked 2x2 and finite."""
    f = functional.e if isinstance(functional, CorrelationTable) else float_array(functional, "functional")
    if f.shape != (2, 2):
        raise ValidationError(f"functional must be a 2x2 coefficient array, got shape {f.shape}")
    if not all(map(math.isfinite, f.ravel().tolist())):
        raise ValidationError("functional has non-finite entries")
    return f


@dataclass(frozen=True)
class CorrelationTriple:
    """Pairwise correlations E[AB], E[AC], E[BC] of three +-1 variables."""

    e_ab: float
    e_ac: float
    e_bc: float

    def __post_init__(self):
        for name, v in (("e_ab", self.e_ab), ("e_ac", self.e_ac), ("e_bc", self.e_bc)):
            if not math.isfinite(v) or abs(v) > 1.0 + INTERVAL_SLACK:
                raise ValidationError(f"{name} must lie in [-1, 1], got {v}")


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi]; the shape of every partial-identification result."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValidationError("interval endpoints must be finite")
        if self.lo > self.hi + INTERVAL_SLACK:
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

    Type 4*i + j pairs treatment response i (Z -> X) with outcome response
    j (X -> Y), in the order of the table in the ``causal`` docstring.  It is
    also strategy 4*i + j of ``polytope.STRATEGY_SIGNS``: under the
    Bell-causal bijection each type is one hidden-variable value.
    """

    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", probability_array(self.q, (16,), None, "response-type distribution"))


def behavior_to_correlations(b: Behavior) -> CorrelationTable:
    """Correlators E[A_x B_y] = sum_ab (-1)^(a+b) p(a, b | x, y)."""
    signs = np.outer(SIGNS, SIGNS)
    e = np.einsum("ab,abxy->xy", signs, b.p)
    return CorrelationTable(np.clip(e, -1.0, 1.0))


def chsh_value(c: CorrelationTable | np.ndarray) -> float:
    """Canonical CHSH combination S = e00 + e01 + e10 - e11."""
    e = (c if isinstance(c, CorrelationTable) else CorrelationTable(c)).e
    return float(np.sum(CHSH_COEFFS * e))


#: The 8 sign variants of the CHSH combination as (8, 2, 2) coefficients.
#: Variant k negates term k % 4 (row-major position) and carries a global
#: sign of +1 for k < 4, -1 otherwise.  Variant 3 is the canonical CHSH.
CHSH_VARIANTS = np.concatenate([1.0 - 2.0 * np.eye(4), 2.0 * np.eye(4) - 1.0]).reshape(8, 2, 2)
CHSH_VARIANTS.setflags(write=False)
#: Coefficients of the canonical CHSH combination e00 + e01 + e10 - e11.
CHSH_COEFFS = CHSH_VARIANTS[3]


def chsh_variant_values(c: CorrelationTable | np.ndarray) -> np.ndarray:
    """All 8 CHSH variants evaluated on a correlation table."""
    e = (c if isinstance(c, CorrelationTable) else CorrelationTable(c)).e
    return np.tensordot(CHSH_VARIANTS, e, axes=([1, 2], [0, 1]))
