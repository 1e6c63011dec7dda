"""Two-qubit simulator and moment-matrix relaxations of the quantum set.

The simulator produces exact behaviors from a density matrix and four
sign-valued observables; eigenprojectors of 2x2 observables come from the
closed form (I +- O) / 2, so no eigensolver is involved.

The quantum value of a 2x2 correlator functional has a closed form
(``tsirelson_bound``), which both relaxation levels attain; it answers
the functional and behavior routes of ``quantum_gap_report`` with no
solver.  The moment-matrix SDP (``npa_bound``) stays as its independent
cross-check.  The level-1 effect bounds of an instrumental table are a
chordal matrix completion with one free scalar, held to the natural bounds
by the table's unobserved cells; an endpoint whose active Balke-Pearl row
is natural, and both endpoints of a table with a pinned arm, are the
classical ones, and any other is a golden-section search with its kinks
pinned, with no solver (``quantum_ace_bounds``).  The moment SDP
(``quantum_ace_sdp``) is the engine at level 1ab and the level-1 audit.
Every level refuses a table that fails the instrumental inequality: the
natural bounds hold for every quantum model.

The relaxation side builds moment matrices over operator words in the
+-1-observable formulation.  Level ``L1`` uses words {1, A0, A1, B0, B1}
(5x5); ``L1AB`` adds the four cross products (9x9).  Every program is one
affine family over the distinct canonical monomials (products reduced
under O^2 = I and cross-party commutation, a word identified with its
adjoint), Gamma = G0 + sum_j t_j G_j with the identity's moment 1 on the
diagonal (Navascues, Pironio and Acin, NJP 10, 073013, 2008).  The rows of
an instrumental table are solved into G0 and the free directions, and a
treatment arm that the table makes deterministic pins A_z = +-1: that
letter is substituted out and its words leave the matrix (facial
reduction with the kernel known in advance; Permenter and Parrilo, Math.
Program. 2018).  Every program is a plain ``SdpProblem(C, A, b)``, built
afresh on each call.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .causal import ActiveRows, active_rows, manski_bounds
from .errors import FloatRangeError, InfeasibleTableError, SdpConvergenceError, ValidationError
from .model import (
    Behavior,
    Interval,
    ObservedIVTable,
    behavior_to_correlations,
    chsh_variant_values,
    correlator_functional,
    float_array,
    CHSH_VARIANTS,
)
from .polytope import local_max, no_signaling_max
from .solvers import TOL, SdpProblem, SdpResult, sdp_solve

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _unit(v: np.ndarray, size: int, what: str) -> np.ndarray:
    """``v``, of ``size`` entries, over its norm; divided first by its largest
    entry only when the norm overflows, so that every other vector keeps its bits."""
    if v.size != size:
        raise ValidationError(f"{what} must have {size} entries, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValidationError(f"{what} has non-finite entries")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    if not math.isfinite(norm):
        v = v / max(np.abs(v.real).max(), np.abs(v.imag).max())
        norm = np.linalg.norm(v)
    if norm == 0:
        raise ValidationError(f"{what} must be nonzero")
    return v.reshape(size) / norm


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """Density matrix of two qubits: 4x4 Hermitian, PSD, unit trace."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.array(self.rho, dtype=complex)
        if not np.isfinite(rho).all():
            raise ValidationError("density matrix has non-finite entries")
        if rho.shape != (4, 4):
            raise ValidationError(f"density matrix must be 4x4, got {rho.shape}")
        if np.abs(rho - rho.conj().T).max() > 1e-12:
            raise ValidationError("density matrix must be Hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-12 or abs(np.trace(rho).imag) > 1e-12:
            raise ValidationError(f"density matrix must have unit trace, got {np.trace(rho)}")
        if np.linalg.eigvalsh(rho).min() < -1e-10:
            raise ValidationError("density matrix must be positive semidefinite")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    @classmethod
    def from_ket(cls, ket) -> "TwoQubitState":
        v = _unit(np.asarray(ket, dtype=complex), 4, "state vector")
        return cls(np.outer(v, v.conj()))

    @classmethod
    def singlet(cls) -> "TwoQubitState":
        return cls.from_ket([0.0, 1.0, -1.0, 0.0])

    @classmethod
    def product(cls, ket_a, ket_b) -> "TwoQubitState":
        return cls.from_ket(np.kron(np.asarray(ket_a, complex), np.asarray(ket_b, complex)))

    @classmethod
    def maximally_mixed(cls) -> "TwoQubitState":
        return cls(np.eye(4, dtype=complex) / 4.0)


@dataclass(frozen=True, eq=False)
class DichotomicObservable:
    """2x2 Hermitian observable with +-1 eigenvalues (O^2 = I)."""

    m: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=complex)
        if not np.isfinite(m).all():
            raise ValidationError("observable has non-finite entries")
        if m.shape != (2, 2):
            raise ValidationError(f"observable must be 2x2, got {m.shape}")
        if np.abs(m - m.conj().T).max() > 1e-12:
            raise ValidationError("observable must be Hermitian")
        if np.abs(m @ m - np.eye(2)).max() > 1e-10:
            raise ValidationError("observable must square to the identity (eigenvalues +-1)")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    @classmethod
    def from_angle(cls, theta: float) -> "DichotomicObservable":
        """cos(theta) Z + sin(theta) X: a unit Bloch vector in the XZ plane."""
        if not math.isfinite(theta):
            raise ValidationError(f"angle must be finite, got {theta}")
        return cls(np.cos(theta) * PAULI_Z + np.sin(theta) * PAULI_X)

    @classmethod
    def from_bloch(cls, n) -> "DichotomicObservable":
        v = _unit(float_array(n, "Bloch vector"), 3, "Bloch vector")
        return cls(v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z)

    def projector(self, bit: int) -> np.ndarray:
        """Eigenprojector onto outcome bit (0 -> +1 eigenspace, 1 -> -1)."""
        sign = 1.0 if bit == 0 else -1.0
        return (np.eye(2) + sign * self.m) / 2.0


def quantum_behavior(
    rho: TwoQubitState,
    a0: DichotomicObservable,
    a1: DichotomicObservable,
    b0: DichotomicObservable,
    b1: DichotomicObservable,
) -> Behavior:
    """Exact behavior p(a, b | x, y) = tr(rho projector_a^(A_x) (x) projector_b^(B_y))."""
    alice = (a0, a1)
    bob = (b0, b1)
    p = np.empty((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    op = np.kron(alice[x].projector(a), bob[y].projector(b))
                    p[a, b, x, y] = float(np.trace(rho.rho @ op).real)
    return Behavior(p)


def chsh_operator(
    a0: DichotomicObservable,
    a1: DichotomicObservable,
    b0: DichotomicObservable,
    b1: DichotomicObservable,
) -> np.ndarray:
    """A0 (x) (B0 + B1) + A1 (x) (B0 - B1) on the two-qubit space.  Its square
    is 4I - [A0, A1] (x) [B0, B1] (Landau, Phys. Lett. A 120, 54, 1987), so a
    commuting pair on either side caps its top eigenvalue at 2."""
    return np.kron(a0.m, b0.m + b1.m) + np.kron(a1.m, b0.m - b1.m)


class NpaLevel(enum.Enum):
    L1 = "1"
    L1AB = "1ab"

    @classmethod
    def parse(cls, text: str) -> "NpaLevel":
        level = cls._value2member_map_.get(str(text).lower())
        if level is None:
            raise ValidationError(f"unknown relaxation level {text!r}; use '1' or '1ab'")
        return level


Word = tuple[tuple[int, ...], tuple[int, ...]]

_L1_WORDS: tuple[Word, ...] = (
    ((), ()),
    ((0,), ()),
    ((1,), ()),
    ((), (0,)),
    ((), (1,)),
)
_L1AB_WORDS: tuple[Word, ...] = _L1_WORDS + tuple(((x,), (y,)) for x in (0, 1) for y in (0, 1))


def _reduce_letters(seq) -> tuple[int, ...]:
    out: list[int] = []
    for s in seq:
        if out and out[-1] == s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def _entry_monomial(v: Word, w: Word) -> Word:
    a = _reduce_letters(tuple(reversed(v[0])) + w[0])
    b = _reduce_letters(tuple(reversed(v[1])) + w[1])
    return (a, b)


def _canonical(mono: Word) -> Word:
    adjoint = (tuple(reversed(mono[0])), tuple(reversed(mono[1])))
    return min(mono, adjoint)


def _words(level: NpaLevel) -> tuple[Word, ...]:
    return _L1_WORDS if level is NpaLevel.L1 else _L1AB_WORDS


def _substitute(monomial: Word, pins: dict) -> tuple[float, Word]:
    """Replace each pinned Alice letter A_z by its sign pins[z]: the sign
    collected and the canonical monomial left."""
    sign = float(np.prod([pins.get(a, 1.0) for a in monomial[0]]))
    kept = [a for a in monomial[0] if a not in pins]
    return sign, _canonical((_reduce_letters(kept), monomial[1]))


def _pinned_letters(table: ObservedIVTable) -> dict[int, float]:
    """Alice letters an IV table fixes: <A_z> = +1 when every treated cell
    p(., 1 | z) is exactly 0, and -1 when every untreated cell p(., 0 | z) is."""
    return {z: sign for z in range(2) for x, sign in ((1, 1.0), (0, -1.0)) if not table.p[:, x, z].any()}


def _weights(coeffs: dict, level: NpaLevel, pins: dict, index: dict) -> np.ndarray:
    """A linear form in the moments, ``coeffs`` mapping monomials to
    coefficients, as a vector over the family's coordinates ``index``."""
    w = np.zeros(len(index))
    for mono, coeff in coeffs.items():
        sign, key = _substitute(mono, pins)
        if key not in index:
            raise ValidationError(f"monomial {mono!r} does not appear at level {level.value}")
        w[index[key]] += sign * float(coeff)
    return w


#: Largest miss of an IV table's rows by their least-squares moments at
#: which ``moment_program`` still takes the table to fit a moment matrix.
_DATA_RESIDUAL = 1e-9


def moment_program(level: NpaLevel, objective: dict, table: ObservedIVTable | None = None) -> SdpProblem:
    """Assemble a moment-matrix SDP over one affine family.

    The level's words index the matrix, and the entries holding one
    canonical monomial share its moment, the diagonal the identity's 1.  The
    rows of an IV ``table`` (``_iv_data_rows``) are solved: their
    least-squares solution gives the offset G0 and their null space the
    free directions G_j, so Gamma = G0 + sum_j t_j G_j.  A table whose rows
    that solution misses by more than ``_DATA_RESIDUAL`` (two arms pinned to
    one treatment with different outcomes) fits no moment matrix and
    raises ``InfeasibleTableError``.  An Alice letter the table pins
    (``_pinned_letters``) is substituted: the words holding it leave the
    word list, each being +-1 times a word that stays, and A_z -> +-1 in
    every monomial.  X is held in the family by <Q_k, X> = <Q_k, G0>, with
    Q_k an orthonormal basis of the family's orthogonal complement, and the
    program is ``SdpProblem(C, A, b)`` with the Q_k as A.  ``objective``
    maps monomials (pairs of letter tuples, the empty one a constant) to
    coefficients; a monomial absent at this level raises
    ``ValidationError``.
    """
    pins = {} if table is None else _pinned_letters(table)
    data = [] if table is None else _iv_data_rows()
    words = tuple(w for w in _words(level) if not pins.keys() & set(w[0]))
    iu = np.triu_indices(len(words))
    keys = [_canonical(_entry_monomial(words[i], words[j])) for i, j in zip(*iu)]
    index = {mono: k for k, mono in enumerate(dict.fromkeys(keys))}  # the identity comes first
    # each monomial's 0/1 pattern in orthonormal coordinates of the symmetric
    # matrices: the upper triangle, off-diagonal entries times sqrt 2
    scale = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
    patterns = scale * (np.array([index[k] for k in keys]) == np.arange(len(index))[:, None])
    D = np.array([_weights(coeffs, level, pins, index) for _, coeffs in data]).reshape(len(data), len(index))
    values = np.array([table.p[cell] for cell, _ in data])
    U, s, Vt = np.linalg.svd(D[:, 1:])
    rank = int((s > 1e-10).sum())
    moments = Vt[:rank].T @ (U[:, :rank].T @ (values - D[:, 0]) / s[:rank])
    residual = float(np.abs(D[:, 1:] @ moments + D[:, 0] - values).max(initial=0.0))
    if residual > _DATA_RESIDUAL:
        raise InfeasibleTableError(
            f"the table fits no moment matrix at level {level.value} (its rows miss by {residual:.3g})"
        )
    _, sc, Wt = np.linalg.svd(Vt[rank:] @ patterns[1:])
    complement = Wt[int((sc > 1e-10).sum()):]
    A = np.zeros((len(complement), len(words), len(words)))
    A[:, iu[0], iu[1]] = A[:, iu[1], iu[0]] = complement / scale
    coords = _weights(objective, level, pins, index) / (patterns**2).sum(axis=1) @ patterns
    C = np.zeros(A.shape[1:])
    C[iu[0], iu[1]] = C[iu[1], iu[0]] = coords / scale
    return SdpProblem(C, A, complement @ (patterns[0] + moments @ patterns[1:]))


def _in_range(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise FloatRangeError(f"the {name} value of the functional is past the floating-point range")
    return value


def tsirelson_bound(functional) -> float:
    """Exact quantum maximum of sum f[x, y] <A_x B_y>, with no solver.

    Correlators of +-1 observables are inner products of unit vectors
    (Tsirelson, Lett. Math. Phys. 4, 93, 1980), so with c the cosine
    between Alice's two vectors the maximum is the largest over c in
    [-1, 1] of sum_y sqrt(a_y + b_y c), where a_y = f0y^2 + f1y^2 and
    b_y = 2 f0y f1y.  Levels 1 and 1ab of ``npa_bound`` both equal it
    (Cleve, Hoyer, Toner and Watrous, CCC 2004).  The sum is concave in c,
    and its stationary point c* = (b1^2 a0 - b0^2 a1) / (b0 b1 (b0 - b1))
    exists when b0 b1 < 0, so the maximum is the best of c = -1, c = +1
    and c* when it lies in (-1, 1).  The coefficients are divided by
    max |f| first and the value scaled back; a value past the float range
    raises ``FloatRangeError``.  The CHSH coefficients give 2*sqrt(2)
    exactly.  It is computed on the four floats, bit for bit the vectorized
    numpy form that the tests keep as a reference: b_y^2 in c* is ``** 2``
    (C ``pow``), which can differ from b_y * b_y in the last place.
    """
    f = correlator_functional(functional).ravel().tolist()
    scale = max(map(abs, f))
    if scale == 0.0:
        return 0.0
    g00, g01, g10, g11 = (v / scale for v in f)
    a0, a1 = g00 * g00 + g10 * g10, g01 * g01 + g11 * g11
    b0, b1 = 2.0 * g00 * g10, 2.0 * g01 * g11
    cosines = [-1.0, 1.0]
    if b0 * b1 < 0.0:
        # the denominator underflows to 0 only when one column's b is so
        # small that the sum is flat in c to rounding: the endpoints decide
        denominator = b0 * b1 * (b0 - b1)
        if denominator != 0.0:
            stationary = (b1 ** 2 * a0 - b0 ** 2 * a1) / denominator
            if -1.0 < stationary < 1.0:
                cosines.append(stationary)
    best = max(math.sqrt(max(a0 + b0 * c, 0.0)) + math.sqrt(max(a1 + b1 * c, 0.0)) for c in cosines)
    return _in_range("quantum", scale * best)


def npa_bound(level: NpaLevel, functional) -> SdpResult:
    """Relaxation maximum of a correlation functional over the moment cone,
    as the solver's result; the bound is its ``value``.

    Monotone in the level: the 9x9 word set contains the 5x5 one, so the
    bound can only shrink.  For these 2x2 correlator functionals both
    levels equal ``tsirelson_bound``; the SDP is its independent check.
    The objective is divided by max |f| before assembly, and the value,
    dual value, duality gap and dual iterate are scaled back, so the solver
    sees unit-size data whatever the functional's magnitude.
    """
    f = correlator_functional(functional)
    scale = float(np.abs(f).max()) or 1.0
    result = sdp_solve(moment_program(level, {((x,), (y,)): f[x, y] / scale for x in range(2) for y in range(2)}))
    with np.errstate(over="ignore"):
        return dataclasses.replace(
            result,
            value=_in_range("relaxation", scale * float(result.value)),
            dual_value=scale * float(result.dual_value),
            gap=scale * float(result.gap),
            y=scale * result.y,
            Z=scale * result.Z,
        )


def _iv_data_rows() -> list:
    """Moment rows reproducing an observed table, as ((y, x, z), coefficients).

    p(y, x | z) = [1 + (-1)^x <A_z> + (-1)^y <B_x> + (-1)^(x+y) <A_z B_x>] / 4
    with the treatment-side word A_z chosen by the instrument and the
    outcome-side word B_x chosen by the realized treatment (the standard
    quantum reading of the instrumental structure).  One cell per arm is
    dropped as redundant with normalization.
    """
    rows = []
    for z, x, y in itertools.product(range(2), repeat=3):
        if (x, y) != (1, 1):
            sx, sy = (-1.0) ** x, (-1.0) ** y
            coeffs = {((), ()): 0.25, ((z,), ()): 0.25 * sx, ((), (x,)): 0.25 * sy, ((z,), (x,)): 0.25 * sx * sy}
            rows.append(((y, x, z), coeffs))
    return rows


def _with_cells(problem: SdpProblem, table: ObservedIVTable) -> SdpProblem:
    """A level-1 program of ``table`` with the unobserved cells
    p(a, b | z, x) = p(1 - x | z) / 2 + (-1)^b (<B_x> - q_zx) / 2 >= 0,
    a != x, as the diagonal of a block appended to the moment matrix: one
    row per cell sets its diagonal entry to the cell.  A cell of an arm
    that never takes 1 - x is 0 by the data, and is left out, since it
    would leave the program no interior point."""
    p, n, m = table.p, problem.dimension, len(problem.b)
    cells = [(z, x, sign) for z in range(2) for x in range(2) for sign in (1.0, -1.0) if p[:, 1 - x, z].any()]
    size = n + len(cells)
    C, A, b = np.zeros((size, size)), np.zeros((m + len(cells), size, size)), np.zeros(m + len(cells))
    C[:n, :n], A[:m, :n, :n], b[:m] = problem.C, problem.A, problem.b
    for k, (z, x, sign) in enumerate(cells):
        j = n - 2 + x  # the word B_x: the last two words stay whatever the pins
        A[m + k, n + k, n + k] = 1.0
        A[m + k, 0, j] = A[m + k, j, 0] = -0.25 * sign
        b[m + k] = 0.5 * (p[:, 1 - x, z].sum() - sign * (p[0, x, z] - p[1, x, z]))
    return SdpProblem(C, A, b)


def _effect_program(table: ObservedIVTable, level: NpaLevel) -> SdpProblem:
    """The upper-endpoint program of ``quantum_ace_sdp``: the moment family
    of ``table`` maximizing (<B_0> - <B_1>) / 2, with the unobserved cells
    at level 1.  A table that fails the instrumental inequality
    (``active_rows``) raises ``InfeasibleTableError``."""
    problem = moment_program(level, {((), (0,)): 0.5, ((), (1,)): -0.5}, table)
    active_rows(table)
    return _with_cells(problem, table) if level is NpaLevel.L1 else problem


def quantum_ace_sdp(table: ObservedIVTable, level: NpaLevel) -> tuple[Interval, dict]:
    """Treatment-effect bounds from the moment SDP at ``level``, with the
    solver's iterations, stop reasons and duality gaps.

    The observed table fixes the moment family (``moment_program``); the
    effect is (<B_0> - <B_1>) / 2.  At level 1 the program also carries the
    8 unobserved cells p(a, b | z, x) >= 0, a != x, as a diagonal block
    appended to the moment matrix (``_with_cells``); since C, the A_k and
    the solver's identity start are block-diagonal, so are its iterates.
    Level 1ab implies the cells, and is left as it is.  The two endpoints,
    which differ only in the sign of the objective, are one ``sdp_solve``
    each.  A table that no moment matrix fits, or that fails the
    instrumental inequality (``active_rows``), raises
    ``InfeasibleTableError`` before any solve.  When the data pin the
    effect, the two solved endpoints can cross by rounding.  A crossing
    no larger than the sum of the two certified duality gaps returns the
    midpoint as a point interval; a larger one still fails the ``Interval``
    check.  This is the engine of level 1ab and the audit of the level-1
    closed form (``gap --audit`` on a table).  An endpoint that does not
    converge raises ``SdpConvergenceError`` naming the unpinned arm with the
    least treatment mass and that mass, since an arm close to pinned is the
    usual cause.
    """
    problem = _effect_program(table, level)
    try:
        hi, lo = sdp_solve(problem), sdp_solve(SdpProblem(-problem.C, problem.A, problem.b))
    except SdpConvergenceError as exc:
        masses = table.p.sum(axis=0).min(axis=0)  # each arm's least treatment mass, 0 when pinned
        free = [z for z in range(2) if masses[z] > 0.0]
        if not free:
            raise
        z = min(free, key=masses.__getitem__)
        raise SdpConvergenceError(
            f"{exc} (arm z={z} has a treatment mass of {masses[z]:.3g}, the least of the unpinned arms)"
        ) from exc
    diagnostics = {
        "level": level.value,
        "sdp_iterations": (lo.iterations, hi.iterations),
        "sdp_termination": (lo.termination, hi.termination),
        "duality_gaps": (lo.gap, hi.gap),
    }
    lo_value, hi_value = -lo.value, hi.value
    if 0.0 < lo_value - hi_value <= lo.gap + hi.gap:
        # endpoints crossing within the certified duality gaps: the data pin
        # the effect, and each endpoint is only known to within its gap
        lo_value = hi_value = 0.5 * (lo_value + hi_value)
    return Interval(lo_value, hi_value), diagnostics


#: Relative and absolute resolution of the angle search in ``_level1_ace_bounds``.
_ANGLE_RTOL = 1e-7
_ANGLE_ATOL = 1e-12
#: Squared distance past the unit ball at which a level-1 table is still taken
#: to be inside the relaxation.
_BALL_SLACK = 1e-9
#: Smallest treatment mass of an unpinned arm that the level-1 closed form
#: resolves: its chords then stay in the normal floating-point range.
_MASS_FLOOR = 1e-250


def _chord(line: tuple, cos: float, sin: float) -> tuple[float, float, float]:
    """The chord of b_x that block x allows at the angle (cos, sin): its
    centre and half-length, and the squared distance of its line from the
    origin less 1, which is positive when the line misses the ball.

    ``line`` is (p0, q0, root0, r p1, r q1, (p0 q1 - p1 q0) / root1), where
    p_i = p(x | z_i), q_i = q_(z_i x) and root_i = sqrt(p(0 | z_i) p(1 | z_i))
    for the block's two arms, and r = root0 / root1 (see
    ``_level1_ace_bounds``).  The line is y0 + b y1 in the ball's frame, and
    its squared distance from the origin is |y0 x y1|^2 / |y1|^2; scaled by
    (root0 sin)^2, both are sums of squares of bounded terms (``num`` and
    ``den`` below), so a small root divides nothing.
    """
    p0, q0, root, p1, q1, cross = line
    k, g = p1 - cos * p0, q1 - cos * q0
    den = sin * sin * (root * root + p0 * p0) + k * k
    excess = (cross * cross + sin * sin * q0 * q0 + g * g) / den - 1.0  # num / den - 1
    return (sin * sin * p0 * q0 + g * k) / den, root * sin * math.sqrt(max(-excess, 0.0) / den), excess


def _peak_bracket(f, lo: float, hi: float) -> tuple[float, float, float]:
    """Golden-section search for the peak of a unimodal ``f`` on [lo, hi]
    (Kiefer, Proc. Amer. Math. Soc. 4, 502, 1953): the final bracket, at
    most 4 (``_ANGLE_RTOL`` |x| + ``_ANGLE_ATOL``) wide, and x, the better of
    its two interior points."""
    ratio = 0.5 * (math.sqrt(5.0) - 1.0)
    c, d = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fc, fd = f(c), f(d)
    while True:
        x = c if fc >= fd else d
        if hi - lo <= 4.0 * (_ANGLE_RTOL * abs(x) + _ANGLE_ATOL):
            return lo, hi, x
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - ratio * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + ratio * (hi - lo)
            fd = f(d)


def _nonpositive_end(g, a: float, ga: float, b: float, gb: float) -> float:
    """Where ``g``, positive at one of a and b only, crosses 0: the end at
    which it is nonpositive of the bracket that 8 steps of the Illinois
    variant of regula falsi leave (Dowell and Jarratt, BIT 11, 168, 1971)."""
    kept = 0  # the end two steps in a row keep has its value halved
    for _ in range(8):
        c = b - gb * (b - a) / (gb - ga)
        gc = g(c)
        if (gc > 0.0) == (gb > 0.0):
            b, gb, ga, kept = c, gc, ga * (0.5 if kept < 0 else 1.0), -1
        else:
            a, ga, gb, kept = c, gc, gb * (0.5 if kept > 0 else 1.0), 1
    return a if ga <= 0.0 else b


def _level1_ace_bounds(table: ObservedIVTable, rows: ActiveRows) -> Interval:
    """Level-1 effect bounds as a chordal completion, with no solver.

    The table fixes <A_z> = p(0 | z) - p(1 | z) and, for each (z, x),
    <A_z B_x> = s_x (2 q_zx - b_x), with q_zx = p(0, x | z) - p(1, x | z),
    b_x = <B_x> and s = (-1)^bit; b_0, b_1 and c = <A0 A1> stay free.  With
    c fixed, the known entries of the moment matrix form a chordal pattern
    with cliques {1, A0, A1, B_x}, so the matrix completes exactly when both
    4x4 blocks are PSD (Grone, Johnson, Sa and Wolkowicz, Linear Algebra
    Appl. 58, 109, 1984), and <B0 B1> drops out.

    As Gram vectors, A_z psi = <A_z> psi + 2 root_z xi_z with
    root_z = sqrt(p(0 | z) p(1 | z)) (1 - <A_z>^2 as a product, never by
    subtraction) and xi_z a unit vector orthogonal to psi, so
    c = <A0><A1> + 4 root_0 root_1 cos(theta) for the angle theta between
    xi_0 and xi_1.  The {1, A0, A1} block is PD exactly for theta in
    (0, pi), where (psi, xi_0, xi_1) spans an orthonormal frame; at the ends
    the frame, like any test through the block's inverse, fails.  In that
    frame block x holds exactly when (b, t_0, (t_1 - cos t_0) / sin) lies in
    the unit ball, t_z = (q_zx - p(x | z) b) / root_z being <xi_z, B_x psi>,
    so each b_x ranges over a chord (``_chord``).

    Level 1 also imposes the 8 unobserved cells
    p(a, b | z, x) = [2 p(1 - x | z) + (-1)^b 2 (b_x - q_zx)] / 4 >= 0 with
    a != x, which every quantum model obeys: they are the box
    |b_x - q_zx| <= p(1 - x | z) for both arms, the natural bounds, and each
    chord is clipped to it.  The natural Balke-Pearl rows are the sums of
    one natural bound per treatment, so their best is the effect bound of
    the box, and the relaxation contains the classical set and lies in the
    box: an endpoint whose active row (``rows``, the table's
    ``active_rows``) is natural is the ``ace_bounds`` endpoint exactly.  So
    is every endpoint of a table with an arm pinned by exact zeros
    (``_pinned_letters``): the pin fixes b_x = q_zx, a point of its box, for
    the treatment x it always takes, a free arm's 3x3 block holds every b of
    the other box, and b_0 and b_1 do not couple.

    Any other upper endpoint is half the largest of
    (b_0 + h_0) - (b_1 - h_1) over theta, with b_x and h_x a clipped chord's
    centre and half-length, and a lower one half the least of
    (b_0 - h_0) - (b_1 + h_1).  Both are concave in cos(theta) where both
    chords exist, so each is a golden-section search (``_peak_bracket``)
    inside the ends, where the frame is singular; an angle where a chord
    misses the ball scores below every other, and one where it misses its
    box between those and the feasible ones, each by how far it misses.  At
    a kink, where a quantity that the value clips or ranks by crosses 0, the
    value's error is linear in the angle's, so each kink in the final
    bracket is pinned (``_nonpositive_end``).  Each searched endpoint takes
    the best of the golden points, the brackets' ends and the kinks, and at
    one angle the upper difference is never below the lower, so the
    endpoints cannot cross.  A chord missing at every such angle by more
    than ``_BALL_SLACK`` raises ``InfeasibleTableError``; where an endpoint
    is searched, an unpinned arm with a treatment mass below ``_MASS_FLOOR``
    raises ``FloatRangeError``.
    """
    p = table.p.tolist()  # [y][x][z]
    mass = [[p[0][x][z] + p[1][x][z] for z in range(2)] for x in range(2)]
    q = [[p[0][x][z] - p[1][x][z] for z in range(2)] for x in range(2)]
    roots = [math.sqrt(mass[0][z]) * math.sqrt(mass[1][z]) for z in range(2)]
    # the free arms (a treatment mass of 0 pins an arm), the smaller root first
    arms = sorted((z for z in range(2) if min(mass[0][z], mass[1][z]) > 0.0), key=roots.__getitem__)
    classical = rows.interval
    natural = {-1.0: rows.lo_natural, 1.0: rows.hi_natural}
    if len(arms) < 2 or natural[-1.0] and natural[1.0]:
        return classical
    for z in arms:
        if min(mass[0][z], mass[1][z]) < _MASS_FLOOR:
            raise FloatRangeError(
                f"arm z={z} has a treatment mass of {min(mass[0][z], mass[1][z]):.3g}, below the range of the "
                "level-1 closed form; a mass of exactly 0 pins the arm"
            )
    lines = []
    for x in range(2):
        (p0, q0, r0), (p1, q1, r1) = ((mass[x][z], q[x][z], roots[z]) for z in arms)
        lines.append((p0, q0, r0, p1 * (r0 / r1), q1 * (r0 / r1), (p0 * q1 - p1 * q0) / r1))
    # the box |b_x - q_zx| <= p(1 - x | z) of the unobserved cells
    box = [
        (max(q[x][z] - mass[1 - x][z] for z in range(2)), min(q[x][z] + mass[1 - x][z] for z in range(2)))
        for x in range(2)
    ]

    def score(theta: float, sign: float) -> tuple:
        """The rank and value of sign (b_0 - b_1) at theta over the chords,
        each clipped to its box, the excess past the ball, and the kinks'
        four quantities (how far each chord end the value takes passes its
        box, how far the worse chord misses its box, and the excess)."""
        cos, sin = math.cos(theta), math.sin(theta)
        (c0, h0, e0), (c1, h1, e1) = (_chord(line, cos, sin) for line in lines)
        (low0, high0), (low1, high1) = box
        # the value takes the upper end of b_0 and the lower one of b_1, or the reverse
        over = (c0 + h0 - high0, low1 - c1 + h1) if sign > 0.0 else (low0 - c0 + h0, c1 + h1 - high1)
        value = sign * (c0 - c1) + h0 + h1 - (max(over[0], 0.0) + max(over[1], 0.0))
        miss = max(c0 - h0 - high0, low0 - c0 - h0, c1 - h1 - high1, low1 - c1 - h1)
        excess = max(e0, e1)
        # a feasible value is at least -2, since |b_x| <= 1 on a chord; a
        # chord that misses its box by m <= 2 ranks between, at -2 - m / 2
        rank = -3.0 - excess if excess > 0.0 else -2.0 - 0.5 * miss if miss > 0.0 else value
        return rank, value, excess, (*over, miss, excess)

    # theta = 0 and pi leave the frame singular, and a chord undefined
    angles = []
    for sign in (s for s in (1.0, -1.0) if not natural[s]):
        lo, hi, best = _peak_bracket(lambda t: score(t, sign)[0], _ANGLE_ATOL, math.pi - _ANGLE_ATOL)
        angles += [best, lo, hi]
        kinks_lo, kinks_hi = score(lo, sign)[3], score(hi, sign)[3]
        for k, (g_lo, g_hi) in enumerate(zip(kinks_lo, kinks_hi)):
            if (g_lo > 0.0) != (g_hi > 0.0):
                angles.append(_nonpositive_end(lambda t: score(t, sign)[3][k], lo, g_lo, hi, g_hi))
    ends = []
    for sign in (-1.0, 1.0):
        if natural[sign]:
            ends.append(classical.hi if sign > 0.0 else classical.lo)
            continue
        _, value, excess, _ = max((score(t, sign) for t in angles), key=lambda terms: terms[0])
        if excess > _BALL_SLACK:
            raise InfeasibleTableError(
                f"the table lies outside the level-1 quantum relaxation (by {excess:.3g} past the unit ball)"
            )
        ends.append(0.5 * sign * value)
    return Interval(*ends)


def quantum_ace_bounds(
    table: ObservedIVTable, level: NpaLevel = NpaLevel.L1, rows: ActiveRows | None = None
) -> tuple[Interval, dict]:
    """Treatment-effect bounds when the latent confounder may be quantum.

    The effect is (<B_0> - <B_1>) / 2 over the moment relaxation the table
    fixes.  This is an outer relaxation, so the interval contains the
    classical LP interval.  Level 1 is a chordal matrix completion answered
    with no solver (``_level1_ace_bounds``), and its diagnostics are
    ``{"engine": "closed-form", "level": "1"}``.  It imposes the 8
    unobserved cells p(a, b | z, x) >= 0, a != x: the interval lies in the
    box of the natural bounds, an endpoint whose active Balke-Pearl row is
    natural is the ``ace_bounds`` endpoint, and only the others are
    searched.  ``rows`` are the table's ``active_rows`` at the default
    tolerance or a stricter one, when the caller has them, and are computed
    here otherwise.  Level 1ab is the moment SDP (``quantum_ace_sdp``), and
    its diagnostics hold the two endpoint solves' iterations, stop reasons
    and duality gaps.  Both levels refuse a table that fails the
    instrumental inequality at the default tolerance.
    """
    if level is NpaLevel.L1:
        interval = _level1_ace_bounds(table, rows or active_rows(table))
        return interval, {"engine": "closed-form", "level": level.value}
    return quantum_ace_sdp(table, level)


@dataclass(frozen=True, eq=False)
class GapReport:
    """Classical / quantum / no-signaling values of one analysis, with the
    quantum-minus-classical gap."""

    kind: str
    classical: float | Interval
    quantum: float | Interval
    nosignaling: float | Interval
    gap: float
    level: NpaLevel
    notes: tuple
    diagnostics: dict


def quantum_gap_report(
    subject,
    level: NpaLevel = NpaLevel.L1,
    tol: float = TOL,
) -> GapReport:
    """Three-layer report for a correlation functional, a behavior, or an
    observed instrumental table.

    For a functional the triple is (best of the 16 strategies,
    ``tsirelson_bound``, sum |f| over the no-signaling polytope); the
    canonical CHSH coefficients give (2, 2*sqrt(2), 4).  A behavior is
    scored on its most-violated CHSH facet the same way.  Both routes are
    closed forms (``diagnostics["engine"]``), and ``level`` is only echoed:
    the two relaxation levels are equal on correlator functionals.  An
    entry past the float range raises ``FloatRangeError``.  An instrumental
    table is bounded at ``level`` by ``quantum_ace_bounds``: at level 1 by a
    closed-form completion (``diagnostics`` ``{"engine": "closed-form",
    "level": "1"}``), at 1ab by the moment SDP, whose diagnostics hold the
    solver's iterations, stop reasons and duality gaps.  The table's 8
    Balke-Pearl rows are evaluated once (``active_rows``), for the classical
    interval and the level-1 row rule.  ``tol`` is the LP feasibility
    threshold of a table's classical interval, and the margin past the
    quantum value at which a behavior is flagged super-quantum; the quantum
    interval refuses a table at the default tolerance, whatever ``tol``.
    """
    notes: list[str] = []
    diagnostics: dict = {}

    if isinstance(subject, ObservedIVTable):
        rows = active_rows(subject, tol)
        classical = rows.interval
        # the quantum side refuses a table that fails the instrumental
        # inequality at the default tolerance; rows at a looser one may not
        quantum, diag = quantum_ace_bounds(subject, level, rows if tol <= TOL else None)
        diagnostics.update(diag)
        p = subject.p.tolist()  # [y][x][z]
        # the observational joint under a uniform instrument; each sum starts at +0.0, as a numpy mean's does
        p_yx = [[(0.0 + p[y][x][0] + p[y][x][1]) / 2 for x in range(2)] for y in range(2)]
        mass = [p_yx[0][x] + p_yx[1][x] for x in range(2)]  # a conditional mean over its own mass stays in [0, 1]
        px1 = mass[1] / (mass[0] + mass[1])
        e1 = p_yx[1][1] / mass[1] if px1 > 0 else 0.0
        e0 = p_yx[1][0] / mass[0] if px1 < 1 else 0.0
        if px1 in (0.0, 1.0):
            notes.append("degenerate treatment arm; its conditional mean was set to 0")
        nosignaling = manski_bounds(e1, e0, px1)
        notes.append("observational joint for the no-assumption interval mixes the instrument uniformly")
        notes.append("gap is the quantum-minus-classical width difference")
        gap = quantum.width - classical.width
        return GapReport("iv-table", classical, quantum, nosignaling, float(gap), level, tuple(notes), diagnostics)

    diagnostics["engine"] = "closed-form"
    if isinstance(subject, Behavior):
        variants = chsh_variant_values(behavior_to_correlations(subject))
        k = int(np.argmax(variants))
        functional = CHSH_VARIANTS[k]
        classical = float(variants[k])
        quantum = tsirelson_bound(functional)
        nosignaling = no_signaling_max(functional)
        diagnostics["facet_index"] = k
        notes.append("classical entry is the behavior's most-violated facet value")
        if classical > quantum + tol:
            notes.append("behavior exceeds the relaxation bound: super-quantum correlations")
        return GapReport(
            "behavior", classical, quantum, float(nosignaling), quantum - classical,
            level, tuple(notes), diagnostics,
        )

    functional = correlator_functional(subject)
    classical = _in_range("classical", local_max(functional))
    quantum = tsirelson_bound(functional)
    nosignaling = _in_range("no-signaling", no_signaling_max(functional))
    return GapReport(
        "functional", classical, quantum, nosignaling, quantum - classical, level, tuple(notes), diagnostics,
    )
