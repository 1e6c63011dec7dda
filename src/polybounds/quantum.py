"""Two-qubit simulator and moment-matrix relaxations of the quantum set.

The simulator produces exact behaviors from a density matrix and four
sign-valued observables; eigenprojectors of 2x2 observables come from the
closed form (I +- O) / 2, so no eigensolver is involved.

The relaxation side builds moment matrices over operator words in the
+-1-observable formulation.  Level ``L1`` uses words {1, A0, A1, B0, B1}
(5x5); ``L1AB`` adds the four cross products (9x9).  Entries are
identified whenever two word products reduce to the same monomial under
O^2 = I and cross-party commutation, the diagonal is pinned to 1, and the
resulting SDP is solved by the interior-point engine from an exactly
feasible identity start.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .causal import RESPONSE_MATRIX, ace_bounds, manski_bounds
from .errors import InfeasibleTableError, ValidationError
from .model import (
    Behavior,
    CorrelationTable,
    Interval,
    ObservedIVTable,
    behavior_to_correlations,
    chsh_variant_values,
    CHSH_VARIANTS,
)
from .oracles import oracle_vertex_average
from .polytope import STRATEGY_SIGNS, local_max, no_signaling_max
from .solvers import TOL, SdpProblem, sdp_solve

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """Density matrix of two qubits: 4x4 Hermitian, PSD, unit trace."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.array(self.rho, dtype=complex)
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
        v = np.asarray(ket, dtype=complex).reshape(4)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValidationError("state vector must be nonzero")
        v = v / norm
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
        return cls(np.cos(theta) * PAULI_Z + np.sin(theta) * PAULI_X)

    @classmethod
    def from_bloch(cls, n) -> "DichotomicObservable":
        v = np.asarray(n, dtype=float).reshape(3)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValidationError("Bloch vector must be nonzero")
        v = v / norm
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
    """A0 (x) (B0 + B1) + A1 (x) (B0 - B1) on the two-qubit space."""
    return np.kron(a0.m, b0.m + b1.m) + np.kron(a1.m, b0.m - b1.m)


class NoncommutativityWitness(NamedTuple):
    comm_a: float
    comm_b: float
    achievable_chsh: float


def noncommutativity_witness(
    a0: DichotomicObservable,
    a1: DichotomicObservable,
    b0: DichotomicObservable,
    b1: DichotomicObservable,
) -> NoncommutativityWitness:
    """Commutator norms of each party's pair and the best CHSH value any
    state can reach with these fixed observables (the top eigenvalue of
    the CHSH operator).  Either commutator vanishing caps the value at 2."""
    comm_a = float(np.linalg.norm(a0.m @ a1.m - a1.m @ a0.m, 2))
    comm_b = float(np.linalg.norm(b0.m @ b1.m - b1.m @ b0.m, 2))
    top = float(np.linalg.eigvalsh(chsh_operator(a0, a1, b0, b1)).max())
    return NoncommutativityWitness(comm_a, comm_b, top)


class NpaLevel(enum.Enum):
    L1 = "1"
    L1AB = "1ab"

    @classmethod
    def parse(cls, text: str) -> "NpaLevel":
        for level in cls:
            if level.value == str(text).lower():
                return level
        raise ValidationError(f"unknown relaxation level {text!r}; use '1' or '1ab'")


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


def _sym_unit(n: int, i: int, j: int) -> np.ndarray:
    E = np.zeros((n, n))
    if i == j:
        E[i, i] = 1.0
    else:
        E[i, j] = E[j, i] = 0.5
    return E


def _entry(positions: dict, level: NpaLevel, monomial: Word) -> tuple[int, int]:
    key = _canonical(monomial)
    if key not in positions:
        raise ValidationError(f"monomial {monomial!r} does not appear at level {level.value}")
    return positions[key][0]


@dataclass(frozen=True, eq=False)
class MomentProgram:
    """A moment-matrix SDP instance: the word index, the equality
    constraints encoding the operator algebra (and any data), and the
    objective."""

    level: NpaLevel
    words: tuple
    positions: dict
    problem: SdpProblem

    @property
    def dimension(self) -> int:
        return len(self.words)

    def entry(self, monomial: Word) -> tuple[int, int]:
        """Representative matrix position whose value is the monomial's moment."""
        return _entry(self.positions, self.level, monomial)


def _moment_skeleton(level: NpaLevel):
    words = _words(level)
    n = len(words)
    positions: dict[Word, list[tuple[int, int]]] = {}
    for i in range(n):
        for j in range(i, n):
            key = _canonical(_entry_monomial(words[i], words[j]))
            positions.setdefault(key, []).append((i, j))
    constraints: list[tuple[np.ndarray, float]] = []
    for i in range(n):
        constraints.append((_sym_unit(n, i, i), 1.0))
    for key, spots in positions.items():
        if key == ((), ()):
            continue
        rep = spots[0]
        for other in spots[1:]:
            constraints.append(
                (_sym_unit(n, *other) - _sym_unit(n, *rep), 0.0)
            )
    return words, positions, constraints


def moment_program(
    level: NpaLevel,
    objective: dict,
    extra_constraints=(),
) -> MomentProgram:
    """Assemble a moment-matrix SDP.

    ``objective`` maps monomials (pairs of letter tuples) to coefficients;
    ``extra_constraints`` is a sequence of (monomial-coefficient dict,
    right-hand side) rows, with the empty monomial allowed as an affine
    offset.
    """
    words, positions, constraints = _moment_skeleton(level)
    n = len(words)

    C = np.zeros((n, n))
    for mono, coeff in objective.items():
        i, j = _entry(positions, level, mono)
        C += float(coeff) * _sym_unit(n, i, j)

    all_constraints = list(constraints)
    for coeffs, rhs in extra_constraints:
        A = np.zeros((n, n))
        for mono, coeff in coeffs.items():
            i, j = _entry(positions, level, mono)
            A += float(coeff) * _sym_unit(n, i, j)
        all_constraints.append((A, float(rhs)))

    problem = SdpProblem(C=C, constraints=tuple(all_constraints))
    return MomentProgram(level=level, words=words, positions=dict(positions), problem=problem)


def _correlator_objective(functional) -> dict:
    f = functional.e if isinstance(functional, CorrelationTable) else np.asarray(functional, dtype=float)
    if f.shape != (2, 2):
        raise ValidationError("functional must be a 2x2 coefficient array")
    return {((x,), (y,)): float(f[x, y]) for x in range(2) for y in range(2)}


def npa_bound(level: NpaLevel, functional, return_result: bool = False):
    """Relaxation maximum of a correlation functional over the moment cone.

    Monotone in the level: the 9x9 word set contains the 5x5 one, so the
    bound can only shrink.
    """
    program = moment_program(level, _correlator_objective(functional))
    result = sdp_solve(program.problem, start=np.eye(program.dimension))
    if return_result:
        return result.value, result
    return result.value


def _iv_data_constraints(table: ObservedIVTable) -> list:
    """Moment-entry equalities pinning the observed table.

    p(y, x | z) = [1 + (-1)^x <A_z> + (-1)^y <B_x> + (-1)^(x+y) <A_z B_x>] / 4
    with the treatment-side word A_z chosen by the instrument and the
    outcome-side word B_x chosen by the realized treatment (the standard
    quantum reading of the instrumental structure).  One cell per arm is
    dropped as redundant with normalization.
    """
    rows = []
    for z in range(2):
        for x in range(2):
            for y in range(2):
                if (x, y) == (1, 1):
                    continue
                sx = (-1.0) ** x
                sy = (-1.0) ** y
                coeffs = {
                    ((), ()): 0.25,
                    ((z,), ()): 0.25 * sx,
                    ((), (x,)): 0.25 * sy,
                    ((z,), (x,)): 0.25 * sx * sy,
                }
                rows.append((coeffs, float(table.p[y, x, z])))
    return rows


def _classical_moment_start(table: ObservedIVTable, level: NpaLevel) -> np.ndarray | None:
    """Strictly feasible start from a relative-interior classical model, when
    the table is classically compatible and the resulting matrix is PD."""
    try:
        q = oracle_vertex_average(RESPONSE_MATRIX, table.flat())
    except InfeasibleTableError:
        return None
    # V[s, i]: value of word i on strategy s (response type s), a product of signs
    columns = [list(a) + [2 + y for y in b] for a, b in _words(level)]
    V = np.stack([STRATEGY_SIGNS[:, c].prod(axis=1) for c in columns], axis=1)
    gamma = V.T @ (q[:, None] * V)
    if np.linalg.eigvalsh(gamma).min() <= 1e-8:
        return None
    return gamma


def quantum_ace_bounds(table: ObservedIVTable, level: NpaLevel = NpaLevel.L1) -> tuple[Interval, dict]:
    """Treatment-effect bounds when the latent confounder may be quantum.

    The observed table enters as affine constraints on moment-matrix
    entries; the effect is (<B_0> - <B_1>) / 2.  This is an outer
    relaxation, so the interval contains the classical LP interval.

    When the data pin the effect, the two solved endpoints can cross by
    rounding.  A crossing no larger than the sum of the two certified
    duality gaps returns the midpoint as a point interval; a larger one
    still fails the ``Interval`` check.
    """
    data = _iv_data_constraints(table)
    start = _classical_moment_start(table, level)
    objective = {((), (0,)): 0.5, ((), (1,)): -0.5}
    diagnostics: dict = {"level": level.value, "classical_start": start is not None}

    hi_prog = moment_program(level, objective, data)
    hi = sdp_solve(hi_prog.problem, start=start)
    lo_prog = moment_program(level, {k: -v for k, v in objective.items()}, data)
    lo = sdp_solve(lo_prog.problem, start=start)
    diagnostics["sdp_iterations"] = (lo.iterations, hi.iterations)
    diagnostics["sdp_termination"] = (lo.termination, hi.termination)
    diagnostics["duality_gaps"] = (lo.gap, hi.gap)
    lo_value, hi_value = -lo.value, hi.value
    if 0.0 < lo_value - hi_value <= lo.gap + hi.gap:
        # endpoints crossing within the certified duality gaps: the data pin
        # the effect, and each endpoint is only known to within its gap
        lo_value = hi_value = 0.5 * (lo_value + hi_value)
    return Interval(lo_value, hi_value), diagnostics


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

    For a functional the triple is (best of the 16 strategies, relaxation
    bound, sum |f| over the no-signaling polytope); the canonical CHSH
    coefficients give (2, 2*sqrt(2), 4).  ``tol`` is the LP feasibility
    threshold of a table's classical interval.
    """
    notes: list[str] = []
    diagnostics: dict = {}

    if isinstance(subject, ObservedIVTable):
        classical = ace_bounds(subject, tol)
        quantum, diag = quantum_ace_bounds(subject, level)
        diagnostics.update(diag)
        p_yx = subject.p.mean(axis=2)  # observational joint under a uniform instrument
        px1 = float(p_yx[:, 1].sum())
        e1 = float(p_yx[1, 1] / px1) if px1 > 0 else 0.0
        e0 = float(p_yx[1, 0] / (1.0 - px1)) if px1 < 1 else 0.0
        if px1 in (0.0, 1.0):
            notes.append("degenerate treatment arm; its conditional mean was set to 0")
        nosignaling = manski_bounds(e1, e0, px1)
        notes.append("observational joint for the no-assumption interval mixes the instrument uniformly")
        notes.append("gap is the quantum-minus-classical width difference")
        gap = quantum.width - classical.width
        return GapReport("iv-table", classical, quantum, nosignaling, float(gap), level, tuple(notes), diagnostics)

    if isinstance(subject, Behavior):
        variants = chsh_variant_values(behavior_to_correlations(subject))
        k = int(np.argmax(variants))
        functional = CHSH_VARIANTS[k]
        classical = float(variants[k])
        quantum, result = npa_bound(level, functional, return_result=True)
        nosignaling = no_signaling_max(functional)
        diagnostics.update(
            {
                "facet_index": k,
                "sdp_iterations": result.iterations,
                "sdp_termination": result.termination,
                "duality_gap": result.gap,
            }
        )
        notes.append("classical entry is the behavior's most-violated facet value")
        if classical > quantum + 1e-9:
            notes.append("behavior exceeds the relaxation bound: super-quantum correlations")
        return GapReport(
            "behavior", classical, float(quantum), float(nosignaling), float(quantum - classical),
            level, tuple(notes), diagnostics,
        )

    functional = subject.e if isinstance(subject, CorrelationTable) else np.asarray(subject, dtype=float)
    if functional.shape != (2, 2):
        raise ValidationError("gap report takes a 2x2 functional, a Behavior, or an ObservedIVTable")
    classical = local_max(functional)
    quantum, result = npa_bound(level, functional, return_result=True)
    nosignaling = no_signaling_max(functional)
    diagnostics.update(
        {"sdp_iterations": result.iterations, "sdp_termination": result.termination, "duality_gap": result.gap}
    )
    return GapReport(
        "functional", float(classical), float(quantum), float(nosignaling),
        float(quantum - classical), level, tuple(notes), diagnostics,
    )
