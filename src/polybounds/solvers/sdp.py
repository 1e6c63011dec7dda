"""Primal-dual path-following solver for small dense semidefinite programs.

A problem is three frozen arrays, ``SdpProblem(C, A, b)``: the n x n
objective C, the (m, n, n) stack A of constraint matrices and the m
right-hand sides b, as SDPT3 takes them.  The solver takes
max <C, X>  subject to  <A_k, X> = b_k,  X >= 0 (PSD)  with the
infeasible-start Nesterov-Todd symmetrized Newton direction and Mehrotra's
predictor-corrector: the centering weight (mu_aff / mu)^3 and the
second-order correction (Mehrotra, SIAM J. Optim. 2, 575, 1992; for the NT
direction, Todd, Toh and Tutuncu, SIAM J. Optim. 8, 769, 1998).  Matrices
here never exceed ~32x32, so all linear algebra is dense eigendecomposition
plus a solve of the m x m Schur complement, regularized by 1e-14 of its
largest diagonal entry and followed by one step of iterative refinement
against the exact matrix.

One ``sdp_solve`` call runs one problem.  At this size an iteration costs
numpy call overhead, not arithmetic, so each step shares what it can.  One
``eigh`` of the pair [X; Z] is both the PD guard of a step and, at the
next iteration, the source of the square roots of X and Z; one more
``eigh`` gives the NT scaling point, one ``eigvalsh`` the step lengths of
each trial direction, and the Schur complement <A_k, W A_l W> comes from
one batched product.  The direction is affine in the centering target
mu_t, D0 + D2 + mu_t D1, so every corrector, escalated or not, costs no
solve.  D0 (affine scaling) and D1 (centering) come from one solve with
two right-hand sides; the predictor D0 gives the centering weight and the
second-order column D2.  D2 answers the product of the predictor's
directions, scaled by the NT point so that X and Z are both diag(d); there
its Lyapunov equation is solved elementwise.  The column is weighted by
the predictor's step lengths alpha_p alpha_d, since on a problem without
an interior point the unweighted term overflows.  So an iteration takes
two solves, each an LU ``solve`` of the regularized M, which dependent
constraint rows leave nonsingular, and its refinement step.  M is never
inverted: an explicit inverse sends level-1ab instrumental endpoints to
the iteration cap.

The dual is  min b'y  subject to  Z = sum_k y_k A_k - C >= 0,  and the
reported ``gap`` is |primal - dual| on the returned iterates, the quantity
callers verify independently.

Stopping rules, after SDPT3 (Toh, Todd and Tutuncu 1999).  With the merit
rel_gap + rp_rel + rd_rel, where rel_gap = gap / (1 + |pobj| + |dobj|) and
rp_rel, rd_rel are the primal and dual residual norms relative to
1 + ||b|| and 1 + ||C||, the loop ends

* ``"converged"``: rel_gap <= ``GAP_TARGET`` and both residuals
  <= 1e-10 (or complementarity has vanished on a primal-feasible iterate);
* ``"stalled"``: the best merit has not strictly improved for 10 iterations
  and the best iterate has rel_gap <= ``GAP_TARGET`` and both
  residuals <= 1e-9 (degenerate optima hold the primal residual near 2e-10);
* ``"iteration_limit"``: ``MAX_ITERATIONS`` iterations ran.

In every case the best-merit iterate is returned, as ``SdpResult`` with the
reason in ``termination``, provided it passes ``GAP_ACCEPT`` and
``FEASIBILITY_ACCEPT``; otherwise ``SdpConvergenceError`` is raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatchError, SdpConvergenceError, ValidationError

GAP_TARGET = 1e-9  # relative gap at which the loop may stop
GAP_ACCEPT = 1e-6  # relative gap a returned iterate must meet
FEASIBILITY_ACCEPT = 1e-7  # relative residuals a returned iterate must meet
MAX_ITERATIONS = 200
STEP_FRACTION = 0.98  # share of the distance to the PSD boundary taken per step

# Stall stop: the best merit has not strictly improved for this many
# iterations while the best iterate already meets the gap target and has
# both residuals at or below _STALL_RESIDUAL.  A window of 5 stops the
# 32x32 size-ceiling instance before its absolute residual reaches 1e-7.
_STALL_WINDOW = 10
_STALL_RESIDUAL = 1e-9


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """max tr(C X) subject to tr(A[k] X) = b[k] for k < m, X PSD.

    C is a symmetric n x n objective, A a stack (m, n, n) of m >= 1
    symmetric constraint matrices and b the m right-hand sides.  The
    constructor copies all three, symmetrizes C and A and freezes them; a
    shape that does not fit raises ``DimensionMismatchError``, and no
    constraint or an asymmetric matrix raises ``ValidationError``."""

    C: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        C, A, b = (np.array(v, dtype=float) for v in (self.C, self.A, self.b))
        if C.ndim != 2 or C.shape[0] != C.shape[1]:
            raise DimensionMismatchError(f"objective must be square, got shape {C.shape}")
        if b.ndim != 1 or A.shape != (b.size, *C.shape):
            raise DimensionMismatchError(
                f"constraint matrices {A.shape} and right-hand sides {b.shape} do not fit a {C.shape} objective"
            )
        if not b.size:
            raise ValidationError("SDP needs at least one equality constraint")
        if max(np.abs(C - C.T).max(), np.abs(A - A.swapaxes(1, 2)).max()) > 1e-10:
            raise ValidationError("objective and constraint matrices must be symmetric")
        for name, v in (("C", _sym(C)), ("A", _sym(A)), ("b", b)):
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    @property
    def dimension(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True, eq=False)
class SdpResult:
    value: float
    X: np.ndarray
    y: np.ndarray
    Z: np.ndarray
    dual_value: float
    gap: float
    primal_residual: float
    dual_residual: float
    iterations: int
    termination: str  # "converged", "stalled" or "iteration_limit"


def _sym(S: np.ndarray) -> np.ndarray:
    return 0.5 * (S + S.swapaxes(-1, -2))


def _dot(U: np.ndarray, V: np.ndarray) -> float:
    """<U, V> for two n x n matrices."""
    return float(np.einsum("ij,ij->", U, V))


def _floored(w: np.ndarray) -> np.ndarray:
    """Eigenvalues along the last axis, floored at 1e-15 of max(1, the
    largest), with a broadcast axis before it."""
    return np.maximum(w, np.maximum(w.max(axis=-1, keepdims=True), 1.0) * 1e-15)[..., None, :]


def _step_lengths(inv_half: np.ndarray, dS: np.ndarray) -> list:
    """min(1, STEP_FRACTION alpha) for X and Z, alpha the largest step with
    S + alpha dS still PSD, given the pair dS = [dX; dZ] and inv_half =
    [X^-1/2; Z^-1/2] (X and Z PD)."""
    lam = np.linalg.eigvalsh(_sym(inv_half @ dS @ inv_half)).min(axis=1)
    return np.where(lam >= -1e-14, 1.0, np.minimum(1.0, STEP_FRACTION / -np.minimum(lam, -1e-14))).tolist()


def _direction(D: tuple, mu_target: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Newton direction (dX, dy, dZ) for the centering target
    mu_target, from its affine parts D = (DX, Dy, DZ)."""
    DX, Dy, DZ = D
    return DX[0] + mu_target * DX[1], Dy[:, 0] + mu_target * Dy[:, 1], DZ[0] + mu_target * DZ[1]


def sdp_solve(problem: SdpProblem) -> SdpResult:
    """Solve one small dense SDP from the identity-based infeasible start."""
    n, m = problem.dimension, problem.b.size
    A2 = problem.A.reshape(m, n * n)
    b = problem.b
    C0 = -problem.C  # interior-point core minimizes
    with np.errstate(over="ignore"):
        norm_b = 1.0 + float(np.linalg.norm(b))
        norm_c = 1.0 + float(np.linalg.norm(C0))
    if not (np.isfinite(norm_b) and np.isfinite(norm_c)):
        raise SdpConvergenceError("objective or right-hand side has a non-finite norm; rescale the problem")

    def Aop(M: np.ndarray) -> np.ndarray:
        return A2 @ M.reshape(n * n)

    X = np.eye(n) * max(1.0, float(np.abs(b).max()))
    Z = np.eye(n) * max(1.0, float(np.linalg.norm(C0)) / np.sqrt(n))
    y = np.zeros(m)
    mu0 = _dot(X, Z) / n
    infeas0 = max(float(np.linalg.norm(b - Aop(X))) / norm_b, float(np.linalg.norm(C0 - Z)) / norm_c, 1e-12)
    # eigendecomposition of the pair [X; Z]; after the first iteration it is
    # the PD guard's, of the iterate the guard accepted
    w_xz, Q_xz = np.linalg.eigh(np.stack([X, Z]))

    # the best-merit iterate (merit, X, y, Z, pobj, dobj, gap, rp_rel,
    # rd_rel), when it was found, and whether it would be good enough to stop
    # on a stall
    best, best_at, best_stalls = None, 0, False
    termination, iterations = "iteration_limit", MAX_ITERATIONS
    for it in range(1, MAX_ITERATIONS + 1):
        xz = _dot(X, Z)
        mu = xz / n
        rp = b - Aop(X)
        Rd = C0 - Z - (y @ A2).reshape(n, n)
        pobj = _dot(C0, X)
        dobj = float((b * y).sum())
        gap = abs(pobj - dobj)
        rel_gap = gap / (1.0 + abs(pobj) + abs(dobj))
        rp_rel = float(np.linalg.norm(rp)) / norm_b
        rd_rel = float(np.linalg.norm(Rd)) / norm_c

        merit = rel_gap + rp_rel + rd_rel
        if best is None or merit < best[0]:
            best, best_at = (merit, X, y, Z, pobj, dobj, gap, rp_rel, rd_rel), it
            best_stalls = rel_gap <= GAP_TARGET and rp_rel <= _STALL_RESIDUAL and rd_rel <= _STALL_RESIDUAL
        if rp_rel <= 1e-10 and ((rel_gap <= GAP_TARGET and rd_rel <= 1e-10) or mu < 1e-16):
            termination, iterations = "converged", it
            break
        if best_stalls and it - best_at >= _STALL_WINDOW:
            termination, iterations = "stalled", it
            break

        # Nesterov-Todd scaling point W = G G' with W Z W = X.  The
        # eigendecomposition of [X; Z] gives X^-1/2 and Z^-1/2 (for the step
        # lengths), Z^1/2 and Z^-1; one of Z^1/2 X Z^1/2 = R diag(d)^2 R'
        # gives G = Z^-1/2 R diag(d)^1/2, which scales both X and Z to diag(d)
        w = _floored(w_xz)
        sq = np.sqrt(w)
        inv_half = (Q_xz / sq) @ Q_xz.swapaxes(1, 2)
        Qz = Q_xz[1]
        Zh, Zih, Zinv = (Qz * sq[1]) @ Qz.T, inv_half[1], (Qz / w[1]) @ Qz.T
        w_nt, R = np.linalg.eigh(_sym(Zh @ X @ Zh))
        d = np.sqrt(_floored(w_nt))
        root_d = np.sqrt(d)
        G = Zih @ (R * root_d)
        W = _sym(G @ G.T)

        # Schur complement M_kl = <A_k, W A_l W>, from one batched product
        WAW = W @ problem.A @ W
        M = _sym(A2 @ WAW.reshape(m, n * n).T)
        M_reg = M + np.eye(m) * (max(float(M.diagonal().max()), 1.0) * 1e-14)

        def schur_solve(rhs: np.ndarray) -> np.ndarray:
            dy = np.linalg.solve(M_reg, rhs)
            return dy + np.linalg.solve(M_reg, rhs - M @ dy)  # one refinement step undoes the regularization's bias

        # The Newton direction is affine in the centering target mu_t: with
        # E = mu_t Z^-1 - X it is D0 + mu_t D1, D0 the affine-scaling part and
        # D1 the centering part, both from one solve with two right-hand sides
        E = np.stack([-X, Zinv])
        Dy = schur_solve(np.stack([rp + Aop(X + W @ Rd @ W), -Aop(Zinv)], axis=1))  # (m, 2)
        DZ = _sym(np.stack([Rd, np.zeros_like(Rd)]) - (Dy.T @ A2).reshape(2, n, n))
        DX = _sym(E - W @ DZ @ W)

        def steps(dX: np.ndarray, dZ: np.ndarray) -> list:
            return _step_lengths(inv_half, np.stack([dX, dZ]))

        def mu_after(dX: np.ndarray, dZ: np.ndarray):
            """mu at (X + ap dX, Z + ad dZ), as a bilinear form in the step lengths."""
            terms = (xz, _dot(dX, Z), _dot(X, dZ), _dot(dX, dZ))
            return lambda ap, ad: (terms[0] + ap * terms[1] + ad * terms[2] + ap * ad * terms[3]) / n

        # predictor to pick the centering weight
        dXa, _, dZa = _direction((DX, Dy, DZ), 0.0)
        ap, ad = steps(dXa, dZa)
        sigma = min(0.999, max(1e-6, (max(mu_after(dXa, dZa)(ap, ad), 0.0) / mu) ** 3))
        infeasible = max(rp_rel, rd_rel) > 1e-12
        if infeasible:
            sigma = max(sigma, 0.05)

        # Mehrotra's second-order correction, folded into D0: the direction
        # D2 for E2 = G U G', where U solves the scaled Lyapunov equation
        # diag(d) U + U diag(d) = -2 sym(dXa~ dZa~) elementwise, with the
        # scaled product dXa~ dZa~ = G^-1 dXa dZa G and G^-1 =
        # diag(d)^-1/2 R' Z^1/2.  The term is weighted by the predictor's step
        # lengths ap ad, so it fades where the predictor barely moves (an
        # infeasible problem's term overflows otherwise).
        P = (R / root_d).T @ Zh @ dXa @ dZa @ G
        U = -(P + P.T) / (d + d.T) * (ap * ad)
        E2 = G @ U @ G.T
        Dy2 = schur_solve(-Aop(E2)[:, None])[:, 0]
        DZ2 = _sym(-(Dy2 @ A2).reshape(n, n))
        DX[0] += _sym(E2 - W @ DZ2 @ W)
        Dy[:, 0] += Dy2
        DZ[0] += DZ2

        # Step selection.  The neighborhood guard keeps complementarity
        # positive and synchronized with infeasibility (otherwise the iterate
        # strands on the PSD boundary while still infeasible); backtracking
        # restores it because alpha -> 0 reproduces the current
        # in-neighborhood iterate.  If the guard forces the step to collapse,
        # the direction itself is too aggressive: escalate the centering
        # weight and recompute.
        beta = 100.0
        chosen = None  # (min(ap, ad), ap, ad, mu target) of the best step
        for _ in range(5):
            target = sigma * mu
            dX, dy, dZ = _direction((DX, Dy, DZ), target)
            ap, ad = steps(dX, dZ)
            mu_step = mu_after(dX, dZ)
            for _ in range(40):
                mu_new = mu_step(ap, ad)
                infeas_new = max((1.0 - ap) * rp_rel, (1.0 - ad) * rd_rel)
                ok_mu = mu_new >= 0.02 * sigma * mu
                ok_nbhd = not infeasible or infeas_new / infeas0 <= beta * max(mu_new, 0.0) / mu0
                if ok_mu and ok_nbhd:
                    break
                ap *= 0.7
                ad *= 0.7
            if chosen is None or min(ap, ad) > chosen[0]:
                chosen = (min(ap, ad), ap, ad, target)
            if not (infeasible and min(ap, ad) < 0.05):
                break
            sigma = min(0.95, max(3.0 * sigma, 0.3))
        _, ap, ad, best_target = chosen
        if best_target != target:
            dX, dy, dZ = _direction((DX, Dy, DZ), best_target)

        # Keep the iterates safely positive definite.  dX and dZ are exactly
        # symmetric, so the new X and Z are too, and the guard's
        # eigendecomposition is the next iteration's.
        for _ in range(30):
            X_new = X + ap * dX
            Z_new = Z + ad * dZ
            w_xz, Q_xz = np.linalg.eigh(np.stack([X_new, Z_new]))
            pd_x, pd_z = (w_xz.min(axis=1) > 0).tolist()
            if pd_x and pd_z:
                break
            ap, ad = ap if pd_x else 0.5 * ap, ad if pd_z else 0.5 * ad
        X, Z = X_new, Z_new
        y = y + ad * dy

    _, X, y, Z, pobj, dobj, gap, rp_rel, rd_rel = best
    rel_gap = gap / (1.0 + abs(pobj) + abs(dobj))
    if not (rel_gap <= GAP_ACCEPT and rp_rel <= FEASIBILITY_ACCEPT and rd_rel <= FEASIBILITY_ACCEPT):
        raise SdpConvergenceError(
            f"no convergence in {iterations} iterations "
            f"(gap {gap:.2e}, primal residual {rp_rel:.2e}, dual residual {rd_rel:.2e}); "
            "the instance is ill-conditioned or lacks an interior point"
        )
    return SdpResult(-pobj, X, -y, Z, -dobj, gap, rp_rel, rd_rel, iterations, termination)
