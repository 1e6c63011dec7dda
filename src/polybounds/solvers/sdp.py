"""Primal-dual path-following solver for small dense semidefinite programs.

Solves  max <C, X>  subject to  <A_k, X> = b_k,  X >= 0 (PSD)  with the
infeasible-start Nesterov-Todd symmetrized Newton direction and Mehrotra
predictor-corrector centering.  Matrices here never exceed ~32x32, so all
linear algebra is dense eigendecomposition plus a Cholesky solve of the
m x m Schur complement, regularized by 1e-14 of its largest diagonal entry
and followed by one step of iterative refinement against the exact matrix.

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
    """max tr(C X) subject to tr(A_k X) = b_k, X PSD; all matrices symmetric n x n."""

    C: np.ndarray
    constraints: tuple

    def __post_init__(self):
        C = np.array(self.C, dtype=float)
        if C.ndim != 2 or C.shape[0] != C.shape[1]:
            raise DimensionMismatchError(f"objective must be square, got shape {C.shape}")
        n = C.shape[0]
        if np.abs(C - C.T).max() > 1e-10:
            raise ValidationError("objective matrix must be symmetric")
        C = 0.5 * (C + C.T)
        C.setflags(write=False)
        frozen = []
        for k, (Ak, bk) in enumerate(self.constraints):
            Ak = np.array(Ak, dtype=float)
            if Ak.shape != (n, n):
                raise DimensionMismatchError(f"constraint {k} has shape {Ak.shape}, expected {(n, n)}")
            if np.abs(Ak - Ak.T).max() > 1e-10:
                raise ValidationError(f"constraint matrix {k} must be symmetric")
            Ak = 0.5 * (Ak + Ak.T)
            Ak.setflags(write=False)
            frozen.append((Ak, float(bk)))
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "constraints", tuple(frozen))

    @property
    def dimension(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True, eq=False)
class SdpResult:
    status: str
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


def _psd_sqrt_pair(S: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S^1/2, S^-1/2, S^-1) via eigendecomposition with an eigenvalue floor."""
    w, Q = np.linalg.eigh(S)
    floor = max(w.max(), 1.0) * 1e-15
    w = np.maximum(w, floor)
    sq = np.sqrt(w)
    half = (Q * sq) @ Q.T
    inv_half = (Q / sq) @ Q.T
    inv = (Q / w) @ Q.T
    return half, inv_half, inv


def _max_step(inv_half: np.ndarray, dS: np.ndarray) -> float:
    """Largest alpha with S + alpha dS still PSD, given inv_half = S^-1/2 (S PD)."""
    K = inv_half @ dS @ inv_half
    lam = np.linalg.eigvalsh(0.5 * (K + K.T)).min()
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def sdp_solve(problem: SdpProblem) -> SdpResult:
    """Solve a small dense SDP from the identity-based infeasible start;
    raises ``SdpConvergenceError`` on stagnation."""
    n = problem.dimension
    m = len(problem.constraints)
    if m == 0:
        raise ValidationError("SDP needs at least one equality constraint")
    As2 = np.stack([Ak for Ak, _ in problem.constraints]).reshape(m, n * n)
    b = np.array([bk for _, bk in problem.constraints])
    C0 = -problem.C  # interior-point core minimizes
    with np.errstate(over="ignore"):
        norm_b = 1.0 + np.linalg.norm(b)
        norm_c = 1.0 + np.linalg.norm(C0, "fro")
    if not (np.isfinite(norm_b) and np.isfinite(norm_c)):
        raise SdpConvergenceError("objective or right-hand side has a non-finite norm; rescale the problem")

    def Aop(M: np.ndarray) -> np.ndarray:
        return As2 @ M.ravel()

    def Aadj(y: np.ndarray) -> np.ndarray:
        return (y @ As2).reshape(n, n)

    X = np.eye(n) * max(1.0, float(np.abs(b).max()))
    Z = np.eye(n) * max(1.0, np.linalg.norm(C0, "fro") / np.sqrt(n))
    y = np.zeros(m)
    tau = STEP_FRACTION

    mu0 = float(np.vdot(X, Z)) / n
    infeas0 = max(
        np.linalg.norm(b - Aop(X)) / norm_b,
        np.linalg.norm(C0 - Z - Aadj(y), "fro") / norm_c,
        1e-12,
    )

    best: tuple[float, tuple] | None = None
    best_at = 0
    best_stalls = False  # the best iterate would be good enough to stop on a stall
    termination = "iteration_limit"
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        xz = float(np.vdot(X, Z))
        mu = xz / n
        rp = b - Aop(X)
        Rd = C0 - Z - Aadj(y)
        pobj = float(np.vdot(C0, X))
        dobj = float(b @ y)
        gap = abs(pobj - dobj)
        rel_gap = gap / (1.0 + abs(pobj) + abs(dobj))
        rp_rel = np.linalg.norm(rp) / norm_b
        rd_rel = np.linalg.norm(Rd, "fro") / norm_c

        merit = rel_gap + rp_rel + rd_rel
        if best is None or merit < best[0]:
            best = (merit, (X.copy(), y.copy(), Z.copy(), pobj, dobj, gap, rp_rel, rd_rel, iterations))
            best_at = iterations
            best_stalls = (
                rel_gap <= GAP_TARGET and rp_rel <= _STALL_RESIDUAL and rd_rel <= _STALL_RESIDUAL
            )
        if rp_rel <= 1e-10 and ((rel_gap <= GAP_TARGET and rd_rel <= 1e-10) or mu < 1e-16):
            termination = "converged"
            break
        if best_stalls and iterations - best_at >= _STALL_WINDOW:
            termination = "stalled"
            break

        # Nesterov-Todd scaling point W with W Z W = X
        Zh, Zih, Zinv = _psd_sqrt_pair(Z)
        T = Zh @ X @ Zh
        Th, _, _ = _psd_sqrt_pair(0.5 * (T + T.T))
        W = Zih @ Th @ Zih
        W = 0.5 * (W + W.T)
        _, Xih, _ = _psd_sqrt_pair(X)

        # Schur complement M_kl = <A_k, W A_l W>; kron(W, W) acts on the
        # row-major flattening as M -> W M W
        M = As2 @ (np.kron(W, W) @ As2.T)
        M = 0.5 * (M + M.T)
        try:
            L = np.linalg.cholesky(M + np.eye(m) * max(M.diagonal().max(), 1.0) * 1e-14)

            def msolve(v: np.ndarray) -> np.ndarray:
                return np.linalg.solve(L.T, np.linalg.solve(L, v))

        except np.linalg.LinAlgError:
            # dependent constraints make the Schur complement singular;
            # solve in the row space via a spectral pseudo-inverse
            w_m, Q_m = np.linalg.eigh(M)
            cutoff = max(w_m.max(), 1.0) * 1e-13
            w_inv = np.where(w_m > cutoff, 1.0 / np.maximum(w_m, cutoff), 0.0)

            def msolve(v: np.ndarray) -> np.ndarray:
                return (Q_m * w_inv) @ (Q_m.T @ v)

        WRdW = W @ Rd @ W

        def direction(mu_target: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            E = mu_target * Zinv - X
            rhs = rp - Aop(E - WRdW)
            dy = msolve(rhs)
            dy += msolve(rhs - M @ dy)  # one refinement step undoes the regularization's bias
            dZ = Rd - Aadj(dy)
            dX = E - W @ dZ @ W
            return 0.5 * (dX + dX.T), dy, 0.5 * (dZ + dZ.T)

        def mu_after(dX: np.ndarray, dZ: np.ndarray):
            """mu at (X + ap dX, Z + ad dZ) as a bilinear form in the step lengths."""
            dxz, xdz, dxdz = float(np.vdot(dX, Z)), float(np.vdot(X, dZ)), float(np.vdot(dX, dZ))
            return lambda ap, ad: (xz + ap * dxz + ad * xdz + ap * ad * dxdz) / n

        # predictor to pick the centering weight
        dXa, _, dZa = direction(0.0)
        ap = min(1.0, tau * _max_step(Xih, dXa))
        ad = min(1.0, tau * _max_step(Zih, dZa))
        mu_aff = mu_after(dXa, dZa)(ap, ad)
        sigma = min(0.999, max(1e-6, (max(mu_aff, 0.0) / mu) ** 3))
        infeasible = max(rp_rel, rd_rel) > 1e-12
        if infeasible:
            sigma = max(sigma, 0.05)

        # Step selection.  The neighborhood guard keeps complementarity
        # positive and synchronized with infeasibility (otherwise the
        # iterate strands on the PSD boundary while still infeasible);
        # backtracking restores it because alpha -> 0 reproduces the
        # current in-neighborhood iterate.  If the guard forces the step
        # to collapse, the direction itself is too aggressive: escalate
        # the centering weight and recompute.
        beta = 100.0
        best_step = None
        for _ in range(5):
            dX, dy, dZ = direction(sigma * mu)
            ap = min(1.0, tau * _max_step(Xih, dX))
            ad = min(1.0, tau * _max_step(Zih, dZ))
            mu_step = mu_after(dX, dZ)
            for _ in range(40):
                mu_new = mu_step(ap, ad)
                infeas_new = max((1.0 - ap) * rp_rel, (1.0 - ad) * rd_rel)
                ok_mu = mu_new >= 0.02 * sigma * mu
                ok_nbhd = (not infeasible) or infeas_new / infeas0 <= beta * max(mu_new, 0.0) / mu0
                if ok_mu and ok_nbhd:
                    break
                ap *= 0.7
                ad *= 0.7
            candidate = (min(ap, ad), sigma, dX, dy, dZ, ap, ad)
            if best_step is None or candidate[0] > best_step[0]:
                best_step = candidate
            if not infeasible or candidate[0] >= 0.05:
                break
            sigma = min(0.95, max(3.0 * sigma, 0.3))
        _, sigma, dX, dy, dZ, ap, ad = best_step

        for _ in range(30):  # keep the iterates safely positive definite
            Xn = X + ap * dX
            if np.linalg.eigvalsh(Xn).min() > 0:
                break
            ap *= 0.5
        for _ in range(30):
            Zn = Z + ad * dZ
            if np.linalg.eigvalsh(Zn).min() > 0:
                break
            ad *= 0.5
        X = 0.5 * (Xn + Xn.T)
        Z = 0.5 * (Zn + Zn.T)
        y = y + ad * dy

    _, (X, y, Z, pobj, dobj, gap, rp_rel, rd_rel, _) = best
    accepted = (
        gap / (1.0 + abs(pobj) + abs(dobj)) <= GAP_ACCEPT
        and rp_rel <= FEASIBILITY_ACCEPT
        and rd_rel <= FEASIBILITY_ACCEPT
    )
    if not accepted:
        raise SdpConvergenceError(
            f"no convergence in {iterations} iterations "
            f"(gap {gap:.2e}, primal residual {rp_rel:.2e}, dual residual {rd_rel:.2e}); "
            "the instance is ill-conditioned or lacks an interior point"
        )
    return SdpResult(
        status="optimal",
        value=-pobj,
        X=X,
        y=-y,
        Z=Z,
        dual_value=-dobj,
        gap=gap,
        primal_residual=rp_rel,
        dual_residual=rd_rel,
        iterations=iterations,
        termination=termination,
    )
