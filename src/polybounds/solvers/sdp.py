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

At this size an iteration costs numpy call overhead, not arithmetic, so the
loop (``sdp_solve_stack``) runs a stack of problems of one size and one
constraint count, such as the two endpoints of an interval.  X, Z and y
carry a leading problem axis.  One ``eigh`` of the stack [X; Z] is both
the PD guard of a step and, at the next iteration, the source of the
square roots of X and Z; one more ``eigh`` gives the NT scaling point, one
``eigvalsh`` the step lengths of each trial direction, and the Schur
complement <A_k, W A_l W> comes from one batched product.  The direction
is affine in the centering target mu_t, D0 + D2 + mu_t D1, so every
corrector, escalated or not, costs no solve, and an iteration where no
problem escalates takes the first corrector it evaluated.  D0 (affine
scaling) and D1 (centering) come from one solve with two right-hand sides;
the predictor D0 gives the centering weight and the second-order column
D2.  D2 answers the product of the predictor's directions, scaled by the
NT point so that X and Z are both diag(d); there its Lyapunov equation is
solved elementwise.  The column is weighted by the predictor's step
lengths alpha_p alpha_d, since on a problem without an interior point the
unweighted term overflows.  So an iteration takes two solves, each a
regularized solve and its refinement step.  Each problem keeps its own best iterate, stopping rules and
acceptance test, and leaves the stack when it stops; ``sdp_solve`` is a
stack of one.  M is never inverted: each solve is one LU ``solve`` of the
regularized M, and a Cholesky factorization only tests that M is positive
definite, else the solve falls back to a pseudo-inverse.  An explicit
inverse sends level-1ab instrumental endpoints to the iteration cap.

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


def _dot(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """<U_p, V_p> for each pair of a stack."""
    return np.einsum("pij,pij->p", U, V)


def _floored(w: np.ndarray) -> np.ndarray:
    """Eigenvalues of each matrix of a stack, floored at 1e-15 of max(1, the
    largest), with a broadcast axis."""
    return np.maximum(w, np.maximum(w.max(axis=1, keepdims=True), 1.0) * 1e-15)[:, None, :]


def _step_lengths(inv_half: np.ndarray, dS: np.ndarray) -> np.ndarray:
    """min(1, STEP_FRACTION alpha) for each S of a stack, alpha the largest
    step with S + alpha dS still PSD, given inv_half = S^-1/2 (S PD)."""
    lam = np.linalg.eigvalsh(_sym(inv_half @ dS @ inv_half)).min(axis=1)
    return np.where(lam >= -1e-14, 1.0, np.minimum(1.0, STEP_FRACTION / -np.minimum(lam, -1e-14)))


def _direction(D: tuple, mu_target: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Newton direction (dX, dy, dZ) of each problem of a stack for the
    centering target mu_target, from its affine parts D = (DX, Dy, DZ)."""
    DX, Dy, DZ = D
    t = mu_target[:, None, None]
    return DX[:, 0] + t * DX[:, 1], Dy[..., 0] + mu_target[:, None] * Dy[..., 1], DZ[:, 0] + t * DZ[:, 1]


def sdp_solve(problem: SdpProblem) -> SdpResult:
    """Solve one small dense SDP: a stack of one (``sdp_solve_stack``)."""
    return sdp_solve_stack((problem,))[0]


def sdp_solve_stack(problems) -> tuple[SdpResult, ...]:
    """Solve SDPs of one size and one constraint count in one interior-point
    loop, each from the identity-based infeasible start and each stopping on
    its own rules.  The results come in stack order; if any problem fails,
    the first that fails raises its ``SdpConvergenceError`` once every
    problem has stopped.  An empty stack gives no results."""
    if not len(problems):
        return ()
    n = problems[0].dimension
    m = len(problems[0].b)
    if any(p.A.shape != (m, n, n) for p in problems):
        raise DimensionMismatchError("stacked SDPs must share their matrix size and constraint count")
    As2 = np.array([p.A for p in problems]).reshape(-1, m, n * n)  # (P, m, n*n)
    b = np.array([p.b for p in problems])
    C0 = -np.array([p.C for p in problems])  # interior-point core minimizes
    with np.errstate(over="ignore"):
        norm_b = 1.0 + np.linalg.norm(b, axis=1)
        norm_c = 1.0 + np.linalg.norm(C0, axis=(1, 2))
    # the loop runs on the stack of active problems; a problem leaves it when
    # it stops, and one with a non-finite norm never enters
    act = np.flatnonzero(np.isfinite(norm_b) & np.isfinite(norm_c))
    As2, b, C0, norm_b, norm_c = (v[act] for v in (As2, b, C0, norm_b, norm_c))

    def Aop(M: np.ndarray) -> np.ndarray:
        return (As2 @ M.reshape(-1, n * n, 1))[..., 0]

    X = np.eye(n) * np.maximum(1.0, np.abs(b).max(axis=1))[:, None, None]
    Z = np.eye(n) * np.maximum(1.0, np.linalg.norm(C0, axis=(1, 2)) / np.sqrt(n))[:, None, None]
    y = np.zeros(b.shape)
    mu0 = _dot(X, Z) / n
    infeas0 = np.maximum(np.linalg.norm(b - Aop(X), axis=1) / norm_b, np.linalg.norm(C0 - Z, axis=(1, 2)) / norm_c)
    infeas0 = np.maximum(infeas0, 1e-12)
    # eigendecomposition of the stack [X; Z]; after the first iteration it is
    # the PD guard's, of the iterate the guard accepted
    w_xz, Q_xz = np.linalg.eigh(np.concatenate([X, Z]))

    # per problem: the best-merit iterate (merit, X, y, Z, pobj, dobj, gap,
    # rp_rel, rd_rel), when it was found, whether it would be good enough to
    # stop on a stall, and why and when the problem stopped
    best = [None] * len(problems)
    best_at = [0] * len(problems)
    best_stalls = [False] * len(problems)
    termination = ["iteration_limit"] * len(problems)
    iterations = [MAX_ITERATIONS] * len(problems)
    for it in range(1, MAX_ITERATIONS + 1):
        if not act.size:
            break
        xz = _dot(X, Z)
        mu = xz / n
        rp = b - Aop(X)
        Rd = C0 - Z - (y[:, None, :] @ As2).reshape(-1, n, n)
        pobj = _dot(C0, X)
        dobj = (b * y).sum(axis=1)
        gap = np.abs(pobj - dobj)
        rel_gap = gap / (1.0 + np.abs(pobj) + np.abs(dobj))
        rp_rel = np.linalg.norm(rp, axis=1) / norm_b
        rd_rel = np.linalg.norm(Rd, axis=(1, 2)) / norm_c

        merit = rel_gap + rp_rel + rd_rel
        stop = np.zeros(act.size, dtype=bool)
        for j, k in enumerate(act.tolist()):
            if best[k] is None or merit[j] < best[k][0]:
                best[k] = (merit[j], X[j], y[j], Z[j], pobj[j], dobj[j], gap[j], rp_rel[j], rd_rel[j])
                best_at[k] = it
                best_stalls[k] = (
                    rel_gap[j] <= GAP_TARGET and rp_rel[j] <= _STALL_RESIDUAL and rd_rel[j] <= _STALL_RESIDUAL
                )
            if rp_rel[j] <= 1e-10 and ((rel_gap[j] <= GAP_TARGET and rd_rel[j] <= 1e-10) or mu[j] < 1e-16):
                termination[k] = "converged"
            elif best_stalls[k] and it - best_at[k] >= _STALL_WINDOW:
                termination[k] = "stalled"
            else:
                continue
            iterations[k] = it
            stop[j] = True
        if stop.any():
            keep = ~stop
            w_xz, Q_xz = (v[np.concatenate([keep, keep])] for v in (w_xz, Q_xz))
            act, As2, b, C0, norm_b, norm_c, mu0, infeas0, X, Z, y, xz, mu, rp, Rd, rp_rel, rd_rel = (
                v[keep]
                for v in (act, As2, b, C0, norm_b, norm_c, mu0, infeas0, X, Z, y, xz, mu, rp, Rd, rp_rel, rd_rel)
            )
            if not act.size:
                break
        size = act.size

        # Nesterov-Todd scaling point W = G G' with W Z W = X.  The
        # eigendecomposition of the stack [X; Z] gives X^-1/2 and Z^-1/2 (for
        # the step lengths), Z^1/2 and Z^-1; one of Z^1/2 X Z^1/2 = R diag(d)^2 R'
        # gives G = Z^-1/2 R diag(d)^1/2, which scales both X and Z to diag(d)
        w = _floored(w_xz)
        sq = np.sqrt(w)
        inv_half = (Q_xz / sq) @ Q_xz.swapaxes(1, 2)
        Qz, Qzt = Q_xz[size:], Q_xz[size:].swapaxes(1, 2)
        Zh, Zih, Zinv = (Qz * sq[size:]) @ Qzt, inv_half[size:], (Qz / w[size:]) @ Qzt
        w_nt, R = np.linalg.eigh(_sym(Zh @ X @ Zh))
        d = np.sqrt(_floored(w_nt))
        root_d = np.sqrt(d)
        G = Zih @ (R * root_d)
        W = _sym(G @ G.swapaxes(1, 2))

        # Schur complement M_kl = <A_k, W A_l W>, from one batched product
        WAW = W[:, None] @ As2.reshape(size, m, n, n) @ W[:, None]
        M = _sym(As2 @ WAW.reshape(size, m, n * n).swapaxes(1, 2))
        try:
            reg = np.maximum(M.diagonal(0, 1, 2).max(axis=1), 1.0) * 1e-14
            M_reg = M + np.eye(m) * reg[:, None, None]
            np.linalg.cholesky(M_reg)  # raises unless M_reg is positive definite

            def msolve(v: np.ndarray) -> np.ndarray:
                return np.linalg.solve(M_reg, v)

        except np.linalg.LinAlgError:
            # dependent constraints make a Schur complement singular; solve
            # the stack in the row space via a spectral pseudo-inverse
            w_m, Q_m = np.linalg.eigh(M)
            cutoff = np.maximum(w_m.max(axis=1, keepdims=True), 1.0) * 1e-13
            w_inv = np.where(w_m > cutoff, 1.0 / np.maximum(w_m, cutoff), 0.0)

            def msolve(v: np.ndarray) -> np.ndarray:
                return Q_m @ (w_inv[:, :, None] * (Q_m.swapaxes(1, 2) @ v))

        def schur_solve(rhs: np.ndarray) -> np.ndarray:
            dy = msolve(rhs)
            return dy + msolve(rhs - M @ dy)  # one refinement step undoes the regularization's bias

        # The Newton direction is affine in the centering target mu_t: with
        # E = mu_t Z^-1 - X it is D0 + mu_t D1, D0 the affine-scaling part and
        # D1 the centering part, both from one solve with two right-hand sides
        E = np.stack([-X, Zinv], axis=1)  # (size, 2, n, n)
        Dy = schur_solve(np.stack([rp + Aop(X + W @ Rd @ W), -Aop(Zinv)], axis=2))  # (size, m, 2)
        DZ = _sym(np.stack([Rd, np.zeros_like(Rd)], axis=1) - (Dy.swapaxes(1, 2) @ As2).reshape(size, 2, n, n))
        DX = _sym(E - W[:, None] @ DZ @ W[:, None])

        def steps(dX: np.ndarray, dZ: np.ndarray) -> tuple[list, list]:
            alpha = _step_lengths(inv_half, np.concatenate([dX, dZ])).tolist()
            return alpha[:size], alpha[size:]

        def mu_after(dX: np.ndarray, dZ: np.ndarray):
            """mu at (X + ap dX, Z + ad dZ) of problem j, as a bilinear form in the step lengths."""
            terms = list(zip(xz.tolist(), _dot(dX, Z).tolist(), _dot(X, dZ).tolist(), _dot(dX, dZ).tolist()))
            return lambda j, ap, ad: (terms[j][0] + ap * terms[j][1] + ad * terms[j][2] + ap * ad * terms[j][3]) / n

        # predictor to pick the centering weight
        dXa, _, dZa = _direction((DX, Dy, DZ), np.zeros(size))
        ap, ad = steps(dXa, dZa)
        mu_aff = mu_after(dXa, dZa)
        mu_l, rp_l, rd_l, mu0_l, infeas0_l = (v.tolist() for v in (mu, rp_rel, rd_rel, mu0, infeas0))
        sigma = [min(0.999, max(1e-6, (max(mu_aff(j, ap[j], ad[j]), 0.0) / mu_l[j]) ** 3)) for j in range(size)]
        infeasible = [max(rp_l[j], rd_l[j]) > 1e-12 for j in range(size)]
        sigma = [max(s, 0.05) if inf else s for s, inf in zip(sigma, infeasible)]

        # Mehrotra's second-order correction, folded into D0: the direction
        # D2 for E2 = G U G', where U solves the scaled Lyapunov equation
        # diag(d) U + U diag(d) = -2 sym(dXa~ dZa~) elementwise, with the
        # scaled product dXa~ dZa~ = G^-1 dXa dZa G and G^-1 =
        # diag(d)^-1/2 R' Z^1/2.  The term is weighted by the predictor's step
        # lengths ap ad, so it fades where the predictor barely moves (an
        # infeasible problem's term overflows otherwise).
        P = (R / root_d).swapaxes(1, 2) @ Zh @ dXa @ dZa @ G
        U = -(P + P.swapaxes(1, 2)) / (d + d.swapaxes(1, 2)) * (np.array(ap) * np.array(ad))[:, None, None]
        E2 = G @ U @ G.swapaxes(1, 2)
        Dy2 = schur_solve(-Aop(E2)[..., None])[..., 0]
        DZ2 = _sym(-(Dy2[:, None] @ As2).reshape(size, n, n))
        DX[:, 0] += _sym(E2 - W @ DZ2 @ W)
        Dy[..., 0] += Dy2
        DZ[:, 0] += DZ2

        # Step selection, per problem.  The neighborhood guard keeps
        # complementarity positive and synchronized with infeasibility
        # (otherwise the iterate strands on the PSD boundary while still
        # infeasible); backtracking restores it because alpha -> 0 reproduces
        # the current in-neighborhood iterate.  If the guard forces the step
        # to collapse, the direction itself is too aggressive: escalate the
        # centering weight and recompute.
        beta = 100.0
        chosen = [None] * size  # (min(ap, ad), ap, ad, mu target) of each problem's best step
        pending = range(size)
        for trial in range(5):
            target = np.array(sigma) * mu
            dX, dy, dZ = _direction((DX, Dy, DZ), target)
            ap, ad = steps(dX, dZ)
            mu_step = mu_after(dX, dZ)
            escalate = []
            for j in pending:
                a_p, a_d = ap[j], ad[j]
                for _ in range(40):
                    mu_new = mu_step(j, a_p, a_d)
                    infeas_new = max((1.0 - a_p) * rp_l[j], (1.0 - a_d) * rd_l[j])
                    ok_mu = mu_new >= 0.02 * sigma[j] * mu_l[j]
                    ok_nbhd = not infeasible[j] or infeas_new / infeas0_l[j] <= beta * max(mu_new, 0.0) / mu0_l[j]
                    if ok_mu and ok_nbhd:
                        break
                    a_p *= 0.7
                    a_d *= 0.7
                if chosen[j] is None or min(a_p, a_d) > chosen[j][0]:
                    chosen[j] = (min(a_p, a_d), a_p, a_d, target[j])
                if infeasible[j] and min(a_p, a_d) < 0.05:
                    sigma[j] = min(0.95, max(3.0 * sigma[j], 0.3))
                    escalate.append(j)
            pending = escalate
            if not pending:
                break
        _, ap, ad, target = (np.array(v) for v in zip(*chosen))
        if trial:  # with no escalation every chosen target is round one's
            dX, dy, dZ = _direction((DX, Dy, DZ), target)

        # Keep the iterates safely positive definite.  dX and dZ are exactly
        # symmetric, so the new X and Z are too, and the guard's
        # eigendecomposition is the next iteration's.
        for _ in range(30):
            X_new = X + ap[:, None, None] * dX
            Z_new = Z + ad[:, None, None] * dZ
            w_xz, Q_xz = np.linalg.eigh(np.concatenate([X_new, Z_new]))
            pd = w_xz.min(axis=1) > 0
            if pd.all():
                break
            ap = np.where(pd[:size], ap, 0.5 * ap)
            ad = np.where(pd[size:], ad, 0.5 * ad)
        X, Z = X_new, Z_new
        y = y + ad[:, None] * dy

    results = []
    for k, found in enumerate(best):
        if found is None:
            raise SdpConvergenceError("objective or right-hand side has a non-finite norm; rescale the problem")
        _, X, y, Z, pobj, dobj, gap, rp_rel, rd_rel = (float(v) if np.ndim(v) == 0 else v for v in found)
        rel_gap = gap / (1.0 + abs(pobj) + abs(dobj))
        if not (rel_gap <= GAP_ACCEPT and rp_rel <= FEASIBILITY_ACCEPT and rd_rel <= FEASIBILITY_ACCEPT):
            raise SdpConvergenceError(
                f"no convergence in {iterations[k]} iterations "
                f"(gap {gap:.2e}, primal residual {rp_rel:.2e}, dual residual {rd_rel:.2e}); "
                "the instance is ill-conditioned or lacks an interior point"
            )
        results.append(SdpResult(-pobj, X, -y, Z, -dobj, gap, rp_rel, rd_rel, iterations[k], termination[k]))
    return tuple(results)
