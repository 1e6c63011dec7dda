"""Shared generators for randomized tests.

Everything is seeded by the caller, so the suite is deterministic.
"""

import numpy as np

from polybounds import (
    Behavior,
    DichotomicObservable,
    ExperimentalData,
    ObservationalData,
    TwoQubitState,
    ObservedIVTable,
    enumerate_strategies,
    instrumental_inequality,
    iv_table_from_response_dist,
    quantum_behavior,
)

STRATEGY_TABLES = np.stack([s.behavior().p for s in enumerate_strategies()])


def random_local_behavior(rng) -> Behavior:
    weights = rng.dirichlet(np.ones(16))
    return Behavior(np.tensordot(weights, STRATEGY_TABLES, axes=(0, 0)))


def reconstruction_error(weights, b: Behavior) -> float:
    """Largest gap between the strategy mixture with ``weights`` and ``b``."""
    return float(np.abs(np.tensordot(weights, STRATEGY_TABLES, axes=(0, 0)) - b.p).max())


def random_observable(rng) -> DichotomicObservable:
    return DichotomicObservable.from_bloch(rng.normal(size=3))


def random_state(rng) -> TwoQubitState:
    ket = rng.normal(size=4) + 1j * rng.normal(size=4)
    return TwoQubitState.from_ket(ket)


def random_quantum_behavior(rng) -> Behavior:
    return quantum_behavior(
        random_state(rng),
        random_observable(rng),
        random_observable(rng),
        random_observable(rng),
        random_observable(rng),
    )


def two_qubit_iv_model(rng) -> tuple[ObservedIVTable, float]:
    """The IV table of a random two-qubit model, t[y, x, z] =
    p(a = x, b = y | z, x), and the model's own effect (<B_0> - <B_1>) / 2."""
    rho = random_state(rng)
    a0, a1, b0, b1 = (random_observable(rng) for _ in range(4))
    behavior = quantum_behavior(rho, a0, a1, b0, b1)
    bob = [float(np.trace(rho.rho @ np.kron(np.eye(2), b.m)).real) for b in (b0, b1)]
    return ObservedIVTable(np.einsum("xyzx->yxz", behavior.p)), 0.5 * (bob[0] - bob[1])


def two_qubit_iv_table(rng) -> ObservedIVTable:
    return two_qubit_iv_model(rng)[0]


def random_nosignaling_behavior(rng) -> Behavior:
    """Mixture family covering local, quantum, and noisy PR-box behaviors."""
    kind = rng.integers(3)
    if kind == 0:
        return random_local_behavior(rng)
    if kind == 1:
        return random_quantum_behavior(rng)
    lam = rng.uniform()
    return Behavior(lam * Behavior.pr_box().p + (1.0 - lam) * np.full((2, 2, 2, 2), 0.25))


def random_iv_table(rng):
    return iv_table_from_response_dist(rng.dirichlet(np.ones(16)))


def near_edge_iv_table(rng, excess: float) -> ObservedIVTable:
    """``random_iv_table(rng)`` mixed toward a table of instrumental value 2
    until its value is 1 + ``excess``, reached by bisection from below."""
    base = random_iv_table(rng).p
    crafted = np.zeros((2, 2, 2))
    crafted[1, 1, 0] = crafted[0, 1, 1] = 1.0
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        value = instrumental_inequality(ObservedIVTable((1 - mid) * base + mid * crafted)).value
        lo, hi = (mid, hi) if value <= 1.0 + excess else (lo, mid)
    return ObservedIVTable((1 - lo) * base + lo * crafted)


def one_sided_iv_table(rng):
    """No treated units at z = 0: treatment responses 0 and 1 only."""
    q = np.zeros(16)
    q[:8] = rng.dirichlet(np.ones(8))
    return iv_table_from_response_dist(q)


def structural_iv_tables(rng, count: int) -> np.ndarray:
    """Forward-simulate the instrumental causal structure.

    A latent variable drawn from a random finite prior picks a pair of
    deterministic response functions; the observed table aggregates them.
    Returns an array of shape (count, 2, 2, 2) indexed [y, x, z].
    """
    tables = np.zeros((count, 2, 2, 2))
    for t in range(count):
        n_latent = int(rng.integers(1, 33))
        prior = rng.dirichlet(np.ones(n_latent))
        fx = rng.integers(0, 2, size=(n_latent, 2))  # treatment response per z
        fy = rng.integers(0, 2, size=(n_latent, 2))  # outcome response per x
        for u in range(n_latent):
            for z in range(2):
                x = fx[u, z]
                y = fy[u, x]
                tables[t, y, x, z] += prior[u]
    return tables


def tsirelson_closed_form(f) -> float:
    """max over c in [-1, 1] of sum_y sqrt(f0y^2 + f1y^2 + 2 f0y f1y c).

    c is the cosine between Alice's two unit vectors; the sum is concave in
    c, so a ternary search finds the maximum.  An independent reference for
    ``tsirelson_bound``.
    """

    def value(c):
        return sum(np.sqrt(max(f[0, y] ** 2 + f[1, y] ** 2 + 2 * f[0, y] * f[1, y] * c, 0.0)) for y in range(2))

    lo, hi = -1.0, 1.0
    for _ in range(200):
        a, b = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if value(a) < value(b):
            lo = a
        else:
            hi = b
    return max(value(-1.0), value(1.0), value(0.5 * (lo + hi)))


def random_counterfactual_instance(rng) -> tuple[ExperimentalData, ObservationalData]:
    """Forward-construct consistent experimental + observational data from an
    explicit joint over (Y0, Y1, X)."""
    pi = rng.dirichlet(np.ones(8))  # atom index 4*y0 + 2*y1 + x
    p_do1 = float(pi[2] + pi[3] + pi[6] + pi[7])
    p_do0 = float(pi[4] + pi[5] + pi[6] + pi[7])
    joint = np.array(
        [
            [pi[0] + pi[2], pi[4] + pi[6]],
            [pi[1] + pi[5], pi[3] + pi[7]],
        ]
    )
    return ExperimentalData(p_do1, p_do0), ObservationalData(joint)
