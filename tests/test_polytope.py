import itertools

import numpy as np
import pytest

from polybounds import (
    CHSH_VARIANTS,
    AtomGrid,
    Behavior,
    CorrelationTriple,
    DeterministicStrategy,
    SignalingError,
    ValidationError,
    boole_bell_check,
    chsh_value,
    chsh_variant_values,
    comonotone_coupling,
    countermonotone_coupling,
    enumerate_strategies,
    fine_check,
    frechet_bounds,
    local_max,
    local_membership,
    no_signaling_max,
    triple_feasibility,
)
from polybounds.polytope import (
    _STRATEGY_MATRIX,
    STRATEGY_BEHAVIORS,
    STRATEGY_CORRELATIONS,
    STRATEGY_SIGNS,
)
from conftest import STRATEGY_TABLES, random_local_behavior, random_nosignaling_behavior


def test_enumeration_count_and_order():
    strategies = enumerate_strategies()
    assert len(strategies) == 16
    assert len(set(strategies)) == 16
    first = strategies[0]
    assert (first.a0, first.a1, first.b0, first.b1) == (1, 1, 1, 1)
    assert chsh_value(first.correlations()) == pytest.approx(2.0)


def test_every_strategy_respects_every_facet_and_facets_are_sharp():
    values = np.array([chsh_variant_values(s.correlations()) for s in enumerate_strategies()])
    assert np.abs(values).max() <= 2.0 + 1e-15
    np.testing.assert_allclose(values.max(axis=0), 2.0)  # each facet attained exactly


def test_bell_causal_bijection_round_trip():
    for s in enumerate_strategies():
        rx, ry = s.response_indices()
        assert DeterministicStrategy.from_response_indices(rx, ry) == s
    # complier (treatment follows instrument) paired with helped (outcome follows treatment)
    s = DeterministicStrategy.from_response_indices(1, 1)
    assert (s.a0, s.a1) == (1, -1)
    assert (s.b0, s.b1) == (1, -1)


def test_strategy_behavior_is_member_with_unit_weight():
    strategies = enumerate_strategies()
    cert = local_membership(strategies[0].behavior())
    assert cert.member
    assert cert.weights[0] == pytest.approx(1.0, abs=1e-9)
    assert cert.weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_pr_box_not_member_with_facet_four():
    cert = local_membership(Behavior.pr_box())
    assert not cert.member
    assert cert.facet_value == pytest.approx(4.0, abs=1e-9)


def test_tsirelson_behavior_not_member():
    s = np.sqrt(2) / 2
    cert = local_membership(Behavior.from_correlations([[s, s], [s, -s]]))
    assert not cert.member
    assert cert.facet_value == pytest.approx(2 * np.sqrt(2), abs=1e-9)


def test_membership_weights_reproduce_behavior():
    rng = np.random.default_rng(41)
    from conftest import STRATEGY_TABLES

    for _ in range(20):
        b = random_local_behavior(rng)
        cert = local_membership(b)
        assert cert.member
        rebuilt = np.tensordot(cert.weights, STRATEGY_TABLES, axes=(0, 0))
        assert np.abs(rebuilt - b.p).max() <= 1e-9


def test_membership_is_convex():
    rng = np.random.default_rng(42)
    for _ in range(10):
        b1 = random_local_behavior(rng)
        b2 = random_local_behavior(rng)
        lam = rng.uniform()
        mix = Behavior(lam * b1.p + (1 - lam) * b2.p)
        assert local_membership(mix).member


def test_fine_check_examples():
    assert fine_check(Behavior.uniform()) == (True, True)
    assert fine_check(Behavior.pr_box()) == (False, False)
    rng = np.random.default_rng(43)
    for _ in range(10):
        assert fine_check(random_local_behavior(rng)) == (True, True)


def test_fine_check_rejects_signaling():
    p = np.full((2, 2, 2, 2), 0.25)
    p[:, :, 0, 0] = [[0.5, 0.3], [0.1, 0.1]]
    p[:, :, 0, 1] = [[0.1, 0.1], [0.3, 0.5]]
    with pytest.raises(SignalingError):
        fine_check(Behavior(p))


def test_fine_equivalence_on_random_behaviors():
    rng = np.random.default_rng(44)
    for _ in range(100):
        result = fine_check(random_nosignaling_behavior(rng))
        assert result.joint_exists == result.all_chsh_hold


def test_boole_bell_examples():
    assert boole_bell_check(CorrelationTriple(0, 0, 0)) == (True, 1.0)
    holds, slack = boole_bell_check(CorrelationTriple(1, -1, 1))
    assert not holds and slack == pytest.approx(-2.0)
    holds, slack = boole_bell_check(CorrelationTriple(0.6, 0.1, 0.4))
    assert holds and slack == pytest.approx(0.1)


def test_triple_feasibility_examples():
    assert triple_feasibility(CorrelationTriple(0, 0, 0))
    assert not triple_feasibility(CorrelationTriple(1, -1, 1))
    assert triple_feasibility(CorrelationTriple(0.6, 0.1, 0.4))


def test_feasible_triples_satisfy_boole_bell():
    rng = np.random.default_rng(45)
    for _ in range(150):
        t = CorrelationTriple(*rng.uniform(-1, 1, 3))
        if triple_feasibility(t):
            assert boole_bell_check(t).holds


def test_frechet_examples():
    half = frechet_bounds(0.5, 0.5)
    assert (half.lo, half.hi) == pytest.approx((0.0, 0.5))
    skew = frechet_bounds(0.8, 0.7)
    assert (skew.lo, skew.hi) == pytest.approx((0.5, 0.7))
    for v in (0.0, 0.3, 1.0):
        iv = frechet_bounds(1.0, v)
        assert iv.lo == pytest.approx(v) and iv.hi == pytest.approx(v)
    with pytest.raises(ValidationError):
        frechet_bounds(1.2, 0.5)
    with pytest.raises(ValidationError):
        frechet_bounds(0.5, -0.1)


def test_coupling_constructions_attain_bounds():
    rng = np.random.default_rng(46)
    for _ in range(50):
        u, v = rng.uniform(0, 1, 2)
        iv = frechet_bounds(u, v)
        hi = comonotone_coupling(u, v)
        lo = countermonotone_coupling(u, v)
        for j in (hi, lo):
            assert j.min() >= -1e-12
            assert j.sum() == pytest.approx(1.0, abs=1e-12)
            assert j[1].sum() == pytest.approx(u, abs=1e-12)
            assert j[:, 1].sum() == pytest.approx(v, abs=1e-12)
        assert hi[1, 1] == pytest.approx(iv.hi, abs=1e-12)
        assert lo[1, 1] == pytest.approx(iv.lo, abs=1e-12)


def test_frechet_grid_ordering_and_degeneracy():
    grid = np.linspace(0, 1, 101)
    for u in grid:
        for v in grid:
            iv = frechet_bounds(u, v)
            assert iv.lo <= iv.hi + 1e-15
            boundary = u in (0.0, 1.0) or v in (0.0, 1.0)
            if boundary:
                assert iv.hi - iv.lo <= 1e-15
            else:
                assert iv.hi - iv.lo > 1e-12  # strict gap off the boundary


def test_local_and_nosignaling_maxima():
    chsh = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert local_max(chsh) == pytest.approx(2.0, abs=1e-9)
    assert no_signaling_max(chsh) == pytest.approx(4.0, abs=1e-9)
    single = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert local_max(single) == pytest.approx(1.0, abs=1e-9)
    assert no_signaling_max(single) == pytest.approx(1.0, abs=1e-9)
    for bound in (local_max, no_signaling_max):
        with pytest.raises(ValidationError):
            bound([[np.nan, 1.0], [1.0, -1.0]])


def test_strategy_constants_rederived_from_strategy_objects():
    strategies = enumerate_strategies()
    for k, s in enumerate(strategies):
        assert tuple(STRATEGY_SIGNS[k]) == (s.a0, s.a1, s.b0, s.b1)
        rx, ry = s.response_indices()
        assert 4 * rx + ry == k
        np.testing.assert_array_equal(STRATEGY_BEHAVIORS[k], s.behavior().p)
        np.testing.assert_array_equal(_STRATEGY_MATRIX[:, k], s.behavior().p.reshape(16))
        np.testing.assert_array_equal(STRATEGY_CORRELATIONS[k], s.correlations().e)
    np.testing.assert_array_equal(STRATEGY_SIGNS, np.array(AtomGrid.signs(4).atoms))
    # the strategies' correlation tables are the even-parity sign patterns and
    # the PR boxes' (the CHSH variants) the odd ones: together every pattern
    patterns = {tuple(e.ravel()) for e in STRATEGY_CORRELATIONS} | {tuple(v.ravel()) for v in CHSH_VARIANTS}
    assert patterns == set(itertools.product((1.0, -1.0), repeat=4))


def test_maxima_match_an_independent_lp():
    """Both maxima against scipy's LP: over strategy mixtures for the local
    polytope, over no-signaling behaviors p[a, b, x, y] for the other."""
    optimize = pytest.importorskip("scipy.optimize")

    def lp_max(c, A_eq, b_eq) -> float:
        result = optimize.linprog(-c, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
        assert result.status == 0
        return -result.fun

    parity = np.outer([1.0, -1.0], [1.0, -1.0])  # (-1)^(a+b)
    blocks = np.zeros((4, 2, 2, 2, 2))
    for x, y in itertools.product(range(2), repeat=2):
        blocks[2 * x + y, :, :, x, y] = 1.0
    marginals = np.zeros((4, 2, 2, 2, 2))
    marginals[0, 0, :, 0, 0], marginals[0, 0, :, 0, 1] = 1.0, -1.0  # Alice, x = 0
    marginals[1, 0, :, 1, 0], marginals[1, 0, :, 1, 1] = 1.0, -1.0  # Alice, x = 1
    marginals[2, :, 0, 0, 0], marginals[2, :, 0, 1, 0] = 1.0, -1.0  # Bob, y = 0
    marginals[3, :, 0, 0, 1], marginals[3, :, 0, 1, 1] = 1.0, -1.0  # Bob, y = 1
    A_ns = np.concatenate([blocks, marginals]).reshape(8, 16)
    b_ns = np.array([1.0] * 4 + [0.0] * 4)
    strategy_correlations = np.einsum("sabxy,ab->sxy", STRATEGY_TABLES, parity)

    rng = np.random.default_rng(404)
    for k in range(300):
        f = rng.normal(size=(2, 2)) * [1e-3, 1.0, 1e3][k % 3]
        scale = 1e-12 * (1.0 + np.abs(f).sum())
        local_values = np.tensordot(strategy_correlations, f, axes=2)
        assert abs(local_max(f) - lp_max(local_values, np.ones((1, 16)), [1.0])) <= scale
        c_ns = (parity[:, :, None, None] * f).reshape(16)
        assert abs(no_signaling_max(f) - lp_max(c_ns, A_ns, b_ns)) <= scale


def test_strategy_validation():
    with pytest.raises(ValidationError):
        DeterministicStrategy(1, 1, 1, 0)
