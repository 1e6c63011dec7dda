import itertools

import numpy as np
import pytest

from polybounds import (
    Behavior,
    EntropyVector,
    NormalizationError,
    ValidationError,
    entropic_chsh,
    entropy,
    enumerate_strategies,
    mutual_information,
    shannon_cone_check,
)
from polybounds.model import INEQUALITY_SLACK
from conftest import random_local_behavior, random_nosignaling_behavior


def test_entropy_examples():
    assert entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)
    assert entropy([1.0, 0.0]) == 0.0
    assert entropy([0.25, 0.75]) == pytest.approx(0.8112781244591328, abs=1e-12)


def test_entropy_normalization_error():
    with pytest.raises(NormalizationError):
        entropy([0.5, 0.4])
    with pytest.raises(ValidationError):
        entropy([1.5, -0.5])


def test_mutual_information_perfect_correlation():
    assert mutual_information([[0.5, 0.0], [0.0, 0.5]]) == pytest.approx(1.0, abs=1e-12)
    assert mutual_information([[0.25, 0.25], [0.25, 0.25]]) == pytest.approx(0.0, abs=1e-12)


def test_entropic_chsh_uniform_behavior():
    r = entropic_chsh(Behavior.uniform())
    assert r.lhs == pytest.approx(0.0, abs=1e-12)
    assert r.rhs == pytest.approx(4.0, abs=1e-12)
    assert r.holds


def test_entropic_chsh_pr_box():
    r = entropic_chsh(Behavior.pr_box())
    assert r.lhs == pytest.approx(2.0, abs=1e-9)
    assert r.holds
    assert r.mutual_informations == pytest.approx((1.0, 1.0, 1.0, 1.0))


def test_entropic_chsh_deterministic_strategies():
    for s in enumerate_strategies():
        r = entropic_chsh(s.behavior())
        assert r.holds
        assert r.lhs == pytest.approx(0.0, abs=1e-12)


def test_entropic_chsh_local_mixtures_hold():
    rng = np.random.default_rng(71)
    for _ in range(40):
        assert entropic_chsh(random_local_behavior(rng)).holds


def test_entropic_chsh_custom_settings():
    # settings concentrated on one pair: rhs = 0 and lhs uses only that pair
    s = np.zeros((2, 2))
    s[0, 0] = 1.0
    r = entropic_chsh(Behavior.uniform(), s)
    assert r.rhs == pytest.approx(0.0, abs=1e-12)
    assert r.settings_entropy == pytest.approx(0.0, abs=1e-12)


def test_entropic_lhs_invariant_under_outcome_relabeling():
    rng = np.random.default_rng(72)
    for _ in range(20):
        b = random_nosignaling_behavior(rng)
        flipped = Behavior(b.p[::-1])  # a -> 1 - a
        assert entropic_chsh(flipped).lhs == pytest.approx(entropic_chsh(b).lhs, abs=1e-10)


def _signaling_behavior() -> Behavior:
    p = np.zeros((2, 2, 2, 2))
    for x, y in np.ndindex(2, 2):
        p[y, 0, x, y] = 1.0  # Alice's outcome is Bob's setting
    return Behavior(p)


def test_entropic_chsh_equals_the_per_setting_mutual_informations_exactly():
    rng = np.random.default_rng(73)
    pr, uniform = Behavior.pr_box().p, Behavior.uniform().p
    behaviors = [random_local_behavior(rng) for _ in range(60)]
    behaviors += [Behavior(lam * pr + (1 - lam) * uniform) for lam in rng.uniform(size=60)]
    behaviors += [s.behavior() for s in enumerate_strategies()]  # zero cells
    behaviors += [Behavior.pr_box(), _signaling_behavior()]
    # the settings are checked once, so their entropy must still be entropy's
    # own, also on a zero cell, a dip below 0 that the check clears, and a list
    settings = [None, np.array([[0.5, 0.25], [0.125, 0.125]]), rng.dirichlet(np.ones(4)).reshape(2, 2)]
    settings += [np.array([[0.5, 0.5], [0.0, 0.0]]), np.array([[0.5, 0.5 + 1e-13], [-1e-13, 0.0]])]
    settings += [[[0.7, 0.1], [0.1, 0.1]]]
    for b, s in itertools.product(behaviors, settings):
        r = entropic_chsh(b, s)
        infos = tuple(mutual_information(b.p[:, :, x, y]) for x in range(2) for y in range(2))
        assert r.mutual_informations == infos
        assert r.lhs == infos[0] + infos[1] + infos[2] - infos[3]
        h = entropy(np.full((2, 2), 0.25) if s is None else s)
        assert (r.rhs, r.settings_entropy) == (2.0 * h, h)
        assert r.holds == (r.lhs <= r.rhs + INEQUALITY_SLACK)


def test_entropy_vector_from_joint_members():
    rng = np.random.default_rng(73)
    for _ in range(30):
        joint = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        vec = EntropyVector.from_joint(joint)
        assert shannon_cone_check(vec).member
    for _ in range(10):
        joint = rng.dirichlet(np.ones(16)).reshape(2, 2, 2, 2)
        assert shannon_cone_check(EntropyVector.from_joint(joint)).member
    # larger alphabets too
    joint = rng.dirichlet(np.ones(18)).reshape(3, 3, 2)
    assert shannon_cone_check(EntropyVector.from_joint(joint)).member


def test_subadditivity_violation_detected():
    vec = EntropyVector(np.array([0.0, 0.5, 0.5, 1.5]), 2)
    result = shannon_cone_check(vec)
    assert not result.member
    assert any(v.kind == "submodularity" for v in result.violations)


def test_monotonicity_violation_detected():
    vec = EntropyVector(np.array([0.0, 1.0, 1.0, 0.5]), 2)
    result = shannon_cone_check(vec)
    assert not result.member
    assert any(v.kind == "monotonicity" for v in result.violations)


def test_all_zero_vector_is_member():
    assert shannon_cone_check(EntropyVector(np.zeros(8), 3)).member


def test_incomplete_vector_rejected():
    with pytest.raises(ValidationError):
        EntropyVector(np.zeros(7), 3)
    with pytest.raises(ValidationError):
        EntropyVector(np.zeros(32), 5)
