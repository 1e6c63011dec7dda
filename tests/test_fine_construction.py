"""Property-based checks of Fine's construction behind ``local_membership``.

Behaviors are drawn local (strategy mixtures with biased marginals, some
with a Bob pair (b0, b1) of probability 0), as the 16 strategies, and as
mixtures of a local behavior with a PR box whose CHSH excess lies in the
tolerance band.  A member's weights must be a probability vector that
reproduces the behavior, and the verdict must be the strategy LP's
(``fine_check``), which decides with the same two tests.
Examples are derandomized, so the suite stays deterministic.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings, strategies as st  # noqa: E402

from polybounds import Behavior, behavior_to_correlations, chsh_variant_values, fine_check, local_membership  # noqa: E402
from polybounds.polytope import STRATEGY_BEHAVIORS, STRATEGY_SIGNS  # noqa: E402
from conftest import reconstruction_error  # noqa: E402

PROPERTY_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Bob's pair (b0, b1) of each strategy as an index 2 b0 + b1 (bit 0 is +1).
BOB_PAIR = (2 * (STRATEGY_SIGNS[:, 2] < 0) + (STRATEGY_SIGNS[:, 3] < 0)).astype(int)


@st.composite
def strategy_weights(draw) -> np.ndarray:
    """Weights over the 16 strategies; a power above 1 concentrates them and
    biases the marginals, and a drawn Bob pair may be left out."""
    values = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16)))
    w = values ** draw(st.sampled_from((1.0, 4.0, 16.0)))
    pair = draw(st.sampled_from((None, 0, 1, 2, 3)))
    if pair is not None:
        w[BOB_PAIR == pair] = 0.0
    assume(w.sum() > 1e-3)
    return w / w.sum()


def _mix(w: np.ndarray) -> Behavior:
    return Behavior(np.tensordot(w, STRATEGY_BEHAVIORS, axes=(0, 0)))


def _check_member(b: Behavior, tol: float, accuracy: float) -> None:
    cert = local_membership(b, tol)
    assert cert.member
    assert cert.weights.min() >= 0.0
    assert abs(cert.weights.sum() - 1.0) <= 1e-12
    assert reconstruction_error(cert.weights, b) <= accuracy


@PROPERTY_SETTINGS
@given(strategy_weights())
def test_local_behaviors_are_rebuilt_from_their_joint(w):
    b = _mix(w)
    _check_member(b, 1e-9, 1e-12)
    assert fine_check(b).joint_exists


@pytest.mark.parametrize("k", range(16))
def test_each_strategy_is_its_own_joint(k):
    cert = local_membership(Behavior(STRATEGY_BEHAVIORS[k]))
    assert cert.member
    expected = np.zeros(16)
    expected[k] = 1.0
    assert np.abs(cert.weights - expected).max() <= 1e-15


@PROPERTY_SETTINGS
@given(
    strategy_weights(),
    st.floats(0.0, 1.0),
    st.sampled_from((-1.0, 1.0)),
    st.floats(-12.0, -8.0),
    st.sampled_from((1e-9, 1e-11)),
)
def test_facet_band_mixtures_get_the_lp_verdict(w, shrink, sign, exponent, tol):
    # a local behavior pulled toward the uniform one, then mixed with the PR
    # box until its canonical CHSH value is 2 + sign 10^exponent
    local = shrink * _mix(w).p + (1.0 - shrink) * Behavior.uniform().p
    value = float(chsh_variant_values(behavior_to_correlations(Behavior(local)))[3])
    mu = (2.0 + sign * 10.0**exponent - value) / (4.0 - value)
    assume(0.0 <= mu <= 1.0)
    b = Behavior((1.0 - mu) * local + mu * Behavior.pr_box().p)
    excess = float(chsh_variant_values(behavior_to_correlations(b)).max()) - 2.0
    assume(abs(2.0 * excess - tol) > 1e-3 * tol)  # clear of the LP's own rounding at the threshold
    member = local_membership(b, tol).member
    assert member == fine_check(b, tol).joint_exists == (2.0 * excess <= tol)
    if member:
        _check_member(b, tol, tol)
