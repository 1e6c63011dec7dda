import numpy as np
import pytest

from polybounds import (
    CHSH_COEFFS,
    Behavior,
    CorrelationTable,
    DichotomicObservable,
    EntropyVector,
    ExperimentalData,
    Interval,
    NormalizationError,
    NpaLevel,
    ObservationalData,
    ObservedIVTable,
    ResponseTypeDist,
    TwoQubitState,
    ValidationError,
    behavior_to_correlations,
    chsh_value,
    chsh_variant_values,
    entropic_chsh,
    comonotone_coupling,
    entropy,
    frechet_bounds,
    iv_table_from_response_dist,
    local_max,
    manski_bounds,
    mutual_information,
    no_signaling_max,
    npa_bound,
    quantum_gap_report,
    tsirelson_bound,
)
from polybounds.model import check_probability
from polybounds.quantum import PAULI_X, PAULI_Y, PAULI_Z
from polybounds.solvers import TOL
from conftest import random_local_behavior, random_nosignaling_behavior


def test_uniform_behavior_has_zero_correlations():
    e = behavior_to_correlations(Behavior.uniform()).e
    assert np.abs(e).max() == 0.0


def test_pr_box_correlations_and_value():
    e = behavior_to_correlations(Behavior.pr_box()).e
    np.testing.assert_allclose(e, [[1, 1], [1, -1]])
    assert chsh_value(CorrelationTable(e)) == pytest.approx(4.0, abs=1e-12)


def test_chsh_examples():
    assert chsh_value(CorrelationTable(np.ones((2, 2)))) == pytest.approx(2.0)
    s = np.sqrt(2) / 2
    tsirelson = CorrelationTable([[s, s], [s, -s]])
    assert chsh_value(tsirelson) == pytest.approx(2 * np.sqrt(2), abs=1e-12)


def test_a_bare_array_is_read_as_a_correlation_table():
    with pytest.raises(ValidationError, match=r"\[-1, 1\]"):
        chsh_variant_values(5 * np.ones((2, 2)))
    with pytest.raises(ValidationError, match="shape"):
        chsh_value(np.ones(3))


def test_negative_entry_rejected():
    p = np.full((2, 2, 2, 2), 0.25)
    p[0, 0, 0, 0] = -0.01
    p[1, 1, 0, 0] = 0.51
    with pytest.raises(ValidationError):
        Behavior(p)


def test_bad_normalization_rejected_and_renormalize_helper():
    p = np.full((2, 2, 2, 2), 0.3)
    with pytest.raises(NormalizationError):
        Behavior(p)
    b = Behavior.renormalize(p)
    assert np.abs(b.p.sum(axis=(0, 1)) - 1.0).max() < 1e-12


def test_signaling_flagged_not_rejected():
    p = np.full((2, 2, 2, 2), 0.25)
    # make Alice's marginal at x=0 depend on y
    p[:, :, 0, 0] = [[0.5, 0.3], [0.1, 0.1]]
    p[:, :, 0, 1] = [[0.1, 0.1], [0.3, 0.5]]
    b = Behavior(p)
    assert not b.no_signaling_at(TOL)


def test_behavior_to_correlations_is_linear():
    rng = np.random.default_rng(11)
    for _ in range(25):
        b1 = random_nosignaling_behavior(rng)
        b2 = random_nosignaling_behavior(rng)
        lam = rng.uniform()
        mixed = Behavior(lam * b1.p + (1 - lam) * b2.p)
        expected = lam * behavior_to_correlations(b1).e + (1 - lam) * behavior_to_correlations(b2).e
        np.testing.assert_allclose(behavior_to_correlations(mixed).e, expected, atol=1e-12)


def test_local_mixtures_respect_all_chsh_variants():
    rng = np.random.default_rng(12)
    for _ in range(50):
        b = random_local_behavior(rng)
        variants = chsh_variant_values(behavior_to_correlations(b))
        assert np.abs(variants).max() <= 2.0 + 1e-9


def test_nosignaling_chsh_within_four():
    rng = np.random.default_rng(13)
    for _ in range(50):
        b = random_nosignaling_behavior(rng)
        assert abs(chsh_value(behavior_to_correlations(b))) <= 4.0 + 1e-9


def test_variant_table_shape_and_canonical_position():
    variants = chsh_variant_values(CorrelationTable([[1, 1], [1, -1]]))
    assert variants.shape == (8,)
    assert variants[3] == pytest.approx(4.0)  # canonical CHSH sits at index 3


def test_interval_invariants():
    iv = Interval(0.2, 0.7)
    assert iv.width == pytest.approx(0.5)
    assert iv.contains(0.2) and iv.contains(0.7) and not iv.contains(0.71)
    with pytest.raises(ValidationError):
        Interval(1.0, 0.0)
    # tolerated inversion within slack
    Interval(1.0, 1.0 - 1e-13)


def test_response_type_dist_validation():
    ResponseTypeDist(np.full(16, 1 / 16))
    with pytest.raises(NormalizationError):
        ResponseTypeDist(np.full(16, 0.1))
    with pytest.raises(ValidationError):
        ResponseTypeDist(np.full(8, 0.125))


def test_iv_table_validation():
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = 1.0
    p[0, 0, 1] = 1.0
    ObservedIVTable(p)
    with pytest.raises(NormalizationError):
        ObservedIVTable(p * 0.5)
    t = ObservedIVTable.renormalize(p * 0.5)
    assert np.abs(t.p.sum(axis=(0, 1)) - 1.0).max() < 1e-12


def test_correlation_table_range_check():
    with pytest.raises(ValidationError):
        CorrelationTable([[1.5, 0], [0, 0]])


@pytest.mark.parametrize(
    "build",
    [
        lambda: ObservationalData([[0.0, 0.0], [0.0, 0.0]]),
        lambda: ResponseTypeDist(np.full(16, 0.5)),
        lambda: entropy([0.25, 0.25]),
    ],
    ids=["observational-data", "response-type-dist", "entropy"],
)
def test_normalization_messages_print_plain_floats(build):
    with pytest.raises(ValidationError) as info:
        build()
    assert "np.float64" not in str(info.value)


# (builder, a valid input, what its errors name, the attribute holding the stored table)
PROBABILITY_INPUTS = {
    "behavior": (Behavior, np.full((2, 2, 2, 2), 0.25), "behavior", "p"),
    "iv-table": (ObservedIVTable, np.full((2, 2, 2), 0.25), "IV table", "p"),
    "response-type-dist": (ResponseTypeDist, np.full(16, 1 / 16), "response-type distribution", "q"),
    "observational-data": (ObservationalData, np.full((2, 2), 0.25), "observational joint", "joint"),
    "entropy": (entropy, np.full(4, 0.25), "distribution", None),
    "mutual-information": (mutual_information, np.full((2, 2), 0.25), "distribution", None),
    "entropic-chsh-settings": (
        lambda s: entropic_chsh(Behavior.uniform(), s).settings_entropy,
        np.full((2, 2), 0.25),
        "settings distribution",
        None,
    ),
}


def _nested(p, first):
    """``p`` as nested lists with ``first`` in place of its first entry."""
    rows = p.tolist()
    inner = rows
    while isinstance(inner[0], list):
        inner = inner[0]
    inner[0] = first
    return rows


def _with_first_cell(p, value):
    """``p`` with ``value`` in its first cell, the block's sum kept by the cell
    one step along axis 0 (in the same block of every table type)."""
    q = p.copy()
    first, partner = (0,) * p.ndim, (1,) + (0,) * (p.ndim - 1)
    q[partner] += q[first] - value
    q[first] = value
    return q


@pytest.mark.parametrize("name", PROBABILITY_INPUTS)
def test_every_probability_input_is_checked_by_one_rule(name):
    build, p, what, attr = PROBABILITY_INPUTS[name]
    build(p)
    off = p.copy()
    off.flat[0] += 1e-11
    bad = (
        _with_first_cell(p, np.nan),
        _with_first_cell(p, np.inf),
        _with_first_cell(p, -2e-12),
        off,
        _nested(p, [p.flat[0]]),  # ragged
        _nested(p, 10**400),  # an integer past the float range
    )
    for values in bad:
        with pytest.raises(ValidationError, match=what):
            build(values)
    if name != "entropy":  # entropy takes a distribution of any shape
        with pytest.raises(ValidationError):
            build(p[..., None])
    # a dip of 1e-13 below zero is rounding: it is set to 0
    dipped = build(_with_first_cell(p, -1e-13))
    if attr is None:
        assert dipped == pytest.approx(build(_with_first_cell(p, 0.0)), abs=1e-12)
    else:
        table = getattr(dipped, attr)
        assert table.flat[0] == 0.0 and not table.flags.writeable


# (builder, a valid input, what its errors name) of every array input
ARRAY_INPUTS = {
    **{name: spec[:3] for name, spec in PROBABILITY_INPUTS.items()},
    "functional": (local_max, np.array([[1.0, 1.0], [1.0, -1.0]]), "functional"),
    "correlation-table": (CorrelationTable, np.full((2, 2), 0.5), "correlation table"),
}


@pytest.mark.parametrize("name", ARRAY_INPUTS)
@pytest.mark.parametrize(
    "entry, kind",
    [(str, "str"), (lambda v: True, "bool"), (lambda v: np.True_, "bool"), (np.str_, "str_"), (lambda v: b"1", "bytes")],
    ids=["string", "bool", "numpy-bool", "numpy-string", "bytes"],
)
def test_every_array_input_refuses_string_and_boolean_entries(name, entry, kind):
    # numpy would read "0.25" as 0.25 and True as 1.0
    build, p, what = ARRAY_INPUTS[name]
    with pytest.raises(ValidationError) as raised:
        build(_nested(p, entry(p.flat[0])))
    assert str(raised.value) == f"{what} has an entry of type {kind}, not a number"


@pytest.mark.parametrize(
    "values, kind",
    [
        (np.full((2, 2, 2), True), "bool"),
        (np.full((2, 2, 2), "0.25"), "str_"),
        ([[["0.25", True], ["0.25", 0.0]], [["0.25", 0.0], ["0.25", False]]], "str"),  # the first one is named
    ],
    ids=["bool-array", "string-array", "mixed-list"],
)
def test_an_iv_table_of_booleans_or_strings_is_refused(values, kind):
    with pytest.raises(ValidationError) as raised:
        ObservedIVTable(values)
    assert str(raised.value) == f"IV table has an entry of type {kind}, not a number"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: iv_table_from_response_dist(["0.0625"] * 16), "response-type distribution has an entry of type str"),
        (lambda: iv_table_from_response_dist([True] + [0.0] * 15), "response-type distribution has an entry of type bool"),
        (lambda: iv_table_from_response_dist([[1, 2], [3]]), "response-type distribution is not a rectangular array"),
        (lambda: EntropyVector([0.0, np.nan, 1.0, 1.0], 2), "entropy vector has non-finite components"),
        (lambda: EntropyVector([0, "1", 1, 1], 2), "entropy vector has an entry of type str"),
        (lambda: EntropyVector.from_joint([["0.5", 0.5], [0, 0]]), "joint distribution has an entry of type str"),
        (lambda: DichotomicObservable.from_bloch(["1", 0, 0]), "Bloch vector has an entry of type str"),
        (lambda: DichotomicObservable.from_bloch([1, 0]), r"Bloch vector must have 3 entries, got shape \(2,\)"),
        (lambda: TwoQubitState.from_ket([1, 0, 0]), r"state vector must have 4 entries, got shape \(3,\)"),
    ],
    ids=["types-string", "types-bool", "types-ragged", "entropy-nan", "entropy-string", "joint-string",
         "bloch-string", "bloch-short", "ket-short"],
)
def test_the_remaining_array_readers_share_the_entry_rule(build, message):
    # each was once read with np.asarray, which takes "0.0625" and True as
    # numbers, or failed in numpy's own reshape
    with pytest.raises(ValidationError, match=message):
        build()


def test_unit_vectors_near_the_float_range_are_rescaled_before_their_norm():
    # the norm of these overflows; any other vector keeps the bits of v / |v|
    huge, unit = DichotomicObservable.from_bloch([1e308, 1e308, 0]), DichotomicObservable.from_bloch([1, 1, 0])
    assert np.array_equal(huge.m, unit.m)
    assert np.array_equal(TwoQubitState.from_ket([1e308, 1e308, 0, 0]).rho, TwoQubitState.from_ket([1, 1, 0, 0]).rho)
    v = np.random.default_rng(0).normal(size=3)
    u = v / np.linalg.norm(v)
    assert np.array_equal(DichotomicObservable.from_bloch(v).m, u[0] * PAULI_X + u[1] * PAULI_Y + u[2] * PAULI_Z)


@pytest.mark.parametrize(
    "bound",
    [local_max, no_signaling_max, tsirelson_bound, lambda f: npa_bound(NpaLevel.L1, f), quantum_gap_report],
    ids=["local_max", "no_signaling_max", "tsirelson_bound", "npa_bound", "quantum_gap_report"],
)
@pytest.mark.parametrize(
    "functional",
    [[[np.nan, 1.0], [1.0, -1.0]], np.ones((3, 2)), [[1, 2], [3]], [[10**400, 1], [1, -1]]],
    ids=["nan", "3x2", "ragged", "huge"],
)
def test_every_functional_input_is_checked_by_one_rule(bound, functional):
    with pytest.raises(ValidationError, match="functional"):
        bound(functional)


@pytest.mark.parametrize("build", [CorrelationTable, Behavior.from_correlations], ids=["table", "behavior"])
@pytest.mark.parametrize(
    "correlations",
    [[[np.nan, 0.0], [0.0, 0.0]], [[1.5, 0.0], [0.0, 0.0]], np.zeros((3, 2)), [[1, 0], [0]], [[10**400, 0], [0, 0]]],
    ids=["nan", "out-of-range", "3x2", "ragged", "huge"],
)
def test_every_correlation_input_is_checked_by_one_rule(build, correlations):
    with pytest.raises(ValidationError, match="correlat"):
        build(correlations)


@pytest.mark.parametrize("table", [Behavior, ObservedIVTable])
def test_renormalize_rejects_a_ragged_table(table):
    with pytest.raises(ValidationError, match=table._WHAT):
        table.renormalize([[1, 0], [0]])


@pytest.mark.parametrize("table", [Behavior, ObservedIVTable])
@pytest.mark.parametrize("value, mass", [(0.0, "0.000e+00"), (1e308, "inf")], ids=["zero", "past-float-range"])
def test_renormalize_rejects_a_block_without_a_positive_finite_mass(table, value, mass):
    # pytest turns an overflow warning into an error, so none may be raised
    message = f"{table._WHAT} has a block of mass {mass}, which cannot be rescaled to 1"
    with pytest.raises(ValidationError) as raised:
        table.renormalize(np.full(table._SHAPE, value))
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "check",
    [lambda v: frechet_bounds(v, 0.5), lambda v: manski_bounds(0.5, 0.5, v), lambda v: ExperimentalData(0.5, v)],
    ids=["frechet", "manski", "experimental-data"],
)
@pytest.mark.parametrize(
    "value, message",
    [
        (True, "must be a number, got bool"),
        ("0.5", "must be a number, got str"),
        (None, "must be a number, got NoneType"),
        ([0.5], "must be a number, got list"),
        (10**400, "is past the floating-point range"),
        (float("inf"), "must lie in [0, 1], got inf"),
        (float("nan"), "must lie in [0, 1], got nan"),
        (2, "must lie in [0, 1], got 2.0"),
        (-1e-300, "must lie in [0, 1], got -1e-300"),
    ],
    ids=["true", "string", "none", "list", "huge-int", "inf", "nan", "int", "negative"],
)
def test_every_scalar_probability_is_checked_by_one_rule(check, value, message):
    with pytest.raises(ValidationError) as raised:
        check(value)
    assert str(raised.value).endswith(message)


def test_a_scalar_probability_is_returned_as_a_float():
    assert [type(v) for v in (check_probability(1, "u"), check_probability(np.float32(0.5), "u"))] == [float, float]
    data = ExperimentalData(1, 0)
    assert (data.p_do1, data.p_do0) == (1.0, 0.0) and type(data.p_do0) is float
    assert [type(v) for v in (frechet_bounds(1, 0).hi, comonotone_coupling(1, 0)[0, 1])] == [float, np.float64]


def test_functionals_may_be_correlation_tables():
    chsh = CorrelationTable(CHSH_COEFFS)
    assert (local_max(chsh), no_signaling_max(chsh), tsirelson_bound(chsh)) == (2.0, 4.0, 2 * np.sqrt(2))
