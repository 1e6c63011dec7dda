"""Property-based checks of the command line over generated request
documents, and of the instrumental-variable closed forms under relabeling.

Documents of every kind are drawn valid, then one field may be replaced by
a value of the wrong type or range.  Every document must end in a
documented exit code with strict JSON on stdout (no NaN or Infinity, also
for functionals whose values pass the float range), the same bytes every
time, and results that do not depend on the axis order an array is
written in.  The one-pass report emitter must write the bytes of the
two-pass renderer it replaced, on generated trees of every value type a
report can hold.  The closed-form effect bounds must map under the IV
scenario's 8 relabelings as the effect does, in the library and in the
``iv-bounds``, ``gap`` and ``pns`` reports, and the Bell scenario's
relabelings must keep membership verdicts and functional values and map a
violated facet to its image.  Examples are derandomized, so the suite
stays deterministic.
"""

import contextlib
import io
import itertools
import json
import math
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from polybounds import (  # noqa: E402
    CHSH_VARIANTS,
    RESPONSE_MATRIX,
    ExperimentalData,
    FloatRangeError,
    Interval,
    NpaLevel,
    ObservationalData,
    ObservedIVTable,
    ace_bounds,
    local_max,
    no_signaling_max,
    pns_bounds,
    quantum_ace_bounds,
    tsirelson_bound,
)
from polybounds.cli import KINDS, canonical_json, main  # noqa: E402
from polybounds.polytope import STRATEGY_BEHAVIORS  # noqa: E402
from conftest import (  # noqa: E402
    one_sided_iv_table,
    random_counterfactual_instance,
    random_iv_table,
    random_nosignaling_behavior,
    two_qubit_iv_table,
)

PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: The two kinds that can run the interior-point solver (on a table, or
#: under audit) are drawn once each per 26 documents, the other eight three
#: times each.
SDP_KINDS = ("npa", "gap")
kinds = st.sampled_from(tuple(k for k in KINDS if k not in SDP_KINDS) * 3 + SDP_KINDS)

weights = st.floats(0.01, 1.0)
unit = st.floats(0.0, 1.0)
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(10**309, 10**320),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=3),
    st.just({}),
)


def _blocks(shape, values):
    """Nonnegative array whose blocks over the two leading axes sum to one."""
    arr = np.array(values).reshape(shape)
    return arr / arr.sum(axis=(0, 1))


def _array(n, build):
    return st.lists(weights, min_size=n, max_size=n).map(build)


behaviors = st.one_of(
    _array(16, lambda v: _blocks((2, 2, 2, 2), v)),
    _array(16, lambda v: np.tensordot(np.array(v) / sum(v), STRATEGY_BEHAVIORS, axes=(0, 0))),
)
iv_tables = st.one_of(
    _array(8, lambda v: _blocks((2, 2, 2), v)),
    _array(16, lambda v: (RESPONSE_MATRIX @ (np.array(v) / sum(v))).reshape(2, 2, 2)),
)
joints = _array(4, lambda v: np.array(v).reshape(2, 2) / sum(v))
#: Unit-size functionals, or coefficients of magnitude 0.5 to 1 times a scale
#: up to 1e308, where the closed-form values can pass the float range.
functionals = st.one_of(
    st.lists(st.floats(-4.0, 4.0), min_size=4, max_size=4),
    st.builds(
        lambda v, signs, scale: [c * s * scale for c, s in zip(v, signs)],
        st.lists(st.floats(0.5, 1.0), min_size=4, max_size=4),
        st.lists(st.sampled_from((-1.0, 1.0)), min_size=4, max_size=4),
        st.sampled_from((1e20, 1e300, 1e308)),
    ),
).map(lambda v: np.array(v).reshape(2, 2))
correlations = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).map(lambda v: np.array(v).reshape(2, 2))

#: Axis names of each array field, in the order the arrays above are built.
AXES = {
    "behavior": ("a", "b", "x", "y"),
    "table": ("y", "x", "z"),
    "functional": ("x", "y"),
    "correlations": ("x", "y"),
    "settings": ("x", "y"),
    "joint": ("x", "y"),
}


def _payload(data, kind: str) -> dict:
    draw = data.draw
    if kind == "iv-bounds":
        return {"table": draw(iv_tables)}
    if kind == "chsh":
        return draw(st.sampled_from([{"correlations": draw(correlations)}, {"behavior": draw(behaviors)}]))
    if kind in ("membership", "entropic"):
        payload = {"behavior": draw(behaviors)}
        if kind == "entropic" and draw(st.booleans()):
            payload["settings"] = draw(joints)
        return payload
    if kind == "npa":
        return {"functional": draw(functionals)}
    if kind == "gap":
        field, values = draw(
            st.sampled_from([("functional", functionals), ("behavior", behaviors), ("table", iv_tables)])
        )
        return {field: draw(values)}
    if kind == "pns":
        return {
            "experimental": {"p_do1": draw(unit), "p_do0": draw(unit)},
            "observational": {"joint": draw(joints)},
        }
    if kind == "manski":
        return {"e1": draw(unit), "e0": draw(unit), "px1": draw(unit)}
    if kind == "frechet":
        return {"u": draw(unit), "v": draw(unit)}
    return {
        "suite": draw(st.sampled_from(["all", "lp", "pns", "membership"])),
        "samples": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 2**32)),
    }


def _options(data) -> dict:
    draw = data.draw
    options = {"npa_level": "1"}
    for name, values in (
        ("tolerance", st.floats(1e-12, 1e-3)),
        ("audit", st.booleans()),
        ("renormalize", st.booleans()),
        ("variant", st.sampled_from(["standard", "paper-literal"])),
    ):
        if draw(st.booleans()):
            options[name] = draw(values)
    return options


def _to_json(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _to_json(v) for k, v in obj.items()}
    return obj


def _document(data, kind: str) -> dict:
    return _to_json({"schema": 1, "kind": kind, "payload": _payload(data, kind), "options": _options(data)})


def _spoil(data, doc: dict) -> dict:
    """Replace one field by a junk value: a top-level field, a payload or
    option field, or a field of an object inside the payload."""
    slots = [(doc, k) for k in ("schema", "kind", "payload", "options")]
    slots += [(doc["payload"], k) for k in doc["payload"]] + [(doc["options"], k) for k in doc["options"]]
    slots += [(v, k) for v in doc["payload"].values() if isinstance(v, dict) for k in v]
    container, key = data.draw(st.sampled_from(slots))
    container[key] = data.draw(junk)
    return doc


def _strict(token: str):
    raise ValueError(f"stdout holds the non-finite number {token}")


def _parse(out: str):
    """Strict JSON: NaN and Infinity are rejected."""
    return json.loads(out, parse_constant=_strict)


def _run(doc) -> tuple[int, str]:
    """Exit code and stdout of the CLI on the document (a spoiled kind runs as manski)."""
    kind = doc["kind"] if doc.get("kind") in KINDS else "manski"
    saved, out = sys.stdin, io.StringIO()
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out):
            code = main([kind, "--input", "-"])
    finally:
        sys.stdin = saved
    return code, out.getvalue()


@PROPERTY_SETTINGS
@given(st.data())
def test_every_document_ends_in_a_documented_exit_code(data):
    kind = data.draw(kinds)
    doc = _document(data, kind)
    if data.draw(st.booleans()):
        doc = _spoil(data, doc)
    code, out = _run(doc)  # an escaping exception fails the test
    assert code in (0, 2, 3, 4)
    report = _parse(out)
    assert ("error" in report) == (code != 0)
    if code:
        assert report["error"]["code"] == code


@PROPERTY_SETTINGS
@given(st.data())
def test_functionals_of_every_magnitude_end_in_strict_json(data):
    """Closed-form values past the float range end in exit 4, never in a
    non-finite number on stdout."""
    kind = data.draw(st.sampled_from(SDP_KINDS))
    doc = _to_json({"schema": 1, "kind": kind, "payload": {"functional": data.draw(functionals)}})
    code, out = _run(doc)
    assert code in (0, 4)
    report = _parse(out)
    if code:
        assert report["error"]["type"] == "FloatRangeError"


@PROPERTY_SETTINGS
@given(st.data())
def test_the_same_document_gives_the_same_bytes(data):
    doc = _document(data, data.draw(kinds))
    if data.draw(st.booleans()):
        doc = _spoil(data, doc)
    text = json.dumps(doc)
    assert _run(json.loads(text)) == _run(json.loads(text))


@PROPERTY_SETTINGS
@given(st.data())
def test_axis_order_does_not_change_results(data):
    kind = data.draw(kinds.filter(lambda k: k not in ("manski", "frechet", "audit")))
    doc = _document(data, kind)
    permuted = json.loads(json.dumps(doc))
    holders = [permuted["payload"]] + [v for v in permuted["payload"].values() if isinstance(v, dict)]
    for holder in holders:
        for name, values in list(holder.items()):
            if name in AXES:
                axes = AXES[name]
                perm = data.draw(st.permutations(range(len(axes))))
                holder[name] = {
                    "values": np.transpose(np.array(values), perm).tolist(),
                    "order": [axes[i] for i in perm],
                }
    code, out = _run(doc)
    code_p, out_p = _run(permuted)
    assert code == code_p
    if code:
        assert _parse(out)["error"] == _parse(out_p)["error"]
    else:
        report, report_p = _parse(out), _parse(out_p)
        assert report["results"] == report_p["results"]
        assert report["warnings"] == report_p["warnings"]


# ---------------------------------------------------------------------------
# the report emitter against the two-pass renderer it replaced


def _round12(x: float) -> float:
    if not math.isfinite(x):
        raise FloatRangeError(f"result {x} is past the floating-point range")
    return 0.0 if x == 0.0 else float(f"{x:.12g}")


def _rounded(obj):
    """The rounded tree the two-pass renderer built before encoding.  An
    array goes through ``tolist`` whole, so a 0-d array is its scalar."""
    if isinstance(obj, dict):
        return {str(k): _rounded(obj[k]) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _rounded(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _round12(float(obj))
    if isinstance(obj, Interval):
        return {"lo": _round12(obj.lo), "hi": _round12(obj.hi), "width": _round12(obj.width)}
    return obj


def _two_pass(obj) -> str:
    return json.dumps(_rounded(obj), sort_keys=True, indent=2, ensure_ascii=True)


def _distinct_keys(d: dict) -> dict:
    """``d`` without the keys that print like an earlier one: the keys of a
    report are distinct as text."""
    kept: dict = {}
    for k, v in d.items():
        kept.setdefault(str(k), (k, v))
    return dict(kept.values())


finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((-0.0, 5e-324, -5e-324, 1e16, 1e22, 1e-7, 0.1, 1.7976931348623157e308)),
    # 13 significant digits ending in 5: a tie of the 12-digit rounding
    st.builds(lambda m, e: float(f"{m}5e{e}"), st.integers(10**11, 10**12 - 1), st.integers(-330, 290)),
)
texts = st.one_of(st.text(max_size=6), st.sampled_from(("", "\x00\x1f\x7f\"\\", "\u00e9\u2603", "\U0001f600", "\u2028")))
arrays = hnp.arrays(
    st.sampled_from((np.float64, np.int64, np.bool_)),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
    elements={"allow_nan": False, "allow_infinity": False},
)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    finite,
    texts,
    finite.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    arrays,
    st.tuples(finite, finite).map(lambda ends: Interval(min(ends), max(ends))),
)
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.integers(), texts), children, max_size=4).map(_distinct_keys),
    ),
    max_leaves=24,
)


def _outcome(render, obj):
    try:
        return render(obj)
    except FloatRangeError:
        return FloatRangeError


@settings(PROPERTY_SETTINGS, max_examples=400)
@given(trees)
def test_the_emitter_writes_the_two_pass_bytes(tree):
    expected = _outcome(_two_pass, tree)
    assert _outcome(canonical_json, tree) == expected
    # a --batch entry opens at indent level 1
    entry = _outcome(lambda t: "[\n  " + canonical_json(t, 1) + "\n]", tree)
    assert entry == _outcome(_two_pass, [tree])


def _plant(data, tree, bad):
    """``[tree]`` with ``bad`` added to a drawn list or dict anywhere in it."""
    root = [tree]
    holders, stack = [], [root]
    while stack:
        node = stack.pop()
        if isinstance(node, (list, dict)):
            holders.append(node)
        if isinstance(node, (list, tuple, dict)):
            stack.extend(node.values() if isinstance(node, dict) else node)
    holder = data.draw(st.sampled_from(holders))
    if isinstance(holder, list):
        holder.insert(data.draw(st.integers(0, len(holder))), bad)
    else:
        holder[data.draw(texts)] = bad
    return root


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(st.data())
def test_a_non_finite_number_anywhere_raises(data):
    x = data.draw(st.sampled_from((math.nan, math.inf, -math.inf)))
    bad = data.draw(st.sampled_from((x, np.float64(x), np.float32(x), np.array([0.5, x]), (x,))))
    root = _plant(data, data.draw(trees), bad)
    with pytest.raises(FloatRangeError):
        canonical_json(root)


# ---------------------------------------------------------------------------
# relabelings of the instrumental-variable scenario

#: The 8 relabelings (swap z, flip x, flip y): a swap of the instrument keeps
#: the effect, and a flip of the treatment or of the outcome negates it.
relabelings = st.tuples(st.booleans(), st.booleans(), st.booleans())
IV_FAMILIES = (random_iv_table, one_sided_iv_table, two_qubit_iv_table)
iv_families = st.sampled_from(IV_FAMILIES)
seeds = st.integers(0, 2**32 - 1)


def _relabeled(table: ObservedIVTable, swap_z: bool, flip_x: bool, flip_y: bool) -> ObservedIVTable:
    """p(y, x | z) with the labels of each chosen variable exchanged."""
    return ObservedIVTable(table.p[::-1 if flip_y else 1, ::-1 if flip_x else 1, ::-1 if swap_z else 1])


def _assert_maps(bounds: Interval, relabeled: Interval, flip_x: bool, flip_y: bool, atol: float = 1e-15) -> None:
    """``relabeled`` is ``bounds`` mapped as the effect maps.  The closed
    forms sum the cells in another order once they are relabeled, so an
    endpoint may move by an ulp."""
    image = (bounds.lo, bounds.hi) if flip_x == flip_y else (-bounds.hi, -bounds.lo)
    np.testing.assert_allclose((relabeled.lo, relabeled.hi), image, rtol=0, atol=atol)


@PROPERTY_SETTINGS
@given(iv_families, seeds, relabelings)
def test_ace_bounds_map_under_the_iv_relabelings(family, seed, relabeling):
    table = family(np.random.default_rng(seed))
    _assert_maps(ace_bounds(table), ace_bounds(_relabeled(table, *relabeling)), *relabeling[1:])


@PROPERTY_SETTINGS
@given(iv_families, seeds, relabelings)
def test_level1_closed_form_maps_under_the_iv_relabelings(family, seed, relabeling):
    table = family(np.random.default_rng(seed))
    bounds, relabeled = (quantum_ace_bounds(t, NpaLevel.L1)[0] for t in (table, _relabeled(table, *relabeling)))
    _assert_maps(bounds, relabeled, *relabeling[1:])


@PROPERTY_SETTINGS
@given(seeds)
def test_pns_bounds_keep_under_a_joint_flip_of_treatment_and_outcome(seed):
    # Y'(x) = 1 - Y(1 - x) keeps the event {Y(1) = 1, Y(0) = 0}
    exp, obs = random_counterfactual_instance(np.random.default_rng(seed))
    bounds = pns_bounds(exp, obs)
    flipped = pns_bounds(ExperimentalData(1.0 - exp.p_do0, 1.0 - exp.p_do1), ObservationalData(obs.joint[::-1, ::-1]))
    np.testing.assert_allclose((flipped.lo, flipped.hi), (bounds.lo, bounds.hi), rtol=0, atol=1e-15)


#: Reports print 12 significant digits, so a mapped endpoint read from the
#: CLI may differ from its image in the last printed digit.
CLI_ATOL = 1e-11


def _results(kind: str, payload: dict, **options) -> dict:
    code, out = _run({"schema": 1, "kind": kind, "payload": payload, "options": options})
    assert code == 0
    return _parse(out)["results"]


def _interval(record: dict) -> Interval:
    return Interval(record["lo"], record["hi"])


@pytest.mark.parametrize("family", IV_FAMILIES)
def test_iv_reports_map_under_the_iv_relabelings_through_the_cli(family):
    for seed in range(8):
        table = family(np.random.default_rng(seed))
        bounds = _results("iv-bounds", {"table": table.p.tolist()})
        gap = _results("gap", {"table": table.p.tolist()}, npa_level="1")
        for relabeling in itertools.product((False, True), repeat=3):
            relabeled = {"table": _relabeled(table, *relabeling).p.tolist()}
            mapped = _results("iv-bounds", relabeled)
            _assert_maps(_interval(bounds["ace_bounds"]), _interval(mapped["ace_bounds"]), *relabeling[1:], CLI_ATOL)
            check = mapped["instrumental_inequality"]["value"]
            assert check == pytest.approx(bounds["instrumental_inequality"]["value"], rel=0, abs=CLI_ATOL)
            mapped = _results("gap", relabeled, npa_level="1")
            for key in ("classical", "quantum", "nosignaling"):
                _assert_maps(_interval(gap[key]), _interval(mapped[key]), *relabeling[1:], CLI_ATOL)
            assert mapped["gap"] == pytest.approx(gap["gap"], rel=0, abs=CLI_ATOL)


def test_pns_reports_keep_under_a_joint_flip_through_the_cli():
    # the flip keeps PNS and exchanges PN, on the cell x = y = 1, with PS, on x = y = 0
    for seed in range(8):
        exp, obs = random_counterfactual_instance(np.random.default_rng(seed))
        report, flipped = (
            _results("pns", {"experimental": {"p_do1": p_do1, "p_do0": p_do0}, "observational": {"joint": joint}})
            for p_do1, p_do0, joint in (
                (exp.p_do1, exp.p_do0, obs.joint.tolist()),
                (1.0 - exp.p_do0, 1.0 - exp.p_do1, obs.joint[::-1, ::-1].tolist()),
            )
        )
        for key, image in (("pns_bounds", "pns_bounds"), ("pn_bounds", "ps_bounds"), ("ps_bounds", "pn_bounds")):
            _assert_maps(_interval(report[image]), _interval(flipped[key]), False, False, CLI_ATOL)


# ---------------------------------------------------------------------------
# relabelings of the Bell scenario

#: Swap the parties, exchange each party's settings, and exchange the
#: outcomes of Alice at x = 0, 1 and of Bob at y = 0, 1.  On correlators
#: these permute the entries and negate rows and columns, so they map the 8
#: CHSH variants onto one another.
bell_relabelings = st.tuples(
    st.booleans(), st.booleans(), st.booleans(), st.lists(st.booleans(), min_size=4, max_size=4)
)
bell_behaviors = st.one_of(behaviors, seeds.map(lambda s: random_nosignaling_behavior(np.random.default_rng(s)).p))


def _bell_relabeled(p: np.ndarray, swap: bool, flip_x: bool, flip_y: bool, outcomes) -> np.ndarray:
    """p(a, b | x, y) with the parties swapped, then the settings, then the
    outcomes that ``outcomes`` picks, each exchanged when chosen."""
    p = p.transpose(1, 0, 3, 2) if swap else p
    p = p[:, :, ::-1 if flip_x else 1, ::-1 if flip_y else 1].copy()
    for x in range(2):
        if outcomes[x]:
            p[:, :, x] = p[::-1, :, x].copy()
    for y in range(2):
        if outcomes[2 + y]:
            p[:, :, :, y] = p[:, ::-1, :, y].copy()
    return p


def _correlator_image(f: np.ndarray, swap: bool, flip_x: bool, flip_y: bool, outcomes) -> np.ndarray:
    """The same relabeling on correlators E[A_x B_y], or on a functional."""
    f = f.T if swap else f
    signs = np.outer(np.where(outcomes[:2], -1.0, 1.0), np.where(outcomes[2:], -1.0, 1.0))
    return f[::-1 if flip_x else 1, ::-1 if flip_y else 1] * signs


@PROPERTY_SETTINGS
@given(st.sampled_from(("chsh", "membership")), bell_behaviors, bell_relabelings)
def test_membership_verdicts_map_under_the_bell_relabelings(kind, behavior, relabeling):
    reports = []
    for p in (behavior, _bell_relabeled(behavior, *relabeling)):
        code, out = _run(_to_json({"schema": 1, "kind": kind, "payload": {"behavior": p}}))
        assert code == 0
        reports.append(_parse(out)["results"])
    original, relabeled = reports
    member = "member" if kind == "membership" else "member_of_local_polytope"
    assert relabeled[member] == original[member]
    facet, image = original.get("violated_facet"), relabeled.get("violated_facet")
    assert (facet is None) == (image is None)
    if facet is not None:
        coefficients = _correlator_image(np.array(facet["coefficients"]), *relabeling)
        assert image["coefficients"] == coefficients.tolist()
        assert image["index"] == next(k for k, v in enumerate(CHSH_VARIANTS) if (v == coefficients).all())
        # the reports print 12 significant digits
        assert image["value"] == pytest.approx(facet["value"], rel=0, abs=1e-11)


@PROPERTY_SETTINGS
@given(st.lists(st.floats(-4.0, 4.0), min_size=4, max_size=4), bell_relabelings)
def test_functional_values_keep_under_the_bell_relabelings(coefficients, relabeling):
    f = np.array(coefficients).reshape(2, 2)
    image = _correlator_image(f, *relabeling)
    for bound in (tsirelson_bound, local_max, no_signaling_max):
        # each sums the coefficients in another order once they are relabeled
        np.testing.assert_allclose(bound(image), bound(f), rtol=0, atol=4e-15 * np.abs(f).max())
