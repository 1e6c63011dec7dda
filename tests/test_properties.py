"""Property-based checks of the command line over generated request documents.

Documents of every kind are drawn valid, then one field may be replaced by
a value of the wrong type or range.  Every document must end in a
documented exit code with strict JSON on stdout (no NaN or Infinity, also
for functionals whose values pass the float range), the same bytes every
time, and results that do not depend on the axis order an array is
written in.
Examples are derandomized, so the suite stays deterministic.
"""

import contextlib
import io
import json
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from polybounds import RESPONSE_MATRIX  # noqa: E402
from polybounds.cli import KINDS, main  # noqa: E402
from polybounds.polytope import STRATEGY_BEHAVIORS  # noqa: E402

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
