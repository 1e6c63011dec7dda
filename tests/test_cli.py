import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polybounds
from polybounds import Behavior, FloatRangeError
from polybounds.cli import SchemaError, _classify, canonical_json, main, parse_request, serialize_request
from conftest import near_edge_iv_table, one_sided_iv_table, random_iv_table, random_local_behavior, tsirelson_closed_form


def write_doc(tmp_path, payload, options=None, name="doc.json"):
    doc = {"schema": 1, "payload": payload}
    if options:
        doc["options"] = options
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _reject_constant(token):
    raise ValueError(f"stdout holds the non-finite number {token}")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_chsh_pr_correlations(tmp_path, capsys):
    path = write_doc(tmp_path, {"correlations": [[1, 1], [1, -1]]})
    code, out = run_cli(capsys, "chsh", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["chsh"] == 4.0
    assert doc["results"]["member_of_local_polytope"] is False
    assert doc["results"]["violated_facet"]["value"] == 4.0


def test_manski_example(tmp_path, capsys):
    path = write_doc(tmp_path, {"e1": 0.7, "e0": 0.4, "px1": 0.5})
    code, out = run_cli(capsys, "manski", "--input", path)
    assert code == 0
    doc = json.loads(out)
    bounds = doc["results"]["ate_bounds"]
    assert bounds["lo"] == -0.35
    assert bounds["hi"] == 0.65
    assert bounds["width"] == 1.0
    assert doc["results"]["contains_zero"] is True


def test_npa_chsh(tmp_path, capsys):
    path = write_doc(tmp_path, {"functional": [[1, 1], [1, -1]]})
    code, out = run_cli(capsys, "npa", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["bound"] == pytest.approx(2 * np.sqrt(2), abs=1e-4)
    assert doc["provenance"]["solver"] == {"engine": "closed-form"}
    code, out = run_cli(capsys, "npa", "--input", path, "--audit")
    assert code == 0
    doc = json.loads(out)
    assert doc["provenance"]["solver"]["engine"] == "closed-form"
    assert doc["provenance"]["solver"]["duality_gap"] <= 1e-6
    assert doc["results"]["audit"]["agrees"] is True
    assert doc["results"]["audit"]["sdp_bound"] == pytest.approx(2 * np.sqrt(2), abs=1e-4)


def test_gap_chsh_triple(tmp_path, capsys):
    path = write_doc(tmp_path, {"functional": [[1, 1], [1, -1]]})
    code, out = run_cli(capsys, "gap", "--input", path)
    assert code == 0
    doc = json.loads(out)
    r = doc["results"]
    assert r["classical"] == pytest.approx(2.0, abs=1e-9)
    assert r["quantum"] == pytest.approx(2 * np.sqrt(2), abs=1e-4)
    assert r["nosignaling"] == pytest.approx(4.0, abs=1e-9)


def test_iv_bounds_with_order_permutation(tmp_path, capsys):
    # same perfect-compliance table specified in (z, x, y) order
    values = np.zeros((2, 2, 2))
    values[1, 1, 1] = 0.7  # z=1, x=1, y=1
    values[1, 1, 0] = 0.3
    values[0, 0, 1] = 0.4
    values[0, 0, 0] = 0.6
    path = write_doc(
        tmp_path,
        {"table": {"values": values.tolist(), "order": ["z", "x", "y"]}},
    )
    code, out = run_cli(capsys, "iv-bounds", "--input", path, "--audit")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["ace_bounds"]["lo"] == pytest.approx(0.3)
    assert doc["results"]["instrumental_inequality"]["holds"] is True
    assert doc["results"]["audit"]["agrees"] is True


def test_iv_bounds_violating_table_exit_three(tmp_path, capsys):
    table = np.zeros((2, 2, 2))
    table[1, 1, 0] = 1.0
    table[0, 1, 1] = 1.0
    path = write_doc(tmp_path, {"table": table.tolist()})
    code, out = run_cli(capsys, "iv-bounds", "--input", path)
    assert code == 3
    doc = json.loads(out)
    assert doc["error"]["type"] == "InfeasibleTableError"


def test_pns_audit(tmp_path, capsys):
    path = write_doc(
        tmp_path,
        {
            "experimental": {"p_do1": 0.7, "p_do0": 0.3},
            "observational": {"joint": [[0.3, 0.2], [0.1, 0.4]]},
        },
    )
    code, out = run_cli(capsys, "pns", "--input", path, "--audit")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["pns_bounds"]["lo"] == pytest.approx(0.4)
    assert doc["results"]["pns_bounds"]["hi"] == pytest.approx(0.7)
    assert doc["results"]["audit"]["agrees"] is True


@pytest.mark.parametrize("audit", [False, True])
def test_pns_data_no_model_fits_exit_three(tmp_path, capsys, audit):
    # P(y_x') = 0.1 lies below P(x', y) = 0.5, and the zero cell P(x, y) skips PN and PS
    path = write_doc(
        tmp_path,
        {"experimental": {"p_do1": 0.6, "p_do0": 0.1}, "observational": {"joint": [[0.5, 0.5], [0, 0]]}},
        options={"audit": audit},
    )
    code, out = run_cli(capsys, "pns", "--input", path)
    assert code == 3
    assert json.loads(out)["error"]["type"] == "InconsistentDataError"


def test_a_transposed_pns_joint_is_read_in_its_order(tmp_path, capsys):
    experimental = {"p_do1": 0.5, "p_do0": 0.4}
    joint = [[0.1, 0.2], [0.3, 0.4]]
    answers = []
    for observational in (
        {"joint": {"values": joint, "order": ["y", "x"]}},  # rows are y
        {"joint": np.transpose(joint).tolist()},  # the same table in canonical [x, y] order
        {"joint": joint, "order": ["y", "x"]},  # an "order" beside "joint" is not read
    ):
        path = write_doc(tmp_path, {"experimental": experimental, "observational": observational})
        code, out = run_cli(capsys, "pns", "--input", path)
        assert code == 0
        bounds = json.loads(out)["results"]["pns_bounds"]
        answers.append([bounds["lo"], bounds["hi"]])
    assert answers == [[0.3, 0.5], [0.3, 0.5], [0.2, 0.5]]


@pytest.mark.parametrize("tolerance, code", [(None, 0), (1e-6, 0), (1e-12, 3)])
def test_pns_consistency_is_judged_at_the_tolerance(tmp_path, capsys, tolerance, code):
    # P(y_x') lies 1e-11 above P(x', y) + P(x) = 0.5: PNS, PN and PS take one verdict at T
    path = write_doc(
        tmp_path,
        {
            "experimental": {"p_do1": 0.3, "p_do0": 0.50000000001},
            "observational": {"joint": [[0.5, 0.2], [0.299999, 0.000001]]},
        },
        options={"tolerance": tolerance} if tolerance else None,
    )
    assert run_cli(capsys, "pns", "--input", path)[0] == code


def test_frechet(tmp_path, capsys):
    path = write_doc(tmp_path, {"u": 0.8, "v": 0.7})
    code, out = run_cli(capsys, "frechet", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["joint_bounds"] == {"lo": 0.5, "hi": 0.7, "width": 0.2}


def test_entropic_pr_box(tmp_path, capsys):
    pr = np.zeros((2, 2, 2, 2))
    for a in range(2):
        for b in range(2):
            for x in range(2):
                for y in range(2):
                    if (a ^ b) == (x & y):
                        pr[a, b, x, y] = 0.5
    path = write_doc(tmp_path, {"behavior": pr.tolist()})
    code, out = run_cli(capsys, "entropic", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["lhs"] == pytest.approx(2.0, abs=1e-9)
    assert doc["results"]["rhs"] == 4.0
    assert doc["results"]["holds"] is True
    assert any("rhs = 2 * H" in w for w in doc["warnings"])


def test_missing_input_file_is_schema_error(capsys):
    code, out = run_cli(capsys, "frechet", "--input", "/no/such/file.json")
    assert code == 2
    assert json.loads(out)["error"]["code"] == 2


def test_schema_version_required(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"payload": {"u": 0.5, "v": 0.5}}))
    code, out = run_cli(capsys, "frechet", "--input", str(path))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "SchemaError"


def test_missing_field_schema_error(tmp_path, capsys):
    path = write_doc(tmp_path, {"e1": 0.7})
    code, out = run_cli(capsys, "manski", "--input", path)
    assert code == 2


FRECHET = {"schema": 1, "kind": "frechet", "payload": {"u": 0.8, "v": 0.7}}
JOINT = {"joint": [[0.25] * 2] * 2}


def _with(**fields):
    return {**FRECHET, **fields}


@pytest.mark.parametrize(
    "argv, document, message",
    [
        pytest.param(("frechet", "--input", "DOC"), [FRECHET], "request document must be a JSON object", id="not-an-object"),
        pytest.param(
            ("frechet", "--input", "DOC"), {"schema": 1}, 'request document must carry a "payload" object', id="no-payload"
        ),
        pytest.param(
            ("frechet", "--input", "DOC"), _with(options={"format": "xml"}),
            "format must be 'json' or 'md', got 'xml'", id="format",
        ),
        pytest.param(
            ("frechet", "--input", "DOC"), _with(options={"npa_level": "2"}),
            "unknown relaxation level '2'; use '1' or '1ab'", id="npa-level",
        ),
        pytest.param(
            ("frechet", "--input", "DOC"), _with(options={"tolerance": 2}), "tolerance must be in (0, 1), got 2.0",
            id="tolerance",
        ),
        pytest.param(
            ("frechet", "--input", "DOC"), _with(payload={"u": 0.8}), 'payload is missing "v"', id="missing-field"
        ),
        pytest.param(
            ("iv-bounds", "--input", "DOC"), {"schema": 1, "payload": {"table": {"order": ["y", "x", "z"]}}},
            '"table" object needs a "values" array', id="no-values",
        ),
        pytest.param(
            ("gap", "--input", "DOC"), {"schema": 1, "payload": {"bound": 2}},
            'gap payload needs "functional", "behavior", or "table"', id="gap-subject",
        ),
        pytest.param(
            ("pns", "--input", "DOC"), {"schema": 1, "payload": {"observational": JOINT}},
            'pns payload needs "experimental" and "observational"', id="pns-field",
        ),
        pytest.param(
            ("pns", "--input", "DOC"), {"schema": 1, "payload": {"experimental": [0.5, 0.5], "observational": JOINT}},
            '"experimental" must be an object', id="pns-experimental",
        ),
        pytest.param(
            ("pns", "--input", "DOC"),
            {"schema": 1, "payload": {"experimental": {"p_do1": 0.5, "p_do0": 0.5}, "observational": [[0.25] * 2] * 2}},
            '"observational" must be an object', id="pns-observational",
        ),
        pytest.param(
            ("audit", "--input", "DOC"), {"schema": 1, "payload": {"suite": "sdp"}},
            'audit suite must be one of "all", "lp", "pns", "membership"', id="audit-suite",
        ),
        pytest.param(
            ("frechet", "--batch", "DOC"), FRECHET, "batch file must hold a JSON array of request documents",
            id="batch-not-an-array",
        ),
        pytest.param(("frechet",), FRECHET, "--input is required (or --batch)", id="no-input"),
        pytest.param(
            ("frechet", "--input", "DOC", "--csv", "CSV"), FRECHET, "--csv is only meaningful for the gap analysis",
            id="csv-off-gap",
        ),
    ],
)
def test_each_layout_error_is_a_schema_error_that_names_it(tmp_path, capsys, argv, document, message):
    paths = {"DOC": tmp_path / "doc.json", "CSV": tmp_path / "samples.csv"}
    paths["DOC"].write_text(json.dumps(document))
    code, out = run_cli(capsys, *(str(paths.get(a, a)) for a in argv))
    assert code == 2
    assert json.loads(out) == {"schema": 1, "error": {"code": 2, "message": message, "type": "SchemaError"}}
    assert not paths["CSV"].exists()


@pytest.mark.parametrize(
    "kind, payload, field",
    [
        ("pns", {"experimental": {"p_do1": 1.5, "p_do0": 0.5}, "observational": {"joint": [[0.25] * 2] * 2}}, "p_do1"),
        ("manski", {"e1": 1.5, "e0": 0.4, "px1": 0.5}, "e1"),
        ("frechet", {"u": 1.5, "v": 0.5}, "u"),
    ],
    ids=["pns", "manski", "frechet"],
)
def test_scalar_probability_out_of_range_is_one_validation_error(tmp_path, capsys, kind, payload, field):
    path = write_doc(tmp_path, payload)
    code, out = run_cli(capsys, kind, "--input", path)
    assert code == 2
    message = f"{field} must lie in [0, 1], got 1.5"
    assert json.loads(out)["error"] == {"code": 2, "message": message, "type": "ValidationError"}


def _leaves(tree):
    if isinstance(tree, dict):
        tree = list(tree.values())
    if isinstance(tree, list):
        return [leaf for item in tree for leaf in _leaves(item)]
    return [tree]


@pytest.mark.parametrize(
    "kind, payload, results",
    [
        ("frechet", {"u": 1, "v": 0}, {"joint_bounds": {"hi": 0.0, "lo": 0.0, "width": 0.0}}),
        ("manski", {"e1": 1, "e0": 0, "px1": 1}, {"ate_bounds": {"hi": 1.0, "lo": 0.0, "width": 1.0}}),
        ("pns", {"experimental": {"p_do1": 1, "p_do0": 0}, "observational": {"joint": [[1, 0], [0, 0]]}}, {}),
    ],
)
def test_integer_probabilities_are_reported_as_floats(tmp_path, capsys, kind, payload, results):
    code, out = run_cli(capsys, kind, "--input", write_doc(tmp_path, payload))
    assert code == 0
    doc = json.loads(out)
    assert doc["request"]["payload"] == payload  # echoed as given
    assert all(doc["results"][k] == v for k, v in results.items())
    numbers = [v for v in _leaves(doc["results"]) if not isinstance(v, (bool, str))]
    assert numbers and all(type(v) is float for v in numbers)


@pytest.mark.parametrize("correlations", [[[], []], [[]]], ids=["2x0", "1x0"])
def test_an_empty_correlation_table_is_a_validation_error(tmp_path, capsys, correlations):
    # an empty array has no maximum: the correlator band must not let numpy's
    # ValueError escape main before the model's shape check answers
    code, out = run_cli(capsys, "chsh", "--input", write_doc(tmp_path, {"correlations": correlations}))
    assert code == 2
    shape = np.shape(correlations)
    message = f"correlation table must have shape (2, 2), got {shape}"
    assert json.loads(out)["error"] == {"code": 2, "message": message, "type": "ValidationError"}


@pytest.mark.parametrize(
    "text, largest",
    [("[[1.5, 0], [0, 0]]", "1.5"), ("[[1e400, 0], [0, 0]]", "inf"), ("[[0, -1.000000002], [0, 0]]", "1.000000002")],
    ids=["1.5", "past-float-range", "just-past-the-band"],
)
def test_correlators_past_the_band_are_refused_by_the_model(tmp_path, capsys, text, largest):
    path = tmp_path / "doc.json"
    path.write_text('{"schema": 1, "payload": {"correlations": %s}}' % text)
    code, out = run_cli(capsys, "chsh", "--input", str(path))
    assert code == 2
    message = f"correlators must lie in [-1, 1], got max |e| = {largest}"
    assert json.loads(out)["error"] == {"code": 2, "message": message, "type": "ValidationError"}


def test_correlators_within_the_band_are_clipped(tmp_path, capsys):
    path = write_doc(tmp_path, {"correlations": [[1 + 5e-10, 1.0], [1.0, -1 - 5e-10]]})
    code, out = run_cli(capsys, "chsh", "--input", path)
    assert code == 0
    assert json.loads(out)["results"]["correlations"] == [[1.0, 1.0], [1.0, -1.0]]


@pytest.mark.parametrize(
    "kind, payload, message",
    [
        ("iv-bounds", {"table": [[["0.25", 0.25], [0.25, 0.25]]] * 2}, "IV table has an entry of type str, not a number"),
        ("membership", {"behavior": [[[[True, 0.25]] * 2] * 2] * 2}, "behavior has an entry of type bool, not a number"),
        ("npa", {"functional": [[1, 1], [1, "-1"]]}, "functional has an entry of type str, not a number"),
        ("chsh", {"correlations": [[True, 0], [0, 0]]}, "correlation table has an entry of type bool, not a number"),
    ],
    ids=["table-string", "behavior-bool", "functional-string", "correlations-bool"],
)
def test_string_and_boolean_array_entries_are_validation_errors(tmp_path, capsys, kind, payload, message):
    code, out = run_cli(capsys, kind, "--input", write_doc(tmp_path, payload))
    assert code == 2
    assert json.loads(out)["error"] == {"code": 2, "message": message, "type": "ValidationError"}


def test_the_inequality_verdict_reads_the_tolerance(tmp_path, capsys):
    # instrumental value 1 + 1e-10: it holds at the default 1e-9, as
    # ace_bounds does, and fails at 1e-10, where the table is refused
    table = near_edge_iv_table(np.random.default_rng(0), 1e-10).p.tolist()
    code, out = run_cli(capsys, "iv-bounds", "--input", write_doc(tmp_path, {"table": table}))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["instrumental_inequality"]["value"] > 1.0 + 1e-12
    assert results["instrumental_inequality"]["holds"] is True
    assert results["instrumental_inequality"]["other_variant"]["holds"] is True
    assert results["ace_bounds"]["lo"] == pytest.approx(-0.00997, abs=1e-5)
    code, out = run_cli(capsys, "iv-bounds", "--input", write_doc(tmp_path, {"table": table}, {"tolerance": 1e-10}))
    assert code == 3
    assert json.loads(out)["error"]["type"] == "InfeasibleTableError"


def test_normalization_rejected_unless_renormalize(tmp_path, capsys):
    noisy = (np.full((2, 2, 2), 0.25) * 1.01).tolist()
    path = write_doc(tmp_path, {"table": noisy})
    code, out = run_cli(capsys, "iv-bounds", "--input", path)
    assert code == 2
    code, out = run_cli(capsys, "iv-bounds", "--input", path, "--renormalize")
    assert code == 0
    doc = json.loads(out)
    assert any("renormalized" in w for w in doc["warnings"])


def test_solver_provenance_reports_termination(tmp_path, capsys):
    path = write_doc(tmp_path, {"functional": [[1, 1], [1, -1]]})
    code, out = run_cli(capsys, "npa", "--input", path, "--npa-level", "1ab")
    assert code == 0
    assert json.loads(out)["provenance"]["solver"] == {"engine": "closed-form"}
    code, out = run_cli(capsys, "npa", "--input", path, "--npa-level", "1ab", "--audit")
    assert code == 0
    assert json.loads(out)["provenance"]["solver"]["sdp_termination"] in ("converged", "stalled")
    # a level-1 table is answered in closed form; at 1ab the SDP reports
    # both endpoint solves
    path = write_doc(tmp_path, {"table": np.full((2, 2, 2), 0.25).tolist()})
    code, out = run_cli(capsys, "gap", "--input", path)
    assert code == 0
    assert json.loads(out)["provenance"]["solver"] == {"engine": "closed-form", "level": "1"}
    code, out = run_cli(capsys, "gap", "--input", path, "--npa-level", "1ab")
    assert code == 0
    solver = json.loads(out)["provenance"]["solver"]
    assert len(solver["sdp_termination"]) == len(solver["sdp_iterations"]) == 2


def test_huge_functional_is_answered(tmp_path, capsys):
    f = np.array([[1e300, 1.0], [1.0, -1.0]])
    path = write_doc(tmp_path, {"functional": f.tolist()})
    code, out = run_cli(capsys, "npa", "--input", path)
    assert code == 0
    bound = json.loads(out, parse_constant=_reject_constant)["results"]["bound"]
    assert bound == pytest.approx(1e300 * tsirelson_closed_form(f / 1e300), rel=1e-11)


def test_huge_functional_is_solver_error(tmp_path, capsys):
    # the quantum, classical and no-signaling values all pass the float range
    path = write_doc(tmp_path, {"functional": [[1e308, 1e308], [1e308, -1e308]]})
    for kind in ("npa", "gap"):
        code, out = run_cli(capsys, kind, "--input", path)
        assert code == 4
        error = json.loads(out, parse_constant=_reject_constant)["error"]
        assert error["code"] == 4
        assert error["type"] == "FloatRangeError"
        assert "floating-point range" in error["message"]
    # numpy linear-algebra failures elsewhere are solver failures too
    assert _classify(np.linalg.LinAlgError("Eigenvalues did not converge")) == 4


def test_gap_audit_resolves_functionals_and_behaviors_with_the_sdp(tmp_path, capsys):
    singlet_chsh = np.full((2, 2, 2, 2), 0.0)
    s = np.sqrt(2) / 2
    for x, y in itertools.product(range(2), repeat=2):
        e = -s if (x, y) == (1, 1) else s
        for a, b in itertools.product(range(2), repeat=2):
            singlet_chsh[a, b, x, y] = (1 + (-1) ** (a + b) * e) / 4
    for payload in ({"functional": [[0.3, -1.2], [0.8, 0.4]]}, {"behavior": singlet_chsh.tolist()}):
        path = write_doc(tmp_path, payload)
        code, out = run_cli(capsys, "gap", "--input", path)
        assert code == 0
        assert "sdp_iterations" not in json.loads(out)["provenance"]["solver"]
        for level in ("1", "1ab"):
            code, out = run_cli(capsys, "gap", "--input", path, "--audit", "--npa-level", level)
            assert code == 0
            doc = json.loads(out)
            assert doc["results"]["audit"]["agrees"] is True
            assert doc["results"]["audit"]["sdp_bound"] == pytest.approx(doc["results"]["quantum"], abs=1e-7)
            assert doc["results"]["level"] == level
            solver = doc["provenance"]["solver"]
            assert solver["engine"] == "closed-form"
            assert solver["sdp_termination"] in ("converged", "stalled")


def test_gap_audit_resolves_a_table_with_the_stacked_sdp(tmp_path, capsys):
    table = random_iv_table(np.random.default_rng(74))
    path = write_doc(tmp_path, {"table": table.p.tolist()})
    for level in ("1", "1ab"):
        code, out = run_cli(capsys, "gap", "--input", path, "--npa-level", level)
        assert code == 0
        plain = json.loads(out)
        code, out = run_cli(capsys, "gap", "--input", path, "--audit", "--npa-level", level)
        assert code == 0
        doc = json.loads(out)
        audit = doc["results"].pop("audit")
        assert doc["results"] == plain["results"]
        assert audit["agrees"] is True
        for end in ("lo", "hi"):
            assert audit["sdp_interval"][end] == pytest.approx(doc["results"]["quantum"][end], abs=1e-8)
        solver = doc["provenance"]["solver"]
        assert solver["level"] == level
        assert len(solver["sdp_iterations"]) == len(solver["sdp_termination"]) == len(solver["duality_gaps"]) == 2
        assert set(solver["sdp_termination"]) <= {"converged", "stalled"}
        assert solver.get("engine") == ("closed-form" if level == "1" else None)


def test_a_table_audit_whose_sdp_raises_still_answers(tmp_path, capsys):
    # an arm pinned but for 1e-9 of its mass: the closed form answers, and the
    # audit SDP stops at its iteration cap
    rng = np.random.default_rng(7)
    table = (1.0 - 1e-9) * one_sided_iv_table(rng).p + 1e-9 * random_iv_table(rng).p
    path = write_doc(tmp_path, {"table": table.tolist()})
    code, out = run_cli(capsys, "gap", "--input", path, "--audit")
    assert code == 0
    doc = json.loads(out)
    audit = doc["results"]["audit"]
    assert audit["agrees"] is None and "sdp_interval" not in audit
    assert audit["error"]["type"] == "SdpConvergenceError"
    assert audit["error"]["message"].startswith("no convergence in 200 iterations")
    mass = table[:, 1, 0].sum()
    assert audit["error"]["message"].endswith(
        f"(arm z=0 has a treatment mass of {mass:.3g}, the least of the unpinned arms)"
    )
    assert doc["results"]["quantum"]["lo"] < doc["results"]["quantum"]["hi"]
    assert doc["provenance"]["solver"] == {"engine": "closed-form", "level": "1"}


def test_a_level1_table_needs_no_sdp(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the level-1 table route called the SDP")

    monkeypatch.setattr("polybounds.quantum.sdp_solve", refuse)
    monkeypatch.setattr("polybounds.quantum.moment_program", refuse)
    path = write_doc(tmp_path, {"table": random_iv_table(np.random.default_rng(75)).p.tolist()})
    code, out = run_cli(capsys, "gap", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["quantum"]["lo"] <= doc["results"]["classical"]["lo"]
    assert doc["provenance"]["solver"] == {"engine": "closed-form", "level": "1"}


def test_non_finite_report_values_are_solver_errors():
    with pytest.raises(FloatRangeError):
        canonical_json({"bound": [float("inf")]})
    with pytest.raises(FloatRangeError):
        canonical_json({"bound": float("nan")})
    assert _classify(FloatRangeError("overflow")) == 4


@pytest.mark.parametrize(
    "x",
    [0.0, -0.0, 5e-324, 1e-5, 9.99999999999951e-05, 123.0, 999999999999.5, 1e12, -1.25e13, 1.5e15,
     9.9999999999995e15, 1e16, 1e22, float(2**53), 0.1 + 0.2],
)
def test_float_text_is_the_repr_of_the_12_digit_value(x):
    # where the %.12g text and repr lay a number out differently; a zero of
    # either sign is written 0.0
    assert canonical_json(x) == float.__repr__(float(f"{x:.12g}") + 0.0)
    assert canonical_json(np.float32(x)) == float.__repr__(float(f"{float(np.float32(x)):.12g}") + 0.0)


@pytest.mark.parametrize("x", [float("inf"), -float("inf"), float("nan")])
def test_float_text_refuses_non_finite_values(x):
    with pytest.raises(FloatRangeError):
        canonical_json(x)


def test_the_emitter_refuses_unknown_types():
    with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
        canonical_json({"a": {1}})


@pytest.mark.parametrize("tolerance", ["abc", True, [1e-6]])
def test_bad_tolerance_option_is_schema_error(tmp_path, capsys, tolerance):
    path = write_doc(tmp_path, {"u": 0.5, "v": 0.5}, options={"tolerance": tolerance})
    code, out = run_cli(capsys, "frechet", "--input", path)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "SchemaError"
    assert "tolerance" in error["message"]


def test_single_latent_deterministic_tables_get_enclosing_quantum_interval(tmp_path, capsys):
    # one latent value: deterministic treatment response fx[z] and outcome
    # response fy[x]; the quantum endpoints may meet at a point
    for fx0, fx1, fy0, fy1 in itertools.product(range(2), repeat=4):
        fx, fy = (fx0, fx1), (fy0, fy1)
        table = np.zeros((2, 2, 2))
        for z in range(2):
            table[fy[fx[z]], fx[z], z] = 1.0
        path = write_doc(tmp_path, {"table": table.tolist()})
        code, out = run_cli(capsys, "gap", "--input", path)
        assert code in (0, 3), (fx, fy, out)
        if code == 0:
            r = json.loads(out)["results"]
            assert r["quantum"]["lo"] <= r["classical"]["lo"] + 1e-6, (fx, fy)
            assert r["classical"]["hi"] <= r["quantum"]["hi"] + 1e-6, (fx, fy)
            assert r["quantum"]["lo"] <= r["quantum"]["hi"], (fx, fy)


def test_reports_are_deterministic(tmp_path, capsys):
    path = write_doc(tmp_path, {"functional": [[0.3, -1.2], [0.8, 0.4]]})
    code1, out1 = run_cli(capsys, "gap", "--input", path)
    code2, out2 = run_cli(capsys, "gap", "--input", path)
    assert code1 == code2 == 0
    assert out1 == out2


def test_request_round_trip():
    doc = {
        "schema": 1,
        "kind": "manski",
        "payload": {"e1": 0.7, "e0": 0.4, "px1": 0.5},
        "options": {"format": "json"},
    }
    request = parse_request(doc)
    normalized = serialize_request(request)
    assert parse_request(normalized) == request
    assert serialize_request(parse_request(normalized)) == normalized


def test_unknown_option_rejected():
    with pytest.raises(SchemaError):
        parse_request({"schema": 1, "kind": "manski", "payload": {}, "options": {"bogus": 1}})


def test_markdown_format(tmp_path, capsys):
    path = write_doc(tmp_path, {"functional": [[1, 1], [1, -1]]})
    code, out = run_cli(capsys, "gap", "--input", path, "--format", "md")
    assert code == 0
    assert out.startswith("# polybounds report: gap")
    assert "| classical | 2.0 |" in out


def test_markdown_gap_on_a_table_writes_interval_rows_and_warnings(tmp_path, capsys):
    path = write_doc(tmp_path, {"table": random_iv_table(np.random.default_rng(0)).p.tolist()})
    code, out = run_cli(capsys, "gap", "--input", path)
    assert code == 0
    report = json.loads(out)
    code, out = run_cli(capsys, "gap", "--input", path, "--format", "md")
    assert code == 0
    lines = out.splitlines()
    for key in ("classical", "quantum", "nosignaling"):
        interval = report["results"][key]
        assert f"| {key} | [{interval['lo']}, {interval['hi']}] |" in lines
    assert report["warnings"]
    start = lines.index("## Warnings")
    assert lines[start + 1 : start + 1 + len(report["warnings"])] == [f"- {w}" for w in report["warnings"]]


def test_batch_mode(tmp_path, capsys):
    batch = [
        {"schema": 1, "kind": "manski", "payload": {"e1": 0.7, "e0": 0.4, "px1": 0.5}},
        {"schema": 1, "kind": "frechet", "payload": {"u": 0.8, "v": 0.7}},
        {"schema": 1, "kind": "manski", "payload": {"e1": 2.0, "e0": 0.4, "px1": 0.5}},
    ]
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(batch))
    code = main(["manski", "--batch", str(path)])
    out = capsys.readouterr().out
    assert code == 2  # worst outcome in the batch
    docs = json.loads(out)
    assert len(docs) == 3
    assert docs[0]["results"]["ate_bounds"]["width"] == 1.0
    assert docs[1]["results"]["joint_bounds"]["lo"] == 0.5
    assert docs[2]["error"]["code"] == 2


def test_batch_refuses_the_output_options_it_cannot_honour(tmp_path, capsys):
    frechet = {"schema": 1, "kind": "frechet", "payload": {"u": 0.8, "v": 0.7}}
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([frechet]))
    csv = tmp_path / "samples.csv"
    message = "--batch writes one JSON array; --csv and --format md need a single --input"
    for flags in (("--csv", str(csv)), ("--format", "md")):
        code, out = run_cli(capsys, "gap", "--batch", str(path), *flags)
        assert code == 2
        assert json.loads(out) == {"schema": 1, "error": {"code": 2, "message": message, "type": "SchemaError"}}
    assert not csv.exists()
    # a document's own "format": "md" fails only its entry
    path.write_text(json.dumps([{**frechet, "options": {"format": "md"}}, frechet]))
    code, out = run_cli(capsys, "gap", "--batch", str(path))
    assert code == 2
    docs = json.loads(out)
    message = 'a --batch entry is written as JSON; "format": "md" needs a single --input'
    assert docs[0]["error"] == {"code": 2, "message": message, "type": "SchemaError"}
    assert docs[1]["results"]["joint_bounds"]["lo"] == 0.5


def test_in_process_calls_share_the_parser_but_no_state(tmp_path, capsys):
    path = write_doc(tmp_path, {"functional": [[1, 1], [1, -1]]})
    code, bare = run_cli(capsys, "npa", "--input", path)
    assert code == 0
    code, out = run_cli(capsys, "npa", "--input", path, "--audit", "--renormalize", "--npa-level", "1ab", "--format", "md")
    assert code == 0 and out.startswith("# polybounds report: npa")
    assert run_cli(capsys, "npa", "--input", path) == (0, bare)
    # a fresh process builds its own parser and answers with the same bytes
    env = {**os.environ, "PYTHONPATH": str(Path(polybounds.__file__).parents[1])}
    fresh = subprocess.run(
        [sys.executable, "-m", "polybounds.cli", "npa", "--input", path], capture_output=True, text=True, env=env
    )
    assert (fresh.returncode, fresh.stdout) == (0, bare)


@pytest.mark.parametrize("where", ["analysis", "rendering"])
def test_report_past_the_float_range_fails_only_its_batch_entry(tmp_path, capsys, monkeypatch, where):
    import polybounds.cli as cli

    huge = {"schema": 1, "kind": "npa", "payload": {"functional": [[1e308, 1e308], [1e308, -1e308]]}}
    if where == "rendering":
        # a result the analysis lets through as inf fails when it is written
        closed_form = cli.tsirelson_bound
        monkeypatch.setattr(cli, "tsirelson_bound", lambda f: float("inf") if f[0, 0] == 3 else closed_form(f))
        huge["payload"]["functional"] = [[3, 1], [1, -1]]
    chsh = {"schema": 1, "kind": "npa", "payload": {"functional": [[1, 1], [1, -1]]}}
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([huge, chsh]))
    code, out = run_cli(capsys, "npa", "--batch", str(path))
    assert code == 4
    docs = json.loads(out, parse_constant=_reject_constant)
    assert docs[0]["schema"] == 1 and sorted(docs[0]) == ["error", "schema"]
    assert (docs[0]["error"]["code"], docs[0]["error"]["type"]) == (4, "FloatRangeError")
    code, single = run_cli(capsys, "npa", "--input", write_doc(tmp_path, chsh["payload"]))
    assert code == 0
    assert docs[1] == json.loads(single)


def test_audit_battery(tmp_path, capsys):
    path = write_doc(tmp_path, {"suite": "all", "samples": 8, "seed": 3})
    code, out = run_cli(capsys, "audit", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["all_agree"] is True
    assert doc["results"]["lp"]["max_discrepancy"] <= 1e-9


def test_audit_lp_suite_runs_the_simplex(tmp_path, capsys, monkeypatch):
    import polybounds.cli as cli

    senses = []
    simplex = cli.lp_solve

    def counted(problem, tol):
        senses.append(problem.sense)
        return simplex(problem, tol)

    monkeypatch.setattr(cli, "lp_solve", counted)
    path = write_doc(tmp_path, {"suite": "lp", "samples": 5, "seed": 1})
    code, out = run_cli(capsys, "audit", "--input", path)
    assert code == 0
    assert sorted(senses) == ["max"] * 5 + ["min"] * 5
    lp = json.loads(out)["results"]["lp"]
    assert lp["agrees"] is True and lp["max_discrepancy"] <= 1e-12


@pytest.mark.parametrize(
    "kind, flag, doc, expected",
    [
        ("manski", "--input", {"schema": 1, "payload": {"e1": 0.7, "e0": 0.4, "px1": 0.5}, "options": {"format": "md"}}, 0),
        ("iv-bounds", "--input", {"schema": 1, "payload": {"table": [[[0, 0], [0, 1]], [[0, 0], [1, 0]]]}}, 3),
        ("manski", "--batch", [{"schema": 1, "kind": "manski", "payload": {"e1": 0.7, "e0": 0.4, "px1": 0.5}}] * 2000, 0),
    ],
)
def test_closed_stdout_ends_quietly(tmp_path, kind, flag, doc, expected):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    env = {**os.environ, "PYTHONPATH": str(Path(polybounds.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "polybounds.cli", kind, flag, str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # no reader is left, so the program's writes to stdout fail
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == expected
    assert err == b""


def test_csv_cross_section(tmp_path, capsys):
    path = write_doc(tmp_path, {"functional": [[1, 1], [1, -1]]})
    csv_path = tmp_path / "section.csv"
    code, out = run_cli(capsys, "gap", "--input", path, "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "phi,local,quantum,nosignaling"
    assert len(lines) == 37
    for line in lines[1:]:
        _, local, quantum, ns = map(float, line.split(","))
        assert local <= quantum + 1e-5 <= ns + 1e-5


def test_behavior_payload_membership(tmp_path, capsys):
    uniform = np.full((2, 2, 2, 2), 0.25).tolist()
    path = write_doc(tmp_path, {"behavior": uniform})
    code, out = run_cli(capsys, "membership", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["member"] is True
    assert doc["results"]["reconstruction_error"] <= 1e-9


@pytest.mark.parametrize("order", [None, [1, "x", "z"], "yxz", ["y", "x", "x"]])
def test_bad_axis_order_is_schema_error(tmp_path, capsys, order):
    table = {"values": np.full((2, 2, 2), 0.25).tolist(), "order": order}
    path = write_doc(tmp_path, {"table": table})
    code, out = run_cli(capsys, "iv-bounds", "--input", path)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "SchemaError"
    assert "order" in error["message"]


@pytest.mark.parametrize(
    "kind, payload, options, field",
    [
        ("iv-bounds", {"table": np.full((2, 2, 2), 0.25).tolist()}, {"renormalize": "false"}, "renormalize"),
        ("iv-bounds", {"table": np.full((2, 2, 2), 0.25).tolist()}, {"audit": 1}, "audit"),
        ("audit", {"samples": True}, None, "samples"),
        ("audit", {"seed": True}, None, "seed"),
    ],
)
def test_booleans_and_integers_are_not_interchangeable(tmp_path, capsys, kind, payload, options, field):
    path = write_doc(tmp_path, payload, options=options)
    code, out = run_cli(capsys, kind, "--input", path)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "SchemaError"
    assert field in error["message"]


UNIFORM_BEHAVIOR = np.full((2, 2, 2, 2), 0.25).tolist()


#: The payload of a JSON non-finite constant, which the reader rejects.
NAN_IN_JSON = ("SchemaError", "request holds the non-finite number NaN, which JSON does not allow")

# A "schema error" in a test name is exit code 2.  The document's layout is
# checked by the CLI (``SchemaError``); its values by the model types
# (``ValidationError``), with their messages.


@pytest.mark.parametrize(
    "kind, payload, error",
    [
        pytest.param(
            "entropic", {"behavior": UNIFORM_BEHAVIOR, "settings": [[0.5, 0.5], [0.0, float("nan")]]}, NAN_IN_JSON,
            id="entropic-payload0",
        ),
        pytest.param(
            "entropic", {"behavior": UNIFORM_BEHAVIOR, "settings": [[0.0, 0.0], [0.0, 0.0]]},
            ("ValidationError", "settings distribution has a block of mass 0.000e+00, which cannot be rescaled to 1"),
            id="entropic-payload1",
        ),
        pytest.param(
            "pns", {"experimental": {"p_do1": 0.5, "p_do0": 0.5}, "observational": {"joint": [[0, 0], [0, 0]]}},
            ("ValidationError", "observational joint has a block of mass 0.000e+00, which cannot be rescaled to 1"),
            id="pns-payload2",
        ),
        pytest.param("npa", {"functional": [[float("nan"), 1.0], [1.0, -1.0]]}, NAN_IN_JSON, id="npa-payload3"),
    ],
)
def test_non_finite_and_zero_mass_arrays_are_schema_errors(tmp_path, capsys, kind, payload, error):
    path = write_doc(tmp_path, payload)
    code, out = run_cli(capsys, kind, "--input", path, "--renormalize")
    assert code == 2
    assert json.loads(out)["error"] == {"code": 2, "type": error[0], "message": error[1]}


BIG = 10**400  # a JSON integer past the float range


@pytest.mark.parametrize(
    "kind, payload, options, error",
    [
        pytest.param(
            "iv-bounds", {"table": [[[BIG, 0], [0, 0]], [[0, 0], [0, 0]]]}, None,
            ("ValidationError", "IV table has an entry past the floating-point range"),
            id="iv-bounds-payload0-None-table",
        ),
        pytest.param(
            "npa", {"functional": [[BIG, 1], [1, -1]]}, None,
            ("ValidationError", "functional has an entry past the floating-point range"),
            id="npa-payload1-None-functional",
        ),
        pytest.param(
            "manski", {"e1": BIG, "e0": 0.4, "px1": 0.5}, None,
            ("ValidationError", "e1 is past the floating-point range"),
            id="manski-payload2-None-e1",
        ),
        pytest.param(
            "frechet", {"u": 0.5, "v": BIG}, None,
            ("ValidationError", "v is past the floating-point range"),
            id="frechet-payload3-None-v",
        ),
        pytest.param(
            "pns", {"experimental": {"p_do1": BIG, "p_do0": 0.5}, "observational": {"joint": [[0.25] * 2] * 2}}, None,
            ("ValidationError", "p_do1 is past the floating-point range"),
            id="pns-payload4-None-p_do1",
        ),
        pytest.param(
            "frechet", {"u": 0.5, "v": 0.5}, {"tolerance": BIG},
            ("SchemaError", '"tolerance" is out of the floating-point range'),
            id="frechet-payload5-options5-tolerance",
        ),
    ],
)
def test_integers_past_the_float_range_are_schema_errors(tmp_path, capsys, kind, payload, options, error):
    path = write_doc(tmp_path, payload, options=options)
    code, out = run_cli(capsys, kind, "--input", path)
    assert code == 2
    assert json.loads(out)["error"] == {"code": 2, "type": error[0], "message": error[1]}


def test_integer_past_the_float_range_fails_only_its_batch_entry(tmp_path, capsys):
    batch = [
        {"schema": 1, "kind": "manski", "payload": {"e1": BIG, "e0": 0.4, "px1": 0.5}},
        {"schema": 1, "kind": "frechet", "payload": {"u": 0.8, "v": 0.7}},
    ]
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(batch))
    code, out = run_cli(capsys, "manski", "--batch", str(path))
    assert code == 2
    docs = json.loads(out)
    assert docs[0]["error"] == {"code": 2, "type": "ValidationError", "message": "e1 is past the floating-point range"}
    assert "error" not in docs[1]
    assert docs[1]["results"]["joint_bounds"]["lo"] == 0.5


def test_negative_audit_seed_is_schema_error(tmp_path, capsys):
    path = write_doc(tmp_path, {"suite": "lp", "samples": 1, "seed": -1})
    code, out = run_cli(capsys, "audit", "--input", path)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "SchemaError"
    assert "seed" in error["message"]


@pytest.mark.parametrize(
    "text",
    [
        '{"schema": 1, "payload": {"e1": %s, "e0": 0.4, "px1": 0.5}}' % ("1" * 5000),  # past the digit limit
        "[" * 100000 + "]" * 100000,  # nesting past the recursion limit
        b"\xff\xfe".decode("latin-1"),  # not UTF-8 once written as latin-1
    ],
    ids=["digit-limit", "deep-nesting", "not-utf8"],
)
def test_unreadable_json_is_schema_error(tmp_path, capsys, text):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="latin-1")
    code, out = run_cli(capsys, "manski", "--input", str(path))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "SchemaError"


@pytest.mark.parametrize(
    "kind, payload",
    [
        ("membership", {"behavior": np.full((2, 2, 2, 2), 1e308).tolist()}),
        ("iv-bounds", {"table": np.full((2, 2, 2), 1e308).tolist()}),
        ("entropic", {"behavior": UNIFORM_BEHAVIOR, "settings": [[1e308, 1e308], [1e308, 1e308]]}),
        ("pns", {"experimental": {"p_do1": 0.5, "p_do0": 0.5}, "observational": {"joint": [[1e308] * 2] * 2}}),
    ],
)
def test_total_mass_past_the_float_range_is_schema_error(tmp_path, capsys, kind, payload):
    names = {"membership": "behavior", "iv-bounds": "IV table", "entropic": "settings distribution"}
    what = names.get(kind, "observational joint")
    path = write_doc(tmp_path, payload)
    code, out = run_cli(capsys, kind, "--input", path, "--renormalize")
    assert code == 2
    message = f"{what} has a block of mass inf, which cannot be rescaled to 1"
    assert json.loads(out)["error"] == {"code": 2, "message": message, "type": "ValidationError"}


def test_tolerance_option_sets_the_facet_and_lp_slack(tmp_path, capsys):
    # the canonical CHSH value 2 + 1e-7: just outside the local polytope
    correlations = [[0.5, 0.5], [0.5, -0.5 - 1e-7]]
    outcomes = []
    for tolerance in (None, 1e-6):
        options = {"audit": True, **({"tolerance": tolerance} if tolerance else {})}
        path = write_doc(tmp_path, {"correlations": correlations}, options=options)
        code, out = run_cli(capsys, "chsh", "--input", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["audit"] == {"facet_check_agrees": True, "lp_agrees": True}
        assert doc["provenance"]["tolerances"]["facet"] == (tolerance or 1e-9)
        outcomes.append(doc["results"]["member_of_local_polytope"])
    assert outcomes == [False, True]


def test_non_finite_json_constant_is_a_schema_error(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text('{"schema": 1, "payload": {"e1": 0.5, "e0": 0.2, "px1": 0.4, "note": NaN}}')
    code, out = run_cli(capsys, "manski", "--input", str(path))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "SchemaError"
    assert "NaN" in error["message"]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_constant_fails_the_whole_batch(tmp_path, capsys, token):
    path = tmp_path / "batch.json"
    path.write_text(
        '[{"schema": 1, "kind": "frechet", "payload": {"u": 0.8, "v": 0.7}},'
        f' {{"schema": 1, "kind": "manski", "payload": {{"e1": 0.5, "e0": 0.2, "px1": 0.4, "note": {token}}}}}]'
    )
    code, out = run_cli(capsys, "manski", "--batch", str(path))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "SchemaError"


SHORT_2X2 = [[0.225, 0.225], [0.225, 0.225]]  # sums to 0.9


@pytest.mark.parametrize(
    "kind, payload, what",
    [
        ("iv-bounds", {"table": [SHORT_2X2, SHORT_2X2]}, "IV table"),
        ("pns", {"experimental": {"p_do1": 0.5, "p_do0": 0.5}, "observational": {"joint": SHORT_2X2}}, "observational joint"),
        ("entropic", {"behavior": UNIFORM_BEHAVIOR, "settings": SHORT_2X2}, "settings distribution"),
    ],
    ids=["iv-table", "pns-joint", "entropic-settings"],
)
def test_every_distribution_field_shares_one_normalization_policy(tmp_path, capsys, kind, payload, what):
    path = write_doc(tmp_path, payload)
    code, out = run_cli(capsys, kind, "--input", path)
    assert code == 2
    assert json.loads(out)["error"]["message"] == (
        f"{what} deviates from normalization by 1.000e-01 (> 1e-9); pass --renormalize to accept"
    )
    code, out = run_cli(capsys, kind, "--input", path, "--renormalize")
    assert code == 0
    assert f"{what} renormalized (deviation 1.000e-01)" in json.loads(out)["warnings"]
    negative = json.loads(json.dumps(payload).replace("0.225, 0.225]", "0.225, -0.225]", 1))
    code, out = run_cli(capsys, kind, "--input", write_doc(tmp_path, negative), "--renormalize")
    assert code == 2
    message = f"{what} has a negative entry -2.250e-01"
    assert json.loads(out)["error"] == {"code": 2, "message": message, "type": "ValidationError"}


def _shifted_local_behavior(shift: float) -> np.ndarray:
    """A local behavior with ``shift`` moved across Alice's outcomes at
    (x, y) = (0, 1): a marginal gap of ``shift``."""
    p = random_local_behavior(np.random.default_rng(3)).p.copy()
    p[0, 0, 0, 1] -= shift
    p[1, 0, 0, 1] += shift
    return p


def test_no_signaling_field_reads_the_lp_rule(tmp_path, capsys):
    # a gap g leaves the strategy LP a phase-1 optimum of 4g: 5e-10 is
    # signaling at the default tolerance 1e-9, not at 1e-8
    behavior = _shifted_local_behavior(5e-10).tolist()
    for tolerance, expected in ((None, False), (1e-8, True)):
        options = {"audit": True, **({"tolerance": tolerance} if tolerance else {})}
        path = write_doc(tmp_path, {"behavior": behavior}, options=options)
        code, out = run_cli(capsys, "membership", "--input", path)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["no_signaling"] is expected
        assert results["member"] is expected
        if expected:
            assert results["audit"] == {"facet_check_agrees": True, "lp_agrees": True}
            assert results["reconstruction_error"] <= 1e-9
        else:
            assert "audit" not in results


def test_signaling_behavior_whose_facets_hold_reports_no_violated_facet(tmp_path, capsys):
    path = write_doc(tmp_path, {"behavior": _shifted_local_behavior(5e-10).tolist()}, options={"audit": True})
    for kind, member_field in (("membership", "member"), ("chsh", "member_of_local_polytope")):
        code, out = run_cli(capsys, kind, "--input", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["results"][member_field] is False
        assert doc["results"]["violated_facet"] is None
        assert "audit" not in doc["results"]
        assert any("signaling" in warning for warning in doc["warnings"])


def test_chsh_evaluates_the_variants_twice(tmp_path, capsys, monkeypatch):
    # once for the report, and once in local_membership for both the facet
    # test and a non-member's certificate
    original = polybounds.model.chsh_variant_values
    calls = []

    def counted(c):
        calls.append(c)
        return original(c)

    for name, module in list(sys.modules.items()):
        if name.startswith("polybounds") and getattr(module, "chsh_variant_values", None) is original:
            monkeypatch.setattr(module, "chsh_variant_values", counted)
    payloads = (
        {"correlations": [[1.0, 1.0], [1.0, -1.0]]},
        {"behavior": _shifted_local_behavior(0.0).tolist()},
        {"behavior": _shifted_local_behavior(5e-10).tolist()},
        {"behavior": Behavior.pr_box().p.tolist()},
    )
    for payload in payloads:
        calls.clear()
        code, _ = run_cli(capsys, "chsh", "--input", write_doc(tmp_path, payload))
        assert code == 0
        assert len(calls) == 2
    calls.clear()
    code, _ = run_cli(capsys, "membership", "--input", write_doc(tmp_path, payloads[1]))
    assert (code, len(calls)) == (0, 1)


def test_audit_reports_a_wrong_membership_verdict(tmp_path, capsys, monkeypatch):
    import polybounds.cli as cli

    honest = cli.local_membership

    def flipped(behavior, tol):
        cert = honest(behavior, tol)
        return cli.MembershipCertificate(not cert.member, np.full(16, 1 / 16), 0, None, 0.0)

    monkeypatch.setattr(cli, "local_membership", flipped)
    path = write_doc(tmp_path, {"suite": "membership", "samples": 6, "seed": 2})
    code, out = run_cli(capsys, "audit", "--input", path)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["membership"] == {"disagreements": 6, "agrees": False}
    assert results["all_agree"] is False
    for kind, result_field in (("membership", "member"), ("chsh", "member_of_local_polytope")):
        path = write_doc(tmp_path, {"behavior": np.full((2, 2, 2, 2), 0.25).tolist()}, options={"audit": True})
        code, out = run_cli(capsys, kind, "--input", path)
        assert code == 0
        results = json.loads(out)["results"]
        assert results[result_field] is False
        assert results["audit"] == {"facet_check_agrees": False, "lp_agrees": False}


class _SimplexCalled(Exception):
    pass


def test_membership_and_chsh_run_no_simplex(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise _SimplexCalled

    for name, module in list(sys.modules.items()):
        if name.startswith("polybounds") and hasattr(module, "lp_solve"):
            monkeypatch.setattr(module, "lp_solve", refuse)
    local = _shifted_local_behavior(0.0).tolist()
    payloads = {
        "membership": [{"behavior": local}, {"behavior": _shifted_local_behavior(1e-3).tolist()}],
        "chsh": [{"behavior": local}, {"correlations": [[1.0, 1.0], [1.0, -1.0]]}, {"correlations": [[0.5] * 2] * 2}],
    }
    for kind, documents in payloads.items():
        for payload in documents:
            code, _ = run_cli(capsys, kind, "--input", write_doc(tmp_path, payload))
            assert code == 0
    # the audit does solve the LP, so the patch is in place
    with pytest.raises(_SimplexCalled):
        run_cli(capsys, "membership", "--input", write_doc(tmp_path, {"behavior": local}, options={"audit": True}))


@pytest.mark.parametrize("depth", [400, 600, 900])
def test_a_deep_request_is_echoed_or_refused_as_a_schema_error(tmp_path, capsys, depth):
    # json.load reads each depth; the report's echo of the request recurses
    # two frames a level, so 400 levels are echoed and 600 pass the
    # interpreter's recursion limit
    note = "[" * depth + "]" * depth
    manski = '{"schema": 1, "kind": "manski", "payload": {"e1": 0.7, "e0": 0.4, "px1": 0.5, "note": ' + note + "}}"
    single, batch = tmp_path / "single.json", tmp_path / "batch.json"
    single.write_text(manski)
    batch.write_text(f"[{manski}, {json.dumps(FRECHET)}]")
    code, out = run_cli(capsys, "manski", "--input", str(single))
    batch_code, batch_out = run_cli(capsys, "manski", "--batch", str(batch))
    entries = json.loads(batch_out)
    assert entries[1]["results"]["joint_bounds"]["lo"] == 0.5
    if depth == 400:
        assert code == batch_code == 0
        for report in (json.loads(out), entries[0]):
            assert json.dumps(report["request"]["payload"]["note"]) == note
        return
    # the single report and the markdown one are the error payload; in a
    # batch only the deep entry is
    error = {"code": 2, "message": "request nests too deeply to echo in the report", "type": "SchemaError"}
    md_code, md_out = run_cli(capsys, "manski", "--input", str(single), "--format", "md")
    assert code == batch_code == md_code == 2
    assert json.loads(out) == json.loads(md_out) == entries[0] == {"schema": 1, "error": error}


# ---------------------------------------------------------------------------
# golden bytes: a fixed set of requests whose stdout and exit codes are pinned

PR_BOX = [[[[0.5, 0.5], [0.5, 0.0]], [[0.0, 0.0], [0.0, 0.5]]], [[[0.0, 0.0], [0.0, 0.5]], [[0.5, 0.5], [0.5, 0.0]]]]
IV_TABLE = [[[0.3, 0.1], [0.2, 0.25]], [[0.15, 0.35], [0.35, 0.3]]]
DETERMINISTIC_BEHAVIOR = [[[[1, 1], [1, 1]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]]
NOTE = [0.0, -0.0, 5e-324, 1e-05, 9.99999999999951e-05, 123.0, 999999999999.5, 1e12, -1.25e13, 1.5e15,
        9.9999999999995e15, 1e16, 1e22, 2**53, 0.1 + 0.2, 10**30, -7, True, None, "café ☃"]
GOLDEN_REQUESTS = (
    ("iv-bounds", (), {"table": IV_TABLE}),
    ("iv-bounds", ("--variant", "paper-literal"),
     {"table": {"values": np.transpose(IV_TABLE, (2, 0, 1)).tolist(), "order": ["z", "y", "x"]}}),
    ("iv-bounds", (), {"table": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]]}),
    ("chsh", (), {"correlations": [[1, 1], [1, -1]]}),
    ("chsh", (), {"correlations": [[0.7071, 0.7071], [0.7071, -0.7071]]}),
    ("chsh", (), {"behavior": UNIFORM_BEHAVIOR}),
    ("chsh", (), {"behavior": PR_BOX}),
    ("membership", (), {"behavior": UNIFORM_BEHAVIOR}),
    ("membership", ("--audit",), {"behavior": PR_BOX}),
    ("membership", ("--tolerance", "1e-6"), {"behavior": DETERMINISTIC_BEHAVIOR}),
    ("npa", (), {"functional": [[1, 1], [1, -1]]}),
    ("npa", ("--npa-level", "1ab"), {"functional": [[1.0, 2.5], [-0.5, 1e-3]]}),
    ("gap", (), {"functional": [[0.3, -1.2], [0.8, 0.4]]}),
    ("gap", (), {"behavior": PR_BOX}),
    ("gap", (), {"table": IV_TABLE}),
    ("gap", ("--format", "md"), {"table": IV_TABLE}),
    ("pns", (), {"experimental": {"p_do1": 0.6, "p_do0": 0.2}, "observational": {"joint": [[0.4, 0.1], [0.1, 0.4]]}}),
    ("pns", (), {"experimental": {"p_do1": 0.5, "p_do0": 0.5}, "observational": {"joint": [[0.5, 0.5], [0.0, 0.0]]}}),
    ("manski", (), {"e1": 0.7, "e0": 0.4, "px1": 0.5, "note": NOTE}),
    ("manski", (), {"e1": 1e-5, "e0": 0.999999999999, "px1": 1}),
    ("frechet", (), {"u": 0.8, "v": 0.7}),
    ("frechet", (), {"u": 1e-5, "v": 0.3}),
    ("entropic", (), {"behavior": PR_BOX}),
    ("entropic", (), {"behavior": UNIFORM_BEHAVIOR, "settings": [[0.5, 0.25], [0.125, 0.125]]}),
    ("entropic", ("--renormalize",), {"behavior": UNIFORM_BEHAVIOR, "settings": [[0.5, 0.25], [0.125, 0.126]]}),
    ("audit", (), {"suite": "membership", "samples": 4, "seed": 3}),
    ("chsh", ("--format", "md"), {"correlations": [[0.5, 0.5], [0.5, -0.5]]}),
    ("frechet", (), {"u": 1.5, "v": 0.3}),
    ("manski", (), {"e0": 0.4}),
    ("manski", ("--batch",), [
        {"schema": 1, "kind": "manski", "payload": {"e1": 0.7, "e0": 0.4, "px1": 0.5}},
        {"schema": 2, "kind": "frechet", "payload": {"u": 0.8, "v": 0.7}},
        {"schema": 1, "kind": "entropic", "payload": {"behavior": PR_BOX}},
    ]),
)

#: sha256 of ``_golden_bytes``: a change to any of these reports' bytes changes it
GOLDEN_SHA256 = "91f852d84b7226a30ffa3af3053118f770b78d65e070fd1ea5cde1788f6eef1e"


def _golden_bytes(tmp_path, capsys) -> str:
    """The exit codes and stdout of ``GOLDEN_REQUESTS``, in order."""
    chunks = []
    for i, (kind, flags, payload) in enumerate(GOLDEN_REQUESTS):
        path = tmp_path / f"golden{i}.json"
        if flags == ("--batch",):
            path.write_text(json.dumps(payload))
            code, out = run_cli(capsys, kind, "--batch", str(path))
        else:
            path.write_text(json.dumps({"schema": 1, "payload": payload}))
            code, out = run_cli(capsys, kind, "--input", str(path), *flags)
        chunks.append(f"{code}\n{out}")
    return "".join(chunks)


def test_golden_requests_keep_their_bytes(tmp_path, capsys):
    # every kind, an audit, a markdown report, error payloads and a batch
    # with an invalid entry; any change to a report's bytes changes the digest
    text = _golden_bytes(tmp_path, capsys)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256
