import itertools
import json

import numpy as np
import pytest

from polybounds.cli import SchemaError, _classify, main, parse_request, serialize_request


def write_doc(tmp_path, payload, options=None, name="doc.json"):
    doc = {"schema": 1, "payload": payload}
    if options:
        doc["options"] = options
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


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
    assert doc["provenance"]["solver"]["duality_gap"] <= 1e-6


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


def test_domain_error_is_schema_error(tmp_path, capsys):
    path = write_doc(tmp_path, {"u": 1.4, "v": 0.5})
    code, out = run_cli(capsys, "frechet", "--input", path)
    assert code == 2


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
    assert json.loads(out)["provenance"]["solver"]["sdp_termination"] in ("converged", "stalled")
    path = write_doc(tmp_path, {"table": np.full((2, 2, 2), 0.25).tolist()})
    code, out = run_cli(capsys, "gap", "--input", path)
    assert code == 0
    solver = json.loads(out)["provenance"]["solver"]
    assert len(solver["sdp_termination"]) == len(solver["sdp_iterations"]) == 2


def test_huge_functional_is_solver_error(tmp_path, capsys):
    path = write_doc(tmp_path, {"functional": [[1e300, 1.0], [1.0, -1.0]]})
    code, out = run_cli(capsys, "npa", "--input", path)
    assert code == 4
    assert json.loads(out)["error"]["code"] == 4
    # numpy linear-algebra failures elsewhere are solver failures too
    assert _classify(np.linalg.LinAlgError("Eigenvalues did not converge")) == 4


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


def test_audit_battery(tmp_path, capsys):
    path = write_doc(tmp_path, {"suite": "all", "samples": 8, "seed": 3})
    code, out = run_cli(capsys, "audit", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["all_agree"] is True
    assert doc["results"]["lp"]["max_discrepancy"] <= 1e-9


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


@pytest.mark.parametrize(
    "kind, payload",
    [
        ("entropic", {"behavior": UNIFORM_BEHAVIOR, "settings": [[0.5, 0.5], [0.0, float("nan")]]}),
        ("entropic", {"behavior": UNIFORM_BEHAVIOR, "settings": [[0.0, 0.0], [0.0, 0.0]]}),
        ("pns", {"experimental": {"p_do1": 0.5, "p_do0": 0.5}, "observational": {"joint": [[0, 0], [0, 0]]}}),
        ("npa", {"functional": [[float("nan"), 1.0], [1.0, -1.0]]}),
    ],
)
def test_non_finite_and_zero_mass_arrays_are_schema_errors(tmp_path, capsys, kind, payload):
    path = write_doc(tmp_path, payload)
    code, out = run_cli(capsys, kind, "--input", path, "--renormalize")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "SchemaError"
