"""Byte gate over the benchmark's workloads.

The first 300 regular requests of each workload in ``perfbench/workloads.py``,
with their probes, at seeds 101 and 7919 (1854 requests), run through
``cli.main`` with the request's text on stdin.  Each request's exit code and
stdout are hashed, and the hashes must equal the ones committed in
``workload_digests.json``; a request that differs is named by workload,
seed, index and family.  A change that moves reports on purpose rewrites
the file and says which requests moved:

    PYTHONPATH=src python tests/test_workload_bytes.py
"""

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("workload_digests.json")
SEEDS = (101, 7919)
COUNT = 300


@functools.cache
def _workloads():
    """perfbench/workloads.py, loaded as it stands; its dataclass needs the
    module registered while it runs."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def requests() -> list:
    """(key, family, request) of every gated request, in run order; the key
    is "<workload> <seed> <index>"."""
    workloads = _workloads()
    out = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            stream = workloads.with_probes(workload, workloads.regular_requests(workload, seed, COUNT))
            for index, request in enumerate(stream):
                family = request.docs[0][0] if len(request.docs) == 1 else "batch"
                out.append((f"{workload} {seed} {index}", family, request))
    return out


def run(request) -> tuple[int, str]:
    from polybounds import cli

    out = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(request.text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(request.argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def digest(code: int, stdout: str) -> str:
    """The first 16 hex digits of the sha256 of the exit code and stdout."""
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()[:16]


def differences(expected: dict, actual: dict) -> list:
    """The requests whose digests differ, or that only one side holds, as
    "<workload> <seed> <index> (<family>)"."""
    return [
        f"{key} ({(actual.get(key) or expected[key])[0]})"
        for key in dict.fromkeys([*expected, *actual])
        if expected.get(key) != actual.get(key)
    ]


def current() -> dict:
    return {key: [family, digest(*run(request))] for key, family, request in requests()}


def test_workload_reports_keep_their_bytes():
    assert differences(json.loads(DIGESTS.read_text()), current()) == []


def test_the_gate_names_a_one_digit_change():
    expected = json.loads(DIGESTS.read_text())
    key, family, request = requests()[-1]
    code, stdout = run(request)
    assert [family, digest(code, stdout)] == expected[key]
    at = re.search(r"\d\.\d{6,}", stdout).end() - 1  # the last digit of the report's first long float
    planted = stdout[:at] + str((int(stdout[at]) + 1) % 10) + stdout[at + 1:]
    actual = dict(expected, **{key: [family, digest(code, planted)]})
    assert differences(expected, actual) == [f"{key} ({family})"]


if __name__ == "__main__":
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in current().items()]
    DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
