"""Tests of the benchmark itself: seeded generators and failure accounting.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import worker  # noqa: E402
import workloads  # noqa: E402

cli, _ = worker.import_program()
import reference  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(name):
    first = workloads.regular_requests(name, 5, 12)
    again = workloads.regular_requests(name, 5, 12)
    other = workloads.regular_requests(name, 6, 12)
    assert [r.text for r in first] == [r.text for r in again]
    assert [r.argv for r in first] == [r.argv for r in again]
    assert [r.text for r in first] != [r.text for r in other]


def test_family_shares_are_fixed_per_block():
    for batch in workloads.regular_requests("batch-classical", 9, 5):
        assert len(batch.docs) == workloads.BATCH_SIZE
    sweep = workloads.regular_requests("npa-sweep", 9, len(workloads.NPA_BLOCK))
    levels = [json.loads(r.text)["options"]["npa_level"] for r in sweep]
    assert levels.count("1ab") == 3
    iv = workloads.regular_requests("quantum-iv", 9, 2 * len(workloads.IV_BLOCK))
    assert sorted(r.docs[0][0] for r in iv) == sorted(workloads.IV_BLOCK * 2)


def _swept(request) -> bool:
    family, doc = request.docs[0]
    if family in workloads.SWEPT:
        return True
    f = doc["payload"].get("functional")
    return f is not None and len({abs(v) for row in f for v in row}) > 1  # not the CHSH family


def test_sweep_inputs_are_shared_across_seeds():
    for name, block in (("npa-sweep", workloads.NPA_BLOCK), ("quantum-iv", workloads.IV_BLOCK)):
        one, two = (workloads.regular_requests(name, seed, 3 * len(block)) for seed in (1, 2))
        swept = [sorted(r.text for r in reqs if _swept(r)) for reqs in (one, two)]
        assert swept[0] and swept[0] == swept[1]
        assert [r.text for r in one] != [r.text for r in two]


def _fail_frac(main, requests) -> float:
    loop = worker.Loop(main, requests, reference.check)
    for _ in requests:
        loop.step(0)
    return (loop.refused + loop.wrong) / loop.docs


def _planted(transform):
    def main(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        code, text = transform(code, out.getvalue())
        print(text, end="")
        return code

    return main


def _shift_ace(code, text):
    answers = json.loads(text)
    for answer in answers:
        if "ace_bounds" in answer.get("results", {}):
            answer["results"]["ace_bounds"]["lo"] -= 1e-3
            break
    return code, json.dumps(answers)


def _raise(argv):
    raise RuntimeError("planted")


@pytest.fixture(scope="module")
def batches():
    return workloads.regular_requests("batch-classical", 3, 2)


def test_clean_run_has_no_failures(batches):
    assert _fail_frac(cli.main, batches) == 0.0


@pytest.mark.parametrize(
    "main",
    [_planted(_shift_ace), _planted(lambda code, text: (4 if code == 0 else 0, text)), _raise],
    ids=["wrong-value", "wrong-exit-code", "escaping-exception"],
)
def test_planted_defects_raise_fail_frac(batches, main):
    assert _fail_frac(main, batches) > 0.0


def test_wrong_value_makes_the_run_incorrect(batches):
    loop = worker.Loop(_planted(_shift_ace), batches, reference.check)
    loop.step(0)
    assert loop.wrong >= 1


def test_references_agree_with_the_program_on_sdp_requests():
    requests = [r for r in workloads.regular_requests("npa-sweep", 4, 10) if '"1"' in r.text][:3]
    assert _fail_frac(cli.main, requests) == 0.0


def test_tsirelson_closed_form():
    assert reference.tsirelson(workloads.CHSH) == pytest.approx(2 * 2 ** 0.5, abs=1e-12)
    assert reference.tsirelson([[1.0, 0.0], [0.0, 1.0]]) == pytest.approx(2.0, abs=1e-12)


def test_upper_quartile_interpolates():
    assert worker.upper_quartile([7.0]) == 7.0
    assert worker.upper_quartile([3.0, 1.0]) == 2.5
    assert worker.upper_quartile([1.0, 2.0, 3.0]) == 2.5
    assert worker.upper_quartile([4.0, 1.0, 3.0, 2.0, 5.0]) == 4.0
