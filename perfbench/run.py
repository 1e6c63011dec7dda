"""Benchmark of the polybounds CLI, end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``batch-classical``, ``npa-sweep``, ``quantum-iv`` or ``all`` (each
of the three in turn).  Run it from the root of a source checkout; it
imports the package from ``src/`` and installs nothing.

Load is a closed loop from one client: one workload process, no extra
threads, calling ``polybounds.cli.main`` in-process and sending the next
request when the previous one returns.  The process is spawned
``SETUP_SPAWNS`` times; ``setup_s`` is the median time from spawning until
the program is imported and warmed up.  The last spawn then goes round a
seeded pool of requests in whole passes for ``--seconds`` (at least two
passes and 100 requests) and checks every answer against the independent
references in ``reference.py``.  A request's latency is the upper quartile
of its runs, one per pass (see ``worker.upper_quartile``); ``docs_per_s``
divides the documents answered by the sum of those latencies.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
requests untraced and then traced, with each layer's public functions
wrapped from outside (``tracing.py``), and reports the per-layer metrics.
Seed 7919 (``HELD_OUT_SEED``) is held out for confirming claims.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it print every
metric by name with its unit, and the run's metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("batch-classical", "npa-sweep", "quantum-iv")
HELD_OUT_SEED = 7919  # reserved for confirming a claimed gain; never used while tuning
SETUP_SPAWNS = 5
DEADLINE_S = 170.0  # one workload, set-up included

END_TO_END_UNITS = {
    "setup_s": "s",
    "docs_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "fail_frac": "fraction",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def _readline(proc, deadline: float) -> str:
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(max(0.0, deadline - perf_counter())):
            raise BenchError("workload process timed out")
    return proc.stdout.readline()


def spawn(workload: str, args, setup_only: bool, deadline: float):
    """Start a workload process and wait until it reports ready.

    Returns (process, seconds until ready, import seconds, warm-up seconds)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = _readline(proc, deadline)
        ready = perf_counter() - t0
        if not line.startswith("READY "):
            raise BenchError(f"workload process did not get ready (exit {proc.wait()})")
    except BaseException:
        _stop(proc)
        raise
    _, import_s, warmup_s = line.split()
    return proc, ready, float(import_s), float(warmup_s)


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def src_lines() -> int:
    """Source lines under src/ that are neither blank nor only a comment."""
    count = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        for line in path.read_text().splitlines():
            text = line.strip()
            if text and not text.startswith("#"):
                count += 1
    return count


def run_workload(workload: str, args) -> dict:
    deadline = perf_counter() + DEADLINE_S
    setups, imports, warmups = [], [], []
    for k in range(SETUP_SPAWNS):
        proc, ready, import_s, warmup_s = spawn(workload, args, k < SETUP_SPAWNS - 1, deadline)
        setups.append(ready)
        imports.append(import_s)
        warmups.append(warmup_s)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
        finally:
            _stop(proc)
        if proc.returncode != 0:
            raise BenchError(f"workload process exited with {proc.returncode}")
    raw = json.loads(out.splitlines()[-1])
    loop = raw["loop"]
    failed = loop["refused"] + loop["wrong"]
    result = {
        "workload": workload,
        "correct": loop["wrong"] == 0,
        "attempted": loop["docs"],
        "failed": failed,
        "loop": loop,
        "raw": raw,
    }
    if args.trace:
        metrics = {
            "setup.import_s": (statistics.median(imports), "s"),
            "setup.warmup_s": (statistics.median(warmups), "s"),
            "trace.overhead_frac": (raw["overhead_frac"], "fraction"),
            "src.lines": (src_lines(), "count"),
        }
        for name, value in raw["layers"].items():
            metrics[name] = (value, _layer_unit(name))
    else:
        lat = loop["latencies_s"]
        cuts = statistics.quantiles(lat, n=10, method="inclusive")
        metrics = {
            "setup_s": statistics.median(setups),
            "docs_per_s": loop["answered"] / loop["busy_s"],
            "req_p50_ms": 1e3 * statistics.median(lat),
            "req_p90_ms": 1e3 * cuts[8],
            "fail_frac": failed / loop["docs"],
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    result["metrics"] = metrics
    return result


def _layer_unit(name: str) -> str:
    if "ms_per_" in name:
        return "ms"
    if name.endswith("_frac") or name.endswith(".share"):
        return "fraction"
    if name.endswith("_per_doc"):
        return "1/doc"
    if name == "sdp.rel_gap_max":
        return "ratio"
    return "count"


def report(result: dict, args) -> None:
    loop, raw = result["loop"], result["raw"]
    w = result["workload"]
    print(f"== {w}  seed {args.seed}  trace {args.trace}")
    print(f"   documents {result['attempted']}, failed {result['failed']} "
          f"(refused {loop['refused']}, wrong {loop['wrong']}), regular requests {loop['regular']}")
    for message in loop["messages"]:
        print(f"   {message}")
    print(f"   digest of the first answers {loop['digest'][:16]}")
    print(f"   numpy {raw['versions']['numpy']}, {raw['versions']['blas']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"   {name:44s} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load = os.getloadavg()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args) for w in names]
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"load average at start {load[0]:.2f} {load[1]:.2f} {load[2]:.2f}, held-out seed {HELD_OUT_SEED}")
    for result in results:
        report(result, args)
    prefix = args.workload == "all"
    metrics = {
        (f"{r['workload']}.{name}" if prefix else name): {"value": value, "unit": unit}
        for r in results
        for name, (value, unit) in r["metrics"].items()
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
