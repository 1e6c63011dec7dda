"""One workload process: import, warm up, report ready, then run and check.

Started by ``run.py``; not meant to be run by hand.  Prints ``READY
<import_s> <warmup_s>`` once ``polybounds.cli`` is imported and one warm-up
request of each CLI kind of the workload has run.  With ``--setup-only`` it
exits there.  Otherwise it builds the seeded requests, runs the closed loop,
checks each answer against its reference, and prints one JSON line with the
raw results for ``run.py`` to summarize.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Regular requests every untraced run must complete, so that at least ten
#: latency samples lie beyond the 90th percentile.
MIN_REQUESTS = 100
#: Requests whose exact counts (iterations, pivots) the traced run reports.
COUNTED = {"batch-classical": 100, "npa-sweep": 40, "quantum-iv": 24}
#: Regular requests in the pool that the loop cycles.  An untraced run stops
#: only at the end of a pass over its pool, so every request runs the same
#: number of times (at least twice) and every run has the pool's mix; from
#: the second pass on, the bytes of each answer must not change.
POOL = {"batch-classical": 100, "npa-sweep": 60, "quantum-iv": 36}


def upper_quartile(values) -> float:
    """75th percentile, interpolated between order statistics.

    A request's latency is the upper quartile of its runs, one per pass.
    A shared 2-core host can run up to 1.8x faster for seconds at a time
    while its neighbours idle; the upper quartile keeps the usual speed as
    long as such phases cover less than a quarter of a request's runs, where
    a mean over all runs moved run-level figures by up to 40 %.
    """
    xs = sorted(values)
    pos = 0.75 * (len(xs) - 1)
    lo = int(pos)
    return xs[lo] + (xs[min(lo + 1, len(xs) - 1)] - xs[lo]) * (pos - lo)


def call(main, request):
    """One call to ``cli.main`` with the request on stdin; stdout captured."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(request.text)
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(request.argv))
        return code, out.getvalue(), None
    except Exception as exc:  # an escaping exception is a failed document, not a crash
        return None, out.getvalue(), exc
    finally:
        sys.stdin = saved


def import_program():
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import polybounds.cli as cli

    elapsed = perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"polybounds imported from {cli.__file__}, not from {SRC}")
    return cli, elapsed


class Loop:
    """Runs requests in order, judges each answer and keeps the tallies."""

    def __init__(self, main, stream, check):
        self.main = main
        self.stream = stream
        self.check = check
        self.walls = []  # every request, in stream order
        self.runs = {}  # stream position -> latencies of its runs
        self.calls = []  # stream position of every request, in order
        self.docs = self.answered = self.refused = self.wrong = 0
        self.regular = 0
        self.digests = {}
        self.prefix = hashlib.sha256()
        self.messages = []
        self.index = 0

    def step(self, counted_prefix: int):
        k = self.index % len(self.stream)
        request = self.stream[k]
        t0 = perf_counter()
        code, stdout, escaped = call(self.main, request)
        elapsed = perf_counter() - t0
        self.walls.append(elapsed)
        self.runs.setdefault(k, []).append(elapsed)
        self.calls.append(k)
        if not request.probe:
            self.regular += 1
        n = len(request.docs)
        self.docs += n
        if escaped is None:
            self.answered += n
        digest = hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()
        fresh = k not in self.digests
        if fresh and self.index < counted_prefix:
            self.prefix.update(digest.encode())
        if fresh:
            verdicts = self.check(request, code, stdout, escaped)
            self.digests[k] = (digest, verdicts)
        elif digest == self.digests[k][0]:
            # a resubmitted request: byte-identical output stands for its verdicts
            verdicts = self.digests[k][1]
        else:
            verdicts = [("wrong", "output differs from the first submission")] * n
            fresh = True
        for kind, message in verdicts:
            if kind == "refused":
                self.refused += 1
            elif kind == "wrong":
                self.wrong += 1
            if fresh and (kind == "wrong" or kind == "refused" and len(self.messages) < 10):
                self.messages.append(f"request {k}: {kind}: {message}")
        self.index += 1

    def results(self) -> dict:
        latency = {k: upper_quartile(runs) for k, runs in self.runs.items()}
        return {
            "docs": self.docs,
            "answered": self.answered,
            "refused": self.refused,
            "wrong": self.wrong,
            "regular": self.regular,
            "busy_s": sum(latency[k] for k in self.calls),
            "latencies_s": [latency[k] for k in self.calls if not self.stream[k].probe],
            "digest": self.prefix.hexdigest(),
            "messages": self.messages,
        }


def run_for(loop: Loop, seconds: float, counted_prefix: int) -> None:
    """Whole passes over the stream until ``seconds`` have passed, at least
    two passes and at least MIN_REQUESTS regular requests are done."""
    t0 = perf_counter()
    n = len(loop.stream)
    while (perf_counter() - t0 < seconds or loop.regular < MIN_REQUESTS
           or loop.index < max(2 * n, counted_prefix) or loop.index % n):
        loop.step(counted_prefix)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli, import_s = import_program()
    import workloads

    t0 = perf_counter()
    for request in workloads.warmup_requests(args.workload):
        code, _, escaped = call(cli.main, request)
        if escaped is not None or code not in (0, 2, 3):
            raise SystemExit(f"warm-up request failed: exit {code}, {escaped!r}")
    warmup_s = perf_counter() - t0
    print(f"READY {import_s!r} {warmup_s!r}", flush=True)
    if args.setup_only:
        return 0

    import reference

    regular = workloads.regular_requests(args.workload, args.seed, POOL[args.workload])
    stream = workloads.with_probes(args.workload, regular)
    counted = COUNTED[args.workload]
    loop = Loop(cli.main, stream, reference.check)
    out: dict = {"import_s": import_s, "warmup_s": warmup_s}

    if args.trace:
        # each request runs untraced and then traced, back to back, so that
        # both see the same inputs and nearly the same host speed
        import tracing

        tracer = tracing.Tracer()
        traced_main = tracer.root(cli.main)
        plain, traced = [], []
        t0 = perf_counter()
        while loop.index < counted or perf_counter() - t0 < args.seconds:
            i = loop.index
            loop.main = cli.main
            loop.step(counted)
            plain.append(loop.walls[-1])
            loop.index, loop.main, tracer.request = i, traced_main, i
            tracer.install()
            try:
                loop.step(counted)
            finally:
                tracer.uninstall()
            traced.append(loop.walls[-1])
        out["overhead_frac"] = 1.0 - sum(plain) / sum(traced)
        docs_of_request = {i: len(stream[i % len(stream)].docs) for i in range(loop.index)}
        out["layers"] = tracing.summarize(tracer.spans, docs_of_request, counted)
    else:
        run_for(loop, args.seconds, counted)
    out["loop"] = loop.results()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out["versions"] = {"numpy": numpy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
