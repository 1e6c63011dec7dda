"""Layer spans recorded from outside the program.

``Tracer.install`` replaces each public function through which the layers
of ``polybounds`` call each other with a wrapper that records a span: its
name, layer, start, end, parent span, the request it belongs to and its self
time (duration minus the time of the traced spans it caused).  The
replacement is made in every ``polybounds`` module that bound the function,
so calls through ``from .x import f`` names are seen too.  ``uninstall``
puts the originals back.  Spans stay in memory; ``summarize`` turns them into
the per-layer metrics.
"""

from __future__ import annotations

import functools
import re
import sys
from time import perf_counter

import numpy as np

#: (module, attribute, layer) of every traced function.  Class attributes are
#: written "Class.method".
TRACED = (
    ("polybounds.cli", "_read_document", "cli"),
    ("polybounds.cli", "parse_request", "cli"),
    ("polybounds.cli", "run", "cli"),
    ("polybounds.cli", "Report.to_dict", "cli"),
    ("polybounds.cli", "canonical_json", "cli"),
    ("polybounds.model", "Behavior.__post_init__", "model"),
    ("polybounds.model", "ObservedIVTable.__post_init__", "model"),
    ("polybounds.model", "CorrelationTable.__post_init__", "model"),
    ("polybounds.model", "Interval.__post_init__", "model"),
    ("polybounds.model", "ResponseTypeDist.__post_init__", "model"),
    ("polybounds.model", "behavior_to_correlations", "model"),
    ("polybounds.model", "chsh_value", "model"),
    ("polybounds.model", "chsh_variant_values", "model"),
    ("polybounds.polytope", "local_membership", "polytope"),
    ("polybounds.polytope", "local_max", "polytope"),
    ("polybounds.polytope", "no_signaling_max", "polytope"),
    ("polybounds.polytope", "enumerate_strategies", "polytope"),
    ("polybounds.polytope", "frechet_bounds", "polytope"),
    ("polybounds.polytope", "comonotone_coupling", "polytope"),
    ("polybounds.polytope", "countermonotone_coupling", "polytope"),
    ("polybounds.causal", "ace_bounds", "causal"),
    ("polybounds.causal", "instrumental_inequality", "causal"),
    ("polybounds.causal", "pns_bounds", "causal"),
    ("polybounds.causal", "pn_ps_point_bounds", "causal"),
    ("polybounds.causal", "counterfactual_atom_system", "causal"),
    ("polybounds.causal", "manski_bounds", "causal"),
    ("polybounds.causal", "iv_table_from_response_dist", "causal"),
    ("polybounds.quantum", "npa_bound", "quantum"),
    ("polybounds.quantum", "quantum_gap_report", "quantum"),
    ("polybounds.quantum", "quantum_ace_bounds", "quantum"),
    ("polybounds.quantum", "moment_program", "quantum"),
    ("polybounds.entropic", "entropic_chsh", "entropic"),
    ("polybounds.oracles", "oracle_extremal_scan", "oracles"),
    ("polybounds.oracles", "oracle_vertex_average", "oracles"),
    ("polybounds.oracles", "oracle_feasible_vertices", "oracles"),
    ("polybounds.solvers.lp", "lp_solve", "lp"),
    ("polybounds.solvers.sdp", "sdp_solve", "sdp"),
)

LAYERS = ("cli", "model", "polytope", "causal", "quantum", "entropic", "oracles", "lp", "sdp")
ROOT = "cli.main"
SDP_CAP = 200  # Tolerances.sdp_max_iterations
SDP_LEVEL = {5: "l1", 9: "l1ab"}  # moment-matrix size -> relaxation level
HIST_BINS = ((0, 25, "lt25"), (25, 50, "25-49"), (50, 100, "50-99"), (100, SDP_CAP, "100-199"), (SDP_CAP, None, "cap"))
_ITERS_IN_MESSAGE = re.compile(r"no convergence in (\d+) iterations")


def _observe_lp(args, kwargs, result, exc):
    if result is None:
        return None
    return (result.status, int(result.iterations))


def _observe_sdp(args, kwargs, result, exc):
    """(matrix size, iterations, raised, relative gap, start given)."""
    problem = args[0] if args else kwargs["problem"]
    start = kwargs.get("start", args[2] if len(args) > 2 else None)
    n = problem.dimension
    if result is not None:
        rel = result.gap / (1.0 + abs(result.value) + abs(result.dual_value))
        return (n, int(result.iterations), False, float(rel), start is not None)
    match = _ITERS_IN_MESSAGE.search(str(exc))
    iters = int(match.group(1)) if match else 0
    return (n, iters, True, None, start is not None)


_OBSERVERS = {"lp_solve": _observe_lp, "sdp_solve": _observe_sdp}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (request, span, parent, name, layer, t0, t1, self_s, info)
        self.request = -1
        self._stack: list = []  # [span id, traced child time]
        self._next = 0
        self._saved: list = []

    # -- recording -------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [sid, 0.0]
            tracer._stack.append(frame)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += t1 - t0
                info = observe(args, kwargs, result, exc) if observe else None
                tracer.spans.append((tracer.request, sid, parent, name, layer, t0, t1, t1 - t0 - frame[1], info))

        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "polybounds" or k.startswith("polybounds.")]
        for module_name, attr, layer in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._saved.append((cls, meth, fn))
                setattr(cls, meth, self.wrap(fn, f"{layer}.{attr}", layer))
                continue
            fn = getattr(owner, attr)
            wrapper = self.wrap(fn, f"{layer}.{attr}", layer, _OBSERVERS.get(attr))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._saved.append((module, key, fn))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._saved):
            setattr(owner, key, fn)
        self._saved.clear()

    def root(self, main):
        """Wrap ``cli.main`` as the root span of each request."""
        return self.wrap(main, ROOT, "cli")


# -- aggregation -------------------------------------------------------------


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def summarize(spans: list, docs_of_request: dict, counted: int) -> dict:
    """Per-layer metrics from the spans of one traced phase.

    Times use every span of the phase.  Counts and ratios of counts use only
    the first ``counted`` requests, a fixed prefix of the seeded request
    stream, so they repeat exactly across runs of one seed.
    """
    by_name: dict = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    total = 0.0
    for req, _, _, name, layer, t0, t1, self_s, _ in spans:
        calls, dur, own = by_name.get(name, (0, 0.0, 0.0))
        by_name[name] = (calls + 1, dur + (t1 - t0), own + self_s)
        layer_self[layer] += self_s
        if name == ROOT:
            total += t1 - t0
    docs = sum(docs_of_request.values())
    counted_docs = sum(n for r, n in docs_of_request.items() if r < counted)

    def calls(name):
        return by_name.get(name, (0, 0.0, 0.0))[0]

    def dur(*names):
        return sum(by_name.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(*names):
        return sum(by_name.get(n, (0, 0.0, 0.0))[2] for n in names)

    m: dict = {}
    m["cli.parse_ms_per_doc"] = 1e3 * _per(dur("cli._read_document", "cli.parse_request"), docs)
    m["cli.handler_self_ms_per_doc"] = 1e3 * _per(own("cli.run"), docs)
    m["cli.canonical_ms_per_doc"] = 1e3 * _per(dur("cli.Report.to_dict", "cli.canonical_json"), docs)
    for layer in LAYERS:
        m[f"{layer}.share"] = _per(layer_self[layer], total)

    counted_spans = [s for s in spans if s[0] < counted]
    lp = [s[8] for s in counted_spans if s[3] == "lp.lp_solve" and s[8] is not None]
    m["lp.calls_per_doc"] = _per(len(lp), counted_docs)
    m["lp.pivots_total"] = sum(it for _, it in lp)
    m["lp.ms_per_call"] = 1e3 * _per(dur("lp.lp_solve"), calls("lp.lp_solve"))
    m["lp.infeasible_frac"] = _per(sum(st == "infeasible" for st, _ in lp), len(lp))

    for name in ("polytope.local_membership", "polytope.local_max", "polytope.no_signaling_max",
                 "causal.ace_bounds", "causal.pn_ps_point_bounds"):
        m[f"{name}_self_ms_per_call"] = 1e3 * _per(own(name), calls(name))

    m["oracles.scan_ms_per_call"] = 1e3 * _per(dur("oracles.oracle_extremal_scan"), calls("oracles.oracle_extremal_scan"))
    m["oracles.vertex_average_ms_per_call"] = 1e3 * _per(
        dur("oracles.oracle_vertex_average"), calls("oracles.oracle_vertex_average"))
    oracle_calls = sum(s[3] in ("oracles.oracle_extremal_scan", "oracles.oracle_vertex_average") for s in counted_spans)
    m["oracles.calls_per_doc"] = _per(oracle_calls, counted_docs)

    m["quantum.assemble_ms_per_call"] = 1e3 * _per(dur("quantum.moment_program"), calls("quantum.moment_program"))
    m["quantum.self_ms_per_doc"] = 1e3 * _per(layer_self["quantum"], docs)
    ace_ids = {s[1] for s in counted_spans if s[3] == "quantum.quantum_ace_bounds"}
    iv_sdp = [s[8] for s in counted_spans if s[3] == "sdp.sdp_solve" and s[2] in ace_ids]
    m["quantum.classical_start_frac"] = _per(sum(info[4] for info in iv_sdp), len(iv_sdp))

    sdp = [s[8] for s in counted_spans if s[3] == "sdp.sdp_solve"]
    iters = [info[1] for info in sdp]
    m["sdp.calls"] = len(sdp)
    m["sdp.iters_total"] = sum(iters)
    m["sdp.iters_p50"] = _percentile(iters, 50)
    m["sdp.iters_p90"] = _percentile(iters, 90)
    m["sdp.cap_frac"] = _per(sum(it >= SDP_CAP for it in iters), len(sdp))
    m["sdp.raise_frac"] = _per(sum(info[2] for info in sdp), len(sdp))
    m["sdp.ms_per_iter"] = 1e3 * _per(
        dur("sdp.sdp_solve"), sum(s[8][1] for s in spans if s[3] == "sdp.sdp_solve"))
    gaps = [info[3] for info in sdp if info[3] is not None]
    m["sdp.rel_gap_max"] = max(gaps) if gaps else 0.0
    for level in SDP_LEVEL.values():
        level_iters = [info[1] for info in sdp if SDP_LEVEL.get(info[0]) == level]
        for lo, hi, label in HIST_BINS:
            m[f"sdp.hist.{level}.{label}"] = sum(lo <= it and (hi is None or it < hi) for it in level_iters)

    m["entropic.ms_per_call"] = 1e3 * _per(dur("entropic.entropic_chsh"), calls("entropic.entropic_chsh"))
    m["model.construct_ms_per_doc"] = 1e3 * _per(
        own(*(f"model.{a}" for _, a, layer in TRACED if layer == "model" and a.endswith("__post_init__"))), docs)
    return m
