"""Command-line surface: JSON in, deterministic JSON or markdown reports out.

One analysis per invocation, of a KIND named by a key of ``_HANDLERS``
(``KINDS`` reads them from there):

    polybounds KIND [--input PATH|-] [--format json|md] [--npa-level 1|1ab]
               [--tolerance T] [--variant standard|paper-literal]
               [--renormalize] [--audit] [--batch FILE] [--csv PATH]

The input document is ``{"schema": 1, "payload": {...}, "options": {...}}``;
distributions are nested arrays with an explicit ``order`` list naming the
axes.  Exit codes: 0 success, 2 schema error, 3 infeasible or inconsistent
input, 4 solver failure or a result past the floating-point range (a report
never holds a non-finite number).  If the reader closes stdout early, the
rest of the output is dropped quietly and the exit code stays the same.

This module reads only the document's layout: which fields are present,
the ``{"values", "order"}`` form and its axis permutation, and the number
of axes the permutation needs; those errors are ``SchemaError``.  A number
literal past the float range (``1e400``) is refused at read, as ``NaN`` is,
since the report echoes even the fields no analysis reads.  Every value
(shape, finiteness, sign, block mass, scalar range) is checked by the model
types, and their ``ValidationError`` names it.  The one policy kept here is
the band ``NORMALIZATION_ACCEPT``: block masses within it of 1 are rescaled
silently, and larger deviations are an error unless ``--renormalize`` turns
them into a warning; ``chsh`` correlators within it of [-1, 1] are clipped
onto it, and others reach ``CorrelationTable``, which refuses them.  All
exit 2.  ``--batch`` writes one JSON array, so it refuses ``--csv``,
``--format md`` and an entry whose own ``format`` is ``md``.

One emitter, ``canonical_json``, writes every JSON report, error payload
and ``--batch`` entry in one pass over the raw result tree, choosing each
node's writer by its exact type and writing each float from its ``%.12g``
text; markdown reports read their numbers back from its text.  The
argument parser is built once per process, for in-process ``main`` calls.

``iv-bounds`` and ``pns`` answer from closed forms (Balke-Pearl dual
vertices, Tian-Pearl bounds); ``--audit`` checks them against the basis
oracle, and the ``audit`` kind's ``lp`` suite also re-solves the effect
bounds with the simplex.

``membership`` and ``chsh`` decide local membership by Fine's theorem:
the CHSH facets give the verdict and Fine's joint distribution the
weights, with no solver.  ``--audit`` re-decides it with the strategy LP
and the facet check (``fine_check``), and the ``audit`` kind's
``membership`` suite compares all three.

``npa`` and ``gap`` on a functional or a behavior answer from the closed
form ``tsirelson_bound`` (``provenance.solver.engine``); with ``--audit``
they also solve the moment SDP at the requested level and report whether
the two agree.

``gap`` on an instrumental table answers level 1 from the closed-form
chordal completion (``provenance.solver`` is ``{"engine": "closed-form",
"level": "1"}``) and level 1ab from the moment SDP, whose iterations, stop
reasons and duality gaps go to ``provenance.solver``.  With ``--audit``
both endpoints are solved again by the moment SDP at the requested level:
``results.audit`` holds ``sdp_interval`` and ``agrees``, and the solves'
run goes to ``provenance.solver``.  An audit SDP that raises leaves
``agrees`` null with the error's type and message, and the request still
answers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .errors import (
    FloatRangeError,
    InconsistentDataError,
    InfeasibleTableError,
    NormalizationError,
    PolyboundsError,
    SignalingError,
    SolverError,
    ValidationError,
    ZeroConditioningError,
)
from .model import (
    Behavior,
    Interval,
    ObservedIVTable,
    behavior_to_correlations,
    float_array,
    rescale_blocks,
    chsh_value,
    chsh_variant_values,
    CHSH_COEFFS,
    CHSH_VARIANTS,
)
from .causal import (
    ACE_COEFFS,
    RESPONSE_MATRIX,
    ExperimentalData,
    ObservationalData,
    ace_bounds,
    counterfactual_atom_system,
    instrumental_inequality,
    iv_table_from_response_dist,
    manski_bounds,
    pn_ps_point_bounds,
    pns_bounds,
    pns_objective,
)
from .entropic import SETTINGS_CONVENTION, entropic_chsh
from .oracles import oracle_extremal_scan
from .polytope import (
    STRATEGY_BEHAVIORS,
    MembershipCertificate,
    comonotone_coupling,
    countermonotone_coupling,
    fine_check,
    frechet_bounds,
    local_max,
    local_membership,
    no_signaling_max,
)
from .quantum import NpaLevel, npa_bound, quantum_ace_sdp, quantum_gap_report, tsirelson_bound
from .solvers import TOL, LpProblem, lp_solve
from .solvers.sdp import GAP_ACCEPT

class SchemaError(PolyboundsError):
    """The request document does not match its kind's schema."""


EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4

#: Largest deviation of a request's block sums from 1 accepted without
#: --renormalize, and of a correlator from [-1, 1] clipped onto it; kept as
#: text too, because error reports quote it.
NORMALIZATION_ACCEPT_TEXT = "1e-9"
NORMALIZATION_ACCEPT = float(NORMALIZATION_ACCEPT_TEXT)
#: An audit's ``agrees``: a closed form against the basis oracle or the
#: simplex within EXACT_AUDIT_TOL absolute, and against the SDP within
#: SDP_AUDIT_TOL relative to max(1, |closed form|) (``_sdp_agrees``).
EXACT_AUDIT_TOL = 1e-9
SDP_AUDIT_TOL = 1e-6


def _float_text(x: float, level: int = 0) -> str:
    """``repr`` of ``x`` rounded to 12 significant digits; a non-finite ``x`` raises ``FloatRangeError``."""
    # ``level``, the indent that every emitter takes, is unused.  The text is
    # written from %.12g alone: a decimal of at most 12 digits is the shortest
    # repr of the double it rounds to (two such decimals lie at least 1e-12
    # apart relative, doubles 2.2e-16), so only the layout can differ
    text = f"{x:.12g}"
    if "e" in text:  # repr writes [1e12, 1e16) positionally, and tiny values its own way
        return float.__repr__(float(text))
    if "." in text:
        return text
    if not math.isfinite(x):
        raise FloatRangeError(f"result {x} is past the floating-point range")
    return "0.0" if x == 0.0 else text + ".0"  # -0.0 is written 0.0


def _block(parts: list, level: int, brackets: str) -> str:
    """Already rendered ``parts`` as the items of a JSON array or object
    (``brackets`` "[]" or "{}") opening at indent ``level``, laid out as
    ``json.dumps`` lays them out with ``indent=2``."""
    if not parts:
        return brackets
    inner = "\n" + "  " * (level + 1)
    return f"{brackets[0]}{inner}{(',' + inner).join(parts)}\n{'  ' * level}{brackets[1]}"


class _EmitterTable(dict):
    """Emitters ``(node, level) -> text`` by exact type; a missing type takes its nearest base's, cached."""

    def __missing__(self, kind: type):
        base = next((b for b in kind.__mro__ if b in self), None)
        if base is None:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        self[kind] = self[base]
        return self[base]


def _emit_dict(obj: dict, level: int) -> str:
    items = [f"{encode_basestring_ascii(str(k))}: {_EMITTERS[type(v := obj[k])](v, level + 1)}"
             for k in sorted(obj, key=str)]
    return _block(items, level, "{}")


# a node is written by its type's entry, called directly, so the emitter
# recurses two frames per level of nesting (the entry and its comprehension)
_EMITTERS = _EmitterTable({
    float: _float_text,  # the most common node
    np.floating: lambda x, level: _float_text(float(x)),
    str: lambda s, level: encode_basestring_ascii(s),
    dict: _emit_dict,
    **dict.fromkeys(
        (list, tuple), lambda seq, level: _block([_EMITTERS[type(v)](v, level + 1) for v in seq], level, "[]")),
    np.ndarray: lambda arr, level: _EMITTERS[type(v := arr.tolist())](v, level),  # a 0-d array is a scalar
    **dict.fromkeys((bool, np.bool_), lambda b, level: "true" if b else "false"),
    **dict.fromkeys((int, np.integer), lambda n, level: int.__repr__(int(n))),
    Interval: lambda iv, level: _emit_dict({"hi": iv.hi, "lo": iv.lo, "width": iv.width}, level),
    type(None): lambda none, level: "null",
})


def canonical_json(obj, level: int = 0) -> str:
    """The one emitter of every JSON report, error payload and ``--batch``
    entry: the text of ``obj`` in one pass over the raw tree, byte for byte
    what ``json.dumps(..., sort_keys=True, indent=2, ensure_ascii=True)``
    writes once floats are rounded to 12 significant digits, keys (distinct
    as text) are made ``str``, arrays are lists and an ``Interval`` is
    ``{hi, lo, width}``.  Indentation starts at ``level``.  A non-finite
    number raises ``FloatRangeError``, a tree too deep to recurse ``SchemaError``."""
    try:
        return _EMITTERS[type(obj)](obj, level)
    except RecursionError:  # only a request's echo nests that deep
        raise SchemaError("request nests too deeply to echo in the report") from None


@dataclass(frozen=True)
class AnalysisRequest:
    kind: str
    payload: dict
    options: dict


@dataclass
class Report:
    kind: str
    request: dict
    results: dict
    provenance: dict
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """The report as a plain, unrounded tree; ``canonical_json`` renders it."""
        return {
            "schema": 1,
            "kind": self.kind,
            "request": self.request,
            "results": self.results,
            "provenance": self.provenance,
            "warnings": self.warnings,
        }


_DEFAULT_OPTIONS = {
    "format": "json",
    "npa_level": "1",
    "tolerance": None,
    "variant": "standard",
    "renormalize": False,
    "audit": False,
}


def parse_request(document, kind: str | None = None, overrides: dict | None = None) -> AnalysisRequest:
    if not isinstance(document, dict):
        raise SchemaError("request document must be a JSON object")
    if document.get("schema") != 1:
        raise SchemaError('request document must declare "schema": 1')
    doc_kind = document.get("kind")
    if doc_kind is not None and kind is not None and doc_kind != kind:
        raise SchemaError(f"document kind {doc_kind!r} conflicts with requested kind {kind!r}")
    final_kind = kind or doc_kind
    if final_kind not in KINDS:
        raise SchemaError(f"unknown analysis kind {final_kind!r}; expected one of {KINDS}")
    payload = document.get("payload")
    if not isinstance(payload, dict):
        raise SchemaError('request document must carry a "payload" object')
    options = dict(_DEFAULT_OPTIONS)
    doc_opts = document.get("options", {})
    if not isinstance(doc_opts, dict):
        raise SchemaError('"options" must be an object')
    for k, v in doc_opts.items():
        if k not in _DEFAULT_OPTIONS:
            raise SchemaError(f"unknown option {k!r}")
        options[k] = v
    for k, v in (overrides or {}).items():
        if v is not None:
            options[k] = v
    if options["format"] not in ("json", "md"):
        raise SchemaError(f"format must be 'json' or 'md', got {options['format']!r}")
    if options["variant"] not in ("standard", "paper-literal"):
        raise SchemaError(f"variant must be 'standard' or 'paper-literal', got {options['variant']!r}")
    for k in ("renormalize", "audit"):
        if not isinstance(options[k], bool):
            raise SchemaError(f'option "{k}" must be true or false, got {options[k]!r}')
    try:
        NpaLevel.parse(options["npa_level"])
    except ValidationError as exc:
        raise SchemaError(str(exc)) from exc
    return AnalysisRequest(kind=final_kind, payload=payload, options=options)


def serialize_request(request: AnalysisRequest) -> dict:
    """The request as a document; ``canonical_json`` renders it with the report."""
    return {"schema": 1, "kind": request.kind, "payload": request.payload, "options": request.options}


def _tolerance(options: dict) -> float:
    """The decision tolerance: LP feasibility, oracle feasibility and CHSH facet slack."""
    t = options.get("tolerance")
    if t is None:
        return TOL
    if isinstance(t, bool) or not isinstance(t, (int, float)):
        raise SchemaError(f'"tolerance" must be a number, got {t!r}')
    try:
        t = float(t)
    except OverflowError as exc:
        raise SchemaError('"tolerance" is out of the floating-point range') from exc
    if not (0 < t < 1):
        raise SchemaError(f"tolerance must be in (0, 1), got {t}")
    return t


# ---------------------------------------------------------------------------
# payload decoding: the document's layout only; the model types check values


def _array_field(payload: dict, name: str, axes: tuple[str, ...], what: str):
    """Nested array with an explicit axis order, as floats reordered to
    ``axes``; its values are ``what``, named in conversion errors."""
    if name not in payload:
        raise SchemaError(f'payload is missing "{name}"')
    spec = payload[name]
    order = list(axes)
    if isinstance(spec, dict):
        if "values" not in spec:
            raise SchemaError(f'"{name}" object needs a "values" array')
        values = spec["values"]
        order = spec.get("order", list(axes))
    else:
        values = spec
    arr = float_array(values, what)
    if not isinstance(order, list) or sorted(order, key=str) != sorted(axes):
        raise SchemaError(f'"{name}" order {order!r} must be a list permuting {list(axes)}')
    if arr.ndim != len(axes):
        raise SchemaError(f'"{name}" must have {len(axes)} axes, got {arr.ndim}')
    # a contiguous copy, so every later sum runs in the same order whatever the axis order
    return np.ascontiguousarray(np.transpose(arr, [order.index(a) for a in axes]))


def _scalar_field(payload: dict, name: str):
    if name not in payload:
        raise SchemaError(f'payload is missing "{name}"')
    return payload[name]


def _distribution_from(payload: dict, name: str, axes: str, what: str, renormalize: bool, warnings: list):
    """A distribution field with one binary axis per letter of ``axes``, its
    blocks rescaled to mass 1 by ``model.rescale_blocks``; a mass off 1 by more
    than ``NORMALIZATION_ACCEPT`` is an error, or with ``renormalize`` a warning."""
    arr, masses = rescale_blocks(_array_field(payload, name, tuple(axes), what), (2,) * len(axes), what)
    dev = float(np.abs(masses - 1.0).max())
    if dev > NORMALIZATION_ACCEPT and not renormalize:
        raise SchemaError(
            f"{what} deviates from normalization by {dev:.3e} (> {NORMALIZATION_ACCEPT_TEXT}); "
            "pass --renormalize to accept"
        )
    if dev > NORMALIZATION_ACCEPT:
        warnings.append(f"{what} renormalized (deviation {dev:.3e})")
    return arr


def _behavior_from(payload: dict, renormalize: bool, warnings: list) -> Behavior:
    return Behavior(_distribution_from(payload, "behavior", "abxy", "behavior", renormalize, warnings))


def _iv_table_from(payload: dict, renormalize: bool, warnings: list) -> ObservedIVTable:
    return ObservedIVTable(_distribution_from(payload, "table", "yxz", "IV table", renormalize, warnings))


# ---------------------------------------------------------------------------
# analysis handlers


def _certificate(cert: MembershipCertificate) -> dict:
    """Mixing weights of a member, or the most-violated facet of a non-member
    (null for a signaling behavior whose facets all hold)."""
    if cert.member:
        return {"weights": cert.weights}
    facet = {"index": cert.facet_index, "coefficients": cert.facet_coefficients, "value": cert.facet_value}
    return {"violated_facet": None if cert.facet_index is None else facet}


def _membership_audit(behavior: Behavior, cert: MembershipCertificate, tol: float) -> dict:
    """Whether the strategy LP and the facet check (``fine_check``) reach the
    verdict of ``cert``."""
    joint_exists, facets_hold = fine_check(behavior, tol)
    return {"facet_check_agrees": cert.member == facets_hold, "lp_agrees": cert.member == joint_exists}


def _oracle_audit(objective, A, b, bounds: Interval, tol: float) -> dict:
    """The basis oracle's interval for the same LP, and whether it matches ``bounds``."""
    oracle = oracle_extremal_scan(objective, A=A, b=b, tol=tol)
    agrees = abs(oracle.lo - bounds.lo) <= EXACT_AUDIT_TOL and abs(oracle.hi - bounds.hi) <= EXACT_AUDIT_TOL
    return {"oracle_bounds": oracle, "agrees": bool(agrees)}


def _handle_chsh(req: AnalysisRequest, tol: float, warnings: list) -> tuple[dict, dict]:
    if "behavior" in req.payload:
        behavior = _behavior_from(req.payload, req.options["renormalize"], warnings)
        if not behavior.no_signaling_at(tol):
            warnings.append("behavior is signaling; membership is necessarily false")
        source = "behavior"
    elif "correlations" in req.payload:
        e = _array_field(req.payload, "correlations", ("x", "y"), "correlation table")
        near = np.abs(e) <= 1.0 + NORMALIZATION_ACCEPT  # clipped onto [-1, 1]; CorrelationTable refuses the rest
        behavior = Behavior.from_correlations(np.where(near, np.clip(e, -1.0, 1.0), e))
        source = "correlations"
    else:
        raise SchemaError('chsh payload needs "correlations" or "behavior"')
    corr = behavior_to_correlations(behavior)
    variants = chsh_variant_values(corr)
    cert = local_membership(behavior, tol)
    results = {
        "source": source,
        "correlations": corr.e,
        "chsh": chsh_value(corr),
        "variants": variants,
        "max_variant": float(variants.max()),
        "member_of_local_polytope": cert.member,
        **_certificate(cert),
    }
    if req.options["audit"] and behavior.no_signaling_at(tol):
        results["audit"] = _membership_audit(behavior, cert, tol)
    return results, {}


def _handle_membership(req: AnalysisRequest, tol: float, warnings: list) -> tuple[dict, dict]:
    behavior = _behavior_from(req.payload, req.options["renormalize"], warnings)
    no_signaling = behavior.no_signaling_at(tol)
    if not no_signaling:
        warnings.append("behavior is signaling; it cannot be a strategy mixture")
    cert = local_membership(behavior, tol)
    results = {"member": cert.member, "no_signaling": no_signaling, **_certificate(cert)}
    if cert.member:
        reconstruction = np.tensordot(cert.weights, STRATEGY_BEHAVIORS, axes=(0, 0))
        results["reconstruction_error"] = float(np.abs(reconstruction - behavior.p).max())
    if req.options["audit"] and no_signaling:
        results["audit"] = _membership_audit(behavior, cert, tol)
    return results, {}


def _sdp_agrees(pairs) -> bool:
    """Is each SDP value v within SDP_AUDIT_TOL of its closed form w, relative to max(1, |w|)?"""
    return all(abs(v - w) <= SDP_AUDIT_TOL * max(1.0, abs(w)) for v, w in pairs)


def _sdp_audit(level: NpaLevel, functional, value: float, results: dict, prov: dict) -> None:
    """Re-solve the closed-form quantum ``value`` with the moment SDP; the
    comparison goes to ``results`` and the solver's run to ``prov``."""
    result = npa_bound(level, functional)
    results["audit"] = {"sdp_bound": result.value, "agrees": _sdp_agrees([(result.value, value)])}
    prov.update({"sdp_iterations": result.iterations, "sdp_termination": result.termination, "duality_gap": result.gap})


def _table_audit(table: ObservedIVTable, level: NpaLevel, quantum: Interval, results: dict, prov: dict) -> None:
    """Re-solve both closed-form effect endpoints with the moment SDP at
    ``level``, one solve each; the comparison goes to ``results`` and the
    solvers' runs to ``prov``.  An SDP that raises leaves ``agrees`` null
    and names its error, and the request still answers."""
    try:
        interval, diagnostics = quantum_ace_sdp(table, level)
    except (PolyboundsError, np.linalg.LinAlgError) as exc:
        results["audit"] = {"agrees": None, "error": {"type": type(exc).__name__, "message": str(exc)}}
        return
    agrees = _sdp_agrees([(interval.lo, quantum.lo), (interval.hi, quantum.hi)])
    results["audit"] = {"sdp_interval": interval, "agrees": agrees}
    prov.update(diagnostics)


def _handle_npa(req: AnalysisRequest, tol: float, warnings: list) -> tuple[dict, dict]:
    functional = _array_field(req.payload, "functional", ("x", "y"), "functional")
    level = NpaLevel.parse(req.options["npa_level"])
    value = tsirelson_bound(functional)
    results = {"bound": value, "level": level.value, "functional": functional}
    prov = {"engine": "closed-form"}
    if req.options["audit"]:
        _sdp_audit(level, functional, value, results, prov)
    return results, prov


def _handle_gap(req: AnalysisRequest, tol: float, warnings: list) -> tuple[dict, dict]:
    level = NpaLevel.parse(req.options["npa_level"])
    if "functional" in req.payload:
        subject = _array_field(req.payload, "functional", ("x", "y"), "functional")
    elif "behavior" in req.payload:
        subject = _behavior_from(req.payload, req.options["renormalize"], warnings)
    elif "table" in req.payload:
        subject = _iv_table_from(req.payload, req.options["renormalize"], warnings)
    else:
        raise SchemaError('gap payload needs "functional", "behavior", or "table"')
    report = quantum_gap_report(subject, level, tol)
    warnings.extend(report.notes)
    results = {
        "input": report.kind,
        "classical": report.classical,
        "quantum": report.quantum,
        "nosignaling": report.nosignaling,
        "gap": report.gap,
        "level": report.level.value,
    }
    prov = dict(report.diagnostics)
    if req.options["audit"] and report.kind == "iv-table":
        _table_audit(subject, level, report.quantum, results, prov)
    elif req.options["audit"]:
        functional = CHSH_VARIANTS[prov["facet_index"]] if report.kind == "behavior" else subject
        _sdp_audit(level, functional, report.quantum, results, prov)
    return results, prov


def _handle_iv_bounds(req: AnalysisRequest, tol: float, warnings: list) -> tuple[dict, dict]:
    table = _iv_table_from(req.payload, req.options["renormalize"], warnings)
    variant = req.options["variant"].replace("-", "_")
    check = instrumental_inequality(table, variant, tol)
    other = instrumental_inequality(table, "paper_literal" if variant == "standard" else "standard", tol)
    if variant == "paper_literal":
        warnings.append(
            "paper-literal inequality is algebraically vacuous (always <= 1); "
            "the standard form is the informative test"
        )
    bounds = ace_bounds(table, tol)
    results = {
        "instrumental_inequality": {**check._asdict(), "other_variant": other._asdict()},
        "ace_bounds": bounds,
    }
    if req.options["audit"]:
        results["audit"] = _oracle_audit(ACE_COEFFS, RESPONSE_MATRIX, table.flat(), bounds, tol)
    return results, {}


def _handle_pns(req: AnalysisRequest, tol: float, warnings: list) -> tuple[dict, dict]:
    if "experimental" not in req.payload or "observational" not in req.payload:
        raise SchemaError('pns payload needs "experimental" and "observational"')
    exp_doc = req.payload["experimental"]
    if not isinstance(exp_doc, dict):
        raise SchemaError('"experimental" must be an object')
    exp = ExperimentalData(
        _scalar_field(exp_doc, "p_do1"), _scalar_field(exp_doc, "p_do0")
    )
    obs_doc = req.payload["observational"]
    if not isinstance(obs_doc, dict):
        raise SchemaError('"observational" must be an object')
    joint = _distribution_from(obs_doc, "joint", "xy", "observational joint", req.options["renormalize"], warnings)
    obs = ObservationalData(joint)
    pns = pns_bounds(exp, obs, tol)
    results = {"pns_bounds": pns}
    try:
        results["pn_bounds"], results["ps_bounds"] = pn_ps_point_bounds(exp, obs, tol)
    except ZeroConditioningError as exc:
        warnings.append(f"necessity/sufficiency skipped: {exc}")
    if req.options["audit"]:
        results["audit"] = _oracle_audit(pns_objective(), *counterfactual_atom_system(exp, obs), pns, tol)
    return results, {}


def _handle_manski(req: AnalysisRequest, tol: float, warnings: list) -> tuple[dict, dict]:
    e1 = _scalar_field(req.payload, "e1")
    e0 = _scalar_field(req.payload, "e0")
    px1 = _scalar_field(req.payload, "px1")
    bounds = manski_bounds(e1, e0, px1)
    return {"ate_bounds": bounds, "contains_zero": bounds.contains(0.0)}, {}


def _handle_frechet(req: AnalysisRequest, tol: float, warnings: list) -> tuple[dict, dict]:
    u = _scalar_field(req.payload, "u")
    v = _scalar_field(req.payload, "v")
    return {
        "joint_bounds": frechet_bounds(u, v),
        "comonotone_joint": comonotone_coupling(u, v),
        "countermonotone_joint": countermonotone_coupling(u, v),
    }, {}


def _handle_entropic(req: AnalysisRequest, tol: float, warnings: list) -> tuple[dict, dict]:
    behavior = _behavior_from(req.payload, req.options["renormalize"], warnings)
    settings = None
    if "settings" in req.payload:
        settings = _distribution_from(
            req.payload, "settings", "xy", "settings distribution", req.options["renormalize"], warnings
        )
    warnings.append(SETTINGS_CONVENTION)
    return entropic_chsh(behavior, settings)._asdict(), {}


def _handle_audit(req: AnalysisRequest, tol: float, warnings: list) -> tuple[dict, dict]:
    suite = req.payload.get("suite", "all")
    if suite not in ("all", "lp", "pns", "membership"):
        raise SchemaError('audit suite must be one of "all", "lp", "pns", "membership"')
    samples = req.payload.get("samples", 50)
    if isinstance(samples, bool) or not isinstance(samples, int) or not (1 <= samples <= 10000):
        raise SchemaError("samples must be an integer in 1..10000")
    seed = req.payload.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SchemaError("seed must be an integer")
    if seed < 0:
        raise SchemaError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    results: dict = {"suite": suite, "samples": samples, "seed": seed}

    if suite in ("all", "lp"):
        worst = 0.0
        for _ in range(samples):
            table = iv_table_from_response_dist(rng.dirichlet(np.ones(16)))
            closed = ace_bounds(table, tol)
            lp_lo, lp_hi = (
                lp_solve(LpProblem(c=ACE_COEFFS, A=RESPONSE_MATRIX, b=table.flat(), sense=sense), tol).value
                for sense in ("min", "max")
            )
            oracle = oracle_extremal_scan(ACE_COEFFS, A=RESPONSE_MATRIX, b=table.flat(), tol=tol)
            # the widest spread of each endpoint among closed form, simplex and basis oracle
            worst = max(worst, np.ptp([closed.lo, lp_lo, oracle.lo]), np.ptp([closed.hi, lp_hi, oracle.hi]))
        results["lp"] = {"max_discrepancy": worst, "agrees": bool(worst <= EXACT_AUDIT_TOL)}

    if suite in ("all", "pns"):
        worst = 0.0
        for _ in range(samples):
            pi = rng.dirichlet(np.ones(8))
            exp = ExperimentalData(float(pi[2] + pi[3] + pi[6] + pi[7]), float(pi[4] + pi[5] + pi[6] + pi[7]))
            joint = np.array(
                [[pi[0] + pi[2], pi[4] + pi[6]], [pi[1] + pi[5], pi[3] + pi[7]]]
            )
            obs = ObservationalData(joint)
            formula = pns_bounds(exp, obs, tol)
            A, b = counterfactual_atom_system(exp, obs)
            oracle = oracle_extremal_scan(pns_objective(), A=A, b=b, tol=tol)
            worst = max(worst, abs(formula.lo - oracle.lo), abs(formula.hi - oracle.hi))
        results["pns"] = {"max_discrepancy": worst, "agrees": bool(worst <= EXACT_AUDIT_TOL)}

    if suite in ("all", "membership"):
        disagreements = 0
        for _ in range(samples):
            if rng.uniform() < 0.5:
                weights = rng.dirichlet(np.ones(16))
                p = np.tensordot(weights, STRATEGY_BEHAVIORS, axes=(0, 0))
            else:
                lam = rng.uniform()
                p = lam * Behavior.pr_box().p + (1 - lam) * np.full((2, 2, 2, 2), 0.25)
            behavior = Behavior(p)
            # Fine's construction, the strategy LP and the facet check
            joint_exists, facets_hold = fine_check(behavior, tol)
            if not local_membership(behavior, tol).member == joint_exists == facets_hold:
                disagreements += 1
        results["membership"] = {"disagreements": disagreements, "agrees": disagreements == 0}

    results["all_agree"] = all(
        results[k]["agrees"] for k in ("lp", "pns", "membership") if k in results
    )
    return results, {}


#: The analysis of each kind, in the order of the usage text.
_HANDLERS = {
    "iv-bounds": _handle_iv_bounds,
    "chsh": _handle_chsh,
    "membership": _handle_membership,
    "npa": _handle_npa,
    "gap": _handle_gap,
    "pns": _handle_pns,
    "manski": _handle_manski,
    "frechet": _handle_frechet,
    "entropic": _handle_entropic,
    "audit": _handle_audit,
}
KINDS = tuple(_HANDLERS)


def run(request: AnalysisRequest) -> Report:
    """Dispatch a validated request to its analysis and assemble the report."""
    tol = _tolerance(request.options)
    warnings: list[str] = []
    handler = _HANDLERS[request.kind]
    results, solver_prov = handler(request, tol, warnings)
    provenance = {
        "version": __version__,
        "tolerances": {
            "facet": tol,
            "lp_feasibility": tol,
            "sdp_gap_accept": GAP_ACCEPT,
            "normalization_accept": NORMALIZATION_ACCEPT,
        },
    }
    if solver_prov:
        provenance["solver"] = solver_prov
    return Report(
        kind=request.kind,
        request=serialize_request(request),
        results=results,
        provenance=provenance,
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# rendering


def render_markdown(report: Report) -> str:
    doc = json.loads(canonical_json(report.to_dict()))
    lines = [f"# polybounds report: {doc['kind']}", ""]
    results = doc["results"]
    if doc["kind"] == "gap":
        lines += ["| set | value |", "| --- | --- |"]
        for key in ("classical", "quantum", "nosignaling"):
            val = results[key]
            if isinstance(val, dict):
                lines.append(f"| {key} | [{val['lo']}, {val['hi']}] |")
            else:
                lines.append(f"| {key} | {val} |")
        lines += ["", f"gap: {results['gap']}  (level {results['level']})", ""]
    else:
        lines += ["| quantity | value |", "| --- | --- |"]
        for k, v in results.items():
            lines.append(f"| {k} | {json.dumps(v, sort_keys=True)} |")
        lines.append("")
    if doc["warnings"]:
        lines.append("## Warnings")
        lines += [f"- {w}" for w in doc["warnings"]]
        lines.append("")
    lines.append("## Provenance")
    lines.append("```json")
    lines.append(json.dumps(doc["provenance"], sort_keys=True, indent=2))
    lines.append("```")
    return "\n".join(lines)


def _cross_section_csv(path: str, samples: int = 36) -> None:
    """Support-function samples of the three correlation bodies in the plane
    spanned by two orthogonal CHSH combinations, for external plotting."""
    f1 = CHSH_COEFFS
    f2 = CHSH_VARIANTS[1]
    rows = ["phi,local,quantum,nosignaling"]
    for k in range(samples):
        phi = 2.0 * np.pi * k / samples
        f = np.cos(phi) * f1 + np.sin(phi) * f2
        rows.append(",".join(map(_float_text, (phi, local_max(f), tsirelson_bound(f), no_signaling_max(f)))))
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# entry point


def _error_payload(code: int, exc: Exception) -> dict:
    return {"schema": 1, "error": {"code": code, "type": type(exc).__name__, "message": str(exc)}}


def _classify(exc: Exception) -> int:
    if isinstance(exc, (SchemaError, NormalizationError, ValidationError, json.JSONDecodeError, OSError)):
        return EXIT_SCHEMA
    if isinstance(
        exc, (InfeasibleTableError, InconsistentDataError, ZeroConditioningError, SignalingError)
    ):
        return EXIT_INFEASIBLE
    if isinstance(exc, (SolverError, np.linalg.LinAlgError)):
        return EXIT_SOLVER
    raise exc


def _reject_constant(token: str):
    raise SchemaError(f"request holds the non-finite number {token}, which JSON does not allow")


def _finite_float(literal: str) -> float:
    """A number literal as a float; one past the float range (``1e400``) is refused."""
    x = float(literal)
    if math.isinf(x):
        raise SchemaError(f"request holds the number {literal}, which is past the floating-point range")
    return x


def _read_document(path: str):
    hooks = {"parse_constant": _reject_constant, "parse_float": _finite_float}
    try:
        if path == "-":
            return json.load(sys.stdin, **hooks)
        with open(path) as fh:
            return json.load(fh, **hooks)
    except json.JSONDecodeError:
        raise
    except (ValueError, RecursionError) as exc:  # undecodable bytes, over-long integers, deep nesting
        raise SchemaError(f"request is not readable JSON: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polybounds",
        description="Classical and quantum bounds over marginal-compatibility polytopes.",
    )
    parser.add_argument("kind", choices=KINDS, help="analysis to run")
    parser.add_argument("--input", "-i", default=None, help="JSON document path, or - for stdin")
    parser.add_argument("--batch", default=None, help="JSON array of request documents")
    parser.add_argument("--format", choices=("json", "md"), default=None)
    parser.add_argument("--npa-level", choices=("1", "1ab"), default=None, dest="npa_level")
    parser.add_argument("--tolerance", type=float, default=None)
    parser.add_argument("--variant", choices=("standard", "paper-literal"), default=None)
    parser.add_argument("--renormalize", action="store_true", default=None)
    parser.add_argument("--audit", action="store_true", default=None)
    parser.add_argument("--csv", default=None, help="write polytope cross-section samples (gap only)")
    return parser


#: Built once per process: parsing keeps no state between calls of ``main``.
_PARSER = _build_parser()


def _failure(exc: Exception) -> tuple[int, str]:
    code = _classify(exc)
    return code, canonical_json(_error_payload(code, exc))


def _respond(args) -> tuple[int, str]:
    """Run one invocation: its exit code and the text for stdout."""
    overrides = {k: getattr(args, k) for k in _DEFAULT_OPTIONS}

    if args.batch is not None:
        try:
            if args.csv is not None or args.format == "md":
                raise SchemaError("--batch writes one JSON array; --csv and --format md need a single --input")
            documents = _read_document(args.batch)
            if not isinstance(documents, list):
                raise SchemaError("batch file must hold a JSON array of request documents")
        except Exception as exc:  # noqa: BLE001 - classified in _failure
            return _failure(exc)
        outputs = []
        worst = EXIT_OK
        for doc in documents:
            # each entry is rendered on its own, so that a report past the
            # float range becomes that entry's error payload alone
            try:
                request = parse_request(doc, kind=None, overrides=overrides)
                if request.options["format"] == "md":
                    raise SchemaError('a --batch entry is written as JSON; "format": "md" needs a single --input')
                outputs.append(canonical_json(run(request).to_dict(), 1))
            except Exception as exc:  # noqa: BLE001
                code = _classify(exc)
                outputs.append(canonical_json(_error_payload(code, exc), 1))
                worst = max(worst, code)
        return worst, _block(outputs, 0, "[]")

    if args.input is None:
        return _failure(SchemaError("--input is required (or --batch)"))
    try:
        document = _read_document(args.input)
        request = parse_request(document, kind=args.kind, overrides=overrides)
        report = run(request)
        if args.csv is not None:
            if request.kind != "gap":
                raise SchemaError("--csv is only meaningful for the gap analysis")
            _cross_section_csv(args.csv)
        if request.options["format"] == "md":
            return EXIT_OK, render_markdown(report)
        return EXIT_OK, canonical_json(report.to_dict())
    except Exception as exc:  # noqa: BLE001 - classified in _failure
        return _failure(exc)


def main(argv=None) -> int:
    code, text = _respond(_PARSER.parse_args(argv))
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): drop the rest and keep
        # the analysis's exit code; stdout goes to devnull, so that the
        # interpreter's flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
