"""Command-line surface: JSON in, deterministic JSON or markdown reports out.

One analysis per invocation:

    polybounds KIND [--input PATH|-] [--format json|md] [--npa-level 1|1ab]
               [--tolerance T] [--variant standard|paper-literal]
               [--renormalize] [--audit] [--batch FILE] [--csv PATH]

The input document is ``{"schema": 1, "payload": {...}, "options": {...}}``;
distributions are nested arrays with an explicit ``order`` list naming the
axes.  Exit codes: 0 success, 2 schema error, 3 infeasible or inconsistent
input, 4 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
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
    chsh_value,
    chsh_variant_values,
    CHSH_COEFFS,
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
    comonotone_coupling,
    countermonotone_coupling,
    frechet_bounds,
    local_max,
    local_membership,
    no_signaling_max,
)
from .quantum import NpaLevel, npa_bound, quantum_gap_report

KINDS = (
    "iv-bounds",
    "chsh",
    "membership",
    "npa",
    "gap",
    "pns",
    "manski",
    "frechet",
    "entropic",
    "audit",
)


class SchemaError(PolyboundsError):
    """The request document does not match its kind's schema."""


EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4


def _round12(x: float) -> float:
    if x == 0.0:
        return 0.0
    return float(f"{x:.12g}")


def canonical(obj):
    """Canonical JSON-ready form: floats at 12 significant digits, ordered keys."""
    if isinstance(obj, dict):
        return {str(k): canonical(obj[k]) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [canonical(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _round12(float(obj))
    if isinstance(obj, Interval):
        return {"lo": _round12(obj.lo), "hi": _round12(obj.hi), "width": _round12(obj.width)}
    return obj


def canonical_json(obj) -> str:
    return json.dumps(canonical(obj), sort_keys=True, indent=2, ensure_ascii=True)


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
        return canonical(
            {
                "schema": 1,
                "kind": self.kind,
                "request": self.request,
                "results": self.results,
                "provenance": self.provenance,
                "warnings": self.warnings,
            }
        )


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
    return canonical(
        {
            "schema": 1,
            "kind": request.kind,
            "payload": request.payload,
            "options": request.options,
        }
    )


def _tolerances(options: dict) -> Tolerances:
    t = options.get("tolerance")
    if t is None:
        return DEFAULT_TOLERANCES
    if isinstance(t, bool) or not isinstance(t, (int, float)):
        raise SchemaError(f'"tolerance" must be a number, got {t!r}')
    t = float(t)
    if not (0 < t < 1):
        raise SchemaError(f"tolerance must be in (0, 1), got {t}")
    return DEFAULT_TOLERANCES.with_overrides(facet=t, lp_feasibility=t, inequality_slack=t)


# ---------------------------------------------------------------------------
# payload decoding


def _array_field(payload: dict, name: str, axes: tuple[str, ...]):
    """Nested array with an explicit axis order; reordered to ``axes``."""
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
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f'"{name}" is not a numeric array: {exc}') from exc
    if not isinstance(order, list) or sorted(order, key=str) != sorted(axes):
        raise SchemaError(f'"{name}" order {order!r} must be a list permuting {list(axes)}')
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f'"{name}" has non-finite entries')
    if arr.ndim != len(axes):
        raise SchemaError(f'"{name}" must have {len(axes)} axes, got {arr.ndim}')
    perm = [order.index(a) for a in axes]
    return np.transpose(arr, perm)


def _scalar_field(payload: dict, name: str) -> float:
    if name not in payload:
        raise SchemaError(f'payload is missing "{name}"')
    v = payload[name]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f'"{name}" must be a number')
    return float(v)


def _normalize_blocks(arr: np.ndarray, block_axes: tuple[int, ...], renormalize: bool, what: str, warnings: list):
    """Enforce unit block sums within 1e-9, renormalizing on request."""
    sums = arr.sum(axis=block_axes)
    dev = float(np.abs(sums - 1.0).max())
    if dev > 1e-9 and not renormalize:
        raise SchemaError(
            f"{what} deviates from normalization by {dev:.3e} (> 1e-9); pass --renormalize to accept"
        )
    if dev > 1e-9:
        warnings.append(f"{what} renormalized (deviation {dev:.3e})")
    if np.min(sums) <= 0:
        raise SchemaError(f"{what} has a block with non-positive total mass")
    return arr / np.expand_dims(sums, block_axes) if sums.ndim else arr / sums


def _behavior_from(payload: dict, renormalize: bool, warnings: list) -> Behavior:
    arr = _array_field(payload, "behavior", ("a", "b", "x", "y"))
    if arr.shape != (2, 2, 2, 2):
        raise SchemaError(f"behavior must be 2x2x2x2, got {arr.shape}")
    if arr.min() < 0:
        raise SchemaError("behavior has negative entries")
    arr = _normalize_blocks(arr, (0, 1), renormalize, "behavior", warnings)
    return Behavior(arr)


def _iv_table_from(payload: dict, renormalize: bool, warnings: list) -> ObservedIVTable:
    arr = _array_field(payload, "table", ("y", "x", "z"))
    if arr.shape != (2, 2, 2):
        raise SchemaError(f"IV table must be 2x2x2, got {arr.shape}")
    if arr.min() < 0:
        raise SchemaError("IV table has negative entries")
    arr = _normalize_blocks(arr, (0, 1), renormalize, "IV table", warnings)
    return ObservedIVTable(arr)


def _functional_from(payload: dict) -> np.ndarray:
    arr = _array_field(payload, "functional", ("x", "y"))
    if arr.shape != (2, 2):
        raise SchemaError(f"functional must be 2x2, got {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# analysis handlers


def _interval_dict(iv: Interval) -> dict:
    return {"lo": iv.lo, "hi": iv.hi, "width": iv.width}


def _handle_chsh(req: AnalysisRequest, tol: Tolerances, warnings: list) -> tuple[dict, dict]:
    if "behavior" in req.payload:
        behavior = _behavior_from(req.payload, req.options["renormalize"], warnings)
        if not behavior.no_signaling:
            warnings.append("behavior is signaling; membership is necessarily false")
        source = "behavior"
    elif "correlations" in req.payload:
        e = _array_field(req.payload, "correlations", ("x", "y"))
        if np.abs(e).max() > 1.0 + 1e-9:
            raise SchemaError("correlators must lie in [-1, 1]")
        behavior = Behavior.from_correlations(np.clip(e, -1.0, 1.0))
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
    }
    if cert.member:
        results["weights"] = cert.weights
    else:
        results["violated_facet"] = {
            "index": cert.facet_index,
            "coefficients": cert.facet_coefficients,
            "value": cert.facet_value,
        }
    if req.options["audit"]:
        agree = cert.member == bool(variants.max() <= 2.0 + tol.facet) or not behavior.no_signaling
        results["audit"] = {"facet_check_agrees": bool(agree)}
    return results, {}


def _handle_membership(req: AnalysisRequest, tol: Tolerances, warnings: list) -> tuple[dict, dict]:
    behavior = _behavior_from(req.payload, req.options["renormalize"], warnings)
    if not behavior.no_signaling:
        warnings.append("behavior is signaling; it cannot be a strategy mixture")
    cert = local_membership(behavior, tol)
    results = {"member": cert.member, "no_signaling": behavior.no_signaling}
    if cert.member:
        results["weights"] = cert.weights
        reconstruction = np.tensordot(cert.weights, STRATEGY_BEHAVIORS, axes=(0, 0))
        results["reconstruction_error"] = float(np.abs(reconstruction - behavior.p).max())
    else:
        results["violated_facet"] = {
            "index": cert.facet_index,
            "coefficients": cert.facet_coefficients,
            "value": cert.facet_value,
        }
    if req.options["audit"] and behavior.no_signaling:
        variants = chsh_variant_values(behavior_to_correlations(behavior))
        results["audit"] = {
            "facet_check_agrees": bool(cert.member == bool(variants.max() <= 2.0 + tol.facet))
        }
    return results, {}


def _handle_npa(req: AnalysisRequest, tol: Tolerances, warnings: list) -> tuple[dict, dict]:
    functional = _functional_from(req.payload)
    level = NpaLevel.parse(req.options["npa_level"])
    value, result = npa_bound(level, functional, tol, return_result=True)
    results = {"bound": value, "level": level.value, "functional": functional}
    prov = {"sdp_iterations": result.iterations, "sdp_termination": result.termination, "duality_gap": result.gap}
    return results, prov


def _handle_gap(req: AnalysisRequest, tol: Tolerances, warnings: list) -> tuple[dict, dict]:
    level = NpaLevel.parse(req.options["npa_level"])
    if "functional" in req.payload:
        subject = _functional_from(req.payload)
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
    prov = {k: v for k, v in report.diagnostics.items() if k != "classical_start"}
    return results, prov


def _handle_iv_bounds(req: AnalysisRequest, tol: Tolerances, warnings: list) -> tuple[dict, dict]:
    table = _iv_table_from(req.payload, req.options["renormalize"], warnings)
    variant = req.options["variant"].replace("-", "_")
    check = instrumental_inequality(table, variant)
    other = instrumental_inequality(
        table, "paper_literal" if variant == "standard" else "standard"
    )
    if variant == "paper_literal":
        warnings.append(
            "paper-literal inequality is algebraically vacuous (always <= 1); "
            "the standard form is the informative test"
        )
    bounds = ace_bounds(table, tol)
    results = {
        "instrumental_inequality": {
            "holds": check.holds,
            "value": check.value,
            "variant": check.variant,
            "other_variant": {"holds": other.holds, "value": other.value, "variant": other.variant},
        },
        "ace_bounds": _interval_dict(bounds),
    }
    if req.options["audit"]:
        oracle = oracle_extremal_scan(ACE_COEFFS, A=RESPONSE_MATRIX, b=table.flat(), tol=tol)
        results["audit"] = {
            "oracle_bounds": _interval_dict(oracle),
            "agrees": bool(abs(oracle.lo - bounds.lo) <= 1e-9 and abs(oracle.hi - bounds.hi) <= 1e-9),
        }
    return results, {}


def _handle_pns(req: AnalysisRequest, tol: Tolerances, warnings: list) -> tuple[dict, dict]:
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
    joint = _array_field(obs_doc, "joint", ("x", "y"))
    if joint.min() < 0:
        raise SchemaError("observational joint has negative entries")
    total = joint.sum()
    if abs(total - 1.0) > 1e-9 and not req.options["renormalize"]:
        raise SchemaError(
            f"observational joint deviates from normalization by {abs(total - 1.0):.3e}; pass --renormalize"
        )
    if total <= 0:
        raise SchemaError("observational joint has non-positive total mass")
    joint = joint / total
    obs = ObservationalData(joint)
    pns = pns_bounds(exp, obs)
    results = {"pns_bounds": _interval_dict(pns)}
    try:
        pn, ps = pn_ps_point_bounds(exp, obs, tol)
        results["pn_bounds"] = _interval_dict(pn)
        results["ps_bounds"] = _interval_dict(ps)
    except ZeroConditioningError as exc:
        warnings.append(f"necessity/sufficiency skipped: {exc}")
    if req.options["audit"]:
        A, b = counterfactual_atom_system(exp, obs)
        oracle = oracle_extremal_scan(pns_objective(), A=A, b=b, tol=tol)
        results["audit"] = {
            "oracle_bounds": _interval_dict(oracle),
            "agrees": bool(abs(oracle.lo - pns.lo) <= 1e-9 and abs(oracle.hi - pns.hi) <= 1e-9),
        }
    return results, {}


def _handle_manski(req: AnalysisRequest, tol: Tolerances, warnings: list) -> tuple[dict, dict]:
    e1 = _scalar_field(req.payload, "e1")
    e0 = _scalar_field(req.payload, "e0")
    px1 = _scalar_field(req.payload, "px1")
    try:
        bounds = manski_bounds(e1, e0, px1)
    except ValidationError as exc:
        raise SchemaError(str(exc)) from exc
    return {"ate_bounds": _interval_dict(bounds), "contains_zero": bounds.contains(0.0)}, {}


def _handle_frechet(req: AnalysisRequest, tol: Tolerances, warnings: list) -> tuple[dict, dict]:
    u = _scalar_field(req.payload, "u")
    v = _scalar_field(req.payload, "v")
    try:
        bounds = frechet_bounds(u, v)
        results = {
            "joint_bounds": _interval_dict(bounds),
            "comonotone_joint": comonotone_coupling(u, v),
            "countermonotone_joint": countermonotone_coupling(u, v),
        }
    except ValidationError as exc:
        raise SchemaError(str(exc)) from exc
    return results, {}


def _handle_entropic(req: AnalysisRequest, tol: Tolerances, warnings: list) -> tuple[dict, dict]:
    behavior = _behavior_from(req.payload, req.options["renormalize"], warnings)
    settings = None
    if "settings" in req.payload:
        settings = _array_field(req.payload, "settings", ("x", "y"))
        total = settings.sum()
        if abs(total - 1.0) > 1e-9 and not req.options["renormalize"]:
            raise SchemaError("settings distribution is not normalized; pass --renormalize")
        if total <= 0:
            raise SchemaError("settings distribution has non-positive total mass")
        settings = settings / total
    result = entropic_chsh(behavior, settings)
    warnings.append(SETTINGS_CONVENTION)
    results = {
        "lhs": result.lhs,
        "rhs": result.rhs,
        "holds": result.holds,
        "mutual_informations": list(result.mutual_informations),
        "settings_entropy": result.settings_entropy,
    }
    return results, {}


def _handle_audit(req: AnalysisRequest, tol: Tolerances, warnings: list) -> tuple[dict, dict]:
    suite = req.payload.get("suite", "all")
    if suite not in ("all", "lp", "pns", "membership"):
        raise SchemaError('audit suite must be one of "all", "lp", "pns", "membership"')
    samples = req.payload.get("samples", 50)
    if isinstance(samples, bool) or not isinstance(samples, int) or not (1 <= samples <= 10000):
        raise SchemaError("samples must be an integer in 1..10000")
    seed = req.payload.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SchemaError("seed must be an integer")
    rng = np.random.default_rng(seed)
    results: dict = {"suite": suite, "samples": samples, "seed": seed}

    if suite in ("all", "lp"):
        worst = 0.0
        for _ in range(samples):
            table = iv_table_from_response_dist(rng.dirichlet(np.ones(16)))
            lp_iv = ace_bounds(table, tol)
            oracle = oracle_extremal_scan(ACE_COEFFS, A=RESPONSE_MATRIX, b=table.flat(), tol=tol)
            worst = max(worst, abs(lp_iv.lo - oracle.lo), abs(lp_iv.hi - oracle.hi))
        results["lp"] = {"max_discrepancy": worst, "agrees": bool(worst <= 1e-9)}

    if suite in ("all", "pns"):
        worst = 0.0
        for _ in range(samples):
            pi = rng.dirichlet(np.ones(8))
            exp = ExperimentalData(float(pi[2] + pi[3] + pi[6] + pi[7]), float(pi[4] + pi[5] + pi[6] + pi[7]))
            joint = np.array(
                [[pi[0] + pi[2], pi[4] + pi[6]], [pi[1] + pi[5], pi[3] + pi[7]]]
            )
            obs = ObservationalData(joint)
            formula = pns_bounds(exp, obs)
            A, b = counterfactual_atom_system(exp, obs)
            oracle = oracle_extremal_scan(pns_objective(), A=A, b=b, tol=tol)
            worst = max(worst, abs(formula.lo - oracle.lo), abs(formula.hi - oracle.hi))
        results["pns"] = {"max_discrepancy": worst, "agrees": bool(worst <= 1e-9)}

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
            cert = local_membership(behavior, tol)
            facet_ok = bool(chsh_variant_values(behavior_to_correlations(behavior)).max() <= 2.0 + tol.facet)
            if cert.member != facet_ok:
                disagreements += 1
        results["membership"] = {"disagreements": disagreements, "agrees": disagreements == 0}

    results["all_agree"] = all(
        results[k]["agrees"] for k in ("lp", "pns", "membership") if k in results
    )
    return results, {}


_HANDLERS = {
    "chsh": _handle_chsh,
    "membership": _handle_membership,
    "npa": _handle_npa,
    "gap": _handle_gap,
    "iv-bounds": _handle_iv_bounds,
    "pns": _handle_pns,
    "manski": _handle_manski,
    "frechet": _handle_frechet,
    "entropic": _handle_entropic,
    "audit": _handle_audit,
}


def run(request: AnalysisRequest) -> Report:
    """Dispatch a validated request to its analysis and assemble the report."""
    tol = _tolerances(request.options)
    warnings: list[str] = []
    handler = _HANDLERS[request.kind]
    results, solver_prov = handler(request, tol, warnings)
    provenance = {
        "version": __version__,
        "tolerances": {
            "facet": tol.facet,
            "lp_feasibility": tol.lp_feasibility,
            "sdp_gap_accept": tol.sdp_gap_accept,
            "normalization_accept": 1e-9,
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
    doc = report.to_dict()
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


def _cross_section_csv(path: str, level: NpaLevel, tol: Tolerances, samples: int = 36) -> None:
    """Support-function samples of the three correlation bodies in the plane
    spanned by two orthogonal CHSH combinations, for external plotting."""
    f1 = CHSH_COEFFS
    f2 = np.array([[1.0, -1.0], [1.0, 1.0]])
    rows = ["phi,local,quantum,nosignaling"]
    for k in range(samples):
        phi = 2.0 * np.pi * k / samples
        f = np.cos(phi) * f1 + np.sin(phi) * f2
        rows.append(
            f"{_round12(phi)},{_round12(local_max(f))},"
            f"{_round12(npa_bound(level, f, tol))},{_round12(no_signaling_max(f))}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# entry point


def _error_payload(code: int, exc: Exception) -> dict:
    return canonical(
        {
            "schema": 1,
            "error": {"code": code, "type": type(exc).__name__, "message": str(exc)},
        }
    )


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


def _read_document(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def build_parser() -> argparse.ArgumentParser:
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "format": args.format,
        "npa_level": args.npa_level,
        "tolerance": args.tolerance,
        "variant": args.variant,
        "renormalize": args.renormalize,
        "audit": args.audit,
    }

    if args.batch is not None:
        try:
            documents = _read_document(args.batch)
            if not isinstance(documents, list):
                raise SchemaError("batch file must hold a JSON array of request documents")
        except Exception as exc:  # noqa: BLE001 - classified below
            print(canonical_json(_error_payload(_classify(exc), exc)))
            return _classify(exc)
        outputs = []
        worst = EXIT_OK
        for doc in documents:
            try:
                request = parse_request(doc, kind=None, overrides=overrides)
                outputs.append(run(request).to_dict())
            except Exception as exc:  # noqa: BLE001
                code = _classify(exc)
                outputs.append(_error_payload(code, exc))
                worst = max(worst, code)
        print(canonical_json(outputs))
        return worst

    if args.input is None:
        print(canonical_json(_error_payload(EXIT_SCHEMA, SchemaError("--input is required (or --batch)"))))
        return EXIT_SCHEMA
    try:
        document = _read_document(args.input)
        request = parse_request(document, kind=args.kind, overrides=overrides)
        report = run(request)
        if args.csv is not None:
            if request.kind != "gap":
                raise SchemaError("--csv is only meaningful for the gap analysis")
            _cross_section_csv(args.csv, NpaLevel.parse(request.options["npa_level"]), _tolerances(request.options))
        if request.options["format"] == "md":
            print(render_markdown(report))
        else:
            print(canonical_json(report.to_dict()))
        return EXIT_OK
    except Exception as exc:  # noqa: BLE001 - classified below
        code = _classify(exc)
        print(canonical_json(_error_payload(code, exc)))
        return code


if __name__ == "__main__":
    raise SystemExit(main())
