"""Independent reference answers and the verdict on each answered document.

Values come from closed forms computed here, or from the brute-force
oracles of ``polybounds.oracles`` (basis enumeration), never from the LP,
SDP or handler code the benchmark times.  Tolerances are those of the
acceptance gate.

A document's verdict is one of:

* ``ok``: the expected exit code and, on exit 0, every value within tolerance
  (the 1e300 probe may also be answered, or refused with exit 2 or 4);
* ``refused``: an exception escaped ``cli.main``, or an error exit (2, 3 or
  4) where an answer was expected.  The program gave no answer;
* ``wrong``: any other mismatch: an exit code outside {0, 2, 3, 4}, an
  answer where an error was expected, another error than the expected one,
  a value outside tolerance, or bytes that differ when the same request is
  submitted again.

Both ``refused`` and ``wrong`` count as failed documents; only ``wrong``
makes a run incorrect.
"""

from __future__ import annotations

import json

import numpy as np

from polybounds.causal import ExperimentalData, ObservationalData, counterfactual_atom_system
from polybounds.errors import InfeasibleTableError
from polybounds.oracles import oracle_extremal_scan

from workloads import RESPONSE, STRATEGY_TABLES

TOL_EXACT = 1e-9  # LP, oracle and closed-form values (criteria 2, 5, 7)
TOL_RELAX = 1e-4  # relaxation bound against the Tsirelson value (criteria 1, 2)
TOL_ENCLOSE = 1e-6  # quantum interval around the classical one (gap-report tests)

OK, REFUSED, WRONG = "ok", "refused", "wrong"
VALID_CODES = (0, 2, 3, 4)

#: Treatment effect y(1) - y(0) of each response type (outcome response j).
ACE = np.tile([0.0, 1.0, -1.0, 0.0], 4)
#: P(Y1=1, Y0=0) and its X=1 / X=0 parts over the atoms 4*y0 + 2*y1 + x.
PNS_OBJ = np.array([0, 0, 1, 1, 0, 0, 0, 0], dtype=float)
PN_OBJ = np.array([0, 0, 0, 1, 0, 0, 0, 0], dtype=float)
PS_OBJ = np.array([0, 0, 1, 0, 0, 0, 0, 0], dtype=float)
SIGN = np.array([1.0, -1.0])


class Mismatch(Exception):
    """A value or field of an answer disagrees with the reference."""


def _close(name: str, got, want: float, tol: float) -> None:
    if not isinstance(got, (int, float)) or isinstance(got, bool) or not abs(got - want) <= tol:
        raise Mismatch(f"{name}: got {got!r}, reference {want!r} (tol {tol:g})")


def _equal(name: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{name}: got {got!r}, reference {want!r}")


def _interval(name: str, got: dict, lo: float, hi: float, tol: float = TOL_EXACT) -> None:
    _close(f"{name}.lo", got["lo"], lo, tol)
    _close(f"{name}.hi", got["hi"], hi, tol)


def tsirelson(f) -> float:
    """Quantum maximum of sum f[x, y] E[A_x B_y]:
    max over c in [-1, 1] of sum_y sqrt(f0y^2 + f1y^2 + 2 f0y f1y c), a
    concave function of c maximized by golden-section search."""
    f = np.asarray(f, dtype=float)
    scale = float(np.abs(f).max())
    if scale == 0.0:
        return 0.0
    g = f / scale
    a = g[0] ** 2 + g[1] ** 2
    b = 2.0 * g[0] * g[1]

    def value(c: float) -> float:
        return float(np.sqrt(np.maximum(a + b * c, 0.0)).sum())

    lo, hi = -1.0, 1.0
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(90):
        c1 = hi - ratio * (hi - lo)
        c2 = lo + ratio * (hi - lo)
        if value(c1) < value(c2):
            lo = c1
        else:
            hi = c2
    return scale * max(value(0.5 * (lo + hi)), value(-1.0), value(1.0))


def local_value(f) -> float:
    """Maximum of sum f[x, y] a_x b_y over the 16 sign assignments."""
    f = np.asarray(f, dtype=float)
    return max(
        float(sum(f[x, y] * a[x] * b[y] for x in range(2) for y in range(2)))
        for a in ((1, 1), (1, -1), (-1, 1), (-1, -1))
        for b in ((1, 1), (1, -1), (-1, 1), (-1, -1))
    )


def correlators(p) -> np.ndarray:
    return np.einsum("a,b,abxy->xy", SIGN, SIGN, np.asarray(p, dtype=float))


def max_chsh_variant(e) -> float:
    """Largest of the 8 CHSH variants: max over k of |sum e - 2 e_k|."""
    e = np.asarray(e, dtype=float)
    return float(np.abs(e.sum() - 2.0 * e.reshape(4)).max())


def _entropy(p) -> float:
    p = np.asarray(p, dtype=float).reshape(-1)
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def _payload_array(spec, axes: str) -> np.ndarray:
    if isinstance(spec, dict):
        arr = np.asarray(spec["values"], dtype=float)
        order = spec.get("order", list(axes))
        return np.transpose(arr, [order.index(a) for a in axes])
    return np.asarray(spec, dtype=float)


def _oracle(objective, A, b):
    try:
        return oracle_extremal_scan(objective, A=A, b=b)
    except InfeasibleTableError:
        return None


def expect(family: str, doc: dict) -> dict:
    """Reference answer for one document: its exit code and the values to check."""
    payload = doc.get("payload", {})
    if family in ("invalid", "probe-tolerance"):
        return {"code": 2}
    if family in ("iv", "iv-audit", "iv-violating", "qiv-interior", "qiv-finite", "qiv-one-sided", "qiv-violating"):
        table = _payload_array(payload["table"], "yxz")
        scan = _oracle(ACE, RESPONSE, table.reshape(8))
        if scan is None:
            return {"code": 3}
        return {
            "code": 0,
            "ace": (scan.lo, scan.hi),
            "inequality": float(table.max(axis=2).sum(axis=0).max()),
        }
    if family in ("membership-local", "membership-pr"):
        p = np.asarray(payload["behavior"], dtype=float)
        return {"code": 0, "p": p, "max_variant": max_chsh_variant(correlators(p))}
    if family == "chsh":
        e = np.asarray(payload["correlations"], dtype=float)
        return {"code": 0, "chsh": float(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]), "max_variant": max_chsh_variant(e)}
    if family in ("pns", "pns-zero-cell"):
        ex, joint = payload["experimental"], np.asarray(payload["observational"]["joint"], dtype=float)
        A, b = counterfactual_atom_system(ExperimentalData(ex["p_do1"], ex["p_do0"]), ObservationalData(joint))
        pns = oracle_extremal_scan(PNS_OBJ, A=A, b=b)
        out = {"code": 0, "pns": (pns.lo, pns.hi), "pn": None, "ps": None}
        if joint[1, 1] > 0.0 and joint[0, 0] > 0.0:
            pn = oracle_extremal_scan(PN_OBJ, A=A, b=b)
            ps = oracle_extremal_scan(PS_OBJ, A=A, b=b)
            out["pn"] = (pn.lo / joint[1, 1], pn.hi / joint[1, 1])
            out["ps"] = (ps.lo / joint[0, 0], ps.hi / joint[0, 0])
        return out
    if family == "manski":
        e1, e0, px1 = payload["e1"], payload["e0"], payload["px1"]
        px0 = 1.0 - px1
        return {"code": 0, "ate": (e1 * px1 - (e0 * px0 + px1), e1 * px1 + px0 - e0 * px0)}
    if family == "frechet":
        u, v = payload["u"], payload["v"]
        return {"code": 0, "joint": (max(u + v - 1.0, 0.0), min(u, v))}
    if family == "entropic":
        p = np.asarray(payload["behavior"], dtype=float)
        infos = [
            _entropy(p[:, :, x, y].sum(axis=1)) + _entropy(p[:, :, x, y].sum(axis=0)) - _entropy(p[:, :, x, y])
            for x in range(2)
            for y in range(2)
        ]
        return {"code": 0, "infos": infos, "lhs": infos[0] + infos[1] + infos[2] - infos[3]}
    if family in ("npa", "gap-functional", "probe-huge"):
        f = np.asarray(payload["functional"], dtype=float)
        return {
            "code": 4 if family == "probe-huge" else 0,
            "quantum": tsirelson(f),
            "local": local_value(f),
            "nosignaling": float(np.abs(f).sum()),
        }
    raise ValueError(f"unknown family {family!r}")


def _check_values(family: str, doc: dict, exp: dict, answer: dict) -> None:
    r = answer["results"]
    if family in ("iv", "iv-audit"):
        _interval("ace_bounds", r["ace_bounds"], *exp["ace"])
        _close("instrumental_inequality.value", r["instrumental_inequality"]["value"], exp["inequality"], TOL_EXACT)
        _equal("instrumental_inequality.holds", r["instrumental_inequality"]["holds"], exp["inequality"] <= 1.0 + 1e-12)
        if family == "iv-audit":
            _interval("audit.oracle_bounds", r["audit"]["oracle_bounds"], *exp["ace"])
            _equal("audit.agrees", r["audit"]["agrees"], True)
    elif family.startswith("qiv-"):
        lo, hi = exp["ace"]
        _interval("classical", r["classical"], lo, hi)
        q = r["quantum"]
        if not (q["lo"] <= lo + TOL_ENCLOSE and hi <= q["hi"] + TOL_ENCLOSE):
            raise Mismatch(f"quantum interval {q} does not enclose the classical [{lo}, {hi}]")
        if not (-1.0 - TOL_ENCLOSE <= q["lo"] and q["hi"] <= 1.0 + TOL_ENCLOSE):
            raise Mismatch(f"quantum interval {q} leaves [-1, 1]")
        _close("nosignaling.width", r["nosignaling"]["width"], 1.0, TOL_EXACT)
        _close("gap", r["gap"], (q["hi"] - q["lo"]) - (hi - lo), TOL_EXACT)
    elif family in ("membership-local", "membership-pr"):
        member = exp["max_variant"] <= 2.0 + TOL_EXACT
        _equal("member", r["member"], member)
        if member:
            w = np.asarray(r["weights"], dtype=float)
            if w.min() < -TOL_EXACT or abs(w.sum() - 1.0) > TOL_EXACT:
                raise Mismatch("weights are not a probability vector")
            rebuilt = np.tensordot(w, STRATEGY_TABLES, axes=(0, 0))
            _close("weights reconstruction", float(np.abs(rebuilt - exp["p"]).max()), 0.0, TOL_EXACT)
        else:
            _close("violated_facet.value", r["violated_facet"]["value"], exp["max_variant"], TOL_EXACT)
    elif family == "chsh":
        _close("chsh", r["chsh"], exp["chsh"], TOL_EXACT)
        _close("max_variant", r["max_variant"], exp["max_variant"], TOL_EXACT)
        _equal("member_of_local_polytope", r["member_of_local_polytope"], exp["max_variant"] <= 2.0 + TOL_EXACT)
    elif family in ("pns", "pns-zero-cell"):
        _interval("pns_bounds", r["pns_bounds"], *exp["pns"])
        if exp["pn"] is None:
            if "pn_bounds" in r or not any("skipped" in w for w in answer["warnings"]):
                raise Mismatch("zero conditioning cell: expected the necessity/sufficiency bounds to be skipped")
        else:
            _interval("pn_bounds", r["pn_bounds"], *exp["pn"])
            _interval("ps_bounds", r["ps_bounds"], *exp["ps"])
    elif family == "manski":
        _interval("ate_bounds", r["ate_bounds"], *exp["ate"])
        _close("ate_bounds.width", r["ate_bounds"]["width"], 1.0, TOL_EXACT)
        _equal("contains_zero", r["contains_zero"], True)
    elif family == "frechet":
        lo, hi = exp["joint"]
        _interval("joint_bounds", r["joint_bounds"], lo, hi)
        _close("comonotone_joint[1][1]", r["comonotone_joint"][1][1], hi, TOL_EXACT)
        _close("countermonotone_joint[1][1]", r["countermonotone_joint"][1][1], lo, TOL_EXACT)
    elif family == "entropic":
        for k, (got, want) in enumerate(zip(r["mutual_informations"], exp["infos"])):
            _close(f"mutual_informations[{k}]", got, want, TOL_EXACT)
        _close("lhs", r["lhs"], exp["lhs"], TOL_EXACT)
        _close("rhs", r["rhs"], 4.0, TOL_EXACT)
        _equal("holds", r["holds"], exp["lhs"] <= 4.0 + 1e-12)
    elif family in ("npa", "probe-huge"):
        _close("bound", r["bound"], exp["quantum"], TOL_RELAX * max(1.0, abs(exp["quantum"])))
        _equal("level", r["level"], doc.get("options", {}).get("npa_level", "1"))
    elif family == "gap-functional":
        _close("classical", r["classical"], exp["local"], TOL_EXACT)
        _close("quantum", r["quantum"], exp["quantum"], TOL_RELAX)
        _close("nosignaling", r["nosignaling"], exp["nosignaling"], TOL_EXACT)
        _close("gap", r["gap"], exp["quantum"] - exp["local"], TOL_RELAX)
    else:
        raise ValueError(f"no value check for family {family!r}")


def verdict(family: str, doc: dict, exp: dict, code, answer) -> tuple[str, str]:
    """Judge one document's exit code and parsed answer against its reference."""
    if code not in VALID_CODES:
        return WRONG, f"exit code {code!r} outside {VALID_CODES}"
    allowed = (0, 2, 4) if family == "probe-huge" else (exp["code"],)
    if code not in allowed:
        if exp["code"] == 0:
            return REFUSED, f"error exit {code} where an answer was expected"
        return WRONG, f"exit code {code}, reference expects {exp['code']}"
    if code != 0:
        return OK, ""
    try:
        _check_values(family, doc, exp, answer)
    except (Mismatch, KeyError, TypeError, IndexError) as exc:
        return WRONG, f"{type(exc).__name__}: {exc}"
    return OK, ""


def check(request, code, stdout: str, escaped) -> list:
    """Verdicts for every document of one call to ``cli.main``."""
    n = len(request.docs)
    if escaped is not None:
        return [(REFUSED, f"{type(escaped).__name__} escaped main: {escaped}")] * n
    try:
        parsed = json.loads(stdout)
    except ValueError as exc:
        return [(WRONG, f"stdout is not JSON: {exc}")] * n
    answers = parsed if request.argv[1] == "--batch" else [parsed]
    if not isinstance(answers, list) or len(answers) != n:
        return [(WRONG, "batch output does not hold one answer per document")] * n
    if not all(isinstance(a, dict) for a in answers):
        return [(WRONG, "an answer is not a JSON object")] * n
    codes = [a.get("error", {}).get("code", 0) for a in answers]
    if request.argv[1] == "--batch" and code != max(codes, default=0):
        return [(WRONG, f"batch exit code {code} is not the worst document code {max(codes)}")] * n
    if request.argv[1] == "--input":
        codes = [code]
    return [
        verdict(family, doc, expect(family, doc), c, answer)
        for (family, doc), c, answer in zip(request.docs, codes, answers)
    ]
