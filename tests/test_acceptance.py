"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS lines.  The module keeps its own clock; the final criterion asserts
the whole gate stayed inside the runtime budget.
"""

import time

import numpy as np
import pytest

from polybounds import (
    ACE_COEFFS,
    Behavior,
    CHSH_COEFFS,
    CorrelationTriple,
    DichotomicObservable,
    LpProblem,
    NpaLevel,
    ObservedIVTable,
    RESPONSE_MATRIX,
    TwoQubitState,
    ace_bounds,
    behavior_to_correlations,
    boole_bell_check,
    chsh_value,
    comonotone_coupling,
    countermonotone_coupling,
    entropic_chsh,
    enumerate_strategies,
    fine_check,
    frechet_bounds,
    instrumental_inequality,
    lp_solve,
    manski_bounds,
    npa_bound,
    oracle_extremal_scan,
    oracle_feasible_vertices,
    pns_bounds,
    quantum_behavior,
    quantum_gap_report,
    triple_feasibility,
)
from polybounds.causal import counterfactual_atom_system, pns_objective
from polybounds.quantum import chsh_operator
from conftest import (
    random_counterfactual_instance,
    random_iv_table,
    random_nosignaling_behavior,
    random_observable,
    structural_iv_tables,
)

_MODULE_T0 = time.perf_counter()
_SDP_HYGIENE: list = []
_LP_HYGIENE: list = []

TSIRELSON = 2 * np.sqrt(2)


def _report(number: int, text: str) -> None:
    print(f"[acceptance] criterion {number:2d} PASS: {text}")


def test_criterion_01_tsirelson_reproduction():
    t0 = time.perf_counter()
    result = npa_bound(NpaLevel.L1, CHSH_COEFFS)
    value = result.value
    elapsed = time.perf_counter() - t0
    _SDP_HYGIENE.append(result)
    assert value == pytest.approx(TSIRELSON, abs=1e-4)
    assert elapsed < 1.0
    _report(1, f"relaxation bound {value:.7f} = 2*sqrt(2) within 1e-4 in {elapsed*1e3:.0f} ms")


def test_criterion_02_polytope_triple():
    report = quantum_gap_report(CHSH_COEFFS)
    assert report.classical == pytest.approx(2.0, abs=1e-9)
    assert report.quantum == pytest.approx(TSIRELSON, abs=1e-4)
    assert report.nosignaling == pytest.approx(4.0, abs=1e-9)
    _report(
        2,
        f"triple (classical, quantum, no-signaling) = "
        f"({report.classical:.9f}, {report.quantum:.7f}, {report.nosignaling:.9f})",
    )


def test_criterion_03_simulator_exactness():
    singlet = TwoQubitState.singlet()
    z = DichotomicObservable.from_angle(0.0)
    angles = np.linspace(0.0, 2 * np.pi, 6, endpoint=False)
    worst = 0.0
    for ta in angles:
        for tb in angles:
            b = quantum_behavior(
                singlet,
                DichotomicObservable.from_angle(ta),
                z,
                DichotomicObservable.from_angle(tb),
                z,
            )
            e = behavior_to_correlations(b).e[0, 0]
            worst = max(worst, abs(e + np.cos(ta - tb)))
    assert worst <= 1e-12

    optimal = quantum_behavior(
        singlet,
        DichotomicObservable.from_angle(0.0),
        DichotomicObservable.from_angle(-np.pi / 2),
        DichotomicObservable.from_angle(3 * np.pi / 4),
        DichotomicObservable.from_angle(-3 * np.pi / 4),
    )
    s_opt = chsh_value(behavior_to_correlations(optimal))
    assert s_opt == pytest.approx(TSIRELSON, abs=1e-9)

    rng = np.random.default_rng(101)
    worst_id = 0.0
    for _ in range(100):
        a0, a1, b0, b1 = (random_observable(rng) for _ in range(4))
        C = chsh_operator(a0, a1, b0, b1)
        comm = np.kron(a0.m @ a1.m - a1.m @ a0.m, b0.m @ b1.m - b1.m @ b0.m)
        worst_id = max(worst_id, float(np.abs(C @ C - (4 * np.eye(4) - comm)).max()))
    assert worst_id <= 1e-10
    _report(
        3,
        f"36-angle grid error {worst:.1e} <= 1e-12, optimal angles give {s_opt:.9f}, "
        f"operator identity error {worst_id:.1e} <= 1e-10 on 100 quadruples",
    )


def test_criterion_04_fine_equivalence():
    rng = np.random.default_rng(102)
    disagreements = 0
    for _ in range(1000):
        b = random_nosignaling_behavior(rng)
        result = fine_check(b)
        if result.joint_exists != result.all_chsh_hold:
            disagreements += 1
    assert disagreements == 0
    _report(4, "joint-LP feasibility matched the 8 facet checks on 1000 behaviors, 0 disagreements")


def test_criterion_05_balke_pearl_correctness():
    rng = np.random.default_rng(103)
    worst = 0.0
    for i in range(200):
        table = random_iv_table(rng)
        interval = ace_bounds(table)
        oracle = oracle_extremal_scan(ACE_COEFFS, A=RESPONSE_MATRIX, b=table.flat())
        worst = max(worst, abs(interval.lo - oracle.lo), abs(interval.hi - oracle.hi))
        assert abs(interval.lo - oracle.lo) <= 1e-9
        assert abs(interval.hi - oracle.hi) <= 1e-9
        assert interval.width < 1.0
        vertices = oracle_feasible_vertices(RESPONSE_MATRIX, table.flat())
        mixtures = rng.dirichlet(np.ones(len(vertices)), size=10) @ vertices
        for q in mixtures:
            assert interval.lo - 1e-9 <= ACE_COEFFS @ q <= interval.hi + 1e-9
        if i < 50:  # hygiene sample for criterion 12
            for sense in ("min", "max"):
                res = lp_solve(LpProblem(c=ACE_COEFFS, A=RESPONSE_MATRIX, b=table.flat(), sense=sense))
                _LP_HYGIENE.append((RESPONSE_MATRIX, table.flat(), res))
    _report(
        5,
        f"closed-form Balke-Pearl bounds equal basis-enumeration bounds on 200 tables (worst gap {worst:.1e}), "
        "width < 1, all sampled effects contained",
    )


def test_criterion_06_manski_width_one_contains_zero():
    rng = np.random.default_rng(104)
    for _ in range(1000):
        e1, e0, px1 = rng.uniform(0, 1, 3)
        interval = manski_bounds(float(e1), float(e0), float(px1))
        assert interval.width == pytest.approx(1.0, abs=1e-12)
        assert interval.lo <= 1e-12 <= interval.hi + 1e-12
    _report(6, "1000 random inputs: width = 1 within 1e-12 and 0 inside the interval")


def test_criterion_07_tian_pearl_sharpness():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(500):
        exp, obs = random_counterfactual_instance(rng)
        formula = pns_bounds(exp, obs)
        A, b = counterfactual_atom_system(exp, obs)
        oracle = oracle_extremal_scan(pns_objective(), A=A, b=b)
        worst = max(worst, abs(formula.lo - oracle.lo), abs(formula.hi - oracle.hi))
        assert abs(formula.lo - oracle.lo) <= 1e-9
        assert abs(formula.hi - oracle.hi) <= 1e-9
    _report(7, f"closed form equals the 8-atom LP oracle on 500 instances (worst gap {worst:.1e})")


def test_criterion_08_instrumental_inequality():
    rng = np.random.default_rng(106)
    qs = rng.dirichlet(np.ones(16), size=9000)
    tables = (qs @ RESPONSE_MATRIX.T).reshape(-1, 2, 2, 2)
    tables = np.concatenate([tables, structural_iv_tables(rng, 1000)])
    assert tables.shape[0] == 10000
    values = tables.max(axis=3).sum(axis=1).max(axis=1)
    assert values.max() <= 1.0 + 1e-12

    crafted = np.zeros((2, 2, 2))
    crafted[1, 1, 0] = 1.0
    crafted[0, 1, 1] = 1.0
    check = instrumental_inequality(ObservedIVTable(crafted))
    assert not check.holds
    assert check.value == pytest.approx(2.0, abs=1e-12)
    _report(
        8,
        f"inequality held on 10000 simulated tables (max value {values.max():.6f}); "
        "crafted table flagged with value 2",
    )


def test_criterion_09_frechet_grid_and_attainment():
    grid = np.linspace(0.0, 1.0, 101)
    worst = 0.0
    for u in grid:
        for v in grid:
            interval = frechet_bounds(float(u), float(v))
            assert interval.lo <= interval.hi + 1e-15
            hi_joint = comonotone_coupling(float(u), float(v))
            lo_joint = countermonotone_coupling(float(u), float(v))
            worst = max(
                worst,
                abs(hi_joint[1, 1] - interval.hi),
                abs(lo_joint[1, 1] - interval.lo),
            )
    assert worst <= 1e-12
    _report(9, f"lower <= upper on the 101x101 grid; couplings attain the bounds (worst error {worst:.1e})")


def test_criterion_10_boole_bell_necessity():
    rng = np.random.default_rng(107)
    feasible_count = 0
    for _ in range(1000):
        t = CorrelationTriple(*(float(v) for v in rng.uniform(-1, 1, 3)))
        if triple_feasibility(t):
            feasible_count += 1
            assert boole_bell_check(t).holds
    contradiction = CorrelationTriple(1.0, -1.0, 1.0)
    assert not triple_feasibility(contradiction)
    assert not boole_bell_check(contradiction).holds
    _report(
        10,
        f"feasibility implied the two-sided inequality on 1000 triples ({feasible_count} feasible); "
        "(1, -1, 1) infeasible and violating",
    )


def test_criterion_11_entropic_inequality():
    for s in enumerate_strategies():
        result = entropic_chsh(s.behavior())
        assert result.holds
    rng = np.random.default_rng(108)
    from conftest import random_local_behavior

    for _ in range(200):
        assert entropic_chsh(random_local_behavior(rng)).holds
    pr = entropic_chsh(Behavior.pr_box())
    assert pr.lhs == pytest.approx(2.0, abs=1e-9)
    _report(
        11,
        "all 16 deterministic behaviors and 200 local mixtures satisfy the entropic bound; "
        f"PR box evaluates to lhs = {pr.lhs:.9f}",
    )


def test_criterion_12_solver_hygiene_and_runtime():
    rng = np.random.default_rng(109)
    for level in (NpaLevel.L1, NpaLevel.L1AB):
        result = npa_bound(level, CHSH_COEFFS)
        _SDP_HYGIENE.append(result)
    for _ in range(6):
        result = npa_bound(NpaLevel.L1, rng.normal(size=(2, 2)))
        _SDP_HYGIENE.append(result)

    assert _SDP_HYGIENE
    for result in _SDP_HYGIENE:
        assert np.linalg.eigvalsh(result.X).min() >= -1e-7
        assert result.gap <= 1e-6 * (1 + abs(result.value))

    assert _LP_HYGIENE
    for A, b, res in _LP_HYGIENE:
        assert res.status == "optimal"
        assert np.abs(A @ res.x - b).max() <= 1e-9
        assert res.x.min() >= -1e-9

    elapsed = time.perf_counter() - _MODULE_T0
    assert elapsed < 60.0
    _report(
        12,
        f"{len(_SDP_HYGIENE)} SDP solutions PSD within 1e-7 with gaps <= 1e-6, "
        f"{len(_LP_HYGIENE)} LP optima feasible within 1e-9; acceptance gate ran in {elapsed:.1f} s",
    )
