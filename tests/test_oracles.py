import itertools

import numpy as np
import pytest

from polybounds import (
    ACE_COEFFS,
    AtomGrid,
    EnumerationLimitError,
    InfeasibleTableError,
    RESPONSE_MATRIX,
    ValidationError,
    ExperimentalData,
    ObservationalData,
    enumerate_strategies,
    oracle_extremal_scan,
    oracle_feasible_vertices,
    oracle_joint_feasibility,
    oracle_vertex_average,
)
from polybounds import oracles
from polybounds.causal import counterfactual_atom_system
from conftest import random_iv_table


def test_atom_grid_constructors():
    g = AtomGrid.signs(3)
    assert len(g) == 8
    assert g.atoms[0] == (1.0, 1.0, 1.0)
    b = AtomGrid.binary(2)
    assert len(b) == 4
    with pytest.raises(ValidationError):
        AtomGrid(((1.0,), (1.0, -1.0)))
    with pytest.raises(ValidationError):
        AtomGrid(((1.0,), (-1.0,)), probs=[0.5, 0.2])


def test_empty_constraint_set_is_feasible():
    assert oracle_joint_feasibility([], AtomGrid.signs(2))


def test_tsirelson_correlators_have_no_fourfold_joint():
    grid = AtomGrid.signs(4)  # values of A0, A1, B0, B1
    atoms = np.asarray(grid.atoms)
    s = np.sqrt(2) / 2
    targets = {(0, 2): s, (0, 3): s, (1, 2): s, (1, 3): -s}
    constraints = [(atoms[:, i] * atoms[:, j], v) for (i, j), v in targets.items()]
    assert not oracle_joint_feasibility(constraints, grid)
    # the local point (all correlators 1/2) does admit a joint
    constraints = [(atoms[:, i] * atoms[:, j], 0.5) for (i, j) in targets]
    assert oracle_joint_feasibility(constraints, grid)


def test_consistent_counterfactual_atoms_feasible():
    from polybounds.causal import counterfactual_atom_system
    from polybounds import ExperimentalData, ObservationalData

    exp = ExperimentalData(0.7, 0.3)
    obs = ObservationalData([[0.3, 0.2], [0.1, 0.4]])
    A, b = counterfactual_atom_system(exp, obs)
    grid = AtomGrid.binary(3)
    constraints = [(A[k], b[k]) for k in range(len(b))]
    assert oracle_joint_feasibility(constraints, grid)


def test_vertex_scan_chsh_over_strategies():
    corr = np.array([s.correlations().e.reshape(4) for s in enumerate_strategies()])
    chsh = np.array([1.0, 1.0, 1.0, -1.0])
    iv = oracle_extremal_scan(chsh, vertices=corr)
    assert iv.lo == pytest.approx(-2.0)
    assert iv.hi == pytest.approx(2.0)


def test_constant_objective_degenerate_interval():
    iv = oracle_extremal_scan(np.zeros(4), vertices=np.eye(4))
    assert iv.lo == iv.hi == 0.0


def test_basis_scan_perfect_compliance():
    p = np.zeros((2, 2, 2))
    p[1, 1, 1] = 0.7
    p[0, 1, 1] = 0.3
    p[1, 0, 0] = 0.4
    p[0, 0, 0] = 0.6
    iv = oracle_extremal_scan(ACE_COEFFS, A=RESPONSE_MATRIX, b=p.reshape(8))
    assert iv.lo == pytest.approx(0.3, abs=1e-9)
    assert iv.hi == pytest.approx(0.3, abs=1e-9)


def test_basis_scan_detects_infeasibility():
    p = np.zeros((2, 2, 2))
    p[1, 1, 0] = 1.0
    p[0, 1, 1] = 1.0
    with pytest.raises(InfeasibleTableError):
        oracle_extremal_scan(ACE_COEFFS, A=RESPONSE_MATRIX, b=p.reshape(8))


def test_enumeration_cap_guard():
    rng = np.random.default_rng(81)
    A = rng.normal(size=(20, 44))  # C(44, 20) is astronomically over budget
    with pytest.raises(EnumerationLimitError):
        oracle_extremal_scan(np.zeros(44), A=A, b=A @ np.ones(44))


def test_feasible_vertices_and_interior_average():
    rng = np.random.default_rng(82)
    t = random_iv_table(rng)
    vertices = oracle_feasible_vertices(RESPONSE_MATRIX, t.flat())
    assert (np.abs(vertices @ RESPONSE_MATRIX.T - t.flat()) <= 1e-8).all()
    assert vertices.min() >= 0.0
    center = oracle_vertex_average(RESPONSE_MATRIX, t.flat())
    assert center.min() > 0.0  # interior table -> full-support center
    assert np.abs(RESPONSE_MATRIX @ center - t.flat()).max() <= 1e-8


def test_scan_requires_either_vertices_or_system():
    with pytest.raises(ValidationError):
        oracle_extremal_scan(np.zeros(3))


@pytest.mark.parametrize("chunk", [oracles.BASIS_CHUNK, 7])
@pytest.mark.parametrize("system", ["response-matrix", "counterfactual-atoms"])
def test_chunked_basis_data_equals_the_one_shot_computation(monkeypatch, chunk, system):
    if system == "response-matrix":
        A = RESPONSE_MATRIX
    else:
        A, _ = counterfactual_atom_system(ExperimentalData(0.7, 0.3), ObservationalData([[0.3, 0.2], [0.1, 0.4]]))
    monkeypatch.setattr(oracles, "_BASIS_CACHE", {})
    monkeypatch.setattr(oracles, "BASIS_CHUNK", chunk)
    rows, subsets, inverses = oracles._basis_data(A)

    Ar = A[oracles._independent_rows(A, 1e-10)]
    r, n = Ar.shape
    every = np.array(list(itertools.combinations(range(n), r)), dtype=int)
    mats = Ar[:, every].transpose(1, 0, 2)
    ok = np.abs(np.linalg.det(mats)) > 1e-9
    assert rows == oracles._independent_rows(A, 1e-10)
    np.testing.assert_array_equal(subsets, every[ok])
    np.testing.assert_array_equal(inverses, np.linalg.inv(mats[ok]))
