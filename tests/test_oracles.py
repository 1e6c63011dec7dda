import itertools

import numpy as np
import pytest

from polybounds import (
    ACE_COEFFS,
    EnumerationLimitError,
    InfeasibleTableError,
    RESPONSE_MATRIX,
    ExperimentalData,
    ObservationalData,
    oracle_extremal_scan,
    oracle_feasible_vertices,
    oracle_vertex_average,
)
from polybounds import oracles
from polybounds.causal import counterfactual_atom_system
from conftest import random_iv_table


def test_consistent_counterfactual_atoms_feasible():
    exp = ExperimentalData(0.7, 0.3)
    obs = ObservationalData([[0.3, 0.2], [0.1, 0.4]])
    A, b = counterfactual_atom_system(exp, obs)
    vertices = oracle_feasible_vertices(A, b)
    assert len(vertices) > 0
    assert np.abs(vertices @ A.T - b).max() <= 1e-12
    assert np.abs(vertices.sum(axis=1) - 1.0).max() <= 1e-12  # the four cells imply normalization


def test_tsirelson_correlators_have_no_fourfold_joint():
    atoms = np.array(list(itertools.product((1.0, -1.0), repeat=4)))  # values of A0, A1, B0, B1
    s = np.sqrt(2) / 2
    targets = {(0, 2): s, (0, 3): s, (1, 2): s, (1, 3): -s}
    A = np.vstack([np.ones(len(atoms))] + [atoms[:, i] * atoms[:, j] for i, j in targets])
    with pytest.raises(InfeasibleTableError):
        oracle_feasible_vertices(A, np.array([1.0, *targets.values()]))
    # the local point (all correlators 1/2) does admit a joint
    b = np.array([1.0] + [0.5] * len(targets))
    vertices = oracle_feasible_vertices(A, b)
    assert np.abs(vertices @ A.T - b).max() <= 1e-12


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
