import math

import numpy as np
import pytest

import oracles
from dqdsim import (ELECTRON, HOLE, FieldPoint, build_basis,
                    cyclotron_energy, kinetic_coefficient,
                    renormalized_y_quantum, y_matrix)


@pytest.mark.parametrize("quantum,cyclotron,expected", [
    (30.0, 0.0, 30.0),
    (30.0, 30.87, 43.05),
    (15.0, 15.44, 21.53),
])
def test_renormalized_y_quantum(quantum, cyclotron, expected):
    assert renormalized_y_quantum(quantum, cyclotron) == pytest.approx(
        expected, abs=5e-3)


def test_renormalized_rejects_negative():
    with pytest.raises(ValueError):
        renormalized_y_quantum(-1.0, 0.0)


class TestBuildBasis:
    def test_zero_field_shells(self):
        basis = build_basis(ELECTRON, FieldPoint(0.0), max_total_quanta=2)
        energies = dict(zip(basis.states, basis.energies()))
        assert energies[(0, 0)] == pytest.approx(30.0)
        assert energies[(1, 0)] == pytest.approx(60.0)
        assert energies[(0, 1)] == pytest.approx(60.0)
        # p shell exactly degenerate at zero field
        assert energies[(1, 0)] == energies[(0, 1)]

    def test_field_splits_py_only(self):
        basis0 = build_basis(ELECTRON, FieldPoint(0.0), 2)
        basis8 = build_basis(ELECTRON, FieldPoint(8.0), 2)
        e0 = dict(zip(basis0.states, basis0.energies()))
        e8 = dict(zip(basis8.states, basis8.energies()))
        # p_x sits one bare quantum above s at any field
        assert e8[(1, 0)] - e8[(0, 0)] == pytest.approx(30.0)
        # p_y spacing is the renormalized quantum
        q_y = renormalized_y_quantum(30.0, cyclotron_energy(ELECTRON,
                                                            FieldPoint(8.0)))
        assert e8[(0, 1)] - e8[(0, 0)] == pytest.approx(q_y)
        assert e8[(0, 1)] > e0[(0, 1)]

    def test_single_state_basis(self):
        basis = build_basis(ELECTRON, FieldPoint(0.0), 0)
        assert basis.states == ((0, 0),)

    @pytest.mark.parametrize("n", [0, 1, 2, 4, 6])
    def test_complete_and_duplicate_free(self, n):
        basis = build_basis(HOLE, FieldPoint(3.0), n)
        assert len(set(basis.states)) == len(basis.states)
        assert len(basis) == (n + 1) * (n + 2) // 2
        assert all(nx + ny <= n for nx, ny in basis.states)


class TestYMatrix:
    def test_selection_rules_and_value(self):
        basis = build_basis(ELECTRON, FieldPoint(0.0), 2)
        mat = y_matrix(basis, ELECTRON)
        idx = {state: k for k, state in enumerate(basis.states)}
        s, px, py = idx[(0, 0)], idx[(1, 0)], idx[(0, 1)]
        assert mat[s, s] == 0.0
        assert mat[s, px] == 0.0
        expected = math.sqrt(kinetic_coefficient(ELECTRON) / 30.0)
        assert mat[s, py] == pytest.approx(expected, rel=1e-12)
        assert mat[s, py] == pytest.approx(6.506, abs=1e-3)
        np.testing.assert_allclose(mat, mat.T, atol=1e-15)

    @pytest.mark.parametrize("b", [0.0, 8.0])
    def test_matches_elementwise_definition(self, b):
        basis = build_basis(HOLE, FieldPoint(b), 6)
        y01 = math.sqrt(kinetic_coefficient(HOLE) / basis.quantum_y)
        loop = np.zeros((len(basis), len(basis)))
        for i, (nxi, nyi) in enumerate(basis.states):
            for j, (nxj, nyj) in enumerate(basis.states):
                if nxi == nxj and abs(nyi - nyj) == 1:
                    loop[i, j] = math.sqrt(max(nyi, nyj)) * y01
        assert y_matrix(basis, HOLE).tobytes() == loop.tobytes()

    def test_against_quadrature_oracle(self):
        q_y = renormalized_y_quantum(30.0, cyclotron_energy(ELECTRON,
                                                            FieldPoint(8.0)))
        basis = build_basis(ELECTRON, FieldPoint(8.0), 3)
        mat = y_matrix(basis, ELECTRON)
        idx = {state: k for k, state in enumerate(basis.states)}
        for n, m in ((0, 1), (1, 2), (2, 3)):
            oracle = oracles.ho_y_element(n, m, ELECTRON.mass_ratio, q_y)
            assert mat[idx[(0, n)], idx[(0, m)]] == pytest.approx(
                oracle, rel=1e-8)

    def test_y_squared_diagonal_matches_quadrature(self):
        basis = build_basis(ELECTRON, FieldPoint(0.0), 6)
        mat = y_matrix(basis, ELECTRON)
        y2 = mat @ mat
        idx = {state: k for k, state in enumerate(basis.states)}
        c = kinetic_coefficient(ELECTRON)
        for n in range(4):  # n + 1 must stay inside the ladder
            closed = (2 * n + 1) * c / 30.0
            oracle = oracles.ho_y2_element(n, n, ELECTRON.mass_ratio, 30.0)
            k = idx[(0, n)]
            assert y2[k, k] == pytest.approx(closed, rel=1e-12)
            assert y2[k, k] == pytest.approx(oracle, rel=1e-8)


def test_diamagnetic_shift_quadratic_at_small_field():
    bs = np.linspace(0.0, 0.5, 11)
    shifts = []
    for b in bs:
        q_y = renormalized_y_quantum(
            30.0, cyclotron_energy(ELECTRON, FieldPoint(float(b))))
        shifts.append(0.5 * (q_y - 30.0))
    shifts = np.array(shifts)
    coeff = np.sum(shifts * bs ** 2) / np.sum(bs ** 4)
    residual = shifts - coeff * bs ** 2
    assert np.max(np.abs(residual)) < 1e-3 * np.max(shifts)
