import numpy as np
import pytest

import oracles
from dqdsim import ELECTRON, ParticleSpecies
from dqdsim.errors import DomainTooSmallError, NoBoundStateError
from dqdsim.vertical import (DoubleWellSpec, Grid1D, build_potential,
                             dz_matrix, grid_for_wells, solve_double_well,
                             solve_vertical)

DEFAULT_WELL = DoubleWellSpec(width_h=4.5, barrier_l=7.0,
                            depth1=239.0, depth2=203.0)


def box_grid(width, step):
    # Dirichlet walls sit one step outside the end nodes, so chop the
    # end nodes off the nominal box to make its width exactly `width`.
    n = int(round(width / step)) - 1
    return Grid1D(-width / 2 + step, -width / 2 + n * step, n)


def count_sign_changes(psi):
    significant = psi[np.abs(psi) > 1e-7 * np.max(np.abs(psi))]
    signs = np.sign(significant)
    return int(np.sum(signs[1:] != signs[:-1]))


class TestBuildPotential:
    def test_zero_depths_give_zero_potential(self):
        spec = DoubleWellSpec(4.5, 7.0, 0.0, 0.0)
        grid = grid_for_wells(spec)
        assert not np.any(build_potential(spec, grid))

    def test_default_wells_shape(self):
        from dqdsim.vertical import well_node_slices

        grid = grid_for_wells(DEFAULT_WELL)
        v = build_potential(DEFAULT_WELL, grid)
        step = grid.step
        assert set(np.unique(v)) == {-239.0, -203.0, 0.0}
        assert np.sum(v == -239.0) == round(4.5 / step)
        assert np.sum(v == -203.0) == round(4.5 / step)
        # barrier between the wells is exactly L of zero potential
        (_, i1_hi), (i2_lo, _) = well_node_slices(DEFAULT_WELL, grid)
        inner = v[i1_hi:i2_lo]
        assert not np.any(inner)
        assert len(inner) == round(7.0 / step)

    def test_symmetric_depths_even_about_midpoint(self):
        spec = DoubleWellSpec(4.5, 7.0, 239.0, 239.0)
        grid = grid_for_wells(spec)
        v = build_potential(spec, grid)
        # mirror symmetry about the barrier midpoint maps node i to -i
        np.testing.assert_allclose(v, v[::-1], atol=1e-12)

    def test_domain_too_small(self):
        grid = grid_for_wells(DEFAULT_WELL, padding=10.0)
        with pytest.raises(DomainTooSmallError):
            build_potential(DEFAULT_WELL, grid)


class TestSolveVertical:
    @pytest.mark.parametrize("width,n", [(10.0, 1), (10.0, 2), (10.0, 3),
                                         (8.0, 1)])
    def test_particle_in_a_box(self, width, n):
        grid = box_grid(width, step=0.01)
        species = ParticleSpecies("electron", 1.0, 30.0, -1)
        spectrum = solve_vertical(np.zeros(grid.n_points), grid, species,
                                  n_states=n, require_bound=False)
        exact = oracles.box_energies(width, 1.0, n)
        assert spectrum.energies[n - 1] == pytest.approx(exact[n - 1],
                                                         rel=1e-3)

    @pytest.mark.parametrize("depth,mass", [(239.0, 0.03), (203.0, 0.03),
                                            (119.5, 0.06), (101.5, 0.06)])
    def test_single_finite_well_against_transcendental_root(self, depth, mass):
        # single well realized as a double well whose second depth is zero
        spec = DoubleWellSpec(4.5, 10.0, depth, 0.0)
        species = ParticleSpecies("x", mass, 30.0, -1)
        spectrum = solve_double_well(spec, species, n_states=1)
        oracle = oracles.finite_well_levels(depth, 4.5, mass)[0]
        assert spectrum.energies[0] == pytest.approx(oracle, abs=0.05)

    def test_symmetric_double_well_splitting_shrinks_with_l(self):
        gaps = []
        for barrier in (5.0, 8.0, 11.0, 14.0):
            spec = DoubleWellSpec(4.5, barrier, 239.0, 239.0)
            spectrum = solve_double_well(spec, ELECTRON, n_states=2)
            psi0 = spectrum.wavefunctions[:, 0]
            psi1 = spectrum.wavefunctions[:, 1]
            # bonding even, antibonding odd about the barrier midpoint
            np.testing.assert_allclose(psi0, psi0[::-1], atol=1e-5)
            np.testing.assert_allclose(psi1, -psi1[::-1], atol=1e-5)
            gaps.append(spectrum.energies[1] - spectrum.energies[0])
        assert all(g > 0 for g in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_no_bound_state(self):
        spec = DoubleWellSpec(4.5, 7.0, 0.0, 0.0)
        grid = grid_for_wells(spec)
        with pytest.raises(NoBoundStateError):
            solve_vertical(build_potential(spec, grid), grid, ELECTRON)

    def test_orthonormality_and_node_counts(self):
        spectrum = solve_double_well(DEFAULT_WELL, ELECTRON, n_states=2)
        h = spectrum.grid.step
        psi = spectrum.wavefunctions
        gram = psi.T @ psi * h
        assert abs(gram[0, 0] - 1.0) < 1e-10
        assert abs(gram[1, 1] - 1.0) < 1e-10
        assert abs(gram[0, 1]) < 1e-8
        assert count_sign_changes(psi[:, 0]) == 0
        assert count_sign_changes(psi[:, 1]) == 1
        # hard walls are far enough out that nothing reaches them
        edge = max(abs(psi[0, 0]), abs(psi[-1, 0]))
        assert edge < 1e-4 * np.max(np.abs(psi[:, 0]))

    def test_grid_convergence(self):
        e_default = solve_double_well(DEFAULT_WELL, ELECTRON, step=0.01).energies
        e_half = solve_double_well(DEFAULT_WELL, ELECTRON, step=0.005).energies
        assert np.max(np.abs(e_default[:2] - e_half[:2])) < 0.01

    def test_variational_bound_in_domain_size(self):
        # shallow well leaks far into the barrier, making the Dirichlet
        # truncation visible; enlarging the domain must lower the energy
        spec = DoubleWellSpec(4.5, 7.0, 30.0, 30.0)
        energies = [solve_double_well(spec, ELECTRON, padding=p).energies[0]
                    for p in (15.0, 20.0, 30.0, 45.0)]
        assert all(a > b for a, b in zip(energies, energies[1:]))

    def test_log_splitting_nearly_linear_in_l(self):
        barriers = np.arange(5.0, 15.5, 1.0)
        logs = []
        for barrier in barriers:
            spec = DoubleWellSpec(4.5, barrier, 239.0, 239.0)
            spectrum = solve_double_well(spec, ELECTRON, n_states=2)
            logs.append(np.log(spectrum.energies[1] - spectrum.energies[0]))
        d1 = np.diff(logs)
        d2 = np.diff(d1)
        assert np.all(d1 < 0)
        assert np.max(np.abs(d2)) < 0.02 * np.abs(np.mean(d1))


class TestClassification:
    def test_symmetric_labels(self):
        spec = DoubleWellSpec(4.5, 7.0, 239.0, 239.0)
        spectrum = solve_double_well(spec, ELECTRON, n_states=2)
        assert spectrum.labels[:2] == ("B", "A")

    def test_weak_coupling_localization(self):
        spectrum = solve_double_well(
            DoubleWellSpec(4.5, 9.5, 239.0, 203.0), ELECTRON, n_states=2)
        w = spectrum.localization
        # these barely-bound states keep ~1/3 of their weight in the
        # evanescent tails, so dominance is a ratio over the well weights
        assert w[0, 0] / (w[0, 0] + w[0, 1]) > 0.9  # ground: deep dot
        assert w[1, 1] / (w[1, 0] + w[1, 1]) > 0.9  # excited: shallow dot
        # oracle: integrate |psi|^2 over the deep well directly
        h = spectrum.grid.step
        z = spectrum.grid.nodes()
        psi0 = spectrum.wavefunctions[:, 0]
        mask = (z > -9.5 / 2 - 4.5) & (z < -9.5 / 2)
        assert w[0, 0] == pytest.approx(np.sum(psi0[mask] ** 2) * h, abs=1e-9)

    def test_hybridization_grows_as_l_shrinks(self):
        w_far = solve_double_well(
            DoubleWellSpec(4.5, 9.5, 239.0, 203.0), ELECTRON).localization
        w_near = solve_double_well(
            DoubleWellSpec(4.5, 3.0, 239.0, 203.0), ELECTRON).localization
        assert w_near[0, 1] > w_far[0, 1]

    def test_weights_bounded_by_one(self):
        spectrum = solve_double_well(DEFAULT_WELL, ELECTRON, n_states=2)
        total = spectrum.localization.sum(axis=1)
        assert np.all(total <= 1.0 + 1e-12)
        # deficit is the weight living in the barrier and padding
        h = spectrum.grid.step
        z = spectrum.grid.nodes()
        psi0 = spectrum.wavefunctions[:, 0]
        in_wells = ((z > -3.5 - 4.5) & (z <= -3.5)) | ((z >= 3.5) & (z < 8.0))
        rest = np.sum(psi0[~in_wells] ** 2) * h
        assert total[0] + rest == pytest.approx(1.0, abs=1e-9)


class TestDzMatrix:
    def test_antisymmetric_with_zero_diagonal(self):
        spectrum = solve_double_well(DEFAULT_WELL, ELECTRON, n_states=2)
        d = dz_matrix(spectrum)
        assert d[0, 0] == 0.0 and d[1, 1] == 0.0
        assert np.max(np.abs(d + d.T)) < 1e-12
        # raw integrals are antisymmetric before symmetrization too
        h = spectrum.grid.step
        psi = spectrum.bound_wavefunctions
        dpsi = np.gradient(psi, h, axis=0)
        raw01 = np.trapezoid(psi[:, 0] * dpsi[:, 1], dx=h)
        raw10 = np.trapezoid(psi[:, 1] * dpsi[:, 0], dx=h)
        assert raw01 + raw10 == pytest.approx(0.0, abs=1e-8)

    def test_parity_selection_rule(self):
        # deep wide symmetric well holds two states per dot; states of
        # equal parity are not connected by d/dz
        spec = DoubleWellSpec(6.0, 4.0, 600.0, 600.0)
        spectrum = solve_double_well(spec, ELECTRON, n_states=4)
        assert spectrum.n_bound == 4
        d = dz_matrix(spectrum)
        assert abs(d[0, 1]) > 1e-3
        assert abs(d[0, 2]) < 1e-8
        assert abs(d[1, 3]) < 1e-8

    def test_commutator_identity(self):
        # [H, z] relates <0|dz|1> to (E1 - E0) <0|z|1> / (2 hbar^2/2m)
        spectrum = solve_double_well(DEFAULT_WELL, ELECTRON, n_states=2)
        d = dz_matrix(spectrum)
        h = spectrum.grid.step
        z = spectrum.grid.nodes()
        psi = spectrum.bound_wavefunctions
        z01 = np.trapezoid(psi[:, 0] * z * psi[:, 1], dx=h)
        de = spectrum.energies[1] - spectrum.energies[0]
        c = 1269.994  # hbar^2/2m for m = 0.03 m0
        assert d[0, 1] == pytest.approx(de * z01 / (2 * c), rel=1e-3)

    def test_coupling_decreases_with_l(self):
        values = []
        for barrier in (7.0, 9.5, 12.0):
            spectrum = solve_double_well(
                DoubleWellSpec(4.5, barrier, 239.0, 203.0), ELECTRON)
            values.append(abs(dz_matrix(spectrum)[0, 1]))
        assert values[0] > values[1] > values[2] > 0

    def test_requires_two_states(self):
        spec = DoubleWellSpec(4.5, 10.0, 239.0, 0.0)
        spectrum = solve_double_well(spec, ELECTRON, n_states=1)
        with pytest.raises(ValueError):
            dz_matrix(spectrum)
