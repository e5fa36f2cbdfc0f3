import collections
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal

import oracles
from dqdsim import (ELECTRON, HOLE, ParticleSpecies, SolverOptions,
                    default_device, fitting, vertical)
from dqdsim.core import kinetic_coefficient
from dqdsim.errors import NoBoundStateError
from dqdsim.spectroscopy import vertical_spectrum
from dqdsim.vertical import (DoubleWellSpec, Grid1D, build_potential,
                             dz_matrix, solve_double_well, solve_vertical)

DEFAULT_WELL = DoubleWellSpec(width_h=4.5, barrier_l=7.0,
                            depth1=239.0, depth2=203.0)
TWO_STATES = SolverOptions(vertical_cap=2)


def box_grid(width, step):
    # Dirichlet walls sit one step outside the end nodes, so chop the
    # end nodes off the nominal box to make its width exactly `width`.
    n = int(round(width / step)) - 1
    return Grid1D(-width / 2 + step, -width / 2 + n * step, n)


def count_sign_changes(psi):
    significant = psi[np.abs(psi) > 1e-7 * np.max(np.abs(psi))]
    signs = np.sign(significant)
    return int(np.sum(signs[1:] != signs[:-1]))


def sampled(runs):
    """The node array of a potential given as (value, nodes) runs."""
    values, lengths = zip(*runs)
    return np.repeat(values, lengths)


class TestBuildPotential:
    def test_zero_depths_give_zero_potential(self):
        spec = DoubleWellSpec(4.5, 7.0, 0.0, 0.0)
        grid, runs = build_potential(spec)
        assert runs == [(0.0, grid.n_points)]

    def test_default_wells_shape(self):
        grid, runs = build_potential(DEFAULT_WELL)
        # 20 nm of padding, 4.5 nm wells and exactly L = 7 nm of barrier
        # between them, in 0.01 nm cells
        assert runs == [
            (0.0, 2000), (-239.0, 450), (0.0, 700), (-203.0, 450),
            (0.0, 2000)]
        assert grid.n_points == 5600

    def test_symmetric_depths_even_about_midpoint(self):
        spec = DoubleWellSpec(4.5, 7.0, 239.0, 239.0)
        _, runs = build_potential(spec)
        # mirror symmetry about the barrier midpoint reverses the runs
        assert runs == runs[::-1]

    def test_zero_node_barrier_merges_equal_wells(self):
        # a barrier thinner than one cell holds no node, so equal wells
        # make one run and a depth-0 second well joins the padding
        spec = DoubleWellSpec(4.5, 0.004, 239.0, 239.0)
        assert build_potential(spec)[1] == [(0.0, 2000), (-239.0, 900),
                                            (0.0, 2000)]
        spec = DoubleWellSpec(4.5, 0.004, 239.0, 0.0)
        assert build_potential(spec)[1] == [(0.0, 2000), (-239.0, 450),
                                            (0.0, 2450)]

    @pytest.mark.parametrize("seed", range(4))
    def test_runs_match_node_sampling_off_the_lattice(self, seed):
        # random H, L, step and padding put the edges anywhere between
        # the nodes; the first case is an off-lattice pair of equal wells,
        # the second a well edge on a node whose linspace position lies
        # 4e-15 nm below it
        rng = np.random.default_rng(seed)
        cases = [(5.17, 32.43, 0.0137, 20.0, 239.0, 239.0),
                 (4.875, 50.0, 0.01, 20.0, 203.0, 0.0)] + [
            (rng.uniform(1.0, 8.0), rng.uniform(0.001, 40.0),
             rng.uniform(0.004, 0.03), rng.uniform(15.0, 25.0),
             rng.choice([0.0, 203.0, 239.0]),
             rng.choice([0.0, 203.0, 239.0]))
            for _ in range(100)]
        for width, barrier, step, padding, depth1, depth2 in cases:
            spec = DoubleWellSpec(float(width), float(barrier),
                                  float(depth1), float(depth2))
            grid, runs = build_potential(spec, SolverOptions(
                grid_step=float(step), padding=float(padding)))
            assert all(m >= 1 for _, m in runs)
            assert all(a != b for (a, _), (b, _) in zip(runs, runs[1:]))
            assert np.array_equal(sampled(runs),
                                  oracles.sampled_wells(spec, grid))
            # well 2 [lo, hi) holds its own nodes too, save one on an edge
            offsets = [(z - grid.z_min) / grid.step
                       for z in spec.well2_support]
            if all(abs(x - round(x)) > 1e-9 for x in offsets):
                mask = oracles.well_masks(spec, grid)[1]
                assert np.array_equal(sampled(runs)[mask],
                                      np.full(mask.sum(), -spec.depth2))

    @settings(deadline=None, max_examples=200)
    @given(width=st.floats(1.0, 8.0), barrier=st.floats(0.001, 40.0),
           step=st.floats(0.004, 0.03), padding=st.floats(15.0, 25.0),
           depth=st.sampled_from([203.0, 239.0]))
    @example(width=5.17, barrier=32.43, step=0.0137, padding=20.0,
             depth=239.0)
    # nodes on well edges: a [lo, hi) rule for each well would give each
    # to its right-hand side, which no mirror keeps
    @example(width=1.0, barrier=1.0, step=1 / 64, padding=15.0234375,
             depth=239.0)
    @example(width=4.875, barrier=50.0, step=0.01, padding=20.0,
             depth=239.0)
    def test_equal_wells_give_palindromic_runs(self, width, barrier, step,
                                               padding, depth):
        # the grid is centred on the barrier midpoint and well 2 is well
        # 1's mirror image, so equal wells are mirror images off the
        # lattice too
        spec = DoubleWellSpec(width, barrier, depth, depth)
        grid, runs = build_potential(spec, SolverOptions(grid_step=step,
                                                         padding=padding))
        assert grid.z_min == -grid.z_max
        assert runs == runs[::-1]

    @settings(deadline=None, max_examples=200)
    @given(width=st.floats(0.001, 8.0), barrier=st.floats(1e-6, 40.0),
           step=st.floats(0.004, 0.03), padding=st.floats(15.0, 25.0),
           depths=st.tuples(st.sampled_from([0.0, 203.0, 239.0]),
                            st.sampled_from([0.0, 203.0, 239.0])))
    @example(width=4.875, barrier=50.0, step=0.01, padding=20.0,
             depths=(239.0, 203.0))
    def test_swapped_depths_reverse_the_runs(self, width, barrier, step,
                                             padding, depths):
        # off the lattice too, wells and barrier thinner than a cell
        # included: the wells hold equally many nodes, which the mirror
        # swaps
        options = SolverOptions(grid_step=step, padding=padding)
        grid, runs = build_potential(DoubleWellSpec(width, barrier,
                                                    *depths), options)
        _, swapped = build_potential(DoubleWellSpec(width, barrier,
                                                    *depths[::-1]), options)
        assert sum(m for _, m in runs) == grid.n_points
        assert all(m >= 1 for _, m in runs)
        assert swapped == runs[::-1]


class TestOptionsReachTheGrid:
    OPTIONS = SolverOptions(grid_step=0.02, padding=25.0)

    def test_build_potential_honours_step_and_padding(self):
        grid, _ = build_potential(DEFAULT_WELL, self.OPTIONS)
        assert grid.step == pytest.approx(0.02, rel=1e-12)
        # the cells around the nodes span the wells plus 25 nm each side
        assert grid.z_min - grid.step / 2 == pytest.approx(
            DEFAULT_WELL.well1_support[0] - 25.0, abs=1e-9)
        assert grid.z_max + grid.step / 2 == pytest.approx(
            DEFAULT_WELL.well2_support[1] + 25.0, abs=1e-9)

    @pytest.mark.parametrize("cap", [2, 3, 4])
    def test_solve_double_well_honours_every_option(self, cap):
        # this deep wide well binds 4 states, so the cap decides the count
        spec = DoubleWellSpec(6.0, 4.0, 600.0, 600.0)
        options = SolverOptions(grid_step=0.02, padding=25.0,
                                vertical_cap=cap)
        spectrum = solve_double_well(spec, ELECTRON, options)
        grid, runs = build_potential(spec, options)
        assert spectrum.grid == grid
        assert len(spectrum.energies) == cap
        expected = solve_vertical(runs, grid, ELECTRON, 4).energies[:cap]
        assert spectrum.energies.tobytes() == expected.tobytes()


class TestSolveVertical:
    @pytest.mark.parametrize("width,n", [(10.0, 1), (10.0, 2), (10.0, 3),
                                         (8.0, 1)])
    def test_particle_in_a_box(self, width, n):
        # a uniform floor -v0 binds exactly the box's lowest n levels
        grid = box_grid(width, step=0.01)
        species = ParticleSpecies("electron", 1.0, 30.0, -1)
        v0 = oracles.box_floor(grid.n_points, kinetic_coefficient(species)
                               / grid.step ** 2, n)
        spectrum = solve_vertical([(-v0, grid.n_points)], grid, species,
                                  n_states=n + 1)
        assert len(spectrum.energies) == n
        exact = oracles.box_energies(width, 1.0, n)
        assert spectrum.energies[n - 1] + v0 == pytest.approx(exact[n - 1],
                                                              rel=1e-3)

    @pytest.mark.parametrize("depth,mass", [(239.0, 0.03), (203.0, 0.03),
                                            (119.5, 0.06), (101.5, 0.06)])
    def test_single_finite_well_against_transcendental_root(self, depth, mass):
        # single well realized as a double well whose second depth is zero
        spec = DoubleWellSpec(4.5, 10.0, depth, 0.0)
        species = ParticleSpecies("x", mass, 30.0, -1)
        spectrum = solve_double_well(spec, species)
        oracle = oracles.finite_well_levels(depth, 4.5, mass)[0]
        assert spectrum.energies[0] == pytest.approx(oracle, abs=0.05)

    def test_symmetric_double_well_splitting_shrinks_with_l(self):
        gaps = []
        for barrier in (5.0, 8.0, 11.0, 14.0):
            spec = DoubleWellSpec(4.5, barrier, 239.0, 239.0)
            spectrum = solve_double_well(spec, ELECTRON, TWO_STATES)
            psi0 = spectrum.wavefunctions[:, 0]
            psi1 = spectrum.wavefunctions[:, 1]
            # bonding even, antibonding odd about the barrier midpoint
            np.testing.assert_allclose(psi0, psi0[::-1], atol=1e-5)
            np.testing.assert_allclose(psi1, -psi1[::-1], atol=1e-5)
            gaps.append(spectrum.energies[1] - spectrum.energies[0])
        assert all(g > 0 for g in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    @pytest.mark.parametrize("barrier_l", [2.5, 7.0, 15.0])
    @pytest.mark.parametrize("species", [ELECTRON, HOLE])
    def test_default_cap_solves_only_bound_states(self, barrier_l, species):
        # vertical_cap = 4 allows 4 states, but the device binds only 2
        options = SolverOptions()
        assert options.vertical_cap == 4
        spectrum = vertical_spectrum(default_device(barrier_l), species,
                                     options)
        assert len(spectrum.energies) == 2
        assert np.all(spectrum.energies < 0)

    def test_no_bound_state(self):
        spec = DoubleWellSpec(4.5, 7.0, 0.0, 0.0)
        grid, runs = build_potential(spec)
        with pytest.raises(NoBoundStateError):
            solve_vertical(runs, grid, ELECTRON, 4)

    def test_orthonormality_and_node_counts(self):
        spectrum = solve_double_well(DEFAULT_WELL, ELECTRON, TWO_STATES)
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
        e_default = solve_double_well(DEFAULT_WELL, ELECTRON).energies
        e_half = solve_double_well(DEFAULT_WELL, ELECTRON,
                                   SolverOptions(grid_step=0.005)).energies
        assert np.max(np.abs(e_default[:2] - e_half[:2])) < 0.01

    def test_variational_bound_in_domain_size(self):
        # shallow well leaks far into the barrier, making the Dirichlet
        # truncation visible; enlarging the domain must lower the energy
        spec = DoubleWellSpec(4.5, 7.0, 30.0, 30.0)
        energies = [solve_double_well(spec, ELECTRON,
                                      SolverOptions(padding=p)).energies[0]
                    for p in (15.0, 20.0, 30.0, 45.0)]
        assert all(a > b for a, b in zip(energies, energies[1:]))

    def test_log_splitting_nearly_linear_in_l(self):
        barriers = np.arange(5.0, 15.5, 1.0)
        logs = []
        for barrier in barriers:
            spec = DoubleWellSpec(4.5, barrier, 239.0, 239.0)
            spectrum = solve_double_well(spec, ELECTRON, TWO_STATES)
            logs.append(np.log(spectrum.energies[1] - spectrum.energies[0]))
        d1 = np.diff(logs)
        d2 = np.diff(d1)
        assert np.all(d1 < 0)
        assert np.max(np.abs(d2)) < 0.02 * np.abs(np.mean(d1))


class TestParity:
    """Swapping the depths mirrors the double well about the barrier
    midpoint, which leaves the spectrum unchanged."""

    @settings(deadline=None, max_examples=40)
    @given(width_cells=st.integers(50, 800),
           barrier_cells=st.integers(1, 3000),
           step=st.sampled_from([0.005, 0.01, 0.02]),
           padding=st.sampled_from([15.0, 20.0, 23.3]),
           depths=st.tuples(st.floats(0.0, 600.0), st.floats(0.0, 600.0)),
           species=st.sampled_from([ELECTRON, HOLE]))
    # a bonding/antibonding pair within one float of each other: the root
    # loop once divided by 0 deflating the pair's second root by its first
    @example(width_cells=325, barrier_cells=1894, step=0.02, padding=15.0,
             depths=(577.0, 577.0), species=HOLE)
    def test_swapped_depths_reverse_the_runs_on_the_lattice(
            self, width_cells, barrier_cells, step, padding, depths, species):
        # H, L and the padding are whole numbers of cells: the lattice
        options = SolverOptions(grid_step=step, padding=padding)
        spec = DoubleWellSpec(width_cells * step, barrier_cells * step,
                              *depths)
        mirror = DoubleWellSpec(spec.width_h, spec.barrier_l, depths[1],
                                depths[0])
        grid, runs = build_potential(spec, options)
        mirror_grid, mirrored = build_potential(mirror, options)
        assert mirror_grid == grid
        assert mirrored == runs[::-1]
        # a floor -v0 under both binds at least 4 levels, shallow wells too
        c_h2 = kinetic_coefficient(species) / grid.step ** 2
        v0 = oracles.box_floor(grid.n_points, c_h2, 4)
        energies, swapped = (
            solve_vertical([(value - v0, m) for value, m in r], grid,
                           species, 4).energies
            for r in (runs, mirrored))
        # both lie within the solver's bisection bracket of the same roots
        bracket = 2 * np.finfo(float).eps * max(c_h2, v0 + max(depths))
        assert len(energies) == len(swapped) == 4
        assert np.max(np.abs(energies - swapped)) <= bracket


class TestClassification:
    def test_symmetric_labels(self):
        spec = DoubleWellSpec(4.5, 7.0, 239.0, 239.0)
        spectrum = solve_double_well(spec, ELECTRON, TWO_STATES)
        assert spectrum.labels[:2] == ("B", "A")

    def test_weak_coupling_localization(self):
        spec = DoubleWellSpec(4.5, 9.5, 239.0, 203.0)
        spectrum = solve_double_well(spec, ELECTRON, TWO_STATES)
        w = oracles.localization(spectrum, spec)
        # these barely-bound states keep ~1/3 of their weight in the
        # evanescent tails, so dominance is a ratio over the well weights
        assert w[0, 0] / (w[0, 0] + w[0, 1]) > 0.9  # ground: deep dot
        assert w[1, 1] / (w[1, 0] + w[1, 1]) > 0.9  # excited: shallow dot
        # oracle: integrate |psi|^2 over the deep well directly
        h = spectrum.grid.step
        z = oracles.nodes(spectrum.grid)
        psi0 = spectrum.wavefunctions[:, 0]
        mask = (z > -9.5 / 2 - 4.5) & (z < -9.5 / 2)
        assert w[0, 0] == pytest.approx(np.sum(psi0[mask] ** 2) * h, abs=1e-9)

    def test_hybridization_grows_as_l_shrinks(self):
        far = DoubleWellSpec(4.5, 9.5, 239.0, 203.0)
        near = DoubleWellSpec(4.5, 3.0, 239.0, 203.0)
        w_far = oracles.localization(solve_double_well(far, ELECTRON), far)
        w_near = oracles.localization(solve_double_well(near, ELECTRON), near)
        assert w_near[0, 1] > w_far[0, 1]

    def test_weights_bounded_by_one(self):
        spectrum = solve_double_well(DEFAULT_WELL, ELECTRON, TWO_STATES)
        total = oracles.localization(spectrum, DEFAULT_WELL).sum(axis=1)
        assert np.all(total <= 1.0 + 1e-12)
        # deficit is the weight living in the barrier and padding
        h = spectrum.grid.step
        z = oracles.nodes(spectrum.grid)
        psi0 = spectrum.wavefunctions[:, 0]
        in_wells = ((z > -3.5 - 4.5) & (z <= -3.5)) | ((z >= 3.5) & (z < 8.0))
        rest = np.sum(psi0[~in_wells] ** 2) * h
        assert total[0] + rest == pytest.approx(1.0, abs=1e-9)


class TestDzMatrix:
    def test_antisymmetric_with_zero_diagonal(self):
        spectrum = solve_double_well(DEFAULT_WELL, ELECTRON, TWO_STATES)
        d = dz_matrix(spectrum)
        assert d[0, 0] == 0.0 and d[1, 1] == 0.0
        assert np.array_equal(d, -d.T)
        # raw integrals are antisymmetric before symmetrization too
        h = spectrum.grid.step
        psi = spectrum.wavefunctions
        dpsi = np.gradient(psi, h, axis=0)
        raw01 = np.trapezoid(psi[:, 0] * dpsi[:, 1], dx=h)
        raw10 = np.trapezoid(psi[:, 1] * dpsi[:, 0], dx=h)
        assert raw01 + raw10 == pytest.approx(0.0, abs=1e-8)

    def test_parity_selection_rule(self):
        # deep wide symmetric well holds two states per dot; states of
        # equal parity are not connected by d/dz
        spec = DoubleWellSpec(6.0, 4.0, 600.0, 600.0)
        spectrum = solve_double_well(spec, ELECTRON)
        assert len(spectrum.energies) == 4
        d = dz_matrix(spectrum)
        assert abs(d[0, 1]) > 1e-3
        assert abs(d[0, 2]) < 1e-8
        assert abs(d[1, 3]) < 1e-8

    def test_commutator_identity(self):
        # [H, z] relates <0|dz|1> to (E1 - E0) <0|z|1> / (2 hbar^2/2m)
        spectrum = solve_double_well(DEFAULT_WELL, ELECTRON, TWO_STATES)
        d = dz_matrix(spectrum)
        h = spectrum.grid.step
        z = oracles.nodes(spectrum.grid)
        psi = spectrum.wavefunctions
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

    @settings(deadline=None, max_examples=25)
    @given(steps=st.integers(250, 1500), species=st.sampled_from([ELECTRON,
                                                                  HOLE]))
    def test_matches_gradient_trapezoid_reference(self, steps, species):
        # the one-product sums against np.gradient and the trapezoid rule,
        # which differ only at the end nodes, where psi has decayed
        device = default_device(steps * 0.01)  # L on the 0.01 nm grid
        spectrum = vertical_spectrum(device, species)
        d, ref = dz_matrix(spectrum), oracles.dz_reference(spectrum)
        assert np.abs(d - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_one_state_gives_the_1x1_zero(self):
        spec = DoubleWellSpec(4.5, 10.0, 239.0, 0.0)
        grid, runs = build_potential(spec)
        spectrum = solve_vertical(runs, grid, ELECTRON, 1)
        d = dz_matrix(spectrum)
        assert d.shape == (1, 1) and d[0, 0] == 0.0


def lattice_wells():
    """The default device's wells at lattice distances across 2.5-15 nm."""
    for barrier_l in np.round(np.linspace(2.5, 15.0, 6), 2):
        yield DoubleWellSpec(4.5, float(barrier_l), 239.0, 203.0), ELECTRON
        yield DoubleWellSpec(4.5, float(barrier_l), 119.5, 101.5), HOLE


def fd_matrix(potential, species, step):
    """Diagonal and off-diagonal of the FD matrix of a sampled potential."""
    c_h2 = kinetic_coefficient(species) / step ** 2
    return 2.0 * c_h2 + potential, np.full(len(potential) - 1, -c_h2)


def tridiagonal(spec, species):
    """Diagonal, off-diagonal, grid and runs of the FD problem for a
    well."""
    grid, runs = build_potential(spec)
    return (*fd_matrix(sampled(runs), species, grid.step), grid, runs)


def certificate_tolerance(diag, off):
    """epsilon = 4 eps ||T||_1 of the tridiagonal matrix (diag, off)."""
    column = np.abs(diag) + np.pad(np.abs(off), (1, 0)) \
        + np.pad(np.abs(off), (0, 1))
    return 4 * np.finfo(float).eps * float(column.max())


def signed_unit_columns(vectors, step):
    """Columns scaled to unit L2 norm on the grid, largest lobe positive."""
    vectors = vectors / np.sqrt(step)
    for j in range(vectors.shape[1]):
        i = int(np.argmax(np.abs(vectors[:, j])))
        if vectors[i, j] < 0:
            vectors[:, j] = -vectors[:, j]
    return vectors


class TestEigenvectorsOnDemand:
    @pytest.mark.parametrize("spec,species", list(lattice_wells()))
    def test_matches_eigh_tridiagonal_bitwise(self, spec, species):
        """Energies are certified against eigh_tridiagonal by Sturm counts
        and within eps; the vectors built from the runs agree with LAPACK
        stein's inverse iteration at those energies, and with
        eigh_tridiagonal's own vectors."""
        diag, off, grid, runs = tridiagonal(spec, species)
        eps = certificate_tolerance(diag, off)
        spectrum = solve_double_well(spec, species)
        energies = spectrum.energies
        # the default device binds 2 states per carrier at every L
        assert len(energies) == 2
        assert oracles.sturm_count(diag, off, 0.0) == 2
        for i, energy in enumerate(energies):
            # exactly i eigenvalues below E_i - eps and i + 1 below E_i + eps
            assert oracles.sturm_count(diag, off, energy - eps) == i
            assert oracles.sturm_count(diag, off, energy + eps) == i + 1
        reference, vectors = eigh_tridiagonal(
            diag, off, select="i", select_range=(0, len(energies) - 1))
        assert np.max(np.abs(energies - reference)) <= eps
        stein = oracles.stein_vectors(runs, grid, species, energies)
        assert np.all(unit_overlaps(spectrum.wavefunctions, stein, grid)
                      >= 1 - 1e-12)
        dz, stein_dz = dz_matrix(spectrum), dz_of(spectrum, stein)
        assert np.abs(dz - stein_dz).max() <= 1e-10 * np.abs(dz).max()
        # same normalization and sign convention; overlaps of unit vectors
        assert np.all(unit_overlaps(spectrum.wavefunctions,
                                    signed_unit_columns(vectors, grid.step),
                                    grid) >= 1 - 1e-12)

    def test_vectors_computed_once_without_second_bisection(self,
                                                             monkeypatch):
        calls = collections.Counter()

        def counted(name):
            func = getattr(vertical, name)

            def call(*args):
                calls[name] += 1
                return func(*args)
            return call

        for name in ("_lowest_eigenvalues", "_shoot", "_eigenvector"):
            monkeypatch.setattr(vertical, name, counted(name))
        spectrum = solve_double_well(DEFAULT_WELL, ELECTRON)
        solved = dict(calls)
        # one energy solve, which counts its shoots, and no vector
        assert solved["_lowest_eigenvalues"] == 1
        assert spectrum.shoots == solved["_shoot"]
        assert "_eigenvector" not in solved
        oracles.localization(spectrum, DEFAULT_WELL)
        spectrum.wavefunctions
        dz_matrix(spectrum)
        # every read after the first reuses one vector per state, built
        # from two marches of _shoot, and no read solves for energies again
        k = len(spectrum.energies)
        assert calls["_lowest_eigenvalues"] == 1
        assert calls == {**solved, "_eigenvector": k,
                         "_shoot": solved["_shoot"] + 2 * k}

    @pytest.mark.parametrize("species", [ELECTRON, HOLE], ids=["e", "h"])
    @pytest.mark.parametrize("barrier_l, shots", [(2.5, 17), (7.0, 16),
                                                  (15.0, 15)],
                             ids=["2.5", "7.0", "15.0"])
    def test_shoot_count_of_a_default_solve(self, species, barrier_l,
                                            shots):
        # pinned: a change to the root loop states its new count here
        spectrum = vertical_spectrum(default_device(barrier_l), species)
        assert len(spectrum.energies) == 2
        assert spectrum.shoots == shots

    def test_shoot_count_of_a_calibration_solve(self, monkeypatch):
        # pinned: the one-root solve of each depth calibrate_depths tries
        solved = []
        solve = fitting.solve_vertical

        def spy(*args, **kwargs):
            solved.append(solve(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(fitting, "solve_vertical", spy)
        fitting.single_well_ground(239.0, 4.5, 50.0, ELECTRON)
        [spectrum] = solved
        assert len(spectrum.energies) == 1
        assert spectrum.shoots == 12

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                        reason="np.longdouble is no wider than a double")
    @pytest.mark.parametrize("species", [ELECTRON, HOLE], ids=["e", "h"])
    @pytest.mark.parametrize("barrier_l", [2.5, 7.0, 15.0])
    def test_levels_match_an_80_bit_multisection(self, species, barrier_l):
        spectrum = vertical_spectrum(default_device(barrier_l), species)
        reference = oracles.extended_eigenvalues(
            spectrum.runs, spectrum.c_h2, len(spectrum.energies))
        assert np.max(np.abs(spectrum.energies - reference)) <= 5e-12


def unit_overlaps(psi, reference, grid):
    """Per column the overlap of two sets of grid-normalized states."""
    return np.sum(psi * reference, axis=0) * grid.step


def dz_of(spectrum, wavefunctions):
    """dz_matrix of the spectrum's states with these wavefunctions."""
    copy = replace(spectrum)
    copy.wavefunctions = wavefunctions
    return dz_matrix(copy)


DEPTHS = st.one_of(st.just(0.0), st.just(400.0), st.floats(0.0, 400.0))


class TestRunWiseVectors:
    """The eigenvectors built from the runs, over drawn wells: against
    the FD matrix itself and against LAPACK stein (oracles.stein_vectors)."""

    @settings(deadline=None, max_examples=60)
    @given(width=st.one_of(st.sampled_from([2.0, 4.5, 9.0]),
                           st.floats(2.0, 9.0)),
           barrier=st.one_of(st.sampled_from([1.0, 7.0, 30.0]),
                             st.floats(1.0, 30.0)),
           depth1=DEPTHS, depth2=st.one_of(st.none(), DEPTHS),
           step=st.one_of(st.sampled_from([0.0025, 0.01, 0.02]),
                          st.floats(0.0025, 0.02)),
           species=st.sampled_from([ELECTRON, HOLE]),
           n_states=st.integers(1, 4))
    # wells 1e-9 meV apart at 30 nm: levels 6e-8 meV apart, which share
    # their vectors' rounding
    @example(width=6.0, barrier=30.0, depth1=400.0, depth2=400.0 - 1e-9,
             step=0.01, species=HOLE, n_states=2)
    # deep wells 25 nm apart: joined in the other well, the ground state
    # would leave a residual of 5e-11 max|T|
    @example(width=9.0, barrier=25.0, depth1=400.0, depth2=380.0,
             step=0.005, species=HOLE, n_states=4)
    # equal deep hole wells 21 nm apart on 19,467 nodes, levels 4.4e-4 meV
    # apart: the vectors start each run from _shoot's psi_s - psi_{s-1},
    # which rounds where psi changes slowly
    @example(width=3.899743227202217, barrier=20.867262684970946,
             depth1=379.3118487216122, depth2=None, step=0.0025,
             species=HOLE, n_states=2)
    def test_solve_the_fd_matrix_as_stein_does(self, width, barrier, depth1,
                                               depth2, step, species,
                                               n_states):
        # depth2 None draws equal wells
        spec = DoubleWellSpec(width, barrier, depth1,
                              depth1 if depth2 is None else depth2)
        grid, runs = build_potential(spec, SolverOptions(grid_step=step))
        diag, off = fd_matrix(sampled(runs), species, grid.step)
        # a bound ground state, not one on the E = 0 edge
        assume(lowest_eigh(diag, off, 1)[0] < -certificate_tolerance(diag,
                                                                      off))
        spectrum = solve_vertical(runs, grid, species, n_states)
        k = len(spectrum.energies)
        psi = spectrum.wavefunctions * np.sqrt(grid.step)
        # orthonormal eigenpairs of T = diag + off: a vector joined at j
        # leaves a residual of the energy's error, within the solver's
        # 2 eps c/h^2 bracket, over its |psi_j| >= n^-1/2
        t_psi = diag[:, None] * psi
        t_psi[:-1] += off[:, None] * psi[1:]
        t_psi[1:] += off[:, None] * psi[:-1]
        assert np.abs(t_psi - psi * spectrum.energies).max() <= (
            1e-13 * np.abs(diag).max())
        assert np.abs(psi.T @ psi - np.eye(k)).max() <= 1e-12
        # stein works on the rounded diagonal: each of its vectors is
        # trusted to that rounding over the gap to the nearest level, and
        # to nothing where that reaches 1 (a gap that rounds to 0 included)
        levels = lowest_eigh(diag, off, k + 1)
        gaps = np.diff(levels)
        gaps = np.minimum(gaps[:k], np.r_[np.inf, gaps[:k - 1]])
        with np.errstate(divide="ignore"):
            slack = 4 * np.finfo(float).eps * np.abs(diag).max() / gaps
        kept = slack < 1.0
        stein = oracles.stein_vectors(runs, grid, species, spectrum.energies)
        overlaps = unit_overlaps(spectrum.wavefunctions, stein, grid)
        assert np.all(np.abs(overlaps[kept]) >= 1 - 1e-12 - slack[kept] ** 2)
        # equal wells leave the overall sign of a state to rounding
        signs = np.sign(overlaps)
        dz = dz_matrix(spectrum)
        stein_dz = dz_of(spectrum, stein) * np.outer(signs, signs)
        assert np.all(np.abs(dz - stein_dz)[np.ix_(kept, kept)] <= (
            (1e-10 + slack[kept].max(initial=0.0)) * np.abs(dz).max()))

    @settings(deadline=None, max_examples=200)
    @given(runs=st.lists(st.tuples(
        st.one_of(st.sampled_from([0.0, -1e-12, 1e-12]),
                  st.floats(-1.0, 1.0)),
        st.integers(1, 12)), min_size=1, max_size=6))
    # a subnormal delta rounds theta to 0: a "line", not a division by
    # sin(0)
    @example(runs=[(5e-324, 1)])
    def test_run_forms_follow_the_recurrence(self, runs):
        # every form, "line" at delta = 0 included, against the recurrence
        # psi_{j+1} = 2(1 + delta_j) psi_j - psi_{j-1} in exact arithmetic
        psi = [Fraction(0), Fraction(1)]
        for delta, m in runs:
            for _ in range(m):
                psi.append(2 * (1 + Fraction(delta)) * psi[-1] - psi[-2])
        exact = np.array([float(value) for value in psi[1:-1]])
        # at E = 0 and c/h^2 = 1/2 each run's value is its delta; the
        # forms leave the count, mantissa and log_scale as they were
        forms = []
        assert vertical._shoot(0.0, runs, 0.5, forms) == vertical._shoot(
            0.0, runs, 0.5)
        top = max(form.log_scale for form in forms)
        closed = np.concatenate([
            vertical._nodes(form, np.arange(m + 1.0),
                            math.exp(form.log_scale - top))[:-1]
            for form, (_, m) in zip(forms, runs)])
        assert np.abs(closed / np.abs(closed).max()
                      - exact / np.abs(exact).max()).max() <= 1e-12

    @settings(deadline=None, max_examples=40)
    @given(width=st.floats(6.0, 9.0), barrier=st.floats(1.0, 30.0),
           depth=st.floats(250.0, 400.0),
           step=st.one_of(st.sampled_from([0.0025, 0.005, 0.01]),
                          st.floats(0.0025, 0.02)),
           species=st.sampled_from([ELECTRON, HOLE]))
    @example(width=9.0, barrier=7.0, depth=400.0, step=0.0025,
             species=ELECTRON)
    def test_equal_wells_forbid_same_parity_dz(self, width, barrier, depth,
                                               step, species):
        # mirror-symmetric runs give states of alternating parity, and
        # d/dz, odd under the mirror, joins only opposite ones
        spec = DoubleWellSpec(width, barrier, depth, depth)
        grid, runs = build_potential(spec, SolverOptions(grid_step=step))
        spectrum = solve_vertical(runs, grid, species, 4)
        k = len(spectrum.energies)
        assume(k >= 3)
        dz = np.abs(dz_matrix(spectrum))
        same = (np.arange(k) % 2)[:, None] == np.arange(k) % 2
        assert dz[same].max() <= 1e-12 * dz.max()


SPECIES = st.sampled_from([ELECTRON, HOLE])


def lowest_eigh(diag, off, n_states):
    """eigh_tridiagonal's lowest min(n_states, n - 1) eigenvalues."""
    k = min(n_states, len(diag) - 1)
    return eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                            select_range=(0, k - 1))


def assert_matches_eigh(potential, grid, species, n_states):
    """solve_vertical and eigh_tridiagonal agree on the count and order of
    the bound states, and on each energy within eps; a potential
    with none raises NoBoundStateError with the ground energy."""
    diag, off = fd_matrix(potential, species, grid.step)
    eps = certificate_tolerance(diag, off)
    reference = lowest_eigh(diag, off, n_states)
    assume(np.all(np.abs(reference) > eps))  # no level on the E = 0 edge
    bound = reference[reference < 0]
    if not len(bound):
        with pytest.raises(NoBoundStateError,
                           match=r"^ground state energy -?\d+\.\d{3} meV "
                                 r"is not bound$") as caught:
            solve_vertical(oracles.diff_runs(potential), grid, species,
                           n_states=n_states)
        assert caught.value.exit_code == 3
        ground = float(str(caught.value).split()[3])
        assert abs(ground - reference[0]) <= 5e-4 + eps
        return
    spectrum = solve_vertical(oracles.diff_runs(potential), grid, species,
                              n_states=n_states)
    assert len(spectrum.energies) == len(bound)
    assert np.all(np.diff(spectrum.energies) > 0)
    assert np.max(np.abs(spectrum.energies - bound)) <= eps


class TestRunEncoding:
    """oracles.diff_runs, which turns the arrays these tests build into the
    runs solve_vertical takes, gives back every node of the array."""

    @staticmethod
    def assert_same_runs(potential):
        runs = oracles.diff_runs(potential)
        assert all(type(value) is float and type(m) is int and m >= 1
                   for value, m in runs)
        assert all(a != b for (a, _), (b, _) in zip(runs, runs[1:]))
        assert np.array_equal(sampled(runs), potential)
        return runs

    @pytest.mark.parametrize("potential, count", [
        ([-5.0] * 7, 1),  # constant
        ([2.0], 1),
        ([0.0, -1.0, 0.0, -1.0, 0.0], 5),  # every run of length 1
        ([-3.0, 0.0, 0.0, 0.0, -2.0], 3),  # length-1 runs at both ends
        ([0.0, -0.0, -239.0, -239.0, 0.0], 3),
        # neighbours whose np.diff overflows to -inf
        ([1.7976931348623155e308, -2.9937604643020797e292], 2)])
    def test_edge_cases(self, potential, count):
        assert len(self.assert_same_runs(np.array(potential))) == count

    @settings(deadline=None, max_examples=300)
    @given(runs=st.lists(
        st.tuples(st.one_of(st.sampled_from([0.0, -0.0, -203.0, -239.0]),
                            st.floats(allow_nan=False, allow_infinity=False)),
                  st.one_of(st.just(1), st.integers(1, 40))),
        min_size=1, max_size=12))
    def test_random_potentials(self, runs):
        # no infinities: solve_vertical rejects them, and np.diff splits
        # two equal infinite nodes (inf - inf is nan)
        self.assert_same_runs(
            np.concatenate([np.full(m, value) for value, m in runs]))


class TestTransferMatrixEigenvalues:
    """The O(runs) eigenvalues against LAPACK's O(n) eigh_tridiagonal."""

    @settings(deadline=None, max_examples=60)
    @given(runs=st.lists(
               st.tuples(st.one_of(st.just(1), st.integers(1, 600)),
                         st.one_of(st.just(0.0), st.just(600.0),
                                   st.floats(0.0, 600.0))),
               min_size=1, max_size=9),
           species=SPECIES, n_states=st.integers(1, 6))
    def test_random_piecewise_constant_potentials(self, runs, species,
                                                  n_states):
        potential = np.concatenate([np.full(m, -depth) for m, depth in runs])
        assume(len(potential) >= 3)
        step = 0.01
        grid = Grid1D(0.0, (len(potential) - 1) * step, len(potential))
        assert_matches_eigh(potential, grid, species, n_states)

    @settings(deadline=None, max_examples=30)
    @given(barrier=st.floats(2.5, 30.0), depth=st.floats(50.0, 600.0),
           species=SPECIES)
    # hole levels about 1e-9 meV apart, inside the 2 eps c/h^2 bracket
    # that polishes an isolated root: bisected apart, not given twice
    @example(barrier=30.0, depth=598.0, species=HOLE)
    def test_symmetric_double_wells(self, barrier, depth, species):
        # at large L the bonding/antibonding pair is closer than any scan
        spec = DoubleWellSpec(4.5, barrier, depth, depth)
        grid, runs = build_potential(spec)
        assert_matches_eigh(sampled(runs), grid, species, 4)

    @settings(deadline=None, max_examples=30)
    @given(n=st.integers(3, 3000), n_states=st.integers(1, 6),
           species=SPECIES)
    def test_floored_boxes(self, n, n_states, species):
        # a uniform floor -v0 between the k-th and (k + 1)-th FD box levels
        # binds exactly the lowest k, each shifted down by v0
        step = 0.01
        grid = Grid1D(0.0, (n - 1) * step, n)
        c_h2 = kinetic_coefficient(species) / step ** 2
        k = min(n_states, n - 1)
        v0 = oracles.box_floor(n, c_h2, k)
        spectrum = solve_vertical([(-v0, n)], grid, species,
                                  n_states=n_states)
        diag, off = fd_matrix(np.full(n, -v0), species, step)
        eps = certificate_tolerance(diag, off)
        assert len(spectrum.energies) == k
        assert np.max(np.abs(spectrum.energies
                             - lowest_eigh(diag, off, n_states))) <= eps
        assert np.max(np.abs(spectrum.energies + v0
                             - oracles.fd_box_levels(n, c_h2, k))) <= eps
