import collections

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dstein

import oracles
from dqdsim import (ELECTRON, HOLE, ParticleSpecies, SolverOptions,
                    default_device, vertical)
from dqdsim.core import kinetic_coefficient
from dqdsim.errors import DomainTooSmallError, NoBoundStateError
from dqdsim.spectroscopy import vertical_spectrum
from dqdsim.vertical import (DoubleWellSpec, Grid1D, build_potential,
                             dz_matrix, grid_for_wells, solve_double_well,
                             solve_vertical)

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
        # SolverOptions rejects a padding below MIN_PADDING, so a hand-made
        # grid with 10 nm of barrier outside each well reaches the check
        step, padding = 0.01, 10.0
        z_min = DEFAULT_WELL.well1_support[0] - padding + step / 2
        n = int(round((9.0 + 7.0 + 2 * padding) / step))
        grid = Grid1D(z_min, z_min + (n - 1) * step, n)
        with pytest.raises(DomainTooSmallError):
            build_potential(DEFAULT_WELL, grid)


class TestOptionsReachTheGrid:
    OPTIONS = SolverOptions(grid_step=0.02, padding=25.0)

    def test_grid_for_wells_honours_step_and_padding(self):
        grid = grid_for_wells(DEFAULT_WELL, self.OPTIONS)
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
        assert spectrum.grid == grid_for_wells(spec, options)
        assert len(spectrum.energies) == spectrum.n_bound == cap
        grid = spectrum.grid
        expected = solve_vertical(build_potential(spec, grid), grid,
                                  ELECTRON, 4).energies[:cap]
        assert spectrum.energies.tobytes() == expected.tobytes()


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
        assert len(spectrum.energies) == spectrum.n_bound == 2
        assert np.all(spectrum.energies < 0)

    def test_no_bound_state(self):
        spec = DoubleWellSpec(4.5, 7.0, 0.0, 0.0)
        grid = grid_for_wells(spec)
        with pytest.raises(NoBoundStateError):
            solve_vertical(build_potential(spec, grid), grid, ELECTRON, 4)

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


class TestClassification:
    def test_symmetric_labels(self):
        spec = DoubleWellSpec(4.5, 7.0, 239.0, 239.0)
        spectrum = solve_double_well(spec, ELECTRON, TWO_STATES)
        assert spectrum.labels[:2] == ("B", "A")

    def test_weak_coupling_localization(self):
        spectrum = solve_double_well(
            DoubleWellSpec(4.5, 9.5, 239.0, 203.0), ELECTRON, TWO_STATES)
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
        spectrum = solve_double_well(DEFAULT_WELL, ELECTRON, TWO_STATES)
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
        spectrum = solve_double_well(DEFAULT_WELL, ELECTRON, TWO_STATES)
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
        spectrum = solve_double_well(spec, ELECTRON)
        assert spectrum.n_bound == 4
        d = dz_matrix(spectrum)
        assert abs(d[0, 1]) > 1e-3
        assert abs(d[0, 2]) < 1e-8
        assert abs(d[1, 3]) < 1e-8

    def test_commutator_identity(self):
        # [H, z] relates <0|dz|1> to (E1 - E0) <0|z|1> / (2 hbar^2/2m)
        spectrum = solve_double_well(DEFAULT_WELL, ELECTRON, TWO_STATES)
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
        grid = grid_for_wells(spec)
        spectrum = solve_vertical(build_potential(spec, grid), grid,
                                  ELECTRON, 1, well_spec=spec)
        with pytest.raises(ValueError):
            dz_matrix(spectrum)


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
    """Diagonal, off-diagonal and grid of the FD problem for a well."""
    grid = grid_for_wells(spec)
    return (*fd_matrix(build_potential(spec, grid), species, grid.step),
            grid)


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
        and within eps; the vectors are bitwise what eigh_tridiagonal's own
        vector stage (stein on one unsplit block) makes of those energies."""
        diag, off, grid = tridiagonal(spec, species)
        eps = certificate_tolerance(diag, off)
        spectrum = solve_double_well(spec, species)
        energies = spectrum.energies
        # the default device binds 2 states per carrier at every L
        assert len(energies) == spectrum.n_bound == 2
        assert oracles.sturm_count(diag, off, 0.0) == 2
        for i, energy in enumerate(energies):
            # exactly i eigenvalues below E_i - eps and i + 1 below E_i + eps
            assert oracles.sturm_count(diag, off, energy - eps) == i
            assert oracles.sturm_count(diag, off, energy + eps) == i + 1
        reference, vectors = eigh_tridiagonal(
            diag, off, select="i", select_range=(0, len(energies) - 1))
        assert np.max(np.abs(energies - reference)) <= eps
        n = len(diag)
        stein_vectors, info = dstein(diag, off, energies, np.ones(n, np.int32),
                                     np.r_[n, np.zeros(n - 1, np.int32)])
        assert info == 0
        assert spectrum.eigenvectors().tobytes() == stein_vectors.tobytes()
        assert spectrum.wavefunctions.tobytes() == signed_unit_columns(
            stein_vectors, grid.step).tobytes()
        # same normalization and sign convention; overlaps of unit vectors
        overlaps = np.sum(spectrum.wavefunctions
                          * signed_unit_columns(vectors, grid.step),
                          axis=0) * grid.step
        assert np.all(overlaps >= 1 - 1e-12)

    def test_vectors_computed_once_without_second_bisection(self,
                                                             monkeypatch):
        calls = collections.Counter()
        lapack = vertical.get_lapack_funcs

        def counting(names, arrays):
            def counted(name, func):
                def call(*args):
                    calls[name] += 1
                    return func(*args)
                return call
            return [counted(name, func)
                    for name, func in zip(names, lapack(names, arrays))]

        monkeypatch.setattr(vertical, "get_lapack_funcs", counting)
        spectrum = solve_double_well(DEFAULT_WELL, ELECTRON)
        # eigenvalues without any LAPACK call, stebz included
        assert calls == {}
        spectrum.localization
        spectrum.wavefunctions
        dz_matrix(spectrum)
        assert calls == {"stein": 1}


SPECIES = st.sampled_from([ELECTRON, HOLE])


def lowest_eigh(diag, off, n_states):
    """eigh_tridiagonal's lowest min(n_states, n - 1) eigenvalues."""
    k = min(n_states, len(diag) - 1)
    return eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                            select_range=(0, k - 1))


def assert_matches_eigh(potential, grid, species, n_states):
    """solve_vertical and eigh_tridiagonal agree on the count, order and
    n_bound of the bound states, and on each energy within eps; a potential
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
            solve_vertical(potential, grid, species, n_states=n_states)
        assert caught.value.exit_code == 3
        ground = float(str(caught.value).split()[3])
        assert abs(ground - reference[0]) <= 5e-4 + eps
        return
    spectrum = solve_vertical(potential, grid, species, n_states=n_states)
    assert len(spectrum.energies) == spectrum.n_bound == len(bound)
    assert np.all(np.diff(spectrum.energies) > 0)
    assert np.max(np.abs(spectrum.energies - bound)) <= eps


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
    def test_symmetric_double_wells(self, barrier, depth, species):
        # at large L the bonding/antibonding pair is closer than any scan
        spec = DoubleWellSpec(4.5, barrier, depth, depth)
        grid = grid_for_wells(spec)
        assert_matches_eigh(build_potential(spec, grid), grid, species, 4)

    @settings(deadline=None, max_examples=30)
    @given(n=st.integers(3, 3000), n_states=st.integers(1, 6),
           species=SPECIES)
    def test_zero_potential_boxes(self, n, n_states, species):
        step = 0.01
        grid = Grid1D(0.0, (n - 1) * step, n)
        spectrum = solve_vertical(np.zeros(n), grid, species,
                                  n_states=n_states, require_bound=False)
        diag, off = fd_matrix(np.zeros(n), species, step)
        eps = certificate_tolerance(diag, off)
        k = min(n_states, n - 1)
        # the FD box levels in closed form: 4 c/h^2 sin^2(j pi / 2(n + 1))
        exact = 4 * kinetic_coefficient(species) / step ** 2 * np.sin(
            np.arange(1, k + 1) * np.pi / (2 * (n + 1))) ** 2
        assert len(spectrum.energies) == k and spectrum.n_bound == 0
        assert np.max(np.abs(spectrum.energies
                             - lowest_eigh(diag, off, n_states))) <= eps
        assert np.max(np.abs(spectrum.energies - exact)) <= eps
