import gc
import math
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from dqdsim import (ELECTRON, HOLE, FieldPoint, ParticleSpecies,
                    SolverOptions, adiabatic_sweep, cyclotron_energy,
                    diagonalize, molecular)
from dqdsim.errors import EigenResidualError, NotHermitianError
from dqdsim.config import DEFAULT_B_VALUES
from dqdsim.molecular import BlockHamiltonian, ProductBasis, shell_name
from dqdsim.spectroscopy import vertical_spectrum
from dqdsim import default_device, solve_point
from dqdsim.lateral import y_ladder
from dqdsim.vertical import dz_matrix
from oracles import (AmbiguousContinuation, OVERLAP_THRESHOLD, DenseSpectrum,
                     assemble, block_spectra, build_basis, dominant_labels,
                     label_of, label_states, product_basis, sector_list,
                     solve_well, y_matrix)


@pytest.fixture(scope="module")
def electron_vertical():
    return vertical_spectrum(default_device(7.0), ELECTRON)


@pytest.fixture(scope="module")
def hole_vertical():
    return vertical_spectrum(default_device(7.0), HOLE)


class TestDiagonalize:
    def test_diagonal_matrix(self):
        h = np.diag([3.0, -1.0, 2.0]).astype(complex)
        energies, vectors = diagonalize(h)
        np.testing.assert_allclose(energies, [-1.0, 2.0, 3.0])
        np.testing.assert_allclose(np.abs(vectors),
                                   np.eye(3)[:, [1, 2, 0]], atol=1e-14)

    def test_two_level_probe(self):
        c = 4.2
        h = np.array([[0.0, -1j * c], [1j * c, 0.0]])
        energies, _ = diagonalize(h)
        np.testing.assert_allclose(energies, [-c, c], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            diagonalize(np.array([[0.0, 1.0], [2.0, 0.0]], dtype=complex))

    def test_stack_matches_one_matrix_at_a_time(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 6, 6)) + 1j * rng.normal(size=(5, 6, 6))
        stack = a + a.conj().transpose(0, 2, 1)
        stack[2] *= 1e6  # each matrix is checked against its own scale
        energies, vectors = diagonalize(stack)
        for h, e, v in zip(stack, energies, vectors):
            e1, v1 = diagonalize(h)
            assert e.tobytes() == e1.tobytes()
            assert v.tobytes() == v1.tobytes()

    def test_rejects_one_non_hermitian_matrix_in_a_stack(self):
        stack = np.stack([np.eye(2), [[0.0, 1.0], [2.0, 0.0]]]).astype(complex)
        with pytest.raises(NotHermitianError):
            diagonalize(stack)

    @pytest.mark.parametrize("entry, where", [
        (np.nan, (0, 0)), (np.inf, (0, 0)), (np.nan, (0, 1)),
        (np.inf, (0, 1))], ids=["nan_diag", "inf_diag", "nan_off", "inf_off"])
    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    def test_rejects_non_finite_entries(self, entry, where, stacked):
        # a comparison with NaN is False, so the guards must be negated
        # ones: a NaN or inf entry, placed Hermitian, fails them
        h = np.array([[0.0, 0.5], [0.5, 1.0]], dtype=complex)
        h[where] = h[where[::-1]] = entry
        if stacked:
            h = np.stack([np.eye(2, dtype=complex), h, np.eye(2)])
        with pytest.raises(NotHermitianError, match="finite"):
            diagonalize(h)

    def test_non_finite_residual_raises(self, monkeypatch):
        eigh = np.linalg.eigh

        def nan_eigh(h):
            energies, vectors = eigh(h)
            return energies, vectors * np.nan

        monkeypatch.setattr(molecular.np.linalg, "eigh", nan_eigh)
        for h in (np.eye(2), np.stack([np.eye(2), np.diag([1.0, 2.0])])):
            with pytest.raises(EigenResidualError, match="finite"):
                diagonalize(h.astype(complex))

    def test_residual_failure_raises_dqd_error(self, monkeypatch):
        eigh = np.linalg.eigh

        def broken_eigh(h):
            energies, vectors = eigh(h)
            return energies + 1.0, vectors

        monkeypatch.setattr(molecular.np.linalg, "eigh", broken_eigh)
        with pytest.raises(EigenResidualError):
            diagonalize(np.diag([1.0, 2.0]).astype(complex))


class TestAssemble:
    def test_zero_field_is_diagonal(self, electron_vertical):
        vert = electron_vertical
        dz = dz_matrix(vert)
        field = FieldPoint(0.0)
        basis = build_basis(ELECTRON, field, 4)
        h = assemble(vert, dz, basis, y_matrix(basis, ELECTRON), ELECTRON,
                     field)
        off = h - np.diag(np.diag(h))
        assert np.max(np.abs(off)) == 0.0
        pb = product_basis(vert, basis)
        np.testing.assert_allclose(np.real(np.diag(h)), pb.e0)

    def test_field_matrix_structure(self, electron_vertical):
        vert = electron_vertical
        dz = dz_matrix(vert)
        field = FieldPoint(5.0)
        basis = build_basis(ELECTRON, field, 4)
        ymat = y_matrix(basis, ELECTRON)
        h = assemble(vert, dz, basis, ymat, ELECTRON, field)
        # Hermitian, purely imaginary off-diagonal
        assert np.max(np.abs(h - h.conj().T)) < 1e-10 * np.max(np.abs(h))
        off = h - np.diag(np.diag(h))
        assert np.max(np.abs(off.real)) == 0.0
        # element check against the defining product
        pb = product_basis(vert, basis)
        hoc = cyclotron_energy(ELECTRON, field)
        i = pb.entries.index((1, 0, 0))  # A,s
        j = pb.entries.index((0, 0, 1))  # B,p_y
        li = basis.states.index((0, 0))
        lj = basis.states.index((0, 1))
        expected = ELECTRON.hyz_sign * 1j * hoc * ymat[li, lj] * dz[1, 0]
        assert h[i, j] == pytest.approx(expected, rel=1e-12)

    def test_parity_selection_in_symmetric_molecule(self):
        vert = solve_well((6.0, 4.0, 600.0, 600.0), ELECTRON)
        dz = dz_matrix(vert)
        field = FieldPoint(4.0)
        basis = build_basis(ELECTRON, field, 2)
        h = assemble(vert, dz, basis, y_matrix(basis, ELECTRON), ELECTRON,
                     field)
        pb = product_basis(vert, basis)
        # same vertical parity (states 0 and 2 both even): no coupling
        i = pb.entries.index((0, 0, 0))
        j = pb.entries.index((2, 0, 1))
        assert abs(h[i, j]) < 1e-8
        k = pb.entries.index((1, 0, 1))
        assert abs(h[i, k]) > 1e-3

    def test_basis_mismatch(self, electron_vertical):
        vert = electron_vertical
        dz = dz_matrix(vert)
        basis = build_basis(ELECTRON, FieldPoint(3.0), 4)
        with pytest.raises(ValueError):
            assemble(vert, dz, basis, y_matrix(basis, ELECTRON), ELECTRON,
                     FieldPoint(4.0))

    def test_electron_hole_sign_flip_leaves_spectrum(self, electron_vertical):
        vert = electron_vertical
        dz = dz_matrix(vert)
        flipped = ParticleSpecies("electron", ELECTRON.mass_ratio,
                                  ELECTRON.lateral_quantum, +1)
        field = FieldPoint(6.0)
        for species in (ELECTRON, flipped):
            basis = build_basis(species, field, 4)
            h = assemble(vert, dz, basis, y_matrix(basis, species), species,
                         field)
            energies, _ = diagonalize(h)
            if species is ELECTRON:
                reference = energies
        np.testing.assert_allclose(energies, reference, atol=1e-10)


class TestBlockHamiltonian:
    @pytest.mark.parametrize("b", [0.0, 0.1, 3.3, 8.0])
    def test_block_stacks_scatter_to_assemble(self, electron_vertical,
                                              hole_vertical, b):
        # each real sector stack, phased back out of the gauge and
        # scattered over the product basis, is the dense H: the diagonal
        # bit for bit, the cross term to rounding, and 0 between sectors
        field = FieldPoint(b)
        for species, vert in ((ELECTRON, electron_vertical),
                              (HOLE, hole_vertical)):
            ham = BlockHamiltonian(vert, species)
            lateral = build_basis(species, field)
            dense = assemble(vert, dz_matrix(vert), lateral,
                             y_matrix(lateral, species), species, field)
            stacks = oracles.size_stacks(ham, [2.0, b])
            scattered = np.zeros_like(dense)
            phases = oracles.QUARTER_TURNS[species.hyz_sign * ham.ny % 4]
            for (members, _), stack in zip(ham.sectors, stacks):
                k, m = members.shape
                assert stack.shape == (2, k, m, m) and stack.dtype == float
                for rows, ph, h in zip(members, phases[members], stack[1]):
                    scattered[np.ix_(rows, rows)] = (
                        ph[:, None] * h * ph.conj())
            assert np.diag(scattered).tobytes() == np.diag(dense).tobytes()
            assert (np.abs(scattered - dense).max()
                    <= 4 * np.finfo(float).eps * np.abs(dense).max())
            assert np.all(dense[scattered == 0] == 0)
            assert ham.basis.entries == product_basis(vert, lateral).entries

    @pytest.mark.parametrize("quanta", [0, 2, 8])
    def test_lateral_basis_from_options(self, electron_vertical, quanta):
        vert = electron_vertical
        ham = BlockHamiltonian(vert, ELECTRON,
                               SolverOptions(lateral_quanta=quanta))
        lateral = build_basis(ELECTRON, FieldPoint(3.0), quanta)
        assert ham.basis.entries == product_basis(vert, lateral).entries
        spectrum = adiabatic_sweep(vert, ELECTRON, [3.0],
                                   SolverOptions(lateral_quanta=quanta))[0]
        # two bound states: every n_x block is two sectors
        assert len(sector_list(ham)) == 2 * (quanta + 1)
        assert spectrum.energies.shape == (len(ham.basis),)
        assert sorted(spectrum.labels) == sorted(ham.names)

    @pytest.mark.parametrize("quanta", range(7))
    @pytest.mark.parametrize("well", [
        (4.5, 7.0, 239.0, 203.0),
        (9.0, 7.0, 400.0, 400.0)], ids=["2-state", "4-state"])
    def test_names_are_the_basis_labels(self, well, quanta):
        vert = solve_well(well, ELECTRON)
        ham = BlockHamiltonian(vert, ELECTRON,
                               SolverOptions(lateral_quanta=quanta))
        assert len(ham.names) == len(ham.basis) == (
            len(vert.energies) * (quanta + 1) * (quanta + 2) // 2)
        for i, name in enumerate(ham.names):
            assert name == label_of(ham.basis, i)

    def test_one_field_solves_match_batched_rows(self, hole_vertical):
        # the zero-field sweep takes the closed form and the 5 T solve is
        # a stack of one; both must equal the rows of the joint sweep
        vert = hole_vertical
        joint = adiabatic_sweep(vert, HOLE, [0.0, 5.0])
        ones = (adiabatic_sweep(vert, HOLE, [0.0])[0],
                adiabatic_sweep(vert, HOLE, [5.0])[0])
        for spec, one in zip(joint, ones):
            assert spec.b == one.b
            assert spec.energies.tobytes() == one.energies.tobytes()
            assert spec.labels == one.labels

    @settings(deadline=None, max_examples=40)
    @given(steps=st.integers(250, 1500),
           species=st.sampled_from([ELECTRON, HOLE]),
           b=st.floats(0.0, 8.0), b_next=st.floats(0.0, 8.0))
    def test_block_levels_continuous_in_field(self, steps, species, b,
                                              b_next):
        # Weyl's inequality: the k-th ascending eigenvalues of two
        # symmetric matrices differ by at most the spectral norm of their
        # difference, so no level of a sector can jump in B
        device = default_device(steps * 0.01)  # L on the 0.01 nm grid
        ham = BlockHamiltonian(vertical_spectrum(device, species), species)
        for stack in oracles.size_stacks(ham, [b, b_next]):
            for i in range(stack.shape[1]):
                h = stack[:, i]
                energies, _ = diagonalize(h)
                shift = np.abs(energies[1] - energies[0]).max()
                assert shift <= np.linalg.norm(h[1] - h[0], 2) + 1e-9


def greedy_labels(spectrum, reference, threshold=OVERLAP_THRESHOLD):
    """Labels by one-to-one greedy assignment, largest overlap first, or
    None when a matched overlap falls below the threshold."""
    overlap = np.abs(reference.vectors.conj().T @ spectrum.vectors)
    n = len(overlap)
    labels = [None] * n
    used_ref, used_new = set(), set()
    for flat in np.argsort(overlap, axis=None)[::-1]:
        i, j = divmod(int(flat), n)
        if i in used_ref or j in used_new:
            continue
        if overlap[i, j] < threshold:
            return None
        labels[j] = reference.labels[i]
        used_ref.add(i)
        used_new.add(j)
    return tuple(labels)


def march_field_by_field(vert, species, b_values, step=0.1):
    """Reference sweep: the march solved one field at a time over whole
    n_x blocks and labelled greedily, halving ambiguous steps."""
    ham = BlockHamiltonian(vert, species)

    def continue_to(prev, b, depth=0):
        cur = block_spectra(ham, [b])[0]
        labels = greedy_labels(cur, prev)
        if labels is not None:
            return replace(cur, labels=labels)
        assert depth < 10
        mid = continue_to(prev, 0.5 * (prev.b + b), depth + 1)
        return continue_to(mid, b, depth + 1)

    march = np.arange(0.0, max(b_values) + step / 2, step)
    grid = sorted(set(round(float(b), 9) for b in march) | set(b_values))
    prev = block_spectra(ham, [0.0])[0]
    out = {0.0: prev}
    for b in grid[1:]:
        prev = out[b] = continue_to(prev, b)
    return [out[b] for b in b_values]


# per-sector stacks are a different LAPACK problem from whole n_x blocks,
# so their energies agree to rounding, relative to the spectrum's scale
ENERGY_RTOL = 1e-13


def assert_energies_close(spec, ref):
    scale = np.abs(ref.energies).max()
    assert np.abs(spec.energies - ref.energies).max() <= ENERGY_RTOL * scale


def tied_runs(energies):
    """The level indices of each run of exactly equal energies."""
    bounds = np.flatnonzero(np.diff(energies)) + 1
    return np.split(np.arange(len(energies)), bounds)


def matched_levels(spec, ref):
    """For each level of spec, the level of ref with the same label.

    Labels must agree level by level, except that inside a run of exactly
    equal energies of spec their order may differ: each run must hold the
    same labels in both. The oracle's block eigensolves need not list tied
    levels in basis order."""
    match = []
    for run in tied_runs(spec.energies):
        ref_at = {ref.labels[k]: k for k in run}
        assert sorted(ref_at) == sorted(spec.labels[k] for k in run)
        match.extend(ref_at[spec.labels[k]] for k in run)
    return np.array(match)


class TestBatchedSweepEquivalence:
    FIELDS = [0.0, 0.1, 3.3, 8.0]

    @pytest.mark.parametrize("barrier_l", [7.0, 9.5])
    @pytest.mark.parametrize("species", [ELECTRON, HOLE], ids=["e", "h"])
    def test_matches_field_by_field_march(self, barrier_l, species):
        vert = vertical_spectrum(default_device(barrier_l), species)
        batched = adiabatic_sweep(vert, species, self.FIELDS)
        reference = march_field_by_field(vert, species, self.FIELDS)
        for spec, ref in zip(batched, reference):
            assert spec.b == ref.b
            assert_energies_close(spec, ref)
            matched_levels(spec, ref)

    @settings(deadline=None, max_examples=25)
    @given(steps=st.integers(250, 1500),
           species=st.sampled_from([ELECTRON, HOLE]),
           fields=st.sets(st.integers(0, 800), min_size=1, max_size=6))
    def test_rank_labels_match_the_oracle_march(self, steps, species,
                                                fields):
        # with two bound vertical states every sector is a Jacobi matrix,
        # so ranking within sectors must reproduce the march's labels
        device = default_device(steps * 0.01)  # L on the 0.01 nm grid
        vert = vertical_spectrum(device, species)
        assert len(vert.energies) == 2
        b_values = [k * 0.01 for k in sorted(fields)]
        for spec, ref in zip(adiabatic_sweep(vert, species, b_values),
                             oracles.march(vert, species, b_values)):
            assert spec.b == ref.b
            matched_levels(spec, ref)
            assert_energies_close(spec, ref)

    @pytest.mark.parametrize("barrier_l", [7.0, 9.5])
    @pytest.mark.parametrize("species", [ELECTRON, HOLE], ids=["e", "h"])
    def test_cross_term_sign_flip_changes_nothing(self, barrier_l, species):
        # flipping hyz_sign conjugates H, which keeps its eigenvalues and
        # the moduli of its eigenvectors, and so the adiabatic labels
        flipped = replace(species, hyz_sign=-species.hyz_sign)
        vert = vertical_spectrum(default_device(barrier_l), species)
        for a, b in zip(adiabatic_sweep(vert, species, DEFAULT_B_VALUES),
                        adiabatic_sweep(vert, flipped, DEFAULT_B_VALUES)):
            assert a.energies.tobytes() == b.energies.tobytes()
            assert a.labels == b.labels

    def test_coarse_step_halves_once_and_reuses_the_endpoint(
            self, electron_vertical, hole_vertical, monkeypatch):
        # the oracle march: at L = 7 a 4 T step from zero is ambiguous for
        # both carriers; one midpoint at 2 T resolves it, and the 4 T
        # spectrum already solved in the batch is reused
        solved = []

        def counting_spectra(ham, b_values):
            solved.extend(b_values)
            return block_spectra(ham, b_values)

        for species, vert in ((ELECTRON, electron_vertical),
                              (HOLE, hole_vertical)):
            fine = oracles.march(vert, species, [8.0])[0]
            solved.clear()
            with monkeypatch.context() as patch:
                patch.setattr(oracles, "block_spectra", counting_spectra)
                coarse = oracles.march(vert, species, [8.0], field_step=4.0)[0]
            assert solved == [0.0, 4.0, 8.0, 2.0]
            assert coarse.labels == fine.labels
            assert coarse.energies.tobytes() == fine.energies.tobytes()


class TestFieldLocality:
    @pytest.fixture(scope="class")
    def full_sweeps(self, electron_vertical, hole_vertical):
        return {species.name: (vert, dict(zip(DEFAULT_B_VALUES,
                                             adiabatic_sweep(
                                                 vert, species,
                                                 DEFAULT_B_VALUES))))
                for species, vert in ((ELECTRON, electron_vertical),
                                      (HOLE, hole_vertical))}

    @settings(deadline=None, max_examples=30)
    @given(species=st.sampled_from([ELECTRON, HOLE]),
           fields=st.sets(st.sampled_from(DEFAULT_B_VALUES), min_size=1))
    @example(species=ELECTRON, fields={8.0})
    @example(species=HOLE, fields={8.0})
    def test_subset_equals_the_full_sweep(self, full_sweeps, species,
                                          fields):
        # a field's spectrum does not depend on the other requested
        # fields; 8 T alone once came out with diabatic labels
        vert, full = full_sweeps[species.name]
        b_values = sorted(fields)
        for spec in adiabatic_sweep(vert, species, b_values):
            ref = full[spec.b]
            assert spec.labels == ref.labels
            assert spec.energies.tobytes() == ref.energies.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_field_is_rejected_on_call(self, electron_vertical,
                                           monkeypatch, bad):
        # not on the first read of a level, which all fields share
        def unbuilt(*_):
            raise AssertionError("Hamiltonian built")

        monkeypatch.setattr(molecular, "BlockHamiltonian", unbuilt)
        for b_values in ([bad, 8.0], [0.0, bad], [bad]):
            with pytest.raises(ValueError, match="finite and >= 0"):
                adiabatic_sweep(electron_vertical, ELECTRON, b_values)


class TestSectors:
    @settings(deadline=None, max_examples=60)
    @given(width=st.floats(3.0, 9.0), l=st.floats(0.5, 15.0),
           depth1=st.floats(100.0, 450.0),
           depth2=st.none() | st.floats(100.0, 450.0),
           species=st.sampled_from([ELECTRON, HOLE]),
           cap=st.integers(2, 4), quanta=st.integers(0, 6))
    @example(width=9.0, l=7.0, depth1=400.0, depth2=None, species=ELECTRON,
             cap=4, quanta=6)
    @example(width=9.0, l=7.0, depth1=400.0, depth2=300.0, species=ELECTRON,
             cap=4, quanta=12)
    def test_closure_matches_graph_search(self, width, l, depth1, depth2,
                                          species, cap, quanta):
        # equal wells (depth2 None) zero the parity-forbidden d/dz entries
        # and split the sectors; the closure search must give the members
        # of scipy's connected components, in the same order
        well = (width, l, depth1, depth1 if depth2 is None else depth2)
        options = SolverOptions(vertical_cap=cap, lateral_quanta=quanta)
        ham = BlockHamiltonian(solve_well(well, species, options),
                               species, options)
        found = [members for members, _, _ in sector_list(ham)]
        expected = oracles.component_sectors(ham)
        assert [m.tolist() for m in found] == [m.tolist() for m in expected]

    @pytest.mark.parametrize("species", [ELECTRON, HOLE], ids=["e", "h"])
    def test_two_jacobi_sectors_per_block(self, species):
        # at L = 7 nm and 8 T every n_x block splits into two sectors that
        # the dense H does not couple; ordered by n_y each sector's K is
        # real symmetric, tridiagonal, and nonzero next to its diagonal
        ham = BlockHamiltonian(vertical_spectrum(default_device(7.0),
                                                 species), species)
        assert len(ham.vertical.energies) == 2
        dense = oracles.dense_hamiltonians(ham, [8.0])[0]
        for block in oracles.nx_blocks(ham.basis):
            sectors = [s for s in sector_list(ham)
                       if np.isin(s[0], block).all()]
            assert len(sectors) == 2
            first, second = (s[0] for s in sectors)
            assert sorted(np.concatenate([first, second])) == list(block)
            assert np.all(dense[np.ix_(first, second)] == 0)
            for members, k, _ in sectors:
                assert k.dtype == float and (k == k.T).all()
                ny = np.array([ham.basis.entries[i][2] for i in members])
                order = np.argsort(ny)
                assert np.all(np.diff(ny[order]) == 1)
                path = k[np.ix_(order, order)]
                assert np.all(np.diag(path, 1) != 0)
                assert np.all(np.triu(path, 2) == 0)

    def test_parity_forbidden_entries_split_symmetric_wells(self):
        # identical wells bind four states of parity (-1)^v whose
        # same-parity d/dz entries sum to rounding, not to 0; they must
        # neither join the parity sectors nor reach any sector's coupling
        vert = solve_well((9.0, 7.0, 400.0, 400.0), ELECTRON)
        ham = BlockHamiltonian(vert, ELECTRON)
        assert len(vert.energies) == 4
        dz = np.abs(dz_matrix(vert))
        assert 0 < dz[0, 2] < 1e-13 * dz.max()
        # two parity sectors per n_x block; the last block, n_y = 0 only,
        # has no y coupling and four single-state sectors
        quanta = SolverOptions().lateral_quanta
        per_nx = Counter(ham.basis.entries[members[0]][1]
                         for members, _, _ in sector_list(ham))
        assert [per_nx[n] for n in range(quanta + 1)] == [2] * quanta + [4]
        parity = np.array([v % 2 for v, _, _ in ham.basis.entries])
        for members, coupling, _ in sector_list(ham):
            same = parity[members][:, None] == parity[members]
            assert np.all(coupling[same] == 0)

    @settings(deadline=None, max_examples=40)
    @given(width=st.floats(3.0, 9.0), l=st.floats(1.0, 50.0),
           depth1=st.floats(100.0, 600.0), detuning=st.floats(1.0, 500.0),
           deeper_first=st.booleans(),
           species=st.sampled_from([ELECTRON, HOLE]), cap=st.integers(3, 4))
    @example(width=9.0, l=45.0, depth1=119.5, detuning=18.0,
             deeper_first=True, species=HOLE, cap=4)
    def test_asymmetric_wells_keep_every_coupling(
            self, width, l, depth1, detuning, deeper_first, species, cap):
        # unequal wells have no parity: every d/dz entry is kept as
        # computed, however small, so each nonzero entry of the full K
        # joins its two states in one sector with that very value
        depth2 = depth1 - detuning if deeper_first else depth1 + detuning
        assume(depth2 >= 100.0)
        options = SolverOptions(vertical_cap=cap)
        vert = solve_well((width, l, depth1, depth2), species, options)
        assert vert.runs != vert.runs[::-1]
        ham = BlockHamiltonian(vert, species, options)
        ny = np.array([n_y for _, _, n_y in ham.basis.entries])
        full = np.kron(dz_matrix(vert), y_ladder(ham.states)) * np.sign(
            ny - ny[:, None])
        sector = np.empty(len(ham), dtype=int)
        for number, (members, coupling, _) in enumerate(sector_list(ham)):
            sector[members] = number
            assert np.array_equal(coupling, full[np.ix_(members, members)])
        joined = sector[:, None] == sector
        assert np.all(joined[full != 0])

    def test_four_state_well_keeps_its_weakest_coupling_at_45_nm(self):
        # the CI's four-state device at L = 45 nm: the hole's d/dz entry
        # between its two lowest states is 7.0e-7 of the largest, which a
        # 1e-6 floor once cut, so the 8 T gap read 116.20751791640538 meV
        device = replace(default_device(45.0), well_width_h=9.0,
                         depth_e_dot1=400.0, depth_e_dot2=300.0)
        options = SolverOptions(vertical_cap=4)
        vert = vertical_spectrum(device, HOLE, options)
        dz = np.abs(dz_matrix(vert))
        assert dz[0, 1] == pytest.approx(7.0e-7 * dz.max(), rel=0.01)
        ham = BlockHamiltonian(vert, HOLE, options)
        b_s, a_p_y = ham.positions["B:s"], ham.positions["A:p_y"]
        members, coupling, _ = next(s for s in sector_list(ham)
                                    if b_s in s[0])
        row, column = list(members).index(b_s), list(members).index(a_p_y)
        assert coupling[row, column] != 0
        gap = solve_point(device, FieldPoint(8.0), options).gap
        assert gap == pytest.approx(116.20751096299887, abs=1e-8)

    @pytest.mark.parametrize("species", [ELECTRON, HOLE], ids=["e", "h"])
    def test_sectors_split_n_x_blocks(self, species):
        # the sectors partition the basis, each within one n_x block, its
        # members in stable ascending order of zero-field energy
        for vert in (vertical_spectrum(default_device(7.0), species),
                     solve_well((9.0, 7.0, 400.0, 400.0), species)):
            ham = BlockHamiltonian(vert, species)
            every = np.concatenate([s[0] for s in sector_list(ham)])
            assert sorted(every) == list(range(len(ham)))
            stacks = [stack[0, i] for stack in oracles.size_stacks(ham, [0.0])
                      for i in range(stack.shape[1])]
            for (members, _, _), h in zip(sector_list(ham), stacks):
                assert len({ham.basis.entries[i][1] for i in members}) == 1
                levels = list(zip(np.diag(h), members))
                assert sorted(levels) == levels

    @pytest.mark.parametrize("species", [ELECTRON, HOLE], ids=["e", "h"])
    def test_degenerate_levels_in_basis_order(self, species):
        # one tie rule at every field: exactly equal energies are listed
        # in basis order (v, n_x, n_y); at L = 2.5 nm and B = 0 the A:d
        # shell is threefold degenerate
        vert = vertical_spectrum(default_device(2.5), species)
        basis = BlockHamiltonian(vert, species).basis
        position = {label_of(basis, k): k for k in range(len(basis))}
        zero, high = adiabatic_sweep(vert, species, [0.0, 8.0])
        for spec in (zero, high):
            for run in tied_runs(spec.energies):
                rows = [position[spec.labels[k]] for k in run]
                assert rows == sorted(rows)
        shell = [k for k, label in enumerate(zero.labels)
                 if label.startswith("A:d_")]
        assert [zero.labels[k] for k in shell] == ["A:d_y2", "A:d_xy",
                                                   "A:d_x2"]
        assert len(set(zero.energies[shell])) == 1

    @pytest.mark.parametrize("species", [ELECTRON, HOLE], ids=["e", "h"])
    def test_symmetric_wells_match_a_fine_march(self, species):
        # four bound states per carrier; across the parity sectors the
        # march's overlaps are near zero, so it crosses diabatically, and
        # so must the ranks
        vert = solve_well((9.0, 7.0, 400.0, 400.0), species)
        assert len(vert.energies) == 4
        marched = oracles.march(vert, species, DEFAULT_B_VALUES,
                                field_step=0.02)
        for spec, ref in zip(adiabatic_sweep(vert, species,
                                             DEFAULT_B_VALUES), marched):
            matched_levels(spec, ref)
            assert_energies_close(spec, ref)

    @settings(deadline=None, max_examples=15)
    @given(k=st.integers(-2, 2), steps=st.integers(250, 1500),
           fields=st.sets(st.integers(0, 32), min_size=1, max_size=4))
    def test_scaling_covariance(self, k, steps, fields):
        # (m, V, hbar*Omega) -> (lam m, V/lam, hbar*Omega/lam) scales H by
        # 1/lam; for lam a power of 2 every rounding scales with it
        lam = 2.0 ** k
        device = default_device(steps * 0.01)
        scaled_device = replace(device, depth_e_dot1=device.depth_e_dot1 / lam,
                                depth_e_dot2=device.depth_e_dot2 / lam)
        scaled = replace(ELECTRON, mass_ratio=ELECTRON.mass_ratio * lam,
                         lateral_quantum=ELECTRON.lateral_quantum / lam)
        b_values = [0.25 * n for n in sorted(fields)]
        spectra = adiabatic_sweep(vertical_spectrum(device, ELECTRON),
                                  ELECTRON, b_values)
        scaled_spectra = adiabatic_sweep(
            vertical_spectrum(scaled_device, scaled), scaled, b_values)
        for spec, other in zip(spectra, scaled_spectra):
            assert (spec.energies / lam).tobytes() == other.energies.tobytes()
            assert spec.labels == other.labels


def test_sweep_leaves_no_hamiltonian_alive(electron_vertical, monkeypatch):
    # with the cyclic collector off, a reference cycle through the
    # Hamiltonian would keep it (and its stacks) alive after the sweep
    alive = weakref.WeakSet()

    class Recorded(BlockHamiltonian):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            alive.add(self)

    monkeypatch.setattr(molecular, "BlockHamiltonian", Recorded)
    gc.disable()
    try:
        spec = adiabatic_sweep(electron_vertical, ELECTRON, [0.0, 8.0])[1]
        assert "A:s" in spec.labels
        assert len(alive) == 0
    finally:
        gc.enable()


def test_chunk_keeps_its_hamiltonian_only_while_levels_are_unsolved(
        electron_vertical, monkeypatch):
    # a spectrum whose lines alone were read keeps the Hamiltonian of its
    # chunk for the sizes still unsolved, and drops it once every level is
    # known; no reference cycle holds it either way
    alive = weakref.WeakSet()

    class Recorded(BlockHamiltonian):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            alive.add(self)

    monkeypatch.setattr(molecular, "BlockHamiltonian", Recorded)
    gc.disable()
    try:
        spec = adiabatic_sweep(electron_vertical, ELECTRON, [3.0, 8.0])[1]
        assert spec.energy_of_label("A:s") is not None
        assert len(alive) == 1
        del spec
        assert len(alive) == 0
        spec = adiabatic_sweep(electron_vertical, ELECTRON, [3.0, 8.0])[1]
        assert spec.energy_of_label("A:s") == spec.energies[
            spec.labels.index("A:s")]
        assert len(alive) == 0
    finally:
        gc.enable()


class TestSolveMolecular:
    def test_zero_field_labels_and_energies(self, electron_vertical):
        vert = electron_vertical
        spec = adiabatic_sweep(vert, ELECTRON, [0.0])[0]
        assert spec.labels[0] == "B:s"
        assert set(spec.labels[1:3]) == {"B:p_y", "B:p_x"}
        assert spec.labels[3] == "A:s"
        # zero-field energies are exact sums of the parts
        assert spec.energies[0] == pytest.approx(
            vert.energies[0] + 30.0, abs=1e-10)
        assert spec.energies[3] == pytest.approx(
            vert.energies[1] + 30.0, abs=1e-10)

    @pytest.mark.parametrize("species", [ELECTRON, HOLE], ids=["e", "h"])
    def test_zero_field_closed_form_matches_block_eigh(self, species):
        # the closed form must give the energies and labels of the
        # eigensolved diagonal blocks, tied levels in any order, and under
        # its labels the oracle's basis vectors are their eigenvectors
        vert = vertical_spectrum(default_device(7.0), species)
        ham = BlockHamiltonian(vert, species)
        closed = adiabatic_sweep(vert, species, [0.0])[0]
        ref = block_spectra(ham, [0.0])[0]
        match = matched_levels(closed, ref)
        assert closed.energies.tobytes() == ref.energies.tobytes()
        dense = oracles.dense_spectra(ham, [closed])[0]
        assert np.array_equal(np.abs(dense.vectors),
                              np.abs(ref.vectors[:, match]))

    def test_basis_is_built_once_and_shared_read_only(self, electron_vertical,
                                                       hole_vertical):
        # the field- and energy-free parts depend only on the vertical
        # labels and the lateral basis size
        electron = BlockHamiltonian(electron_vertical, ELECTRON)
        hole = BlockHamiltonian(hole_vertical, HOLE)
        assert electron.basis is hole.basis
        for name in ("half_nx", "ny", "half_ny", "names"):
            array = getattr(electron, name)
            assert array is getattr(hole, name)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[1]
        wider = BlockHamiltonian(electron_vertical, ELECTRON,
                                 SolverOptions(lateral_quanta=4))
        assert wider.basis is not electron.basis
        assert len(wider) == 2 * 15 < len(electron)

    def test_eigenvector_unitarity(self, electron_vertical):
        ham = BlockHamiltonian(electron_vertical, ELECTRON)
        spec = adiabatic_sweep(electron_vertical, ELECTRON, [7.0])[0]
        vectors = oracles.dense_spectra(ham, [spec])[0].vectors
        gram = vectors.conj().T @ vectors
        assert np.max(np.abs(gram - np.eye(len(ham)))) < 1e-8

    def test_hole_spectrum_is_half_the_electron_one(self):
        # the default parametrization scales the hole Hamiltonian to half
        # the electron one (depths and quanta halve, the mass doubles), and
        # a halving rounds exactly, so every energy halves bit for bit
        fields = [0.0, 3.0, 8.0]
        for barrier_l in (3.0, 7.0, 12.0):
            device = default_device(barrier_l)
            for e, h in zip(
                    adiabatic_sweep(vertical_spectrum(device, ELECTRON),
                                    ELECTRON, fields),
                    adiabatic_sweep(vertical_spectrum(device, HOLE), HOLE,
                                    fields)):
                assert (e.energies / 2).tobytes() == h.energies.tobytes()
                assert e.labels == h.labels

    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("species", [ELECTRON, HOLE], ids=["e", "h"])
    def test_vectors_are_product_basis_eigenvectors(self, species, sign):
        # the library's levels, in order, with the real sector
        # eigenvectors times the gauge phases of the sign, solve the dense
        # complex H of that sign; without the phases the residual is of
        # order |H|. At B = 0 alone the vectors are the basis states
        species = replace(species, hyz_sign=sign)
        for well in (2.5, 7.0, 15.0, (9.0, 7.0, 400.0, 400.0)):
            if isinstance(well, float):
                vert = vertical_spectrum(default_device(well), species)
            else:
                vert = solve_well(well, species)
            ham = BlockHamiltonian(vert, species)
            spectra = adiabatic_sweep(vert, species,
                                      [0.0, 0.05, 1.0, 3.3, 8.0, 12.0])
            for dense in oracles.dense_spectra(ham, spectra):
                assert oracles.gauge_residual(ham, dense) <= 1e-10
            zero = oracles.dense_spectra(
                ham, adiabatic_sweep(vert, species, [0.0]))[0]
            assert oracles.gauge_residual(ham, zero) == 0.0
            assert np.array_equal(np.abs(zero.vectors),
                                  np.abs(zero.vectors) ** 2)
            assert (np.abs(zero.vectors).sum(axis=0) == 1).all()

    def test_second_order_perturbation_at_half_tesla(self):
        device = default_device(9.5)
        vert = vertical_spectrum(device, ELECTRON)
        dz = dz_matrix(vert)
        b = FieldPoint(0.5)
        n = 6
        spec = adiabatic_sweep(vert, ELECTRON, [b.b])[0]
        basis = build_basis(ELECTRON, b, n)
        pb = product_basis(vert, basis)
        ymat = y_matrix(basis, ELECTRON)
        h = assemble(vert, dz, basis, ymat, ELECTRON, b)
        e0 = np.asarray(pb.e0)
        i = pb.entries.index((1, 0, 0))  # A,s
        # exact dressed level continued from A,s (nearest at this tiny B)
        exact = spec.energies[np.argmin(np.abs(spec.energies - e0[i]))]
        pt2 = 0.0
        for k in range(len(pb)):
            if k != i and h[i, k] != 0:
                pt2 += -abs(h[i, k]) ** 2 / (e0[k] - e0[i])
        yz_shift_exact = exact - e0[i]
        assert abs(yz_shift_exact - pt2) < 0.01 * abs(pt2)
        # and the full shift from B = 0 decomposes into diamagnetic + PT2
        e_as_zero = vert.energies[1] + 0.5 * 30.0 + 0.5 * 30.0
        diamag = 0.5 * (basis.quantum_y - 30.0)
        assert abs((exact - e_as_zero) - (diamag + pt2)) < 0.01 * abs(pt2)

    def test_two_level_repulsion_is_symmetric(self):
        device = default_device(9.5)
        vert = vertical_spectrum(device, ELECTRON)
        dz = dz_matrix(vert)
        field = FieldPoint(4.0)
        basis = build_basis(ELECTRON, field, 6)
        pb = product_basis(vert, basis)
        h = assemble(vert, dz, basis, y_matrix(basis, ELECTRON), ELECTRON,
                     field)
        i = pb.entries.index((1, 0, 0))
        j = pb.entries.index((0, 0, 1))
        sub = h[np.ix_([i, j], [i, j])]
        energies, _ = np.linalg.eigh(sub)
        down = sub[0, 0].real - energies[0]
        up = energies[1] - sub[1, 1].real
        assert down == pytest.approx(up, rel=1e-12)

    def test_truncation_convergence_at_full_field(self, electron_vertical):
        device = default_device(7.0)
        lows = {}
        for cap, quanta in ((4, 6), (6, 8)):
            options = SolverOptions(vertical_cap=cap, lateral_quanta=quanta)
            vert = vertical_spectrum(device, ELECTRON, options)
            spec = adiabatic_sweep(vert, ELECTRON, [8.0], options)[0]
            lows[(cap, quanta)] = spec.energies[:2]
        delta = np.abs(lows[(4, 6)] - lows[(6, 8)])
        assert np.max(delta) < 0.05


class TestLabeling:
    def test_adiabatic_follows_branches_through_mixing(self,
                                                       electron_vertical):
        # at L = 7 the A,s level sits just above B,p_y at zero field; the
        # field drags B,p_y up through it, swapping characters along the
        # continuous branches. Adiabatic labels stick to the branches, so
        # at 8 T they disagree with dominant-component labels.
        ham = BlockHamiltonian(electron_vertical, ELECTRON)
        spec8 = oracles.dense_spectra(ham, adiabatic_sweep(
            electron_vertical, ELECTRON, [8.0]))[0]
        adiabatic = spec8.labels
        dominant = dominant_labels(spec8)
        i_ad = adiabatic.index("A:s")
        i_dom = dominant.index("A:s")
        assert i_ad != i_dom
        assert spec8.energies[i_ad] > spec8.energies[i_dom]

    def test_weak_coupling_labels_agree(self):
        device = default_device(9.5)
        vert = vertical_spectrum(device, ELECTRON)
        spec8 = oracles.dense_spectra(
            BlockHamiltonian(vert, ELECTRON),
            adiabatic_sweep(vert, ELECTRON, [8.0]))[0]
        assert spec8.labels.index("A:s") == dominant_labels(spec8).index("A:s")

    def test_antibonding_s_stays_below_bonding_p_at_l95(self):
        device = default_device(9.5)
        vert = vertical_spectrum(device, ELECTRON)
        bs = [0.0, 2.0, 4.0, 6.0, 8.0]
        for spec in adiabatic_sweep(vert, ELECTRON, bs):
            e_as = spec.energy_of_label("A:s")
            assert e_as < spec.energy_of_label("B:p_y")
            assert e_as < spec.energy_of_label("B:p_x")

    def test_requested_fields_returned_in_order(self, electron_vertical):
        specs = adiabatic_sweep(electron_vertical, ELECTRON, [0.0, 3.0, 8.0])
        assert [s.b for s in specs] == [0.0, 3.0, 8.0]
        assert specs[0].labels[0] == "B:s"

    # the oracle march's continuation, which the rank labels are checked
    # against

    def test_ambiguous_continuation_raises(self):
        basis_stub = ProductBasis(
            entries=((0, 0, 0), (0, 0, 1), (1, 0, 0)),
            vertical_labels=("B", "A"))
        # one state spread evenly over three ancestors: best overlap
        # 1/sqrt(3) ~ 0.58, below the continuation threshold
        m = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
        q, _ = np.linalg.qr(m)
        ref = DenseSpectrum(basis=basis_stub, b=0.0,
                            energies=np.arange(3.0),
                            vectors=np.eye(3, dtype=complex),
                            labels=("a", "b", "c"))
        cur = DenseSpectrum(basis=basis_stub, b=0.1,
                            energies=np.arange(3.0),
                            vectors=q.astype(complex))
        with pytest.raises(AmbiguousContinuation):
            label_states(cur, ref)

    def test_permuted_phase_rotated_copy_keeps_labels(self,
                                                      electron_vertical):
        ref = oracles.dense_spectra(
            BlockHamiltonian(electron_vertical, ELECTRON),
            adiabatic_sweep(electron_vertical, ELECTRON, [3.3]))[0]
        rng = np.random.default_rng(11)
        perm = rng.permutation(len(ref.labels))
        phases = np.exp(2j * np.pi * rng.random(len(perm)))
        shuffled = DenseSpectrum(basis=ref.basis, b=ref.b,
                                 energies=ref.energies[perm],
                                 vectors=ref.vectors[:, perm] * phases)
        labelled = label_states(shuffled, ref)
        assert labelled.labels == tuple(ref.labels[k] for k in perm)

    def test_labels_survive_fine_march(self, electron_vertical):
        # a 45 degree rotation split into fine steps stays unambiguous
        marched = oracles.march(electron_vertical, ELECTRON, [2.2],
                                field_step=0.05)[0]
        ranked = adiabatic_sweep(electron_vertical, ELECTRON, [2.2])[0]
        assert marched.labels == ranked.labels

    def test_unlabeled_reference_rejected(self, electron_vertical):
        spec = block_spectra(BlockHamiltonian(electron_vertical, ELECTRON),
                             [1.0])[0]
        assert spec.labels is None
        with pytest.raises(ValueError):
            label_states(spec, spec)


def test_shell_names():
    assert shell_name(0, 0) == "s"
    assert shell_name(1, 0) == "p_x"
    assert shell_name(0, 1) == "p_y"
    assert shell_name(0, 2) == "d_y2"
    assert shell_name(3, 1) == "3.1"

