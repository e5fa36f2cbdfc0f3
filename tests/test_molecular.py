import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dqdsim import (ELECTRON, HOLE, FieldPoint, ParticleSpecies,
                    SolverOptions, adiabatic_sweep, cyclotron_energy,
                    diagonalize, dominant_labels, label_states, molecular)
from dqdsim.errors import (AmbiguousContinuationError, BasisMismatchError,
                           EigenResidualError, NotHermitianError)
from dqdsim.config import DEFAULT_B_VALUES
from dqdsim.molecular import (OVERLAP_THRESHOLD, BlockHamiltonian,
                              MolecularSpectrum, shell_name)
from dqdsim.spectroscopy import vertical_spectrum
from dqdsim import default_device
from dqdsim.vertical import DoubleWellSpec, dz_matrix, solve_double_well
from oracles import assemble, build_basis, product_basis, y_matrix


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
        spec = DoubleWellSpec(6.0, 4.0, 600.0, 600.0)
        vert = solve_double_well(spec, ELECTRON)
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
        with pytest.raises(BasisMismatchError):
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
    def test_block_stacks_scatter_to_assemble(self, electron_vertical, b):
        vert = electron_vertical
        dz = dz_matrix(vert)
        ham = BlockHamiltonian(vert, ELECTRON)
        field = FieldPoint(b)
        lateral = build_basis(ELECTRON, field)
        dense = assemble(vert, dz, lateral, y_matrix(lateral, ELECTRON),
                         ELECTRON, field)
        stacks = ham.hamiltonians([2.0, b])
        scattered = np.zeros_like(dense)
        for block, stack in zip(ham.blocks, stacks):
            m = len(block.index)
            assert stack.shape == (2, m, m)
            scattered[np.ix_(block.index, block.index)] = stack[1]
        assert scattered.tobytes() == dense.tobytes()
        assert ham.basis.entries == product_basis(vert, lateral).entries

    @pytest.mark.parametrize("quanta", [0, 2, 8])
    def test_lateral_basis_from_options(self, electron_vertical, quanta):
        vert = electron_vertical
        ham = BlockHamiltonian(vert, ELECTRON,
                               SolverOptions(lateral_quanta=quanta))
        lateral = build_basis(ELECTRON, FieldPoint(3.0), quanta)
        assert ham.basis.entries == product_basis(vert, lateral).entries
        assert len(ham.blocks) == quanta + 1
        stack = ham.solve([3.0])
        assert stack.energies.shape == (1, len(ham.basis))

    def test_one_field_solves_match_batched_rows(self, hole_vertical):
        # the zero-field sweep leaves the cross term out and the 5 T solve
        # is a stack of one; both must equal the rows of the joint solve
        vert = hole_vertical
        stack = BlockHamiltonian(vert, HOLE).solve([0.0, 5.0])
        ones = (adiabatic_sweep(vert, HOLE, [0.0])[0],
                BlockHamiltonian(vert, HOLE).solve([5.0]).spectrum(0))
        for i, one in enumerate(ones):
            spec = stack.spectrum(i)
            assert spec.b == one.b
            assert spec.energies.tobytes() == one.energies.tobytes()
            assert spec.vectors.tobytes() == one.vectors.tobytes()
            assert spec.labels == one.labels
            assert spec.basis == one.basis

    @settings(deadline=None, max_examples=40)
    @given(steps=st.integers(250, 1500),
           species=st.sampled_from([ELECTRON, HOLE]),
           b=st.floats(0.0, 8.0), b_next=st.floats(0.0, 8.0))
    def test_block_levels_continuous_in_field(self, steps, species, b,
                                              b_next):
        # Weyl's inequality: the k-th ascending eigenvalues of two
        # Hermitian matrices differ by at most the spectral norm of their
        # difference, so no level of an n_x block can jump in B
        device = default_device(steps * 0.01)  # L on the 0.01 nm grid
        ham = BlockHamiltonian(vertical_spectrum(device, species), species)
        energies = ham.solve([b, b_next]).energies
        start = 0
        for h in ham.hamiltonians([b, b_next]):
            block = slice(start, start + h.shape[-1])
            shift = np.abs(energies[1, block] - energies[0, block]).max()
            assert shift <= np.linalg.norm(h[1] - h[0], 2) + 1e-9
            start = block.stop
        assert start == len(ham)


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
    """Reference sweep: the same march solved one field at a time and
    labelled greedily, halving ambiguous steps."""
    ham = BlockHamiltonian(vert, species)

    def continue_to(prev, b, depth=0):
        cur = ham.solve([b]).spectrum(0)
        labels = greedy_labels(cur, prev)
        if labels is not None:
            return replace(cur, labels=labels)
        assert depth < 10
        mid = continue_to(prev, 0.5 * (prev.b + b), depth + 1)
        return continue_to(mid, b, depth + 1)

    march = np.arange(0.0, max(b_values) + step / 2, step)
    grid = sorted(set(round(float(b), 9) for b in march) | set(b_values))
    prev = ham.solve([0.0]).spectrum(0)
    out = {0.0: prev}
    for b in grid[1:]:
        prev = out[b] = continue_to(prev, b)
    return [out[b] for b in b_values]


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
            assert spec.energies.tobytes() == ref.energies.tobytes()
            assert spec.labels == ref.labels

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

    def test_field_chunks_do_not_change_results(self, electron_vertical,
                                                monkeypatch):
        vert = electron_vertical
        whole = adiabatic_sweep(vert, ELECTRON, self.FIELDS)
        monkeypatch.setattr(molecular, "FIELD_CHUNK", 7)
        chunked = adiabatic_sweep(vert, ELECTRON, self.FIELDS)
        for a, b in zip(whole, chunked):
            assert a.energies.tobytes() == b.energies.tobytes()
            assert a.labels == b.labels

    def test_coarse_step_halves_once_and_reuses_the_endpoint(
            self, electron_vertical, hole_vertical, monkeypatch):
        # at L = 7 a 4 T step from zero is ambiguous for both carriers;
        # one midpoint at 2 T resolves it, and the 4 T spectrum already
        # solved in the batch is reused rather than solved again
        solved = []
        solve = BlockHamiltonian.solve

        def counting_solve(self, b_values):
            solved.extend(b_values)
            return solve(self, b_values)

        for species, vert in ((ELECTRON, electron_vertical),
                              (HOLE, hole_vertical)):
            fine = adiabatic_sweep(vert, species, [8.0])[0]
            solved.clear()
            with monkeypatch.context() as patch:
                patch.setattr(BlockHamiltonian, "solve", counting_solve)
                coarse = adiabatic_sweep(vert, species, [8.0],
                                         SolverOptions(field_step=4.0))[0]
            assert solved == [0.0, 4.0, 8.0, 2.0]
            assert coarse.labels == fine.labels
            assert coarse.energies.tobytes() == fine.energies.tobytes()


def test_sweep_leaves_no_hamiltonian_alive(electron_vertical, monkeypatch):
    # with the cyclic collector off, a reference cycle through the
    # Hamiltonian would keep it (and its stacks) alive after the sweep;
    # the 4 T step forces the halving recursion
    alive = weakref.WeakSet()

    class Recorded(BlockHamiltonian):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            alive.add(self)

    monkeypatch.setattr(molecular, "BlockHamiltonian", Recorded)
    gc.disable()
    try:
        spec = adiabatic_sweep(electron_vertical, ELECTRON, [8.0],
                               SolverOptions(field_step=4.0))[0]
        assert "A:s" in spec.labels
        assert len(alive) == 0
    finally:
        gc.enable()


class TestSolveMolecular:
    def test_zero_field_labels_and_energies(self, electron_vertical):
        vert = electron_vertical
        spec = BlockHamiltonian(vert, ELECTRON).solve([0.0]).spectrum(0)
        assert spec.labels[0] == "B:s"
        assert set(spec.labels[1:3]) == {"B:p_y", "B:p_x"}
        assert spec.labels[3] == "A:s"
        # zero-field energies are exact sums of the parts
        assert spec.energies[0] == pytest.approx(
            vert.energies[0] + 30.0, abs=1e-10)
        assert spec.energies[3] == pytest.approx(
            vert.energies[1] + 30.0, abs=1e-10)

    def test_eigenvector_unitarity(self, electron_vertical):
        spec = BlockHamiltonian(electron_vertical, ELECTRON).solve(
            [7.0]).spectrum(0)
        gram = spec.vectors.conj().T @ spec.vectors
        assert np.max(np.abs(gram - np.eye(len(spec.basis)))) < 1e-8

    def test_hole_spectrum_is_half_the_electron_one(self, electron_vertical,
                                                    hole_vertical):
        # the default parametrization scales every hole energy to half
        # the electron value (depths, masses and quanta all halve), which
        # makes a strong cross-check of the full assembly
        e_spec = BlockHamiltonian(electron_vertical, ELECTRON).solve(
            [8.0]).spectrum(0)
        h_spec = BlockHamiltonian(hole_vertical, HOLE).solve(
            [8.0]).spectrum(0)
        np.testing.assert_allclose(h_spec.energies, e_spec.energies / 2,
                                   atol=5e-3)

    def test_second_order_perturbation_at_half_tesla(self):
        device = default_device(9.5)
        vert = vertical_spectrum(device, ELECTRON)
        dz = dz_matrix(vert)
        b = FieldPoint(0.5)
        n = 6
        spec = BlockHamiltonian(vert, ELECTRON).solve([b.b]).spectrum(0)
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
            spec = BlockHamiltonian(vert, ELECTRON, options).solve(
                [8.0]).spectrum(0)
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
        spec8 = adiabatic_sweep(electron_vertical, ELECTRON, [8.0])[0]
        adiabatic = spec8.labels
        dominant = dominant_labels(spec8)
        i_ad = adiabatic.index("A:s")
        i_dom = dominant.index("A:s")
        assert i_ad != i_dom
        assert spec8.energies[i_ad] > spec8.energies[i_dom]

    def test_weak_coupling_labels_agree(self):
        device = default_device(9.5)
        vert = vertical_spectrum(device, ELECTRON)
        spec8 = adiabatic_sweep(vert, ELECTRON, [8.0])[0]
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

    def test_ambiguous_continuation_raises(self):
        from dqdsim.molecular import ProductBasis

        basis_stub = ProductBasis(
            entries=((0, 0, 0), (0, 0, 1), (1, 0, 0)),
            vertical_labels=("B", "A"))
        # one state spread evenly over three ancestors: best overlap
        # 1/sqrt(3) ~ 0.58, below the continuation threshold
        m = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
        q, _ = np.linalg.qr(m)
        ref = MolecularSpectrum(basis=basis_stub, b=0.0,
                                energies=np.arange(3.0),
                                vectors=np.eye(3, dtype=complex),
                                labels=("a", "b", "c"))
        cur = MolecularSpectrum(basis=basis_stub, b=0.1,
                                energies=np.arange(3.0),
                                vectors=q.astype(complex))
        with pytest.raises(AmbiguousContinuationError):
            label_states(cur, ref)

    def test_permuted_phase_rotated_copy_keeps_labels(self,
                                                      electron_vertical):
        ref = adiabatic_sweep(electron_vertical, ELECTRON, [3.3])[0]
        rng = np.random.default_rng(11)
        perm = rng.permutation(len(ref.labels))
        phases = np.exp(2j * np.pi * rng.random(len(perm)))
        shuffled = MolecularSpectrum(basis=ref.basis, b=ref.b,
                                     energies=ref.energies[perm],
                                     vectors=ref.vectors[:, perm] * phases)
        labelled = label_states(shuffled, ref)
        assert labelled.labels == tuple(ref.labels[k] for k in perm)

    def test_labels_survive_fine_march(self, electron_vertical):
        # a 45 degree rotation split into fine steps stays unambiguous
        specs = adiabatic_sweep(electron_vertical, ELECTRON, [2.2],
                                SolverOptions(field_step=0.05))
        assert "A:s" in specs[0].labels

    def test_unlabeled_reference_rejected(self, electron_vertical):
        spec = BlockHamiltonian(electron_vertical, ELECTRON).solve(
            [1.0]).spectrum(0)
        assert spec.labels is None
        with pytest.raises(ValueError):
            label_states(spec, spec)


def test_shell_names():
    assert shell_name(0, 0) == "s"
    assert shell_name(1, 0) == "p_x"
    assert shell_name(0, 1) == "p_y"
    assert shell_name(0, 2) == "d_y2"
    assert shell_name(3, 1) == "3.1"

