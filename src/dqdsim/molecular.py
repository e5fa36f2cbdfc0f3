"""Full 3D molecular spectrum from vertical times lateral product states.

The kinetic cross term of the Voigt-field gauge couples the vertical and
lateral motions through (sign) * i * hbar*Omega_c * y * d/dz. In the
product basis {vertical bound states} x {lateral oscillator states} this
is a kron of the d/dz matrix with the y ladder matrix, purely imaginary
off-diagonal, Hermitian overall. n_x is conserved, so the Hamiltonian is
block-diagonal in n_x and the blocks are diagonalized independently; the
field-independent parts are built once per vertical spectrum and a set of
fields is diagonalized with one batched call per block. The cross term
vanishes at B = 0, where no d/dz matrix is read. The lateral basis size
(options.lateral_quanta) and the march step (options.field_step) come from
the SolverOptions that adiabatic_sweep takes.

adiabatic_sweep is the one way from fields to labeled spectra: labels
come from the basis indices at B = 0 and follow each level along a march
from zero by optimal one-to-one overlap assignment (adiabatic
continuation) between consecutive field steps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import FieldPoint, ParticleSpecies, SolverOptions, cyclotron_energy
from .errors import AmbiguousContinuationError, BasisMismatchError, \
    EigenResidualError, NotHermitianError
from .lateral import lateral_states, renormalized_y_quantum, y_ladder, \
    y_zero_point
from .vertical import VerticalSpectrum, dz_matrix

OVERLAP_THRESHOLD = 0.7
MAX_HALVINGS = 10
# fields per batched solve in adiabatic_sweep: a fine field_step can ask
# for thousands of march points, and the block stacks take about 9 kB per
# field and array with two bound states and the default lateral basis
FIELD_CHUNK = 128


def shell_name(nx: int, ny: int) -> str:
    total = nx + ny
    if total == 0:
        return "s"
    if total == 1:
        return "p_x" if nx == 1 else "p_y"
    if total == 2:
        return {(2, 0): "d_x2", (1, 1): "d_xy", (0, 2): "d_y2"}[(nx, ny)]
    return f"{nx}.{ny}"


@dataclass(frozen=True)
class ProductBasis:
    """Composite indices (v, n_x, n_y), v-major then n_x then n_y, and the
    names of the vertical states."""

    entries: tuple[tuple[int, int, int], ...]
    vertical_labels: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def label_of(self, index: int) -> str:
        v, nx, ny = self.entries[index]
        return f"{self.vertical_labels[v]}:{shell_name(nx, ny)}"


def diagonalize(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix, or
    of each matrix in a stack of shape (..., m, m), in one LAPACK call.

    Checks every matrix for Hermiticity up front and for the residual
    ||Hx - Ex|| afterwards, each against that matrix's own max|H|.
    """
    scale = np.abs(h).max(axis=(-2, -1))
    scale = np.where(scale == 0.0, 1.0, scale)
    skew = np.abs(h - h.swapaxes(-2, -1).conj()).max(axis=(-2, -1))
    if (skew >= 1e-10 * scale).any():
        raise NotHermitianError("matrix is not Hermitian within 1e-10")
    energies, vectors = np.linalg.eigh(h)
    residual = np.abs(h @ vectors - vectors * energies[..., None, :]).max(
        axis=(-2, -1))
    if (residual > 1e-8 * scale).any():
        raise EigenResidualError(
            f"eigen residual {residual.max():.2e} exceeds tolerance")
    return energies, vectors


@dataclass(eq=False)
class MolecularSpectrum:
    """Labeled eigenlevels of the full problem at one field point.

    energies ascend; column k of vectors is level k over the product
    basis. labels hold the (vertical, shell) identity of each level,
    eg "B:s" or "A:p_y", assigned from basis indices at zero field and by
    adiabatic continuation along a sweep otherwise.
    """

    basis: ProductBasis
    b: float
    energies: np.ndarray
    vectors: np.ndarray
    labels: tuple[str, ...] | None = None

    def index_of_label(self, label: str) -> int | None:
        if self.labels is None:
            return None
        try:
            return self.labels.index(label)
        except ValueError:
            return None

    def energy_of_label(self, label: str) -> float | None:
        idx = self.index_of_label(label)
        return None if idx is None else float(self.energies[idx])


class Block(NamedTuple):
    """One conserved-n_x block: its positions in the product basis; the
    vertical energy and n_y + 1/2 of each position, and its n_x + 1/2;
    the y ladder of its lateral states."""

    index: np.ndarray
    vertical_energy: np.ndarray
    half_nx: float
    half_ny: np.ndarray
    ladder: np.ndarray


class BlockHamiltonian:
    """The field-independent parts of H for one vertical spectrum.

    The field enters H only through the dressed lateral quantum
    hbar*Omega_y(B), in the diagonal and in the scale <0|y|1> of the y
    ladder, and through the prefactor sign * i * hbar*Omega_c(B) of the
    cross term. Everything else (the product basis, the n_x block index
    arrays and each block's y ladder) is built here once, and any set of
    fields is then solved with one batched eigensolve per n_x block. The
    d/dz matrix is computed on the first solve at a nonzero field only.
    The lateral states are those with n_x + n_y <= options.lateral_quanta.
    """

    def __init__(self, vertical: VerticalSpectrum, species: ParticleSpecies,
                 options: SolverOptions = SolverOptions()):
        states = lateral_states(options.lateral_quanta)
        n_v, n_lat = vertical.n_bound, len(states)
        self.vertical = vertical
        self.species = species
        self.basis = ProductBasis(
            tuple((v, nx, ny) for v in range(n_v) for nx, ny in states),
            vertical.labels[:n_v])
        lateral_nx, lateral_ny = np.array(states).T
        ladder = y_ladder(states)
        nx = np.tile(lateral_nx, n_v)
        vertical_energy = np.repeat(vertical.bound_energies, n_lat)
        half_ny = np.tile(lateral_ny + 0.5, n_v)
        self.blocks = []
        for n in range(options.lateral_quanta + 1):
            index = np.flatnonzero(nx == n)
            own = np.flatnonzero(lateral_nx == n)
            self.blocks.append(Block(index, vertical_energy[index], n + 0.5,
                                     half_ny[index], ladder[own][:, own]))
        dim = len(self.basis)
        # where the blocks' concatenated levels and raveled eigenvectors
        # land in the full basis
        self.level_slots = np.concatenate([b.index for b in self.blocks])
        self.vector_slots = np.concatenate(
            [(b.index[:, None] * dim + b.index).ravel() for b in self.blocks])

    def __len__(self) -> int:
        return len(self.basis)

    @cached_property
    def dz(self) -> np.ndarray:
        """<v_i| d/dz |v_j> over the bound vertical states, in 1/nm."""
        return dz_matrix(self.vertical)

    def hamiltonians(self, b_values) -> list[np.ndarray]:
        """Per n_x block, the stacked Hamiltonians of all fields, in meV:
        one array of shape (fields, m, m) per block, in block order."""
        species = self.species
        # the field scalars come one field at a time from the scalar
        # functions, so every entry matches a dense one-field assembly bit
        # for bit (math.hypot and np.hypot need not round alike)
        hoc = [cyclotron_energy(species, FieldPoint(b)) for b in b_values]
        q_y = [renormalized_y_quantum(species.lateral_quantum, c) for c in hoc]
        y01 = np.array([y_zero_point(species, q) for q in q_y])
        prefactor = species.hyz_sign * 1j * np.array(hoc)
        q_y = np.array(q_y)
        coupled = any(b_values)  # else the cross term is 0 and d/dz unread
        stacks = []
        for index, vertical_energy, half_nx, half_ny, ladder in self.blocks:
            m = len(index)
            e0 = vertical_energy + (half_nx * species.lateral_quantum
                                    + half_ny * q_y[:, None])
            h = np.zeros((len(b_values), m, m), dtype=complex)
            h[:, np.arange(m), np.arange(m)] = e0
            if coupled:
                # kron(dz, ladder * y01) at every field
                ymat = ladder * y01[:, None, None]
                cross = (self.dz[None, :, None, :, None]
                         * ymat[:, None, :, None, :]).reshape(-1, m, m)
                h += prefactor[:, None, None] * cross
            stacks.append(h)
        return stacks

    def solve(self, b_values) -> FieldStack:
        """Eigenpairs at every field, one diagonalize call per n_x block.

        Solving the conserved-n_x blocks independently keeps eigenvectors
        from mixing across blocks when levels of different n_x cross.
        """
        b_values = tuple(b_values)
        energies, vectors = [], []
        for h in self.hamiltonians(b_values):
            block_e, block_v = diagonalize(h)
            energies.append(block_e)
            vectors.append(block_v.reshape(len(b_values), -1))
        return FieldStack(self, b_values, np.concatenate(energies, axis=1),
                          np.concatenate(vectors, axis=1))


@dataclass(frozen=True)
class FieldStack:
    """Block eigenpairs of a set of fields, from BlockHamiltonian.solve.

    Row i of each array belongs to b_values[i]: the eigenvalues of the
    blocks concatenated in block order, and their eigenvectors raveled
    and concatenated.
    """

    hamiltonian: BlockHamiltonian
    b_values: tuple[float, ...]
    energies: np.ndarray
    vectors: np.ndarray

    def spectrum(self, i: int) -> MolecularSpectrum:
        """The full spectrum at field b_values[i], levels in ascending order.

        Labels are assigned from the dominant basis component when B = 0
        and left None otherwise (use label_states / adiabatic_sweep).
        """
        ham = self.hamiltonian
        dim = len(ham)
        all_e = np.empty(dim)
        all_e[ham.level_slots] = self.energies[i]
        all_v = np.zeros(dim * dim, dtype=complex)
        all_v[ham.vector_slots] = self.vectors[i]
        order = np.argsort(all_e, kind="stable")
        spectrum = MolecularSpectrum(basis=ham.basis, b=self.b_values[i],
                                     energies=all_e[order],
                                     vectors=all_v.reshape(dim, dim)[:, order])
        if spectrum.b == 0.0:
            spectrum.labels = dominant_labels(spectrum)
        return spectrum


def dominant_labels(spectrum: MolecularSpectrum) -> tuple[str, ...]:
    """Label every level by its largest basis component."""
    dominant = np.argmax(np.abs(spectrum.vectors) ** 2, axis=0)
    return tuple(spectrum.basis.label_of(k) for k in dominant.tolist())


def label_states(spectrum: MolecularSpectrum,
                 reference: MolecularSpectrum) -> MolecularSpectrum:
    """Adiabatic labels: each level inherits the label of its ancestor in
    `reference` under the optimal one-to-one overlap assignment.

    Overlaps |<ref_i|new_j>| are taken between eigenvector columns over
    the shared product basis, and the assignment maximizing their sum is
    found by the Hungarian method (scipy's linear_sum_assignment). If any
    matched pair falls below OVERLAP_THRESHOLD the continuation is ambiguous
    and the caller must reduce the field step. The overlaps are the
    moduli of a unitary matrix, so whenever every matched overlap exceeds
    1/sqrt(2) the assignment is also the greedy largest-overlap-first one.
    """
    if reference.labels is None:
        raise ValueError("reference spectrum is unlabeled")
    if len(reference.basis) != len(spectrum.basis):
        raise BasisMismatchError("reference basis size differs")
    overlap = np.abs(reference.vectors.conj().T @ spectrum.vectors)
    ref_index, new_index = linear_sum_assignment(overlap, maximize=True)
    worst = overlap[ref_index, new_index].min()
    if worst < OVERLAP_THRESHOLD:
        raise AmbiguousContinuationError(
            f"overlap {worst:.3f} below {OVERLAP_THRESHOLD} between "
            f"B={reference.b} T and B={spectrum.b} T")
    ancestor = np.empty_like(new_index)
    ancestor[new_index] = ref_index
    return replace(spectrum, labels=tuple(
        reference.labels[i] for i in ancestor.tolist()))


def _continue(ham: BlockHamiltonian, prev: MolecularSpectrum,
              cur: MolecularSpectrum, depth: int = 0) -> MolecularSpectrum:
    """cur labeled by continuation from prev, halving the step (solving
    its midpoint) while it is ambiguous, up to MAX_HALVINGS deep."""
    try:
        return label_states(cur, prev)
    except AmbiguousContinuationError:
        if depth >= MAX_HALVINGS:
            raise
        mid = ham.solve([0.5 * (prev.b + cur.b)]).spectrum(0)
        mid = _continue(ham, prev, mid, depth + 1)
        return _continue(ham, mid, cur, depth + 1)


def adiabatic_sweep(vertical: VerticalSpectrum, species: ParticleSpecies,
                    b_values, options: SolverOptions = SolverOptions(),
                    ) -> list[MolecularSpectrum]:
    """Labeled spectra at the requested fields, continued from B = 0.

    The grid is a march in steps of options.field_step from zero plus the
    requested fields. It is solved FIELD_CHUNK fields at a time, one
    batched eigensolve per n_x block, and labels are continued along it
    by label_states, building each field's full spectrum only when the
    march reaches it. Where a step turns ambiguous, its midpoint is
    solved and both halves continued (up to MAX_HALVINGS deep), reusing
    the spectrum already solved at the far end.
    """
    requested = [round(float(b), 9) for b in b_values]
    if not requested:
        return []
    if any(b < 0 for b in requested):
        raise ValueError("magnetic fields must be >= 0")
    march = np.arange(0.0, max(requested) + options.field_step / 2,
                      options.field_step)
    grid = sorted(set(round(float(b), 9) for b in march) | set(requested))
    ham = BlockHamiltonian(vertical, species, options)
    wanted = set(requested)
    out = {}
    for start in range(0, len(grid), FIELD_CHUNK):
        stack = ham.solve(grid[start:start + FIELD_CHUNK])
        for i, b in enumerate(stack.b_values):
            cur = stack.spectrum(i)
            # the march starts at B = 0, where labels come from the basis
            prev = cur if b == 0.0 else _continue(ham, prev, cur)
            if b in wanted:
                out[b] = prev
    return [out[b] for b in requested]
