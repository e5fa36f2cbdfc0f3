"""Full 3D molecular spectrum from vertical times lateral product states.

The kinetic cross term of the Voigt-field gauge couples the vertical and
lateral motions through (sign) * i * hbar*Omega_c * y * d/dz, a kron of
the d/dz matrix with the y ladder over the product basis {vertical bound
states} x {lateral oscillator states}, ordered (v, n_x, n_y). H splits
into symmetry sectors, the connected components of its coupling graph;
the y ladder conserves n_x, so each sector lies in one n_x block, split
in two by the parity of v + n_y when the d/dz graph is bipartite.
In the gauge |v, n_y> -> (-sign*i)^n_y |v, n_y> a sector is real
symmetric, diag(e0(B)) + hbar*Omega_c(B) <0|y|1>(B) K, with
K = kron(d/dz, ladder) * sign(n_y' - n_y) field-free and the same for
either sign, which phases the eigenvectors and moves no level: a spectrum
is real levels and their labels, and no eigenvector is kept. The sectors
of equal size are stacked, and each size is solved in real batched
eigensolves over the requested fields, SLICE_FIELDS at a time
(FieldChunk), when a level in it is first read, so the emission lines,
B:s and A:s, cost the one size that holds them. At B = 0 H is diagonal:
B = 0 alone is its closed form, with no eigensolve and no d/dz matrix;
among other fields it is a row of their stacks, whose diagonal matrices
give the same levels bit for bit.

adiabatic_sweep is the one way from fields to labeled spectra. With two
bound vertical states a sector is a Jacobi matrix (tridiagonal, nonzero
off-diagonals), whose eigenvalues are simple: no two levels of a sector
ever cross (with more bound states, generically so; von Neumann and
Wigner). The adiabatic label of a sector's k-th level at any field is
therefore the basis label of its k-th level at B = 0, and every field is
solved on its own. Levels of different sectors do not couple and cross
exactly; exactly degenerate levels are listed in basis order of the
states that name them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .core import FieldPoint, ParticleSpecies, SolverOptions, cyclotron_energy
from .errors import EigenResidualError, NotHermitianError
from .lateral import lateral_states, renormalized_y_quantum, y_ladder, \
    y_zero_point
from .vertical import VerticalSpectrum, dz_matrix


SLICE_FIELDS = 1024  # the most fields one stack holds: bounded memory


def shell_name(nx: int, ny: int) -> str:
    total = nx + ny
    if total == 0:
        return "s"
    if total == 1:
        return "p_x" if nx == 1 else "p_y"
    if total == 2:
        return {(2, 0): "d_x2", (1, 1): "d_xy", (0, 2): "d_y2"}[(nx, ny)]
    return f"{nx}.{ny}"


@lru_cache(maxsize=16)
def basis_parts(vertical_labels: tuple[str, ...], lateral_quanta: int):
    """The lateral states, then n_x + 1/2, n_y, n_y + 1/2 and the name of
    each state of the product basis, ordered (v, n_x, n_y), and each
    name's position, built once and shared (read-only)."""
    states = lateral_states(lateral_quanta)
    nx, ny = np.tile(np.array(states).T, len(vertical_labels))
    names = np.array([f"{v}:{shell_name(*lateral)}" for v in vertical_labels
                      for lateral in states], dtype=object)
    arrays = (nx + 0.5, ny, ny + 0.5, names)
    for array in arrays:
        array.flags.writeable = False
    return (states,) + arrays + (
        {name: p for p, name in enumerate(names)},)


def diagonalize(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix, or
    of each matrix in a stack of shape (..., m, m), in one LAPACK call.

    Checks every matrix for Hermiticity up front and for the residual
    ||Hx - Ex|| afterwards, each against that matrix's own max|H|. Both
    checks are negated comparisons, so a NaN or infinite entry fails them.
    """
    scale = np.abs(h).max(axis=(-2, -1))
    scale = np.where(scale == 0.0, 1.0, scale)
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN skew
        skew = np.abs(h - h.swapaxes(-2, -1).conj()).max(axis=(-2, -1))
    if not (skew < 1e-10 * scale).all():
        raise NotHermitianError(
            "matrix is not finite and Hermitian within 1e-10")
    energies, vectors = np.linalg.eigh(h)
    residual = np.abs(h @ vectors - vectors * energies[..., None, :]).max(
        axis=(-2, -1))
    if not (residual <= 1e-8 * scale).all():
        raise EigenResidualError(
            f"eigen residual {residual.max():.2e} is not finite or exceeds "
            f"tolerance")
    return energies, vectors


@dataclass(eq=False)
class MolecularSpectrum:
    """Labeled eigenlevels of the full problem at one field point: row
    `row` of its FieldChunk's levels, times ratio (1, or the power of two
    that scales a hole from the electron).

    energy_of_label solves only the sector size that holds the label;
    energies (ascending), labels and order solve every size of the chunk
    on first read. A label is the (vertical, shell) identity of a level,
    eg "B:s" or "A:p_y": the basis label of its rank at B = 0 within its
    symmetry sector. Level j sat at basis position order[j]."""

    b: float
    chunk: FieldChunk = field(repr=False)
    row: int = field(repr=False)
    ratio: float = field(default=1.0, repr=False)

    def energy_of_label(self, label: str) -> float | None:
        position = self.chunk.positions.get(label)
        if position is None:
            return None
        self.chunk.solve(self.chunk.size_of[position])
        return float(self.chunk.levels[self.row, position] * self.ratio)

    def scaled(self, ratio: float) -> MolecularSpectrum:
        """This spectrum for H times ratio, a power of two."""
        return MolecularSpectrum(self.b, self.chunk, self.row,
                                 self.ratio * ratio)

    @cached_property
    def order(self) -> np.ndarray:
        self.chunk.solve_all()
        return np.argsort(self.chunk.levels[self.row], kind="stable")

    @cached_property
    def energies(self) -> np.ndarray:
        return self.chunk.levels[self.row, self.order] * self.ratio

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.chunk.names[self.order].tolist())


class FieldChunk:
    """The levels of one sweep's distinct fields, one sector size
    diagonalized on the first read of a level it holds, in one call per
    SLICE_FIELDS fields, and kept. levels[f, p] is the level at field f
    named after basis state p, the k-th level of a sector at the position
    of its k-th member; members[s] are the members (k, m) of the sectors
    of size index s, and solved[s] says whether their levels are known.
    B = 0 among other fields is one more row of the stacks. At B = 0 alone
    H is diagonal: the levels are its diagonal, each state a sector of
    one, and nothing is solved or kept of the Hamiltonian."""

    def __init__(self, ham: BlockHamiltonian, b_values: list[float]):
        self.names, self.positions = ham.names, ham.positions
        if b_values == [0.0]:
            self.levels = ham.diagonal[None]
            self.members = [np.arange(len(ham))[:, None]]
            self.solved = [True]
        else:
            self.ham, self.b_values = ham, b_values
            self.levels = np.empty((len(b_values), len(ham)))
            self.members = [members for members, _ in ham.sectors]
            self.solved = [False] * len(self.members)
        size_of = np.empty(len(ham), dtype=int)  # each state's size index
        for size, members in enumerate(self.members):
            size_of[members] = size
        self.size_of = size_of.tolist()

    def solve(self, size: int) -> None:
        if not self.solved[size]:
            for f in range(0, len(self.b_values), SLICE_FIELDS):
                fields = self.b_values[f:f + SLICE_FIELDS]
                self.levels[f:f + len(fields), self.members[size]], _ = \
                    diagonalize(self.ham.hamiltonians(fields, size))
            self.solved[size] = True

    def solve_all(self) -> None:
        for size in range(len(self.members)):
            self.solve(size)
        self.ham = None  # every level is known: no stack is built again


class BlockHamiltonian:
    """The field-independent parts of H for one vertical spectrum.

    The field enters H only through the dressed lateral quantum
    hbar*Omega_y(B), in the diagonal and in the scale <0|y|1> of the y
    ladder, and through hbar*Omega_c(B) of the cross term. The rest is
    built once: the basis parts once per basis (basis_parts), the vertical
    energy and zero-field diagonal of each state here, and the d/dz
    matrix, the sectors and their couplings K on the first solve at a
    nonzero field only. The lateral states are those with
    n_x + n_y <= options.lateral_quanta.

    Every spectrum is indexed by basis position before it is sorted: a
    sector's k-th level sits at the position of its k-th member, the state
    that names it, and at B = 0 each state's own level sits at its
    position. One stable sort of a field's levels then lists exactly
    degenerate levels in basis order (v, n_x, n_y), whatever the field.
    """

    def __init__(self, vertical: VerticalSpectrum, species: ParticleSpecies,
                 options: SolverOptions = SolverOptions()):
        (self.states, self.half_nx, self.ny, self.half_ny, self.names,
         self.positions) = basis_parts(vertical.labels,
                                       options.lateral_quanta)
        self.vertical = vertical
        self.species = species
        self.vertical_energy = np.repeat(vertical.energies, len(self.states))
        # the diagonal of H at B = 0, where it is all of H
        self.diagonal = self.e0(species.lateral_quantum)

    def __len__(self) -> int:
        return len(self.names)

    def e0(self, q_y) -> np.ndarray:
        """The diagonal of H over the basis for the y quantum q_y, a
        scalar or a column of one per field."""
        return self.vertical_energy + (
            self.half_nx * self.species.lateral_quantum + self.half_ny * q_y)

    def hamiltonians(self, b_values, size: int) -> np.ndarray:
        """The real stacked Hamiltonians of the k sectors of size index
        size (sectors[size]) at all fields in the gauge, in meV, of shape
        (fields, k, m, m): diag(e0(B)) + hbar*Omega_c(B) <0|y|1>(B) K."""
        species = self.species
        # the field scalars come one field at a time from the scalar
        # functions, so every diagonal matches a dense one-field assembly
        # bit for bit (math.hypot and np.hypot need not round alike)
        hoc = [cyclotron_energy(species, FieldPoint(b)) for b in b_values]
        q_y = [renormalized_y_quantum(species.lateral_quantum, c) for c in hoc]
        scale = np.array(hoc) * [y_zero_point(species, q) for q in q_y]
        members, coupling = self.sectors[size]
        m = members.shape[1]
        h = scale[:, None, None, None] * coupling
        h[..., np.arange(m), np.arange(m)] = self.e0(
            np.array(q_y)[:, None])[:, members]
        return h

    @cached_property
    def sectors(self) -> list[tuple]:
        """The symmetry sectors stacked by size, one entry per size m, largest
        first: the members of its k sectors (k, m), each row in stable
        ascending order of zero-field energy, and their real symmetric
        couplings K (k, m, m).

        K = kron(d/dz, ladder) * sign(n_y' - n_y): the tensor product of
        the vertical states' d/dz graph with the n_y path of each n_x block
        (the ladder is zero across n_x). A state whose row of K is zero
        (n_x = lateral_quanta, or one bound state) is a sector alone. By
        Weichsel's theorem (Proc. AMS 13, 47, 1962) the rest of a block is
        one sector, or two when the d/dz graph is bipartite: the states of
        even and of odd v + n_y. v % 2 colours it for mirror-image wells
        (runs == runs[::-1]), where state v has parity (-1)^v, and for two
        bound states; unequal wells binding three or more hold a triangle.
        The rule assumes that every d/dz entry parity allows is nonzero.
        The entries parity forbids (i + j even) sum to rounding, 5e-16 to
        1e-13 of the largest, not to 0, but join states of opposite
        v + n_y parity, so no sector reads them. A sector is named by its
        smallest member, and the sectors of a size come in ascending order
        of that name, the order a graph search scanning the states numbers
        them in.
        """
        dz = dz_matrix(self.vertical)
        coupling = np.kron(dz, y_ladder(self.states)) * np.sign(
            self.ny - self.ny[:, None])
        group = 2 * self.half_nx  # 2 n_x + 1: one group per n_x block
        runs = self.vertical.runs
        if runs == runs[::-1] or len(dz) == 2:  # bipartite: v % 2 colours
            group += (np.arange(len(group)) // len(self.states) + self.ny) % 2
        lone = ~coupling.any(axis=1)
        group[lone] = -1 - np.flatnonzero(lone)  # a sector of its own each
        order = np.argsort(self.diagonal, kind="stable")
        sectors = sorted((order[group[order] == g] for g in np.unique(group)),
                         key=min)
        out = []
        for m in sorted({len(s) for s in sectors}, reverse=True):
            rows = np.array([s for s in sectors if len(s) == m])
            out.append((rows, coupling[rows[..., None], rows[:, None]]))
        return out


def adiabatic_sweep(vertical: VerticalSpectrum, species: ParticleSpecies,
                    b_values, options: SolverOptions = SolverOptions(),
                    ) -> list[MolecularSpectrum]:
    """Labeled spectra at the requested fields, each solved on its own.

    The distinct fields share one FieldChunk, one batched eigensolve per
    sector size read and SLICE_FIELDS fields, and are labeled by rank
    within their sectors; B = 0 alone takes the closed form. A field's
    spectrum does not depend on which other fields are requested or read.
    A NaN, infinite or negative field raises ValueError here, before
    anything is solved.
    """
    # rounded to 1e-9 T, so every field below 5e-10 T is exactly B = 0,
    # subnormal ones too: a subnormal hbar*Omega_c does not scale by a
    # power of two r exactly, which spectroscopy.hole_scale relies on
    requested = [round(float(b), 9) + 0.0 for b in b_values]
    if not all(0.0 <= b < np.inf for b in requested):
        raise ValueError("magnetic fields must be finite and >= 0")
    fields = list(dict.fromkeys(requested))
    chunk = FieldChunk(BlockHamiltonian(vertical, species, options), fields)
    spectra = {b: MolecularSpectrum(b, chunk, row)
               for row, b in enumerate(fields)}
    return [spectra[b] for b in requested]
