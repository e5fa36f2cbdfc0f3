"""Full 3D molecular spectrum from vertical times lateral product states.

The kinetic cross term of the Voigt-field gauge couples the vertical and
lateral motions through (sign) * i * hbar*Omega_c * y * d/dz, a kron of
the d/dz matrix with the y ladder over the product basis {vertical bound
states} x {lateral oscillator states}, ordered (v, n_x, n_y). H splits
into symmetry sectors, the connected components of its coupling graph
over the whole basis; the y ladder conserves n_x, so each sector lies in
one n_x block. In the gauge |v, n_y> -> (-sign*i)^n_y |v, n_y> a sector
is real symmetric, diag(e0(B)) + hbar*Omega_c(B) <0|y|1>(B) K, with
K = kron(d/dz, ladder) * sign(n_y' - n_y) field-free and the same for
either sign: the sign phases the eigenvectors and no eigenvalue. K is
built once per vertical spectrum, and each sector is solved in one real
batched stack over the fields. At B = 0 H is diagonal: no eigensolve is
made and no d/dz matrix is read. The lateral basis size
(options.lateral_quanta) comes from the SolverOptions that
adiabatic_sweep takes.

adiabatic_sweep is the one way from fields to labeled spectra. With two
bound vertical states a sector is tridiagonal with nonzero off-diagonals
(a Jacobi matrix), whose eigenvalues are simple: no two levels of a
sector ever cross (with more bound states, generically so; von Neumann
and Wigner). The adiabatic label of a sector's k-th level at any field
is therefore the basis label of its k-th level at B = 0, and every field
is solved on its own. Levels of different sectors do not couple and
cross exactly. At every field exactly degenerate levels are listed in
basis order of the states that name them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse.csgraph import connected_components

from .core import FieldPoint, ParticleSpecies, SolverOptions, cyclotron_energy
from .errors import EigenResidualError, NotHermitianError
from .lateral import lateral_states, renormalized_y_quantum, y_ladder, \
    y_zero_point
from .vertical import VerticalSpectrum, dz_matrix

# fields per batched solve in adiabatic_sweep: the spectra of a chunk take
# about 50 kB per field with two bound states and the default lateral basis
FIELD_CHUNK = 128
# d/dz entries below this fraction of max|d/dz| are set to 0 in the sector
# couplings: in symmetric wells the parity-forbidden entries come out of
# the FD eigenvectors at up to 2e-9 of the largest, not at 0, while the
# allowed ones of the wells tried stay above 5e-3
DZ_FLOOR = 1e-6
# (-i)^k; entry sign*n_y mod 4 is the exact gauge phase (-sign*i)^n_y
QUARTER_TURNS = np.array([1, -1j, -1, 1j])


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
    eg "B:s" or "A:p_y": the basis label of the level's rank at B = 0
    within its symmetry sector.
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


class BlockHamiltonian:
    """The field-independent parts of H for one vertical spectrum.

    The field enters H only through the dressed lateral quantum
    hbar*Omega_y(B), in the diagonal and in the scale <0|y|1> of the y
    ladder, and through hbar*Omega_c(B) of the cross term. Everything else
    (the product basis and, over all of it, the vertical energy, n_x + 1/2,
    n_y + 1/2 and n_y of each state, the zero-field diagonal and the state
    names) is built here once, and any set of fields is then solved with
    one real batched eigensolve per symmetry sector. The d/dz matrix, the
    sectors, their couplings K and their gauge phases are computed on the
    first solve at a nonzero field only. The lateral states are those with
    n_x + n_y <= options.lateral_quanta.

    Every spectrum is indexed by basis position before it is sorted: a
    sector's k-th level sits at the position of its k-th member, the state
    that names it, and at B = 0 each state's own level sits at its
    position. One stable sort per field then lists exactly degenerate
    levels in basis order (v, n_x, n_y), whatever the field.
    """

    def __init__(self, vertical: VerticalSpectrum, species: ParticleSpecies,
                 options: SolverOptions = SolverOptions()):
        self.states = lateral_states(options.lateral_quanta)
        n_v, n_lat = vertical.n_bound, len(self.states)
        self.vertical = vertical
        self.species = species
        self.basis = ProductBasis(
            tuple((v, nx, ny) for v in range(n_v) for nx, ny in self.states),
            vertical.labels[:n_v])
        nx, self.ny = np.tile(np.array(self.states).T, n_v)
        self.vertical_energy = np.repeat(vertical.bound_energies, n_lat)
        self.half_nx, self.half_ny = nx + 0.5, self.ny + 0.5
        q = species.lateral_quantum
        # the diagonal of H at B = 0, where it is all of H; bit for bit the
        # diagonal hamiltonians([0.0]) builds
        self.diagonal = self.vertical_energy + (self.half_nx * q
                                                + self.half_ny * q)
        shells = [shell_name(nx, ny) for nx, ny in self.states]
        self.names = np.array([f"{v}:{s}" for v in self.basis.vertical_labels
                               for s in shells], dtype=object)

    def __len__(self) -> int:
        return len(self.basis)

    def hamiltonians(self, b_values) -> list[np.ndarray]:
        """Per symmetry sector, in the order of sectors, the real stacked
        Hamiltonians of all fields in the gauge, in meV: one array of
        shape (fields, m, m) per sector,
        diag(e0(B)) + hbar*Omega_c(B) <0|y|1>(B) K."""
        species = self.species
        # the field scalars come one field at a time from the scalar
        # functions, so every diagonal matches a dense one-field assembly
        # bit for bit (math.hypot and np.hypot need not round alike)
        hoc = [cyclotron_energy(species, FieldPoint(b)) for b in b_values]
        q_y = [renormalized_y_quantum(species.lateral_quantum, c) for c in hoc]
        scale = np.array(hoc) * [y_zero_point(species, q) for q in q_y]
        q_y = np.array(q_y)
        stacks = []
        for members, coupling, _ in self.sectors:
            m = len(members)
            e0 = self.vertical_energy[members] + (
                self.half_nx[members] * species.lateral_quantum
                + self.half_ny[members] * q_y[:, None])
            h = scale[:, None, None] * coupling
            h[:, np.arange(m), np.arange(m)] = e0
            stacks.append(h)
        return stacks

    @cached_property
    def sectors(self) -> list[tuple]:
        """The symmetry sectors: each as its members, in stable ascending
        order of zero-field energy, their real symmetric coupling K, and
        their gauge phases (-sign*i)^n_y.

        K = kron(d/dz, ladder) * sign(n_y' - n_y) over the whole product
        basis, with d/dz entries below DZ_FLOOR of the largest set to
        exactly 0, so its nonzero entries are the edges of the coupling
        graph and a sector is a connected component of that graph. The y
        ladder is zero across n_x, so every sector lies in one n_x block.
        """
        dz = dz_matrix(self.vertical)
        dz = np.where(np.abs(dz) > DZ_FLOOR * np.abs(dz).max(), dz, 0.0)
        coupling = np.kron(dz, y_ladder(self.states)) * np.sign(
            self.ny - self.ny[:, None])
        n, component = connected_components(coupling, directed=False)
        order = np.argsort(self.diagonal, kind="stable")
        out = []
        for c in range(n):
            members = order[component[order] == c]
            out.append((members, coupling[np.ix_(members, members)],
                        QUARTER_TURNS[self.species.hyz_sign * self.ny[members]
                                      % 4]))
        return out

    def zero_field(self) -> MolecularSpectrum:
        """The labeled spectrum at B = 0 in closed form: H is diagonal, so
        each state's level is its diagonal entry."""
        return self._spectra((0.0,), self.diagonal[None],
                             np.eye(len(self), dtype=complex)[None])[0]

    def spectra(self, b_values) -> list[MolecularSpectrum]:
        """Labeled spectra at fields > 0, one diagonalize call per sector.

        A sector's k-th level at every field takes the label of the
        sector's k-th member, whose zero-field energy ranks k-th. Its real
        eigenvectors times the gauge phases are the eigenvectors over the
        product basis.
        """
        b_values = tuple(b_values)
        dim = len(self)
        energies = np.empty((len(b_values), dim))
        vectors = np.zeros((len(b_values), dim, dim), dtype=complex)
        for (members, _, phases), stack in zip(
                self.sectors, self.hamiltonians(b_values)):
            energies[:, members], sector_vectors = diagonalize(stack)
            vectors[:, members[:, None], members] = (phases[:, None]
                                                     * sector_vectors)
        return self._spectra(b_values, energies, vectors)

    def _spectra(self, b_values, energies, vectors) -> list[MolecularSpectrum]:
        """Spectra from levels indexed by basis position, level j named
        after state j: every field's levels sorted stably."""
        spectra = []
        for b, e, v in zip(b_values, energies, vectors):
            order = np.argsort(e, kind="stable")
            spectra.append(MolecularSpectrum(
                basis=self.basis, b=b, energies=e[order],
                vectors=v[:, order], labels=tuple(self.names[order])))
        return spectra


def adiabatic_sweep(vertical: VerticalSpectrum, species: ParticleSpecies,
                    b_values, options: SolverOptions = SolverOptions(),
                    ) -> list[MolecularSpectrum]:
    """Labeled spectra at the requested fields, each solved on its own.

    B = 0 takes the closed form; the other fields are solved FIELD_CHUNK
    at a time, one batched eigensolve per symmetry sector, and labeled by
    rank within their sectors. A field's spectrum does not depend on
    which other fields are requested.
    """
    requested = [round(float(b), 9) for b in b_values]
    if any(b < 0 for b in requested):
        raise ValueError("magnetic fields must be >= 0")
    ham = BlockHamiltonian(vertical, species, options)
    out = {0.0: ham.zero_field()} if 0.0 in requested else {}
    coupled = list(dict.fromkeys(b for b in requested if b))
    for start in range(0, len(coupled), FIELD_CHUNK):
        chunk = coupled[start:start + FIELD_CHUNK]
        out.update(zip(chunk, ham.spectra(chunk)))
    return [out[b] for b in requested]
