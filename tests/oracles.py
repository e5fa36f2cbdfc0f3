"""Independent reference computations the solver tests check against.

The scalar references deliberately avoid the package's finite-difference
and matrix machinery: transcendental roots by bracketed bisection, analytic
box levels (continuum and FD, with the floor under a box that binds its
lowest k FD levels), oscillator integrals by Gauss-Hermite quadrature, a plain
Sturm count, the FD levels to 80 bits by a longdouble Sturm multisection
(extended_eigenvalues), and the run encoding of a potential by np.diff
(diff_runs), which turns an array into the runs vertical.solve_vertical
takes.
The module also holds LAPACK's inverse iteration for the vertical
eigenvectors (stein_vectors), the d/dz matrix by numpy's gradient
and trapezoid rules (dz_reference), the grid nodes, the wells sampled
at them and the well weights of the vertical states (nodes, well_masks,
sampled_wells, localization), the bound states of a well given by its
numbers (solve_well), the dense Hamiltonian over
the whole product basis (build_basis, y_matrix, product_basis, assemble,
label_of), which the symmetry sectors are checked against, the sectors
one at a time with their gauge phases (QUARTER_TURNS, sector_list), the
sectors found by scipy's graph search (component_sectors), which the
library's closure search is checked against, the dense eigenvectors that
one eigensolve per sector scatters over the product basis
(scattered_vectors), which paired with a library spectrum's levels and
labels (dense_spectra) must solve the dense complex H (gauge_residual),
and the adiabatic march over whole n_x blocks of that dense Hamiltonian
(block_spectra, label_states, march), which the rank labels of the
sectors are checked against.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dstein
from scipy.optimize import brentq, linear_sum_assignment
from scipy.sparse.csgraph import connected_components

from dqdsim.core import FieldPoint, ParticleSpecies, SolverOptions, \
    cyclotron_energy, kinetic_coefficient
from dqdsim.lateral import renormalized_y_quantum, y_ladder, y_zero_point
from dqdsim.molecular import BlockHamiltonian, ProductBasis, \
    diagonalize, shell_name
from dqdsim.vertical import VerticalSpectrum, build_potential, dz_matrix, \
    solve_vertical

# CODATA 2018, fetched independently of the package constants
HBAR_SI = 1.054571817e-34
M0_SI = 9.1093837015e-31
E_SI = 1.602176634e-19

HB2_2M0 = HBAR_SI ** 2 / (2 * M0_SI) / (E_SI * 1e-3) * 1e18  # meV nm^2
# (-i)^k; entry sign*n_y mod 4 is the exact gauge phase (-sign*i)^n_y
QUARTER_TURNS = np.array([1, -1j, -1, 1j])


def box_energies(width, mass_ratio, n_levels):
    """Hard-wall box levels E_n = n^2 pi^2 (hbar^2/2m) / W^2."""
    n = np.arange(1, n_levels + 1)
    return n ** 2 * np.pi ** 2 * (HB2_2M0 / mass_ratio) / width ** 2


def fd_box_levels(n_points, c_h2, count):
    """The lowest `count` levels of the FD box of n_points nodes, hard walls
    one step past the end nodes, in closed form: 4 c/h^2 sin^2(j pi /
    2(n + 1)) for j = 1..count, with c_h2 = c/h^2."""
    j = np.arange(1, count + 1)
    return 4 * c_h2 * np.sin(j * np.pi / (2 * (n_points + 1))) ** 2


def box_floor(n_points, c_h2, count):
    """V0 halfway between the count-th and (count + 1)-th FD box levels: a
    uniform floor -V0 binds exactly the lowest `count` levels of the box,
    and any potential at or below it binds at least that many."""
    return float(np.mean(fd_box_levels(n_points, c_h2, count + 1)[-2:]))


def finite_well_levels(depth, width, mass_ratio):
    """Bound levels of a single finite square well from the transcendental
    equations u tan u = k (even) and -u cot u = k (odd), k = sqrt(u0^2-u^2),
    solved by bracketed root finding. Energies from the barrier edge."""
    a = width / 2
    c = HB2_2M0 / mass_ratio
    u0 = np.sqrt(depth * a * a / c)

    def k_of(u):
        return np.sqrt(max(u0 * u0 - u * u, 0.0))

    levels = []
    branch = 0
    while branch * np.pi / 2 < u0:
        lo = branch * np.pi / 2 + 1e-12
        hi = min((branch + 1) * np.pi / 2 - 1e-12, u0 - 1e-15)
        if branch % 2 == 0:
            f = lambda u: u * np.tan(u) - k_of(u)
        else:
            f = lambda u: -u / np.tan(u) - k_of(u)
        if hi > lo and f(lo) * f(hi) < 0:
            u = brentq(f, lo, hi, xtol=1e-14)
            levels.append(-depth + c * u * u / (a * a))
        branch += 1
    return sorted(levels)


def ho_y_element(n, m, mass_ratio, quantum):
    """<n| y |m> by 200-point Gauss-Hermite quadrature (exact for these
    polynomial-times-Gaussian integrands)."""
    return _ho_moment(n, m, mass_ratio, quantum, power=1)


def ho_y2_element(n, m, mass_ratio, quantum):
    """<n| y^2 |m> by Gauss-Hermite quadrature."""
    return _ho_moment(n, m, mass_ratio, quantum, power=2)


def _ho_moment(n, m, mass_ratio, quantum, power):
    a2 = 2.0 * (HB2_2M0 / mass_ratio) / quantum
    a = np.sqrt(a2)
    nodes, weights = np.polynomial.hermite.hermgauss(200)

    def h(k, xi):
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        return np.polynomial.hermite.hermval(xi, coeffs)

    # psi_n(y) psi_m(y) y^p dy with y = a*xi; the exp(-xi^2) weight is
    # supplied by the quadrature rule.
    norm = 1.0 / np.sqrt(np.pi * 2.0 ** (n + m)
                         * math.factorial(n) * math.factorial(m))
    vals = h(n, nodes) * h(m, nodes) * (a * nodes) ** power
    return norm * np.sum(weights * vals)


def sturm_count(diag, off, energy):
    """Number of eigenvalues of the symmetric tridiagonal matrix (diag, off)
    below `energy`: the negative pivots of the LDL^T factorization of
    T - energy, by the plain pivot recurrence one row at a time. A zero pivot
    counts as negative, as in LAPACK's bisection."""
    count, pivot, off = 0, 1.0, [0.0] + np.asarray(off).tolist()
    for d, e in zip(diag.tolist(), off):
        pivot = d - energy - e * e / pivot
        if pivot == 0.0:
            pivot = -np.finfo(float).tiny
        count += pivot < 0.0
    return count


def extended_eigenvalues(runs, c_h2, k):
    """The lowest k eigenvalues of the FD matrix of the runs, 2 c_h2 plus
    the potential on the diagonal and -c_h2 off it, in np.longdouble (80
    bits on x86): Sturm-count multisection from [min V, max V + 4 c_h2],
    63 shifts per root per round in one vector, down to adjacent
    longdoubles. The pivots of (T - x)/c_h2, written 1 + u_j with
    u_j = (V_j - x)/c_h2 + u_{j-1}/(1 + u_{j-1}), lose no digits to the 2
    on the diagonal; each node's pivots are kept and the negative ones
    counted once per round."""
    ld, shifts = np.longdouble, 63
    c = ld(c_h2)
    a = np.full(k, ld(min(value for value, _ in runs)))
    b = np.full(k, ld(max(value for value, _ in runs)) + 4 * c)
    fractions = np.arange(1, shifts + 1, dtype=ld) / (shifts + 1)
    pivots = np.empty((sum(m for _, m in runs), k * shifts), dtype=ld)
    u = np.empty(k * shifts, dtype=ld)
    while True:
        x = (a[:, None] + (b - a)[:, None] * fractions).ravel()
        ratio, j = np.ones_like(u), 0  # u_0/(1 + u_0) = 1: no row 0
        for value, m in runs:
            shifted = ld(value) / c - x / c
            for pivot in pivots[j:j + m]:
                np.add(shifted, ratio, out=u)
                np.add(u, 1, out=pivot)
                np.divide(u, pivot, out=ratio)
            j += m
        if not np.all(np.isfinite(ratio)):  # a zero pivot
            raise ArithmeticError("a shift hit a pivot of zero")
        below = (np.count_nonzero(pivots < 0, axis=0).reshape(k, shifts)
                 <= np.arange(k)[:, None])
        x = x.reshape(k, shifts)
        lo = np.where(below, x, a[:, None]).max(axis=1)
        hi = np.where(below, b[:, None], x).min(axis=1)
        if np.array_equal(lo, a) and np.array_equal(hi, b):
            return (a + b) / 2
        a, b = lo, hi


def diff_runs(potential):
    """(value, length) runs of equal consecutive nodes, from np.diff: the
    encoding the transfer-matrix eigensolver first used. The difference of
    two finite nodes near +-max float overflows to +-inf, which is nonzero
    and so still splits them; only its warning is silenced."""
    with np.errstate(over="ignore"):
        starts = np.flatnonzero(np.diff(potential)) + 1
    lengths = np.diff(np.concatenate(([0], starts, [len(potential)])))
    return list(zip(potential[np.r_[0, starts]].tolist(), lengths.tolist()))


def stein_vectors(runs, step: float, species: ParticleSpecies,
                  energies) -> np.ndarray:
    """LAPACK stein's inverse iteration at the given energies on the FD
    matrix, 2c/h^2 plus the runs' potential on the diagonal and -c/h^2 off
    it, as one unsplit block: columns of unit L2 norm on the grid, largest-
    amplitude lobe positive, like VerticalSpectrum.wavefunctions. Forming
    2c/h^2 + V rounds each diagonal entry by up to eps max|diag|/2."""
    values, lengths = zip(*runs)
    c_h2 = kinetic_coefficient(species) / step ** 2
    n = sum(lengths)
    diag = 2.0 * c_h2 + np.repeat(values, lengths)
    vectors, info = dstein(diag, np.full(n - 1, -c_h2), energies,
                           np.ones(n, np.int32),
                           np.r_[n, np.zeros(n - 1, np.int32)])
    if info != 0:
        raise LinAlgError(f"stein failed with info {info}")
    lobes = vectors[np.argmax(np.abs(vectors), axis=0),
                    np.arange(vectors.shape[1])]
    return vectors * (np.sign(lobes) / np.sqrt(step))


def dz_reference(spectrum: VerticalSpectrum) -> np.ndarray:
    """<v_i| d/dz |v_j> with np.gradient derivatives (one-sided at the
    ends) and trapezoid quadrature, antisymmetrized as (D - D^T)/2."""
    psi = spectrum.wavefunctions
    h = spectrum.step
    dpsi = np.gradient(psi, h, axis=0)
    d = np.empty((psi.shape[1], psi.shape[1]))
    for i in range(psi.shape[1]):
        for j in range(psi.shape[1]):
            d[i, j] = np.trapezoid(psi[:, i] * dpsi[:, j], dx=h)
    return (d - d.T) / 2.0


def nodes(n: int, step: float) -> np.ndarray:
    """The positions of n nodes `step` nm apart centred on the origin, the
    barrier midpoint, as build_potential places them, in nm."""
    half = (n - 1) * step / 2
    return np.linspace(-half, half, n)


def well_masks(width_h: float, barrier_l: float, n: int,
               step: float) -> list[np.ndarray]:
    """Per well, [-L/2 - H, -L/2) and [L/2, L/2 + H), the nodes z of the
    grid of n nodes in it to 1e-9 of a step, the edge rule of
    build_potential: node indices from ceil((lo - z_min)/h - 1e-9) up to
    ceil((hi - z_min)/h - 1e-9), z_min = -(n - 1)h/2. So a node on an edge
    whose linspace position rounds off it stays on it: at H = 4.875 nm,
    L = 50 nm node 2487 lies at -25.000000000000004 nm, on well 1's upper
    edge, and belongs to the barrier."""
    z_min, index = -(n - 1) * step / 2, np.arange(n)
    masks = []
    for support in ((-barrier_l / 2 - width_h, -barrier_l / 2),
                    (barrier_l / 2, barrier_l / 2 + width_h)):
        first, end = (math.ceil((z - z_min) / step - 1e-9) for z in support)
        masks.append((index >= first) & (index < end))
    return masks


def sampled_wells(width_h: float, barrier_l: float, depth1: float,
                  depth2: float, n: int, step: float) -> np.ndarray:
    """The double well at the node positions: -depth1 at the nodes inside
    well 1, -depth2 at their mirror images, 0 elsewhere."""
    potential = np.zeros(n)
    mask = well_masks(width_h, barrier_l, n, step)[0]
    potential[mask] = -depth1
    potential[mask[::-1]] = -depth2
    return potential


def localization(spectrum: VerticalSpectrum, width_h: float,
                 barrier_l: float) -> np.ndarray:
    """Per state the probability weights (w1, w2) summed over the nodes
    inside each well of width H at barrier L, the wells the spectrum was
    solved for."""
    psi = spectrum.wavefunctions
    return np.stack([np.sum(psi[mask] ** 2, axis=0) * spectrum.step
                     for mask in well_masks(width_h, barrier_l, len(psi),
                                            spectrum.step)], axis=1)


def solve_well(well, species: ParticleSpecies,
               options: SolverOptions = SolverOptions()) -> VerticalSpectrum:
    """The bound states, at most options.vertical_cap, of the well
    (width_h, barrier_l, depth1, depth2): build_potential's runs solved at
    options.grid_step, as spectroscopy.vertical_spectrum solves a device,
    for wells no DeviceSpec holds."""
    return solve_vertical(build_potential(*well, options), options.grid_step,
                          species, options.vertical_cap)


# The dense Hamiltonian over the whole product basis, assembled in one
# matrix at one field. The library solves the same H sector by sector
# (molecular.BlockHamiltonian); this is the reference those sectors are
# checked against, entry by entry.

@dataclass(frozen=True)
class LateralBasis:
    """Cartesian oscillator states (n_x, n_y) with n_x + n_y <= N.

    quantum_x is the bare confinement quantum; quantum_y carries the
    magnetic renormalization of the field `b` the basis was built at.
    """

    quantum_x: float
    quantum_y: float
    max_total_quanta: int
    b: float
    states: tuple[tuple[int, int], ...]

    def energies(self) -> np.ndarray:
        return np.array([(nx + 0.5) * self.quantum_x
                         + (ny + 0.5) * self.quantum_y
                         for nx, ny in self.states])

    def __len__(self) -> int:
        return len(self.states)


def build_basis(species: ParticleSpecies, field: FieldPoint,
                max_total_quanta: int = 6) -> LateralBasis:
    if max_total_quanta < 0:
        raise ValueError("max_total_quanta must be >= 0")
    q_y = renormalized_y_quantum(species.lateral_quantum,
                                 cyclotron_energy(species, field))
    states = tuple((nx, ny)
                   for nx in range(max_total_quanta + 1)
                   for ny in range(max_total_quanta - nx + 1))
    return LateralBasis(quantum_x=species.lateral_quantum, quantum_y=q_y,
                        max_total_quanta=max_total_quanta, b=field.b,
                        states=states)


def y_matrix(basis: LateralBasis, species: ParticleSpecies) -> np.ndarray:
    """<n_x,n_y| y |n_x',n_y'> over the basis, in nm.

    Ladder structure: nonzero only for n_x = n_x' and |n_y - n_y'| = 1,
    with <n|y|n+1> = sqrt((n+1) * hbar^2 / (2 m hbar*Omega_y)).
    """
    return y_ladder(basis.states) * y_zero_point(species, basis.quantum_y)


@dataclass(frozen=True)
class DenseProductBasis(ProductBasis):
    """The product basis with the field-free part of the energy of each
    entry (vertical plus dressed lateral)."""

    e0: tuple[float, ...]


def label_of(basis: ProductBasis, index: int) -> str:
    """The name "vertical:shell" of basis state `index`."""
    v, nx, ny = basis.entries[index]
    return f"{basis.vertical_labels[v]}:{shell_name(nx, ny)}"


def product_basis(vertical: VerticalSpectrum,
                  lateral: LateralBasis) -> DenseProductBasis:
    lat_e = lateral.energies()
    entries = []
    e0 = []
    for v, energy in enumerate(vertical.energies):
        for (nx, ny), el in zip(lateral.states, lat_e):
            entries.append((v, nx, ny))
            e0.append(energy + el)
    return DenseProductBasis(entries=tuple(entries), e0=tuple(e0),
                             vertical_labels=vertical.labels)


def assemble(vertical: VerticalSpectrum, dz: np.ndarray,
             lateral: LateralBasis, ymat: np.ndarray,
             species: ParticleSpecies, field: FieldPoint) -> np.ndarray:
    """Hermitian Hamiltonian over the product basis, in meV.

    H = diag(E0) + sign * i * hbar*Omega_c * kron(Dz, Y). The lateral
    basis must have been built at the same field (its y renormalization
    would otherwise be inconsistent).
    """
    if lateral.b != field.b:
        raise ValueError(
            f"lateral basis built at B={lateral.b} T, assembling at "
            f"B={field.b} T")
    basis = product_basis(vertical, lateral)
    h = np.diag(np.asarray(basis.e0, dtype=complex))
    hoc = cyclotron_energy(species, field)
    if hoc != 0.0:
        h += species.hyz_sign * 1j * hoc * np.kron(dz, ymat)
    return h


# The symmetry sectors one at a time. The library stacks the sectors of
# equal size and keeps their eigenvectors unscattered until they are read;
# this is each sector on its own, and the dense eigenvectors over the
# product basis that one eigensolve per sector scatters for every field.

def size_stacks(ham: BlockHamiltonian, b_values) -> list[np.ndarray]:
    """ham.hamiltonians at the fields for every sector size, in the order
    of ham.sectors."""
    return [ham.hamiltonians(b_values, size)
            for size in range(len(ham.sectors))]


def sector_list(ham: BlockHamiltonian) -> list[tuple]:
    """Per sector, from the size stacks of ham.sectors in order: its
    members, its coupling K and its gauge phases (-sign*i)^n_y."""
    phases = QUARTER_TURNS[ham.species.hyz_sign * ham.ny % 4]
    return [(members[i], coupling[i], phases[members[i]])
            for members, coupling in ham.sectors
            for i in range(len(members))]


def component_sectors(ham: BlockHamiltonian) -> list[np.ndarray]:
    """The members of each sector, as connected components of K's nonzero
    pattern by scipy.sparse.csgraph, in the layout of ham.sectors: by size,
    largest first, then by component number; each sector's members in
    stable ascending order of zero-field energy."""
    dz = dz_matrix(ham.vertical)
    runs = ham.vertical.runs
    if runs == runs[::-1]:  # parity forbids d/dz between i, j of one parity
        v = np.arange(len(dz))
        dz = np.where((v[:, None] + v) % 2 == 0, 0.0, dz)
    ny = np.array([n_y for _, _, n_y in ham.basis.entries])
    coupling = np.kron(dz, y_ladder(ham.states)) * np.sign(ny - ny[:, None])
    n, component = connected_components(coupling, directed=False)
    order = np.argsort(ham.diagonal, kind="stable")
    sectors = [order[component[order] == c] for c in range(n)]
    return sorted(sectors, key=len, reverse=True)  # stable: c within a size


def scattered_vectors(ham: BlockHamiltonian, b_values) -> np.ndarray:
    """The eigenvectors over the product basis at the fields, as a dense
    complex (fields, dim, dim) array with each field's levels in ascending
    stable order: one diagonalize call per sector, its real eigenvectors
    times its gauge phases scattered into the sector's rows and columns.
    At B = 0 alone they are the columns of the identity."""
    dim = len(ham)
    if list(b_values) == [0.0]:
        order = np.argsort(ham.diagonal, kind="stable")
        return np.eye(dim, dtype=complex)[None][:, :, order]
    energies = np.empty((len(b_values), dim))
    vectors = np.zeros((len(b_values), dim, dim), dtype=complex)
    stacks = [stack[:, i] for stack in size_stacks(ham, b_values)
              for i in range(stack.shape[1])]
    for (members, _, phases), stack in zip(sector_list(ham), stacks):
        energies[:, members], sector_vectors = diagonalize(stack)
        vectors[:, members[:, None], members] = (phases[:, None]
                                                 * sector_vectors)
    return np.array([v[:, np.argsort(e, kind="stable")]
                     for e, v in zip(energies, vectors)])


# The adiabatic march: whole n_x blocks diagonalized at every step of a
# field grid from zero, each step's levels inheriting the labels of the
# previous step by the optimal one-to-one overlap assignment. The library
# labeled this way before it ranked levels within symmetry sectors.

OVERLAP_THRESHOLD = 0.7
MAX_HALVINGS = 10
MARCH_CHUNK = 128  # fields per batched block solve


class AmbiguousContinuation(Exception):
    """A matched overlap of the march fell below OVERLAP_THRESHOLD."""


@dataclass(eq=False)
class DenseSpectrum:
    """Levels at one field with their eigenvectors over the product basis
    as dense columns; labels are None until the march assigns them."""

    basis: ProductBasis
    b: float
    energies: np.ndarray
    vectors: np.ndarray
    labels: tuple[str, ...] | None = None


def dense_hamiltonians(ham: BlockHamiltonian, b_values) -> np.ndarray:
    """The dense complex H of assemble at each field, over ham's basis."""
    dz = dz_matrix(ham.vertical)
    quanta = max(nx + ny for _, nx, ny in ham.basis.entries)
    stack = []
    for b in b_values:
        field = FieldPoint(b)
        lateral = build_basis(ham.species, field, quanta)
        stack.append(assemble(ham.vertical, dz, lateral,
                              y_matrix(lateral, ham.species), ham.species,
                              field))
    return np.array(stack)


def dense_spectra(ham: BlockHamiltonian, spectra) -> list[DenseSpectrum]:
    """Library spectra of ham's problem as DenseSpectrum: each one's
    energies and labels, with column j of its field's scattered_vectors
    as the eigenvector of level j."""
    vectors = scattered_vectors(ham, [spec.b for spec in spectra])
    return [DenseSpectrum(ham.basis, spec.b, spec.energies, v, spec.labels)
            for spec, v in zip(spectra, vectors)]


def gauge_residual(ham: BlockHamiltonian, spectrum) -> float:
    """max |H v - E v| over the levels of a DenseSpectrum, relative to
    max |H|, with H the dense complex H of ham at the spectrum's field."""
    h = dense_hamiltonians(ham, [spectrum.b])[0]
    vectors = spectrum.vectors
    residual = h @ vectors - vectors * spectrum.energies
    return float(np.abs(residual).max() / np.abs(h).max())


def nx_blocks(basis: ProductBasis) -> list[np.ndarray]:
    """The positions of each n_x block in the product basis, by n_x."""
    nx = np.array([nx for _, nx, _ in basis.entries])
    return [np.flatnonzero(nx == n) for n in np.unique(nx)]


def block_spectra(ham: BlockHamiltonian, b_values) -> list[DenseSpectrum]:
    """Spectra at the fields, one diagonalize call per whole n_x block of
    the dense H.

    Each block's ascending levels fill its positions in the product basis
    in turn before the stable sort, so tied levels need not come out in
    basis order. Labels come from the dominant basis component at B = 0
    and are None otherwise.
    """
    b_values = tuple(b_values)
    dim = len(ham)
    energies = np.empty((len(b_values), dim))
    vectors = np.zeros((len(b_values), dim, dim), dtype=complex)
    dense = dense_hamiltonians(ham, b_values)
    for index in nx_blocks(ham.basis):
        energies[:, index], vectors[:, index[:, None], index] = diagonalize(
            dense[:, index[:, None], index])
    spectra = []
    for b, e, v in zip(b_values, energies, vectors):
        order = np.argsort(e, kind="stable")
        spectrum = DenseSpectrum(basis=ham.basis, b=b, energies=e[order],
                                 vectors=v[:, order])
        if b == 0.0:
            spectrum.labels = dominant_labels(spectrum)
        spectra.append(spectrum)
    return spectra


def dominant_labels(spectrum) -> tuple[str, ...]:
    """Label every level by its largest basis component."""
    dominant = np.argmax(np.abs(spectrum.vectors) ** 2, axis=0)
    return tuple(label_of(spectrum.basis, k) for k in dominant.tolist())


def label_states(spectrum: DenseSpectrum, reference) -> DenseSpectrum:
    """Each level inherits the label of its ancestor in `reference` under
    the one-to-one assignment maximizing the summed overlaps
    |<ref_i|new_j>| (the Hungarian method). Raises AmbiguousContinuation
    when a matched overlap falls below OVERLAP_THRESHOLD. The overlaps are
    the moduli of a unitary matrix, so whenever every matched overlap
    exceeds 1/sqrt(2) the assignment is also the greedy largest-first one.
    """
    if reference.labels is None:
        raise ValueError("reference spectrum is unlabeled")
    overlap = np.abs(reference.vectors.conj().T @ spectrum.vectors)
    ref_index, new_index = linear_sum_assignment(overlap, maximize=True)
    worst = overlap[ref_index, new_index].min()
    if worst < OVERLAP_THRESHOLD:
        raise AmbiguousContinuation(
            f"overlap {worst:.3f} between B={reference.b} T and "
            f"B={spectrum.b} T")
    ancestor = np.empty_like(new_index)
    ancestor[new_index] = ref_index
    return replace(spectrum, labels=tuple(
        reference.labels[i] for i in ancestor.tolist()))


def march(vertical: VerticalSpectrum, species: ParticleSpecies, b_values,
          field_step: float = 0.1,
          options: SolverOptions = SolverOptions()) -> list[DenseSpectrum]:
    """Labeled spectra at the fields, continued from B = 0 along a march
    in steps of field_step plus the fields themselves, solved MARCH_CHUNK
    fields at a time. An ambiguous step has its midpoint solved and both
    halves continued, up to MAX_HALVINGS deep, reusing the far end."""
    requested = [round(float(b), 9) for b in b_values]
    steps = np.arange(0.0, max(requested) + field_step / 2, field_step)
    grid = sorted(set(round(float(b), 9) for b in steps) | set(requested))
    ham = BlockHamiltonian(vertical, species, options)

    def follow(prev, cur, depth=0):
        try:
            return label_states(cur, prev)
        except AmbiguousContinuation:
            if depth >= MAX_HALVINGS:
                raise
            mid = block_spectra(ham, [0.5 * (prev.b + cur.b)])[0]
            mid = follow(prev, mid, depth + 1)
            return follow(mid, cur, depth + 1)

    wanted, out = set(requested), {}
    for start in range(0, len(grid), MARCH_CHUNK):
        for cur in block_spectra(ham, grid[start:start + MARCH_CHUNK]):
            # the march starts at B = 0, where labels come from the basis
            prev = cur if cur.b == 0.0 else follow(prev, cur)
            if cur.b in wanted:
                out[cur.b] = prev
    return [out[b] for b in requested]
