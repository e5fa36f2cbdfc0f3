"""Finite-difference eigensolver for the vertical double-well confinement.

The stacking axis z carries an asymmetric double square well: two wells of
equal width H separated edge to edge by a barrier of thickness L, with the
energy zero at the barrier band edge (well bottoms at -depth). Bound states
therefore come out negative. The solver uses the standard three-point
Laplacian on a uniform grid with hard-wall (Dirichlet) boundaries placed
far enough out that bound states have decayed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .core import ParticleSpecies, kinetic_coefficient
from .errors import DomainTooSmallError, NoBoundStateError

MIN_PADDING = 15.0  # nm


@dataclass(frozen=True)
class Grid1D:
    z_min: float
    z_max: float
    n_points: int

    def __post_init__(self):
        if self.z_max <= self.z_min:
            raise ValueError("z_max must exceed z_min")
        if self.n_points < 3:
            raise ValueError("need at least 3 grid points")

    @property
    def step(self) -> float:
        return (self.z_max - self.z_min) / (self.n_points - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.z_min, self.z_max, self.n_points)


@dataclass(frozen=True)
class DoubleWellSpec:
    """Vertical double well: equal widths H, barrier L, depths per dot.

    Well 1 (deep dot) occupies [-L/2 - H, -L/2), well 2 [L/2, L/2 + H),
    so the wells are separated by exactly L of zero potential centred on
    the origin.
    """

    width_h: float
    barrier_l: float
    depth1: float
    depth2: float

    def __post_init__(self):
        if self.width_h <= 0 or self.barrier_l <= 0:
            raise ValueError("width_h and barrier_l must be > 0")
        if self.depth1 < 0 or self.depth2 < 0:
            raise ValueError("depths must be >= 0")

    @property
    def well1_support(self) -> tuple[float, float]:
        return (-self.barrier_l / 2 - self.width_h, -self.barrier_l / 2)

    @property
    def well2_support(self) -> tuple[float, float]:
        return (self.barrier_l / 2, self.barrier_l / 2 + self.width_h)


def grid_for_wells(spec: DoubleWellSpec, step: float = 0.01,
                   padding: float = 20.0) -> Grid1D:
    """Uniform grid covering both wells plus `padding` nm of barrier.

    Nodes are staggered half a step off the well edges. The sampled
    structure is exact (every edge on a cell boundary, so the exact well
    widths and barrier thickness, and for equal depths a potential
    exactly even about the barrier midpoint) only when padding/step,
    H/step and L/step are all integers. Off that lattice the edges snap
    to cell boundaries: at the default 0.01 nm step L = 7.003 and
    7.005 nm are both sampled as a 7.00 nm barrier, and L = 7.006 nm as
    7.01 nm (see ROADMAP item 3).
    """
    span = 2 * spec.width_h + spec.barrier_l + 2 * padding
    z_min = spec.well1_support[0] - padding + step / 2
    n = int(round(span / step))
    return Grid1D(z_min, z_min + (n - 1) * step, n)


def well_node_slices(spec: DoubleWellSpec, grid: Grid1D,
                     ) -> tuple[tuple[int, int], tuple[int, int]]:
    """Node index ranges [lo, hi) whose cells lie inside each well."""
    h = grid.step

    def srange(lo, hi):
        i_lo = int(np.ceil((lo - grid.z_min) / h - 1e-9))
        i_hi = int(np.ceil((hi - grid.z_min) / h - 1e-9))
        return max(i_lo, 0), min(i_hi, grid.n_points)

    return srange(*spec.well1_support), srange(*spec.well2_support)


def build_potential(spec: DoubleWellSpec, grid: Grid1D) -> np.ndarray:
    """Sample the piecewise-constant double-well potential on the grid."""
    # the Dirichlet walls sit one step beyond the end nodes
    pad_left = spec.well1_support[0] - (grid.z_min - grid.step)
    pad_right = (grid.z_max + grid.step) - spec.well2_support[1]
    if pad_left < MIN_PADDING - 1e-9 or pad_right < MIN_PADDING - 1e-9:
        raise DomainTooSmallError(
            f"grid [{grid.z_min}, {grid.z_max}] nm leaves padding "
            f"({pad_left:.2f}, {pad_right:.2f}) nm around the wells; "
            f"need >= {MIN_PADDING} nm on each side")
    v = np.zeros(grid.n_points)
    slices = well_node_slices(spec, grid)
    for (i_lo, i_hi), depth in zip(slices, (spec.depth1, spec.depth2)):
        v[i_lo:i_hi] = -depth
    return v


@dataclass(eq=False)
class VerticalSpectrum:
    """Eigenpairs of the vertical problem.

    energies are ascending and measured from the barrier band edge; the
    first n_bound of them are negative (bound). wavefunctions holds the
    grid-sampled, L2-normalized real eigenfunctions as columns. labels
    classify consecutive pairs as bonding (lower) / antibonding (upper);
    localization holds per-state probability weights (w1, w2) integrated
    over each well's support.
    """

    grid: Grid1D
    well_spec: DoubleWellSpec | None
    energies: np.ndarray
    wavefunctions: np.ndarray
    n_bound: int
    labels: tuple[str, ...]
    localization: np.ndarray

    @property
    def bound_energies(self) -> np.ndarray:
        return self.energies[:self.n_bound]

    @property
    def bound_wavefunctions(self) -> np.ndarray:
        return self.wavefunctions[:, :self.n_bound]


def classify_states(energies: np.ndarray, wavefunctions: np.ndarray,
                    grid: Grid1D, well_spec: DoubleWellSpec | None,
                    ) -> tuple[tuple[str, ...], np.ndarray]:
    """Bonding/antibonding labels and per-well probability weights.

    Within each consecutive pair of vertical levels the lower one is the
    bonding combination and the upper the antibonding one; higher pairs
    get a pair index appended (B2, A2, ...).
    """
    labels = []
    for k in range(len(energies)):
        pair, parity = divmod(k, 2)
        tag = "B" if parity == 0 else "A"
        labels.append(tag if pair == 0 else f"{tag}{pair + 1}")
    weights = np.zeros((len(energies), 2))
    if well_spec is not None:
        h = grid.step
        for col, (i_lo, i_hi) in enumerate(well_node_slices(well_spec, grid)):
            weights[:, col] = np.sum(
                wavefunctions[i_lo:i_hi, :] ** 2, axis=0) * h
    return tuple(labels), weights


def solve_vertical(potential: np.ndarray, grid: Grid1D,
                   species: ParticleSpecies, n_states: int = 4,
                   well_spec: DoubleWellSpec | None = None,
                   require_bound: bool = True) -> VerticalSpectrum:
    """Lowest n_states eigenpairs of the 1D problem on the given grid.

    Dirichlet walls sit one step outside the first and last nodes. Only
    states with E < 0 count as bound and are retained for downstream basis
    construction; raises NoBoundStateError when even the ground state is
    unbound. Pass require_bound=False for potentials, such as a hard-wall
    box, whose spectrum is legitimately positive.
    """
    if n_states < 1:
        raise ValueError("n_states must be >= 1")
    if len(potential) != grid.n_points:
        raise ValueError("potential length does not match the grid")
    h = grid.step
    c = kinetic_coefficient(species)
    diag = 2.0 * c / h ** 2 + potential
    off = np.full(grid.n_points - 1, -c / h ** 2)
    k = min(n_states, grid.n_points - 1)
    energies, vectors = eigh_tridiagonal(diag, off, select="i",
                                         select_range=(0, k - 1))
    vectors = vectors / np.sqrt(h)
    # fix the arbitrary overall sign: largest-amplitude lobe positive
    for j in range(vectors.shape[1]):
        i = int(np.argmax(np.abs(vectors[:, j])))
        if vectors[i, j] < 0:
            vectors[:, j] = -vectors[:, j]
    if require_bound and energies[0] >= 0.0:
        raise NoBoundStateError(
            f"ground state energy {energies[0]:.3f} meV is not bound")
    n_bound = int(np.sum(energies < 0.0))
    labels, weights = classify_states(energies, vectors, grid, well_spec)
    return VerticalSpectrum(grid=grid, well_spec=well_spec, energies=energies,
                            wavefunctions=vectors, n_bound=n_bound,
                            labels=labels, localization=weights)


def solve_double_well(spec: DoubleWellSpec, species: ParticleSpecies,
                      n_states: int = 4, step: float = 0.01,
                      padding: float = 20.0) -> VerticalSpectrum:
    """Convenience wrapper: grid, potential and solve in one call."""
    grid = grid_for_wells(spec, step=step, padding=padding)
    potential = build_potential(spec, grid)
    return solve_vertical(potential, grid, species, n_states=n_states,
                          well_spec=spec)


def dz_matrix(spectrum: VerticalSpectrum) -> np.ndarray:
    """Matrix of <v_i| d/dz |v_j> over the retained bound states, in 1/nm.

    Derivatives by central differences, quadrature by the trapezoid rule,
    antisymmetrized as (D - D^T)/2 so the exact antisymmetry of the
    operator between real eigenfunctions survives discretization.
    """
    psi = spectrum.bound_wavefunctions
    if psi.shape[1] < 2:
        raise ValueError("need at least 2 retained states for the dz matrix")
    h = spectrum.grid.step
    dpsi = np.gradient(psi, h, axis=0)
    d = np.empty((psi.shape[1], psi.shape[1]))
    for i in range(psi.shape[1]):
        for j in range(psi.shape[1]):
            d[i, j] = np.trapezoid(psi[:, i] * dpsi[:, j], dx=h)
    return (d - d.T) / 2.0
