"""Finite-difference eigensolver for the vertical double-well confinement.

The stacking axis z carries an asymmetric double square well: two wells of
equal width H separated edge to edge by a barrier of thickness L, with the
energy zero at the barrier band edge (well bottoms at -depth). Bound states
therefore come out negative. The solver uses the standard three-point
Laplacian on a uniform grid with hard-wall (Dirichlet) boundaries placed
far enough out that bound states have decayed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

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
    first n_bound of them are negative (bound). labels classify
    consecutive pairs as bonding (lower) / antibonding (upper).
    wavefunctions holds the grid-sampled, L2-normalized real
    eigenfunctions as columns, largest-amplitude lobe positive, and
    localization the per-state probability weights (w1, w2) integrated
    over each well's support. Both are computed on first read, from the
    raw eigenvector columns that eigenvectors() returns, so callers that
    read only energies never pay for eigenvectors.
    """

    grid: Grid1D
    well_spec: DoubleWellSpec | None
    energies: np.ndarray
    n_bound: int
    labels: tuple[str, ...]
    eigenvectors: Callable[[], np.ndarray] = field(repr=False)

    @property
    def bound_energies(self) -> np.ndarray:
        return self.energies[:self.n_bound]

    @cached_property
    def wavefunctions(self) -> np.ndarray:
        vectors = self.eigenvectors() / np.sqrt(self.grid.step)
        # fix the arbitrary overall sign: largest-amplitude lobe positive
        for j in range(vectors.shape[1]):
            i = int(np.argmax(np.abs(vectors[:, j])))
            if vectors[i, j] < 0:
                vectors[:, j] = -vectors[:, j]
        return vectors

    @property
    def bound_wavefunctions(self) -> np.ndarray:
        return self.wavefunctions[:, :self.n_bound]

    @cached_property
    def localization(self) -> np.ndarray:
        weights = np.zeros((len(self.energies), 2))
        if self.well_spec is not None:
            h = self.grid.step
            for col, (i_lo, i_hi) in enumerate(
                    well_node_slices(self.well_spec, self.grid)):
                weights[:, col] = np.sum(
                    self.wavefunctions[i_lo:i_hi, :] ** 2, axis=0) * h
        return weights


def state_labels(count: int) -> tuple[str, ...]:
    """Bonding/antibonding labels of the lowest `count` vertical levels.

    Within each consecutive pair of vertical levels the lower one is the
    bonding combination and the upper the antibonding one; higher pairs
    get a pair index appended (B2, A2, ...).
    """
    labels = []
    for k in range(count):
        pair, parity = divmod(k, 2)
        tag = "B" if parity == 0 else "A"
        labels.append(tag if pair == 0 else f"{tag}{pair + 1}")
    return tuple(labels)


def _lowest_eigenvalues(diag: np.ndarray, off: np.ndarray, k: int,
                       ) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """The k lowest eigenvalues of a symmetric tridiagonal matrix, ascending,
    and a function returning their eigenvectors as columns.

    The same LAPACK calls as scipy's eigh_tridiagonal(select="i"), so
    values and vectors match it bit for bit: bisection (stebz) now, and
    inverse iteration (stein) on the eigenvalues bisection found only when
    the returned function is called.
    """
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ValueError("array must not contain infs or NaNs")
    stebz, stein = get_lapack_funcs(("stebz", "stein"), (diag, off))
    # range "I" (2) over indices 1..k; the value bounds 0, 1 are unused
    m, w, iblock, isplit, info = stebz(diag, off, 2, 0.0, 1.0, 1, k, 0.0,
                                       "B")
    if info != 0:
        raise LinAlgError(f"stebz failed with info {info}")
    # stebz returns n-long buffers. Keep only what stein reads: the m
    # eigenvalues, their block indices and the split points up to the
    # last block, so a spectrum whose vectors are never read holds little
    # beyond the matrix.
    w, iblock = w[:m].copy(), iblock[:m].copy()
    isplit = isplit[:iblock.max()].copy()
    # the eigenvalues come grouped by matrix block
    order = np.argsort(w)

    def eigenvectors() -> np.ndarray:
        n = len(diag)
        vectors, info = stein(diag, off, w, np.pad(iblock, (0, n - m)),
                              np.pad(isplit, (0, n - len(isplit))))
        if info != 0:
            raise LinAlgError(f"stein failed with info {info}")
        return vectors[:, order]

    return w[order], eigenvectors


def solve_vertical(potential: np.ndarray, grid: Grid1D,
                   species: ParticleSpecies, n_states: int = 4,
                   well_spec: DoubleWellSpec | None = None,
                   require_bound: bool = True) -> VerticalSpectrum:
    """Lowest n_states eigenvalues of the 1D problem on the given grid; the
    eigenfunctions follow when first read.

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
    energies, eigenvectors = _lowest_eigenvalues(
        diag, off, min(n_states, grid.n_points - 1))
    if require_bound and energies[0] >= 0.0:
        raise NoBoundStateError(
            f"ground state energy {energies[0]:.3f} meV is not bound")
    n_bound = int(np.sum(energies < 0.0))
    return VerticalSpectrum(grid=grid, well_spec=well_spec, energies=energies,
                            n_bound=n_bound,
                            labels=state_labels(len(energies)),
                            eigenvectors=eigenvectors)


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
