"""Finite-difference eigensolver for the vertical double-well confinement.

The stacking axis z carries an asymmetric double square well: two wells of
equal width H separated edge to edge by a barrier of thickness L, with the
energy zero at the barrier band edge (well bottoms at -depth). Bound states
therefore come out negative. The solver uses the standard three-point
Laplacian on a uniform grid with hard-wall (Dirichlet) boundaries placed
far enough out that bound states have decayed. Grid step, padding and the
cap on solved states come from a SolverOptions, their one home.

The FD matrix is piecewise Toeplitz (5 runs for the double well): its
recurrence crosses a run in one 2x2 Chebyshev transfer matrix (Tsu & Esaki,
APL 22, 562, 1973), its signs give the Sturm count (Barth, Martin &
Wilkinson, Numer. Math. 9, 386, 1967), so an eigenvalue costs O(runs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

from .core import MIN_PADDING, ParticleSpecies, SolverOptions, \
    kinetic_coefficient
from .errors import DomainTooSmallError, NoBoundStateError


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


def grid_for_wells(spec: DoubleWellSpec,
                   options: SolverOptions = SolverOptions()) -> Grid1D:
    """Uniform grid of options.grid_step covering both wells plus
    options.padding nm of barrier on each side.

    Nodes are staggered half a step off the well edges. The sampled
    structure is exact (every edge on a cell boundary, so the exact well
    widths and barrier thickness, and for equal depths a potential
    exactly even about the barrier midpoint) only when padding/step,
    H/step and L/step are all integers. Off that lattice the edges snap
    to cell boundaries: at the default 0.01 nm step L = 7.003 and
    7.005 nm are both sampled as a 7.00 nm barrier, and L = 7.006 nm as
    7.01 nm (see ROADMAP item 4).
    """
    step, padding = options.grid_step, options.padding
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
    first n_bound of them are negative (bound): all unless solved with
    require_bound=False. labels classify
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


def _shoot(energy: float, runs: list[tuple[float, int]], c_h2: float,
           ) -> tuple[int, float, float]:
    """Sturm count and psi_{n+1} = mantissa * e^log_scale at E of the FD
    recurrence psi_{j+1} = 2(1 + delta_j) psi_j - psi_{j-1} from psi_0 = 0,
    psi_1 = 1, delta_j = (V_j - E) h^2/2c. A run of m equal nodes is one T^m
    (cos theta = 1 + delta; cosh where delta > 0) acting on (psi_s, psi_s -
    psi_{s-1}), or on the modes of a run decaying by over e, so rounding
    stays at the run ends."""
    x, y, log_scale, count = 1.0, 0.0, 0.0, 0
    for value, m in runs:
        start, d, delta = x, x - y, (value - energy) / (2.0 * c_h2)
        cos, sin, arc = ((math.cos, math.sin, math.asin) if delta < 0.0
                         else (math.cosh, math.sinh, math.asinh))
        theta = 2.0 * arc(math.sqrt(abs(delta) / 2.0))
        if delta > 0.0 and m * theta > 1.0:
            e, grow = math.exp(-theta), d + x * math.expm1(theta)
            decay = -d - x * math.expm1(-theta)
            x, y = (grow + decay * e ** (2 * m),
                    (grow + decay * e ** (2 * m - 2)) * e)
            log_scale += m * theta - math.log(2.0 * math.sinh(theta))
        elif delta == 0.0:  # U_k = k + 1
            x, y = x + m * d, x + (m - 1) * d
        else:  # psi_{s+k} = x (U_k - U_{k-1}) + d U_{k-1}
            cos_h, sin_t = cos(theta / 2.0), sin(theta)
            x, y = (x * cos((m + 0.5) * theta) / cos_h
                    + d * sin(m * theta) / sin_t,
                    x * cos((m - 0.5) * theta) / cos_h
                    + d * sin((m - 1) * theta) / sin_t)
        # m theta/pi half-waves: that many sign changes or one more
        turns = math.floor(m * theta / math.pi) if delta < 0.0 else 0
        count += turns + (turns + ((x < 0.0) != (start < 0.0))) % 2
        scale = abs(x) + abs(y)
        x, y = x / scale, y / scale
        log_scale += math.log(scale)
    return count, x, log_scale


def _lowest_eigenvalues(potential: np.ndarray, c_h2: float, k: int,
                        upper: float | None = None) -> np.ndarray:
    """The lowest k eigenvalues, ascending, of the FD matrix 2 c_h2 +
    potential on the diagonal, -c_h2 = -c/h^2 off it; with `upper`, only
    those below it (by default Weyl's bound max V + lambda_{k+1}(-Lapl.)).
    Bisection on the Sturm count from (min V, upper) isolates each root; a
    safeguarded secant on psi_{n+1} polishes it in a 2 eps c/h^2 bracket."""
    starts = np.flatnonzero(np.diff(potential)) + 1
    lengths = np.diff(np.concatenate(([0], starts, [len(potential)])))
    runs = list(zip(potential[np.r_[0, starts]].tolist(), lengths.tolist()))
    lower = float(potential.min())
    if upper is None:
        upper = float(potential.max()) + 4.0 * c_h2 * math.sin(
            (k + 1) * math.pi / (2 * (len(potential) + 1))) ** 2
    if upper - lower >= 4.0 * c_h2:  # cos theta would pass -1
        raise ValueError("grid step too coarse for these well depths")
    tol = 2.0 * np.finfo(float).eps * max(c_h2, -lower, upper)
    probes = {e: _shoot(e, runs, c_h2) for e in (lower, upper)}
    roots = []
    for i in range(min(k, probes[upper][0])):
        a = max(e for e, p in probes.items() if p[0] <= i)
        b = min(e for e, p in probes.items() if p[0] > i)
        p0, p1, steps, guess = a, b, [math.inf, math.inf], math.nan
        while b - a > tol:
            x = 0.5 * (a + b)
            isolated = probes[a][0] == i and probes[b][0] == i + 1
            if isolated:
                (_, f0, l0), (_, f1, l1) = probes[p0], probes[p1]
                slope = f1 - f0 * math.exp(min(l0 - l1, 700.0))  # finite
                step = -f1 * (p1 - p0) / slope if slope else math.inf
                # secant step (>= tol) from bracket end p1 unless it stalls
                if (a < p1 + step < b and abs(step) <= 0.5 * steps[-2]
                        and steps[-1] >= tol):
                    x = p1 + math.copysign(max(abs(step), tol), step)
                    guess = p1 + step
                steps.append(abs(step))
            probes[x] = _shoot(x, runs, c_h2)
            a, b = (x, b) if probes[x][0] <= i else (a, x)
            p0, p1 = (p1, x) if isolated else (a, b)
        roots.append(guess if a <= guess <= b else 0.5 * (a + b))
    return np.array(roots)


def solve_vertical(potential: np.ndarray, grid: Grid1D,
                   species: ParticleSpecies, n_states: int,
                   well_spec: DoubleWellSpec | None = None,
                   require_bound: bool = True) -> VerticalSpectrum:
    """Lowest n_states eigenvalues of the 1D problem on the given grid; the
    eigenfunctions follow when first read.

    Dirichlet walls sit one step outside the first and last nodes. With
    require_bound (the default) only bound states, E < 0, are solved for,
    at most n_states; raises NoBoundStateError when even the ground state
    is unbound. require_bound=False serves potentials, such as a hard-wall
    box, whose spectrum is legitimately positive. Vectors: LAPACK stein.
    """
    if n_states < 1:
        raise ValueError("n_states must be >= 1")
    if len(potential) != grid.n_points:
        raise ValueError("potential length does not match the grid")
    if not np.isfinite(potential).all():
        raise ValueError("array must not contain infs or NaNs")
    n = grid.n_points
    c_h2 = kinetic_coefficient(species) / grid.step ** 2
    energies = _lowest_eigenvalues(potential, c_h2, min(n_states, n - 1),
                                   0.0 if require_bound else None)
    if not len(energies):
        ground = _lowest_eigenvalues(potential, c_h2, 1)[0]
        raise NoBoundStateError(f"ground state energy {ground:.3f} meV is "
                                "not bound")

    def eigenvectors() -> np.ndarray:
        diag, off = 2.0 * c_h2 + potential, np.full(n - 1, -c_h2)
        stein, = get_lapack_funcs(("stein",), (diag, off))
        # one unsplit block: iblock all 1, isplit = [n]
        vectors, info = stein(diag, off, energies, np.ones(n, np.int32),
                              np.r_[n, np.zeros(n - 1, np.int32)])
        if info != 0:
            raise LinAlgError(f"stein failed with info {info}")
        return vectors

    return VerticalSpectrum(grid=grid, well_spec=well_spec, energies=energies,
                            n_bound=int(np.sum(energies < 0.0)),
                            labels=state_labels(len(energies)),
                            eigenvectors=eigenvectors)


def solve_double_well(spec: DoubleWellSpec, species: ParticleSpecies,
                      options: SolverOptions = SolverOptions(),
                      ) -> VerticalSpectrum:
    """Grid, potential and solve in one call: the bound states, at most
    options.vertical_cap, on the grid of grid_for_wells(spec, options)."""
    grid = grid_for_wells(spec, options)
    return solve_vertical(build_potential(spec, grid), grid, species,
                          options.vertical_cap, well_spec=spec)


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
