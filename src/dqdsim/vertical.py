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
The count isolates each eigenvalue; Muller's method (MTAC 10, 208, 1956)
polishes it on the last node's value with two factors that bend it across
the bracket divided out: the barriers' growth e^{m theta(E)}, and E - lambda
for each lower eigenvalue lambda.
That transfer is written once, in _shoot, which serves the eigenvectors
too: at an eigenvalue it also records each run's closed form, whose nodes
are one numpy expression. Two such marches, in from each wall, are joined
where both hold, as in a twisted factorization (Fernando, SIAM J. Matrix
Anal. Appl. 18, 1013, 1997).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import ParticleSpecies, SolverOptions, kinetic_coefficient
from .errors import NoBoundStateError


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


def build_potential(spec: DoubleWellSpec,
                    options: SolverOptions = SolverOptions(),
                    ) -> tuple[Grid1D, list[tuple[float, int]]]:
    """The grid of options.grid_step covering both wells plus
    options.padding nm of barrier on each side, and the double well on it
    as its runs: (value, nodes) left to right, equal neighbours merged,
    lengths summing to grid.n_points.

    The nodes are centred on the barrier midpoint. Well 1 [lo, hi) holds
    the nodes z in it, to 1e-9 of a step: from ceil((lo - z_min)/h - 1e-9)
    up to ceil((hi - z_min)/h - 1e-9), s barrier nodes before it and w in
    it. Well 2 is its mirror image by node index, so equal wells give
    palindromic runs at any L, step and padding. The sampled wells and
    barrier are exact, every edge half a step from its nearest nodes, only
    when padding/step, H/step and L/step are all integers. Off that
    lattice the edges snap to cell boundaries: at the default 0.01 nm step
    L = 7.003 and 7.005 nm are both sampled as a 7.00 nm barrier, and
    L = 7.006 nm as 7.01 nm (see the ROADMAP item "Exact geometry at any L").
    """
    span = 2 * spec.width_h + spec.barrier_l + 2 * options.padding
    n = int(round(span / options.grid_step))
    half = (n - 1) * options.grid_step / 2
    grid = Grid1D(-half, half, n)
    s, end = (math.ceil((z - grid.z_min) / grid.step - 1e-9)
              for z in spec.well1_support)
    w = end - s
    runs = []
    for value, m in ((0.0, s), (float(-spec.depth1), w), (0.0, n - 2 * end),
                     (float(-spec.depth2), w), (0.0, s)):
        if runs and runs[-1][0] == value:
            runs[-1] = (runs[-1][0], runs[-1][1] + m)
        elif m > 0:
            runs.append((value, m))
    return grid, runs


@dataclass(eq=False)
class VerticalSpectrum:
    """Bound eigenpairs of the vertical problem on `grid`.

    energies are ascending, measured from the barrier band edge and all
    negative: only bound states are solved for. labels classify
    consecutive pairs as bonding (lower) / antibonding (upper). runs, c_h2
    and n_states are the problem solve_vertical was given; scale is the r
    it multiplied a twin's energies by, or None when it solved them;
    shoots is the number of transfer-matrix marches the energies took, 0
    when scaled from a twin.
    wavefunctions holds the grid-sampled, L2-normalized real
    eigenfunctions as columns, largest-amplitude lobe positive, built from
    the runs on first read only.
    """

    grid: Grid1D
    energies: np.ndarray
    labels: tuple[str, ...]
    runs: list[tuple[float, int]] = field(repr=False)
    c_h2: float = field(repr=False)
    n_states: int = field(repr=False)
    scale: float | None = field(default=None, repr=False)
    shoots: int = field(default=0, repr=False)

    @cached_property
    def wavefunctions(self) -> np.ndarray:
        runs = self.runs
        k = np.arange(-1.0, max(m for _, m in runs) + 1.0)
        rows = np.empty((len(self.energies), self.grid.n_points))
        for row, energy in zip(rows, self.energies):
            _eigenvector(runs, energy, self.c_h2, k, row)
        if runs == runs[::-1]:
            # a mirror image: state i has parity (-1)^i, and the join's
            # rounding of the other parity drops out
            rows += rows[:, ::-1] * (-1.0) ** np.arange(len(rows))[:, None]
        # Gram-Schmidt, as LAPACK's stein does within a cluster: nearly
        # degenerate levels share their vectors' rounding
        for i, row in enumerate(rows):
            for prev in rows[:i]:
                row -= (row @ prev) / (prev @ prev) * prev
        vectors = rows.T
        # unit norm on the grid, and the arbitrary overall sign fixed:
        # largest-amplitude lobe positive
        lobes = vectors[np.argmax(np.abs(vectors), axis=0),
                        np.arange(vectors.shape[1])]
        return vectors * (np.sign(lobes) / np.sqrt(
            np.einsum("ij,ij->j", vectors, vectors) * self.grid.step))


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


class _Form(NamedTuple):
    """One run as _shoot crosses it, psi_{s+k} = e^log_scale _nodes(form,
    k) from x = psi_s and d = psi_s - psi_{s-1}, with cos theta = 1 + delta
    (cosh where delta > 0):
      "sin"   x cos k theta + q sin k theta in a well,
      "exp"   p e^{(k - m) theta} + q e^{-k theta}, its grow/decay modes, in
              a barrier it crosses by over e,
      "sinh"  x cosh k theta + q sinh k theta in a thinner barrier,
      "line"  x + k d where theta = 0.
    A form holds one node past either end of its run, k = -1..m ("exp" only
    k = 0..m). In a well it also holds the node k = peak where |psi| is
    largest, to within a factor cos(theta/2), and the log of that |psi|."""

    kind: str
    p: float
    q: float
    theta: float
    log_scale: float
    peak: int = -1
    log_peak: float = -math.inf


def _shoot(energy: float, runs: list[tuple[float, int]], c_h2: float,
           forms: list[_Form] | None = None) -> tuple[int, float, float]:
    """Sturm count and psi_{n+1} e^-G = mantissa * e^log_scale at E of the
    FD recurrence psi_{j+1} = 2(1 + delta_j) psi_j - psi_{j-1} from psi_0 =
    0, psi_1 = 1, delta_j = (V_j - E) h^2/2c. A run of m equal nodes is one
    T^m (cos theta = 1 + delta; cosh where delta > 0) acting on (psi_s,
    psi_s - psi_{s-1}), or on the modes of a run decaying by over e, so
    rounding stays at the run ends. G, the sum of m theta over the runs
    where delta > 0, is the barriers' growth: a positive factor, smooth in
    E, that the count and the sign ignore. Into a list `forms` goes each
    run's _Form, whose log_scale keeps the growth."""
    x, y, log_scale, count, growth = 1.0, 0.0, 0.0, 0, 0.0
    for value, m in runs:
        start, d, delta = x, x - y, (value - energy) / (2.0 * c_h2)
        if delta < 0.0:
            cos, sin = math.cos, math.sin
            theta = 2.0 * math.asin(math.sqrt(-delta / 2.0))
        else:
            cos, sin = math.cosh, math.sinh
            theta = 2.0 * math.asinh(math.sqrt(delta / 2.0))
        if delta > 0.0 and m * theta > 1.0:
            e, grow = math.exp(-theta), d + x * math.expm1(theta)
            decay = -d - x * math.expm1(-theta)
            x, y = (grow + decay * e ** (2 * m),
                    (grow + decay * e ** (2 * m - 2)) * e)
            log_scale += m * theta - math.log(2.0 * math.sinh(theta))
            if forms is not None:
                forms.append(_Form("exp", grow, decay * math.exp(-m * theta),
                                   theta, log_scale))
        elif theta == 0.0:  # delta = 0, or too small to move 1 + delta
            if forms is not None:
                forms.append(_Form("line", x, d, theta, log_scale))
            x, y = x + m * d, x + (m - 1) * d  # U_k = k + 1
        else:  # psi_{s+k} = x (U_k - U_{k-1}) + d U_{k-1}
            cos_h, sin_t = cos(theta / 2.0), sin(theta)
            if forms is not None:
                q = (d + delta * x) / sin_t  # d/sin theta -+ x tan(theta/2)
                form = _Form("sinh", x, q, theta, log_scale)
                if delta < 0.0:
                    # psi = amp sin(k theta + phase) peaks at the run's ends
                    # or at the nodes either side of its first crest
                    amp, phase = math.hypot(x, q), math.atan2(x, q)
                    crest = int((math.pi / 2.0 - phase) % math.pi / theta)
                    top, peak = max((abs(math.sin(k * theta + phase)), k)
                                    for k in {0, crest, crest + 1, m - 1}
                                    if k < m)
                    form = _Form("sin", x, q, theta, log_scale, peak,
                                 log_scale + math.log(amp * top))
                forms.append(form)
            x, y = (x * cos((m + 0.5) * theta) / cos_h
                    + d * sin(m * theta) / sin_t,
                    x * cos((m - 0.5) * theta) / cos_h
                    + d * sin((m - 1) * theta) / sin_t)
        # m theta/pi half-waves: that many sign changes or one more; a
        # barrier's e^{m theta} goes to growth, which the return divides out
        if delta < 0.0:
            turns = math.floor(m * theta / math.pi)
        else:
            turns, growth = 0, growth + m * theta
        count += turns + (turns + ((x < 0.0) != (start < 0.0))) % 2
        scale = abs(x) + abs(y)
        x, y = x / scale, y / scale
        log_scale += math.log(scale)
    return count, x, log_scale - growth


def _lowest_eigenvalues(runs: list[tuple[float, int]], c_h2: float, k: int,
                        upper: float | None = None,
                        ) -> tuple[np.ndarray, int]:
    """The lowest k eigenvalues, ascending, of the FD matrix 2 c_h2 + the
    potential's runs on the diagonal, -c_h2 = -c/h^2 off it; with `upper`, only
    those below it (by default Weyl's bound max V + lambda_{k+1}(-Lapl.),
    which solve_vertical uses only for an unbound ground state); and the
    number of _shoot calls that found them.
    Bisection on the Sturm count from (min V, upper) isolates each root.
    Muller's quadratic through the last three probes (a secant through the
    first two) polishes it in a 2 eps c/h^2 bracket, and a step that leaves
    the bracket or does not halve the step before last is a bisection. The
    polish of root i iterates on _shoot's value, psi_{n+1} with the
    barriers' growth divided out, divided again by E - lambda_j for each
    root j < i, which is positive in its bracket. Across a bracket
    psi_{n+1} changes about 10x through e^{m theta(E)} alone, and 3-4x
    through its neighbour roots' factors lambda - E: those below are
    divided out, and the quadratic's second root models the one above. A
    secant, Newton or Brent step models neither.
    Roots closer than that bracket, a bonding/antibonding pair across a
    wide barrier, are bisected apart down to float spacing, where the count
    still tells them apart, rather than given as one value twice."""
    lower = min(value for value, _ in runs)
    if upper is None:
        n = sum(m for _, m in runs)
        upper = max(value for value, _ in runs) + 4.0 * c_h2 * math.sin(
            (k + 1) * math.pi / (2 * (n + 1))) ** 2
    if upper - lower >= 4.0 * c_h2:  # cos theta would pass -1
        raise ValueError("grid step too coarse for these well depths")
    tol = 2.0 * np.finfo(float).eps * max(c_h2, -lower, upper)
    # lambda_1 > min V, the Laplacian being positive definite: the count
    # there is 0 unshot, and its value (nan) is never read
    probes = {lower: (0, math.nan, 0.0), upper: _shoot(upper, runs, c_h2)}
    shoots, roots = 1, []

    def scaled(e):  # the polish's value at probe e: times e^-ref, deflated
        _, f, log = probes[e]
        f *= math.exp(min(log - ref, 700.0))
        for r in roots:
            f /= e - r
        return f

    for i in range(min(k, probes[upper][0])):
        a = max(e for e, p in probes.items() if p[0] <= i)
        b = min(e for e, p in probes.items() if p[0] > i)
        while not (probes[a][0] == i and probes[b][0] == i + 1) and (
                a < 0.5 * (a + b) < b):
            x = 0.5 * (a + b)
            probes[x] = _shoot(x, runs, c_h2)
            shoots += 1
            a, b = (x, b) if probes[x][0] <= i else (a, x)
        # the polish's last probes x0, x1, x2 (latest) and their values:
        # b, and a unless it is min V, unshot, or the root below, when the
        # polish first bisects; none when the bracket is already within
        # tol, as for a pair one ulp apart, whose b may be the root below
        ref, known = probes[b][2], 1
        x0 = f0 = f1 = f2 = math.nan
        x1, x2 = a, b
        if b - a > tol:
            f2 = scaled(b)
            if probes[a][1] == probes[a][1] and not (
                    roots and a <= roots[-1]):
                f1, known = scaled(a), 2
        last = before = math.inf
        guess = math.nan
        while b - a > tol:
            step = math.inf
            if known == 3:  # Muller's quadratic through the three
                h1, h2 = x1 - x0, x2 - x1
                d2 = (f2 - f1) / h2
                curve = (d2 - (f1 - f0) / h1) / (h1 + h2)
                slope = d2 + h2 * curve
                disc = slope * slope - 4.0 * curve * f2
                if disc >= 0.0:
                    den = slope + math.copysign(math.sqrt(disc), slope)
                    if den:
                        step = -2.0 * f2 / den
            if step == math.inf and known > 1 and f2 != f1:  # the secant
                step = -f2 * (x2 - x1) / (f2 - f1)
            # a step (>= tol) from x2, a bracket end, unless it stalls
            if (a < x2 + step < b and abs(step) <= 0.5 * before
                    and last >= tol):
                x = x2 + math.copysign(max(abs(step), tol), step)
                guess = x2 + step
            else:
                x = 0.5 * (a + b)
            before, last = last, abs(step)
            probes[x] = _shoot(x, runs, c_h2)
            shoots += 1
            x0, f0, x1, f1, x2, f2 = x1, f1, x2, f2, x, scaled(x)
            known += known < 3
            a, b = (x, b) if probes[x][0] <= i else (a, x)
        roots.append(guess if a <= guess <= b else 0.5 * (a + b))
    return np.array(roots), shoots


def _nodes(form: _Form, k: np.ndarray, factor: float) -> np.ndarray:
    """factor times a run's form at the offsets k, which for "exp" must be
    0..m."""
    kind, p, q, theta = form[:4]
    if kind == "exp":
        fall = np.exp(-theta * k)
        return (factor * p) * fall[::-1] + (factor * q) * fall
    if kind == "line":
        return factor * p + (factor * q) * k
    cos, sin = (np.cos, np.sin) if kind == "sin" else (np.cosh, np.sinh)
    return (factor * p) * cos(theta * k) + (factor * q) * sin(theta * k)


def _eigenvector(runs: list[tuple[float, int]], energy: float, c_h2: float,
                 k: np.ndarray, out: np.ndarray) -> None:
    """An eigenvector of the FD matrix of the runs at its eigenvalue
    `energy`, into out; k is -1, 0, 1, ... up to the longest run. Each
    march from a wall, the forms of _shoot over the runs and over their
    mirror image, is stable while it grows toward the wells, and the
    product of the two is proportional to psi^2 where both hold and near
    rounding where either does not. So in the well run where the product
    of their peaks is largest, a least-squares factor over the peak node j
    and j + 1 joins the left march up to j to the right march after it."""
    left, right, lengths = [], [], [m for _, m in runs]
    _shoot(energy, runs, c_h2, left)
    _shoot(energy, runs[::-1], c_h2, right)
    right.reverse()
    r = max(range(len(left)),
            key=lambda i: left[i].log_peak + right[i].log_peak)
    # the runs each march gives, each march scaled to at most e^0
    left, right = left[:r + 1], right[r:]
    left_top = max(form.log_scale for form in left)
    right_top = max(form.log_scale for form in right)
    # the left march over the join run's nodes s .. j + 1, the right one
    # over j .. s + m, for the largest |psi| of the run at j
    m, j = lengths[r], left[-1].peak
    join_left = _nodes(left[-1], k[1:j + 3],
                       math.exp(left[-1].log_scale - left_top))
    join_right = _nodes(right[0], k[:m - j + 1],
                        math.exp(right[0].log_scale - right_top))[::-1]
    ends, pair = join_left[-2:], join_right[:2]
    factor = ends @ pair / (pair @ pair)
    np.concatenate((
        *(_nodes(form, k[1:size + 2],
                 math.exp(form.log_scale - left_top))[:-1]
          for form, size in zip(left[:-1], lengths)),
        join_left[:-1], factor * join_right[1:-1],
        *(_nodes(form, k[1:size + 2],
                 factor * math.exp(form.log_scale - right_top))[-2::-1]
          for form, size in zip(right[1:], lengths[r + 1:]))), out=out)


def solve_vertical(runs: list[tuple[float, int]], grid: Grid1D,
                   species: ParticleSpecies, n_states: int,
                   twin: VerticalSpectrum | None = None) -> VerticalSpectrum:
    """The bound states, E < 0, of the 1D problem on the given grid, at
    most the lowest n_states; the eigenfunctions follow when first read.

    The potential comes as its runs (value, nodes) left to right, as
    build_potential makes them. Dirichlet walls sit one step outside the
    first and last nodes. Raises NoBoundStateError, quoting the ground
    energy, when even the ground state is unbound. Vectors: _eigenvector
    from the runs, of exact parity when the runs are a mirror image, then
    Gram-Schmidt.

    A twin solved on this grid for the same n_states, with c/h^2 and
    every run value those of this problem divided by a power of two r,
    is this problem's solve divided by r bit for bit: the shooting
    probes and tolerance scale by r and delta does not. Then its energies
    times r are returned and nothing is shot, and the eigenvectors, built
    from these runs when read, equal the twin's bit for bit; any other
    twin is ignored.
    """
    if n_states < 1:
        raise ValueError("n_states must be >= 1")
    if sum(m for _, m in runs) != grid.n_points:
        raise ValueError("run lengths do not sum to the grid's node count")
    if not all(math.isfinite(value) for value, _ in runs):
        raise ValueError("potential values must be finite")
    c_h2 = kinetic_coefficient(species) / grid.step ** 2
    if twin is not None and twin.grid == grid:
        r = c_h2 / twin.c_h2
        if (math.frexp(r)[0] == 0.5 and twin.c_h2 * r == c_h2
                and twin.n_states == n_states
                and runs == [(value * r, m) for value, m in twin.runs]):
            return VerticalSpectrum(grid, twin.energies * r, twin.labels,
                                    runs, c_h2, n_states, r)
    energies, shoots = _lowest_eigenvalues(
        runs, c_h2, min(n_states, grid.n_points - 1), 0.0)
    if not len(energies):
        ground = _lowest_eigenvalues(runs, c_h2, 1)[0][0]
        raise NoBoundStateError(f"ground state energy {ground:.3f} meV is "
                                "not bound")
    return VerticalSpectrum(grid, energies, state_labels(len(energies)),
                            runs, c_h2, n_states, shoots=shoots)


def solve_double_well(spec: DoubleWellSpec, species: ParticleSpecies,
                      options: SolverOptions = SolverOptions(),
                      twin: VerticalSpectrum | None = None,
                      ) -> VerticalSpectrum:
    """Grid, potential and solve in one call: the bound states, at most
    options.vertical_cap, of build_potential(spec, options), scaled from
    twin where solve_vertical can."""
    grid, runs = build_potential(spec, options)
    return solve_vertical(runs, grid, species, options.vertical_cap, twin)


def dz_matrix(spectrum: VerticalSpectrum) -> np.ndarray:
    """Matrix of <v_i| d/dz |v_j> over the bound states, in 1/nm.

    Central differences with psi = 0 one node past each wall, the
    Dirichlet condition of the FD solve, summed over the nodes: with
    a = sum_k psi_i[k] psi_j[k+1], the matrix is (a - a^T) / 2, so it is
    antisymmetric bit for bit, as the operator is between real
    eigenfunctions; one state gives the exact 1x1 zero. The quadrature
    weight h cancels the 1/(2h) of the difference, leaving the 1/2.
    """
    psi = spectrum.wavefunctions
    a = psi[:-1].T @ psi[1:]
    return (a - a.T) / 2.0
