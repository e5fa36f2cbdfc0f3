"""Well-depth calibration and the phenomenological 1/L^3 gap law.

Calibration inverts the emission model in the uncoupled (large L) limit,
where each dot's line depends only on its own depths: each dot is solved
alone, as vertical.build_potential's well 1 at the target's uncoupled_l
with well 2 emptied, by vertical.solve_vertical at options.grid_step. A
fixed hole-to-electron depth ratio closes the otherwise underdetermined
system (two lines, four depths); the default device parametrization
corresponds to a ratio of exactly one half. One root finder, `brent`,
serves calibration, the gap-law fit and effective_interdot_distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ELECTRON, HOLE, DeviceSpec, ParticleSpecies, \
    SolverOptions, default_device, mass_scale, require_finite
from .errors import NoBoundStateError, NoConvergenceError, SingularFitError, \
    UnboundDotError
from .vertical import build_potential, solve_vertical

CALIBRATION_TOL = 0.01  # meV residual per emission line


def brent(f, a: float, b: float, xtol: float,
          rtol: float = 4 * np.finfo(float).eps) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign: Brent's
    zeroin (Brent 1973, ch. 4) as scipy's brentq.c, step for step, so both
    evaluate f at the same points. Stops once the bracket is narrower than
    xtol + rtol |x|; raises NoConvergenceError after 100 steps."""
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError(f"f({a}) = {fpre} and f({b}) = {fcur} share a sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        short = abs(spre) > delta and abs(fcur) < abs(fpre)
        if short:
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
                short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
            except ZeroDivisionError:  # C's step is inf or NaN: it bisects
                short = False
        spre, scur = (scur, stry) if short else (sbis, sbis)  # else bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise NoConvergenceError(f"no root within 100 steps; last {xcur}")


@dataclass(frozen=True)
class PowerLawParams:
    """Gap law amplitude/(L + offset_delta)^3 + offset_c."""

    amplitude_a: float  # meV nm^3
    offset_delta: float  # nm
    offset_c: float  # meV

    def __post_init__(self):
        if self.amplitude_a <= 0:
            raise ValueError("amplitude_a must be > 0")
        if self.offset_delta < 0:
            raise ValueError("offset_delta must be >= 0")


def eval_powerlaw(params: PowerLawParams, l: float) -> float:
    shifted = l + params.offset_delta
    if shifted <= 0:
        raise ValueError(f"pole: L + delta = {shifted} must be > 0")
    return params.amplitude_a / shifted ** 3 + params.offset_c


def fit_powerlaw(points) -> tuple[PowerLawParams, np.ndarray]:
    """Least-squares fit of gap = A/(L + delta)^3 + C to (L, gap) samples.

    Variable projection (Golub & Pereyra 1973): at fixed delta the model is
    linear in (A, C), which linear least squares gives in closed form, so
    only delta is searched. A vectorised scan of delta over [0, 10 max L]
    picks the best grid cell; in it `brent` finds a zero of the gradient
    -6 A sum r_i/(L_i + delta)^4 of the squared residuals ((A, C) held by
    the envelope theorem), else the scan's delta stands (a minimum at
    delta = 0, flat data). delta >= 0. Needs at least 3 distinct distances.
    Raises ValueError naming the first point with a NaN or infinite L or
    gap.
    Raises SingularFitError unless the fitted 1/L^3 term at the smallest
    distance, A/(L_min + delta)^3, exceeds 1e-9 max(|gap|, 1): flat data
    (A ~ 0) and data rising with L (A < 0) are rejected.
    Returns the parameters and the residuals fit - gap.
    """
    ls = np.array([float(l) for l, _ in points])
    gaps = np.array([float(g) for _, g in points])
    for l, gap in zip(ls, gaps):
        if not np.isfinite([l, gap]).all():
            raise ValueError(f"point (L={l}, gap={gap}) must be finite")
    if len(ls) < 3:
        raise SingularFitError("need at least 3 points")
    if len(np.unique(ls)) != len(ls):
        raise SingularFitError("distances must be distinct")

    def project(deltas):
        """(A, C) by linear least squares at each delta, and the residuals."""
        x = 1.0 / (ls + deltas[:, None]) ** 3
        xc = x - x.mean(axis=1, keepdims=True)
        a = xc @ (gaps - gaps.mean()) / np.sum(xc ** 2, axis=1)
        c = gaps.mean() - a * x.mean(axis=1)
        return a, c, a[:, None] * x + c[:, None] - gaps

    def slope(delta):
        (a,), _, (residuals,) = project(np.array([delta]))
        return float(a * np.sum(residuals / (ls + delta) ** 4))

    grid = np.linspace(0.0, 10.0 * ls.max(), 201)
    with np.errstate(divide="ignore", invalid="ignore"):
        # nan where the grid meets the pole L + delta = 0: never the best
        sse = np.sum(project(grid)[2] ** 2, axis=1)
        k = int(np.argmin(np.nan_to_num(sse, nan=np.inf)))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
        delta = (brent(slope, lo, hi, xtol=1e-12)
                 if np.sign(slope(lo)) * np.sign(slope(hi)) < 0 else grid[k])
    (a,), (c,), (residuals,) = project(np.array([delta]))
    # negated so that nan parameters are rejected too
    if not a / (ls.min() + delta) ** 3 > 1e-9 * max(np.abs(gaps).max(), 1.0):
        raise SingularFitError(
            f"degenerate fit: A={a:.4g}, delta={delta:.4g}, C={c:.4g}")
    params = PowerLawParams(amplitude_a=float(a), offset_delta=float(delta),
                            offset_c=float(c))
    return params, residuals


@dataclass(frozen=True)
class CalibrationTarget:
    """Measured line positions of the two uncoupled dots plus what the
    inversion itself assumes; the rest of the model is the device's."""

    emission_low: float  # meV, deep dot line
    emission_high: float  # meV, shallow dot line
    uncoupled_l: float = 50.0  # nm, geometry where coupling is negligible
    depth_ratio: float = 0.5  # hole depth / electron depth

    def __post_init__(self):
        require_finite(self)
        if self.emission_high < self.emission_low:
            raise ValueError("emission_high must not lie below emission_low")
        if not 0.0 < self.depth_ratio < 1.0:
            raise ValueError("depth_ratio must be in (0, 1)")
        if self.uncoupled_l <= 0:
            raise ValueError("uncoupled_l must be > 0")


@dataclass(frozen=True)
class CalibrationResult:
    depth_e_dot1: float
    depth_e_dot2: float
    depth_h_dot1: float
    depth_h_dot2: float
    residual_low: float
    residual_high: float


def single_well_ground(depth: float, width: float, uncoupled_l: float,
                       species: ParticleSpecies,
                       options: SolverOptions = SolverOptions()) -> float:
    """Ground energy of one dot alone, from the barrier edge.

    The dot is well 1 of the device at barrier uncoupled_l with well 2
    emptied, sampled by the same build_potential as every double-well
    solve, so its Dirichlet walls sit where the device's do.
    """
    runs = build_potential(width, uncoupled_l, depth, 0.0, options)
    spectrum = solve_vertical(runs, options.grid_step, species, n_states=1)
    return float(spectrum.energies[0])


def calibrate_depths(target: CalibrationTarget,
                     device: DeviceSpec = default_device(),
                     electron: ParticleSpecies = ELECTRON,
                     hole: ParticleSpecies = HOLE,
                     options: SolverOptions = SolverOptions(),
                     ) -> CalibrationResult:
    """Electron and hole well depths reproducing the target lines.

    The device sets the well width and the line model, not the depths or
    barrier. Each dot decouples at large L, so the two-line system splits
    into two one-dimensional root problems in the electron depth (the hole
    depth follows by the fixed ratio), each dot solved at barrier
    target.uncoupled_l on the grid that `options` sets, by bracketed root
    finding to better than 0.01 meV per line. Each depth is solved once per
    call: the bracket ends are shared by both dots, and the root finder
    revisits the bracket ends and its root. A depth_ratio equal to
    core.mass_scale's r makes the hole's level the electron's times r, bit
    for bit, so only the electron is solved.
    """
    lines = {}
    scaled = target.depth_ratio == mass_scale(electron, hole)

    def line_energy(depth_e):
        if depth_e not in lines:
            e_level = single_well_ground(depth_e, device.well_width_h,
                                         target.uncoupled_l, electron, options)
            h_level = (e_level * target.depth_ratio if scaled else
                       single_well_ground(depth_e * target.depth_ratio,
                                          device.well_width_h,
                                          target.uncoupled_l, hole, options))
            # each carrier's s level adds its lateral quantum at B = 0
            lines[depth_e] = device.line_energy(
                e_level + electron.lateral_quantum,
                h_level + hole.lateral_quantum)
        return lines[depth_e]

    def solve_dot(emission):
        # shallower than ~50 meV the state leaks past the default padding
        lo, hi = 50.0, 800.0
        try:
            f_lo, f_hi = line_energy(lo) - emission, line_energy(hi) - emission
        except NoBoundStateError as exc:
            raise UnboundDotError(f"candidate depth has no bound state: {exc}")
        for _ in range(6):
            if f_lo > 0 > f_hi:
                break
            if f_lo <= 0:
                lo /= 2
                try:
                    f_lo = line_energy(lo) - emission
                except NoBoundStateError:
                    raise NoConvergenceError(
                        f"target {emission} meV above the shallow-well limit")
            if f_hi >= 0:
                hi *= 2
                f_hi = line_energy(hi) - emission
        else:
            raise NoConvergenceError(
                f"could not bracket a depth for target {emission} meV "
                f"(residuals {f_lo:.3f}, {f_hi:.3f})")
        depth = brent(lambda d: line_energy(d) - emission, lo, hi,
                      xtol=1e-6, rtol=1e-12)
        residual = line_energy(depth) - emission
        if abs(residual) > CALIBRATION_TOL:
            raise NoConvergenceError(
                f"residual {residual:.4f} meV exceeds {CALIBRATION_TOL}")
        return depth, residual

    v1e, res_low = solve_dot(target.emission_low)
    v2e, res_high = solve_dot(target.emission_high)
    return CalibrationResult(
        depth_e_dot1=v1e, depth_e_dot2=v2e,
        depth_h_dot1=v1e * target.depth_ratio,
        depth_h_dot2=v2e * target.depth_ratio,
        residual_low=res_low, residual_high=res_high)
