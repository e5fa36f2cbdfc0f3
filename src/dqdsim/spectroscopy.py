"""Excitonic emission lines and the observable gap curves.

The two optically active lines pair electron and hole levels of the same
molecular identity: the bonding exciton from the two "B:s" levels and the
antibonding exciton from the two "A:s" levels. A line's energy is
DeviceSpec.line_energy of the two single-particle energies (each measured
from its barrier band edge): their sum plus the reference offset minus the
exciton binding energy, which cancel in every gap.

Every labeled spectrum comes through sweep_b, from adiabatic_sweep or,
for a hole whose H is the electron's times r (hole_scale), as the
electron's scaled by r; a single point is the one-field sweep. The hole's
vertical spectrum is solved with the electron's as its twin, so a hole
whose vertical problem is the electron's times r shoots nothing. Every
numerical setting comes in one SolverOptions.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache
from math import isnan, log

import numpy as np

from .core import DeviceSpec, FieldPoint, ParticleSpecies, SolverOptions, \
    ELECTRON, HOLE, mass_scale
from .errors import DqdError, MissingLabelError, OutOfRangeError
from .fitting import brent
from .molecular import MolecularSpectrum, adiabatic_sweep
from .vertical import VerticalSpectrum, build_potential, solve_vertical

BONDING_LINE = "bonding-exciton"
ANTIBONDING_LINE = "antibonding-exciton"
# nm, the distances effective_interdot_distance searches between
L_MIN, L_MAX = 2.0, 50.0
# meV, the CSVs' printed resolution: effective_interdot_distance inverts
# log(gap(L) - gap(L_MAX) + SPLITTING_FLOOR), whose argument root rounding
# of the flat gap beyond ~30 nm (down to about -1e-10 meV) cannot bring to 0
SPLITTING_FLOOR = 1e-6


@dataclass(frozen=True)
class EmissionLine:
    label: str
    energy: float  # meV


@dataclass(frozen=True)
class GapCurve:
    """Ordered (L in nm or B in T, gap) samples of the s-shell splitting."""

    samples: tuple[tuple[float, float], ...]

    def xs(self) -> np.ndarray:
        return np.array([x for x, _ in self.samples])

    def gaps(self) -> np.ndarray:
        return np.array([g for _, g in self.samples])


def vertical_spectrum(device: DeviceSpec, species: ParticleSpecies,
                      options: SolverOptions = SolverOptions(),
                      twin: VerticalSpectrum | None = None,
                      ) -> VerticalSpectrum:
    """Vertical spectrum of one carrier in the device, at most
    options.vertical_cap bound states, scaled from twin where
    vertical.solve_vertical can."""
    runs = build_potential(device.well_width_h, device.barrier_l,
                           *device.depths_for(species), options)
    return solve_vertical(runs, options.grid_step, species,
                          options.vertical_cap, twin)


def hole_scale(electron: ParticleSpecies, hole: ParticleSpecies,
               h_vertical: VerticalSpectrum) -> float | None:
    """r if h_vertical was scaled by r from its twin, the electron's, and
    core.mass_scale and the lateral quanta give the same r, else None:
    then H, hbar*Omega_c, hypot, sqrt and eigh all scale by r exactly, at
    the fields adiabatic_sweep rounds to: none is subnormal."""
    r = h_vertical.scale
    if r is None:
        return None
    exact = (mass_scale(electron, hole) == r
             and hole.lateral_quantum == r * electron.lateral_quantum)
    return r if exact else None


def emission_lines(e_spec: MolecularSpectrum, h_spec: MolecularSpectrum,
                   device: DeviceSpec) -> tuple[EmissionLine, EmissionLine]:
    """The bonding and antibonding exciton lines, in that order."""
    if e_spec.b != h_spec.b:
        raise ValueError(
            f"electron spectrum at B={e_spec.b} T but hole at {h_spec.b} T")
    lines = []
    for label, name in (("B:s", BONDING_LINE), ("A:s", ANTIBONDING_LINE)):
        e_level = e_spec.energy_of_label(label)
        h_level = h_spec.energy_of_label(label)
        if e_level is None or h_level is None:
            raise MissingLabelError(
                f"no level labeled {label!r} in the "
                f"{'electron' if e_level is None else 'hole'} spectrum")
        lines.append(EmissionLine(name, device.line_energy(e_level, h_level)))
    return lines[0], lines[1]


@dataclass(frozen=True)
class SolvePoint:
    """Everything computed at one (L, B) point."""

    barrier_l: float
    b: float
    electron: MolecularSpectrum
    hole: MolecularSpectrum
    lines: tuple[EmissionLine, EmissionLine]

    @property
    def gap(self) -> float:
        return self.lines[1].energy - self.lines[0].energy


def solve_point(device: DeviceSpec, field: FieldPoint = FieldPoint(0.0),
                options: SolverOptions = SolverOptions(),
                electron: ParticleSpecies = ELECTRON,
                hole: ParticleSpecies = HOLE) -> SolvePoint:
    """Everything at one (L, B) point: the one-field case of sweep_b."""
    return sweep_b(device, [field.b], options, electron, hole)[1][0]


def _ascending(values, axis: str, unit: str) -> list[float]:
    """The values as floats (-0.0 as 0.0), if they are strictly ascending."""
    floats = [float(v) + 0.0 for v in values]
    bad = next((v for a, v in zip(floats, floats[1:]) if v <= a), None)
    if bad is not None:
        raise ValueError(f"{axis.lower()}_values must be strictly ascending "
                         f"at {axis}={bad} {unit}")
    return floats


def sweep_l(device_template: DeviceSpec, l_values,
            options: SolverOptions = SolverOptions(),
            electron: ParticleSpecies = ELECTRON,
            hole: ParticleSpecies = HOLE,
            threads: int = 1) -> tuple[GapCurve, list[SolvePoint]]:
    """Zero-field gap curve against interdot distance, plus level tables.

    Points are solved in turn: threads > 1, a pool the interpreter lock
    makes slower, stays only for bench/. with_barrier rejects L <= 0.
    """
    l_list = _ascending(l_values, "L", "nm")

    def run(l):
        try:
            return solve_point(device_template.with_barrier(l),
                               FieldPoint(0.0), options, electron, hole)
        except DqdError as exc:
            raise type(exc)(f"at L={l} nm: {exc}") from exc

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            points = list(pool.map(run, l_list))
    else:
        points = [run(l) for l in l_list]
    curve = GapCurve(tuple((p.barrier_l, p.gap) for p in points))
    return curve, points


def sweep_b(device: DeviceSpec, b_values,
            options: SolverOptions = SolverOptions(),
            electron: ParticleSpecies = ELECTRON,
            hole: ParticleSpecies = HOLE) -> tuple[GapCurve, list[SolvePoint]]:
    """Emission lines against field at fixed geometry.

    Every field is solved on its own and labeled by rank within its
    symmetry sectors, so a point does not depend on which other fields
    are requested.
    """
    b_list = _ascending(b_values, "B", "T")
    e_vertical = vertical_spectrum(device, electron, options)
    e_specs = adiabatic_sweep(e_vertical, electron, b_list, options)
    h_vertical = vertical_spectrum(device, hole, options, e_vertical)
    r = hole_scale(electron, hole, h_vertical)
    h_specs = (adiabatic_sweep(h_vertical, hole, b_list, options)
               if r is None else
               [spec.scaled(r) for spec in e_specs])
    points = [SolvePoint(barrier_l=device.barrier_l, b=b, electron=e, hole=h,
                         lines=emission_lines(e, h, device))
              for b, e, h in zip(b_list, e_specs, h_specs)]
    curve = GapCurve(tuple((p.b, p.gap) for p in points))
    return curve, points


def effective_interdot_distance(gap: float, device_template: DeviceSpec,
                                options: SolverOptions = SolverOptions(),
                                tol: float = 0.01,
                                electron: ParticleSpecies = ELECTRON,
                                hole: ParticleSpecies = HOLE) -> float:
    """Invert the zero-field gap curve by Brent's method on a log scale.

    Returns the interdot distance whose zero-field gap equals `gap`, to
    within `tol` nm. The gap decreases in L, to within about 1e-10 meV of
    root rounding beyond about 30 nm, and its tunnel splitting
    gap(L) - gap(L_MAX) decays like exp(-kappa L), so brent is given
    log(splitting + SPLITTING_FLOOR) less its value at `gap`: nearly
    linear in L, so brent's first interpolation lands next to the root,
    and of the same sign as gap(L) - gap, so the root is the gap's own.
    fitting.brent keeps a sign-change bracket, so even the staircase
    gap(L) of an off-lattice grid gives a point within `tol` of a
    crossing. Raises ValueError for a NaN `gap` or a `tol` that is not
    > 0, before solving, and OutOfRangeError when the gap lies outside
    the curve's range over [L_MIN, L_MAX].
    """
    if not tol > 0:  # also rejects NaN
        raise ValueError(f"tol must be > 0, got {tol}")
    if isnan(gap):
        raise ValueError(f"gap must be a number, got {gap}")

    @cache  # brent's first two calls are the range ends solved here
    def model(l):
        return solve_point(device_template.with_barrier(l), FieldPoint(0.0),
                           options, electron, hole).gap

    gap_hi = model(L_MIN)
    gap_lo = model(L_MAX)
    if not (gap_lo <= gap <= gap_hi):
        raise OutOfRangeError(
            f"gap {gap:.3f} meV outside the model range "
            f"[{gap_lo:.3f}, {gap_hi:.3f}] meV for L in "
            f"[{L_MIN}, {L_MAX}] nm")

    def log_splitting(value):
        return log(value - gap_lo + SPLITTING_FLOOR)

    target = log_splitting(gap)
    return brent(lambda l: log_splitting(model(l)) - target, L_MIN, L_MAX,
                 xtol=tol)
