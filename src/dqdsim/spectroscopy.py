"""Excitonic emission lines and the observable gap curves.

The two optically active lines pair electron and hole levels of the same
molecular identity: the bonding exciton from the two "B:s" levels and the
antibonding exciton from the two "A:s" levels. A line's energy is the sum
of the two single-particle energies (measured from the respective barrier
band edges) plus the device reference offset minus the constant exciton
binding energy; the offset and binding energy cancel in every gap.

Every labeled spectrum comes from molecular.adiabatic_sweep, through
sweep_b; a single point is the one-field sweep. Every numerical setting
comes in one SolverOptions.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import DeviceSpec, FieldPoint, ParticleSpecies, SolverOptions, \
    ELECTRON, HOLE
from .errors import DqdError, MissingLabelError, OutOfRangeError
from .molecular import MolecularSpectrum, adiabatic_sweep
from .vertical import DoubleWellSpec, VerticalSpectrum, solve_double_well

BONDING_LINE = "bonding-exciton"
ANTIBONDING_LINE = "antibonding-exciton"
# nm, the distances effective_interdot_distance searches between
L_MIN, L_MAX = 2.0, 50.0


@dataclass(frozen=True)
class EmissionLine:
    label: str
    energy: float  # meV
    b: float  # T


@dataclass(frozen=True)
class GapCurve:
    """Ordered (x, gap) samples of the s-shell emission splitting, either
    against interdot distance (axis "L_nm") or field (axis "B_T")."""

    axis: str
    samples: tuple[tuple[float, float], ...]

    def xs(self) -> np.ndarray:
        return np.array([x for x, _ in self.samples])

    def gaps(self) -> np.ndarray:
        return np.array([g for _, g in self.samples])


def vertical_spectrum(device: DeviceSpec, species: ParticleSpecies,
                      options: SolverOptions = SolverOptions(),
                      ) -> VerticalSpectrum:
    """Vertical spectrum of one carrier in the device."""
    d1, d2 = device.depths_for(species)
    well = DoubleWellSpec(width_h=device.well_width_h,
                          barrier_l=device.barrier_l,
                          depth1=d1, depth2=d2)
    return solve_double_well(well, species, options)


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
        lines.append(EmissionLine(
            label=name, b=e_spec.b,
            energy=device.reference_offset + e_level + h_level
            - device.binding_energy))
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


def sweep_l(device_template: DeviceSpec, l_values,
            options: SolverOptions = SolverOptions(),
            electron: ParticleSpecies = ELECTRON,
            hole: ParticleSpecies = HOLE,
            threads: int = 1) -> tuple[GapCurve, list[SolvePoint]]:
    """Zero-field gap curve against interdot distance, plus level tables.

    Points are independent; with threads > 1 they are solved concurrently
    and reassembled in input order.
    """
    l_list = [float(l) for l in l_values]
    if any(l <= 0 for l in l_list):
        raise ValueError("interdot distances must be > 0")
    if sorted(l_list) != l_list:
        raise ValueError("l_values must be ascending")

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
    curve = GapCurve(axis="L_nm",
                     samples=tuple((p.barrier_l, p.gap) for p in points))
    return curve, points


def sweep_b(device: DeviceSpec, b_values,
            options: SolverOptions = SolverOptions(),
            electron: ParticleSpecies = ELECTRON,
            hole: ParticleSpecies = HOLE) -> tuple[GapCurve, list[SolvePoint]]:
    """Emission lines against field at fixed geometry.

    Labels are continued adiabatically from B = 0, so the whole sweep is
    marched in order regardless of which fields are requested.
    """
    b_list = [float(b) + 0.0 for b in b_values]  # maps -0.0 to 0.0
    if sorted(b_list) != b_list:
        raise ValueError("b_values must be ascending")
    e_specs = adiabatic_sweep(vertical_spectrum(device, electron, options),
                              electron, b_list, options)
    h_specs = adiabatic_sweep(vertical_spectrum(device, hole, options),
                              hole, b_list, options)
    points = [SolvePoint(barrier_l=device.barrier_l, b=b, electron=e, hole=h,
                         lines=emission_lines(e, h, device))
              for b, e, h in zip(b_list, e_specs, h_specs)]
    curve = GapCurve(axis="B_T",
                     samples=tuple((p.b, p.gap) for p in points))
    return curve, points


def effective_interdot_distance(gap: float, device_template: DeviceSpec,
                                options: SolverOptions = SolverOptions(),
                                tol: float = 0.01,
                                electron: ParticleSpecies = ELECTRON,
                                hole: ParticleSpecies = HOLE) -> float:
    """Invert the strictly decreasing zero-field gap curve by bisection.

    Returns the interdot distance whose zero-field gap equals `gap`, to
    within `tol` nm. Raises OutOfRangeError when the gap lies outside
    the curve's range over [L_MIN, L_MAX].
    """
    if not tol > 0:  # also rejects NaN; bisection to 0 never ends
        raise ValueError(f"tol must be > 0, got {tol}")

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
    lo, hi = L_MIN, L_MAX
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if model(mid) > gap:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
