"""Excitonic emission lines and the observable gap curves.

The two optically active lines pair electron and hole levels of the same
molecular identity: the bonding exciton from the two "B:s" levels and the
antibonding exciton from the two "A:s" levels. A line's energy is the sum
of the two single-particle energies (measured from the respective barrier
band edges) plus the device reference offset minus the constant exciton
binding energy; the offset and binding energy cancel in every gap.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import DeviceSpec, FieldPoint, ParticleSpecies, SolverOptions, \
    ELECTRON, HOLE
from .errors import DqdError, MissingLabelError, OutOfRangeError
from .molecular import MolecularSpectrum, adiabatic_sweep, solve_molecular
from .vertical import DoubleWellSpec, VerticalSpectrum, dz_matrix, \
    solve_double_well

BONDING_LINE = "bonding-exciton"
ANTIBONDING_LINE = "antibonding-exciton"


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
    return solve_double_well(well, species, n_states=options.vertical_cap,
                             step=options.grid_step, padding=options.padding)


def vertical_for_species(device: DeviceSpec, species: ParticleSpecies,
                         options: SolverOptions = SolverOptions(),
                         ) -> tuple[VerticalSpectrum, np.ndarray]:
    """Vertical spectrum and d/dz matrix for one carrier in the device."""
    spectrum = vertical_spectrum(device, species, options)
    return spectrum, dz_matrix(spectrum)


def molecular_at(device: DeviceSpec, species: ParticleSpecies,
                 field: FieldPoint,
                 options: SolverOptions = SolverOptions(),
                 ) -> MolecularSpectrum:
    """Labeled molecular spectrum at a single field point.

    At zero field labels come straight from the basis; at finite field the
    labeling is continued adiabatically from zero.
    """
    if field.b == 0.0:
        # the cross term is proportional to B, so no d/dz matrix (and no
        # vertical eigenfunction) is needed: a zero matrix stands in for it
        vert = vertical_spectrum(device, species, options)
        return solve_molecular(vert, np.zeros((vert.n_bound, vert.n_bound)),
                               species, field,
                               lateral_quanta=options.lateral_quanta)
    vert, dz = vertical_for_species(device, species, options)
    return adiabatic_sweep(vert, dz, species, [field.b], options)[0]


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
    e_spec = molecular_at(device, electron, field, options)
    h_spec = molecular_at(device, hole, field, options)
    return SolvePoint(barrier_l=device.barrier_l, b=field.b,
                      electron=e_spec, hole=h_spec,
                      lines=emission_lines(e_spec, h_spec, device))


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
    b_list = [float(b) for b in b_values]
    if sorted(b_list) != b_list:
        raise ValueError("b_values must be ascending")
    e_vert, e_dz = vertical_for_species(device, electron, options)
    h_vert, h_dz = vertical_for_species(device, hole, options)
    e_specs = adiabatic_sweep(e_vert, e_dz, electron, b_list, options)
    h_specs = adiabatic_sweep(h_vert, h_dz, hole, b_list, options)
    points = []
    for b, e_spec, h_spec in zip(b_list, e_specs, h_specs):
        points.append(SolvePoint(
            barrier_l=device.barrier_l, b=b, electron=e_spec, hole=h_spec,
            lines=emission_lines(e_spec, h_spec, device)))
    curve = GapCurve(axis="B_T",
                     samples=tuple((p.b, p.gap) for p in points))
    return curve, points


def gap_at_zero_field(device: DeviceSpec,
                      options: SolverOptions = SolverOptions(),
                      electron: ParticleSpecies = ELECTRON,
                      hole: ParticleSpecies = HOLE) -> float:
    return solve_point(device, FieldPoint(0.0), options, electron, hole).gap


def effective_interdot_distance(gap: float, device_template: DeviceSpec,
                                options: SolverOptions = SolverOptions(),
                                l_min: float = 2.0, l_max: float = 50.0,
                                tol: float = 0.01,
                                electron: ParticleSpecies = ELECTRON,
                                hole: ParticleSpecies = HOLE) -> float:
    """Invert the strictly decreasing zero-field gap curve by bisection.

    Returns the interdot distance whose zero-field gap equals `gap`, to
    within `tol` nm. Raises OutOfRangeError when the gap lies below the
    large-L asymptote or above the smallest-distance value.
    """
    if not tol > 0:  # also rejects NaN; bisection to 0 never ends
        raise ValueError(f"tol must be > 0, got {tol}")

    def model(l):
        return gap_at_zero_field(device_template.with_barrier(l), options,
                                 electron, hole)

    gap_hi = model(l_min)
    gap_lo = model(l_max)
    if not (gap_lo <= gap <= gap_hi):
        raise OutOfRangeError(
            f"gap {gap:.3f} meV outside the model range "
            f"[{gap_lo:.3f}, {gap_hi:.3f}] meV for L in "
            f"[{l_min}, {l_max}] nm")
    lo, hi = l_min, l_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if model(mid) > gap:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
