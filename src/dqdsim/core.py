"""Physical constants and the shared device/species data model.

All quantities throughout the package are expressed in meV (energy),
nm (length) and T (magnetic field). The two derived constants below are
pre-reduced to these units from CODATA 2018 values so no unit conversion
happens anywhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

# Fundamental constants (SI, CODATA 2018)
_HBAR = 1.054_571_817e-34  # J s
_M0 = 9.109_383_7015e-31  # kg
_E_CHARGE = 1.602_176_634e-19  # C

_MEV_IN_J = 1.0e-3 * _E_CHARGE

# hbar^2 / (2 m0) in meV nm^2; about 38.0998
HBAR2_OVER_2M0 = _HBAR * _HBAR / (2.0 * _M0) / _MEV_IN_J * 1.0e18

# hbar e / m0 in meV/T (= 2 Bohr magnetons per tesla); about 0.115767.
# The cyclotron energy of a carrier with mass ratio m/m0 in field B is
# CYCLOTRON_COEFF * B / (m/m0).
CYCLOTRON_COEFF = _HBAR * _E_CHARGE / _M0 / _MEV_IN_J

# nm of barrier between each outer well edge and its Dirichlet wall
MIN_PADDING = 15.0


def require_finite(spec) -> None:
    """Raise ValueError if a float field of the dataclass is NaN or inf."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class ParticleSpecies:
    """One carrier type: effective mass, lateral confinement and the sign
    of its magnetic y*d/dz coupling term (electron -1, hole +1)."""

    name: str
    mass_ratio: float  # m / m0
    lateral_quantum: float  # hbar*Omega, meV
    hyz_sign: int

    def __post_init__(self):
        require_finite(self)
        if self.mass_ratio <= 0:
            raise ValueError(f"mass_ratio must be > 0, got {self.mass_ratio}")
        if self.lateral_quantum <= 0:
            raise ValueError(
                f"lateral_quantum must be > 0, got {self.lateral_quantum}")
        if self.hyz_sign not in (-1, 1):
            raise ValueError(f"hyz_sign must be -1 or +1, got {self.hyz_sign}")


# InAsP nanowire dot carriers used throughout.
ELECTRON = ParticleSpecies("electron", mass_ratio=0.03, lateral_quantum=30.0,
                           hyz_sign=-1)
HOLE = ParticleSpecies("hole", mass_ratio=0.06, lateral_quantum=15.0,
                       hyz_sign=+1)


@dataclass(frozen=True)
class DeviceSpec:
    """Geometry and per-dot, per-species well depths of the double dot.

    Dot 1 is the deeper (low emission energy) dot. Depths are positive
    numbers counted downward from the barrier band edge. reference_offset
    is an additive constant for absolute line positions; only energy
    differences are physical.
    """

    well_width_h: float  # nm
    barrier_l: float  # nm
    depth_e_dot1: float  # meV
    depth_e_dot2: float  # meV
    depth_h_dot1: float  # meV
    depth_h_dot2: float  # meV
    binding_energy: float = 25.0  # meV
    reference_offset: float = 0.0  # meV

    def __post_init__(self):
        require_finite(self)
        if self.well_width_h <= 0 or self.barrier_l <= 0:
            raise ValueError("well_width_h and barrier_l must be > 0")
        for field in ("depth_e_dot1", "depth_e_dot2",
                      "depth_h_dot1", "depth_h_dot2"):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be >= 0")
        if self.depth_e_dot1 < self.depth_e_dot2:
            raise ValueError("depth_e_dot1 must be >= depth_e_dot2 "
                             "(dot 1 is the deep, low-energy dot)")
        if self.depth_h_dot1 < self.depth_h_dot2:
            raise ValueError("depth_h_dot1 must be >= depth_h_dot2")

    def depths_for(self, species: ParticleSpecies) -> tuple[float, float]:
        """Well depths (dot 1, dot 2) seen by the given carrier."""
        if species.name == "electron":
            return self.depth_e_dot1, self.depth_e_dot2
        if species.name == "hole":
            return self.depth_h_dot1, self.depth_h_dot2
        raise ValueError(f"unknown species {species.name!r}")

    def with_barrier(self, barrier_l: float) -> "DeviceSpec":
        return replace(self, barrier_l=barrier_l)


def default_device(barrier_l: float = 7.0) -> DeviceSpec:
    """The calibrated InAsP/InP double dot parametrization shipped as default."""
    return DeviceSpec(
        well_width_h=4.5,
        barrier_l=barrier_l,
        depth_e_dot1=239.0,
        depth_e_dot2=203.0,
        depth_h_dot1=119.5,
        depth_h_dot2=101.5,
        binding_energy=25.0,
        reference_offset=0.0,
    )


@dataclass(frozen=True)
class FieldPoint:
    """Transverse (Voigt) magnetic field, applied along x, in tesla."""

    b: float

    def __post_init__(self):
        if not (math.isfinite(self.b) and self.b >= 0):
            raise ValueError(
                f"magnetic field must be finite and >= 0, got {self.b}")


@dataclass(frozen=True)
class SolverOptions:
    """Numerical knobs shared by the solvers, and the one home of each:
    the solver functions read them from here and repeat no default.

    Defaults are convergence-tested: halving grid_step moves vertical
    eigenvalues by < 0.01 meV and raising the basis caps moves the two
    lowest molecular levels at 8 T by < 0.05 meV.
    """

    grid_step: float = 0.01  # nm
    padding: float = 20.0  # nm of barrier material on each side
    vertical_cap: int = 4  # max vertical states retained, >= 2 (B and A)
    lateral_quanta: int = 6  # states with n_x + n_y <= this
    field_step: float = 0.1  # T, adiabatic labeling march

    def __post_init__(self):
        require_finite(self)
        if self.grid_step <= 0 or self.padding < MIN_PADDING:
            raise ValueError(f"grid_step must be > 0 and padding >= "
                             f"{MIN_PADDING} nm")
        if self.vertical_cap < 2 or self.lateral_quanta < 0:
            raise ValueError("vertical_cap >= 2 and lateral_quanta >= 0 required")
        if self.field_step <= 0:
            raise ValueError("field_step must be > 0")


def kinetic_coefficient(species: ParticleSpecies) -> float:
    """hbar^2/2m for the species, in meV nm^2 (prefactor of the Laplacian)."""
    return HBAR2_OVER_2M0 / species.mass_ratio


def cyclotron_energy(species: ParticleSpecies, field: FieldPoint) -> float:
    """hbar * Omega_c = hbar e B / m, in meV. Zero iff B is zero."""
    return CYCLOTRON_COEFF * field.b / species.mass_ratio
