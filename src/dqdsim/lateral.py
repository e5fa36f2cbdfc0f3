"""Analytic 2D harmonic-oscillator lateral basis with magnetic renormalization.

With the gauge A = B[0, 0, y] the field adds a harmonic term in y to the
lateral confinement. It is absorbed exactly into the basis frequency,
hbar*Omega_y = sqrt((hbar*Omega)^2 + (hbar*Omega_c)^2), which keeps the
basis an exact eigenbasis of the field-dressed lateral problem and makes
the diamagnetic shift come out of the zero-point energies for free.
x and y stay separable Cartesian quantum numbers; the field singles out
the y axis, so Cartesian is the natural selection-rule basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FieldPoint, ParticleSpecies, cyclotron_energy, \
    kinetic_coefficient


def renormalized_y_quantum(lateral_quantum: float, cyclotron: float) -> float:
    """Field-dressed level spacing in y (exact completion of the square)."""
    if lateral_quantum < 0 or cyclotron < 0:
        raise ValueError("energies must be >= 0")
    return math.hypot(lateral_quantum, cyclotron)


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


def y_zero_point(species: ParticleSpecies, quantum_y: float) -> float:
    """<0|y|1> = sqrt(hbar^2 / (2 m hbar*Omega_y)), in nm."""
    return math.sqrt(kinetic_coefficient(species) / quantum_y)


def y_ladder(states) -> np.ndarray:
    """<n_x,n_y| y |n_x',n_y'> over `states` in units of <0|y|1>.

    Nonzero only for n_x = n_x' and |n_y - n_y'| = 1, where it is
    sqrt(max(n_y, n_y')). The pattern is field-free; the field enters
    only through the scale y_zero_point.
    """
    nx, ny = np.array(states, dtype=int).reshape(-1, 2).T
    coupled = (nx[:, None] == nx) & (np.abs(ny[:, None] - ny) == 1)
    return np.where(coupled, np.sqrt(np.maximum(ny[:, None], ny)), 0.0)


def y_matrix(basis: LateralBasis, species: ParticleSpecies) -> np.ndarray:
    """<n_x,n_y| y |n_x',n_y'> over the basis, in nm.

    Ladder structure: nonzero only for n_x = n_x' and |n_y - n_y'| = 1,
    with <n|y|n+1> = sqrt((n+1) * hbar^2 / (2 m hbar*Omega_y)).
    """
    return y_ladder(basis.states) * y_zero_point(species, basis.quantum_y)
