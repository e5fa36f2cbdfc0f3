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

import numpy as np

from .core import ParticleSpecies, kinetic_coefficient


def renormalized_y_quantum(lateral_quantum: float, cyclotron: float) -> float:
    """Field-dressed level spacing in y (exact completion of the square)."""
    if lateral_quantum < 0 or cyclotron < 0:
        raise ValueError("energies must be >= 0")
    return math.hypot(lateral_quantum, cyclotron)


def lateral_states(max_total_quanta: int) -> tuple[tuple[int, int], ...]:
    """Cartesian oscillator states (n_x, n_y) with n_x + n_y <= N, n_x-major."""
    if max_total_quanta < 0:
        raise ValueError("max_total_quanta must be >= 0")
    return tuple((nx, ny)
                 for nx in range(max_total_quanta + 1)
                 for ny in range(max_total_quanta - nx + 1))


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

