"""Independent reference computations the solver tests check against.

The scalar references deliberately avoid the package's finite-difference
and matrix machinery: transcendental roots by bracketed bisection, analytic
box levels, oscillator integrals by Gauss-Hermite quadrature, and a plain
Sturm count. The module also holds the dense Hamiltonian over the whole
product basis (build_basis, y_matrix, product_basis, assemble), which the
n_x block solver is checked against.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from dqdsim.core import FieldPoint, ParticleSpecies, cyclotron_energy
from dqdsim.errors import BasisMismatchError
from dqdsim.lateral import renormalized_y_quantum, y_ladder, y_zero_point
from dqdsim.molecular import ProductBasis
from dqdsim.vertical import VerticalSpectrum

# CODATA 2018, fetched independently of the package constants
HBAR_SI = 1.054571817e-34
M0_SI = 9.1093837015e-31
E_SI = 1.602176634e-19

HB2_2M0 = HBAR_SI ** 2 / (2 * M0_SI) / (E_SI * 1e-3) * 1e18  # meV nm^2


def box_energies(width, mass_ratio, n_levels):
    """Hard-wall box levels E_n = n^2 pi^2 (hbar^2/2m) / W^2."""
    n = np.arange(1, n_levels + 1)
    return n ** 2 * np.pi ** 2 * (HB2_2M0 / mass_ratio) / width ** 2


def finite_well_levels(depth, width, mass_ratio):
    """Bound levels of a single finite square well from the transcendental
    equations u tan u = k (even) and -u cot u = k (odd), k = sqrt(u0^2-u^2),
    solved by bracketed root finding. Energies from the barrier edge."""
    a = width / 2
    c = HB2_2M0 / mass_ratio
    u0 = np.sqrt(depth * a * a / c)

    def k_of(u):
        return np.sqrt(max(u0 * u0 - u * u, 0.0))

    levels = []
    branch = 0
    while branch * np.pi / 2 < u0:
        lo = branch * np.pi / 2 + 1e-12
        hi = min((branch + 1) * np.pi / 2 - 1e-12, u0 - 1e-15)
        if branch % 2 == 0:
            f = lambda u: u * np.tan(u) - k_of(u)
        else:
            f = lambda u: -u / np.tan(u) - k_of(u)
        if hi > lo and f(lo) * f(hi) < 0:
            u = brentq(f, lo, hi, xtol=1e-14)
            levels.append(-depth + c * u * u / (a * a))
        branch += 1
    return sorted(levels)


def ho_y_element(n, m, mass_ratio, quantum):
    """<n| y |m> by 200-point Gauss-Hermite quadrature (exact for these
    polynomial-times-Gaussian integrands)."""
    return _ho_moment(n, m, mass_ratio, quantum, power=1)


def ho_y2_element(n, m, mass_ratio, quantum):
    """<n| y^2 |m> by Gauss-Hermite quadrature."""
    return _ho_moment(n, m, mass_ratio, quantum, power=2)


def _ho_moment(n, m, mass_ratio, quantum, power):
    import math

    a2 = 2.0 * (HB2_2M0 / mass_ratio) / quantum
    a = np.sqrt(a2)
    nodes, weights = np.polynomial.hermite.hermgauss(200)

    def h(k, xi):
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        return np.polynomial.hermite.hermval(xi, coeffs)

    # psi_n(y) psi_m(y) y^p dy with y = a*xi; the exp(-xi^2) weight is
    # supplied by the quadrature rule.
    norm = 1.0 / np.sqrt(np.pi * 2.0 ** (n + m)
                         * math.factorial(n) * math.factorial(m))
    vals = h(n, nodes) * h(m, nodes) * (a * nodes) ** power
    return norm * np.sum(weights * vals)


def sturm_count(diag, off, energy):
    """Number of eigenvalues of the symmetric tridiagonal matrix (diag, off)
    below `energy`: the negative pivots of the LDL^T factorization of
    T - energy, by the plain pivot recurrence one row at a time. A zero pivot
    counts as negative, as in LAPACK's bisection."""
    count, pivot, off = 0, 1.0, [0.0] + np.asarray(off).tolist()
    for d, e in zip(diag.tolist(), off):
        pivot = d - energy - e * e / pivot
        if pivot == 0.0:
            pivot = -np.finfo(float).tiny
        count += pivot < 0.0
    return count


# The dense Hamiltonian over the whole product basis, assembled in one
# matrix at one field. The library solves the same H block by block in
# n_x (molecular.BlockHamiltonian); this is the reference those blocks are
# checked against, entry by entry.

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


def y_matrix(basis: LateralBasis, species: ParticleSpecies) -> np.ndarray:
    """<n_x,n_y| y |n_x',n_y'> over the basis, in nm.

    Ladder structure: nonzero only for n_x = n_x' and |n_y - n_y'| = 1,
    with <n|y|n+1> = sqrt((n+1) * hbar^2 / (2 m hbar*Omega_y)).
    """
    return y_ladder(basis.states) * y_zero_point(species, basis.quantum_y)


@dataclass(frozen=True)
class DenseProductBasis(ProductBasis):
    """The product basis with the field-free part of the energy of each
    entry (vertical plus dressed lateral)."""

    e0: tuple[float, ...]


def product_basis(vertical: VerticalSpectrum,
                  lateral: LateralBasis) -> DenseProductBasis:
    lat_e = lateral.energies()
    entries = []
    e0 = []
    for v in range(vertical.n_bound):
        for (nx, ny), el in zip(lateral.states, lat_e):
            entries.append((v, nx, ny))
            e0.append(vertical.bound_energies[v] + el)
    return DenseProductBasis(
        entries=tuple(entries), e0=tuple(e0),
        vertical_labels=vertical.labels[:vertical.n_bound])


def assemble(vertical: VerticalSpectrum, dz: np.ndarray,
             lateral: LateralBasis, ymat: np.ndarray,
             species: ParticleSpecies, field: FieldPoint) -> np.ndarray:
    """Hermitian Hamiltonian over the product basis, in meV.

    H = diag(E0) + sign * i * hbar*Omega_c * kron(Dz, Y). The lateral
    basis must have been built at the same field (its y renormalization
    would otherwise be inconsistent).
    """
    if lateral.b != field.b:
        raise BasisMismatchError(
            f"lateral basis built at B={lateral.b} T, assembling at "
            f"B={field.b} T")
    basis = product_basis(vertical, lateral)
    h = np.diag(np.asarray(basis.e0, dtype=complex))
    hoc = cyclotron_energy(species, field)
    if hoc != 0.0:
        h += species.hyz_sign * 1j * hoc * np.kron(
            dz[:vertical.n_bound, :vertical.n_bound], ymat)
    return h
