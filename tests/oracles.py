"""Independent reference computations the solver tests check against.

Everything here deliberately avoids the package's finite-difference and
matrix machinery: transcendental roots by bracketed bisection, analytic
box levels, oscillator integrals by Gauss-Hermite quadrature.
"""

import numpy as np
from scipy.optimize import brentq

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
