"""Spectra of stacked double quantum dots in a transverse magnetic field.

Library layout:

- core: constants, units, device and carrier data model
- vertical: the double well as runs of nodes at a grid step, and its 1D
  finite-difference eigensolver
- lateral: analytic 2D oscillator basis with magnetic renormalization
- molecular: symmetry sectors of the product basis, one diagonalization
  per sector size, labeling
- spectroscopy: excitonic emission lines, sweeps, effective distance
- fitting: well-depth calibration and the 1/L^3 gap law
- cli: command line front end (solve, sweep-l, sweep-b, calibrate,
  fit-powerlaw)
"""

from .core import (CYCLOTRON_COEFF, ELECTRON, HBAR2_OVER_2M0, HOLE,
                   DeviceSpec, FieldPoint, ParticleSpecies, SolverOptions,
                   cyclotron_energy, default_device, kinetic_coefficient)
from .fitting import (CalibrationResult, CalibrationTarget, PowerLawParams,
                      calibrate_depths, eval_powerlaw, fit_powerlaw)
from .lateral import renormalized_y_quantum
from .molecular import (MolecularSpectrum, ProductBasis, adiabatic_sweep,
                        diagonalize)
from .spectroscopy import (EmissionLine, GapCurve, SolvePoint,
                           effective_interdot_distance, emission_lines,
                           solve_point, sweep_b, sweep_l)
from .vertical import (VerticalSpectrum, build_potential, dz_matrix,
                       solve_vertical)

__version__ = "0.1.0"
