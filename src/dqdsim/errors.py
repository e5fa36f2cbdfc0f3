"""Exception types raised by the solvers, fitters and the CLI.

Each class carries the module tag the CLI prints in its ``error (<module>):``
prefix and the CLI exit code: 2 configuration error, 3 solver error, 4 fit
or calibration failure.
"""


class DqdError(Exception):
    """Base class for all dqdsim errors."""

    module = "dqdsim"
    exit_code = 3


class ConfigError(DqdError):
    """Invalid or unknown configuration input."""

    module = "config"
    exit_code = 2


class DomainTooSmallError(DqdError):
    """Grid domain does not leave enough padding around the wells."""

    module = "vertical"


class NoBoundStateError(DqdError):
    """The potential holds no bound state (ground energy >= 0)."""

    module = "vertical"


class UnboundDotError(DqdError):
    """A candidate well depth during calibration yields no bound state."""

    module = "fitting"
    exit_code = 4


class BasisMismatchError(DqdError):
    """label_states was handed spectra over product bases of different
    sizes."""

    module = "molecular"


class NotHermitianError(DqdError):
    """Matrix handed to the eigensolver is not Hermitian."""

    module = "molecular"


class EigenResidualError(DqdError):
    """Eigenpairs returned by the eigensolver fail the residual check."""

    module = "molecular"


class AmbiguousContinuationError(DqdError):
    """Adiabatic labeling overlap fell below threshold; reduce the field step."""

    module = "molecular"


class MissingLabelError(DqdError):
    """A spectrum lacks the level label required to build emission lines."""

    module = "spectroscopy"


class OutOfRangeError(DqdError):
    """Requested gap lies outside the range of the model curve."""

    module = "spectroscopy"


class NoConvergenceError(DqdError):
    """Iterative calibration or fit failed to reach its tolerance."""

    module = "fitting"
    exit_code = 4


class SingularFitError(DqdError):
    """Fit input is degenerate (too few or repeated distances, flat or
    rising data)."""

    module = "fitting"
    exit_code = 4
