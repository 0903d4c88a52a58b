"""Exception types shared across the package; a regime limit raises, never warns."""


class QndSimError(Exception):
    """Base class for physics and configuration errors raised by qndsim."""


class UnstableCavity(QndSimError):
    """No self-consistent Gaussian mode exists on at least one cavity axis."""


class DomainError(QndSimError, ValueError):
    """An argument lies outside its physically meaningful domain."""


class NotAMinimum(QndSimError):
    """The trap expansion point is not a local minimum of the potential."""


class RegimeError(QndSimError):
    """A model was evaluated outside its validity regime (small-beta, small-phase)."""


class StepError(QndSimError):
    """A state invariant was violated after an evolution step."""


class FitDiverged(QndSimError):
    """A least-squares fit failed to converge or the data are degenerate.

    The message carries a residual report so unattended pipelines can log
    the failure without re-running the fit.
    """


class ConfigError(QndSimError):
    """A run configuration is malformed; message names the offending field path."""
