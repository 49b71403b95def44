"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input falls outside the physically/numerically supported domain."""


class UnsupportedAmplitudeError(DomainError):
    """Coherent amplitude far outside the protocol regime."""


class ZeroGainError(ValueError):
    """A quantity conditioned on a detection is requested at zero gain."""


class InfeasibleProblemError(RuntimeError):
    """The linear program has no feasible point; carries the offending constraint.

    simplex reports its most-violated row index, decoy that row's pair label.
    """

    def __init__(self, message: str, constraint: int | str):
        super().__init__(message)
        self.constraint = constraint


class UnboundedProblemError(RuntimeError):
    """The linear program objective is unbounded (defensive; cannot occur for boxed yields)."""


class ConfigError(ValueError):
    """A sweep/scan configuration document is malformed."""
