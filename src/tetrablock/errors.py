"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the domain an operation requires."""


class PoleError(DomainError):
    """Evaluation was requested at (or numerically too close to) a pole."""


class FitError(ValueError):
    """A least-squares fit could not be performed (too few / degenerate samples)."""
