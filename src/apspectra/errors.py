"""Exception types shared across the package."""


class ApspectraError(Exception):
    """Base class for all package errors."""


class MissingSamples(ApspectraError):
    """A window average needed a sample that the supplied map does not contain."""

    def __init__(self, t: int):
        self.t = t
        super().__init__(f"no sample at t={t}")


class EmptyShiftRange(ApspectraError):
    """A uniform-mean evaluation was asked to scan an empty set of shifts."""


class NeverBelow(ApspectraError):
    """No scanned window index brought the uniform mean under the target.

    This is a finite-scale outcome, not a contradiction: a larger budget
    may still succeed.
    """

    def __init__(self, epsilon: float, values):
        self.epsilon = epsilon
        self.values = tuple(values)
        super().__init__(
            f"uniform means never fell below {epsilon} "
            f"(min scanned value {min(self.values):.6g})"
        )


class FractionExceedsOne(ApspectraError):
    """Atom masses sum to more than the total intensity allows."""


class ConfigError(ApspectraError):
    """An experiment configuration failed validation."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
