"""Exception types shared across the package."""


class LdgmError(Exception):
    """Base class for package errors."""


class InvalidNodeError(LdgmError):
    """A node id does not belong to the tape it was used with."""


class ShapeError(LdgmError):
    """Array dimensions do not match the declared configuration."""


class UnsupportedOrderError(LdgmError):
    """A derivative order above the jet cap was requested."""


class OrderError(LdgmError):
    """A rewrite was requested for an incompatible PDE order."""


class UndefinedMetricError(LdgmError):
    """Relative error against an identically-zero truth field."""


class UnavailableError(LdgmError):
    """No closed-form solution exists for the requested problem."""


class InstabilityError(LdgmError):
    """A time stepper produced non-finite values."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite field at step {step}")


class NonFiniteLossError(LdgmError):
    """Training aborted on a non-finite loss or gradient at one Adam step."""

    def __init__(self, step: int, detail: str = ""):
        self.step = step
        super().__init__(f"non-finite value at Adam step {step}" + (f": {detail}" if detail else ""))


class ConfigError(LdgmError):
    """Experiment config failed validation."""

    def __init__(self, bad_keys, message: str = ""):
        self.bad_keys = list(bad_keys)
        super().__init__(message or "invalid config keys: " + ", ".join(self.bad_keys))
