"""Exception types shared across the package."""


class HKDelayError(Exception):
    """Base class for all package errors."""


class InvalidConfig(HKDelayError, ValueError):
    """System or integrator configuration violates an invariant."""


class InvalidDatum(HKDelayError, ValueError):
    """Initial datum is empty, non-increasing in time, or non-finite."""


class OutOfRange(HKDelayError):
    """A sample time lies outside the stored trajectory span."""


class InvalidProblem(HKDelayError, ValueError):
    """Rate problem violates 0 < alpha < beta or tau > 0."""


class SpecError(HKDelayError, ValueError):
    """Experiment spec file is malformed; message names the offending field."""
