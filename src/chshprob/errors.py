"""Exception types shared across the package."""


class InvalidConfigError(ValueError):
    """A round count, threshold, or other model parameter is out of domain."""


class CorruptRecordError(ValueError):
    """A measurement row is internally inconsistent (e.g. c != a*b)."""


class LimitError(RuntimeError):
    """A computation was refused because it exceeds a configured work budget."""
