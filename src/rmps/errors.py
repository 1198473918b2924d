"""Shared exception types."""


class DimensionError(ValueError):
    """An argument has an invalid or inconsistent dimension."""


class CapExceededError(RuntimeError):
    """A requested dense object exceeds its fixed size cap."""
