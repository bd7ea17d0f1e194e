"""Shared exception types."""


class DatasetError(ValueError):
    """Malformed or inconsistent dataset input; row is the index of the
    sample at fault when one is."""
    row = None


class CapacityError(ValueError):
    """Feature dimension too small for the requested block layout."""


class DimensionError(ValueError):
    """Shape mismatch between model and data."""


class NumericalError(RuntimeError):
    """A loss term or gradient became non-finite; carries the term name."""

    def __init__(self, term: str, message: str = ""):
        self.term = term
        super().__init__(message or f"non-finite value in term '{term}'")
