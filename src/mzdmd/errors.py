"""Exception types shared across the package."""

import numpy as np


def failing_slices(bad) -> tuple[str, list[int] | None]:
    """Message suffix and indices naming the True entries of a per-slice
    failure mask.  Only a mask of two or more entries names slices, so a
    single matrix (a 0-d mask) and a stack of one fail alike: both, and a
    mask that names no slice, give an empty suffix and no indices."""
    indices = [int(i) for i in np.flatnonzero(bad)] if np.size(bad) > 1 else []
    if not indices:
        return "", None
    return f" in slices {indices}", indices


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or overflowed.

    ``indices`` lists the failing slices when the routine ran on a stack of
    two or more matrices; it is None for a single matrix, for a stack of
    one, and when the failing slices cannot be told apart.
    """

    def __init__(self, message, indices=None):
        super().__init__(message)
        self.indices = indices


class SingularMatrixError(NumericalError):
    """A linear solve was refused because the matrix is singular or too
    ill-conditioned; ``cond`` is the condition estimate that triggered it,
    always a float."""

    def __init__(self, message, cond, indices=None):
        super().__init__(message, indices)
        self.cond = cond


class DivergenceError(NumericalError):
    """A state or loss became non-finite; ``step`` is the iteration or grid
    step it was met at, None outside an iteration."""

    def __init__(self, message, step=None, indices=None):
        super().__init__(message, indices)
        self.step = step


class EnsembleError(NumericalError):
    """One or more ensemble samples failed to fit; carries (index, error) pairs."""

    def __init__(self, message, failures=()):
        super().__init__(message)
        self.failures = list(failures)


class ConfigError(ValueError):
    """A configuration file or flag could not be read or violates a
    constraint; ``line`` is the file's line at fault, when there is one."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
