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


def check_finite(x, message: str, steps: bool = False) -> None:
    """Raise :class:`DivergenceError`, with no numpy warning, if ``x`` holds a
    non-finite entry.  ``x`` has one slice per leading entry; with ``steps``
    it is (slices, grid steps, ...), and ``step`` and the message give the
    first grid step holding one.  The message then names the failing slices
    as :func:`failing_slices` does."""
    finite = np.isfinite(x)
    if finite.all():
        return
    finite = finite.reshape(len(x), x.shape[1] if steps else 1, -1).all(axis=-1)
    step = None
    if steps:
        step = int(np.argmin(finite.all(axis=0)))
        message += f" at grid step {step}"
    where, indices = failing_slices(~finite.all(axis=1))
    raise DivergenceError(message + where, indices=indices, step=step)


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or overflowed.

    ``indices`` lists the failing slices of a stack of two or more
    matrices; it is None otherwise, and when they cannot be told apart.
    ``step`` is the iteration or grid step the failure was met at, None
    outside an iteration; ``fit_transition`` stamps its iteration.
    """

    def __init__(self, message, indices=None, step=None):
        super().__init__(message)
        self.indices = indices
        self.step = step


class SingularMatrixError(NumericalError):
    """A linear solve was refused because the matrix is singular or too
    ill-conditioned; the message states the condition estimate."""


class DivergenceError(NumericalError):
    """A state, loss, gradient or parameter became non-finite."""


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
