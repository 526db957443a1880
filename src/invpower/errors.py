"""Exception types shared across the toolkit."""

import math

import numpy as np


class DomainError(ValueError):
    """An input violates a documented precondition (e.g. r <= 0, beta <= 2)."""


class ConfigurationError(ValueError):
    """A configuration is structurally unusable (e.g. odd beta series request)."""


class NoConvergence(RuntimeError):
    """A solver gave up: the shoot's root finder exhausted its iteration
    budget, or a series coefficient overflowed."""


class DegenerateC(ValueError):
    """Ground-state system degenerates: mu = -1 makes the log-power c vanish."""


class NotNormalizable(ValueError):
    """Requested ground state would not be square integrable (b >= 0)."""


class BracketError(ValueError):
    """An eigenvalue bracket does not contain a sign change of the defect."""


class IntegrationDiverged(RuntimeError):
    """Numerical integration overflowed; carries the grid index of the last
    valid node and its radius r."""

    def __init__(self, message: str, last_index: int, last_r: float):
        super().__init__(message)
        self.last_index = last_index
        self.last_r = last_r


def require_finite(**values: float) -> None:
    """Raise DomainError naming the first of the values that is NaN or infinite.

    Comparisons with NaN are false, so range checks such as ``x <= 0`` alone
    let NaN through; validators call this before them.
    """
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")


def require_radii(r) -> np.ndarray:
    """Return r as a float array; raise DomainError unless every radius is
    finite and positive.  NaN fails both comparisons, so it is rejected too."""
    r = np.asarray(r, dtype=float)
    if r.size and not (0.0 < r.min() and r.max() < math.inf):
        raise DomainError("radii must be finite and positive")
    return r
