"""Inverse-power potential terms and their pointwise evaluation.

A potential is a finite list of ``(strength, power)`` monomials meaning
``strength * r**(-power)``.  The same representation serves the single-term
scattering potential and the four-term bound-state potential, so one
evaluator feeds every residual check in the toolkit.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple

import numpy as np

from .errors import DomainError, require_radii

PotentialTerms = Sequence[Tuple[float, float]]

# integer powers 0 .. _HORNER_DEGREE are summed as one polynomial in 1/r
_HORNER_DEGREE = 8


def evaluate_terms(terms: Iterable[Tuple[float, float]], r):
    """Evaluate sum of strength * r**(-power) at r (scalar or array, r > 0).

    The strengths of the integer powers 0 .. 8 are added up by power and
    summed as one polynomial in 1/r by Horner's rule, in place, each step a
    division by r; any other power is taken by ``pow`` and added to it.  A
    non-finite strength or power is a DomainError.
    """
    r = require_radii(r)
    coeffs = [0.0] * (_HORNER_DEGREE + 1)
    degree, others = 0, []
    for strength, power in terms:
        if not (math.isfinite(strength) and math.isfinite(power)):
            raise DomainError(f"terms must be finite, got ({strength!r}, {power!r})")
        k = int(power)
        if k == power and 0 <= k <= _HORNER_DEGREE:
            coeffs[k] += strength
            degree = max(degree, k)
        else:
            others.append((strength, power))
    total = np.full(r.shape, coeffs[degree])
    for c in reversed(coeffs[:degree]):
        total /= r
        if c:
            total += c
    for strength, power in others:
        total += strength * r ** -power
    return total if total.ndim else float(total)


def term_with_power(terms: PotentialTerms, power: float) -> float:
    """Return the summed strength of all terms with the given inverse power."""
    return float(sum(s for s, p in terms if p == power))
