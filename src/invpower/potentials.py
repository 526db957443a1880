"""Inverse-power potential terms and their pointwise evaluation.

A potential is a finite list of ``(strength, power)`` monomials meaning
``strength * r**(-power)``.  The same representation serves the single-term
scattering potential and the four-term bound-state potential, so one
evaluator feeds every residual check in the toolkit.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from .errors import require_radii

PotentialTerms = Sequence[Tuple[float, float]]


def evaluate_terms(terms: Iterable[Tuple[float, float]], r):
    """Evaluate sum of strength * r**(-power) at r (scalar or array, r > 0)."""
    r = require_radii(r)
    total = np.zeros_like(r)
    for strength, power in terms:
        total = total + strength * r ** (-power)
    return total if total.ndim else float(total)


def term_with_power(terms: PotentialTerms, power: float) -> float:
    """Return the summed strength of all terms with the given inverse power."""
    return float(sum(s for s, p in terms if p == power))
