"""Measures on the supported domains.

``Lebesgue`` and ``WeightedLebesgue`` live on intervals (no atoms),
``DiscreteMeasure`` is a finite list of weighted atoms (the only measure
allowed on void-ordered sets), and ``ProductMeasure`` pairs one measure per
axis of a box.  Mixed atomic-plus-continuous measures are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple, Union

import numpy as np

__all__ = [
    "Lebesgue",
    "WeightedLebesgue",
    "DiscreteMeasure",
    "ProductMeasure",
    "MeasureSpec",
]


@dataclass(frozen=True)
class Lebesgue:
    """Lebesgue measure on an interval."""


@dataclass(frozen=True)
class WeightedLebesgue:
    """Measure with a nonnegative density against Lebesgue measure.

    ``weight`` must accept a float array and return a nonnegative array of
    the same shape.
    """

    weight: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely many atoms ``(point, mass)`` with nonnegative masses."""

    atoms: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        atoms = tuple((float(p), float(m)) for p, m in self.atoms)
        if not atoms:
            raise ValueError("discrete measure needs at least one atom")
        if any(m < 0 for _, m in atoms):
            raise ValueError("atom masses must be nonnegative")
        object.__setattr__(self, "atoms", atoms)

    @property
    def points(self) -> np.ndarray:
        return np.array([p for p, _ in self.atoms])

    @property
    def masses(self) -> np.ndarray:
        return np.array([m for _, m in self.atoms])

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())


@dataclass(frozen=True)
class ProductMeasure:
    """One measure per axis of a product box."""

    factors: Tuple[Union[Lebesgue, WeightedLebesgue, DiscreteMeasure], ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        if len(factors) < 1:
            raise ValueError("product measure needs at least one factor")
        object.__setattr__(self, "factors", factors)


MeasureSpec = Union[Lebesgue, WeightedLebesgue, DiscreteMeasure, ProductMeasure]


def _density(weight: Callable, x) -> np.ndarray:
    """``weight(x)`` as floats: every grid and quadrature rule reads a
    density here, so a negative weight raises on every path."""
    w = np.asarray(weight(x), dtype=float)
    if np.any(w < 0):
        raise ValueError("measure weights must be nonnegative")
    return w
