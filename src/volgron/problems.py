"""Built-in fixed-point problems with known references.

Three desk-scale problems exercised by the command line and the test
suite:

* a linear Volterra integral equation with constant rate, whose fixed
  point is an exponential;
* an Abel-type integral equation with a weakly singular kernel, set up
  so that the constant function is the exact solution;
* a scalar contraction toy on a one-atom void-ordered set (the classic
  geometric certificate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domains import Interval1D, QuadratureGrid, VoidSet
from .fixpoint import EvolutionOperatorSpec
from .kernels import FractionalKernel, VoidKernel, constant_kernel
from .measures import DiscreteMeasure, Lebesgue

__all__ = ["FixedPointProblem", "volterra_problem", "abel_problem",
           "banach_problem", "PROBLEMS"]


@dataclass(frozen=True)
class FixedPointProblem:
    name: str
    spec: EvolutionOperatorSpec
    x0: np.ndarray
    reference: np.ndarray


def _trapezoid_cumulative(nodes: np.ndarray) -> np.ndarray:
    """Matrix V with (V @ u)[i] = trapezoid integral of u over [t_0, t_i]."""
    m = nodes.size
    h = np.diff(nodes)
    V = np.zeros((m, m))
    for i in range(1, m):
        V[i, : i + 1] = V[i - 1, : i + 1]
        V[i, i - 1] += 0.5 * h[i - 1]
        V[i, i] += 0.5 * h[i - 1]
    return V


def _abel_weights(nodes: np.ndarray, alpha: float) -> np.ndarray:
    """Product-integration weights for the weakly singular integral
    (V @ u)[i] = integral over [t_0, t_i] of (t_i - s)**(alpha-1) u(s) ds
    with u piecewise linear (exact moments per panel): one pass over the
    panels [t_l, t_l+1] below every node t_i, l < i."""
    m = nodes.size
    ii, ll = np.tril_indices(m, -1)
    h = nodes[ll + 1] - nodes[ll]
    b = nodes[ii] - nodes[ll]
    a = nodes[ii] - nodes[ll + 1]
    m0 = (b**alpha - a**alpha) / alpha
    m1 = b * m0 - (b ** (alpha + 1) - a ** (alpha + 1)) / (alpha + 1)
    V = np.zeros((m, m))
    V[ii, ll] = m0 - m1 / h
    V[ii, ll + 1] += m1 / h
    return V


def volterra_problem(rate: float = 2.0, level: int = 9,
                     upper: float = 1.0) -> FixedPointProblem:
    """u(t) = 1 + rate * integral of u over [0, t]; fixed point e^(rate t)."""
    domain = Interval1D(0.0, upper)
    nodes = QuadratureGrid.for_interval(domain, level).nodes
    V = _trapezoid_cumulative(nodes)

    def apply(u: np.ndarray) -> np.ndarray:
        return 1.0 + rate * (V @ u)

    spec = EvolutionOperatorSpec(
        apply=apply,
        lambda_kernel=constant_kernel(rate),
        measure=Lebesgue(),
        p=1.0,
        domain=domain,
        grid=nodes,
    )
    return FixedPointProblem(
        name="volterra",
        spec=spec,
        x0=np.ones_like(nodes),
        reference=np.exp(rate * nodes),
    )


def abel_problem(alpha: float = 0.75, level: int = 8,
                 upper: float = 1.0) -> FixedPointProblem:
    """u(t) = g(t) + integral of (t-s)**(alpha-1) u(s) ds with g chosen
    so that u = 1 exactly."""
    if not 0 < alpha:
        raise ValueError("alpha must be positive")
    domain = Interval1D(0.0, upper)
    nodes = QuadratureGrid.for_interval(domain, level).nodes
    V = _abel_weights(nodes, alpha)
    g = 1.0 - nodes**alpha / alpha

    def apply(u: np.ndarray) -> np.ndarray:
        return g + V @ u

    spec = EvolutionOperatorSpec(
        apply=apply,
        lambda_kernel=FractionalKernel(alpha=alpha, beta=0.0, t0=0.0),
        measure=Lebesgue(),
        p=1.0,
        domain=domain,
        grid=nodes,
    )
    return FixedPointProblem(
        name="abel",
        spec=spec,
        x0=np.zeros_like(nodes),
        reference=np.ones_like(nodes),
    )


def banach_problem(contraction: float = 0.5,
                   shift: float = 1.0) -> FixedPointProblem:
    """x -> contraction * x + shift on a single void-ordered atom."""
    if not 0 <= contraction < 1:
        raise ValueError("contraction must lie in [0, 1)")
    domain = VoidSet("banach")
    measure = DiscreteMeasure(((0.0, 1.0),))

    def apply(x: np.ndarray) -> np.ndarray:
        return contraction * x + shift

    spec = EvolutionOperatorSpec(
        apply=apply,
        lambda_kernel=VoidKernel(
            k1=lambda s: np.full_like(np.asarray(s, dtype=float), contraction)
        ),
        measure=measure,
        p=1.0,
        domain=domain,
        grid=np.array([0.0]),
    )
    return FixedPointProblem(
        name="banach",
        spec=spec,
        x0=np.array([0.0]),
        reference=np.array([shift / (1.0 - contraction)]),
    )


PROBLEMS: dict[str, Callable[..., FixedPointProblem]] = {
    "volterra": volterra_problem,
    "abel": abel_problem,
    "banach": banach_problem,
}
