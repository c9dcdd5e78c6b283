"""Quadrature over the supported domains and measures.

The workhorse is composite Gauss-Legendre on dyadic panels with a
two-level error estimate: the integral is computed at refinement levels
L and L+1 and the difference is reported as ``err_est``.  This is
conservative and independent of the panel rule.

Endpoint singularities of the form ``x**(g-1)`` with ``g`` close to zero
are absorbed by the substitution ``x = u**(1/g)``, which turns the weight
into a constant (`integrate_singular`).  Gauss nodes are interior to their
panels, so integrands are never evaluated at the singular endpoints
themselves.

Discrete measures integrate by direct summation and carry no quadrature
error.  All summation orders are fixed, so results are reproducible
bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .domains import Interval1D, ProductBox, VoidSet
from .measures import (
    DiscreteMeasure,
    Lebesgue,
    MeasureSpec,
    ProductMeasure,
    WeightedLebesgue,
    _density,
)

__all__ = [
    "IntegralResult",
    "integrate",
    "integrate_singular",
    "gauss_panel_rule",
    "range_weights_matrix",
]

_GL_ORDER = 12
_OVERFLOW = 1e200


@dataclass(frozen=True)
class IntegralResult:
    """Value of an integral together with an accuracy statement.

    ``converged`` means the two-level error estimate fell below the
    requested tolerance; ``diverged`` flags partial sums that exceeded the
    overflow threshold under refinement, in which case ``value`` is
    ``inf``.  A result with neither flag has unknown accuracy: the best
    value and its (too large) error estimate are still reported.
    """

    value: float
    err_est: float
    converged: bool
    diverged: bool = False


@lru_cache(maxsize=None)
def _gl_nodes(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    # map from [-1, 1] to [0, 1]
    return 0.5 * (x + 1.0), 0.5 * w


def gauss_panel_rule(a: float, b: float, n_panels: int, order: int = _GL_ORDER):
    """Nodes and weights of composite Gauss-Legendre on uniform panels."""
    x01, w01 = _gl_nodes(order)
    edges = np.linspace(a, b, n_panels + 1)
    h = (b - a) / n_panels
    nodes = (edges[:-1, None] + h * x01[None, :]).ravel()
    weights = np.broadcast_to(h * w01, (n_panels, order)).ravel()
    return nodes, weights


def _as_vectorized(f: Callable) -> Callable:
    """Accept array-aware callables as-is, wrap scalar-only ones."""
    probe = np.array([0.25, 0.75])
    try:
        out = f(probe)
        out = np.asarray(out, dtype=float)
        if out.shape == probe.shape:
            return f
    except Exception:
        pass
    return np.vectorize(lambda x: float(f(x)), otypes=[float])


def _smooth_1d(f, a: float, b: float, tol: float, min_level: int,
               max_level: int) -> IntegralResult:
    """Two-level composite GL refinement of a 1-d integral."""
    prev = None
    value = 0.0
    err = math.inf
    for level in range(min_level, max_level + 1):
        nodes, weights = gauss_panel_rule(a, b, 2**level)
        with np.errstate(all="ignore"):
            vals = np.asarray(f(nodes), dtype=float)
        if not np.all(np.isfinite(vals)):
            return IntegralResult(math.inf, math.inf, False, diverged=True)
        value = float(weights @ vals)
        if abs(value) > _OVERFLOW:
            return IntegralResult(math.inf, math.inf, False, diverged=True)
        if prev is not None:
            err = abs(value - prev)
            if err <= tol:
                return IntegralResult(value, err, True)
        prev = value
    return IntegralResult(value, err, False)


def _lebesgue_1d(f, region: Interval1D, weight, tol, min_level, max_level):
    fv = _as_vectorized(f)
    if weight is None:
        g = fv
    else:
        wv = _as_vectorized(weight)

        def g(x):
            return np.asarray(fv(x), dtype=float) * _density(wv, x)

    return _smooth_1d(g, region.lo, region.hi, tol, min_level, max_level)


def _discrete_sum(f, region, measure: DiscreteMeasure) -> IntegralResult:
    pts = measure.points
    masses = measure.masses
    if isinstance(region, Interval1D):
        keep = (pts >= region.lo) & (pts <= region.hi)
        pts, masses = pts[keep], masses[keep]
    elif not isinstance(region, VoidSet):
        raise TypeError("discrete measures integrate over intervals or void sets")
    if pts.size == 0:
        return IntegralResult(0.0, 0.0, True)
    vals = np.array([float(f(p)) for p in pts])
    if not np.all(np.isfinite(vals * masses)):
        return IntegralResult(math.inf, math.inf, False, diverged=True)
    return IntegralResult(float(np.dot(masses, vals)), 0.0, True)


def _box_tensor(f, region: ProductBox, measure, tol, min_level, max_level):
    """Iterated (tensor) quadrature on a box, refined per level jointly."""
    if isinstance(measure, ProductMeasure):
        factors = measure.factors
        if len(factors) != region.ndim:
            raise ValueError("measure factors do not match box axes")
    else:
        factors = (measure,) * region.ndim
    weights_fn = []
    for fac in factors:
        if isinstance(fac, Lebesgue):
            weights_fn.append(None)
        elif isinstance(fac, WeightedLebesgue):
            weights_fn.append(_as_vectorized(fac.weight))
        else:
            raise TypeError("box quadrature supports Lebesgue-type axis measures")

    prev = None
    value = 0.0
    err = math.inf
    for level in range(min_level, max_level + 1):
        axis_nodes, axis_weights = [], []
        for ax, wfn in zip(region.factors, weights_fn):
            n, w = gauss_panel_rule(ax.lo, ax.hi, 2**level)
            if wfn is not None:
                w = w * _density(wfn, n)
            axis_nodes.append(n)
            axis_weights.append(w)
        mesh = np.meshgrid(*axis_nodes, indexing="ij")
        pts = np.stack(mesh, axis=-1)
        with np.errstate(all="ignore"):
            vals = np.asarray(f(pts), dtype=float)
        if not np.all(np.isfinite(vals)):
            return IntegralResult(math.inf, math.inf, False, diverged=True)
        w_total = axis_weights[0]
        for w in axis_weights[1:]:
            w_total = np.multiply.outer(w_total, w)
        value = float(np.sum(w_total * vals))
        if abs(value) > _OVERFLOW:
            return IntegralResult(math.inf, math.inf, False, diverged=True)
        if prev is not None:
            err = abs(value - prev)
            if err <= tol:
                return IntegralResult(value, err, True)
        prev = value
    return IntegralResult(value, err, False)


def integrate(f, region, measure: MeasureSpec, tol: float = 1e-9,
              min_level: int = 2, max_level: int = 12) -> IntegralResult:
    """Integrate ``f`` over a region against a measure.

    Parameters
    ----------
    f : callable
        Integrand.  On intervals it receives a float array; on boxes an
        array whose last axis indexes the coordinates.  Scalar-only
        callables are wrapped automatically on intervals.
    region : Interval1D, ProductBox or VoidSet
        Integration region (usually a lower set).
    measure : MeasureSpec
        Measure matching the region type.
    tol : float
        Target for the two-level error estimate.

    Returns
    -------
    IntegralResult
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if isinstance(measure, DiscreteMeasure):
        return _discrete_sum(f, region, measure)
    if isinstance(region, VoidSet):
        raise TypeError("void-ordered sets carry discrete measures only")
    if isinstance(region, Interval1D):
        if isinstance(measure, Lebesgue):
            return _lebesgue_1d(f, region, None, tol, min_level, max_level)
        if isinstance(measure, WeightedLebesgue):
            return _lebesgue_1d(f, region, measure.weight, tol, min_level,
                                max_level)
        raise TypeError(f"measure {measure!r} not supported on intervals")
    if isinstance(region, ProductBox):
        return _box_tensor(f, region, measure, tol, min_level, max_level)
    raise TypeError(f"not a region: {region!r}")


def integrate_singular(f_regular, gamma: float, delta: float,
                       a: float = 0.0, b: float = 1.0,
                       tol: float = 1e-12, max_level: int = 12) -> IntegralResult:
    """Integrate ``(x-a)**(gamma-1) * (b-x)**(delta-1) * f(x)`` over [a, b].

    ``f_regular`` must be continuous on the closed interval; the endpoint
    weights may be singular (0 < gamma, delta < 1) and are absorbed by the
    substitutions ``x - a = L * u**(1/gamma)`` and its mirror image, which
    leave smooth integrands behind.

    Returns the integral and a two-level error estimate.
    """
    if gamma <= 0 or delta <= 0:
        raise ValueError("weight exponents gamma, delta must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not b > a:
        raise ValueError("need b > a")
    L = b - a
    fv = _as_vectorized(f_regular)

    # reduce to the reference integral over [0, 1]
    def f01(lam):
        return np.asarray(fv(a + L * lam), dtype=float)

    scale = L ** (gamma + delta - 1.0)

    def left_piece(u):
        # x = u**(1/gamma) maps the weight lam**(gamma-1) d lam to du/gamma
        lam = u ** (1.0 / gamma)
        return (1.0 - lam) ** (delta - 1.0) * f01(lam) / gamma

    def right_piece(u):
        lam = 1.0 - u ** (1.0 / delta)
        return lam ** (gamma - 1.0) * f01(lam) / delta

    half = 0.5
    res_l = _smooth_1d(left_piece, 0.0, half**gamma, tol / 2, 2, max_level)
    res_r = _smooth_1d(right_piece, 0.0, half**delta, tol / 2, 2, max_level)
    value = scale * (res_l.value + res_r.value)
    err = scale * (res_l.err_est + res_r.err_est)
    if res_l.diverged or res_r.diverged:
        return IntegralResult(math.inf, math.inf, False, diverged=True)
    return IntegralResult(value, err, res_l.converged and res_r.converged)


@lru_cache(maxsize=None)
def range_weights_matrix(m: int) -> np.ndarray:
    """Composite quadrature weights for all dyadic sub-ranges of a grid.

    Row ``N`` holds the node weights (relative to the panel width) for
    integrating over a range of ``N`` uniform panels: closed Newton-Cotes
    rules for short ranges and the boundary-corrected trapezoidal rule of
    fourth order beyond that.  Every rule is exact for cubics except the
    single-panel trapezoid, and all weights are positive, so discrete
    monotonicity and superadditivity of kernel recursions are preserved
    exactly.

    Read access is ``W[N, d]`` = weight of the node ``d`` panels above the
    lower end of the range; entries with ``d > N`` are zero, as is the
    whole row ``N = 0`` (an interval of one point is null for atomless
    measures).
    """
    if m < 1:
        raise ValueError("need at least one node")
    W = np.zeros((m, m))
    short = {
        1: [0.5, 0.5],
        2: [1 / 3, 4 / 3, 1 / 3],
        3: [3 / 8, 9 / 8, 9 / 8, 3 / 8],
        4: [14 / 45, 64 / 45, 24 / 45, 64 / 45, 14 / 45],
        5: [1 / 3, 4 / 3, 17 / 24, 9 / 8, 9 / 8, 3 / 8],
    }
    for n in range(1, m):
        if n in short:
            W[n, : n + 1] = short[n]
        else:
            W[n, : n + 1] = 1.0
            W[n, [0, 1, 2]] = [3 / 8, 7 / 6, 23 / 24]
            W[n, [n, n - 1, n - 2]] = [3 / 8, 7 / 6, 23 / 24]
    return W
