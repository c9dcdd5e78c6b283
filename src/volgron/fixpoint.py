"""Certified Picard iteration for evolution operators.

An evolution operator maps grid functions to grid functions and declares
a nonnegative kernel ``lambda`` controlling its increments: the distance
between images is bounded by the p-norm of ``lambda`` against the
pointwise increment of the arguments.  Under that contract the Picard
iterates converge whenever the iterate-weighted series of the initial
increment is finite, with the per-iterate error bound

    d_t(x_n, xhat) <= sum over i >= n of
        (integral of R_{lambda**p, i}(t, s) w0(s)**p mu(ds))**(1/p),

where ``w0`` is the increment profile of the starting point.  The engine
computes these bounds before iterating (they depend only on x0 and its
image), refuses divergent certificates up front, and certifies series
tails through the same family dispatch as the resolvent module:
factorial majorants for monotone kernels, Mittag-Leffler majorants for
fractional ones, exact geometric sums in the void case.

Sequential continuity of the operator and completeness of the distance
family are caller contracts; for grid functions on finite grids both
hold automatically, which is the computable setting here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .domains import Interval1D, VoidSet
from .kernels import FractionalKernel, Kernel, VoidKernel
from .measures import DiscreteMeasure, Lebesgue, MeasureSpec
from .resolvent import (
    FractionalResolventParams,
    GridOperator,
    _ext_matmul,
    _factorial_log,
    _sorted_atoms,
    _void_q,
    series_function_I,
)
from .specfun import _tail_sum
from .specfun import beta as beta_fn
from .specfun import ln_gamma

__all__ = [
    "DivergentBoundError",
    "EvolutionOperatorSpec",
    "PicardCertificate",
    "lipschitz_profile",
    "uniqueness_certificate",
    "picard_solve",
    "error_bound",
]


class DivergentBoundError(RuntimeError):
    """The first certified bound is already infinite; iteration refused."""


def _abs_metric(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b)


@dataclass(frozen=True)
class EvolutionOperatorSpec:
    """An operator on grid functions with a declared increment kernel.

    ``apply`` maps an array of values on ``grid`` nodes to another one.
    ``lambda_kernel`` is the kernel of the declared increment contract
    (``lambda_contract`` records that the caller vouches for it; the
    engine cannot verify it).  The distance family defaults to the
    running supremum of a pointwise metric over the lower set, which is
    increasing along the grid; ``increment_profile`` may supply a
    tighter profile of the declared increment function.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    lambda_kernel: Kernel
    measure: MeasureSpec
    p: float
    domain: Union[Interval1D, VoidSet]
    grid: np.ndarray
    pointwise_metric: Callable = _abs_metric
    lambda_contract: bool = True
    increment_profile: Optional[Callable] = None

    def __post_init__(self):
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=float))
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if not self.lambda_contract:
            raise ValueError("the increment contract must be declared")

    @property
    def ordered(self) -> bool:
        return isinstance(self.domain, Interval1D)

    def distance_profile(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """d_t(x, y) at every grid node t: running sup of the metric."""
        pt = np.asarray(self.pointwise_metric(np.asarray(x, dtype=float),
                                              np.asarray(y, dtype=float)))
        if self.ordered:
            return np.maximum.accumulate(pt)
        return np.full_like(pt, float(np.max(pt)))

    def distance_at(self, x, y, t_index: int = -1) -> float:
        return float(self.distance_profile(x, y)[t_index])


@dataclass
class PicardCertificate:
    """Per-iterate, per-point certified error bounds.

    ``b_layers[i-1, j]`` is the i-th series term at certificate node j;
    ``tail[j]`` bounds everything past the stored layers.  The bound for
    iterate n is the partial layer sum from n up plus the tail, so it is
    nonincreasing in n.  ``lambda0_profile`` is the Lipschitz profile of
    the operator along the certificate nodes.
    """

    ts: np.ndarray
    p: float
    b_layers: np.ndarray
    tail: np.ndarray
    lambda0_profile: np.ndarray
    w0: np.ndarray
    family: str
    iterates: int = 0
    converged: bool = False

    @property
    def n_layers(self) -> int:
        return self.b_layers.shape[0]

    def bound(self, n: int, t_index: int = -1) -> float:
        """B_n at a certificate node: certified distance of iterate n to
        the fixed point."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if n > self.n_layers:
            return float(self.tail[t_index])
        return float(self.b_layers[n - 1:, t_index].sum()
                     + self.tail[t_index])

    def bound_profile(self, n: int) -> np.ndarray:
        if n < 1:
            raise ValueError("n must be >= 1")
        if n > self.n_layers:
            return self.tail.copy()
        return self.b_layers[n - 1:].sum(axis=0) + self.tail

    def factorial_majorant(self, n: int, t_index: int = -1) -> float:
        """Closed-form majorant: the initial increment distance times the
        factorial series of the Lipschitz profile from layer n on.
        Dominates the table-based bound for regular kernels."""
        lam0 = float(self.lambda0_profile[t_index])
        d0 = float(self.w0[t_index])
        return d0 * _tail_sum(_factorial_log(lam0**self.p, self.p), n)


def lipschitz_profile(lambda_kernel: Kernel, measure: MeasureSpec, p: float,
                      t, domain, level: int = 9) -> float:
    """The Lipschitz constant (integral of lambda**p over the lower
    set)**(1/p) at t.

    Fractional kernels use the beta-function closed form, void kernels
    the exact atom sum; everything else is grid quadrature.  A divergent
    integral returns infinity.
    """
    if isinstance(lambda_kernel, VoidKernel):
        if not isinstance(measure, DiscreteMeasure):
            raise TypeError("void-ordered kernels integrate against atoms")
        return _void_q(lambda_kernel, measure, p) ** (1.0 / p)
    if not isinstance(domain, Interval1D):
        raise TypeError("ordered profiles need an interval domain")
    if isinstance(lambda_kernel, FractionalKernel) and \
            isinstance(measure, Lebesgue):
        prm = FractionalResolventParams(lambda_kernel.alpha,
                                        lambda_kernel.beta, p)
        X = float(t) - lambda_kernel.t0
        if X <= 0:
            return 0.0
        if prm.beta_p >= 1.0:
            return math.inf
        val = X**prm.gap * beta_fn(1.0 - prm.beta_p, prm.alpha_p)
        return val ** (1.0 / p)
    if float(t) <= domain.lo:
        return 0.0  # null lower set
    op = GridOperator.on_interval(lambda_kernel, measure, p, domain.lo, t,
                                  level)
    vals = op.kernel_row()
    total = op.row_integral(np.where(np.isfinite(vals), vals, np.inf))
    return total ** (1.0 / p) if math.isfinite(total) else math.inf


def uniqueness_certificate(lambda_kernel: Kernel, measure: MeasureSpec,
                           p: float, t_samples: Sequence[float],
                           domain=None) -> str:
    """``"unique"`` when the series function of lambda is certifiably
    finite at every sample (then at most one fixed point exists), else
    ``"unknown"``.  Never falsely claims uniqueness.
    """
    for t in t_samples:
        sv = series_function_I(lambda_kernel, measure, p, t, domain=domain)
        if not math.isfinite(sv.sum):
            return "unknown"
    return "unique"


# ---------------------------------------------------------------------------
# certificate construction
# ---------------------------------------------------------------------------


def _void_certificate(spec, w0: np.ndarray, n_layers: int) -> PicardCertificate:
    kern = spec.lambda_kernel
    measure = spec.measure
    p = spec.p
    q = _void_q(kern, measure, p)
    if q >= 1.0:
        raise DivergentBoundError(
            f"void-order geometric certificate diverges: kernel mass "
            f"{q:.6g} >= 1"
        )
    pts, masses = _sorted_atoms(measure)
    k1p = np.asarray(kern.k1(pts), dtype=float)**p
    c0 = float(np.dot(masses, k1p * w0**p))
    lam0 = q ** (1.0 / p)
    b = np.empty((n_layers, spec.grid.size))
    for i in range(1, n_layers + 1):
        b[i - 1] = (c0 * q ** (i - 1)) ** (1.0 / p)
    tail_scalar = (c0 ** (1.0 / p) * q ** (n_layers / p)
                   / (1.0 - lam0)) if c0 > 0 else 0.0
    tail = np.full(spec.grid.size, tail_scalar)
    return PicardCertificate(ts=spec.grid.copy(), p=p, b_layers=b, tail=tail,
                             lambda0_profile=np.full(spec.grid.size, lam0),
                             w0=w0.copy(), family="void")


def _fractional_b_layers(kern: FractionalKernel, p, nodes, w0,
                         n_layers) -> np.ndarray:
    """Series terms for a beta-zero fractional kernel, in closed form.

    The increment profile is dominated by its right-continuous step
    majorant, ``w0[k]**p`` on ``(nodes[k-1], nodes[k]]`` and ``w0[0]**p`` on
    ``[t0, nodes[0]]`` (sound: the step dominates the profile).  Against
    the closed-form layer ``c_i (t - s)**(delta - 1)``, ``delta = alpha_p i``,
    each step integrates exactly, so term i at t is

        (c_i * sum over k of w0[k]**p ((t - a_k)**delta - (t - b_k)**delta)
         / delta)**(1/p)

    with the step ends ``a_k < b_k`` clipped to ``[t0, t]``: one
    vectorised O(m**2) evaluation per layer and no quadrature error.
    """
    if kern.beta != 0.0:
        raise DivergentBoundError(
            "certificates for fractional increment kernels are "
            "implemented for beta = 0"
        )
    prm = FractionalResolventParams(kern.alpha, kern.beta, p)
    ap = prm.alpha_p
    t = np.maximum(nodes, kern.t0)[:, None]
    ends = np.concatenate(([kern.t0], nodes))[None, :]
    # distance from t to every step end, ends above t clipped to t
    dist = t - np.clip(ends, kern.t0, t)
    step = w0**p
    b = np.zeros((n_layers, nodes.size))
    for i in range(1, n_layers + 1):
        delta = ap * i
        ln_c = i * ln_gamma(ap) - ln_gamma(delta)
        powers = dist**delta
        weights = (powers[:, :-1] - powers[:, 1:]) * (math.exp(ln_c) / delta)
        integ = _ext_matmul(weights, step)
        b[i - 1] = np.maximum(integ, 0.0) ** (1.0 / p)
    return b


def _interval_certificate(spec, w0: np.ndarray, n_layers: int,
                          cert_level: int) -> PicardCertificate:
    kern = spec.lambda_kernel
    measure = spec.measure
    p = spec.p
    nodes = spec.grid
    op_level = int(round(math.log2(nodes.size - 1)))
    if 2**op_level + 1 != nodes.size:
        raise ValueError("operator grids must be dyadic (2**level + 1 nodes)")
    stride = 2 ** max(op_level - cert_level, 0)
    cnodes = nodes[::stride]
    cw0 = w0[::stride]
    m = cnodes.size

    if isinstance(kern, FractionalKernel):
        kern.require_p(p)
        b = _fractional_b_layers(kern, p, cnodes, cw0, n_layers)
        prm = FractionalResolventParams(kern.alpha, kern.beta, p)
        lam0 = np.array([lipschitz_profile(kern, measure, p, t, spec.domain)
                         for t in cnodes])
        sup_w0 = np.maximum.accumulate(cw0)
        tail = np.array([
            0.0 if t <= kern.t0 else
            sup_w0[j] * _tail_sum(
                lambda k: prm.log_series_bound(k, float(t) - kern.t0, 0.0),
                n_layers + 1)
            for j, t in enumerate(cnodes)
        ])
        return PicardCertificate(ts=cnodes.copy(), p=p, b_layers=b, tail=tail,
                                 lambda0_profile=lam0, w0=cw0.copy(),
                                 family="fractional")

    if not kern.monotone:
        raise DivergentBoundError(
            "no certified tail for this increment kernel: it must be "
            "monotone, fractional with beta = 0, or void-ordered"
        )

    # by Fubini the layer integrals g_i = integral of R_i(t, s) w0(s)**p
    # advance by g_1 = B w0**p and g_{i+1} = B g_i
    op = GridOperator.on_nodes(kern, measure, p, cnodes)
    q_prof = op.column(np.ones(m))
    b = np.empty((n_layers, m))
    g = op.column(cw0**p)
    for i in range(n_layers):
        b[i] = np.maximum(g, 0.0) ** (1.0 / p)
        if i + 1 < n_layers:
            g = op.column(g)
    lam0 = np.where(q_prof > 0, q_prof, 0.0) ** (1.0 / p)
    sup_w0 = np.maximum.accumulate(cw0)
    tail = np.array([
        sup_w0[j] * _tail_sum(_factorial_log(float(q_prof[j]), p),
                              n_layers + 1)
        for j in range(m)
    ])
    return PicardCertificate(ts=cnodes.copy(), p=p, b_layers=b, tail=tail,
                             lambda0_profile=lam0, w0=cw0.copy(),
                             family=kern.family)


def picard_solve(op: EvolutionOperatorSpec, x0: np.ndarray, tol: float,
                 max_iter: int = 50, n_layers: Optional[int] = None,
                 cert_level: int = 7) -> Tuple[np.ndarray, PicardCertificate]:
    """Iterate the operator until the certified bound drops below tol.

    The certificate is computed before iterating, from the increment
    profile of x0 alone (by default the distance of x0 to its image, a
    sound over-approximation of the declared increment function).
    Iteration stops at the first n with ``max_t B_n(t) < tol`` or at
    ``max_iter``, whichever comes first; ``converged`` records which.
    Certificate bounds live on a dyadic sub-grid of the operator grid
    (at most ``cert_level``), where the stopping maximum is taken; this
    finite-sample relaxation is part of the contract.

    Raises
    ------
    DivergentBoundError
        If B_1 is infinite somewhere (the finiteness hypothesis of the
        error estimate fails) or no tail certificate exists for the
        increment kernel family.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(op.apply(x0), dtype=float)
    if op.increment_profile is not None:
        w0 = np.asarray(op.increment_profile(x0, x1), dtype=float)
    else:
        w0 = op.distance_profile(x0, x1)

    n_layers = n_layers or max(max_iter + 5, 20)
    if op.ordered:
        cert = _interval_certificate(op, w0, n_layers, cert_level)
    else:
        cert = _void_certificate(op, w0, n_layers)

    b1 = cert.bound_profile(1)
    if not np.all(np.isfinite(b1)):
        bad = int(np.argmax(~np.isfinite(b1)))
        raise DivergentBoundError(
            f"certified bound B_1 is infinite at t={cert.ts[bad]}: the "
            "iterate-weighted series of the initial increment diverges "
            "or exceeds the float range"
        )

    n_needed = None
    for n in range(1, max_iter + 1):
        if float(np.max(cert.bound_profile(n))) < tol:
            n_needed = n
            break

    x = x1
    steps = 1
    target = n_needed if n_needed is not None else max_iter
    while steps < target:
        x = np.asarray(op.apply(x), dtype=float)
        steps += 1
    cert.iterates = steps
    cert.converged = n_needed is not None
    return x, cert


def error_bound(cert: PicardCertificate, n: int, t,
                with_majorant: bool = False):
    """Certified bound B_n at the certificate node closest to t.

    With ``with_majorant`` set, also returns the closed-form factorial
    majorant of the bound (interval problems with regular kernels).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > cert.n_layers:
        raise IndexError(f"iterate {n} beyond the {cert.n_layers} recorded "
                         "layers")
    ts = cert.ts
    idx = int(np.argmin(np.abs(ts - float(t))))
    if not np.isclose(ts[idx], float(t), atol=1e-9 * max(1.0, abs(float(t)))):
        raise ValueError(f"t={t} is not a certificate node")
    value = cert.bound(n, idx)
    if with_majorant:
        return value, cert.factorial_majorant(n, idx)
    return value
