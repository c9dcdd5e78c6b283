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
image) and refuses divergent certificates up front.  Certificates and
Lipschitz profiles come from the family dispatch ``resolvent._plan``:
geometric sums for void kernels, Mittag-Leffler tails for fractional
ones, factorial tails for monotone kernels on the grid.

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
from .kernels import Kernel
from .measures import MeasureSpec
from .resolvent import (DivergentBoundError, _factorial_log, _plan,
                        series_function_I)
from .specfun import _tail_sum

__all__ = [
    "DivergentBoundError",
    "EvolutionOperatorSpec",
    "PicardCertificate",
    "lipschitz_profile",
    "uniqueness_certificate",
    "picard_solve",
    "error_bound",
]


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

    The fractional family on Lebesgue measure uses the beta-function
    closed form over [domain.lo, t] (with a pole: inf for lo < t0, the
    value over [t0, t] as an upper bound for lo > t0), void kernels the
    exact atom sum; everything else is grid quadrature.  A divergent
    integral returns infinity.
    """
    return _plan(lambda_kernel, measure, p).lipschitz(t, domain, level)


def uniqueness_certificate(lambda_kernel: Kernel, measure: MeasureSpec,
                           p: float, t_samples: Sequence[float],
                           domain=None) -> str:
    """``"unique"`` when the series function of lambda is certifiably
    finite at every sample, a finite sum plus tail (then at most one fixed
    point exists), else ``"unknown"``.  Never falsely claims uniqueness.
    """
    for t in t_samples:
        sv = series_function_I(lambda_kernel, measure, p, t, domain=domain)
        if not math.isfinite(sv.sum + sv.tail_bound):
            return "unknown"
    return "unique"


# ---------------------------------------------------------------------------
# certificate construction
# ---------------------------------------------------------------------------


def _certificate(spec, w0: np.ndarray, n_layers: int,
                 cert_level: int) -> PicardCertificate:
    plan = _plan(spec.lambda_kernel, spec.measure, spec.p)
    ts, w0, b, tail, lam0 = plan.certificate(spec.grid, w0, n_layers,
                                             cert_level, spec.domain)
    return PicardCertificate(ts=ts.copy(), p=spec.p, b_layers=b, tail=tail,
                             lambda0_profile=lam0, w0=w0.copy(),
                             family=spec.lambda_kernel.family)


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
    if not tol > 0:
        raise ValueError("tol must be positive")
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(op.apply(x0), dtype=float)
    if op.increment_profile is not None:
        w0 = np.asarray(op.increment_profile(x0, x1), dtype=float)
    else:
        w0 = op.distance_profile(x0, x1)

    n_layers = n_layers or max(max_iter + 5, 20)
    cert = _certificate(op, w0, n_layers, cert_level)

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
