"""Certified right-hand sides of resolvent and Gronwall inequalities.

Given data ``u(t) <= v(t) + (integral of k**p u0**p over the lower set of
t)**(1/p)``, the bound operations evaluate the series that dominate
``u``: the resolvent-weighted series, the per-iterate sequence bounds,
and the closed Gronwall bounds in their sharp (first) and supremum
(second) forms.  Two geometries are supported: one ordered interval axis
(``m = 1``) and the void order (``m = 0``, the Fredholm case, where every
series is a geometric sum in closed form).  On an interval the closed
forms read the plan of k: both need k declared monotone on an atomless
measure (a factorial majorant), the supremum form also a monotone ``l``;
without them the bound is inf.

The supremum of ``v0`` over a lower set is taken on the evaluation grid,
which under-approximates the true essential supremum; bound consumers
should sample ``v0`` on grids fine enough for their tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .domains import Interval1D, VoidSet
from .kernels import Kernel, _as_fn
from .measures import MeasureSpec
from .resolvent import (
    FractionalResolventParams,
    _ext_mul,
    _factorial_integrals,
    _factorial_log,
    _kernel_power,
    _nonnegative,
    _plan,
    _root_sum,
    _row_integrals,
    _scaled_power,
    fractional_inequality_constant,
)
from .specfun import (_LOG_MAX, MLParams, SeriesValue, _log_series,
                      _running_tail, _tail_sum, ln_gamma, mittag_leffler)

__all__ = [
    "GronwallInput",
    "BoundCurve",
    "VanishingReport",
    "check_vanishing",
    "resolvent_bound",
    "gronwall_sequence_bound",
    "gronwall_bound",
    "gronwall_curve",
    "induction_check",
    "InductionReport",
    "fractional_box_sup_bound",
]


@dataclass(frozen=True)
class GronwallInput:
    """Data of a Gronwall-type inequality.

    ``v0`` is the explicit forcing part; the kernel ``l``, when present,
    contributes the inhomogeneity ``(integral of l**p over the lower
    set)**(1/p)``, so that ``v = v0 + that term``.  ``k`` is the kernel of
    the implicit part.  The domain is an interval (``m = 1``) or a
    void-ordered set (``m = 0``).
    """

    v0: Union[float, Callable]
    k: Kernel
    measure: MeasureSpec
    p: float
    domain: Union[Interval1D, VoidSet]
    l: Optional[Kernel] = None

    def __post_init__(self):
        if not callable(self.v0):
            _nonnegative("v0", self.v0)
        # the void case reads its closed forms from the plans of k and l
        k_plan, l_plan = (None if f is None else _plan(f, self.measure, self.p)
                          for f in (self.k, self.l))
        if isinstance(self.domain, VoidSet):
            if k_plan.ordered or (l_plan is not None and l_plan.ordered):
                raise TypeError("void-ordered inputs need void kernels")
        elif not isinstance(self.domain, Interval1D):
            raise NotImplementedError(
                "bounds are implemented for one interval axis (m = 1) and "
                "the void order (m = 0)"
            )
        object.__setattr__(self, "_k_plan", k_plan)
        object.__setattr__(self, "_l_plan", l_plan)

    @property
    def m(self) -> int:
        """Number of ordered axes: 0 in the void case, 1 on intervals."""
        return 0 if isinstance(self.domain, VoidSet) else 1

    def v0_fn(self) -> Callable:
        return _as_fn(self.v0)

    def v_at(self, t: float, level: int = 8) -> float:
        """v(t) = v0(t) + (integral of l**p over the lower set)**(1/p)."""
        return float(self._v_values(np.array([float(t)]), level)[0])

    def _v_values(self, ts: np.ndarray, level: int = 8) -> np.ndarray:
        """``v_at`` at every t of ``ts``: one call of v0 and, on an
        interval, one batched evaluation of the l integrals over the
        dyadic grids of [lo, t] (``_row_integrals``)."""
        ts = np.asarray(ts, dtype=float)
        out = _nonnegative("v0", self.v0_fn()(ts))
        if self.l is None:
            return out
        r = 1.0 / self.p
        if self.m == 0:
            return out + self._l_plan.q ** r
        live = ts > self.domain.lo  # elsewhere the lower set is null
        if live.any():
            ints = _row_integrals(self.l, self.measure, self.p,
                                  self.domain.lo, ts[live], level)
            # scalar powers: an array power may differ in the last bit
            out[live] += [x**r for x in ints.tolist()]
        return out


@dataclass(frozen=True)
class BoundCurve:
    """Bound values along a list of evaluation points.

    ``sharp`` holds the resolvent-weighted first form, ``sup`` the
    supremum-based second form; ``sharp <= sup`` up to tolerance at every
    point.  ``tail_bound`` is the largest truncation tail across points.
    """

    ts: np.ndarray
    sharp: np.ndarray
    sup: np.ndarray
    tail_bound: float
    m: int

    def to_csv(self) -> str:
        lines = ["t,sharp,sup,tail"]
        for t, a, b in zip(self.ts, self.sharp, self.sup):
            lines.append(f"{t:.17g},{a:.17g},{b:.17g},{self.tail_bound:.17g}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class VanishingReport:
    vanishes: bool
    criterion: str


def check_vanishing(kernel: Kernel, measure: MeasureSpec, p: float,
                    u0: Union[float, Callable], t, domain,
                    strategy: str = "auto", level: int = 8) -> VanishingReport:
    """Decide whether the iterate-weighted integrals of u0 tend to zero.

    Only recognised sufficient criteria return a positive answer; the
    fallback is Unknown, never a false positive.  Criteria:

    * void order: mass below one and a finite weighted integral of u0;
    * the fractional family on Lebesgue measure: finiteness of the
      pole-weighted integral of ``u0**p`` (for beta = 0 plain local
      p-integrability); for a transported kernel the weight is
      ``phi'(s) (phi(s) - phi(t0))**(-beta)``;
    * monotone interval kernels: a finite gap integral together with
      either a grid-bounded u0 and finite series function
      (``strategy="bounded_u0"``) or a finite integral of ``k**p u0**p``
      (``strategy="summability"``); ``"auto"`` tries both.
    """
    return VanishingReport(*_plan(kernel, measure, p).vanishing(
        _checked_u0(u0), t, domain, strategy, level))


def _checked_u0(u0: Union[float, Callable]) -> Callable:
    """u0 as a function checked like v0, a constant at once."""
    u0f = _as_fn(u0 if callable(u0) else float(_nonnegative("u0", u0)))
    return lambda s: _nonnegative("u0", u0f(s))


def resolvent_bound(v: Union[float, Callable], kernel: Kernel,
                    measure: MeasureSpec, p: float, t,
                    domain=None, tol: float = 1e-10, level: int = 8,
                    n_cap: int = 400) -> SeriesValue:
    """v(t) plus the series of p-th roots of iterate-weighted integrals.

    This is the right-hand side of the resolvent inequality.  In the
    void case the series is geometric and summed in closed form; on
    intervals and atoms the terms are quadrature values with a factorial
    tail (monotone kernels, atomless measures) or the ratio tail.
    The fractional family with beta = 0 on Lebesgue measure uses
    closed-form layers: for a constant v the bound is ``v (1 + I(t))``
    with the series function I; for a function v and one untransported
    part each term is one singular quadrature, else the grid.  The
    caller checks the vanishing condition; this only evaluates the bound.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    return _plan(kernel, measure, p).bound(v, t, domain, tol, level, n_cap)


def gronwall_sequence_bound(inp: GronwallInput, u0: Union[float, Callable],
                            n: int, t, level: int = 8):
    """Per-iterate bounds: the sharp sum, the supremum form, and w_n.

    Returns ``(sharp, sup_form, w_n)`` where the sharp form is
    ``v(t) + w_n(t) + sum over i <= n-2`` of iterate-weighted integrals
    of ``v**p``, and the supremum form replaces the integrals by grid
    suprema and the inhomogeneity series.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p = inp.p
    u0f = _checked_u0(u0)
    v0f = inp.v0_fn()

    if inp.m == 0:
        plan = inp._k_plan
        q, pts, r = plan.q, plan.nodes, 1.0 / p
        int_kv = plan.weighted(inp._v_values(pts))
        v_t = inp.v_at(float(t))
        w_n = _scaled_power(plan.weighted(u0f(pts)), q, n - 1) ** r
        sharp = v_t + w_n + sum(_scaled_power(int_kv, q, i) ** r
                                for i in range(n - 1))
        sup_v0 = float(np.max(np.asarray(v0f(pts), dtype=float)))
        geo = sum(_scaled_power(1.0, q, i / p) for i in range(n))
        lser = 0.0 if inp.l is None else sum(
            _scaled_power(inp._l_plan.q, q, i) ** r for i in range(n))
        sup_form = (sup_v0 * geo if sup_v0 else 0.0) + w_n + lser
        return sharp, sup_form, w_n

    lower = _lower_set(inp, t, level)
    if len(lower) == 3:
        return lower
    op, kcol, lcol, Q, v_vals = lower
    row, q, v_t = op.row_weights, Q[0], float(v_vals[-1])
    row_k = _ext_mul(row, kcol)

    def roots(w, first, count):  # sum of the p-th roots of count sums
        sums = itertools.islice(_factorial_integrals(w, Q), first, None)
        return _root_sum(sums, p, None, 0.0, count).sum

    u0_vals = np.asarray(u0f(op.nodes), dtype=float)
    w_n = roots(_ext_mul(row_k, u0_vals**p), n - 1, 1)
    sharp = v_t + w_n + roots(_ext_mul(row_k, v_vals**p), 0, n - 1)
    sup_v0 = float(np.max(np.asarray(v0f(op.nodes), dtype=float)))
    log_fact = _factorial_log(q, p)
    geo = sum((math.exp(x) if x <= _LOG_MAX else math.inf
               for x in map(log_fact, range(1, n))), 1.0)
    lser = 0.0 if inp.l is None else roots(_ext_mul(row, lcol), 0, n)
    sup_form = (sup_v0 * geo if sup_v0 > 0 else 0.0) + w_n + lser
    return sharp, sup_form, w_n


def gronwall_bound(inp: GronwallInput, t, tol: float = 1e-12,
                   level: int = 8, n_cap: int = 500):
    """Both closed Gronwall bounds at t: ``(sharp, sup_form, tail)``.

    In the void case every series is geometric and closed-form (zero
    tail).  On an interval the series are truncated with a certified
    factorial tail, reported as ``tail``.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    p = inp.p
    if inp.m == 0:
        plan = inp._k_plan
        if plan.q >= 1.0:
            return math.inf, math.inf, 0.0
        r = plan.q ** (1.0 / p)
        int_kv = plan.weighted(inp._v_values(plan.nodes))
        v_t = inp.v_at(float(t))
        sharp = v_t + int_kv ** (1.0 / p) / (1.0 - r)
        sup_v0 = float(np.max(np.asarray(inp.v0_fn()(plan.nodes),
                                         dtype=float)))
        int_l = 0.0 if inp.l is None else inp._l_plan.q ** (1.0 / p)
        sup_form = (sup_v0 + int_l) / (1.0 - r)
        return sharp, sup_form, 0.0

    lower = _lower_set(inp, t, level)
    if len(lower) == 3:
        return lower
    op, kcol, lcol, Q, v_vals = lower
    row, q, v_t = op.row_weights, Q[0], float(v_vals[-1])
    sup_v = float(np.max(v_vals))

    # an infinite gap integral leaves no factorial majorant: each sum
    # stops after its first term with an infinite tail
    n_max = n_cap if math.isfinite(q) else 1
    log_fact = _factorial_log(q, p)
    # q = 0 zeroes the majorant, even times an infinite sup v (0 * inf = 0)
    sv = _root_sum(_factorial_integrals(_ext_mul(row, _ext_mul(
        kcol, v_vals**p)), Q), p, _running_tail(
            log_fact, 1, sup_v if q > 0 else 0.0, tol), tol, n_max)

    sup_v0 = float(np.max(np.asarray(inp.v0_fn()(op.nodes), dtype=float)))
    ml = mittag_leffler(MLParams(1.0, 1.0, p), q ** (1.0 / p), tol=1e-14)
    # 0 * inf = 0: sup v0 = 0 kills even an infinite Mittag-Leffler factor
    head, ml_tail = _ext_mul(np.array([ml.sum, ml.tail_bound]),
                             sup_v0).tolist()
    lsv = SeriesValue(0.0, 0.0, 0, True)  # no l
    if inp.l is not None:
        int_l = op.row_integral(lcol)
        # no majorant of l, or an infinite first term: sup form inf, exactly
        lsv = SeriesValue(math.inf, 0.0, 1, True) if math.isinf(int_l) else \
            _root_sum(_factorial_integrals(_ext_mul(row, lcol), Q), p,
                      _running_tail(log_fact, 0, int_l ** (1.0 / p), tol),
                      tol, n_max)
    return (v_t + sv.sum, head + lsv.sum,
            sv.tail_bound + ml_tail + lsv.tail_bound)


def _lower_set(inp: GronwallInput, t, level: int):
    """The grid of [lo, t] from the k plan, k(t, u)**p and l(t, u)**p on
    it (None without l; inf without a factorial majorant of l, making the
    sup forms inf), the suffix integrals Q of k**p and v at the nodes; or
    the bounds where no series is summed: ``(v0(t), v0(t), 0)`` on a null
    lower set, ``(inf, inf, inf)`` without a factorial majorant of k."""
    plan, lo = inp._k_plan, inp.domain.lo
    if plan.null(lo, t):  # only v0 survives
        v0_t = float(_nonnegative("v0", inp.v0_fn()(np.asarray(float(t)))))
        return v0_t, v0_t, 0.0
    if not plan._factorial:  # k not declared monotone, or atoms
        return math.inf, math.inf, math.inf
    op = plan.op(lo, t, level, finer=False)
    nodes, kcol, lcol = op.nodes, op.kernel_row(), None
    if inp.l is not None:
        lcol = _kernel_power(inp.l, inp.p, np.full(nodes.size, nodes[-1]),
                             nodes) if inp._l_plan._factorial \
            else np.full(nodes.size, math.inf)
    return op, kcol, lcol, op.suffix_integrals(kcol), inp._v_values(nodes,
                                                                   level)


def gronwall_curve(inp: GronwallInput, ts: Sequence[float],
                   tol: float = 1e-12, level: int = 8) -> BoundCurve:
    """Evaluate both Gronwall bounds along a list of points."""
    sharp, sup, tails = np.array([gronwall_bound(inp, t, tol=tol, level=level)
                                  for t in ts]).reshape(-1, 3).T
    return BoundCurve(ts=np.asarray(ts, dtype=float), sharp=sharp, sup=sup,
                      tail_bound=max(tails.tolist(), default=0.0), m=inp.m)


@dataclass(frozen=True)
class InductionReport:
    passed: bool
    witness: Optional[tuple] = None


def induction_check(psi: Callable, sequence: Sequence[np.ndarray],
                    J: Optional[np.ndarray] = None,
                    tol: float = 0.0) -> InductionReport:
    """Verify ``u_n <= psi^n(u_0)`` pointwise on the mask J.

    ``psi`` must be monotone on J (declared by the caller); ``sequence``
    is ``[u_0, u_1, ...]`` of grid functions.  Returns the first
    violating (iteration, index) pair as witness.
    """
    if not sequence:
        raise ValueError("need at least u_0")
    u = np.asarray(sequence[0], dtype=float)
    mask = np.ones_like(u, dtype=bool) if J is None else np.asarray(J, dtype=bool)
    power = u.copy()
    for n, u_n in enumerate(sequence[1:], start=1):
        power = np.asarray(psi(power), dtype=float)
        u_n = np.asarray(u_n, dtype=float)
        bad = (u_n > power + tol) & mask
        if np.any(bad):
            idx = int(np.argmax(bad))
            return InductionReport(passed=False, witness=(n, idx))
    return InductionReport(passed=True)


def fractional_box_sup_bound(k0_t: float, alphas: Sequence[float],
                             betas: Sequence[float], p: float,
                             t: Sequence[float], t0: Sequence[float],
                             v_sup: float, tol: float = 1e-12,
                             max_terms: int = 10_000) -> float:
    """Supremum-form bound for multivariate fractional kernels.

    Evaluates ``v_sup`` times the derived constant times the convergent
    series of per-axis gamma-quotient powers.  The constant is valid but
    possibly non-optimal (it reduces to the exact one when every beta
    vanishes).  The additive ``v(t)`` term is the caller's.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    params = [FractionalResolventParams(a, b, p)
              for a, b in zip(alphas, betas)]
    for prm in params:
        if prm.beta_p >= 1.0:
            raise ValueError("series requires beta * p < 1 on every axis")
    X = [float(ti) - float(t0i) for ti, t0i in zip(t, t0)]
    if min(X) <= 0:
        raise ValueError("need t above the origin on every axis")
    c_ab = fractional_inequality_constant(alphas, betas, p)
    c_b = math.exp(sum(ln_gamma(1.0 - prm.beta_p) / p for prm in params))
    log_k0 = math.log(k0_t) if k0_t > 0 else -math.inf

    def log_term(n: int) -> float:
        return n * log_k0 + sum(
            (n * (ln_gamma(prm.alpha_p) + prm.gap * math.log(Xi))
             - ln_gamma(prm.gap * n + 1.0)) / p
            for prm, Xi in zip(params, X))

    # tol is absolute: scale it down by an upper bound of the series
    sv = _log_series(log_term, 1, tol / max(1.0, _tail_sum(log_term, 1)),
                     max_terms)
    return v_sup * c_ab * c_b * (sv.sum + sv.tail_bound)
