"""Gamma-family special functions and a Mittag-Leffler-type series.

The series evaluated here generalises the Mittag-Leffler function by
taking the p-th root of the gamma factor in each denominator,

    sum_{n >= 0} z**n / gamma(alpha*n + beta)**(1/p),

which majorises the resolvent series of fractional kernels raised to the
p-th power.

Every certified series of the package is summed by ``_log_series``:
the terms are log-concave (ln gamma is convex), so once a term ratio r
drops below 1/2 the remainder is at most twice the next term.  A term
above the float range gives an unconverged ``inf``, never an exception.
The majorant tail after each term of a resolvent series is one
``_running_tail``, which sums it afresh only where it can be below tol.

Log-gamma comes from the platform libm.  Digamma is delegated to
``scipy.special``, imported on its first call, so importing this module
does not load scipy.  Their contracts are pinned by the tests.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "ln_gamma",
    "beta",
    "ln_beta",
    "digamma",
    "gamma_min_point",
    "MLParams",
    "SeriesValue",
    "mittag_leffler",
]


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if x <= 0:
        raise ValueError(f"ln_gamma requires a positive argument, got {x}")
    return math.lgamma(x)


def ln_beta(a: float, b: float) -> float:
    if a <= 0 or b <= 0:
        raise ValueError(f"beta requires positive arguments, got ({a}, {b})")
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def beta(a: float, b: float) -> float:
    """Beta function, evaluated in log space."""
    return math.exp(ln_beta(a, b))


def digamma(x: float) -> float:
    """Logarithmic derivative of the gamma function for x > 0."""
    if x <= 0:
        raise ValueError(f"digamma requires a positive argument, got {x}")
    from scipy.special import digamma as scipy_digamma

    return float(scipy_digamma(x))


# The root of digamma in (1, 2), as 200 bisection steps on scipy's digamma
# locate it, and exp(ln_gamma) there; pinned against both by the tests.
_GAMMA_MIN_X = 1.4616321449683625
_GAMMA_MIN_VALUE = 0.8856031944108883


def gamma_min_point() -> tuple[float, float]:
    """Global minimum of the gamma function on (0, inf).

    Returns the minimiser, the unique root of digamma in (1, 2), and the
    gamma value there.
    """
    return _GAMMA_MIN_X, _GAMMA_MIN_VALUE


@dataclass(frozen=True)
class MLParams:
    """Parameters (alpha, beta, p) of the generalised Mittag-Leffler series."""

    alpha: float
    beta: float
    p: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if self.p < 1:
            raise ValueError("p must be >= 1")


@dataclass(frozen=True)
class SeriesValue:
    """A truncated nonnegative series with a certified tail bound.

    When ``converged`` is set, the true sum lies in
    ``[sum, sum + tail_bound]``.
    """

    sum: float
    tail_bound: float
    terms_used: int
    converged: bool

    def __post_init__(self):
        if math.isnan(self.sum) or math.isnan(self.tail_bound):
            raise ValueError("series values are never NaN")
        if self.tail_bound < 0:
            raise ValueError("tail bound must be nonnegative")


_LOG_MAX = math.log(sys.float_info.max)  # largest finite exp argument
_LOG_TINY = math.log(sys.float_info.min)  # below: subnormal terms


def _log_series(log_term: Callable[[int], float], n_start: int, tol: float,
                max_terms: int) -> SeriesValue:
    """Sum a_n = exp(log_term(n)) over n >= n_start with a certified tail.

    Contract: the differences log_term(n + 1) - log_term(n) never
    increase (the terms are log-concave), and log_term is never NaN.  A
    log-term of -inf is a zero term; a -inf after a finite one (or after
    a -inf) ends the series.  After term n the ratio r = a_{n+1} / a_n
    bounds every later ratio, so the remainder is at most
    a_{n+1} / (1 - r), and at most 2 a_{n+1} once r < 1/2.  That bound
    is the tail: within a factor 2 of the remainder, with the slack over
    a_{n+1} / (1 - r) left for the rounding of the float sum.  Summing
    stops when the tail is at most ``tol * max(1, partial sum)``; with
    ``tol = inf`` at the first ratio below 1/2.  A falling next term
    below the normal float range also stops the sum, with the tail
    a_{n+1} / min(1/2, 1 - r): subnormal or zero.

    Never raises: a term above the float range returns sum and tail
    ``inf``, and running out of ``max_terms`` returns the partial sum
    with tail ``inf``, both with ``converged=False``.
    """
    total = 0.0
    cur = log_term(n_start)
    for used in range(1, max_terms + 1):
        total += math.exp(cur) if cur <= _LOG_MAX else math.inf
        if total == math.inf:
            return SeriesValue(math.inf, math.inf, used, False)
        nxt = log_term(n_start + used)
        step = nxt - cur if nxt > -math.inf else -math.inf
        r = math.exp(min(step, 0.0))
        if r < 0.5 or (r < 1.0 and nxt < _LOG_TINY):
            rest = math.exp(nxt) / min(0.5, 1.0 - r)
            if rest <= tol * max(1.0, total):
                return SeriesValue(total, rest, used, True)
        cur = nxt
    return SeriesValue(total, math.inf, max_terms, False)


def _tail_sum(log_term: Callable[[int], float], n_start: int) -> float:
    """Certified upper bound, within a factor 2, for the sum over
    n >= n_start of ``exp(log_term(n))``: ``_log_series`` with
    ``tol = inf``, sum plus tail (``inf`` when it does not converge)."""
    sv = _log_series(log_term, n_start, math.inf, 100_000)
    return sv.sum + sv.tail_bound


def _running_tail(log_term: Callable[[int], float], first: int,
                  scale: float, tol: float):
    """``tail(n)`` for n = 1, 2, ... in turn: ``scale * _tail_sum(log_term,
    n + first)`` bit for bit where that is below tol (scale >= 0), else
    inf, summed afresh only where it can be below tol: not from starts up
    to a term K that overflowed a fresh sum with scale a_K >= tol (a sum
    through K is at least a_K), nor while ``low``, the last fresh sum less
    the terms taken off it since and their rounding, is at least tol."""
    above, low = 0, -math.inf

    def tail(n: int) -> float:
        nonlocal above, low
        if n < above:
            return math.inf
        if low > 0.0:
            low -= scale * math.exp(log_term(n + first - 1))
            if low >= tol:
                return math.inf
        sv = _log_series(log_term, n + first, math.inf, 100_000)
        if sv.sum == math.inf:
            top = log_term(n + first + sv.terms_used - 1)
            if top > _LOG_MAX or scale * math.exp(top) >= tol:
                above = n + sv.terms_used
            low = -math.inf
            return math.inf
        low = scale * sv.sum * (1.0 - 1e-15 * (sv.terms_used + 4))
        rest = scale * (sv.sum + sv.tail_bound)
        return rest if rest < tol else math.inf

    return tail


def mittag_leffler(params: MLParams, z: float, tol: float = 1e-14,
                   max_terms: int = 100_000) -> SeriesValue:
    """Evaluate the generalised Mittag-Leffler series at z >= 0.

    Summed by ``_log_series`` from n = 0: the gamma quotient
    gamma(x + alpha) / gamma(x) is increasing in x because digamma is,
    so the term ratios never increase.  For beta = 0 the n = 0 term is
    taken as zero, the limit convention 1/gamma(0+) = 0.  A value above
    the float range is ``inf`` with ``converged=False``.
    """
    if z < 0:
        raise ValueError("z must be nonnegative")
    if not tol > 0:
        raise ValueError("tol must be positive")
    log_z = math.log(z) if z > 0 else -math.inf

    def log_term(n: int) -> float:
        arg = params.alpha * n + params.beta
        if arg <= 0:
            return -math.inf  # n = 0 with beta = 0
        return (n * log_z if n else 0.0) - ln_gamma(arg) / params.p

    return _log_series(log_term, 0, tol, max_terms)
