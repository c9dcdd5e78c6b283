"""Gamma-family special functions and a Mittag-Leffler-type series.

The series evaluated here generalises the Mittag-Leffler function by
taking the p-th root of the gamma factor in each denominator,

    sum_{n >= 0} z**n / gamma(alpha*n + beta)**(1/p),

which majorises the resolvent series of fractional kernels raised to the
p-th power.  Truncation is certified: because the digamma function is
strictly increasing, the term ratios are eventually strictly decreasing,
so once a ratio drops below 1/2 the tail is bounded by twice the last
term.

Log-gamma comes from the platform libm.  Digamma is delegated to
``scipy.special``, imported on its first call, so importing this module
does not load scipy.  Their contracts are pinned by the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _ml_term(params: MLParams, n: int, log_z: float) -> float:
    # z**n / gamma(alpha n + beta)**(1/p), in log space to postpone overflow
    arg = params.alpha * n + params.beta
    if arg <= 0:
        # only n = 0 with beta = 0: gamma(0+) = inf, so the term is zero
        return 0.0
    return math.exp(n * log_z - ln_gamma(arg) / params.p)


def mittag_leffler(params: MLParams, z: float, tol: float = 1e-14,
                   max_terms: int = 100_000) -> SeriesValue:
    """Evaluate the generalised Mittag-Leffler series at z >= 0.

    The series is summed until the current term is below
    ``tol * max(1, partial sum)`` and the ratio of the last two terms is
    below 1/2.  Past that point the ratios keep decreasing (the gamma
    quotient gamma(x + alpha)/gamma(x) is increasing in x because digamma
    is), so the tail is geometric and bounded by twice the last term.

    For beta = 0 the n = 0 term is taken as zero, the limit convention
    1/gamma(0+) = 0.
    """
    if z < 0:
        raise ValueError("z must be nonnegative")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if z == 0.0:
        first = 0.0 if params.beta == 0 else math.exp(-ln_gamma(params.beta) / params.p)
        return SeriesValue(first, 0.0, 1, True)

    log_z = math.log(z)
    total = _ml_term(params, 0, log_z)
    prev = None
    for n in range(1, max_terms + 1):
        term = _ml_term(params, n, log_z)
        if math.isinf(term) or math.isinf(total):
            return SeriesValue(math.inf, math.inf, n, False)
        total += term
        if prev is not None and prev > 0.0:
            ratio = term / prev
            if ratio < 0.5 and term < tol * max(1.0, total):
                return SeriesValue(total, 2.0 * term, n + 1, True)
        prev = term
    return SeriesValue(total, math.inf, max_terms + 1, False)
