"""The one log-space tail routine behind every certified series.

``_log_series`` sums log-concave terms and, once the term ratio r is
below 1/2, bounds the remainder by ``2 a_{n+1}``, which is more than
``a_{n+1} / (1 - r)``.
Checked on the five families the package sums with it (factorial
majorant, fractional point and series majorants, Mittag-Leffler, the
box supremum series) against a brute-force ``math.fsum`` reference and
against the hand-written loops it replaced, which are kept here as
references.  Also: the calls that used to raise ``OverflowError``.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from volgron.domains import Interval1D
from volgron.gronwall import fractional_box_sup_bound
from volgron.kernels import FractionalKernel
from volgron.measures import Lebesgue
from volgron.resolvent import (
    FractionalResolventParams,
    _factorial_log,
    resolvent_series,
    series_function_I,
)
from volgron.specfun import (
    MLParams,
    _log_series,
    _tail_sum,
    ln_gamma,
    mittag_leffler,
)

SLACK = 1e-12  # relative rounding slack of a float sum against fsum
SUBNORMAL_TAIL = 1e-300  # above any tail of a subnormal next term
TOLS = st.sampled_from([math.inf, 1e-3, 1e-8, 1e-13])


# ---------------------------------------------------------------------------
# the replaced loops, kept as references
# ---------------------------------------------------------------------------


def old_tail_factorial(q, p, n_start, max_terms=100_000):
    """Upper bound for sum over n >= n_start of (q**n / n!)**(1/p)."""
    if q == 0.0:
        return 0.0
    if not math.isfinite(q):
        return math.inf
    total = 0.0
    term = math.exp((n_start * math.log(q) - ln_gamma(n_start + 1.0)) / p)
    n = n_start
    for _ in range(max_terms):
        total += term
        ratio = (q / (n + 1.0)) ** (1.0 / p)
        if ratio < 0.5:
            return total + 2.0 * term * ratio
        term *= ratio
        n += 1
    return math.inf


def old_tail_fractional_point(params, x, y, n_start, max_terms=100_000):
    g, bp = params.gap, params.beta_p
    ln_cap = params.ln_c_hat_max
    total = 0.0
    prev = None
    n = n_start
    for _ in range(max_terms):
        log_t = (ln_cap + n * ln_gamma(params.alpha_p)
                 + (g * n + bp - 1.0) * math.log(x) - ln_gamma(g * n + bp))
        if bp > 0:
            log_t -= bp * math.log(y)
        term = math.exp(log_t)
        total += term
        if prev is not None and prev > 0 and term / prev < 0.5:
            return total + 2.0 * term
        prev = term
        n += 1
    return math.inf


def old_tail_fractional_series(params, X, p, n_start, max_terms=100_000):
    g, bp = params.gap, params.beta_p
    if bp >= 1.0:
        return math.inf
    ln_cap = params.ln_c_hat_max
    total = 0.0
    prev = None
    n = n_start
    for _ in range(max_terms):
        log_t = (ln_cap + n * ln_gamma(params.alpha_p) + ln_gamma(1.0 - bp)
                 + g * n * math.log(X) - ln_gamma(g * n + 1.0)) / p
        term = math.exp(log_t)
        total += term
        if prev is not None and prev > 0 and term / prev < 0.5:
            return total + 2.0 * term
        prev = term
        n += 1
    return math.inf


def _ml_term(params, n, log_z):
    arg = params.alpha * n + params.beta
    if arg <= 0:
        return 0.0
    return math.exp(n * log_z - ln_gamma(arg) / params.p)


def old_mittag_leffler(params, z, tol=1e-14, max_terms=100_000):
    """(sum, tail, terms, converged) of the replaced summation loop."""
    if z == 0.0:
        first = 0.0 if params.beta == 0 else \
            math.exp(-ln_gamma(params.beta) / params.p)
        return first, 0.0, 1, True
    log_z = math.log(z)
    total = _ml_term(params, 0, log_z)
    prev = None
    for n in range(1, max_terms + 1):
        term = _ml_term(params, n, log_z)
        total += term
        if prev is not None and prev > 0.0:
            if term / prev < 0.5 and term < tol * max(1.0, total):
                return total, 2.0 * term, n + 1, True
        prev = term
    return total, math.inf, max_terms + 1, False


def old_box_sup_bound(k0_t, alphas, betas, p, t, t0, v_sup, tol=1e-12,
                      max_terms=10_000):
    from volgron.resolvent import fractional_inequality_constant

    params = [FractionalResolventParams(a, b, p)
              for a, b in zip(alphas, betas)]
    c_ab = fractional_inequality_constant(alphas, betas, p)
    c_b = math.exp(sum(ln_gamma(1.0 - prm.beta_p) / p for prm in params))
    total = 0.0
    prev = None
    for n in range(1, max_terms + 1):
        log_term = n * math.log(k0_t) if k0_t > 0 else -math.inf
        for prm, ti, t0i in zip(params, t, t0):
            g = prm.gap
            X = float(ti) - float(t0i)
            log_term += (n * (ln_gamma(prm.alpha_p) + g * math.log(X))
                         - ln_gamma(g * n + 1.0)) / p
        term = math.exp(log_term)
        total += term
        if prev is not None and prev > 0 and term / prev < 0.5 and term < tol:
            total += 2.0 * term
            break
        prev = term
    return v_sup * c_ab * c_b * total


# ---------------------------------------------------------------------------
# brute-force reference
# ---------------------------------------------------------------------------


def assume_no_tie(log_term, n_start, count=600):
    """Skip inputs with a term ratio of 1/2 up to rounding: rounding
    settles such a tie either way, in the replaced loops and here."""
    for n in range(n_start, n_start + count):
        a, b = log_term(n), log_term(n + 1)
        if a > -math.inf and b > -math.inf:
            assume(abs(math.exp(min(b - a, 0.0)) - 0.5) > 1e-9)


def check_against_fsum(log_term, n_start, tol):
    """The helper's enclosure, its tail against the true remainder, and
    the returned SeriesValue."""
    sv = _log_series(log_term, n_start, tol, 100_000)
    assume(sv.converged)
    stop = n_start + sv.terms_used
    head = [math.exp(log_term(n)) for n in range(n_start, stop)]
    # past the stop every ratio is below 1/2: 400 more terms leave a
    # remainder below 2**-400 of the first
    rest = math.fsum(math.exp(log_term(n)) for n in range(stop, stop + 400))
    ref = math.fsum(head) + rest
    assert sv.sum <= ref * (1.0 + SLACK)
    assert ref <= (sv.sum + sv.tail_bound) * (1.0 + SLACK)
    assert rest <= sv.tail_bound * (1.0 + SLACK)
    assert sv.tail_bound <= 2.0 * rest * (1.0 + SLACK)
    return sv


def frac_params(alpha, beta_frac, p, gap_min=0.3):
    """Parameters with beta_p a fraction of its admissible range and a
    gap of at least ``gap_min``, or None."""
    ap = (alpha - 1.0) * p + 1.0
    if ap - gap_min <= 0:
        return None
    beta = beta_frac * min(ap - gap_min, 0.95) / p
    return FractionalResolventParams(alpha, beta, p)


ALPHA = st.floats(0.75, 1.6)
BETA_FRAC = st.floats(0.0, 1.0)
P = st.floats(1.0, 1.5)
LENGTH = st.floats(0.05, 2.0)
START = st.integers(1, 40)


# ---------------------------------------------------------------------------
# the five families
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(q=st.floats(0.0, 40.0), p=st.floats(1.0, 3.0), n_start=START,
       tol=TOLS)
def test_factorial_family(q, p, n_start, tol):
    log_term = _factorial_log(q, p)
    check_against_fsum(log_term, n_start, tol)
    assume_no_tie(log_term, n_start)
    old = old_tail_factorial(q, p, n_start)
    assert _tail_sum(log_term, n_start) <= old * (1.0 + SLACK)


@settings(max_examples=60, deadline=None)
@given(alpha=ALPHA, beta_frac=BETA_FRAC, p=P, x=LENGTH, y=LENGTH,
       n_start=START, tol=TOLS)
def test_fractional_point_family(alpha, beta_frac, p, x, y, n_start, tol):
    params = frac_params(alpha, beta_frac, p)
    assume(params is not None)

    def log_term(n):
        return params.log_layer_bound(n, x, y, params.ln_c_hat_max)

    check_against_fsum(log_term, n_start, tol)
    assume_no_tie(log_term, n_start)
    old = old_tail_fractional_point(params, x, y, n_start)
    assert _tail_sum(log_term, n_start) <= old * (1.0 + SLACK)


@settings(max_examples=60, deadline=None)
@given(alpha=ALPHA, beta_frac=BETA_FRAC, p=P, X=LENGTH, n_start=START,
       tol=TOLS)
def test_fractional_series_family(alpha, beta_frac, p, X, n_start, tol):
    params = frac_params(alpha, beta_frac, p)
    assume(params is not None)

    def log_term(n):
        return params.log_series_bound(n, X, params.ln_c_hat_max)

    check_against_fsum(log_term, n_start, tol)
    assume_no_tie(log_term, n_start)
    old = old_tail_fractional_series(params, X, p, n_start)
    assert _tail_sum(log_term, n_start) <= old * (1.0 + SLACK)


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.5, 2.5), beta=st.floats(0.0, 3.0),
       p=st.floats(1.0, 3.0),
       z=st.one_of(st.just(0.0), st.floats(1e-3, 8.0)),
       tol=st.sampled_from([1e-6, 1e-10, 1e-14]))
def test_mittag_leffler_family(alpha, beta, p, z, tol):
    params = MLParams(alpha, beta, p)
    log_z = math.log(z) if z > 0 else -math.inf

    def log_term(n):
        arg = alpha * n + beta
        if arg <= 0:
            return -math.inf
        return (n * log_z if n else 0.0) - ln_gamma(arg) / p

    sv = check_against_fsum(log_term, 0, tol)
    assert mittag_leffler(params, z, tol=tol) == sv
    assume_no_tie(log_term, 0, sv.terms_used + 2)
    _, old_tail, old_terms, old_ok = old_mittag_leffler(params, z, tol=tol)
    assert old_ok
    # the old loop also stopped on ratios of subnormal terms, which are
    # rounded: its tails there are not compared
    assert sv.tail_bound <= max(old_tail, SUBNORMAL_TAIL)
    assert sv.terms_used <= old_terms


@settings(max_examples=40, deadline=None)
@given(k0=st.floats(0.0, 2.0), a1=ALPHA, a2=ALPHA, b1=BETA_FRAC,
       b2=BETA_FRAC, p=P, X1=st.floats(0.1, 1.5), X2=st.floats(0.1, 1.5),
       tol=TOLS)
def test_box_family(k0, a1, a2, b1, b2, p, X1, X2, tol):
    axes = [frac_params(a1, b1, p), frac_params(a2, b2, p)]
    assume(None not in axes)
    log_k0 = math.log(k0) if k0 > 0 else -math.inf

    def log_term(n):
        return n * log_k0 + sum(
            (n * (ln_gamma(prm.alpha_p) + prm.gap * math.log(X))
             - ln_gamma(prm.gap * n + 1.0)) / p
            for prm, X in zip(axes, (X1, X2)))

    check_against_fsum(log_term, 1, tol)
    args = (k0, (a1, a2), tuple(prm.beta for prm in axes), p, (X1, X2),
            (0.0, 0.0), 1.0)
    assume_no_tie(log_term, 1)
    old = old_box_sup_bound(*args)
    assert fractional_box_sup_bound(*args) <= old * (1.0 + SLACK)


# ---------------------------------------------------------------------------
# the contract at its edges
# ---------------------------------------------------------------------------


def test_zero_terms_end_the_series():
    assert _log_series(lambda n: -math.inf, 1, 1e-10, 10) == \
        mittag_leffler(MLParams(1.0, 0.0), 0.0)
    sv = _log_series(lambda n: -math.inf, 1, 1e-10, 10)
    assert (sv.sum, sv.tail_bound, sv.terms_used, sv.converged) == \
        (0.0, 0.0, 1, True)
    # a leading zero term (1 / gamma(0+)) does not end the series
    sv = mittag_leffler(MLParams(1.0, 0.0), 1.0)
    assert sv.converged
    assert sv.sum == pytest.approx(math.e, rel=1e-14)


def test_running_out_of_terms_is_unconverged():
    sv = _log_series(lambda n: 0.0, 0, 1e-10, 50)
    assert (sv.sum, sv.tail_bound, sv.terms_used, sv.converged) == \
        (50.0, math.inf, 50, False)


@pytest.mark.parametrize("log_term", [
    lambda n: 800.0 - n,                 # the first term overflows
    lambda n: 1000.0 * n - n * n,        # the second one does
    lambda n: 709.0 + math.log1p(n),     # the sum does, every term finite
], ids=["first", "later", "sum"])
def test_float_overflow_is_unconverged_never_raised(log_term):
    sv = _log_series(log_term, 0, 1e-10, 100)
    assert sv.sum == math.inf and sv.tail_bound == math.inf
    assert not sv.converged


def test_tail_sum_of_infinite_and_zero_ratios():
    assert _tail_sum(_factorial_log(math.inf, 1.0), 3) == math.inf
    assert _tail_sum(_factorial_log(0.0, 2.0), 1) == 0.0


# ---------------------------------------------------------------------------
# public calls that used to raise OverflowError
# ---------------------------------------------------------------------------


def test_fractional_resolvent_series_overflow_is_unconverged():
    sv = resolvent_series(FractionalKernel(0.3, 0.2), Lebesgue(), 1.0, 1.0,
                          0.5)
    assert not sv.converged and sv.tail_bound == math.inf


@pytest.mark.parametrize("alpha, z", [(0.1, 100.0), (1.0, 1e300)])
def test_mittag_leffler_overflow_is_infinite_unconverged(alpha, z):
    sv = mittag_leffler(MLParams(alpha, 1.0, 1.0), z)
    assert sv.sum == math.inf and sv.tail_bound == math.inf
    assert not sv.converged


def test_box_sup_bound_overflow_is_infinite():
    assert fractional_box_sup_bound(1.0, (0.2, 0.2), (0, 0), 1.0, (1, 1),
                                    (0, 0), 1.0) == math.inf


def test_box_sup_bound_out_of_terms_is_infinite():
    args = (1.0, (0.8, 0.9), (0.0, 0.1), 1.0, (1.0, 1.0), (0.0, 0.0), 1.0)
    assert math.isfinite(fractional_box_sup_bound(*args))
    # the old loop returned its partial sum here
    assert old_box_sup_bound(*args, max_terms=2) < \
        fractional_box_sup_bound(*args)
    assert fractional_box_sup_bound(*args, max_terms=2) == math.inf


def test_series_function_beta_positive_stays_an_unconverged_envelope():
    dom = Interval1D(0.0, 1.0)
    sv = series_function_I(FractionalKernel(0.8, 0.2), Lebesgue(), 1.0, 1.0,
                           domain=dom)
    assert not sv.converged and math.isfinite(sv.sum)
    exact = series_function_I(FractionalKernel(0.8, 0.0), Lebesgue(), 1.0,
                              1.0, domain=dom)
    assert exact.converged and exact.tail_bound < 1e-10
