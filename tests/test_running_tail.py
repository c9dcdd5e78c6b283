"""``specfun._running_tail``, the one majorant tail of every resolvent
series, against ``scale * _tail_sum(log_term, n + first)`` summed afresh
at every n, and the series that read it against loops that sum a fresh
tail at every term."""

import math
from functools import lru_cache

import numpy as np
import pytest

from volgron import resolvent, specfun
from volgron.domains import Interval1D
from volgron.gronwall import resolvent_bound
from volgron.kernels import (FractionalKernel, SeparableKernel, SumKernel,
                             constant_kernel)
from volgron.measures import Lebesgue, WeightedLebesgue
from volgron.resolvent import (FractionalResolventParams, _factorial_integrals,
                               _factorial_log, _multinomial_terms, _plan,
                               series_function_I)
from volgron.specfun import SeriesValue, _running_tail, _tail_sum

N_CAP = 400
DOM = Interval1D(0.0, 1.0)


def _factorial(q, p):
    return lru_cache(maxsize=None)(_factorial_log(q, p))


def _mittag_leffler(alpha, X):
    prm = FractionalResolventParams(alpha, 0.0, 1.0)
    return lru_cache(maxsize=None)(
        lambda k: prm.log_series_bound(k, X, 0.0))


def _narrow_peak():
    # above the float range at n = 10 alone
    return lambda n: 720.0 - 50.0 * (n - 10) ** 2


def _sum_overflow():
    # terms 1 and 2 are finite, their sum is not; then a steep fall
    return lambda n: 709.67 - 0.405 * (n - 1) - 200.0 * max(n - 2, 0)


LOG_TERMS = {
    "narrow peak": (_narrow_peak,),
    "sum overflow": (_sum_overflow,),
    **{f"factorial q={q} p={p}": (_factorial, q, p)
       for q in (0.0, 1e-3, 0.7, 3.0, 40.0, 800.0, math.inf)
       for p in (1.0, 2.0)},
    **{f"mittag-leffler alpha={a} X={X}": (_mittag_leffler, a, X)
       for a in (0.3, 0.75, 1.4) for X in (0.5, 1.0, 3.0)},
}


@pytest.fixture
def memo_log_series(monkeypatch):
    """``specfun._log_series`` memoised: every fresh sum, of the reference
    or of a tail, is summed once per log-term and start (the same value)."""
    memo, log_series = {}, specfun._log_series

    def memoised(*args):
        if args not in memo:
            memo[args] = log_series(*args)
        return memo[args]

    monkeypatch.setattr(specfun, "_log_series", memoised)


@pytest.mark.parametrize("name", sorted(LOG_TERMS))
def test_running_tail_is_the_fresh_tail_wherever_below_tol(name,
                                                           memo_log_series):
    make, *args = LOG_TERMS[name]
    log_term = make(*args)
    fresh = [_tail_sum(log_term, start) for start in range(N_CAP + 2)]
    for first in (0, 1):
        for scale in (0.0, 1e-300, 1.0, 7.5, math.inf):
            for tol in (1e-14, 1e-10, 1.0):
                tail = _running_tail(log_term, first, scale, tol)
                for n in range(1, N_CAP + 1):
                    got, ref = tail(n), scale * fresh[n + first]
                    if ref < tol:
                        assert got.hex() == ref.hex(), (first, scale, tol, n)
                    else:
                        assert got >= tol, (first, scale, tol, n, got, ref)


def test_overflowing_log_term_is_summed_once_per_start_up_to_it(monkeypatch):
    # 14.2 n passes the float range first at n = 50
    log_term = lambda n: 14.2 * n  # noqa: E731
    assert 14.2 * 49 < specfun._LOG_MAX < 14.2 * 50
    starts = []
    log_series = specfun._log_series

    def spy(f, n_start, tol, max_terms):
        starts.append(n_start)
        return log_series(f, n_start, tol, max_terms)

    monkeypatch.setattr(specfun, "_log_series", spy)
    tail = _running_tail(log_term, 0, 1.0, 1e-10)
    assert all(tail(n) == math.inf for n in range(1, 51))
    assert starts == [1]


# ---------------------------------------------------------------------------
# the slow cases of fresh tails: pinned results, counted log-terms
# ---------------------------------------------------------------------------


def _hex(sv):
    return (sv.sum.hex(), sv.tail_bound.hex(), sv.terms_used, sv.converged)


def _count(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_two_part_series_function_sums_its_majorant_once(monkeypatch):
    kern = SumKernel((FractionalKernel(0.3, 0.0), FractionalKernel(0.5, 0.0)))
    X, plan = 1.0, _plan(kern, Lebesgue(), 1.0)
    calls = _count(monkeypatch, FractionalResolventParams, "log_series_bound")
    _tail_sum(plan._log_series_majorant(X), 2)
    one_sum, calls[:] = len(calls), []
    sv = series_function_I(kern, Lebesgue(), 1.0, 1.0)
    assert _hex(sv) == ("0x1.724c3c0463bbap+117", "inf", N_CAP, False)
    assert len(calls) <= one_sum + 2 * N_CAP


def test_fractional_bound_of_a_function_sums_its_majorant_once(monkeypatch):
    kern = FractionalKernel(0.3, 0.0)
    plan = _plan(kern, Lebesgue(), 1.0)
    calls = _count(monkeypatch, FractionalResolventParams, "log_series_bound")
    _tail_sum(plan._log_series_majorant(1.0), 2)
    one_sum, calls[:] = len(calls), []
    sv = resolvent_bound(lambda s: 1 + s / 2, kern, Lebesgue(), 1.0, 1.0, DOM)
    assert _hex(sv) == ("0x1.5448e98e4bd4ap+57", "inf", N_CAP, False)
    # the tail falls from about 1e17 to about 1e-8 by term 400, and a
    # running lower bound lasts while the tail is above the rounding of
    # its fresh sum, about 1e-12 of it: three fresh sums
    assert len(calls) <= 3 * one_sum + 2 * N_CAP


@pytest.mark.parametrize("which, pin", [
    ("series", ("0x1.2fc209c66df0fp+491", "inf", N_CAP, False)),
    ("bound", ("0x1.30099945476abp+491", "inf", N_CAP, False)),
])
def test_rank_one_factorial_tail_sums_its_majorant_once(monkeypatch, which,
                                                         pin):
    # the gap integral q = 30 * 0.9 = 27 at p = 2: the majorant
    # (q**n / n!)**(1/2) keeps ratios above 1/2 up to n = 4 q
    kern, p = constant_kernel(30.0), 2.0
    op = _plan(kern, Lebesgue(), p).op(0.0, 0.9, 6)
    q = float((op.row_weights * op.kernel_row()).sum())
    calls = _count(monkeypatch, resolvent, "ln_gamma")
    _tail_sum(_factorial_log(q, p), 2)
    one_sum, calls[:] = len(calls), []
    if which == "series":
        sv = series_function_I(kern, Lebesgue(), p, 0.9, DOM, level=6)
    else:
        sv = resolvent_bound(lambda s: 1 + s, kern, Lebesgue(), p, 0.9, DOM,
                             level=6)
    assert _hex(sv) == pin
    assert len(calls) <= one_sum + 2 * N_CAP


# ---------------------------------------------------------------------------
# series against loops that sum a fresh tail at every term
# ---------------------------------------------------------------------------


def loop_several_part_series(alphas, X, tol, n_cap=N_CAP):
    """The series function of a sum of beta = 0 fractional kernels over a
    lower set of length X: multinomial terms, and the least part's
    Mittag-Leffler majorant scaled by C**n, summed afresh from n + 1."""
    a_min = min(alphas)
    prm = FractionalResolventParams(a_min, 0.0, 1.0)
    ln_c = math.log(sum(X ** (a - a_min) for a in alphas))
    log_maj = lambda k: prm.log_series_bound(k, X, 0.0) + k * ln_c  # noqa
    total = 0.0
    for n in range(1, n_cap + 1):
        total += sum(math.exp(c + A * math.log(X)) / A
                     for A, c in _multinomial_terms(tuple(alphas), n))
        tail = _tail_sum(log_maj, n + 1)
        if tail < tol:
            return SeriesValue(total, tail, n, True)
    return SeriesValue(total, math.inf, n_cap, False)


@pytest.mark.parametrize("alphas, t, tol", [
    ((0.5, 0.75), 0.9, 1e-10),
    ((0.75, 1.2), 1.0, 1e-10),
    ((0.6, 0.9, 1.3), 0.5, 1e-12),
    ((0.4, 1.5), 0.5, 1e-8),
])
def test_several_part_series_function_matches_the_fresh_tail_loop(alphas, t,
                                                                   tol):
    kern = SumKernel(tuple(FractionalKernel(a, 0.0) for a in alphas))
    got = series_function_I(kern, Lebesgue(), 1.0, t, DOM, tol=tol)
    assert got.converged
    assert _hex(got) == _hex(loop_several_part_series(alphas, t, tol))


def loop_rank_one_series(kernel, measure, p, t, v, tol, level,
                         n_cap=N_CAP):
    """A rank-one series over [0, t] term by term, ``sum w v**p Q**(n-1) /
    (n-1)!``, with its tail summed afresh at every term: sup v (q**n /
    n!)**(1/p), q = sum w, for a monotone kernel; else W**(1/p) (q**(n-1) /
    (n-1)!)**(1/p), W = sum w v**p, q = max Q."""
    plan = _plan(kernel, measure, p)
    op = plan.op(0.0, t, level)
    Q, w = plan.gap_profile(op.nodes), op.row_weights * op.kernel_row()
    v_vals = np.asarray(v(op.nodes), dtype=float)
    wv = w * v_vals**p
    if kernel.monotone:
        scale, log_fact, first = float(np.max(v_vals)), _factorial_log(
            float(w.sum()), p), 1
    else:
        scale, log_fact, first = float(wv.sum()) ** (1.0 / p), \
            _factorial_log(float(Q.max()), p), 0
    total, n = 0.0, 0
    for n, integ in zip(range(1, n_cap + 1), _factorial_integrals(wv, Q)):
        total += max(integ, 0.0) ** (1.0 / p)
        tail = scale * _tail_sum(log_fact, n + first)
        if tail < tol:
            return SeriesValue(total, tail, n, True)
    return SeriesValue(total, math.inf, n, False)


INCREASING = SeparableKernel(lambda t: 1 + t, lambda s: 1 + s)
DECREASING = SeparableKernel(lambda t: 2 - t, lambda s: 1 + 0 * s,
                             k0_monotone="decreasing")
WEIGHT = WeightedLebesgue(lambda u: 1 + u)


@pytest.mark.parametrize("kernel",
                         [INCREASING, DECREASING, constant_kernel(3.0)],
                         ids=["factorial", "not-monotone", "constant"])
@pytest.mark.parametrize("measure", [Lebesgue(), WEIGHT],
                         ids=["lebesgue", "weighted"])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_rank_one_series_match_the_fresh_tail_loop(kernel, measure, p):
    for v, tol in ((lambda s: 1.0 + 0 * s, 1e-10), (lambda s: 1 + s, 1e-12)):
        got = resolvent_bound(v, kernel, measure, p, 0.9, DOM, tol=tol,
                              level=5)
        ref = loop_rank_one_series(kernel, measure, p, 0.9, v, tol, 5)
        assert got.converged
        assert _hex(got) == _hex(SeriesValue(
            float(v(np.asarray(0.9))) + ref.sum, ref.tail_bound,
            ref.terms_used, ref.converged))
