"""The fractional resolvent series against the loop that sums a fresh
Mittag-Leffler majorant tail at every term, kept here as the reference:
the same ``SeriesValue`` bit for bit, while a tail bounded below by tol
is no longer summed again."""

import math
from functools import lru_cache

import pytest

from volgron.kernels import FractionalKernel
from volgron.measures import Lebesgue
from volgron.resolvent import (
    FractionalResolventParams,
    _FractionalProfile,
    fractional_f,
    resolvent_series,
)
from volgron.specfun import SeriesValue, _tail_sum


def loop_fractional_series(kernel, p, t, s, tol, n_cap):
    """The replaced loop: the majorant tail from n + 1 at every term (its
    log-terms cached, which changes no value)."""
    params = FractionalResolventParams(kernel.alpha, kernel.beta, p)
    x, y = t - s, s - kernel.t0
    prof = (_FractionalProfile(params, x / y)
            if params.beta_p > 0 and y > 0 else None)
    log_maj = lru_cache(maxsize=None)(lambda k: params.log_layer_bound(
        k, x, y, params.ln_c_hat_max))
    total = 0.0
    for n in range(1, n_cap + 1):
        term = (float(prof.f(n, x, y)) if prof is not None
                else fractional_f(params, n, x, y))
        if math.isinf(term):
            return SeriesValue(math.inf, 0.0, n, True)
        total += term
        tail = _tail_sum(log_maj, n + 1)
        if tail < tol:
            return SeriesValue(total, tail, n, True)
    return SeriesValue(total, math.inf, n_cap, False)


def _hex(sv):
    return (sv.sum.hex(), sv.tail_bound.hex(), sv.terms_used, sv.converged)


CASES = {
    "divergent-x1": (0.3, 0.0, 1.0, 1.0, 0.0),
    "divergent-x3": (0.3, 0.0, 1.0, 3.0, 0.0),
    "beta0": (0.75, 0.0, 1.0, 1.0, 0.0),
    "beta0-p2": (0.9, 0.0, 2.0, 1.0, 0.2),
    "pole": (0.75, 0.2, 1.0, 1.0, 0.5),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_series_matches_the_fresh_tail_loop(name):
    alpha, beta, p, t, s = CASES[name]
    kern = FractionalKernel(alpha, beta)
    got = resolvent_series(kern, Lebesgue(), p, t, s)
    ref = loop_fractional_series(kern, p, t, s, 1e-10, 400)
    assert _hex(got) == _hex(ref)
    assert got.converged == (not name.startswith("divergent"))


def test_divergent_series_sums_few_majorant_terms(monkeypatch):
    calls = []
    log_layer_bound = FractionalResolventParams.log_layer_bound

    def counted(self, *args):
        calls.append(args[0])
        return log_layer_bound(self, *args)

    monkeypatch.setattr(FractionalResolventParams, "log_layer_bound", counted)
    n_cap = 400
    sv = resolvent_series(FractionalKernel(0.3, 0.0), Lebesgue(), 1.0, 3.0,
                          0.0, n_cap=n_cap)
    assert (sv.terms_used, sv.converged) == (n_cap, False)
    assert len(calls) <= 10 * n_cap
