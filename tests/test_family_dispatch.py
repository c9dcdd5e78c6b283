"""The one family dispatch (``resolvent._plan``): closed forms only on the
measures where they hold, one error for void kernels off atoms at every
entry point, majorant tails that are not recomputed, and the beta-zero
fractional resolvent bound of a constant v, each against the route it
replaced, kept here as the reference."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

import volgron.quadrature as quadrature
from volgron.domains import Interval1D, QuadratureGrid, VoidSet
from volgron.fixpoint import (
    EvolutionOperatorSpec,
    lipschitz_profile,
    picard_solve,
    uniqueness_certificate,
)
from volgron.gronwall import GronwallInput, check_vanishing, resolvent_bound
from volgron.kernels import (
    CallableKernel,
    FractionalKernel,
    MultiplicativeKernel,
    VoidKernel,
)
from volgron.measures import DiscreteMeasure, Lebesgue, WeightedLebesgue
from volgron.resolvent import (
    FractionalResolventParams,
    _FractionalProfile,
    fractional_f,
    iterated_kernels,
    product_bound,
    resolvent_series,
    series_function_I,
    sum_decomposition,
    volterra_residual,
)
from volgron.specfun import SeriesValue, _tail_sum, ln_gamma

DOM = Interval1D(0.0, 1.0)
GRID = QuadratureGrid.for_interval(DOM, 4)
W3 = WeightedLebesgue(lambda x: np.full_like(np.asarray(x, dtype=float), 3.0))


# ---------------------------------------------------------------------------
# closed forms only where they hold
# ---------------------------------------------------------------------------


def _root_gap(T, S):
    """(t - s)**0.5 on t > s, the values of FractionalKernel(1.5, 0)."""
    x = np.asarray(T, dtype=float) - np.asarray(S, dtype=float)
    return np.where(x > 0, np.abs(x) ** 0.5, 0.0)


FRAC = FractionalKernel(1.5, 0.0)
SAME = CallableKernel(_root_gap, monotone_flag=True)


def test_fractional_kernel_off_lebesgue_takes_the_grid():
    # the gamma-quotient closed forms hold for Lebesgue measure only: under
    # the density 3 the fractional kernel gives the grid values of an
    # equal callable kernel, not the Lebesgue closed form
    got = resolvent_series(FRAC, W3, 1.0, 1.0, 0.5)
    ref = resolvent_series(SAME, W3, 1.0, 1.0, 0.5)
    assert got == ref
    assert got.sum > 1.05 > resolvent_series(FRAC, Lebesgue(), 1.0, 1.0,
                                             0.5).sum * 1.25
    assert series_function_I(FRAC, W3, 1.0, 0.8, domain=DOM) == \
        series_function_I(SAME, W3, 1.0, 0.8, domain=DOM)
    assert float(product_bound([(FRAC, W3)], 1.0, 3, [1.0], [0.25])) == \
        float(product_bound([(SAME, W3)], 1.0, 3, [1.0], [0.25]))
    tab = iterated_kernels(FRAC, W3, 1.0, 3, GRID)
    np.testing.assert_array_equal(tab.values,
                                  iterated_kernels(SAME, W3, 1.0, 3,
                                                   GRID).values)
    assert tab.family == "fractional"


def test_multiplicative_closed_form_needs_an_atomless_measure():
    # on atoms the iterates are not k mu^(n-1) / (n-1)!, so exp(mu[s, t])
    # is no resolvent: the result must not be certified below a partial
    # sum of the iterates
    atoms = DiscreteMeasure(tuple((i / 10, 0.05) for i in range(11)))
    kern = MultiplicativeKernel(lambda x: np.asarray(x, dtype=float))
    sv = resolvent_series(kern, atoms, 1.0, 1.0, 0.0)
    partial = sum(float(product_bound([(kern, atoms)], 1.0, n, [1.0], [0.0]))
                  for n in range(1, 18))
    assert not (sv.converged and sv.sum + sv.tail_bound < partial)
    # atomless measures keep the closed form, as an enclosure of e that is
    # a few ulps wide and holds with zero slack
    leb = resolvent_series(kern, Lebesgue(), 1.0, 0.75, 0.25)
    assert leb.converged and 0.0 < leb.tail_bound < 1e-13
    with localcontext() as ctx:
        ctx.prec = 40
        lo = Decimal(leb.sum)
        assert lo <= Decimal(1).exp() <= lo + Decimal(leb.tail_bound)
    assert leb.sum == pytest.approx(math.e, rel=1e-14)


# ---------------------------------------------------------------------------
# one error for void kernels off atoms
# ---------------------------------------------------------------------------


VOID = VoidKernel(k1=lambda s: np.full_like(np.asarray(s, dtype=float), 0.5))
LEB = Lebesgue()


def _picard():
    spec = EvolutionOperatorSpec(apply=lambda x: 0.5 * x, lambda_kernel=VOID,
                                 measure=LEB, p=1.0, domain=VoidSet(),
                                 grid=np.array([0.0]))
    return picard_solve(spec, np.array([1.0]), tol=1e-6)


ENTRY_POINTS = {
    "iterated_kernels": lambda: iterated_kernels(VOID, LEB, 1.0, 2, GRID),
    "resolvent_series": lambda: resolvent_series(VOID, LEB, 1.0, 0.5, 0.25),
    "volterra_residual": lambda: volterra_residual(VOID, LEB, 0.5, 0.25,
                                                   GRID),
    "series_function_I": lambda: series_function_I(VOID, LEB, 1.0, 0.5,
                                                   domain=DOM),
    "product_bound": lambda: product_bound([(VOID, LEB)], 1.0, 2, [0.5],
                                           [0.25]),
    "sum_decomposition": lambda: sum_decomposition([VOID], LEB, 2, 0.5, 0.25),
    "check_vanishing": lambda: check_vanishing(VOID, LEB, 1.0, 1.0, 0.5, DOM),
    "resolvent_bound": lambda: resolvent_bound(1.0, VOID, LEB, 1.0, 0.5,
                                               domain=DOM),
    "gronwall_input_void": lambda: GronwallInput(1.0, VOID, LEB, 1.0,
                                                 VoidSet()),
    "gronwall_input_interval": lambda: GronwallInput(1.0, VOID, LEB, 1.0, DOM),
    "lipschitz_profile": lambda: lipschitz_profile(VOID, LEB, 1.0, 0.5, DOM),
    "uniqueness_certificate": lambda: uniqueness_certificate(VOID, LEB, 1.0,
                                                             [0.5], DOM),
    "picard_solve": _picard,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_void_kernel_off_atoms_raises_one_type_error(entry):
    with pytest.raises(TypeError,
                       match="^void-ordered kernels integrate against atoms$"):
        ENTRY_POINTS[entry]()


# ---------------------------------------------------------------------------
# fractional resolvent series: majorant tails are not recomputed
# ---------------------------------------------------------------------------


def loop_fractional_series(kernel, p, t, s, tol, n_cap):
    """The replaced loop: the majorant tail from n + 1 at every term."""
    params = FractionalResolventParams(kernel.alpha, kernel.beta, p)
    x, y = t - s, s - kernel.t0
    prof = (_FractionalProfile(params, x / y)
            if params.beta_p > 0 and y > 0 else None)
    log_maj = lambda k: params.log_layer_bound(  # noqa: E731
        k, x, y, params.ln_c_hat_max)
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


@pytest.mark.parametrize("alpha, beta, p, t, s, tol, n_cap", [
    (0.3, 0.2, 1.0, 1.0, 0.5, 1e-10, 40),   # the majorant overflows
    (0.75, 0.2, 1.0, 1.0, 0.5, 1e-10, 400),
    (0.9, 0.3, 2.0, 0.9, 0.2, 1e-12, 400),
    (0.6, 0.0, 1.0, 1.0, 0.1, 1e-10, 400),
    (1.5, 0.4, 1.0, 2.0, 0.5, 1e-3, 400),
])
def test_fractional_series_matches_the_per_term_tail_loop(alpha, beta, p, t,
                                                          s, tol, n_cap):
    kern = FractionalKernel(alpha, beta)
    got = resolvent_series(kern, Lebesgue(), p, t, s, tol=tol, n_cap=n_cap)
    assert got == loop_fractional_series(kern, p, t, s, tol, n_cap)


def test_overflowing_majorant_is_summed_once(monkeypatch):
    # every tail reaches the same term above the float range: the series
    # sums the majorant once, not once per term (about 870 log-terms each)
    calls = []
    log_layer_bound = FractionalResolventParams.log_layer_bound

    def counted(self, *args):
        calls.append(args[0])
        return log_layer_bound(self, *args)

    monkeypatch.setattr(FractionalResolventParams, "log_layer_bound", counted)
    sv = resolvent_series(FractionalKernel(0.3, 0.2), Lebesgue(), 1.0, 1.0,
                          0.5)
    assert not sv.converged and sv.tail_bound == math.inf
    assert sv.terms_used == 400
    assert len(calls) < 2000


# ---------------------------------------------------------------------------
# beta = 0 fractional resolvent bound
# ---------------------------------------------------------------------------


def loop_resolvent_bound(v, kernel, p, t, tol=1e-10, n_cap=400):
    """The replaced route for every v: one singular quadrature per term,
    the Mittag-Leffler majorant for the tail."""
    vf = v if callable(v) else (
        lambda x: np.full_like(np.asarray(x, dtype=float), float(v)))
    params = FractionalResolventParams(kernel.alpha, kernel.beta, p)
    ap, t0 = params.alpha_p, kernel.t0
    X = t - t0
    v_t = float(vf(np.asarray(float(t))))
    vp = lambda s: np.asarray(vf(s), dtype=float)**p  # noqa: E731
    sup_v = float(np.max(np.asarray(vf(np.linspace(t0, t, 257)),
                                    dtype=float)))
    log_ml = lambda k: params.log_series_bound(k, X, 0.0)  # noqa: E731
    total = 0.0
    for n in range(1, n_cap + 1):
        ln_c = n * ln_gamma(ap) - ln_gamma(ap * n)
        res = quadrature.integrate_singular(vp, gamma=1.0, delta=ap * n,
                                            a=t0, b=t, tol=1e-13)
        total += (math.exp(ln_c) * max(res.value, 0.0)) ** (1.0 / p)
        tail_ml = sup_v * _tail_sum(log_ml, n + 1)
        if tail_ml < tol:
            return SeriesValue(v_t + total, tail_ml, n, True)
    return SeriesValue(v_t + total, math.inf, n_cap, False)


@pytest.mark.parametrize("alpha, p, v, t", [
    (0.75, 1.0, 1.0, 1.0), (0.4, 1.0, 0.5, 0.7), (1.3, 1.5, 2.0, 0.9),
    (0.9, 2.0, 1.5, 1.0), (2.0, 1.0, 0.1, 0.3),
])
def test_beta0_bound_of_a_constant_v_is_v_times_one_plus_I(alpha, p, v, t,
                                                            monkeypatch):
    kern = FractionalKernel(alpha, 0.0)
    ref = loop_resolvent_bound(v, kern, p, t)
    calls = []
    integrate_singular = quadrature.integrate_singular
    monkeypatch.setattr(quadrature, "integrate_singular",
                        lambda *a, **k: calls.append(a) or
                        integrate_singular(*a, **k))
    got = resolvent_bound(v, kern, Lebesgue(), p, t, domain=DOM)
    assert calls == []
    assert got.converged and ref.converged
    assert abs(got.sum - ref.sum) <= ref.tail_bound + 1e-12 * ref.sum
    I = series_function_I(kern, Lebesgue(), p, t, tol=1e-10 / v)
    assert got.sum == v + v * I.sum
    assert got.tail_bound == v * I.tail_bound


def test_beta0_bound_of_a_function_v_keeps_the_quadrature_loop():
    kern = FractionalKernel(0.75, 0.0)
    v = lambda s: 1.0 + 0.5 * np.asarray(s, dtype=float)  # noqa: E731
    assert resolvent_bound(v, kern, Lebesgue(), 1.0, 0.8, domain=DOM) == \
        loop_resolvent_bound(v, kern, 1.0, 0.8)
