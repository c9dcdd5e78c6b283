"""One table builder for fractional and transported fractional kernels,
against the two builders it replaced (kept here as references), its
small-gap diagonal rule, and the entry-point checks that came with it:
void iterates past the float range, negative measure weights and product
kernels on one-axis entry points."""

import json
import math
import warnings

import numpy as np
import pytest

from volgron.cli import main
from volgron.domains import Interval1D, ProductBox, QuadratureGrid
from volgron.fixpoint import (
    EvolutionOperatorSpec,
    lipschitz_profile,
    picard_solve,
    uniqueness_certificate,
)
from volgron.gronwall import (
    GronwallInput,
    check_vanishing,
    gronwall_bound,
    gronwall_sequence_bound,
    resolvent_bound,
)
from volgron.kernels import (
    FractionalKernel,
    ProductKernel,
    TransformedFractionalKernel,
    VoidKernel,
    constant_kernel,
)
from volgron.measures import DiscreteMeasure, Lebesgue, WeightedLebesgue
from volgron.quadrature import integrate
from volgron.resolvent import (
    ComponentBudgetError,
    FractionalResolventParams,
    _count_vectors,
    _ext_mul,
    _gap_limit,
    _gap_tables,
    iterated_kernels,
    product_bound,
    resolvent_series,
    series_function_I,
    sum_decomposition,
    volterra_residual,
)
from volgron.specfun import ln_gamma

DOM = Interval1D(0.0, 1.0)
BOX = ProductBox((DOM, DOM))
ALPHAS = (0.3, 0.5, 0.75, 1.0, 1.4)
BETAS = (0.0, 0.1, 0.3)
LEVELS = (3, 5, 7)
N_MAX = 4


def grid(level):
    return QuadratureGrid.for_interval(DOM, level)


def transported(alphas, betas, phi=np.expm1, phi_dot=np.exp):
    return TransformedFractionalKernel(phi=phi, phi_dot=phi_dot,
                                       alphas=alphas, betas=betas, t0=0.0)


# ---------------------------------------------------------------------------
# reference implementations: the two builders before they were merged
# ---------------------------------------------------------------------------


def ref_gap_limit(params, n, y):
    """The small-gap limit with its coefficient as a product of beta
    functions."""
    ap = params.alpha_p
    tau = ap * n - 1.0
    if tau > 0:
        return 0.0
    if tau < 0:
        return math.inf
    log_c = sum(math.log(math.exp(ln_gamma(ap * i) + ln_gamma(ap)
                                  - ln_gamma(ap * i + ap)))
                for i in range(1, n))
    return math.exp(log_c - params.beta_p * n * math.log(y)) \
        if params.beta_p > 0 else math.exp(log_c)


def ref_fractional_layers(params, t0, nodes, n_max):
    m = nodes.size
    layers = np.zeros((n_max, m, m))
    if params.beta_p == 0.0:
        ap = params.alpha_p
        X = nodes[:, None] - nodes[None, :]
        strict = np.tril(np.ones((m, m), dtype=bool), k=-1)
        for n in range(1, n_max + 1):
            ln_c = n * ln_gamma(ap) - ln_gamma(ap * n)
            expo = ap * n - 1.0
            vals = np.zeros((m, m))
            vals[strict] = np.exp(ln_c + expo * np.log(X[strict]))
            np.fill_diagonal(vals, ref_gap_limit(params, n, 1.0))
            layers[n - 1] = vals
        return layers, 0.0
    return _gap_tables(params, nodes, t0, n_max)


def ref_transformed_layers(kernel, p, nodes, n_max, budget=100_000):
    """Multinomial gamma quotients with a diagonal of 0 or inf only, or
    the single-part gap tables scaled by phi_dot."""
    if p != 1.0:
        raise NotImplementedError("p = 1 only")
    m = nodes.size
    phi = np.asarray(kernel.phi(nodes), dtype=float)
    phi0 = float(kernel.phi(np.asarray(kernel.t0)))
    dot = np.asarray(kernel.phi_dot(nodes), dtype=float)
    N = kernel.n_parts
    layers = np.zeros((n_max, m, m))
    X = phi[:, None] - phi[None, :]
    strict = np.tril(np.ones((m, m), dtype=bool), k=-1)
    if all(b == 0.0 for b in kernel.betas):
        n_counts = sum(1 for n in range(1, n_max + 1)
                       for _ in _count_vectors(n, N))
        if n_counts > budget:
            raise ComponentBudgetError("budget")
        alphas = np.asarray(kernel.alphas)
        ln_g = np.array([ln_gamma(a) for a in alphas])
        for n in range(1, n_max + 1):
            vals = np.zeros((m, m))
            acc = np.zeros(int(strict.sum()))
            lx = np.log(X[strict])
            ln_fact_n = ln_gamma(n + 1.0)
            for counts in _count_vectors(n, N):
                iv = np.asarray(counts, dtype=float)
                A = float(iv @ alphas)
                log_coef = (ln_fact_n - sum(ln_gamma(c + 1.0) for c in counts)
                            + float(iv @ ln_g) - ln_gamma(A))
                acc += np.exp(log_coef + (A - 1.0) * lx)
            vals[strict] = acc
            sing = min(float(np.asarray(c, dtype=float) @ alphas)
                       for c in _count_vectors(n, N))
            np.fill_diagonal(vals, 0.0 if sing > 1.0 else np.inf)
            with np.errstate(invalid="ignore"):
                prod = vals * dot[None, :]
            layers[n - 1] = np.where(np.isnan(prod), 0.0, prod)
        return layers, 0.0
    if N != 1:
        raise NotImplementedError("several parts with poles")
    params = FractionalResolventParams(kernel.alphas[0], kernel.betas[0], 1.0)
    gap, err = _gap_tables(params, phi, phi0, n_max)
    dot_max = float(np.max(dot, initial=0.0, where=np.isfinite(dot)))
    return _ext_mul(gap, dot[None, None, :]), err * dot_max


def ref_transported_values(kernel, T, S):
    """The transported kernel's own copy of the power formula."""
    pt = np.asarray(kernel.phi(T), dtype=float)
    ps = np.asarray(kernel.phi(S), dtype=float)
    x, y = pt - ps, ps - float(kernel.phi(np.asarray(kernel.t0)))
    total = np.zeros(np.broadcast(x, y).shape)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for a, b in zip(kernel.alphas, kernel.betas):
            vx = np.where(x > 0, x ** (a - 1.0),
                          1.0 if a == 1.0 else (0.0 if a > 1.0 else np.inf))
            vy = np.where(y > 0, y ** (-b), 1.0 if b == 0.0 else np.inf)
            total = total + vx * vy
        return np.asarray(kernel.phi_dot(S), dtype=float) * total


def same_table(tab, layers, err, status):
    assert np.array_equal(tab.values, layers)
    assert tab.err_est == err and tab.status == status


# ---------------------------------------------------------------------------
# fractional tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("p", (1.0, 1.5))
@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_fractional_table_matches_reference(alpha, beta, p, level):
    kern = FractionalKernel(alpha, beta)
    try:
        kern.require_p(p)
        params = FractionalResolventParams(alpha, beta, p)
    except ValueError:
        with pytest.raises(ValueError):
            iterated_kernels(kern, Lebesgue(), p, N_MAX, grid(level))
        return
    layers, err = ref_fractional_layers(params, 0.0, grid(level).nodes,
                                        N_MAX)
    tab = iterated_kernels(kern, Lebesgue(), p, N_MAX, grid(level))
    same_table(tab, layers, err, "certified" if params.beta_p else "exact")


@pytest.mark.parametrize("alpha, beta, p, n", [
    (0.5, 0.0, 1.0, 2), (0.5, 0.3, 1.0, 2), (1.0, 0.0, 1.0, 1),
    (1.0, 0.1, 1.5, 1), (0.5, 0.0, 1.5, 4), (0.25, 0.1, 1.0, 4),
    (0.125, 0.0, 1.0, 8), (0.75, 0.0, 1.0, 2), (0.3, 0.0, 1.0, 3),
])
def test_gap_limit_matches_beta_product(alpha, beta, p, n):
    params = FractionalResolventParams(alpha, beta, p)
    for y in (1.0, 0.37):
        assert _gap_limit(params, n, y) == ref_gap_limit(params, n, y)


# ---------------------------------------------------------------------------
# transported tables
# ---------------------------------------------------------------------------


def at_one_layers(alphas, n_max):
    """Layers whose count vectors have smallest A = 1: the only ones whose
    diagonal the small-gap rule changed (it was inf there)."""
    return [n for n in range(1, n_max + 1)
            if min(float(np.dot(c, alphas))
                   for c in _count_vectors(n, len(alphas))) == 1.0]


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("alphas, betas", [
    ((0.5,), (0.0,)), ((0.7,), (0.0,)), ((0.6, 1.3), (0.0, 0.0)),
    ((0.75,), (0.2,)), ((1.0,), (0.0,)), ((0.3,), (0.0,)),
    ((2.5, 0.3), (0.0, 0.0)),
])
def test_transported_table_matches_reference_off_the_fixed_diagonal(
        alphas, betas, level):
    kern = transported(alphas, betas)
    nodes = grid(level).nodes
    layers, err = ref_transformed_layers(kern, 1.0, nodes, N_MAX)
    tab = iterated_kernels(kern, Lebesgue(), 1.0, N_MAX, grid(level))
    fixed = at_one_layers(alphas, N_MAX) if not any(betas) else []
    diag = np.arange(nodes.size)
    for n in fixed:
        assert np.all(np.isinf(layers[n - 1, diag, diag]))
        layers[n - 1, diag, diag] = tab.values[n - 1, diag, diag]
    same_table(tab, layers, err, "certified" if any(betas) else "exact")


@pytest.mark.parametrize("level", LEVELS)
def test_transported_diagonal_is_the_small_gap_limit(level):
    nodes = grid(level).nodes
    dot = np.exp(nodes)
    half = iterated_kernels(transported((0.5,), (0.0,)), Lebesgue(), 1.0, 3,
                            grid(level))
    one = iterated_kernels(transported((1.0,), (0.0,)), Lebesgue(), 1.0, 3,
                           grid(level))
    # alpha = 0.5: A = 0.5, 1, 1.5; alpha = 1: A = 1, 2, 3
    np.testing.assert_allclose(np.diag(half.values[1]), math.pi * dot,
                               rtol=1e-15)
    assert np.all(np.isinf(np.diag(half.values[0])))
    assert np.all(np.diag(half.values[2]) == 0.0)
    np.testing.assert_allclose(np.diag(one.values[0]), dot, rtol=1e-15)
    assert np.all(np.diag(one.values[1]) == 0.0)
    # layer 1 is the kernel itself, whose value at s = t is phi_dot(t)
    kern = transported((1.0,), (0.0,))
    np.testing.assert_array_equal(np.diag(one.values[0]),
                                  kern.eval_grid(nodes, nodes))


def test_transported_sum_with_a_pole_is_refused_by_both():
    kern = transported((0.5, 0.9), (0.1, 0.0))
    with pytest.raises(NotImplementedError):
        ref_transformed_layers(kern, 1.0, grid(3).nodes, N_MAX)
    with pytest.raises(NotImplementedError):
        iterated_kernels(kern, Lebesgue(), 1.0, N_MAX, grid(3))


def test_transported_budget_still_applies():
    kern = transported((0.6, 0.8, 1.1), (0.0, 0.0, 0.0))
    with pytest.raises(ComponentBudgetError):
        iterated_kernels(kern, Lebesgue(), 1.0, 90, grid(1))


@pytest.mark.parametrize("alpha, beta", [
    (0.5, 0.0), (1.0, 0.0), (0.75, 0.0), (1.4, 0.0), (0.75, 0.2),
    (0.5, 0.3),
])
def test_identity_transport_is_the_fractional_table(alpha, beta):
    # for alpha in [1/2, 2], alpha_p = (alpha - 1) * 1 + 1 is alpha exactly
    kern = transported((alpha,), (beta,), phi=lambda x: x,
                       phi_dot=lambda x: np.ones_like(x))
    for level in (3, 5):
        a = iterated_kernels(kern, Lebesgue(), 1.0, N_MAX, grid(level))
        b = iterated_kernels(FractionalKernel(alpha, beta), Lebesgue(), 1.0,
                             N_MAX, grid(level))
        same_table(a, b.values, b.err_est, b.status)


@pytest.mark.parametrize("alpha", (0.3, 0.1))
def test_identity_transport_matches_fractional_table_below_one_half(alpha):
    # (alpha - 1) + 1 rounds away from alpha here; alpha_p is alpha itself
    # at p = 1, so both tables use the same exponent
    kern = transported((alpha,), (0.0,), phi=lambda x: x,
                       phi_dot=lambda x: np.ones_like(x))
    a = iterated_kernels(kern, Lebesgue(), 1.0, N_MAX, grid(5))
    b = iterated_kernels(FractionalKernel(alpha, 0.0), Lebesgue(), 1.0, N_MAX,
                         grid(5))
    assert (alpha - 1.0) + 1.0 != alpha
    assert FractionalResolventParams(alpha, 0.0, 1.0).alpha_p == alpha
    same_table(a, b.values, b.err_est, b.status)


@pytest.mark.parametrize("alphas, betas", [
    ((0.5,), (0.0,)), ((0.6, 1.3), (0.0, 0.1)), ((1.0,), (0.0,)),
    ((0.75,), (0.2,)), ((2.0, 0.4), (0.3, 0.0)),
])
def test_transported_eval_off_the_triangle_is_quiet(alphas, betas):
    kern = transported(alphas, betas)
    t = np.linspace(0.0, 1.0, 17)
    T, S = np.meshgrid(t, t, indexing="ij")
    off = S > T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kern.eval_grid(T[off], S[off])
        inside = kern.eval_grid(T[T > S], S[T > S])
    np.testing.assert_array_equal(got, ref_transported_values(
        kern, T[off], S[off]))
    np.testing.assert_array_equal(inside, ref_transported_values(
        kern, T[T > S], S[T > S]))


# ---------------------------------------------------------------------------
# void iterates past the float range
# ---------------------------------------------------------------------------


def void_factor(c):
    return (VoidKernel(lambda s: c + 0 * s),
            DiscreteMeasure(tuple((i / 8, 1.0) for i in range(8))))


def test_void_iterate_overflow_is_inf():
    assert float(product_bound([void_factor(40.0)], 1.0, 500, [0.5],
                               [0.25])) == math.inf
    assert float(product_bound([void_factor(40.0)], 1.0, 50, [0.5],
                               [0.25])) == 2.2615642429163316e+124
    # a zero k1(s)**p keeps the iterate at 0 past the float range
    assert float(product_bound([void_factor(0.0)], 1.0, 500, [0.5],
                               [0.25])) == 0.0


# ---------------------------------------------------------------------------
# measure weights
# ---------------------------------------------------------------------------


NEGATIVE = WeightedLebesgue(lambda x: x - 0.5)


@pytest.mark.parametrize("call", [
    lambda: iterated_kernels(constant_kernel(1.0), NEGATIVE, 1.0, 2,
                             grid(3)),
    lambda: iterated_kernels(ProductKernel((constant_kernel(1.0),
                                            constant_kernel(1.0))),
                             NEGATIVE, 1.0, 2, QuadratureGrid.for_box(BOX, 2)),
    lambda: integrate(lambda x: 1.0 + 0 * x, DOM, NEGATIVE),
    lambda: integrate(lambda x: 1.0 + 0 * x[..., 0], BOX, NEGATIVE),
    lambda: resolvent_series(constant_kernel(1.0), NEGATIVE, 1.0, 1.0, 0.0),
])
def test_negative_weights_fail_on_every_path(call):
    with pytest.raises(ValueError, match="must be nonnegative"):
        call()


def test_nonnegative_weights_integrate_as_before():
    w = WeightedLebesgue(lambda x: 1.0 + x)
    res = integrate(lambda x: np.cos(x), DOM, w)
    ref = integrate(lambda x: np.cos(x) * (1.0 + x), DOM, Lebesgue())
    assert (res.value, res.err_est, res.converged) == \
        (ref.value, ref.err_est, ref.converged)


# ---------------------------------------------------------------------------
# product kernels on one-axis entry points
# ---------------------------------------------------------------------------


PRODUCT = ProductKernel((constant_kernel(1.0), constant_kernel(2.0)),
                        tail_factor=0.5)


@pytest.mark.parametrize("call", [
    lambda: resolvent_series(PRODUCT, Lebesgue(), 1.0, (0.9, 0.8),
                             (0.1, 0.2)),
    lambda: series_function_I(PRODUCT, Lebesgue(), 1.0, 0.9),
    lambda: volterra_residual(PRODUCT, Lebesgue(), 0.9, 0.1, grid(3)),
    lambda: sum_decomposition([PRODUCT], Lebesgue(), 2, 0.9, 0.1),
    lambda: product_bound([(PRODUCT, Lebesgue())], 1.0, 2, [0.9], [0.1]),
    lambda: resolvent_bound(1.0, PRODUCT, Lebesgue(), 1.0, 0.5, DOM),
    lambda: check_vanishing(PRODUCT, Lebesgue(), 1.0, 1.0, 0.5, DOM),
    lambda: gronwall_bound(GronwallInput(1.0, PRODUCT, Lebesgue(), 1.0,
                                         DOM), 0.5),
    lambda: gronwall_sequence_bound(GronwallInput(1.0, PRODUCT, Lebesgue(),
                                                  1.0, DOM), 1.0, 3, 0.5),
    lambda: lipschitz_profile(PRODUCT, Lebesgue(), 1.0, 0.5, DOM),
    lambda: uniqueness_certificate(PRODUCT, Lebesgue(), 1.0, [0.5], DOM),
    lambda: picard_solve(EvolutionOperatorSpec(
        lambda x: 0.5 * x, PRODUCT, Lebesgue(), 1.0, DOM,
        np.linspace(0.0, 1.0, 9)), np.ones(9), 1e-6),
])
def test_product_kernel_on_one_axis_entry_points_is_refused(call):
    with pytest.raises(NotImplementedError,
                       match="iterated_kernels.*product_bound"):
        call()


def test_product_kernel_tables_still_build():
    tab = iterated_kernels(PRODUCT, Lebesgue(), 1.0, 2,
                           QuadratureGrid.for_box(BOX, 2))
    assert tab.values.shape == (2, 5, 5, 5, 5)


def test_cli_gronwall_with_a_product_kernel_exits_1(capsys):
    cfg = {"domain": {"type": "interval", "lo": 0.0, "hi": 1.0},
           "measure": {"type": "lebesgue"},
           "kernel": {"family": "product", "tail": 1.0, "factors": [
               {"family": "constant", "c": 1.2},
               {"family": "constant", "c": 1.2}]},
           "params": {"p": 1.0}}
    code = main(["gronwall", "--config", json.dumps(cfg)])
    err = capsys.readouterr().err
    assert code == 1 and len(err.splitlines()) == 1
    assert "iterated_kernels" in err
