"""The ratio-profile fractional tables and series and the closed-form
Picard certificate layers, each against the plain implementation it
replaced, kept here as the reference; plus the infinite-gap-integral
cases of the grid resolvent series and the Gronwall bound."""

import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb
from scipy.integrate import quad

from volgron.domains import Interval1D, QuadratureGrid
from volgron.gronwall import (
    GronwallInput,
    gronwall_bound,
    gronwall_sequence_bound,
)
from volgron.kernels import (
    CallableKernel,
    FractionalKernel,
    TransformedFractionalKernel,
    constant_kernel,
)
from volgron.measures import Lebesgue
from volgron.problems import abel_problem
from volgron.quadrature import integrate_singular
from volgron.resolvent import (
    FractionalResolventParams,
    GridOperator,
    _factorial_log,
    _gap_limit,
    _jacobi_rule,
    _plan,
    iterated_kernels,
    resolvent_series,
)
from volgron.specfun import _tail_sum, ln_gamma

DOM = Interval1D(0.0, 1.0)


def _fractional_b_layers(kern, p, nodes, w0, n_layers):
    return _plan(kern, Lebesgue(), p).b_layers(nodes, w0, n_layers)
KAPPA = 0.8
SINGULAR = CallableKernel(lambda t, s: 1.0 / np.sqrt(np.maximum(t - s, 0.0)))


def grid(level):
    return QuadratureGrid.for_interval(DOM, level)


def transformed(alpha, beta):
    return TransformedFractionalKernel(
        phi=lambda x: np.expm1(KAPPA * np.asarray(x, dtype=float)),
        phi_dot=lambda x: KAPPA * np.exp(KAPPA * np.asarray(x, dtype=float)),
        alphas=(alpha,), betas=(beta,), t0=0.0)


# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------


class ColumnProfile:
    """The per-column profile: iterates at one fixed y, tabulated in log x
    up to x_max and built for all n_max layers at once."""

    WIDTH = 50.0

    def __init__(self, params, y, x_max, n_max, deg=96, jacobi_nodes=192):
        self.params, self.y = params, y
        self.u_hi = math.log(x_max)
        self.u_lo = self.u_hi - self.WIDTH
        self.deg, self.jacobi_nodes = deg, jacobi_nodes
        self.coefs = [None] * (n_max + 1)
        ap, bp = params.alpha_p, params.beta_p
        xc = np.cos(math.pi * (2 * np.arange(deg) + 1) / (2 * deg))
        xs = np.exp(0.5 * ((self.u_hi + self.u_lo)
                           + (self.u_hi - self.u_lo) * xc))
        self.coefs[1] = cheb.chebfit(xc, np.full(deg, y ** (-bp)), deg - 1)
        for n in range(1, n_max):
            lam, w = _jacobi_rule(jacobi_nodes, ap - 1.0, ap * n - 1.0)
            z = lam[:, None] * xs[None, :]
            psi_next = w @ ((z + y) ** (-bp) * self.psi(n, z))
            self.coefs[n + 1] = cheb.chebfit(xc, psi_next, deg - 1)

    def psi(self, n, x):
        u = np.clip(np.log(np.maximum(x, 1e-300)), self.u_lo, self.u_hi)
        unit = (2.0 * u - (self.u_lo + self.u_hi)) / (self.u_hi - self.u_lo)
        return cheb.chebval(unit, self.coefs[n])

    def f(self, n, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return x ** (self.params.alpha_p * n - 1.0) * self.psi(n, x)


def column_gap_layers(params, z, z0, n_max, jacobi_nodes=160):
    """Two column profiles (jacobi_nodes and jacobi_nodes + 64) per grid
    column; the values come from the second."""
    m = z.size
    layers = np.zeros((n_max, m, m))
    for j in range(m):
        y = z[j] - z0
        if y <= 0:
            layers[:, j:, j] = np.inf
            continue
        for n in range(1, n_max + 1):
            layers[n - 1, j, j] = _gap_limit(params, n, y)
        xs = z[j + 1:] - z[j]
        if xs.size == 0:
            continue
        prof = ColumnProfile(params, y, float(xs[-1]), n_max,
                             jacobi_nodes=jacobi_nodes + 64)
        for n in range(1, n_max + 1):
            layers[n - 1, j + 1:, j] = prof.f(n, xs)
    return layers


def column_fractional_f(params, n, x, y):
    """One n-layer column profile per call."""
    if n == 1:
        return x ** (params.alpha_p - 1.0) * y ** (-params.beta_p)
    return float(ColumnProfile(params, y, x, n).f(n, x)[0])


def rebuild_series(params, x, y, tol, n_cap=400):
    """The resolvent series with a fresh n-layer profile for every n."""
    total = 0.0
    for n in range(1, n_cap + 1):
        total += column_fractional_f(params, n, x, y)
        tail = _tail_sum(lambda k: params.log_layer_bound(
            k, x, y, params.ln_c_hat_max), n + 1)
        if tail < tol:
            return total, tail, n
    raise AssertionError("reference series did not converge")


def quadrature_b_layers(kern, p, nodes, w0, n_layers):
    """Adaptive singular quadrature of the closed-form layers against the
    right-continuous step majorant of w0**p."""
    ap = FractionalResolventParams(kern.alpha, kern.beta, p).alpha_p
    vals = w0**p

    def step(s):
        idx = np.minimum(np.searchsorted(nodes, np.asarray(s, dtype=float),
                                         side="left"), nodes.size - 1)
        return vals[idx]

    b = np.zeros((n_layers, nodes.size))
    for i in range(1, n_layers + 1):
        ln_c = i * ln_gamma(ap) - ln_gamma(ap * i)
        for j, t in enumerate(nodes):
            if t <= kern.t0:
                continue
            res = integrate_singular(step, gamma=1.0, delta=ap * i,
                                     a=kern.t0, b=float(t), tol=1e-12)
            b[i - 1, j] = (math.exp(ln_c) * max(res.value, 0.0)) ** (1.0 / p)
    return b


def piecewise_b_layers(kern, p, nodes, w0, n_layers):
    """The same integrals step by step with QUADPACK: the steps
    (nodes[k-1], nodes[k]] and [t0, nodes[0]] clipped to [t0, t], the
    last one with the algebraic weight of its endpoint singularity."""
    ap = FractionalResolventParams(kern.alpha, kern.beta, p).alpha_p
    ends = np.concatenate(([kern.t0], nodes))
    b = np.zeros((n_layers, nodes.size))
    for i in range(1, n_layers + 1):
        delta = ap * i
        coef = math.exp(i * ln_gamma(ap) - ln_gamma(delta))
        for j, t in enumerate(nodes):
            total = 0.0
            for k in range(nodes.size):
                lo, hi = np.clip(ends[k:k + 2], kern.t0, max(t, kern.t0))
                if hi <= lo:
                    continue
                if hi == t:
                    val, _ = quad(lambda x: 1.0, lo, hi, weight="alg",
                                  wvar=(0.0, delta - 1.0), epsabs=0.0,
                                  epsrel=1e-13)
                else:
                    val, _ = quad(lambda x: (t - x) ** (delta - 1.0), lo, hi,
                                  epsabs=0.0, epsrel=1e-13)
                total += w0[k] ** p * val
            b[i - 1, j] = (coef * total) ** (1.0 / p)
    return b


def layer2_oracle(params, x, y):
    """Second iterate by QUADPACK's algebraic-weight rule, with its error
    estimate."""
    ap, bp = params.alpha_p, params.beta_p
    val, err = quad(lambda z: (y + z) ** (-bp), 0.0, x, weight="alg",
                    wvar=(ap - 1.0, ap - 1.0), epsabs=0.0, epsrel=1e-13,
                    limit=200)
    return val * y ** (-bp), err * y ** (-bp)


def assert_same_table(got, ref, rel):
    assert np.array_equal(np.isinf(got), np.isinf(ref))
    assert np.array_equal(got == 0.0, ref == 0.0)
    live = np.isfinite(ref) & (ref != 0.0)
    worst = float(np.max(np.abs(got[live] - ref[live]) / np.abs(ref[live])))
    assert worst <= rel


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("level", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("alpha, beta, p", [(0.75, 0.1, 1.0),
                                            (0.9, 0.1, 1.5)])
def test_beta_table_matches_column_profiles(alpha, beta, p, level):
    params = FractionalResolventParams(alpha, beta, p)
    nodes = grid(level).nodes
    tab = iterated_kernels(FractionalKernel(alpha, beta), Lebesgue(), p, 3,
                           grid(level))
    assert tab.status == "certified"
    assert_same_table(tab.values, column_gap_layers(params, nodes, 0.0, 3),
                      1e-10)


def test_beta_table_with_origin_inside_the_grid():
    # columns at or below t0 sit on the pole
    params = FractionalResolventParams(0.8, 0.15, 1.0)
    nodes = grid(4).nodes
    tab = iterated_kernels(FractionalKernel(0.8, 0.15, t0=0.3), Lebesgue(),
                           1.0, 3, grid(4))
    ref = column_gap_layers(params, nodes, 0.3, 3)
    assert np.all(np.isinf(ref[:, 5:, 4]))
    assert np.all(np.isfinite(ref[:, 6, 5]))
    assert_same_table(tab.values, ref, 1e-10)


@pytest.mark.parametrize("level", [2, 4, 5])
def test_transformed_single_pole_table_matches_column_profiles(level):
    kern = transformed(0.8, 0.1)
    nodes = grid(level).nodes
    phi = np.expm1(KAPPA * nodes)
    dot = KAPPA * np.exp(KAPPA * nodes)
    params = FractionalResolventParams(0.8, 0.1, 1.0)
    ref = column_gap_layers(params, phi, 0.0, 3) * dot[None, None, :]
    tab = iterated_kernels(kern, Lebesgue(), 1.0, 3, grid(level))
    assert_same_table(tab.values, ref, 1e-10)
    assert 0.0 < tab.err_est < 1e-8


@pytest.mark.parametrize("alpha, beta, p", [(0.75, 0.1, 1.0),
                                            (0.9, 0.1, 1.5)])
def test_err_est_covers_layer_two_error(alpha, beta, p):
    params = FractionalResolventParams(alpha, beta, p)
    level = 6
    nodes = grid(level).nodes
    tab = iterated_kernels(FractionalKernel(alpha, beta), Lebesgue(), p, 2,
                           grid(level))
    m = nodes.size
    # the largest ratio (63/64, 1/64) and a spread of other pairs
    pairs = {(m - 1, 1)} | {(i, j) for i in range(2, m, 9)
                            for j in range(1, i, 7)}
    for i, j in sorted(pairs):
        x, y = nodes[i] - nodes[j], nodes[j]
        ref, qerr = layer2_oracle(params, x, y)
        assert qerr < 1e-13 * ref
        assert abs(tab.value(2, i, j) - ref) <= tab.err_est + qerr


# ---------------------------------------------------------------------------
# resolvent series
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha, beta, p, t, s", [
    (0.75, 0.1, 1.0, 1.0, 0.5),
    (0.9, 0.2, 1.5, 0.8, 0.3),
])
def test_series_matches_rebuilt_profiles(alpha, beta, p, t, s):
    params = FractionalResolventParams(alpha, beta, p)
    tol = 1e-10
    ref_sum, ref_tail, ref_terms = rebuild_series(params, t - s, s, tol)
    sv = resolvent_series(FractionalKernel(alpha, beta), Lebesgue(), p, t, s,
                          tol=tol)
    assert sv.converged
    assert sv.terms_used == ref_terms
    assert sv.tail_bound == ref_tail
    assert sv.sum == pytest.approx(ref_sum, rel=1e-13)


def test_c_hat_max_is_cached():
    params = FractionalResolventParams(0.75, 0.1, 1.0)
    first = params.ln_c_hat_max
    assert params.__dict__["ln_c_hat_max"] == first
    assert params.ln_c_hat_max == first


# ---------------------------------------------------------------------------
# Picard certificate layers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.7, 0.9])
def test_b_layers_match_singular_quadrature_on_abel_profiles(alpha):
    prob = abel_problem(alpha=alpha, level=5)
    spec = prob.spec
    w0 = spec.distance_profile(prob.x0, spec.apply(prob.x0))
    got = _fractional_b_layers(spec.lambda_kernel, 1.0, spec.grid, w0, 20)
    ref = quadrature_b_layers(spec.lambda_kernel, 1.0, spec.grid, w0, 20)
    assert np.array_equal(got == 0.0, ref == 0.0)
    live = ref != 0.0
    assert np.max(np.abs(got[live] - ref[live]) / ref[live]) <= 1e-12


@pytest.mark.parametrize("alpha, t0, p", [(0.8, 0.0, 1.0), (0.6, -0.25, 1.0),
                                          (0.9, 0.3, 2.0)])
def test_b_layers_match_piecewise_quadrature(alpha, t0, p):
    # a step profile with real jumps, which a rule for continuous
    # integrands cannot resolve; each step integrates smoothly on its own
    kern = FractionalKernel(alpha, 0.0, t0=t0)
    nodes = grid(3).nodes
    w0 = np.maximum(nodes - 0.1, 0.0) ** 0.7 + 0.2 * nodes**2
    got = _fractional_b_layers(kern, p, nodes, w0, 6)
    ref = piecewise_b_layers(kern, p, nodes, w0, 6)
    assert np.array_equal(got == 0.0, ref == 0.0)
    live = ref != 0.0
    assert np.max(np.abs(got[live] - ref[live]) / ref[live]) <= 1e-12


def test_b_layers_of_a_constant_profile_are_exact():
    # a constant step integrates to c_i (t - t0)**delta / delta
    kern = FractionalKernel(0.7, 0.0)
    nodes = grid(4).nodes
    b = _fractional_b_layers(kern, 1.0, nodes, np.full(nodes.size, 2.0), 5)
    for i in range(1, 6):
        delta = 0.7 * i
        coef = math.exp(i * ln_gamma(0.7) - ln_gamma(delta))
        want = 2.0 * coef * nodes**delta / delta
        np.testing.assert_allclose(b[i - 1], want, rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# infinite gap integrals
# ---------------------------------------------------------------------------


def test_grid_series_of_a_singular_kernel_is_not_a_certified_divergence():
    sv = resolvent_series(SINGULAR, Lebesgue(), 1.0, 1.0, 0.0, level=5)
    assert not sv.converged
    assert math.isfinite(sv.sum)


def test_grid_series_with_infinite_first_iterate_diverges():
    kern = CallableKernel(lambda t, s: 1.0 / np.sqrt(np.maximum(s, 0.0)))
    sv = resolvent_series(kern, Lebesgue(), 1.0, 1.0, 0.0, level=5)
    assert sv.converged and math.isinf(sv.sum) and sv.tail_bound == 0.0


def test_column_operator_holds_no_nan():
    B = GridOperator.on_range(SINGULAR, Lebesgue(), 1.0, 0.0, 1.0, 5).B
    assert not np.any(np.isnan(B))
    assert B[0, 0] == 0.0


def test_tail_factorial_of_infinite_gap_integral():
    assert _tail_sum(_factorial_log(math.inf, 1.0), 3) == math.inf


@pytest.mark.parametrize("with_l", [False, True])
def test_gronwall_bound_with_infinite_gap_integral(with_l):
    inp = GronwallInput(v0=1.0, k=SINGULAR, measure=Lebesgue(), p=1.0,
                        domain=DOM, l=SINGULAR if with_l else None)
    sharp, sup_form, tail = gronwall_bound(inp, 1.0, level=5)
    assert not math.isfinite(sharp) and not math.isnan(sharp)
    assert math.isinf(sup_form) and math.isinf(tail)


@pytest.mark.parametrize("with_l", [False, True])
def test_gronwall_sequence_bound_with_infinite_gap_integral(with_l):
    inp = GronwallInput(v0=1.0, k=SINGULAR, measure=Lebesgue(), p=1.0,
                        domain=DOM, l=SINGULAR if with_l else None)
    for value in gronwall_sequence_bound(inp, 1.0, 3, 1.0, level=5):
        assert math.isinf(value)


def test_gronwall_sequence_bound_past_the_factorial_overflow():
    # 199! overflows a float; the terms are formed in log space
    inp = GronwallInput(v0=1.0, k=constant_kernel(1.0), measure=Lebesgue(),
                        p=1.0, domain=DOM)
    sharp, sup_form, w_n = gronwall_sequence_bound(inp, 1.0, 200, 1.0,
                                                   level=5)
    assert w_n < 1e-300
    assert sup_form == pytest.approx(math.e, rel=1e-14)
    assert sharp == pytest.approx(math.e, rel=1e-7)
