import math

import numpy as np
import pytest
from scipy.integrate import quad

from volgron.domains import Interval1D, ProductBox, QuadratureGrid
from volgron.kernels import (
    CallableKernel,
    FractionalKernel,
    MultiplicativeKernel,
    ProductKernel,
    SumKernel,
    TransformedFractionalKernel,
    VoidKernel,
    constant_kernel,
)
from volgron.measures import DiscreteMeasure, Lebesgue, ProductMeasure
from volgron.resolvent import (
    ComponentBudgetError,
    FractionalResolventParams,
    MaskedEntryError,
    compose_layers,
    fractional_f,
    fractional_f_bound,
    fractional_inequality_constant,
    iterated_kernels,
    product_bound,
    resolvent_series,
    series_function_I,
    sum_decomposition,
    volterra_residual,
)

DOM = Interval1D(0.0, 1.0)


def grid(level):
    return QuadratureGrid.for_interval(DOM, level)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_first_layer_is_kernel_power_exactly():
    k = constant_kernel(1.3)
    tab = iterated_kernels(k, Lebesgue(), 2.0, 2, grid(4))
    nodes = tab.nodes
    for i in range(0, nodes.size, 5):
        for j in range(0, i + 1, 3):
            assert tab.value(1, i, j) == pytest.approx(1.3**2, rel=1e-15)


def test_constant_kernel_three_layers_vs_nested_quadrature_oracle():
    # independent oracle: nested adaptive quadrature of the recursion
    c = 1.5
    k = constant_kernel(c)
    tab = iterated_kernels(k, Lebesgue(), 1.0, 3, grid(6))
    nodes = tab.nodes

    def r2(t, s):
        return quad(lambda u: c * c, s, t)[0]

    def r3(t, s):
        return quad(lambda u: c * r2(u, s), s, t)[0]

    for (i, j) in [(64, 0), (48, 16), (64, 32), (32, 0), (40, 8)]:
        t, s = nodes[i], nodes[j]
        assert tab.value(3, i, j) == pytest.approx(r3(t, s), rel=1e-7)
        # closed form c**3 (t-s)**2 / 2
        assert tab.value(3, i, j) == pytest.approx(
            c**3 * (t - s) ** 2 / 2.0, rel=1e-7)


def test_nonseparable_kernel_table_vs_nested_quadrature_oracle():
    fn = lambda T, S: 1.0 + T * S + 0.5 * T  # noqa: E731
    k = CallableKernel(fn=fn, monotone_flag=True)
    tab = iterated_kernels(k, Lebesgue(), 1.0, 3, grid(6))
    nodes = tab.nodes

    def r2(t, s):
        return quad(lambda u: fn(t, u) * fn(u, s), s, t)[0]

    def r3(t, s):
        return quad(lambda u: fn(t, u) * r2(u, s), s, t, limit=100)[0]

    for (i, j) in [(64, 0), (48, 16), (56, 24)]:
        t, s = nodes[i], nodes[j]
        assert tab.value(2, i, j) == pytest.approx(r2(t, s), rel=1e-8)
        assert tab.value(3, i, j) == pytest.approx(r3(t, s), rel=1e-7)


def test_masked_entries_guarded():
    tab = iterated_kernels(constant_kernel(1.0), Lebesgue(), 1.0, 2, grid(3))
    with pytest.raises(MaskedEntryError):
        tab.value(2, 1, 5)
    with pytest.raises(IndexError):
        tab.value(3, 1, 0)


def test_discrete_table_is_exact():
    mu = DiscreteMeasure(((0.0, 1.0), (0.5, 0.5), (1.0, 0.25)))
    c = 2.0
    tab = iterated_kernels(constant_kernel(c), mu, 1.0, 2)
    assert tab.err_est == 0.0
    # R_2(1, 0) sums the atoms of [0, 1] including both endpoints
    assert tab.value(2, 2, 0) == pytest.approx(c * c * (1.0 + 0.5 + 0.25))
    # R_2(0.5, 0) only sees atoms up to 0.5
    assert tab.value(2, 1, 0) == pytest.approx(c * c * 1.5)


def test_void_table_geometric():
    mu = DiscreteMeasure(tuple((i / 10, 0.1) for i in range(10)))
    kern = VoidKernel(k1=lambda s: np.full_like(np.asarray(s, float), 0.8))
    q = 0.8 * 1.0
    tab = iterated_kernels(kern, mu, 1.0, 4)
    assert not tab.ordered
    for n in range(1, 5):
        # independent of the first argument
        assert tab.value(n, 0, 3) == pytest.approx(0.8 * q ** (n - 1))
        assert tab.value(n, 7, 3) == pytest.approx(0.8 * q ** (n - 1))


def test_table_csv_and_json_export():
    tab = iterated_kernels(constant_kernel(1.0), Lebesgue(), 1.0, 2, grid(2))
    csv = tab.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "n,t,s,value"
    m = tab.nodes.size
    assert len(lines) == 1 + 2 * (m * (m + 1)) // 2
    import json

    payload = json.loads(tab.to_json())
    assert payload["n_max"] == 2
    assert payload["entries"][0]["n"] == 1


# ---------------------------------------------------------------------------
# fractional closed forms and the gap recursion
# ---------------------------------------------------------------------------


def test_fractional_f_base_case():
    prm = FractionalResolventParams(0.8, 0.2, 1.0)
    x, y = 0.6, 0.3
    assert fractional_f(prm, 1, x, y) == pytest.approx(
        x ** (prm.alpha_p - 1.0) * y ** (-prm.beta_p), rel=1e-14)
    assert fractional_f_bound(prm, 1, x, y) == pytest.approx(
        fractional_f(prm, 1, x, y), rel=1e-14)


def test_fractional_f_beta_zero_closed_form():
    # gamma-quotient coefficients of the iterates
    prm = FractionalResolventParams(0.75, 0.0, 1.0)
    x = 0.5
    got = fractional_f(prm, 3, x, 1.0)
    exact = math.gamma(0.75) ** 3 / math.gamma(2.25) * 0.5**1.25
    assert got == pytest.approx(exact, rel=1e-13)
    for n in range(1, 11):
        got = fractional_f(prm, n, x, 1.0)
        exact = math.gamma(0.75) ** n / math.gamma(0.75 * n) \
            * x ** (0.75 * n - 1.0)
        assert got == pytest.approx(exact, rel=1e-12)
        # equality clause: the bound coincides at beta = 0
        assert fractional_f_bound(prm, n, x, 1.0) == pytest.approx(
            got, rel=1e-12)


def test_fractional_f_recursion_vs_nested_quadrature_oracle():
    from volgron.quadrature import integrate_singular

    prm = FractionalResolventParams(0.9, 0.1, 1.0)
    ap, bp = prm.alpha_p, prm.beta_p
    x, y = 0.7, 0.4
    res = integrate_singular(lambda l: (l * x + y) ** (-bp) * y ** (-bp),
                             gamma=ap, delta=ap, tol=1e-13)
    oracle2 = x ** (2 * ap - 1) * res.value
    assert fractional_f(prm, 2, x, y) == pytest.approx(oracle2, rel=1e-11)

    # cache the inner smooth factor on Chebyshev nodes in z (analytic for
    # z in [0, x] since the branch point sits at -y), then integrate the
    # outer layer adaptively
    deg = 48
    zc = 0.5 * x * (1.0 + np.cos(np.pi * (2 * np.arange(deg) + 1) / (2 * deg)))
    inner = np.array([
        integrate_singular(lambda l: (l * zz + y) ** (-bp) * y ** (-bp),
                           gamma=ap, delta=ap, tol=1e-13).value
        for zz in zc
    ])
    coefs = np.polynomial.chebyshev.chebfit(2.0 * zc / x - 1.0, inner, deg - 1)

    def f2_smooth(z):
        return np.polynomial.chebyshev.chebval(2.0 * np.asarray(z) / x - 1.0,
                                               coefs)

    res3 = integrate_singular(lambda l: (l * x + y) ** (-bp) * f2_smooth(l * x),
                              gamma=2 * ap, delta=ap, tol=1e-11)
    oracle3 = x ** (3 * ap - 1) * res3.value
    assert fractional_f(prm, 3, x, y) == pytest.approx(oracle3, rel=1e-9)


def test_fractional_f_below_bound():
    prm = FractionalResolventParams(0.9, 0.1, 1.0)
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        x = float(rng.uniform(0.05, 1.5))
        y = float(rng.uniform(0.05, 1.5))
        v = fractional_f(prm, n, x, y)
        b = fractional_f_bound(prm, n, x, y)
        assert v <= b * (1.0 + 1e-8)


def test_c_hat_capped_by_maximum():
    prm = FractionalResolventParams(0.9, 0.1, 1.0)
    cap = prm.ln_c_hat_max
    for n in range(1, 51):
        assert prm.ln_c_hat(n) <= cap + 1e-13


def test_fractional_params_validation():
    with pytest.raises(ValueError):
        FractionalResolventParams(0.5, 0.6, 1.0)  # beta p >= alpha_p
    prm = FractionalResolventParams(0.75, 0.0, 2.0)
    assert prm.alpha_p == pytest.approx(0.5)


def test_fractional_inequality_constant_reduces_to_one():
    assert fractional_inequality_constant((0.7, 0.9), (0.0, 0.0), 1.0) == \
        pytest.approx(1.0)
    c = fractional_inequality_constant((0.9, 0.8), (0.1, 0.05), 1.0)
    assert c > 0


def test_fractional_table_layer_two_closed_form():
    # second iterate of the alpha = 3/4 kernel carries the gamma quotient
    k = FractionalKernel(alpha=0.75, beta=0.0)
    tab = iterated_kernels(k, Lebesgue(), 1.0, 2, grid(5))
    nodes = tab.nodes
    coef = math.gamma(0.75) ** 2 / math.gamma(1.5)
    for (i, j) in [(32, 0), (24, 8), (16, 4)]:
        t, s = nodes[i], nodes[j]
        assert tab.value(2, i, j) == pytest.approx(coef * (t - s) ** 0.5,
                                                   rel=1e-12)
    assert math.isinf(tab.value(1, 5, 5))  # singular diagonal


def test_fractional_table_beta_positive_matches_pointwise_recursion():
    k = FractionalKernel(alpha=0.9, beta=0.1)
    tab = iterated_kernels(k, Lebesgue(), 1.0, 3, grid(4))
    prm = FractionalResolventParams(0.9, 0.1, 1.0)
    nodes = tab.nodes
    for (i, j) in [(16, 4), (12, 6), (8, 2)]:
        t, s = nodes[i], nodes[j]
        want = fractional_f(prm, 3, t - s, s)
        assert tab.value(3, i, j) == pytest.approx(want, rel=1e-9)
    assert tab.err_est < 1e-8


# ---------------------------------------------------------------------------
# resolvent series and the linear equation
# ---------------------------------------------------------------------------


def test_resolvent_series_constant_kernel():
    # oracle: direct summation of the factorial series c**n (t-s)**(n-1)/(n-1)!
    c, t, s = 1.5, 0.9, 0.2
    oracle = sum(c**n * (t - s) ** (n - 1) / math.factorial(n - 1)
                 for n in range(1, 60))
    sv = resolvent_series(constant_kernel(c), Lebesgue(), 1.0, t, s,
                          tol=1e-11)
    assert sv.converged
    assert sv.sum == pytest.approx(oracle, rel=1e-9)
    assert sv.sum == pytest.approx(c * math.exp(c * (t - s)), rel=1e-9)


def test_resolvent_series_void_geometric():
    # binary-exact masses so that the total is exactly one
    mu = DiscreteMeasure(tuple((i / 8, 0.125) for i in range(8)))
    kern = VoidKernel(k1=lambda s: np.full_like(np.asarray(s, float), 0.7))
    q = 0.7
    sv = resolvent_series(kern, mu, 1.0, 0.9, 0.3)
    assert sv.converged and sv.tail_bound == 0.0
    assert sv.sum == pytest.approx(0.7 / (1.0 - q), rel=1e-14)
    # mass >= 1 diverges with a definite infinity
    kern2 = VoidKernel(k1=lambda s: np.full_like(np.asarray(s, float), 1.0))
    sv2 = resolvent_series(kern2, mu, 1.0, 0.9, 0.3)
    assert math.isinf(sv2.sum)


def test_resolvent_series_multiplicative_closed_form():
    k = MultiplicativeKernel(nu_cumulative=lambda t: np.asarray(t, float))
    sv = resolvent_series(k, Lebesgue(), 1.0, 0.8, 0.1)
    # R = k exp(mu([s,t])) for multiplicative type
    assert sv.sum == pytest.approx(math.exp(0.7) * math.exp(0.7), rel=1e-13)


def test_resolvent_series_fractional():
    k = FractionalKernel(alpha=0.75, beta=0.0)
    prm = FractionalResolventParams(0.75, 0.0, 1.0)
    t, s = 0.9, 0.4
    oracle = sum(fractional_f(prm, n, t - s, s) for n in range(1, 80))
    sv = resolvent_series(k, Lebesgue(), 1.0, t, s, tol=1e-12)
    assert sv.converged
    assert sv.sum == pytest.approx(oracle, rel=1e-11)


def test_volterra_residual_constant_kernel():
    res = volterra_residual(constant_kernel(1.5), Lebesgue(), 1.0, 0.0,
                            grid=QuadratureGrid.for_interval(DOM, 6))
    assert res < 1e-6


def test_volterra_residual_truncation_shows_next_term():
    # with a single layer the defect is the first omitted iterate
    c, t, s = 1.2, 1.0, 0.0
    res = volterra_residual(constant_kernel(c), Lebesgue(), t, s,
                            grid=QuadratureGrid.for_interval(DOM, 7),
                            n_cap=1)
    r2 = c * c * (t - s)
    assert res == pytest.approx(r2, rel=1e-4)


def test_volterra_residual_void_exact():
    mu = DiscreteMeasure(tuple((i / 10, 0.1) for i in range(10)))
    kern = VoidKernel(k1=lambda s: np.full_like(np.asarray(s, float), 0.5))
    res = volterra_residual(kern, mu, 0.9, 0.2)
    assert res < 1e-12


# ---------------------------------------------------------------------------
# series function
# ---------------------------------------------------------------------------


def test_series_function_regular_identity():
    from volgron.specfun import MLParams, mittag_leffler

    k = constant_kernel(1.0)
    for p in (1.0, 2.0):
        sv = series_function_I(k, Lebesgue(), p, 1.0, domain=DOM, tol=1e-12)
        assert sv.converged
        ml = mittag_leffler(MLParams(1.0, 1.0, p), 1.0 ** (1.0 / p))
        assert sv.sum == pytest.approx(ml.sum - 1.0, rel=1e-9)


def test_series_function_void_closed_form():
    mu = DiscreteMeasure(tuple((i / 10, 0.1) for i in range(10)))
    kern = VoidKernel(k1=lambda s: np.full_like(np.asarray(s, float),
                                                math.sqrt(0.5)))
    for p in (1.0, 2.0):
        q = 0.5 ** (p / 2.0)  # integral of k1**p equals 0.5**(p/2)
        sv = series_function_I(kern, mu, p, 0.3)
        r = q ** (1.0 / p)
        assert sv.sum == pytest.approx(r / (1.0 - r), rel=1e-14)
        assert sv.tail_bound == 0.0
    # q >= 1 diverges
    kern2 = VoidKernel(k1=lambda s: np.full_like(np.asarray(s, float), 1.01))
    assert math.isinf(series_function_I(kern2, mu, 1.0, 0.3).sum)


def test_series_function_fractional_identity():
    from volgron.specfun import MLParams, mittag_leffler

    for p, alpha in ((1.0, 0.75), (2.0, 0.9)):
        k = FractionalKernel(alpha=alpha, beta=0.0)
        prm = FractionalResolventParams(alpha, 0.0, p)
        t = 1.0
        sv = series_function_I(k, Lebesgue(), p, t, domain=DOM, tol=1e-12)
        assert sv.converged
        ml = mittag_leffler(
            MLParams(prm.alpha_p, 1.0, p),
            math.gamma(prm.alpha_p) ** (1.0 / p) * t ** (prm.alpha_p / p))
        assert sv.sum == pytest.approx(ml.sum - 1.0, rel=1e-10)


def test_series_function_fractional_beta_positive_envelope():
    k = FractionalKernel(alpha=0.9, beta=0.1)
    sv = series_function_I(k, Lebesgue(), 1.0, 1.0, domain=DOM)
    assert math.isfinite(sv.sum) and not sv.converged
    # beta p >= 1 is definitively infinite
    k2 = FractionalKernel(alpha=2.2, beta=1.0)
    sv2 = series_function_I(k2, Lebesgue(), 1.0, 1.0, domain=DOM)
    assert math.isinf(sv2.sum)


# ---------------------------------------------------------------------------
# sums and products
# ---------------------------------------------------------------------------


def test_sum_decomposition_single_part_reduces_to_iterate():
    k = constant_kernel(1.1)
    comp = sum_decomposition([k], Lebesgue(), 3, 0.8, 0.1, level=6)
    assert set(comp) == {(0, 0, 0)}
    tab_val = 1.1**3 * 0.7**2 / 2.0
    assert comp[(0, 0, 0)] == pytest.approx(tab_val, rel=1e-8)


def test_sum_decomposition_two_constants():
    c1, c2 = 0.7, 1.3
    parts = [constant_kernel(c1), constant_kernel(c2)]
    t, s = 0.875, 0.25  # grid points of the level-6 dyadic grid
    comp = sum_decomposition(parts, Lebesgue(), 2, t, s, level=6)
    assert len(comp) == 4
    # oracle: direct quadrature of each component
    for (a, b), val in comp.items():
        cs = [c1, c2]
        oracle = quad(lambda u: cs[b] * cs[a], s, t)[0]
        assert val == pytest.approx(oracle, rel=1e-10)
    total = sum(comp.values())
    assert total == pytest.approx((c1 + c2) ** 2 * (t - s), rel=1e-10)
    # the sum matches the iterate of the summed kernel
    sk = SumKernel(tuple(parts))
    tab = iterated_kernels(sk, Lebesgue(), 1.0,
                           2, QuadratureGrid.for_interval(DOM, 6))
    nodes = tab.nodes
    i = int(np.argmin(np.abs(nodes - t)))
    j = int(np.argmin(np.abs(nodes - s)))
    assert total == pytest.approx(tab.value(2, i, j), rel=1e-7)


def test_sum_decomposition_diagonal_matches_single_kernel():
    c1, c2 = 0.7, 1.3
    parts = [constant_kernel(c1), constant_kernel(c2)]
    t, s = 1.0, 0.0
    comp = sum_decomposition(parts, Lebesgue(), 3, t, s, level=6)
    for i, c in enumerate((c1, c2)):
        want = c**3 * (t - s) ** 2 / 2.0
        assert comp[(i, i, i)] == pytest.approx(want, rel=1e-8)


def test_sum_decomposition_budget():
    parts = [constant_kernel(1.0)] * 10
    with pytest.raises(ComponentBudgetError):
        sum_decomposition(parts, Lebesgue(), 5, 1.0, 0.0, budget=4096)


def test_product_bound_single_axis_reduces_to_iterate():
    v = product_bound([(constant_kernel(1.5), Lebesgue())], 1.0, 3,
                      (1.0,), (0.0,))
    assert float(v) == pytest.approx(1.5**3 / 2.0, rel=1e-9)


def test_product_bound_two_axes_closed_form():
    c = 1.2
    factors = [(constant_kernel(c), Lebesgue()),
               (constant_kernel(c), Lebesgue())]
    t, s = (1.0, 0.8), (0.2, 0.1)
    v = product_bound(factors, 1.0, 2, t, s)
    want = (c * c * (t[0] - s[0])) * (c * c * (t[1] - s[1]))
    assert float(v) == pytest.approx(want, rel=1e-9)


def test_box_table_equals_product_of_axis_iterates():
    # equality clause: kernel and measure factor exactly
    c = 1.1
    box = ProductBox((Interval1D(0, 1), Interval1D(0, 1)))
    bgrid = QuadratureGrid.for_box(box, 4)
    kern = ProductKernel((constant_kernel(c), constant_kernel(c)))
    tab = iterated_kernels(kern, ProductMeasure((Lebesgue(), Lebesgue())),
                           1.0, 3, bgrid)
    a1, a2 = bgrid.axes
    for n in range(1, 4):
        for (i1, i2, j1, j2) in [(16, 16, 0, 0), (12, 8, 4, 2), (10, 14, 2, 6)]:
            got = tab.value(n, (i1, i2), (j1, j2))
            axis = lambda ti, si: c**n * (ti - si) ** (n - 1) \
                / math.factorial(n - 1)  # noqa: E731
            want = axis(a1[i1], a1[j1]) * axis(a2[i2], a2[j2])
            assert got == pytest.approx(want, rel=1e-9), (n, i1, i2, j1, j2)


def test_box_table_with_constant_tail_factor():
    c, tail = 1.0, 2.0
    box = ProductBox((Interval1D(0, 1), Interval1D(0, 1)))
    bgrid = QuadratureGrid.for_box(box, 3)
    kern = ProductKernel((constant_kernel(c), constant_kernel(c)),
                         tail_factor=tail)
    tab = iterated_kernels(kern, Lebesgue(), 1.0, 2, bgrid)
    got = tab.value(2, (8, 8), (0, 0))
    want = tail**2 * (c**2 * 1.0) * (c**2 * 1.0)
    assert got == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# transformed fractional kernels
# ---------------------------------------------------------------------------


def test_transformed_fractional_multinomial_closed_form():
    alphas = (0.8, 1.3)
    k = TransformedFractionalKernel(
        phi=lambda t: np.asarray(t, dtype=float) ** 2,
        phi_dot=lambda t: 2.0 * np.asarray(t, dtype=float),
        alphas=alphas, betas=(0.0, 0.0), t0=0.0,
    )
    tab = iterated_kernels(k, Lebesgue(), 1.0, 2,
                           QuadratureGrid.for_interval(DOM, 4))
    nodes = tab.nodes
    i, j = 14, 6
    t, s = nodes[i], nodes[j]
    x = t * t - s * s
    # brute multi-index sum of gamma-quotient components
    brute = 0.0
    for j1 in range(2):
        for j2 in range(2):
            A = alphas[j1] + alphas[j2]
            coef = math.gamma(alphas[j1]) * math.gamma(alphas[j2]) \
                / math.gamma(A)
            brute += coef * x ** (A - 1.0)
    brute *= 2.0 * s
    assert tab.value(2, i, j) == pytest.approx(brute, rel=1e-12)


def test_transformed_fractional_vs_quadrature_oracle():
    # independent oracle: adaptive nested quadrature of the recursion,
    # with the derivative kinks of the kernel declared as break points
    alphas = (1.4, 2.0)
    k = TransformedFractionalKernel(
        phi=lambda t: np.asarray(t, dtype=float) ** 2,
        phi_dot=lambda t: 2.0 * np.asarray(t, dtype=float),
        alphas=alphas, betas=(0.0, 0.0), t0=0.0,
    )

    def raw(t, s):
        pt, ps = t * t, s * s
        return 2.0 * s * ((pt - ps) ** 0.4 + (pt - ps) ** 1.0)

    def r2(t, s):
        return quad(lambda u: raw(t, u) * raw(u, s), s, t,
                    points=[s, t], limit=200)[0]

    g = QuadratureGrid.for_interval(DOM, 4)
    tab_t = iterated_kernels(k, Lebesgue(), 1.0, 2, g)
    nodes = tab_t.nodes
    for (i, j) in [(16, 0), (12, 4)]:
        assert tab_t.value(2, i, j) == pytest.approx(
            r2(nodes[i], nodes[j]), rel=1e-8)


def test_transformed_single_part_with_pole_matches_gap_recursion():
    k = TransformedFractionalKernel(
        phi=lambda t: np.asarray(t, dtype=float),
        phi_dot=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        alphas=(0.9,), betas=(0.1,), t0=0.0,
    )
    tab = iterated_kernels(k, Lebesgue(), 1.0, 2,
                           QuadratureGrid.for_interval(DOM, 4))
    prm = FractionalResolventParams(0.9, 0.1, 1.0)
    nodes = tab.nodes
    t, s = nodes[12], nodes[4]
    assert tab.value(2, 12, 4) == pytest.approx(
        fractional_f(prm, 2, t - s, s), rel=1e-10)


def test_transformed_requires_p_one():
    k = TransformedFractionalKernel(
        phi=lambda t: np.asarray(t, dtype=float),
        phi_dot=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        alphas=(0.9,), betas=(0.0,), t0=0.0,
    )
    with pytest.raises(NotImplementedError):
        iterated_kernels(k, Lebesgue(), 2.0, 2,
                         QuadratureGrid.for_interval(DOM, 3))


# ---------------------------------------------------------------------------
# structural invariants (randomised suites live in test_acceptance)
# ---------------------------------------------------------------------------


def test_semigroup_property_constant():
    tab = iterated_kernels(constant_kernel(1.4), Lebesgue(), 1.0, 5, grid(6))
    composed = compose_layers(tab, 2, 3)
    direct = tab.layer(5)
    mask = np.tril(np.ones_like(direct, dtype=bool), k=-1)
    assert np.max(np.abs(composed[mask] - direct[mask])) < 1e-6


def test_superadditivity_and_monotone_dependence():
    k = constant_kernel(0.8)
    l = CallableKernel(fn=lambda T, S: 0.5 + 0.5 * S, monotone_flag=True)
    kl = SumKernel((k, l))
    g = grid(4)
    tk = iterated_kernels(k, Lebesgue(), 1.0, 3, g, estimate_error=False)
    tl = iterated_kernels(l, Lebesgue(), 1.0, 3, g, estimate_error=False)
    tkl = iterated_kernels(kl, Lebesgue(), 1.0, 3, g, estimate_error=False)
    for n in range(1, 4):
        lhs = tkl.layer(n)
        rhs = tk.layer(n) + tl.layer(n)
        assert np.all(lhs >= rhs - 1e-12 * (1.0 + np.abs(lhs)))
        # k <= k + l pointwise forces ordered layers
        assert np.all(tk.layer(n) <= lhs + 1e-12 * (1.0 + np.abs(lhs)))


def test_monotonicity_inheritance():
    k = CallableKernel(fn=lambda T, S: 1.0 + T + 0.3 * S, monotone_flag=True)
    tab = iterated_kernels(k, Lebesgue(), 1.0, 3, grid(5))
    nodes = tab.nodes
    rng = np.random.default_rng(42)
    for _ in range(200):
        j, mid, i = sorted(rng.integers(0, nodes.size, size=3))
        for n in range(1, 4):
            lhs = tab.value(n, mid, j)
            rhs = tab.value(n, i, j)
            assert lhs <= rhs + 1e-6 * (1.0 + abs(rhs))


def test_regular_factorial_bound_with_equality_for_flat_k0():
    # layers of a kernel of the second variable only saturate the bound
    k = CallableKernel(fn=lambda T, S: np.ones_like(S) + 0.5 * S,
                       monotone_flag=True)
    tab = iterated_kernels(k, Lebesgue(), 1.0, 4, grid(6))
    nodes = tab.nodes
    for (i, j) in [(64, 0), (48, 16)]:
        t, s = nodes[i], nodes[j]
        qq = quad(lambda u: (1 + 0.5 * u), s, t)[0]
        for n in range(1, 5):
            bound = float(k.eval(t, s)) * qq ** (n - 1) / math.factorial(n - 1)
            got = tab.value(n, i, j)
            assert got <= bound * (1 + 1e-7)
            assert got == pytest.approx(bound, rel=1e-6)  # equality here


def test_box_series_function_below_axis_product():
    # partial sums of the box series function are dominated by the
    # product of the per-axis series functions
    c = 0.9
    box = ProductBox((Interval1D(0, 1), Interval1D(0, 1)))
    bgrid = QuadratureGrid.for_box(box, 4)
    kern = ProductKernel((constant_kernel(c), constant_kernel(c)))
    for p in (1.0, 2.0):
        tab = iterated_kernels(kern, ProductMeasure((Lebesgue(), Lebesgue())),
                               p, 4, bgrid, estimate_error=False)
        from volgron.quadrature import range_weights_matrix

        a1, a2 = bgrid.axes
        h1, h2 = a1[1] - a1[0], a2[1] - a2[0]
        W1 = range_weights_matrix(a1.size)
        W2 = range_weights_matrix(a2.size)
        i1 = i2 = a1.size - 1
        partial = 0.0
        for n in range(1, 5):
            layer = tab.layer(n)[i1, i2]  # over (j1, j2)
            integ = float(W1[i1] @ layer @ W2[i2]) * h1 * h2
            partial += max(integ, 0.0) ** (1.0 / p)
        prod = 1.0
        for _ in range(2):
            sv = series_function_I(constant_kernel(c), Lebesgue(), p, 1.0,
                                   domain=DOM)
            prod *= sv.sum
        assert partial <= prod * (1.0 + 1e-9)


def test_series_function_discrete_ordered_sums_exactly():
    # single atom at the origin: the terms are the geometric series 0.5**n,
    # certified by the ratio tail (atom-bearing ordered measures fall
    # outside the factorial majorant)
    mu = DiscreteMeasure(((0.0, 0.5),))
    sv = series_function_I(constant_kernel(1.0), mu, 1.0, 1.0, domain=DOM)
    assert sv.converged and sv.tail_bound < 1e-10
    assert sv.sum <= 1.0 <= sv.sum + sv.tail_bound


def _abel_product_weights(nodes, expo):
    """Product-integration weights for the weight (t_i - s)**(expo - 1)
    against piecewise-linear data: an independent discretisation of the
    singular recursion (exact panel moments)."""
    m = nodes.size
    V = np.zeros((m, m))
    for i in range(1, m):
        ti = nodes[i]
        for l in range(i):
            h = nodes[l + 1] - nodes[l]
            b = ti - nodes[l]
            a = ti - nodes[l + 1]
            m0 = (b**expo - a**expo) / expo
            m1 = b * m0 - (b ** (expo + 1) - a ** (expo + 1)) / (expo + 1)
            V[i, l] += m0 - m1 / h
            V[i, l + 1] += m1 / h
    return V


def test_fractional_beta_positive_table_vs_product_integration_oracle():
    # independent two-stage oracle for the third layer: the second layer
    # comes from adaptive singular quadrature (finite away from the
    # column start), the third from product integration with exact panel
    # moments of the (t-s) weight against piecewise-linear data
    from volgron.quadrature import integrate_singular

    alpha, beta_ = 0.9, 0.1
    s0 = 0.25
    k = FractionalKernel(alpha=alpha, beta=beta_)
    tab = iterated_kernels(k, Lebesgue(), 1.0, 3,
                           QuadratureGrid.for_interval(DOM, 5))
    nodes = tab.nodes
    fine = np.linspace(s0, 1.0, 193)

    def layer2(sigma):
        x = sigma - s0
        if x <= 0:
            return 0.0
        res = integrate_singular(
            lambda lam: (lam * x + s0) ** (-beta_) * s0 ** (-beta_),
            gamma=alpha, delta=alpha, tol=1e-12)
        return x ** (2 * alpha - 1.0) * res.value

    r2 = np.array([layer2(sig) for sig in fine])
    V = _abel_product_weights(fine, alpha)
    r3 = V @ (r2 * fine ** (-beta_))
    j = int(np.argmin(np.abs(nodes - s0)))
    for frac in (0.5, 1.0):
        i = int(np.argmin(np.abs(nodes - frac)))
        fi = int(np.argmin(np.abs(fine - nodes[i])))
        assert tab.value(2, i, j) == pytest.approx(r2[fi], rel=1e-9)
        assert tab.value(3, i, j) == pytest.approx(r3[fi], rel=1e-3)


def test_resolvent_series_tail_soundness():
    # a coarse truncation brackets the tight value within its tail bound
    for c, t, s in [(1.5, 1.0, 0.0), (0.8, 0.7, 0.1), (2.5, 0.9, 0.4)]:
        coarse = resolvent_series(constant_kernel(c), Lebesgue(), 1.0, t, s,
                                  tol=1e-3)
        tight = resolvent_series(constant_kernel(c), Lebesgue(), 1.0, t, s,
                                 tol=1e-12)
        assert coarse.sum <= tight.sum * (1 + 1e-9)
        assert tight.sum <= coarse.sum + coarse.tail_bound + 1e-9 * tight.sum


def test_null_range_edges():
    # coincident arguments and null lower sets give the trivial values
    sv = resolvent_series(constant_kernel(2.0), Lebesgue(), 1.0, 0.5, 0.5)
    assert sv.sum == pytest.approx(2.0) and sv.converged
    sv = series_function_I(constant_kernel(2.0), Lebesgue(), 1.0, 0.0,
                           domain=DOM)
    assert sv.sum == 0.0 and sv.converged
    res = volterra_residual(constant_kernel(2.0), Lebesgue(), 0.5, 0.5,
                            grid=QuadratureGrid.for_interval(DOM, 4))
    assert res == 0.0


def test_weighted_measure_table_closed_form():
    # density 2s against a constant kernel: R_2(t, s) = c**2 (t**2 - s**2)
    from volgron.measures import WeightedLebesgue

    c = 1.3
    mu = WeightedLebesgue(weight=lambda s: 2.0 * np.asarray(s, dtype=float))
    tab = iterated_kernels(constant_kernel(c), mu, 1.0, 2, grid(5))
    nodes = tab.nodes
    for (i, j) in [(32, 0), (24, 8), (28, 12)]:
        t, s = nodes[i], nodes[j]
        assert tab.value(2, i, j) == pytest.approx(c * c * (t * t - s * s),
                                                   rel=1e-9)
    assert tab.err_est < 1e-9


def test_resolvent_series_sum_kernel():
    c1, c2 = 0.6, 0.9
    sk = SumKernel((constant_kernel(c1), constant_kernel(c2)))
    t, s = 0.9, 0.2
    sv = resolvent_series(sk, Lebesgue(), 1.0, t, s, tol=1e-11)
    assert sv.converged
    c = c1 + c2
    assert sv.sum == pytest.approx(c * math.exp(c * (t - s)), rel=1e-9)
