"""The rank-one plan: kernels with ``k(t, u) k(u, s) = k(t, s) d(u)``
(separable, constant, multiplicative, and sums of separable kernels that
share one ``k0`` object) on atomless measures use the closed forms ``R_n
= k**p Phi**(n-1) / (n-1)!`` and ``R = k**p exp(Phi)``.  They are checked
against a callable twin of the same kernel or the grid table builder,
which take the grid recursion, and against exact references in
``decimal``."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volgron.domains import Interval1D, QuadratureGrid
from volgron.kernels import (
    CallableKernel,
    FractionalKernel,
    MultiplicativeKernel,
    SeparableKernel,
    SumKernel,
    constant_kernel,
)
from volgron.measures import DiscreteMeasure, Lebesgue, WeightedLebesgue
from volgron.resolvent import (
    _grid_table,
    _GridPlan,
    _plan,
    _RankOnePlan,
    iterated_kernels,
    product_bound,
    resolvent_series,
    series_function_I,
)

DOM = Interval1D(0.0, 1.0)
A, B, D, R, E = 0.4, 0.9, 0.3, 0.8, 0.5
KERNELS = {
    "const": constant_kernel(1.3),
    "sep": SeparableKernel(k0=lambda t: 1.0 + A * np.asarray(t, float),
                           k1=lambda s: B * (1.0 + D * np.asarray(s, float))),
    "mult": MultiplicativeKernel(lambda t: R * np.asarray(t, dtype=float)),
}
MEASURES = {
    "lebesgue": Lebesgue(),
    "weighted": WeightedLebesgue(lambda x: 1.0 + E * np.asarray(x, float)),
}


def twin(kernel):
    """The same kernel without a declared diagonal: the grid recursion."""
    return CallableKernel(kernel.eval_grid, monotone_flag=kernel.monotone)


def exact_parts(name, weighted, p, t, s):
    """``k(t, s)**p`` and ``Phi(s, t) = G(t) - G(s)`` at 40 digits, G an
    antiderivative of d**p times the density (a polynomial: p is an
    integer unless d is constant)."""
    with localcontext() as ctx:
        ctx.prec = 40
        t, s, e = Decimal(t), Decimal(s), Decimal(E) if weighted else 0
        if name == "mult":
            k, d = (Decimal(R) * (t - s)).exp(), [Decimal(1)]
        elif name == "const":
            k, d = Decimal(1.3), [Decimal(1.3) ** Decimal(p)]
        else:
            a, b, c = Decimal(A), Decimal(B), Decimal(D)
            k = (1 + a * t) * b * (1 + c * s)
            # d = k0 k1 = b (1 + (a + c) u + a c u**2), raised to the power p
            base = [b, b * (a + c), b * a * c]
            d = [Decimal(1)]
            for _ in range(int(p)):
                d = [sum(d[i] * base[j - i] for i in range(len(d))
                         if 0 <= j - i < 3) for j in range(len(d) + 2)]
        g = [x + (e * d[i - 1] if i else 0) for i, x in
             enumerate(d + [Decimal(0)])]
        G = lambda x: sum(c * x ** (i + 1) / (i + 1)  # noqa: E731
                          for i, c in enumerate(g))
        return k ** Decimal(p), G(t) - G(s)


def encloses(sv, ref):
    with localcontext() as ctx:
        ctx.prec = 40
        lo = Decimal(sv.sum)
        return lo <= ref <= lo + Decimal(sv.tail_bound)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_rank_one_plan_on_atomless_measures_only(name):
    for measure in MEASURES.values():
        assert isinstance(_plan(KERNELS[name], measure, 1.0), _RankOnePlan)
    atoms = DiscreteMeasure(tuple((i / 8, 0.1) for i in range(9)))
    assert type(_plan(KERNELS[name], atoms, 1.0)) is _GridPlan
    assert type(_plan(twin(KERNELS[name]), Lebesgue(), 1.0)) is _GridPlan


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("measure", sorted(MEASURES))
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_table_matches_grid_twin(name, measure, p):
    kern, mu = KERNELS[name], MEASURES[measure]
    grid = QuadratureGrid.for_interval(DOM, 5)
    got = iterated_kernels(kern, mu, p, 6, grid)
    ref = iterated_kernels(twin(kern), mu, p, 6, grid)
    assert got.status == ref.status == "certified"
    assert 0.0 < got.err_est < ref.err_est
    scale = float(np.max(np.abs(ref.values)))
    assert np.max(np.abs(got.values - ref.values)) <= \
        ref.err_est + 1e-13 * scale
    assert not np.triu(got.values, 1).any()
    unchecked = iterated_kernels(kern, mu, p, 6, grid, estimate_error=False)
    assert unchecked.status == "unknown-accuracy"
    assert unchecked.err_est == 0.0


def test_table_of_constant_kernel_is_the_closed_form():
    # Phi = c (t_i - t_j) is exact up to rounding: layer n is
    # c**n (t_i - t_j)**(n-1) / (n-1)!
    grid = QuadratureGrid.for_interval(DOM, 8)
    tab = iterated_kernels(constant_kernel(1.9), Lebesgue(), 1.0, 6, grid)
    X = np.tril(grid.nodes[:, None] - grid.nodes[None, :])
    ref = np.stack([np.tril(np.full(X.shape, 1.9)) * (1.9 * X) ** (n - 1)
                    / math.factorial(n - 1) for n in range(1, 7)])
    assert tab.status == "certified"
    assert np.max(np.abs(tab.values - ref)) <= tab.err_est < 1e-11


def _one(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _pole(x):
    return 1.0 / np.sqrt(np.asarray(x, dtype=float))


@pytest.mark.parametrize("k0, k1, status", [
    # the iterates are infinite where the kernel is finite: not resolved
    (_pole, _one, "unknown-accuracy"),
    # the infinite entries are those of the kernel itself
    (_one, _pole, "certified"),
])
def test_singular_separable_kernel_keeps_the_grid_table(k0, k1, status):
    # d = k0 k1 is infinite at 0: the grid recursion builds the table, bit
    # for bit
    kern = SeparableKernel(k0=k0, k1=k1)
    grid = QuadratureGrid.for_interval(DOM, 4)
    got = iterated_kernels(kern, Lebesgue(), 1.0, 3, grid)
    ref = iterated_kernels(twin(kern), Lebesgue(), 1.0, 3, grid)
    assert got.status == ref.status == status
    assert got.err_est == ref.err_est
    np.testing.assert_array_equal(got.values, ref.values)


# ---------------------------------------------------------------------------
# sums of separable kernels with one k0: k0(t) (k1_1 + k1_2 + ...)(s)
# ---------------------------------------------------------------------------


def _k0(t):
    return 1.0 + A * np.asarray(t, dtype=float)


C1, C2 = 0.7, 1.3
SUMS = {
    "constants": SumKernel((constant_kernel(C1), constant_kernel(C2))),
    "shared-k0": SumKernel((
        SeparableKernel(k0=_k0, k1=lambda s: B + 0.0 * np.asarray(s, float)),
        SeparableKernel(k0=_k0, k1=lambda s: D * np.asarray(s, float)),
        SeparableKernel(k0=_k0, k1=lambda s: np.exp(-np.asarray(s, float))))),
}
GRID_SUMS = {
    # equal functions, but two k0 objects
    "two-k0": SumKernel((
        SeparableKernel(k0=lambda t: 1.0 + 0.0 * np.asarray(t, float),
                        k1=lambda s: C1 + 0.0 * np.asarray(s, float)),
        SeparableKernel(k0=lambda t: 1.0 + 0.0 * np.asarray(t, float),
                        k1=lambda s: C2 + 0.0 * np.asarray(s, float)))),
    "callable-part": SumKernel((constant_kernel(C1),
                                CallableKernel(lambda T, S: C2 + 0.0 * T,
                                               monotone_flag=True))),
    "multiplicative-part": SumKernel((constant_kernel(C1),
                                      KERNELS["mult"])),
    "fractional-part": SumKernel((constant_kernel(C1),
                                  FractionalKernel(1.5, 0.0))),
}


@pytest.mark.parametrize("name", sorted(SUMS))
def test_sums_with_one_k0_take_the_rank_one_plan(name):
    for measure in MEASURES.values():
        assert isinstance(_plan(SUMS[name], measure, 2.0), _RankOnePlan)
    atoms = DiscreteMeasure(tuple((i / 8, 0.1) for i in range(9)))
    assert type(_plan(SUMS[name], atoms, 1.0)) is _GridPlan


@pytest.mark.parametrize("name", sorted(GRID_SUMS))
def test_other_sums_keep_the_grid_plan(name):
    for measure in MEASURES.values():
        assert type(_plan(GRID_SUMS[name], measure, 1.0)) is _GridPlan


def test_sums_on_atoms_keep_the_exact_grid_sums():
    atoms = DiscreteMeasure(tuple((i / 10, 0.05 + i / 200) for i in range(11)))
    for kern in SUMS.values():
        np.testing.assert_array_equal(
            iterated_kernels(kern, atoms, 1.5, 4).values,
            iterated_kernels(twin(kern), atoms, 1.5, 4).values)


@pytest.mark.parametrize("level", [6, 7, 8])
@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("measure", sorted(MEASURES))
@pytest.mark.parametrize("name", sorted(SUMS))
def test_sum_tables_match_the_grid_table(name, measure, p, level):
    kern, mu = SUMS[name], MEASURES[measure]
    grid = QuadratureGrid.for_interval(DOM, level)
    got = iterated_kernels(kern, mu, p, 4, grid)
    ref, ref_err, ref_status = _grid_table(_plan(kern, mu, p), grid, 4, True)
    assert got.status == ref_status == "certified"
    scale = float(np.max(np.abs(ref)))
    assert np.max(np.abs(got.values - ref)) <= ref_err + 1e-13 * scale
    assert not np.triu(got.values, 1).any()


@pytest.mark.parametrize("level", [6, 7, 8])
@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("measure", sorted(MEASURES))
def test_sum_of_constants_is_the_closed_form_of_their_sum(measure, p, level):
    # c = c1 + c2: R_n = c**p Phi**(n-1) / (n-1)!, Phi = c**p (G(t_i) -
    # G(t_j)), G the antiderivative of the density
    grid = QuadratureGrid.for_interval(DOM, level)
    tab = iterated_kernels(SUMS["constants"], MEASURES[measure], p, 5, grid)
    e = E if measure == "weighted" else 0.0
    G = grid.nodes + e * grid.nodes**2 / 2
    c = (C1 + C2) ** p
    lower = np.tri(grid.nodes.size, dtype=bool)
    X = np.where(lower, G[:, None] - G[None, :], 0.0)
    ref = np.stack([np.where(lower, c, 0.0) * (c * X) ** (n - 1)
                    / math.factorial(n - 1) for n in range(1, 6)])
    assert tab.status == "certified"
    assert np.max(np.abs(tab.values - ref)) <= tab.err_est < 1e-10


def test_sum_of_constants_series_is_the_constant_series():
    # resolvent and series function of c1 + c2 equal those of the constant
    for p in (1.0, 2.0):
        got = resolvent_series(SUMS["constants"], Lebesgue(), p, 0.9, 0.2)
        ref = resolvent_series(constant_kernel(C1 + C2), Lebesgue(), p, 0.9,
                               0.2)
        assert got == ref
        assert series_function_I(SUMS["constants"], Lebesgue(), p, 0.8,
                                 domain=DOM) == \
            series_function_I(constant_kernel(C1 + C2), Lebesgue(), p, 0.8,
                              domain=DOM)


@settings(max_examples=80, deadline=None)
@given(cs=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=4),
       a=st.floats(0.0, 2.0), constants=st.booleans(),
       xs=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
def test_shared_k0_sums_are_rank_one(cs, a, constants, xs):
    # k(t, u) k(u, s) = k(t, s) d(u) within the rounding of two sums of
    # len(cs) products on either side
    if constants:
        parts = tuple(constant_kernel(c) for c in cs)
    else:
        k0 = lambda t: 1.0 + a * np.asarray(t, float)  # noqa: E731
        parts = tuple(SeparableKernel(
            k0=k0, k1=lambda s, c=c: c * (1.0 + np.asarray(s, float)))
            for c in cs)
    kern = SumKernel(parts)
    s, u, t = (np.asarray(x) for x in sorted(xs))
    d = kern._diagonal()
    lhs = float(kern.eval_grid(t, u) * kern.eval_grid(u, s))
    rhs = float(kern.eval_grid(t, s) * d(u))
    assert abs(lhs - rhs) <= 4 * (len(cs) + 1) * np.finfo(float).eps * rhs


# ---------------------------------------------------------------------------
# atoms: the grid plan, unchanged
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_atoms_keep_the_exact_grid_sums(name):
    kern = KERNELS[name]
    atoms = DiscreteMeasure(tuple((i / 10, 0.05 + i / 200) for i in range(11)))
    same = twin(kern)
    np.testing.assert_array_equal(
        iterated_kernels(kern, atoms, 1.5, 4).values,
        iterated_kernels(same, atoms, 1.5, 4).values)
    assert resolvent_series(kern, atoms, 1.0, 1.0, 0.2) == \
        resolvent_series(same, atoms, 1.0, 1.0, 0.2)
    assert series_function_I(kern, atoms, 2.0, 0.9, domain=DOM) == \
        series_function_I(same, atoms, 2.0, 0.9, domain=DOM)
    assert float(product_bound([(kern, atoms)], 1.0, 3, [1.0], [0.0])) == \
        float(product_bound([(same, atoms)], 1.0, 3, [1.0], [0.0]))


# ---------------------------------------------------------------------------
# iterates, series and the resolvent
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("measure", sorted(MEASURES))
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_iterates_are_the_closed_form(name, measure):
    kern, mu = KERNELS[name], MEASURES[measure]
    kp, phi = exact_parts(name, measure == "weighted", 2, 0.9, 0.1)
    for n in (1, 2, 4, 6):
        got = float(product_bound([(kern, mu)], 2.0, n, [0.9], [0.1]))
        ref = float(kp * phi ** (n - 1) / math.factorial(n - 1))
        assert got == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("measure", sorted(MEASURES))
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_series_keeps_terms_and_tail(name, measure, p):
    # q, the factorial tail and the stopping rule are the grid plan's; the
    # closed-form terms are another quadrature of the same integrals and
    # agree with the recursion within its two-level difference
    kern, mu = KERNELS[name], MEASURES[measure]
    v = lambda s: 1.0 + 0.5 * np.asarray(s, dtype=float)  # noqa: E731
    for val in (1.0, v):
        got, ref, coarse = (_plan(k, mu, p).bound(val, 0.9, DOM, 1e-10, lv,
                                                 400)
                            for k, lv in ((kern, 6), (twin(kern), 6),
                                          (twin(kern), 5)))
        assert got.converged and got.terms_used == ref.terms_used
        assert got.tail_bound == pytest.approx(ref.tail_bound, rel=1e-12)
        assert abs(got.sum - ref.sum) <= abs(ref.sum - coarse.sum)


def test_constant_series_function_encloses_its_exact_value():
    # I(1) = e**1.5 - 1 for the constant 1.5 on Lebesgue measure, with zero
    # slack at level 8
    sv = series_function_I(constant_kernel(1.5), Lebesgue(), 1.0, 1.0,
                           domain=DOM, tol=1e-10, level=8)
    assert sv.converged
    with localcontext() as ctx:
        ctx.prec = 40
        assert encloses(sv, Decimal(1.5).exp() - 1)


# d**p needs a polynomial antiderivative: p = 1.5 only where d is constant
@pytest.mark.parametrize("name, p", [
    ("const", 1.0), ("const", 1.5), ("const", 2.0), ("mult", 1.0),
    ("mult", 1.5), ("mult", 2.0), ("sep", 1.0), ("sep", 2.0)])
@pytest.mark.parametrize("measure", sorted(MEASURES))
def test_resolvent_encloses_exact_value_with_zero_slack(name, measure, p):
    kern, mu = KERNELS[name], MEASURES[measure]
    rng = np.random.default_rng(7)
    for _ in range(12):
        s, t = np.sort(rng.uniform(0.0, 1.0, size=2))
        sv = resolvent_series(kern, mu, p, float(t), float(s))
        assert sv.converged and sv.terms_used == 1
        assert 0.0 < sv.tail_bound < 1e-13 * sv.sum
        kp, phi = exact_parts(name, measure == "weighted", p, float(t),
                              float(s))
        with localcontext() as ctx:
            ctx.prec = 40
            assert encloses(sv, kp * phi.exp())


def test_resolvent_is_the_sum_of_the_grid_twin_series():
    kern, mu = KERNELS["sep"], MEASURES["weighted"]
    got = resolvent_series(kern, mu, 1.0, 0.9, 0.2)
    ref = resolvent_series(twin(kern), mu, 1.0, 0.9, 0.2)
    assert ref.converged
    assert got.sum == pytest.approx(ref.sum, rel=1e-9)


def test_null_range_keeps_the_first_iterate():
    kern = KERNELS["sep"]
    sv = resolvent_series(kern, Lebesgue(), 2.0, 0.5, 0.5)
    assert sv == resolvent_series(twin(kern), Lebesgue(), 2.0, 0.5, 0.5)
    assert sv.tail_bound == 0.0


def test_unconverged_phi_keeps_the_grid_resolvent_and_iterates():
    # d = t**-1/2 is infinite at s = 0 where k**p is finite: the quadrature
    # of Phi does not converge there, so its estimate is no bound and both
    # entry points take the grid recursion, like the twin
    kern = SeparableKernel(k0=_pole, k1=_one)
    same = twin(kern)
    sv = resolvent_series(kern, Lebesgue(), 1.0, 0.8, 0.0)
    assert sv == resolvent_series(same, Lebesgue(), 1.0, 0.8, 0.0)
    assert not sv.converged
    for n in (1, 2, 3):
        assert float(product_bound([(kern, Lebesgue())], 1.0, n, [0.8],
                                   [0.0])) == \
            float(product_bound([(same, Lebesgue())], 1.0, n, [0.8], [0.0]))


def test_resolvent_wider_than_tol_is_not_converged():
    # 100 e**10: an enclosure of a few ulps of 2.2e6 is wider than 1e-10
    kern = constant_kernel(100.0)
    sv = resolvent_series(kern, Lebesgue(), 1.0, 0.2, 0.1, tol=1e-10)
    assert not sv.converged
    assert 1e-10 <= sv.tail_bound < 1e-12 * sv.sum
    with localcontext() as ctx:
        ctx.prec = 40
        assert encloses(sv, 100 * Decimal(10).exp())
    loose = resolvent_series(kern, Lebesgue(), 1.0, 0.2, 0.1, tol=1e-6)
    assert loose.converged
    assert (loose.sum, loose.tail_bound) == (sv.sum, sv.tail_bound)
