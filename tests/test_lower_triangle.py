"""Interval tables are built on the lower triangle only: one builder
(``_lower_kernel_power``) evaluates the kernel at the ordered pairs s <= t
of a grid and scatters them into zeros, for the rank-one tables and for
the grid operator's ``kp`` and ``B``.  The routes it replaced are kept
here as references: the rank-one table from ``np.tril_indices`` and
``np.tril`` copies of Phi, and the kernel-power triangle evaluated on the
full square and masked.  Also: no ordered path evaluates a kernel above
the diagonal, the factorial-series generator without per-term guards,
and the row-wise reduction of ``row_integral``."""

import itertools
import math

import numpy as np
import pytest

from volgron.domains import Interval1D, QuadratureGrid
from volgron.gronwall import GronwallInput, gronwall_curve
from volgron.kernels import (
    CallableKernel,
    MultiplicativeKernel,
    SeparableKernel,
    SumKernel,
    constant_kernel,
)
from volgron.measures import DiscreteMeasure, Lebesgue, WeightedLebesgue
from volgron.resolvent import (
    GridOperator,
    _ext_matmul,
    _ext_row_sums,
    _factorial_integrals,
    _grid_table,
    _kernel_power,
    _lower_kernel_power,
    _plan,
    _rank_one_table,
    _RankOnePlan,
    _row_integrals,
    _tril_mask,
    iterated_kernels,
    resolvent_series,
    series_function_I,
    volterra_residual,
)

DOM = Interval1D(0.0, 1.0)
WEIGHTED = WeightedLebesgue(lambda x: 1.0 + 0.6 * np.asarray(x, float))
MEASURES = {"lebesgue": Lebesgue(), "weighted": WEIGHTED}
RANK_ONE = {
    "constant": constant_kernel(1.3),
    "separable": SeparableKernel(
        k0=lambda t: 1.0 + 0.4 * np.asarray(t, float),
        k1=lambda s: 0.9 * (1.0 + 0.3 * np.asarray(s, float))),
    "sum": SumKernel((constant_kernel(0.7), constant_kernel(0.45))),
    "multiplicative": MultiplicativeKernel(
        lambda t: 0.8 * np.asarray(t, dtype=float)),
}


def grid(level):
    return QuadratureGrid.for_interval(DOM, level)


# ---------------------------------------------------------------------------
# references: the replaced builders
# ---------------------------------------------------------------------------


def ref_rank_one_table(plan, grid, n_max, estimate_error):
    """The rank-one table from ``np.tril_indices`` and ``np.tril`` copies of
    Phi and Phi_c."""
    nodes, m = grid.nodes, grid.nodes.size
    ii, jj = np.tril_indices(m)
    values = np.zeros((n_max, m, m))
    values[0][ii, jj] = _kernel_power(plan.kernel, plan.p, nodes[ii],
                                      nodes[jj])
    layer_c, diff, err = values[0].copy(), np.empty((m, m)), 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        phi, phi_c = (np.tril(Q[None, :] - Q[:, None]).clip(0.0) for Q in (
            plan.gap_profile(grid.refine().nodes)[::2],
            plan.gap_profile(nodes)))
        for n in range(1, n_max):
            np.multiply(values[n - 1], phi, out=values[n])
            values[n] /= n
            layer_c *= phi_c
            layer_c /= n
            np.subtract(values[n], layer_c, out=diff)
            err = max(err, float(np.abs(diff, out=diff).max())
                      + n * m * np.finfo(float).eps * float(values[n].max()))
    if not all(np.isfinite(x).all() for x in (values[0], values[-1], layer_c)):
        return _grid_table(plan, grid, n_max, estimate_error)
    return (values, err, "certified") if estimate_error else \
        (values, 0.0, "unknown-accuracy")


def ref_triangle(self):
    """The kernel power on the full m x m square, masked on ordered grids."""
    m = self.nodes.size
    vals = _kernel_power(self.kernel, self.p,
                         np.broadcast_to(self.nodes[:, None], (m, m)),
                         np.broadcast_to(self.nodes[None, :], (m, m)))
    return np.where(_tril_mask(m), vals, 0.0) if self.ordered else vals


def ref_factorial_integrals(w, Q):
    """The generator with an ``errstate`` and a NaN scan on every term."""
    h = w
    for n in itertools.count(1):
        with np.errstate(over="ignore", invalid="ignore"):
            total, h = float(h.sum()), np.multiply(h, Q)
        h[np.isnan(h)] = 0.0
        h /= n
        yield total


def same_table(got, want):
    values, err, status = got
    ref_values, ref_err, ref_status = want
    np.testing.assert_array_equal(values, ref_values)
    assert (err, status) == (ref_err, ref_status)


# ---------------------------------------------------------------------------
# the rank-one table against its reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("measure", sorted(MEASURES))
@pytest.mark.parametrize("name", sorted(RANK_ONE))
def test_rank_one_table_matches_reference(name, measure, p):
    plan = _plan(RANK_ONE[name], MEASURES[measure], p)
    assert isinstance(plan, _RankOnePlan)
    for level in (3, 6):
        for n_max in (1, 2, 3, 6):
            for estimate_error in (True, False):
                args = (plan, grid(level), n_max, estimate_error)
                same_table(_rank_one_table(*args), ref_rank_one_table(*args))


@pytest.mark.parametrize("measure", sorted(MEASURES))
def test_non_finite_diagonal_takes_the_same_grid_fallback(measure,
                                                          monkeypatch):
    # k0(t) = t**-0.5 is inf at t = 0, on the diagonal and in d = k0 k1
    kernel = SeparableKernel(
        k0=lambda t: np.divide(1.0, np.sqrt(t), out=np.full(np.shape(t),
                                                            np.inf),
                               where=np.asarray(t) > 0),
        k1=lambda s: 1.0 + 0.5 * np.asarray(s, float),
        k0_monotone="decreasing")
    plan = _plan(kernel, MEASURES[measure], 1.0)
    assert isinstance(plan, _RankOnePlan)
    for n_max, estimate_error in ((1, True), (2, True), (3, False), (6, True)):
        args = (plan, grid(4), n_max, estimate_error)
        got = _rank_one_table(*args)
        same_table(got, _grid_table(*args))
        # the reference takes the replaced route all the way down
        with monkeypatch.context() as patch:
            patch.setattr(GridOperator, "_triangle", ref_triangle)
            same_table(got, ref_rank_one_table(*args))


# ---------------------------------------------------------------------------
# the grid operator's triangle against the full square
# ---------------------------------------------------------------------------

GRID_KERNELS = {
    "callable": CallableKernel(lambda T, S: (1.0 + 0.4 * T) * (0.9 + S),
                               monotone_flag=True),
    "transcendental": CallableKernel(
        lambda T, S: np.exp(0.7 * T) * np.log1p(S) + np.sin(T - S) ** 2),
    "singular": CallableKernel(lambda T, S: (T - S) ** -0.5,
                               monotone_flag=False),
    "separable": RANK_ONE["separable"],
    "multiplicative": RANK_ONE["multiplicative"],
}
ATOMS = DiscreteMeasure(tuple((0.1 * i, 0.05 + 0.01 * i)
                              for i in (3, 0, 7, 1, 5, 9, 2)))


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("name", sorted(GRID_KERNELS))
def test_triangle_matches_full_square(name, p):
    kernel = GRID_KERNELS[name]
    ops = [GridOperator.on_nodes(kernel, mu, p, grid(level).nodes)
           for mu in MEASURES.values() for level in (1, 4, 7)]
    ops.append(GridOperator.on_atoms(kernel, ATOMS, p))
    for op in ops:
        ref = GridOperator(kernel, p, op.nodes, op.weights, op.W)
        ref._triangle = ref_triangle.__get__(ref)
        with np.errstate(invalid="ignore"):  # the square's upper half
            ref_kp, ref_B = ref.kp, ref.B
        np.testing.assert_array_equal(op.kp, ref_kp)
        np.testing.assert_array_equal(op.B, ref_B)


@pytest.mark.parametrize("measure", sorted(MEASURES))
@pytest.mark.parametrize("name", ["callable", "transcendental"])
def test_grid_table_matches_full_square(name, measure, monkeypatch):
    args = (GRID_KERNELS[name], MEASURES[measure], 1.0, 3, grid(5))
    got = iterated_kernels(*args)
    monkeypatch.setattr(GridOperator, "_triangle", ref_triangle)
    want = iterated_kernels(*args)
    np.testing.assert_array_equal(got.values, want.values)
    assert (got.err_est, got.status) == (want.err_est, want.status)


def test_builder_writes_into_out_and_leaves_the_upper_triangle():
    nodes = np.linspace(0.0, 1.0, 9)
    out = np.zeros((9, 9))
    kernel = GRID_KERNELS["callable"]
    assert _lower_kernel_power(kernel, 2.0, nodes, out) is out
    assert not np.triu(out, 1).any()
    i, j = np.tril_indices(9)
    np.testing.assert_array_equal(
        out[i, j], _kernel_power(kernel, 2.0, nodes[i], nodes[j]))


# ---------------------------------------------------------------------------
# no ordered path evaluates a kernel above the diagonal
# ---------------------------------------------------------------------------


def ordered_only(T, S):
    assert np.all(S <= T), "kernel evaluated above the diagonal"
    return np.sqrt(T - S) + 1.0


ORDERED = CallableKernel(ordered_only, monotone_flag=True)


@pytest.mark.parametrize("measure", sorted(MEASURES) + ["atoms"])
def test_ordered_paths_evaluate_kernels_at_s_below_t(measure):
    mu = ATOMS if measure == "atoms" else MEASURES[measure]
    for p in (1.0, 2.0):
        tab = iterated_kernels(ORDERED, mu, p, 3,
                               None if measure == "atoms" else grid(5))
        assert np.isfinite(tab.values).all()
        for t, s in ((1.0, 0.0), (0.7, 0.3), (0.4, 0.4)):
            assert resolvent_series(ORDERED, mu, p, t, s, level=5).converged
        assert series_function_I(ORDERED, mu, p, 0.8, domain=DOM,
                                 level=5).converged
    assert math.isfinite(volterra_residual(ORDERED, mu, 1.0, 0.0, grid(5)))


@pytest.mark.parametrize("measure", sorted(MEASURES))
def test_gronwall_curve_evaluates_kernels_at_s_below_t(measure):
    inp = GronwallInput(v0=1.0, k=ORDERED, measure=MEASURES[measure], p=1.0,
                        domain=DOM, l=ORDERED)
    curve = gronwall_curve(inp, [0.0, 0.3, 0.65, 1.0], level=5)
    assert np.isfinite(curve.sharp).all() and np.isfinite(curve.sup).all()


# ---------------------------------------------------------------------------
# the factorial-series generator without per-term guards
# ---------------------------------------------------------------------------


def first_terms(gen, count=60):
    return [next(gen) for _ in range(count)]


@pytest.mark.parametrize("case", ["finite", "large", "overflow", "inf",
                                  "zero", "signed"])
def test_factorial_integrals_match_guarded_reference(case):
    rng = np.random.default_rng(len(case))
    m = 129
    w, Q = rng.uniform(0.0, 2.0, m), np.sort(rng.uniform(0.0, 3.0, m))[::-1]
    if case == "large":  # near the float range, still inside it
        Q = Q * 200.0
    elif case == "overflow":
        w, Q = w * 1e300, Q * 400.0
    elif case == "inf":
        w[5], Q[:3] = np.inf, np.inf
    elif case == "zero":
        w[:] = 0.0
    elif case == "signed":
        w = w - 1.0
    got = first_terms(_factorial_integrals(w.copy(), Q))
    want = first_terms(ref_factorial_integrals(w.copy(), Q))
    assert got == want


def test_factorial_integrals_do_not_touch_w():
    w, Q = np.full(9, 2.0), np.linspace(3.0, 0.0, 9)
    first_terms(_factorial_integrals(w, Q), 5)
    np.testing.assert_array_equal(w, 2.0)


# ---------------------------------------------------------------------------
# the row-wise reduction of row_integral
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("where", ["finite", "inf", "inf_weight", "nan",
                                   "inf_at_zero", "neg_inf"])
def test_ext_row_sums_follow_ext_matmul(where):
    rng = np.random.default_rng(len(where))
    w, f = rng.uniform(0.0, 1.0, (6, 33)), rng.uniform(0.0, 2.0, (6, 33))
    if where == "inf":
        f[1, 4] = f[3, 0] = np.inf
    elif where == "inf_weight":
        w[2, 7] = np.inf
    elif where == "nan":
        f[0, 2] = np.nan
    elif where == "inf_at_zero":
        f[4, 9], w[4, 9] = np.inf, 0.0
    elif where == "neg_inf":
        f[5, 1] = -np.inf
    got = _ext_row_sums(w, f)
    want = np.array([float(_ext_matmul(a, b)) for a, b in zip(w, f)])
    assert np.array_equal(np.isinf(got), np.isinf(want))
    fin = np.isfinite(want)
    np.testing.assert_allclose(got[fin], want[fin], rtol=1e-14, atol=0.0)
    for row, (a, b) in enumerate(zip(w, f)):
        assert _ext_row_sums(a, b) == got[row]  # alone as in the block


@pytest.mark.parametrize("measure", sorted(MEASURES))
def test_row_integrals_equal_row_integral(measure):
    mu, kernel = MEASURES[measure], ORDERED
    ts = np.linspace(0.05, 1.0, 20)
    got = _row_integrals(kernel, mu, 2.0, 0.0, ts, 6)
    for t, x in zip(ts, got):
        op = GridOperator.on_interval(kernel, mu, 2.0, 0.0, t, 6)
        want = op.row_integral(op.kernel_row())
        if measure == "lebesgue":
            assert x == want
        else:  # the density is read on nodes of another shape: a few ulps
            assert x == pytest.approx(want, rel=1e-15, abs=0.0)
