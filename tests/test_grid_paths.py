"""The matrix-product layer update, the integrated-series recursion, the
vectorised suffix integrals, the factored box tables and the
matrix-vector Picard certificate, each against the plain implementation
it replaced, kept here as the reference; plus the 0 * inf = 0 column
paths of a kernel that is infinite on the diagonal."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from volgron import fixpoint
from volgron.domains import Interval1D, ProductBox, QuadratureGrid
from volgron.fixpoint import PicardCertificate, picard_solve
from volgron.gronwall import resolvent_bound
from volgron.kernels import (
    CallableKernel,
    ProductKernel,
    SeparableKernel,
    constant_kernel,
)
from volgron.measures import (
    DiscreteMeasure,
    Lebesgue,
    ProductMeasure,
    WeightedLebesgue,
)
from volgron.problems import volterra_problem
from volgron.quadrature import range_weights_matrix
from volgron.resolvent import (
    GridOperator,
    _factorial_log,
    _layer_update,
    compose_layers,
    iterated_kernels,
    product_bound,
    series_function_I,
    sum_decomposition,
    volterra_residual,
)
from volgron.specfun import SeriesValue, _tail_sum

DOM = Interval1D(0.0, 1.0)
WEIGHTED = WeightedLebesgue(lambda x: 1.0 + 0.5 * np.asarray(x, dtype=float))
SEP = SeparableKernel(k0=lambda t: 1.0 + np.asarray(t, dtype=float),
                      k1=lambda s: 2.0 - np.asarray(s, dtype=float),
                      k0_monotone="increasing")
KERNELS = {
    "constant": (constant_kernel(1.5), Lebesgue()),
    "separable": (SEP, Lebesgue()),
    "weighted": (SEP, WEIGHTED),
}
SINGULAR = CallableKernel(lambda t, s: 1.0 / np.sqrt(np.maximum(t - s, 0.0)))
BOX = ProductBox((DOM, DOM))
BOX_CASES = {
    "constant": (ProductKernel((constant_kernel(1.5), constant_kernel(0.8)),
                               tail_factor=0.7),
                 ProductMeasure((Lebesgue(), Lebesgue()))),
    "separable": (ProductKernel((constant_kernel(1.5), SEP), tail_factor=0.7),
                  ProductMeasure((Lebesgue(), WEIGHTED))),
}


# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------


def loop_layer_update(A, R, W):
    """The column loop: R'[i, j] = sum_l W[i-j, l-j] A[i, l] R[l, j]."""
    m = A.shape[0]
    out = np.zeros_like(R)
    for j in range(m):
        sub = A[j:, j:] * W[: m - j, : m - j]
        out[j:, j] = sub @ R[j:, j]
    return out


def ext_loop_layer_update(A, R, W):
    """Entry-by-entry update with 0 * inf = 0: a term is +inf only when its
    weight and both factors are positive and one factor is infinite."""
    m = A.shape[0]
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1):
            total, hit = 0.0, False
            for l in range(j, i + 1):
                w, a, r = W[i - j, l - j], A[i, l], R[l, j]
                if math.isfinite(a) and math.isfinite(r):
                    total += w * a * r
                elif w > 0 and a > 0 and r > 0:
                    hit = True
            out[i, j] = math.inf if hit else total
    return out


def loop_suffix_integrals(g, W):
    m = g.size
    Q = np.empty(m)
    for j in range(m):
        Q[j] = W[m - 1 - j, : m - j] @ g[j:]
    return Q


def table_route_series(kernel, measure, p, t, tol, level, v=None,
                       n_cap=400):
    """The full-table route: advance whole m x m layers and integrate
    their last row (the series part of series_function_I and, with v,
    of resolvent_bound)."""
    use_level = level if isinstance(measure, DiscreteMeasure) else level + 1
    op = GridOperator.on_range(kernel, measure, p, DOM.lo, t, use_level)
    nodes, B = op.nodes, op.B
    m = nodes.size
    cur = op.kp
    if isinstance(measure, DiscreteMeasure):
        atoms = GridOperator.on_atoms(None, measure, p)
        pts, masses = atoms.nodes, atoms.weights
        row_w = masses[(pts >= DOM.lo) & (pts <= t)]
        if row_w.size != m:
            row_w = np.append(row_w, 0.0)
        advance = lambda R: B @ R  # noqa: E731
        majorant_ok = False
    else:
        dens = op.weights
        W = range_weights_matrix(m)
        A = cur * dens[None, :]
        row_w = W[-1] * dens
        advance = lambda R: _layer_update(A, R, W)  # noqa: E731
        majorant_ok = kernel.monotone
    v_vals = np.ones(m) if v is None else np.asarray(v(nodes), dtype=float)
    sup_v = float(np.max(v_vals))
    q = float(row_w @ cur[-1])
    total = 0.0
    for n in range(1, n_cap + 1):
        integ = float(row_w @ (cur[-1] * v_vals**p))
        total += max(integ, 0.0) ** (1.0 / p)
        if majorant_ok:
            tail = sup_v * _tail_sum(_factorial_log(q, p), n + 1)
            if tail < tol:
                return SeriesValue(total, tail, n, True)
        cur = advance(cur)
    return SeriesValue(total, math.inf, n_cap, False)


def loop_box_layers(kernel, measure, p, grid, n_max):
    """The per-column double loop over (j1, j2): each column of a box layer
    is the previous one multiplied by the two axis operators."""
    ops = [GridOperator.on_nodes(k, ms, p, a)
           for k, ms, a in zip(kernel.factors, measure.factors, grid.axes)]
    K1, K2 = (op.kp for op in ops)
    A1, A2 = (op.kp * op.weights[None, :] for op in ops)
    n1, n2 = K1.shape[0], K2.shape[0]
    W1, W2 = range_weights_matrix(n1), range_weights_matrix(n2)
    tail = kernel.tail_constant**p
    layers = np.zeros((n_max, n1, n2, n1, n2))
    layers[0] = tail * np.einsum("ik,jl->ijkl", K1, K2)
    for n in range(1, n_max):
        prev = layers[n - 1]
        cur = np.zeros_like(prev)
        for j1 in range(n1):
            B1 = A1[j1:, j1:] * W1[: n1 - j1, : n1 - j1]
            for j2 in range(n2):
                B2 = A2[j2:, j2:] * W2[: n2 - j2, : n2 - j2]
                cur[j1:, j2:, j1, j2] = tail * (
                    B1 @ prev[j1:, j2:, j1, j2] @ B2.T)
        layers[n] = cur
    return layers


def table_route_certificate(spec, w0, n_layers, cert_level):
    """The Picard certificate of a monotone increment kernel from full
    m x m layers: term i integrates every row of R_i against w0**p."""
    nodes = spec.grid
    stride = 2 ** max(int(round(math.log2(nodes.size - 1))) - cert_level, 0)
    cnodes, cw0, p = nodes[::stride], w0[::stride], spec.p
    op = GridOperator.on_nodes(spec.lambda_kernel, spec.measure, p, cnodes)
    W = range_weights_matrix(cnodes.size)
    weighted = op.weights * cw0**p
    b = np.array([np.maximum((W * layer) @ weighted, 0.0) ** (1.0 / p)
                  for layer in op.layers(n_layers)])
    q_prof = (W * op.kp) @ op.weights
    sup_w0 = np.maximum.accumulate(cw0)
    tail = np.array([sup_w0[j] * _tail_sum(_factorial_log(float(q), p),
                                           n_layers + 1)
                     for j, q in enumerate(q_prof)])
    return PicardCertificate(
        ts=cnodes.copy(), p=p, b_layers=b, tail=tail,
        lambda0_profile=np.where(q_prof > 0, q_prof, 0.0) ** (1.0 / p),
        w0=cw0.copy(), family=spec.lambda_kernel.family)


def _nodes(m):
    return np.linspace(0.0, 1.0, m)


def _suffix_integrals(g, W):
    """Suffix integrals of g itself: the operator with unit node weights."""
    m = g.size
    return GridOperator(None, 1.0, _nodes(m), np.ones(m), W).suffix_integrals(g)


# ---------------------------------------------------------------------------
# layer update
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", list(range(2, 10)) + [129, 513])
@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_layer_update_matches_column_loop(m, name, p):
    kernel, measure = KERNELS[name]
    nodes = _nodes(m)
    op = GridOperator.on_nodes(kernel, measure, p, nodes)
    kp = op.kp
    A = kp * op.weights[None, :]
    W = range_weights_matrix(m)
    R2 = _layer_update(A, kp, W)
    # entries above the diagonal are outside the recursion: both ignore them
    rng = np.random.default_rng(m)
    above = np.triu(rng.uniform(1.0, 9.0, (m, m)), 1)
    for R in (kp, R2):
        ref = loop_layer_update(A + above, R + above, W)
        new = _layer_update(A + above, R + above, W)
        np.testing.assert_allclose(new, ref, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("m", [3, 6, 7, 8, 12])
def test_layer_update_non_finite_entries_follow_zero_times_inf(m):
    rng = np.random.default_rng(100 + m)
    W = range_weights_matrix(m)
    for _ in range(4):
        A = np.tril(rng.uniform(0.1, 2.0, (m, m)))
        R = np.tril(rng.uniform(0.1, 2.0, (m, m)))
        for M in (A, R):
            pick = rng.random((m, m))
            M[pick < 0.15] = 0.0
            M[(pick >= 0.15) & (pick < 0.25)] = np.inf
            M[(pick >= 0.25) & (pick < 0.3)] = np.nan
        new = _layer_update(A, R, W)
        assert not np.any(np.isnan(new))
        np.testing.assert_allclose(new, ext_loop_layer_update(A, R, W),
                                   rtol=1e-13, atol=0.0)


def test_singular_diagonal_layers_hold_no_nan():
    # k = 1/sqrt(t - s) is infinite on the diagonal; every later layer is
    # infinite below it and null on it (a one-point range has measure 0)
    tab = iterated_kernels(SINGULAR, Lebesgue(), 1.0, 3,
                           QuadratureGrid.for_interval(DOM, 5))
    assert not np.any(np.isnan(tab.values))
    strict = np.tril(np.ones((33, 33), dtype=bool), -1)
    for n in (2, 3):
        layer = tab.layer(n)
        assert np.all(np.isinf(layer[strict]))
        assert np.all(np.diag(layer) == 0.0)
    assert not np.any(np.isnan(compose_layers(tab, 1, 2)))


def test_column_paths_of_a_singular_kernel_hold_no_nan():
    # the grid cannot resolve the diagonal singularity: every column that
    # passes through the singular kernel is a sound inf, never NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = volterra_residual(SINGULAR, Lebesgue(), 1.0, 0.0,
                                grid=QuadratureGrid.for_interval(DOM, 5))
        comps = sum_decomposition([SINGULAR, constant_kernel(1.0)],
                                  Lebesgue(), 3, 1.0, 0.0, level=5)
        prod = product_bound([(SINGULAR, Lebesgue()),
                              (constant_kernel(1.0), Lebesgue())],
                             1.0, 3, (1.0, 1.0), (0.0, 0.0), level=5)
    assert res == math.inf
    assert len(comps) == 8
    assert all(math.isinf(v) for idx, v in comps.items() if 0 in idx)
    assert comps[(1, 1, 1)] == pytest.approx(0.5, rel=1e-12)  # t**2 / 2
    assert prod.is_infinite


# ---------------------------------------------------------------------------
# factored box tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("level", [3, 4, 5])
@pytest.mark.parametrize("name", sorted(BOX_CASES))
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_factored_box_table_matches_column_loop(level, name, p):
    kernel, measure = BOX_CASES[name]
    grid = QuadratureGrid.for_box(BOX, level)
    new = iterated_kernels(kernel, measure, p, 4, grid,
                           estimate_error=False).values
    ref = loop_box_layers(kernel, measure, p, grid, 4)
    np.testing.assert_array_equal(np.isinf(new), np.isinf(ref))
    np.testing.assert_array_equal(new == 0.0, ref == 0.0)
    np.testing.assert_allclose(new, ref, rtol=1e-13, atol=0.0)


def test_box_table_with_a_singular_factor_holds_no_nan():
    kern = ProductKernel((SINGULAR, constant_kernel(1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tab = iterated_kernels(kern, ProductMeasure((Lebesgue(), Lebesgue())),
                               1.0, 3, QuadratureGrid.for_box(BOX, 3))
    assert not np.any(np.isnan(tab.values))
    layer = tab.layer(2)
    # inf on the singular axis times a positive constant-kernel layer ...
    assert np.all(np.isinf(layer[1:, 1:, 0, 0]))
    # ... and times its null diagonal follows 0 * inf = 0
    assert np.all(layer[1:, 0, 0, 0] == 0.0)


# ---------------------------------------------------------------------------
# Picard certificates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rate,level", [(1.5, 9), (2.0, 9), (2.5, 9),
                                        (4.0, 7)])
@pytest.mark.parametrize("tol,max_iter", [(1e-6, 25), (1e-8, 50)])
def test_certificate_route_matches_table_route(rate, level, tol, max_iter,
                                               monkeypatch):
    # the matrix-vector route is another quadrature of the same layer
    # integrals: the stopping decisions agree and the bounds are close
    prob = volterra_problem(rate=rate, level=level)
    x, cert = picard_solve(prob.spec, prob.x0, tol=tol, max_iter=max_iter)
    monkeypatch.setattr(fixpoint, "_certificate", table_route_certificate)
    x_ref, ref = picard_solve(prob.spec, prob.x0, tol=tol, max_iter=max_iter)
    assert cert.iterates == ref.iterates
    assert cert.converged == ref.converged
    np.testing.assert_array_equal(x, x_ref)
    for n in range(1, 31):
        assert cert.bound(n) == pytest.approx(ref.bound(n), rel=1e-3)


# ---------------------------------------------------------------------------
# integrated series
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("level", [6, 7])
def test_series_route_matches_table_route(p, level):
    # the two routes are different quadratures of the same iterated
    # integrals: they agree to within the table route's own two-level
    # quadrature error
    t, tol = 0.9, 1e-12
    sv = series_function_I(SEP, WEIGHTED, p, t, domain=DOM, tol=tol,
                           level=level)
    ref = table_route_series(SEP, WEIGHTED, p, t, tol, level)
    coarse = table_route_series(SEP, WEIGHTED, p, t, tol, level - 1)
    assert sv.converged and ref.converged
    assert abs(sv.sum - ref.sum) <= abs(ref.sum - coarse.sum)
    assert sv.terms_used == ref.terms_used

    v = lambda s: 1.0 + 0.5 * np.asarray(s, dtype=float)  # noqa: E731
    rb = resolvent_bound(v, SEP, WEIGHTED, p, t, domain=DOM, tol=tol,
                         level=level)
    ref = table_route_series(SEP, WEIGHTED, p, t, tol, level, v=v)
    coarse = table_route_series(SEP, WEIGHTED, p, t, tol, level - 1, v=v)
    assert rb.converged
    assert abs(rb.sum - v(t) - ref.sum) <= abs(ref.sum - coarse.sum)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_series_route_constant_kernel_same_terms(p):
    # the matrix-vector route of a constant kernel given as a callable (a
    # constant_kernel takes the rank-one closed forms instead)
    kern = CallableKernel(lambda t, s: np.full(np.broadcast(t, s).shape, 1.5),
                          monotone_flag=True)
    sv = series_function_I(kern, Lebesgue(), p, 1.0, domain=DOM, tol=1e-10,
                           level=6)
    ref = table_route_series(kern, Lebesgue(), p, 1.0, 1e-10, 6)
    assert sv.terms_used == ref.terms_used
    assert sv.sum == pytest.approx(ref.sum, rel=1e-13)
    assert sv.tail_bound == pytest.approx(ref.tail_bound, rel=1e-12)
    # the closed-form terms of constant_kernel are closer to the exact sum
    # of 1.5**n / (n!)**(1/p), with the same terms and tail
    exact = sum(1.5**n / math.factorial(n) ** (1.0 / p) for n in range(1, 60))
    rank_one = series_function_I(constant_kernel(1.5), Lebesgue(), p, 1.0,
                                 domain=DOM, tol=1e-10, level=6)
    assert rank_one.terms_used == ref.terms_used
    assert rank_one.tail_bound == pytest.approx(ref.tail_bound, rel=1e-12)
    assert abs(rank_one.sum - exact) < abs(ref.sum - exact) / 5


def test_series_route_discrete_measure_is_exact_sum():
    mu = DiscreteMeasure(tuple((i / 8, 0.05 + i / 40) for i in range(8)))
    sv = series_function_I(SEP, mu, 1.0, 0.8, domain=DOM)
    # the table route has no tail on atoms: its 400 terms are the sum to
    # rounding, which the ratio tail of the column route encloses
    ref = table_route_series(SEP, mu, 1.0, 0.8, 1e-10, 8)
    assert sv.converged
    assert sv.sum <= ref.sum * (1 + 1e-13)
    assert ref.sum <= (sv.sum + sv.tail_bound) * (1 + 1e-13)


def test_non_finite_gap_integral_disables_the_majorant():
    kern = CallableKernel(lambda t, s: 1.0 / np.sqrt(np.maximum(t - s, 0.0)),
                          monotone_flag=True)
    sv = series_function_I(kern, Lebesgue(), 1.0, 1.0, domain=DOM, level=5)
    assert math.isinf(sv.sum)
    # zero forcing: every term vanishes, but no tail can be certified
    rb = resolvent_bound(0.0, kern, Lebesgue(), 1.0, 1.0, domain=DOM,
                         level=5, n_cap=20)
    assert rb.sum == 0.0 and not rb.converged and math.isinf(rb.tail_bound)


# ---------------------------------------------------------------------------
# suffix integrals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", list(range(2, 10)) + [65])
def test_suffix_integrals_match_loop(m):
    g = np.random.default_rng(m).uniform(0.1, 2.0, m)
    W = range_weights_matrix(m)
    np.testing.assert_allclose(_suffix_integrals(g, W),
                               loop_suffix_integrals(g, W),
                               rtol=1e-13, atol=0.0)


def test_suffix_integrals_infinite_entry():
    g = np.random.default_rng(0).uniform(0.1, 2.0, 9)
    g[4] = np.inf
    Q = _suffix_integrals(g, range_weights_matrix(9))
    assert np.all(np.isinf(Q[:5]))
    np.testing.assert_allclose(Q[5:], loop_suffix_integrals(
        g, range_weights_matrix(9))[5:], rtol=1e-13, atol=0.0)
    assert Q[-1] == 0.0


# ---------------------------------------------------------------------------
# determinism across BLAS thread counts
# ---------------------------------------------------------------------------


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("args", [
    ["resolvent", "--config", "demos/configs/constant.json",
     "--grid-level", "8"],
    ["solve", "--problem", "volterra"],
    # the fine grid has m = 1025: the triangular product splits 3+ times
    ["resolvent", "--config", "demos/configs/constant.json",
     "--grid-level", "9"],
])
def test_cli_stdout_identical_across_blas_threads(args):
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "volgron", *args],
                              cwd=ROOT, env=env, capture_output=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert len(outs[0]) > 0


def test_interval_grid_weights_sum_to_the_range():
    # the panel width is the range over the number of panels: on [s, t]
    # away from 0, a width from the first two nodes misses t - s by up to
    # 1e-11 relative at level 9
    from fractions import Fraction

    rng = np.random.default_rng(7)
    for _ in range(200):
        s, t = np.sort(rng.uniform(0.0, 1.0, 2)).tolist()
        op = GridOperator.on_interval(None, Lebesgue(), 1.0, s, t, 9)
        total = sum(Fraction(x) for x in op.row_weights.tolist())
        exact = Fraction(t) - Fraction(s)
        assert abs(float((total - exact) / exact)) <= 1e-15
