"""The blocked lower-triangular product behind every interval layer
update, the layer step with its left factor prepared once, its per-thread
scratch, and the status of grid tables that do not resolve their
iterates.  References: the full product ``np.tril(A) @ np.tril(R)``, the
column route through ``_ext_matmul``, the per-layer ``_layer_update`` and
the step on fresh buffers."""

import os
import subprocess
import sys
import threading
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from volgron.domains import Interval1D, ProductBox, QuadratureGrid
from volgron.kernels import (
    CallableKernel,
    MultiplicativeKernel,
    ProductKernel,
    SeparableKernel,
    SumKernel,
    constant_kernel,
)
from volgron.measures import Lebesgue, ProductMeasure, WeightedLebesgue
from volgron.quadrature import range_weights_matrix
from volgron.resolvent import (
    _TRI_LEAF,
    GridOperator,
    _ext_matmul,
    _ext_mul,
    _layer_update,
    _LayerStep,
    _subdiag,
    ResolventTable,
    _tri_matmul,
    compose_layers,
    iterated_kernels,
)

ROOT = Path(__file__).resolve().parents[1]
DOM = Interval1D(0.0, 1.0)
WEIGHTED = WeightedLebesgue(lambda x: 1.0 + 0.5 * np.asarray(x, dtype=float))
SINGULAR = CallableKernel(lambda t, s: 1.0 / np.sqrt(np.maximum(t - s, 0.0)))


def ext_column_update(A, R, W):
    """The layer update column by column through ``_ext_matmul``: column j
    integrates ``A[i, l] R[l, j]`` over l in [j, i] with the weights of a
    range of i - j panels."""
    m = A.shape[0]
    A, R = np.tril(A), np.tril(R)
    out = np.zeros((m, m))
    for j in range(m):
        weighted = _ext_mul(A[j:, j:], W[: m - j, : m - j])
        out[j:, j] = _ext_matmul(weighted, R[j:, j])
    np.fill_diagonal(out, 0.0)
    return out


def _lower_pair(rng, m):
    return (np.tril(rng.uniform(0.1, 2.0, (m, m))),
            np.tril(rng.uniform(0.1, 2.0, (m, m))))


# ---------------------------------------------------------------------------
# the triangular product
# ---------------------------------------------------------------------------


SIZES = list(range(1, 10)) + [_TRI_LEAF - 1, _TRI_LEAF, _TRI_LEAF + 1,
                              129, 257, 513, 1025]


@pytest.mark.parametrize("m", SIZES)
def test_tri_matmul_matches_full_product(m):
    rng = np.random.default_rng(m)
    A, R = _lower_pair(rng, m)
    ref = np.tril(A) @ np.tril(R)
    new = _tri_matmul(A, R)
    np.testing.assert_allclose(new, ref, rtol=1e-13, atol=0.0)
    assert np.all(np.triu(new, 1) == 0.0)


@pytest.mark.parametrize("m", [257, 513, 1025])
def test_tri_matmul_does_a_third_of_the_multiply_adds(m, monkeypatch):
    calls = []
    matmul = np.matmul

    def counting(a, b, *args, **kwargs):
        calls.append(a.shape[0] * a.shape[1] * b.shape[1])
        return matmul(a, b, *args, **kwargs)

    rng = np.random.default_rng(m)
    A, R = _lower_pair(rng, m)
    monkeypatch.setattr(np, "matmul", counting)
    _tri_matmul(A, R)
    monkeypatch.undo()
    # a third of m**3, plus the full products of the diagonal leaves
    assert sum(calls) <= m**3 / 3 + m * _TRI_LEAF**2
    assert sum(calls) < 0.4 * m**3


# ---------------------------------------------------------------------------
# the layer update
# ---------------------------------------------------------------------------


def _with_garbage_above(rng, M):
    """M with random values, inf and NaN above the diagonal."""
    m = M.shape[0]
    above = np.triu(rng.uniform(1.0, 9.0, (m, m)), 1)
    pick = rng.random((m, m))
    above[np.triu(pick < 0.2, 1)] = np.inf
    above[np.triu(pick > 0.9, 1)] = np.nan
    return np.where(np.tri(m, dtype=bool), M, above)


@pytest.mark.parametrize("m", [7, 12, _TRI_LEAF + 5, 200])
@pytest.mark.parametrize("where", ["A", "R", "both"])
def test_layer_update_non_finite_matches_ext_matmul_route(m, where):
    rng = np.random.default_rng(7 * m + len(where))
    W = range_weights_matrix(m)
    A, R = _lower_pair(rng, m)
    for name, M in (("A", A), ("R", R)):
        if where in (name, "both"):
            pick = rng.random((m, m))
            M[pick < 0.1] = 0.0
            M[(pick >= 0.1) & (pick < 0.13)] = np.inf
            M[(pick >= 0.13) & (pick < 0.15)] = np.nan
    ref = ext_column_update(A, R, W)
    new = _layer_update(_with_garbage_above(rng, A),
                        _with_garbage_above(rng, R), W)
    assert not np.any(np.isnan(new))
    np.testing.assert_array_equal(np.isinf(new), np.isinf(ref))
    np.testing.assert_array_equal(new == 0.0, ref == 0.0)
    np.testing.assert_allclose(new, ref, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("m", [5, 40, 257])
def test_garbage_above_the_diagonal_never_leaks(m):
    rng = np.random.default_rng(m)
    W = range_weights_matrix(m)
    A, R = _lower_pair(rng, m)
    clean = _layer_update(A, R, W)
    dirty = _layer_update(_with_garbage_above(rng, A),
                          _with_garbage_above(rng, R), W)
    np.testing.assert_array_equal(dirty, clean)
    assert np.all(np.triu(clean, 1) == 0.0)
    assert np.all(np.isfinite(clean))


@pytest.mark.parametrize("measure", [Lebesgue(), WEIGHTED],
                         ids=["lebesgue", "weighted"])
@pytest.mark.parametrize("kernel", [constant_kernel(1.5), SINGULAR],
                         ids=["constant", "singular"])
def test_prepared_left_factor_matches_per_layer_update(kernel, measure):
    # GridOperator.layers and compose prepare the left factor once; the
    # per-layer update weights and folds it again every time
    nodes = np.linspace(0.0, 1.0, 129)
    op = GridOperator.on_nodes(kernel, measure, 1.0, nodes)
    A = _ext_mul(op.kp, op.weights[None, :])
    layers = op.layers(4)
    R = op.kp
    for n in range(1, 4):
        R = _layer_update(A, R, op.W)
        np.testing.assert_array_equal(layers[n], R)
    step = _LayerStep(op.kp, op.W, op.weights)
    np.testing.assert_array_equal(step(layers[1]), layers[2])
    np.testing.assert_array_equal(op.compose(layers[0], layers[1]), layers[2])


# ---------------------------------------------------------------------------
# the step's per-thread scratch
# ---------------------------------------------------------------------------


def fresh_buffer_step(step, R):
    """``step(R)`` with R copied into fresh arrays: the step before its
    per-thread scratch."""
    m, W = R.shape[0], step.W
    R = np.where(np.tri(m, dtype=bool), R, 0.0)
    fin = np.isfinite(R)
    r_finite = bool(fin.all())
    hits = None
    if step.inf is not None or not r_finite:
        hits = step._hits(R, r_finite)
        R[~fin] = 0.0
    r_sub = [_subdiag(R, d).copy() for d in range(step.short)]
    step._fold(R)
    out = _tri_matmul(step.A, R)
    for N in range(1, step.short):
        k = m - N
        _subdiag(out, N)[:] = sum(W[N, d] * step.sub[N - d][d:d + k]
                                  * r_sub[d][:k] for d in range(N + 1))
    if hits is not None:
        out[hits] = np.inf
    np.fill_diagonal(out, 0.0)
    return out


def _step_inputs(kind, m, seed):
    """A and R of size m: finite, holding +inf, or with garbage above the
    diagonal."""
    rng = np.random.default_rng(seed)
    A, R = _lower_pair(rng, m)
    if kind == "inf":
        for M in (A, R):
            pick = rng.random((m, m))
            M[pick < 0.1] = 0.0
            M[np.tri(m, dtype=bool) & (pick > 0.97)] = np.inf
    elif kind == "garbage":
        A, R = _with_garbage_above(rng, A), _with_garbage_above(rng, R)
    return A, R


STEP_CASES = [(kind, m) for kind in ("finite", "inf", "garbage")
              for m in (5, 40, _TRI_LEAF + 5, 257)]


@pytest.mark.parametrize("kind, m", STEP_CASES)
def test_layer_step_matches_fresh_buffer_step(kind, m):
    A, R = _step_inputs(kind, m, m + len(kind))
    W, w = range_weights_matrix(m), np.linspace(0.5, 1.5, m)
    step = _LayerStep(A, W, w)
    ref = fresh_buffer_step(_LayerStep(A, W, w), R)
    np.testing.assert_array_equal(step(R), ref)
    out = np.zeros((m, m))
    assert step(R, out) is out
    np.testing.assert_array_equal(out, ref)


@pytest.mark.parametrize("kind, m", STEP_CASES)
def test_layers_and_compose_match_fresh_buffer_steps(kind, m):
    A, R = _step_inputs(kind, m, 3 * m + len(kind))
    nodes = np.linspace(0.0, 1.0, m)
    # the kernel A[i, l] at (t_i, t_l), looked up pair by pair: grid
    # operators evaluate kernels at the ordered pairs only
    at = partial(np.searchsorted, nodes)
    op = GridOperator.on_nodes(CallableKernel(lambda T, S: A[at(T), at(S)]),
                               WEIGHTED, 1.0, nodes)
    ref = [op.kp]
    for _ in range(3):
        ref.append(fresh_buffer_step(_LayerStep(op.kp, op.W, op.weights),
                                     ref[-1]))
    np.testing.assert_array_equal(op.layers(4), np.stack(ref))
    np.testing.assert_array_equal(
        op.compose(A, R),
        fresh_buffer_step(_LayerStep(A, op.W, op.weights), R))


def _level9_table(seed):
    grid = QuadratureGrid.for_interval(DOM, 9)
    values = np.stack(_lower_pair(np.random.default_rng(seed), 513))
    return ResolventTable(grid=grid, n_max=2, p=1.0, values=values,
                          err_est=0.0, measure=Lebesgue())


def test_results_do_not_alias_the_scratch():
    first, second = _level9_table(1), _level9_table(2)
    got = compose_layers(first, 1, 2)
    kept = got.copy()
    other = compose_layers(second, 1, 2)
    np.testing.assert_array_equal(got, kept)
    assert not np.shares_memory(got, other)
    np.testing.assert_array_equal(compose_layers(first, 1, 2), kept)
    step = _LayerStep(first.layer(1), range_weights_matrix(513))
    one = step(first.layer(2))
    copy = one.copy()
    step(second.layer(2))
    np.testing.assert_array_equal(one, copy)


def test_threads_compose_with_their_own_scratch():
    # more threads than cores, switching often: each thread's results must
    # be those of its own input
    tables = [_level9_table(seed) for seed in range(4)]
    refs = [compose_layers(t, 1, 2) for t in tables]
    failures, done = [], []
    barrier = threading.Barrier(len(tables))

    def work(i):
        barrier.wait(timeout=60)
        for _ in range(5):
            if not np.array_equal(compose_layers(tables[i], 1, 2), refs[i]):
                failures.append(i)
        done.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(tables))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == list(range(len(tables)))
    assert failures == []


def test_layer_update_imports_no_scipy_linalg():
    code = ("import sys\n"
            "from volgron import constant_kernel, iterated_kernels\n"
            "from volgron.domains import Interval1D, QuadratureGrid\n"
            "from volgron.measures import Lebesgue\n"
            "grid = QuadratureGrid.for_interval(Interval1D(0.0, 1.0), 8)\n"
            "tab = iterated_kernels(constant_kernel(1.5), Lebesgue(), 1.0, 3,"
            " grid)\n"
            "assert tab.status == 'certified'\n"
            "print('scipy.linalg' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# status of unresolved tables
# ---------------------------------------------------------------------------


def test_singular_interval_table_is_unknown_accuracy():
    # R_2 of 1/sqrt(t - s) is pi, but the grid layers hold inf below the
    # diagonal where the kernel power is finite
    tab = iterated_kernels(SINGULAR, Lebesgue(), 1.0, 3,
                           QuadratureGrid.for_interval(DOM, 5))
    assert np.isinf(tab.values).sum() == 1089
    assert tab.status == "unknown-accuracy"


def test_singular_box_table_is_unknown_accuracy():
    kernel = ProductKernel((SINGULAR, constant_kernel(1.0)))
    measure = ProductMeasure((Lebesgue(), Lebesgue()))
    tab = iterated_kernels(kernel, measure, 1.0, 3,
                           QuadratureGrid.for_box(ProductBox((DOM, DOM)), 3))
    assert np.isinf(tab.values).sum() == 2997
    assert tab.status == "unknown-accuracy"


def test_level_one_box_table_is_unknown_accuracy():
    # level 1 has no coarser level to compare with, and it is far off
    kernel = ProductKernel((CallableKernel(
        lambda T, S: np.cos(3 * T) + np.sin(5 * S) + 2), constant_kernel(1.0)))
    measure = ProductMeasure((Lebesgue(), Lebesgue()))
    box = ProductBox((DOM, DOM))
    coarse, fine = (iterated_kernels(kernel, measure, 1.0, 3,
                                     QuadratureGrid.for_box(box, level))
                    for level in (1, 4))
    assert coarse.status == "unknown-accuracy"
    assert fine.status == "certified"
    assert abs(coarse.values[2][-1, -1, 0, 0]
               - fine.values[2][-1, -1, 0, 0]) > 0.02


SEP = SeparableKernel(k0=lambda t: 1.0 + 0.4 * np.asarray(t, dtype=float),
                      k1=lambda s: 0.9 + 0.27 * np.asarray(s, dtype=float))
SMOOTH = {
    "constant": constant_kernel(1.3),
    "separable": SEP,
    "sum": SumKernel((constant_kernel(0.6), constant_kernel(0.7))),
    "multiplicative": MultiplicativeKernel(
        nu_cumulative=lambda t: 0.8 * np.asarray(t, dtype=float)),
    "callable": CallableKernel(
        fn=lambda T, S: (1.0 + 0.4 * T) * (0.9 * (1.0 + 0.3 * S)),
        monotone_flag=True),
}


@pytest.mark.parametrize("measure", [Lebesgue(), WEIGHTED],
                         ids=["lebesgue", "weighted"])
@pytest.mark.parametrize("name", sorted(SMOOTH))
def test_smooth_tables_stay_certified(name, measure):
    tab = iterated_kernels(SMOOTH[name], measure, 1.0, 3,
                           QuadratureGrid.for_interval(DOM, 8))
    assert tab.status == "certified"
    assert 0.0 < tab.err_est < 1e-6


def test_smooth_box_table_stays_certified():
    kernel = ProductKernel((constant_kernel(1.5), SEP), tail_factor=0.7)
    measure = ProductMeasure((Lebesgue(), WEIGHTED))
    tab = iterated_kernels(kernel, measure, 1.0, 3,
                           QuadratureGrid.for_box(ProductBox((DOM, DOM)), 3))
    assert tab.status == "certified"
