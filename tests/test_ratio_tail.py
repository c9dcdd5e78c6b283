"""One summation loop for every resolvent series (``resolvent._root_sum``)
and the positivity (ratio) tail that replaces the "terms stall" branch:
the two replaced resolvent loops are kept here as the reference for every
series they certified, and the ratio tail is checked against direct
solves of I - B on atoms and on a grid."""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volgron.domains import Interval1D, QuadratureGrid, VoidSet
from volgron.fixpoint import uniqueness_certificate
from volgron.gronwall import GronwallInput, gronwall_sequence_bound
from volgron.kernels import (
    CallableKernel,
    FractionalKernel,
    VoidKernel,
    constant_kernel,
)
from volgron.measures import DiscreteMeasure, Lebesgue, WeightedLebesgue
from volgron.resolvent import (
    FractionalResolventParams,
    GridOperator,
    _factorial_log,
    _FractionalProfile,
    _plan,
    _ratio_tail,
    _root_sum,
    fractional_f,
    resolvent_series,
    series_function_I,
    volterra_residual,
)
from volgron.specfun import _LOG_MAX, SeriesValue, _log_series, _tail_sum

DOM = Interval1D(0.0, 1.0)
WEIGHTED = WeightedLebesgue(lambda x: 1.0 + 0.5 * np.asarray(x, dtype=float))


def encloses(sv, exact) -> bool:
    lo = Decimal(sv.sum)
    return lo <= Decimal(exact) <= lo + Decimal(sv.tail_bound)


# ---------------------------------------------------------------------------
# the replaced loops
# ---------------------------------------------------------------------------


def loop_grid_resolvent(kernel, measure, p, t, s, tol=1e-10, level=8,
                        n_cap=400):
    """The replaced ``_GridPlan.resolvent``: its own term loop, the
    factorial tail, and the "terms stall" branch without one."""
    plan = _plan(kernel, measure, p)
    kp_at = plan._kp(t, s)
    if plan.null(s, t):
        return SeriesValue(kp_at, 0.0, 1, True)
    op = plan.op(s, t, level)
    rho = op.kernel_column(s)
    q = float(op.column(np.ones(op.nodes.size))[-1])
    majorant_ok = plan._factorial and math.isfinite(q)
    log_fact = _factorial_log(q, 1.0)
    total = 0.0
    for n in range(1, n_cap + 1):
        term = float(rho[-1])
        if not math.isfinite(term):
            if math.isinf(kp_at):
                return SeriesValue(math.inf, 0.0, n, True)
            return SeriesValue(total, math.inf, n - 1, False)
        total += term
        if majorant_ok:
            tail = kp_at * _tail_sum(log_fact, n)
            if tail < tol:
                return SeriesValue(total, tail, n, True)
        elif term < tol * 1e-3 and n > 3:
            return SeriesValue(total, math.inf, n, False)
        rho = op.column(rho)
    return SeriesValue(total, math.inf, n_cap, False)


def loop_fractional_resolvent(kernel, p, t, s, tol=1e-10, n_cap=400):
    """The replaced ``_FractionalPlan.resolvent``: its own term loop and the
    majorant tail, skipped below ``above``."""
    params = FractionalResolventParams(kernel.alpha, kernel.beta, p)
    x, y = t - s, s - kernel.t0
    prof = (_FractionalProfile(params, x / y)
            if params.beta_p > 0 and y > 0 else None)
    log_maj = lambda k: params.log_layer_bound(  # noqa: E731
        k, x, y, params.ln_c_hat_max)
    total, above = 0.0, 0
    for n in range(1, n_cap + 1):
        term = (float(prof.f(n, x, y)) if prof is not None
                else fractional_f(params, n, x, y))
        if math.isinf(term):
            return SeriesValue(math.inf, 0.0, n, True)
        total += term
        if n < above:
            continue
        sv = _log_series(log_maj, n + 1, math.inf, 100_000)
        tail = sv.sum + sv.tail_bound
        if tail < tol:
            return SeriesValue(total, tail, n, True)
        last = n + sv.terms_used
        if log_maj(last) > _LOG_MAX or math.exp(log_maj(last)) >= tol:
            above = last
    return SeriesValue(total, math.inf, n_cap, False)


def _const(T, S):
    return np.full(np.broadcast(T, S).shape, 1.5)


def _sep(T, S):
    return (1.0 + np.asarray(T, dtype=float)) * (2.0 - np.asarray(S,
                                                                  dtype=float))


def _poly(T, S):
    return 1.5 + 0.5 * np.asarray(T, dtype=float) * np.asarray(S, dtype=float)


# callables take the grid recursion (constant_kernel and SeparableKernel
# take the rank-one closed forms)
MONOTONE = {name: CallableKernel(fn, monotone_flag=True)
            for name, fn in (("constant", _const), ("separable", _sep),
                             ("callable", _poly))}


@pytest.mark.parametrize("name", sorted(MONOTONE))
@pytest.mark.parametrize("measure", [Lebesgue(), WEIGHTED],
                         ids=["lebesgue", "weighted"])
@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("t, s, level", [(0.9, 0.2, 5), (1.0, 0.0, 7),
                                         (0.5, 0.5, 6)])
def test_grid_resolvent_matches_the_replaced_loop(name, measure, p, t, s,
                                                  level):
    kern = MONOTONE[name]
    ref = loop_grid_resolvent(kern, measure, p, t, s, level=level)
    assert ref.converged
    assert resolvent_series(kern, measure, p, t, s, level=level) == ref


@pytest.mark.parametrize("alpha, beta, p, t, s, tol", [
    (0.75, 0.0, 1.0, 1.0, 0.5, 1e-10),
    (0.6, 0.0, 1.0, 1.0, 0.1, 1e-10),
    (1.5, 0.0, 2.0, 0.9, 0.2, 1e-12),
    (0.75, 0.1, 1.0, 1.0, 0.5, 1e-10),  # the benchmark case
    (0.9, 0.3, 2.0, 0.9, 0.2, 1e-12),
    (1.5, 0.4, 1.0, 2.0, 0.5, 1e-3),
    (0.75, 0.2, 1.0, 1.0, 0.0, 1e-10),  # on the pole: a certified inf
])
def test_fractional_resolvent_matches_the_replaced_loop(alpha, beta, p, t,
                                                        s, tol):
    kern = FractionalKernel(alpha, beta)
    ref = loop_fractional_resolvent(kern, p, t, s, tol)
    assert ref.converged
    assert resolvent_series(kern, Lebesgue(), p, t, s, tol=tol) == ref


def loop_residual_column(op, s, scale, n_cap=200):
    """The replaced residual recursion: the resolvent column, stopped at
    the first column below 1e-16 * scale (None at an infinite entry)."""
    cur = op.kernel_column(s)
    rho = np.zeros_like(cur)
    for _ in range(n_cap):
        rho = rho + cur
        if math.isinf(rho[-1]):
            return None
        if float(np.max(np.abs(cur))) < 1e-16 * scale:
            break
        cur = op.column(cur)
    return rho


@pytest.mark.parametrize("name", sorted(MONOTONE))
@pytest.mark.parametrize("measure", [Lebesgue(), WEIGHTED],
                         ids=["lebesgue", "weighted"])
def test_column_recursions_match_the_replaced_loops(name, measure):
    # certificate layers, iterates and the residual read one generator
    kern, p = MONOTONE[name], 2.0
    plan = _plan(kern, measure, p)
    ts = np.linspace(0.0, 1.0, 65)
    w0 = 0.5 + ts**2
    op = GridOperator.on_nodes(kern, measure, p, ts)
    g, ref = op.column(w0**p), []
    for _ in range(12):
        ref.append(np.maximum(g, 0.0) ** (1.0 / p))
        g = op.column(g)
    np.testing.assert_array_equal(plan._certificate(ts, w0, 12, DOM)[0],
                                  np.array(ref))
    op = plan.op(0.2, 0.9, 6, finer=False)
    rho = op.kernel_column(0.2)
    for n in range(1, 6):
        assert plan.iterate(n, 0.9, 0.2, 6) == float(rho[-1])
        rho = op.column(rho)
    plan1 = _plan(kern, measure, 1.0)
    fine, coarse = plan1.op(0.2, 0.9, 6), plan1.op(0.2, 0.9, 6, finer=False)
    k_ts = plan1._kp(0.9, 0.2)
    rho = loop_residual_column(fine, 0.2, max(1.0, k_ts))[::2]
    want = abs(float(rho[-1]) - (k_ts + float(coarse.column(rho)[-1])))
    assert volterra_residual(kern, measure, 0.9, 0.2,
                             QuadratureGrid.for_interval(DOM, 6)) == want


# ---------------------------------------------------------------------------
# the ratio tail
# ---------------------------------------------------------------------------


ATOMS41 = DiscreteMeasure(tuple((i / 40, 0.05) for i in range(41)))


def test_atoms_enclose_the_exact_solves_with_zero_slack():
    # (I - B)**-1 rho = 36.66740848637888 and (I - B)**-1 B 1 =
    # 23.444938990919265 for B = 1.5 * 0.05 on the lower triangle
    kern = constant_kernel(1.5)
    sv = resolvent_series(kern, ATOMS41, 1.0, 1.0, 0.0)
    assert sv.converged and sv.terms_used == 25
    assert encloses(sv, 36.66740848637888)
    sv = series_function_I(kern, ATOMS41, 1.0, 1.0, domain=DOM)
    assert sv.converged and sv.terms_used == 24
    assert encloses(sv, 23.444938990919265)
    sv = series_function_I(kern, ATOMS41, 2.0, 1.0, domain=DOM)
    assert sv.converged and sv.tail_bound < 1e-10


def test_non_monotone_grid_kernel_encloses_its_operator_solve():
    kern = CallableKernel(lambda T, S: 1.0 + np.sin(3 * T) ** 2 + 0.0 * S)
    op = GridOperator.on_interval(kern, Lebesgue(), 1.0, 0.0, 1.0, 8)
    solve = np.eye(op.nodes.size) - op.B
    res = resolvent_series(kern, Lebesgue(), 1.0, 1.0, 0.0, level=7)
    assert res.converged and res.terms_used == 16
    assert encloses(res, np.linalg.solve(solve, op.kernel_column(0.0))[-1])
    ser = series_function_I(kern, Lebesgue(), 1.0, 1.0, domain=DOM, level=7)
    assert ser.converged and ser.terms_used == 15
    mass = op.column(np.ones(op.nodes.size))
    assert encloses(ser, np.linalg.solve(solve, mass)[-1])


@st.composite
def atom_problems(draw):
    m = draw(st.integers(1, 12))
    gaps = draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m))
    pts = np.cumsum(gaps)
    a, b, c, d = (draw(st.floats(lo, hi)) for lo, hi in
                  ((-0.5, 1.5), (0.0, 2.0), (-4.0, 4.0), (-4.0, 4.0)))

    def fn(T, S):  # nonnegative, not monotone, zero where a + b sin < 0
        T, S = np.asarray(T, dtype=float), np.asarray(S, dtype=float)
        return np.maximum(a + b * np.sin(c * T + d * S), 0.0)

    diag = fn(pts, pts)
    # every diagonal k(t, t) m(t) at most 0.6
    masses = [min(draw(st.floats(0.01, 1.0)), 0.6 / max(x, 0.6))
              for x in diag]
    j, i = sorted(draw(st.lists(st.integers(0, m - 1), min_size=2,
                                max_size=2)))
    return CallableKernel(fn), pts, np.array(masses), i, j


@settings(max_examples=60, deadline=None)
@given(atom_problems())
def test_ratio_tail_encloses_the_atom_solve(problem):
    kern, pts, masses, i, j = problem
    mu = DiscreteMeasure(tuple(zip(pts.tolist(), masses.tolist())))
    t, s = float(pts[i]), float(pts[j])
    # B[k, l] = k(t_k, t_l) m_l on the lower triangle of the atoms in [s, t]
    x, w = pts[j:i + 1], masses[j:i + 1]
    B = np.tril(kern.eval_grid(x[:, None], x[None, :])) * w[None, :]
    exact = np.linalg.solve(np.eye(x.size) - B,
                            kern.eval_grid(x, np.full(x.size, s)))[-1]
    sv = resolvent_series(kern, mu, 1.0, t, s)
    assert sv.converged
    assert sv.sum <= exact * (1 + 1e-13)
    assert exact <= (sv.sum + sv.tail_bound) * (1 + 1e-13)

    x, w = pts[:i + 1], masses[:i + 1]
    B = np.tril(kern.eval_grid(x[:, None], x[None, :])) * w[None, :]
    exact = np.linalg.solve(np.eye(x.size) - B, B @ np.ones(x.size))[-1]
    sv = series_function_I(kern, mu, 1.0, t,
                           domain=Interval1D(0.0, float(pts[-1])))
    assert sv.converged
    assert sv.sum <= exact * (1 + 1e-13)
    assert exact <= (sv.sum + sv.tail_bound) * (1 + 1e-13)


def test_sign_changing_kernel_gets_no_ratio_tail():
    # B = [[0.1, 0, 0], [0, 0.1, 0], [-0.4, -0.4, 0.95]]: g_1 = B 1 and
    # g_2 = B g_1 are nonnegative with ratio 5/12, but B is not, and the
    # later columns shrink by 0.95.  A ratio tail would claim
    # [0.15, 0.257] for the exact 11/9 at tol 0.5.
    kern = CallableKernel(lambda T, S: np.where(
        T > 0.75, np.where(S > 0.75, 0.95, -0.4), np.where(T == S, 0.1, 0.0)))
    mu = DiscreteMeasure(((0.0, 1.0), (0.5, 1.0), (1.0, 1.0)))
    assert not GridOperator.on_atoms(kern, mu, 1.0)._b_certifiable
    sv = series_function_I(kern, mu, 1.0, 1.0, tol=0.5, domain=DOM)
    assert not sv.converged and sv.tail_bound == math.inf
    assert sv.sum == pytest.approx(11 / 9, rel=1e-8)


def test_ratio_tail_reads_its_column_pairs_in_turn():
    cols = (np.array([1.0, 2.0]) * 0.5**n for n in range(10))
    terms, tail = _ratio_tail(cols, 1.0, True)
    assert next(terms) == 2.0 and tail(1) == pytest.approx(2.0)
    with pytest.raises(RuntimeError, match="in turn"):
        tail(3)


# ---------------------------------------------------------------------------
# no divergence claimed from a term
# ---------------------------------------------------------------------------


def test_infinite_grid_term_is_no_certified_divergence():
    # sum of Gamma(1/2)**n / Gamma(n/2 + 1) is finite; the level-6 grid
    # puts inf on the diagonal
    kern = CallableKernel(lambda t, s: 1.0 / np.sqrt(np.maximum(t - s, 0.0)))
    sv = series_function_I(kern, Lebesgue(), 1.0, 1.0, domain=DOM, level=6)
    assert sv == SeriesValue(math.inf, math.inf, 1, False)


def test_root_sum_counts_the_terms_it_consumed():
    sv = _root_sum(iter([1.0, 2.0, 3.0]), 1.0, None, 1e-10, 400)
    assert sv == SeriesValue(6.0, math.inf, 3, False)
    assert _root_sum(iter([1.0, math.inf]), 1.0, None, 1e-10, 400) == \
        SeriesValue(math.inf, math.inf, 2, False)
    assert _root_sum(iter([]), 1.0, None, 1e-10, 400) == \
        SeriesValue(0.0, math.inf, 0, False)


def test_uniqueness_needs_a_finite_tail():
    # g_n = 2**n: the sum is 5.16e120 after 400 terms, the tail inf
    mu = DiscreteMeasure(((0.0, 1.0),))
    assert uniqueness_certificate(constant_kernel(2.0), mu, 1.0, [1.0],
                                  domain=DOM) == "unknown"
    # the beta > 0 fractional envelope has tail 0
    assert uniqueness_certificate(FractionalKernel(0.9, 0.1), Lebesgue(), 1.0,
                                  [0.5, 1.0], domain=DOM) == "unique"


# ---------------------------------------------------------------------------
# void sequence bounds past the float range
# ---------------------------------------------------------------------------


def test_void_sequence_bound_overflows_to_inf():
    mu = DiscreteMeasure(tuple((i / 8, 1.0) for i in range(8)))
    inp = GronwallInput(v0=1.0, k=VoidKernel(lambda s: 40.0 + 0 * s),
                        measure=mu, p=1.0, domain=VoidSet())
    assert gronwall_sequence_bound(inp, 1.0, 500, 0.5) == (math.inf,) * 3
    # a zero u0 integral keeps w_n at 0, not 0 * inf
    sharp, sup_form, w_n = gronwall_sequence_bound(inp, 0.0, 500, 0.5)
    assert w_n == 0.0 and sharp == sup_form == math.inf
    # q = 320 and the u0 integral 320: the n = 50 value as before
    assert gronwall_sequence_bound(inp, 1.0, 50, 0.5)[2] == 320.0**49 * 320.0
