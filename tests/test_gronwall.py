import math

import numpy as np
import pytest
from scipy.integrate import quad

from volgron.domains import Interval1D, VoidSet
from volgron.gronwall import (
    GronwallInput,
    check_vanishing,
    fractional_box_sup_bound,
    gronwall_bound,
    gronwall_curve,
    gronwall_sequence_bound,
    induction_check,
    resolvent_bound,
)
from volgron.kernels import (
    CallableKernel,
    FractionalKernel,
    SeparableKernel,
    VoidKernel,
    constant_kernel,
)
from volgron.measures import DiscreteMeasure, Lebesgue, WeightedLebesgue

DOM = Interval1D(0.0, 1.0)


def const_void(c):
    return VoidKernel(k1=lambda s: np.full_like(np.asarray(s, float), c))


VOID_MU = DiscreteMeasure(tuple((i / 10, 0.1) for i in range(10)))


# ---------------------------------------------------------------------------
# vanishing criteria
# ---------------------------------------------------------------------------


def test_vanishing_bounded_u0_regular_kernel():
    rep = check_vanishing(constant_kernel(2.0), Lebesgue(), 1.0,
                          u0=1.0, t=1.0, domain=DOM)
    assert rep.vanishes


def test_vanishing_void_mass_below_one():
    rep = check_vanishing(const_void(0.5), VOID_MU, 1.0, 1.0, 0.5, VoidSet())
    assert rep.vanishes
    rep = check_vanishing(const_void(1.2), VOID_MU, 1.0, 1.0, 0.5, VoidSet())
    assert not rep.vanishes  # geometric series does not vanish


def test_vanishing_fractional_with_integrable_u0():
    k = FractionalKernel(alpha=0.75, beta=0.0)
    rep = check_vanishing(k, Lebesgue(), 1.0, lambda s: 1.0 + np.asarray(s),
                          t=1.0, domain=DOM)
    assert rep.vanishes


def test_vanishing_never_false_positive_on_unrecognised():
    k = CallableKernel(fn=lambda T, S: 1.0 + T * S)  # not declared monotone
    rep = check_vanishing(k, Lebesgue(), 1.0, 1.0, 1.0, DOM)
    assert not rep.vanishes


# ---------------------------------------------------------------------------
# resolvent bound
# ---------------------------------------------------------------------------


def test_resolvent_bound_zero_forcing():
    sv = resolvent_bound(0.0, constant_kernel(1.0), Lebesgue(), 1.0, 1.0,
                         domain=DOM)
    assert sv.sum == pytest.approx(0.0, abs=1e-14)


def test_resolvent_bound_constant_kernel_exponential():
    # closed-form oracle: 1 + integral of c e^{c(t-s)} ds = e^{c t}
    c, t = 1.0, 1.0
    sv = resolvent_bound(1.0, constant_kernel(c), Lebesgue(), 1.0, t,
                         domain=DOM, tol=1e-11)
    assert sv.converged
    assert sv.sum == pytest.approx(math.exp(c * t), rel=1e-8)


def test_resolvent_bound_void_geometric():
    sv = resolvent_bound(1.0, const_void(0.5), VOID_MU, 1.0, 0.5)
    # 1 + (integral of k v) / (1 - q) with q = 0.5
    q = 0.5
    assert sv.sum == pytest.approx(1.0 + q / (1.0 - q), rel=1e-12)
    # p = 2 collapses through the p-th roots
    sv2 = resolvent_bound(1.0, const_void(0.5), VOID_MU, 2.0, 0.5)
    q2 = 0.25
    r = q2**0.5
    assert sv2.sum == pytest.approx(1.0 + r / (1.0 - r), rel=1e-12)


def test_resolvent_bound_fractional_beta_zero():
    # compare against the summed closed-form layers integrated against v
    k = FractionalKernel(alpha=0.75, beta=0.0)
    sv = resolvent_bound(1.0, k, Lebesgue(), 1.0, 1.0, domain=DOM, tol=1e-10)
    assert sv.converged
    ap = 0.75
    oracle = 1.0
    for n in range(1, 60):
        cn = math.gamma(ap) ** n / math.gamma(ap * n)
        oracle += cn * quad(lambda s: (1.0 - s) ** (ap * n - 1.0), 0, 1,
                            points=[1.0])[0]
    assert sv.sum == pytest.approx(oracle, rel=1e-8)


# ---------------------------------------------------------------------------
# sequence bounds
# ---------------------------------------------------------------------------


def test_sequence_bound_first_iterate_has_empty_sums():
    inp = GronwallInput(v0=1.0, k=constant_kernel(1.0), measure=Lebesgue(),
                        p=1.0, domain=DOM)
    sharp, sup_form, w1 = gronwall_sequence_bound(inp, u0=1.0, n=1, t=1.0)
    # sum over i <= n-2 is empty: sharp = v + w_1
    assert sharp == pytest.approx(1.0 + w1, rel=1e-12)
    assert w1 == pytest.approx(1.0, rel=1e-9)  # integral of 1 over [0,1]


def test_sequence_bound_fredholm_matches_direct_iteration():
    # oracle: iterate u_n = v + integral k1 u_{n-1} on the atoms directly
    q = 0.4
    kern = const_void(q)  # k1 = 0.4, total mass 1 => q = 0.4
    pts = VOID_MU.points
    v_vals = 1.0 + 0.5 * pts  # v0, no l
    inp = GronwallInput(v0=lambda s: 1.0 + 0.5 * np.asarray(s), k=kern,
                        measure=VOID_MU, p=1.0, domain=VoidSet())
    u = np.zeros_like(pts)  # u_0 = 0
    masses = VOID_MU.masses
    for n in range(1, 6):
        u = v_vals + np.dot(masses, q * u)
        t_idx = 3
        sharp, sup_form, w_n = gronwall_sequence_bound(
            inp, u0=0.0, n=n, t=float(pts[t_idx]))
        assert u[t_idx] == pytest.approx(sharp, rel=1e-12), n
        assert sharp <= sup_form + 1e-12


def test_sequence_w_n_tends_to_zero():
    inp = GronwallInput(v0=1.0, k=constant_kernel(1.5), measure=Lebesgue(),
                        p=1.0, domain=DOM)
    ws = [gronwall_sequence_bound(inp, u0=1.0, n=n, t=1.0)[2]
          for n in (1, 3, 5, 8, 12)]
    assert all(b < a for a, b in zip(ws, ws[1:]))
    assert ws[-1] < 1e-6


def test_sequence_bound_orders_sharp_below_sup():
    inp = GronwallInput(v0=lambda s: 1.0 + np.asarray(s) ** 2,
                        k=constant_kernel(0.8), measure=Lebesgue(), p=2.0,
                        domain=DOM,
                        l=CallableKernel(fn=lambda T, S: 0.5 + 0.0 * S,
                                         monotone_flag=True))
    for n in (1, 2, 4):
        sharp, sup_form, _ = gronwall_sequence_bound(inp, u0=0.5, n=n, t=1.0)
        assert sharp <= sup_form + 1e-10


def test_sequence_bound_overflows_to_inf():
    # the sup-form head sums exp((i ln q - ln i!) / p), past 709 from about
    # i = 460 for q = 800: inf, like the closed bound, not OverflowError
    inp = GronwallInput(v0=1.0, k=constant_kernel(800.0), measure=Lebesgue(),
                        p=1.0, domain=Interval1D(0, 1))
    assert gronwall_bound(inp, 1.0) == (math.inf,) * 3
    assert gronwall_sequence_bound(inp, 1.0, 500, 1.0) == (math.inf,) * 3


# ---------------------------------------------------------------------------
# closed bounds
# ---------------------------------------------------------------------------


def test_gronwall_bound_classical_exponential_form():
    # classical one-variable bound: sup form equals v0 e^{integral of k1}
    inp = GronwallInput(v0=2.0, k=constant_kernel(1.0), measure=Lebesgue(),
                        p=1.0, domain=DOM)
    for t in (0.25, 0.5, 1.0):
        sharp, sup_form, tail = gronwall_bound(inp, t)
        assert sup_form == pytest.approx(2.0 * math.exp(t), rel=1e-9)
        assert sharp == pytest.approx(2.0 * math.exp(t), rel=1e-7)
        assert sharp <= sup_form + tail + 1e-9


def test_gronwall_bound_sharp_is_resolvent_weighted_integral():
    # sharp form oracle: v(t) + integral of k e^{Q(s)} v(s) ds with
    # Q(s) the gap integral, via adaptive quadrature
    k1 = lambda s: 0.5 + s  # noqa: E731
    kern = CallableKernel(
        fn=lambda T, S: 0.5 + S, monotone_flag=True)
    inp = GronwallInput(v0=lambda s: 1.0 + np.asarray(s), k=kern,
                        measure=Lebesgue(), p=1.0, domain=DOM)
    t = 1.0
    Q = lambda s: quad(k1, s, t)[0]  # noqa: E731
    oracle = (1.0 + t) + quad(
        lambda s: k1(s) * math.exp(Q(s)) * (1.0 + s), 0.0, t)[0]
    sharp, _, _ = gronwall_bound(inp, t)
    assert sharp == pytest.approx(oracle, rel=1e-8)


def test_gronwall_bound_fredholm_display():
    q = 0.4
    inp = GronwallInput(v0=1.0, k=const_void(q), measure=VOID_MU, p=1.0,
                        domain=VoidSet(), l=const_void(0.3))
    sharp, sup_form, tail = gronwall_bound(inp, 0.5)
    assert tail == 0.0
    # v = v0 + integral of l = 1.3; sharp = v + (1-q)^-1 integral k v
    v = 1.3
    assert sharp == pytest.approx(v + q * v / (1.0 - q), rel=1e-12)
    # sup form = (sup v0 + (integral l**p)**(1/p)) / (1 - q**(1/p))
    assert sup_form == pytest.approx((1.0 + 0.3) / (1.0 - q), rel=1e-12)
    assert sharp <= sup_form + 1e-12


def test_gronwall_bound_zero_input_is_zero():
    inp = GronwallInput(v0=0.0, k=constant_kernel(1.0), measure=Lebesgue(),
                        p=1.0, domain=DOM)
    sharp, sup_form, _ = gronwall_bound(inp, 1.0)
    assert sharp == pytest.approx(0.0, abs=1e-13)
    assert sup_form == pytest.approx(0.0, abs=1e-13)


def test_gronwall_consistency_with_resolvent_bound():
    # both routes bound the same data; they agree within tolerance
    inp = GronwallInput(v0=lambda s: 1.0 + 0.5 * np.asarray(s),
                        k=constant_kernel(1.2), measure=Lebesgue(), p=1.0,
                        domain=DOM)
    t = 1.0
    sharp, _, tail = gronwall_bound(inp, t)
    sv = resolvent_bound(lambda s: 1.0 + 0.5 * np.asarray(s),
                         constant_kernel(1.2), Lebesgue(), 1.0, t, domain=DOM)
    assert sharp == pytest.approx(sv.sum, rel=1e-7)


def test_gronwall_monotone_in_forcing():
    k = constant_kernel(1.0)
    lo = GronwallInput(v0=1.0, k=k, measure=Lebesgue(), p=1.0, domain=DOM)
    hi = GronwallInput(v0=1.5, k=k, measure=Lebesgue(), p=1.0, domain=DOM)
    for t in (0.3, 0.7, 1.0):
        s_lo, f_lo, _ = gronwall_bound(lo, t)
        s_hi, f_hi, _ = gronwall_bound(hi, t)
        assert s_lo <= s_hi + 1e-12
        assert f_lo <= f_hi + 1e-12


def test_gronwall_curve_export():
    inp = GronwallInput(v0=1.0, k=constant_kernel(1.0), measure=Lebesgue(),
                        p=1.0, domain=DOM)
    curve = gronwall_curve(inp, [0.25, 0.5, 0.75, 1.0])
    assert curve.m == 1
    assert np.all(curve.sharp <= curve.sup + curve.tail_bound + 1e-9)
    csv = curve.to_csv()
    assert csv.splitlines()[0] == "t,sharp,sup,tail"
    assert len(csv.splitlines()) == 5


# ---------------------------------------------------------------------------
# induction harness
# ---------------------------------------------------------------------------


def psi_affine(u):
    return 0.5 * u + 1.0


def test_induction_check_equality_case():
    u0 = np.array([0.0, 1.0, 2.0])
    seq = [u0]
    for _ in range(4):
        seq.append(psi_affine(seq[-1]))
    assert induction_check(psi_affine, seq).passed


def test_induction_check_strict_case():
    u0 = np.array([0.0, 1.0, 2.0])
    seq = [u0]
    for _ in range(4):
        seq.append(psi_affine(seq[-1]) - 0.01)
    assert induction_check(psi_affine, seq).passed


def test_induction_check_violation_witness():
    u0 = np.array([0.0, 1.0, 2.0])
    u1 = psi_affine(u0)
    u2 = psi_affine(u1).copy()
    u2[1] += 1.0  # injected violation at iteration 2, index 1
    rep = induction_check(psi_affine, [u0, u1, u2])
    assert not rep.passed
    assert rep.witness == (2, 1)


def test_induction_check_respects_mask():
    u0 = np.array([0.0, 1.0, 2.0])
    u1 = psi_affine(u0)
    u1_bad = u1.copy()
    u1_bad[0] += 5.0
    mask = np.array([False, True, True])
    assert induction_check(psi_affine, [u0, u1_bad], J=mask).passed


# ---------------------------------------------------------------------------
# multivariate fractional display
# ---------------------------------------------------------------------------


def test_fractional_box_sup_bound_reduces_to_ml_series():
    from volgron.specfun import MLParams, mittag_leffler

    # one axis, beta = 0, unit constants: the series is the generalised
    # Mittag-Leffler value minus its constant term
    ap = 0.75
    got = fractional_box_sup_bound(1.0, (0.75,), (0.0,), 1.0, (1.0,), (0.0,),
                                   v_sup=2.0)
    ml = mittag_leffler(MLParams(ap, 1.0, 1.0),
                        math.gamma(ap) * 1.0**ap)
    assert got == pytest.approx(2.0 * (ml.sum - 1.0), rel=1e-10)


def test_fractional_box_sup_bound_two_axes_positive():
    got = fractional_box_sup_bound(0.8, (0.9, 0.8), (0.1, 0.0), 1.0,
                                   (1.0, 0.5), (0.0, 0.0), v_sup=1.0)
    assert math.isfinite(got) and got > 0
    with pytest.raises(ValueError):
        fractional_box_sup_bound(1.0, (2.0,), (1.5,), 1.0, (1.0,), (0.0,),
                                 v_sup=1.0)


def test_bound_ordering_random_sweep():
    # the sharp form never exceeds the supremum form (randomised inputs)
    rng = np.random.default_rng(42)
    for _ in range(20):
        c = float(rng.uniform(0.2, 1.5))
        v0c = float(rng.uniform(0.1, 2.0))
        lc = float(rng.uniform(0.0, 1.0))
        l_kernel = CallableKernel(fn=lambda T, S, lc=lc: lc + 0.0 * S,
                                  monotone_flag=True) if lc > 0.3 else None
        inp = GronwallInput(v0=v0c, k=constant_kernel(c), measure=Lebesgue(),
                            p=float(rng.choice([1.0, 2.0])), domain=DOM,
                            l=l_kernel)
        t = float(rng.uniform(0.2, 1.0))
        sharp, sup_form, tail = gronwall_bound(inp, t)
        assert sharp <= sup_form + tail + 1e-9 * (1.0 + sup_form)


def test_integral_estimate_equality_fixtures():
    # the step between the two bound lines is an identity in two cases:
    # constant forcing without inhomogeneity, and zero forcing with an
    # inhomogeneity kernel of the second variable only (p = 1)
    k = CallableKernel(fn=lambda T, S: 1.0 + 0.5 * S, monotone_flag=True)
    l = CallableKernel(fn=lambda T, S: 0.3 + 0.2 * S, monotone_flag=True)
    zero_forcing = GronwallInput(v0=0.0, k=k, measure=Lebesgue(), p=1.0,
                                 domain=DOM, l=l)
    const_forcing = GronwallInput(v0=2.0, k=k, measure=Lebesgue(), p=1.0,
                                  domain=DOM)
    for t in (0.5, 1.0):
        sharp, sup, _ = gronwall_bound(zero_forcing, t)
        assert sharp == pytest.approx(sup, abs=1e-9)
        sharp, sup, _ = gronwall_bound(const_forcing, t)
        assert sharp == pytest.approx(sup, abs=1e-9)


def test_void_resolvent_bound_cross_check():
    # the resolvent-weighted route and the Fredholm sharp form agree
    kern = const_void(0.4)
    inp = GronwallInput(v0=1.0, k=kern, measure=VOID_MU, p=1.0,
                        domain=VoidSet())
    sharp, _, _ = gronwall_bound(inp, 0.5)
    rb = resolvent_bound(1.0, kern, VOID_MU, 1.0, 0.5)
    assert sharp == pytest.approx(rb.sum, rel=1e-13)


def test_null_lower_set_edges():
    inp = GronwallInput(v0=2.0, k=constant_kernel(1.0), measure=Lebesgue(),
                        p=1.0, domain=DOM)
    assert gronwall_bound(inp, 0.0) == (2.0, 2.0, 0.0)
    sharp, sup, w = gronwall_sequence_bound(inp, 1.0, 3, 0.0)
    assert (sharp, sup, w) == (2.0, 2.0, 0.0)
    sv = resolvent_bound(2.0, constant_kernel(1.0), Lebesgue(), 1.0, 0.0,
                         domain=DOM)
    assert sv.sum == 2.0 and sv.converged


# ---------------------------------------------------------------------------
# batched v with an l term
# ---------------------------------------------------------------------------


def loop_v_at(inp, t, level):
    """v(t) with its own grid operator per point (the per-node route)."""
    from volgron.resolvent import GridOperator

    base = float(inp.v0_fn()(np.asarray(float(t))))
    if float(t) <= inp.domain.lo:
        return base
    op = GridOperator.on_interval(inp.l, inp.measure, inp.p, inp.domain.lo,
                                  t, level)
    return base + op.row_integral(op.kernel_row()) ** (1.0 / inp.p)


WEIGHTED_MU = WeightedLebesgue(lambda x: 1.0 + 0.6 * np.asarray(x, float))
L_SEP = SeparableKernel(k0=lambda t: 1.0 + 0.3 * np.asarray(t, float),
                        k1=lambda s: 0.8 + 0.16 * np.asarray(s, float))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("l_kernel", [constant_kernel(0.7), L_SEP],
                         ids=["constant", "separable"])
@pytest.mark.parametrize("measure", [Lebesgue(), WEIGHTED_MU],
                         ids=["lebesgue", "weighted"])
def test_batched_v_matches_per_node_loop(measure, l_kernel, p):
    inp = GronwallInput(v0=lambda x: 1.0 + np.asarray(x, dtype=float) ** 2,
                        k=constant_kernel(1.0), measure=measure, p=p,
                        domain=DOM, l=l_kernel)
    nodes = np.linspace(0.0, 0.9, 65)
    ref = np.array([loop_v_at(inp, x, 6) for x in nodes])
    new = inp._v_values(nodes, 6)
    single = np.array([inp.v_at(float(x), level=6) for x in nodes])
    if isinstance(measure, Lebesgue):
        np.testing.assert_array_equal(new, ref)
        np.testing.assert_array_equal(single, ref)
    else:
        np.testing.assert_allclose(new, ref, rtol=4e-16, atol=0.0)
        np.testing.assert_allclose(single, ref, rtol=4e-16, atol=0.0)


@pytest.mark.parametrize("measure", [Lebesgue(), WEIGHTED_MU],
                         ids=["lebesgue", "weighted"])
def test_gronwall_bounds_with_l_match_per_node_route(measure, monkeypatch):
    inp = GronwallInput(v0=1.0, k=L_SEP, measure=measure, p=1.0, domain=DOM,
                        l=constant_kernel(0.6))
    new = (gronwall_bound(inp, 0.8, level=6),
           gronwall_sequence_bound(inp, 1.0, 4, 0.8, level=6))
    monkeypatch.setattr(
        GronwallInput, "_v_values",
        lambda self, ts, level=8: np.array([loop_v_at(self, x, level)
                                            for x in ts]))
    ref = (gronwall_bound(inp, 0.8, level=6),
           gronwall_sequence_bound(inp, 1.0, 4, 0.8, level=6))
    rtol = 0.0 if isinstance(measure, Lebesgue) else 4e-16
    for a, b in zip(new, ref):
        np.testing.assert_allclose(a, b, rtol=rtol, atol=0.0)


# ---------------------------------------------------------------------------
# closed forms need monotone kernels
# ---------------------------------------------------------------------------


def test_closed_forms_refuse_a_kernel_not_declared_monotone():
    # u = 1 + integral of k u has u(1) = 2.1192 for this decreasing k; the
    # frozen factorial series would give 1.6487, which is no bound
    k = CallableKernel(lambda T, S: 3.0 - 2.5 * T + 0.0 * S)
    inp = GronwallInput(v0=1.0, k=k, measure=Lebesgue(), p=1.0, domain=DOM)
    assert gronwall_bound(inp, 1.0) == (math.inf, math.inf, math.inf)
    assert gronwall_sequence_bound(inp, 1.0, 3, 1.0) == (math.inf,) * 3
    # the null lower set needs no series
    assert gronwall_bound(inp, 0.0) == (1.0, 1.0, 0.0)


def test_sup_form_refuses_an_l_not_declared_monotone():
    # the frozen row of this decreasing l gives sup 0.172 below sharp 0.989
    l_kernel = CallableKernel(lambda T, S: 3.0 - 2.9 * T + 0.0 * S)
    inp = GronwallInput(v0=0.0, k=constant_kernel(1.0), measure=Lebesgue(),
                        p=1.0, domain=DOM, l=l_kernel)
    sharp, sup_form, tail = gronwall_bound(inp, 1.0)
    assert math.isfinite(sharp) and math.isfinite(tail)
    assert sup_form == math.inf
    sharp, sup_form, w_n = gronwall_sequence_bound(inp, 0.0, 3, 1.0)
    assert math.isfinite(sharp) and sup_form == math.inf


# ---------------------------------------------------------------------------
# the log-space route as reference
# ---------------------------------------------------------------------------


def ref_factorial_term(row_f, log_q, n, p):
    """(integral of f Q**n / n!)**(1/p), Q**n / n! formed in log space."""
    from volgron.resolvent import _ext_mul
    from volgron.specfun import ln_gamma

    if n == 0:
        return max(float(row_f.sum()), 0.0) ** (1.0 / p)
    with np.errstate(over="ignore"):
        weight = np.exp(n * log_q - ln_gamma(n + 1.0))
    return max(float(_ext_mul(row_f, weight).sum()), 0.0) ** (1.0 / p)


def ref_lower_set(inp, t, level):
    from volgron.resolvent import GridOperator, _ext_mul

    op = GridOperator.on_interval(inp.k, inp.measure, inp.p, inp.domain.lo,
                                  t, level)
    kcol = op.kernel_row()
    Q = op.suffix_integrals(kcol)
    with np.errstate(divide="ignore"):
        log_q = np.log(Q)
    lop = None if inp.l is None else GridOperator.on_interval(
        inp.l, inp.measure, inp.p, inp.domain.lo, t, level)
    return (op, _ext_mul(op.row_weights, kcol), Q, log_q,
            inp._v_values(op.nodes, level), lop)


def ref_gronwall_bound(inp, t, tol=1e-12, level=8, n_cap=500):
    """The interval ``gronwall_bound`` with its own log-space term loops."""
    from volgron.resolvent import _ext_mul, _factorial_log
    from volgron.specfun import MLParams, _tail_sum, mittag_leffler

    p = inp.p
    op, row_k, Q, log_q, v_vals, lop = ref_lower_set(inp, t, level)
    q, v_t, sup_v = Q[0], float(v_vals[-1]), float(np.max(v_vals))
    row_kv = _ext_mul(op.row_weights, _ext_mul(op.kernel_row(), v_vals**p))
    log_fact = _factorial_log(q, p)
    sharp, tail = v_t, math.inf
    for n in range(0, n_cap):
        sharp += ref_factorial_term(row_kv, log_q, n, p)
        tail = sup_v * _tail_sum(log_fact, n + 2)
        if tail < tol:
            break
    sup_v0 = float(np.max(np.asarray(inp.v0_fn()(op.nodes), dtype=float)))
    ml = mittag_leffler(MLParams(1.0, 1.0, p), q ** (1.0 / p), tol=1e-14)
    lser, ltail = 0.0, 0.0
    if lop is not None:
        lcol = lop.kernel_row()
        row_l = _ext_mul(op.row_weights, lcol)
        int_l = lop.row_integral(lcol)
        for n in range(0, n_cap):
            lser += ref_factorial_term(row_l, log_q, n, p)
            ltail = int_l ** (1.0 / p) * _tail_sum(log_fact, n + 1)
            if ltail < tol:
                break
    return (sharp, sup_v0 * ml.sum + lser,
            tail + sup_v0 * ml.tail_bound + ltail)


def ref_sequence_bound(inp, u0, n, t, level=8):
    """The interval ``gronwall_sequence_bound`` in log space."""
    from volgron.resolvent import _ext_mul
    from volgron.specfun import ln_gamma

    p = inp.p
    op, row_k, Q, log_q, v_vals, lop = ref_lower_set(inp, t, level)
    q, v_t = Q[0], float(v_vals[-1])
    u0_vals = np.asarray(u0(op.nodes), dtype=float)
    w_n = ref_factorial_term(_ext_mul(row_k, u0_vals**p), log_q, n - 1, p)
    row_kv = _ext_mul(row_k, v_vals**p)
    sharp = sum((ref_factorial_term(row_kv, log_q, i, p)
                 for i in range(0, n - 1)), v_t + w_n)
    sup_v0 = float(np.max(np.asarray(inp.v0_fn()(op.nodes), dtype=float)))
    head = sum((math.exp((i * math.log(q) - ln_gamma(i + 1.0)) / p)
                for i in range(1, n)), 1.0)
    lser = 0.0
    if lop is not None:
        row_l = _ext_mul(op.row_weights, lop.kernel_row())
        lser = sum(ref_factorial_term(row_l, log_q, i, p) for i in range(n))
    return sharp, sup_v0 * head + w_n + lser, w_n


def exact_w_n(inp, u0, n, t, level):
    """w_n from the same quadrature data, summed in exact rationals."""
    from fractions import Fraction

    from volgron.resolvent import _ext_mul

    op, row_k, Q, _, _, _ = ref_lower_set(inp, t, level)
    w = _ext_mul(row_k, np.asarray(u0(op.nodes), dtype=float) ** inp.p)
    g = sum(Fraction(wi) * Fraction(qi) ** (n - 1) for wi, qi in zip(
        w.tolist(), Q.tolist())) / math.factorial(n - 1)
    return float(g) ** (1.0 / inp.p)


ULPS4 = 4 * np.finfo(float).eps


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("with_l", [False, True], ids=["no-l", "l"])
@pytest.mark.parametrize("measure", [Lebesgue(), WEIGHTED_MU],
                         ids=["lebesgue", "weighted"])
def test_closed_forms_match_the_log_space_route(measure, with_l, p):
    inp = GronwallInput(v0=lambda x: 1.0 + np.asarray(x, dtype=float) ** 2,
                        k=L_SEP, measure=measure, p=p, domain=DOM,
                        l=constant_kernel(0.6) if with_l else None)
    for t in (0.3, 1.0):
        got = gronwall_bound(inp, t, level=6)
        want = ref_gronwall_bound(inp, t, level=6)
        np.testing.assert_allclose(got[:2], want[:2], rtol=ULPS4, atol=0.0)
        assert got[2] == want[2]  # the same tails at the same index
    u0 = lambda x: 2.0 - np.asarray(x, dtype=float)  # noqa: E731
    for n in (1, 2, 5, 30, 200):  # 199! overflows a float
        got = gronwall_sequence_bound(inp, u0, n, 1.0, level=6)
        want = ref_sequence_bound(inp, u0, n, 1.0, level=6)
        np.testing.assert_allclose(got[:2], want[:2], rtol=ULPS4, atol=0.0)
        # w_n alone is held to its exact sum: the log-space weights carry an
        # error that grows with |n log Q - ln Gamma(n + 1)| (up to 44 ulps
        # at n = 30 here), the product h <- h Q / n stays within rounding
        np.testing.assert_allclose(got[2], exact_w_n(inp, u0, n, 1.0, 6),
                                   rtol=ULPS4, atol=0.0)
