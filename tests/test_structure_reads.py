"""Two fractional paths that read what the mathematics already gives, bit
for bit: layer 1 of the ratio profile is psi_1 = 1 in closed form (no
interpolant read), and the closed-form Picard layers of an untransported
beta = 0 kernel on equal gaps from ``lo = nodes[0]`` are taken on the m
gaps and gathered along their diagonals.  The replaced step and the
entry-wise layers are kept here as references.  Also: the input checks
on u0, on an infinite v0 with a zero kernel, and on non-finite gaps."""

import math
import warnings

import numpy as np
import pytest

from volgron import resolvent
from volgron.domains import Interval1D, QuadratureGrid, VoidSet
from volgron.gronwall import (
    GronwallInput,
    check_vanishing,
    gronwall_bound,
    gronwall_curve,
    gronwall_sequence_bound,
)
from volgron.kernels import (
    FractionalKernel,
    SumKernel,
    TransformedFractionalKernel,
    VoidKernel,
    constant_kernel,
)
from volgron.measures import DiscreteMeasure, Lebesgue
from volgron.resolvent import (
    FractionalResolventParams,
    _ext_matmul,
    _FractionalProfile,
    _jacobi_rule,
    _multinomial_terms,
    _plan,
    fractional_f,
    iterated_kernels,
    resolvent_series,
)

DOM = Interval1D(0.0, 1.0)
N_MAX = 3
SWEEP = [(a, b, p) for a in (0.5, 0.75, 0.9) for b in (0.05, 0.2)
         for p in (1.0, 1.5)]


def grid(level, dom=DOM):
    return QuadratureGrid.for_interval(dom, level)


def hexes(a):
    return [x.hex() for x in np.asarray(a, dtype=float).ravel().tolist()]


# ---------------------------------------------------------------------------
# layer 1 of the profile
# ---------------------------------------------------------------------------


class InterpolatedLayerOne(_FractionalProfile):
    """The replaced step and read: psi_1 through its two-coefficient
    interpolant, like every other layer."""

    def _step(self, n, r):
        ap, bp = self.params.alpha_p, self.params.beta_p
        lam, w = _jacobi_rule(self.jacobi_nodes, ap - 1.0, ap * n - 1.0)
        z = lam[:, None] * r[None, :]
        return w @ ((1.0 + z) ** (-bp) * self._psi_at(n, z))

    def psi(self, n, r):
        if n > self.n_layers and r.size < self._rs.size:
            while self.n_layers < n - 1:
                self.advance()
            return self._step(n - 1, r)
        while self.n_layers < n:
            self.advance()
        return self._psi_at(n, r)


def with_reference(monkeypatch, call):
    """``call()`` now and with the reference profile, in that order."""
    got = call()
    with monkeypatch.context() as m:
        m.setattr(resolvent, "_FractionalProfile", InterpolatedLayerOne)
        want = call()
    return got, want


@pytest.mark.parametrize("level", (2, 3, 4, 5))
@pytest.mark.parametrize("alpha, beta, p", SWEEP)
def test_table_is_the_interpolated_layer_one_table(alpha, beta, p, level,
                                                   monkeypatch):
    kern = FractionalKernel(alpha, beta)
    try:
        FractionalResolventParams(alpha, beta, p)
    except ValueError:
        return  # no table (test_profile_reads covers the refusal)
    got, want = with_reference(monkeypatch, lambda: iterated_kernels(
        kern, Lebesgue(), p, N_MAX, grid(level)))
    assert hexes(got.values) == hexes(want.values)
    assert got.err_est.hex() == want.err_est.hex()


@pytest.mark.parametrize("level", (2, 3, 4, 5))
@pytest.mark.parametrize("alpha, beta", [(0.5, 0.2), (0.75, 0.05),
                                         (0.9, 0.2)])
def test_transported_table_is_the_interpolated_layer_one_table(
        alpha, beta, level, monkeypatch):
    kern = TransformedFractionalKernel(phi=np.expm1, phi_dot=np.exp,
                                       alphas=(alpha,), betas=(beta,),
                                       t0=0.0)
    got, want = with_reference(monkeypatch, lambda: iterated_kernels(
        kern, Lebesgue(), 1.0, N_MAX, grid(level)))
    assert hexes(got.values) == hexes(want.values)
    assert got.err_est.hex() == want.err_est.hex()


@pytest.mark.parametrize("alpha, beta, p", [(0.75, 0.2, 1.0),
                                            (0.9, 0.05, 1.5),
                                            (0.5, 0.1, 1.0)])
def test_fractional_f_is_the_interpolated_layer_one_value(alpha, beta, p,
                                                          monkeypatch):
    params = FractionalResolventParams(alpha, beta, p)
    points = [(0.7, 0.4), (0.05, 0.9), (0.3, 0.3), (1.0, 0.5), (3.0, 0.01)]
    got, want = with_reference(monkeypatch, lambda: [
        fractional_f(params, n, x, y) for n in range(1, 9)
        for x, y in points])
    assert hexes(got) == hexes(want)


def test_heavy_series_is_the_interpolated_layer_one_series(monkeypatch):
    args = (FractionalKernel(0.75, 0.1), Lebesgue(), 1, 1.0, 0.5)
    got, want = with_reference(monkeypatch,
                               lambda: resolvent_series(*args, tol=1e-10))
    assert got.terms_used == want.terms_used == 19 and got.converged
    assert (got.sum.hex(), got.tail_bound.hex()) == \
        (want.sum.hex(), want.tail_bound.hex())


def test_level_three_table_reads_no_layer_one_interpolant(monkeypatch):
    sizes = []
    chebval = resolvent._chebval

    def spy(x, c):
        sizes.append(len(c))
        return chebval(x, c)

    monkeypatch.setattr(resolvent, "_chebval", spy)
    iterated_kernels(FractionalKernel(0.75, 0.1), Lebesgue(), 1.0, N_MAX,
                     grid(3))
    # each rule builds layer 2 and reads it at its ratios
    assert sizes and 2 not in sizes
    assert set(sizes) == {96, 128}


def test_layer_one_is_ones():
    params = FractionalResolventParams(0.75, 0.2, 1.0)
    prof = _FractionalProfile(params, 40.0)
    r = np.array([0.0, 1e-300, 1e-30, 0.5, 40.0])
    assert hexes(prof.psi(1, r)) == ["0x1.0000000000000p+0"] * r.size
    assert prof.n_layers == 1


# ---------------------------------------------------------------------------
# closed-form Picard layers on the gaps
# ---------------------------------------------------------------------------


def entrywise_b_layers(plan, nodes, w0, n_layers, lo=None):
    """The replaced layers: every multinomial term raised on the full
    m x (m + 1) matrix of distances to the step ends."""
    lo, p = plan.t0 if lo is None else lo, plan.p
    t = np.maximum(nodes, lo)[:, None]
    ends = np.concatenate(([lo], nodes))[None, :]
    dist = plan.z(t) - plan.z(np.clip(ends, lo, t))
    step = w0**p
    b = np.zeros((n_layers, nodes.size))
    for i in range(1, n_layers + 1):
        weights = None
        for A, log_coef in _multinomial_terms(plan.alphas, i):
            powers = dist**A
            part = (powers[:, :-1] - powers[:, 1:]) * (math.exp(log_coef) / A)
            weights = part if weights is None else weights + part
        b[i - 1] = np.maximum(_ext_matmul(weights, step), 0.0) ** (1.0 / p)
    return b


ONE_PART = FractionalKernel(0.75, 0.0)
TWO_PARTS = SumKernel((FractionalKernel(0.75, 0.0),
                       FractionalKernel(0.5, 0.0)))
KERNELS = [(ONE_PART, 1.0), (FractionalKernel(0.9, 0.0), 1.5),
           (FractionalKernel(1.3, 0.0), 1.0), (TWO_PARTS, 1.0)]


def gaps_spy(monkeypatch):
    """Record what ``_equal_gaps`` answers."""
    answers, equal_gaps = [], resolvent._equal_gaps

    def spy(z):
        answers.append(equal_gaps(z))
        return answers[-1]

    monkeypatch.setattr(resolvent, "_equal_gaps", spy)
    return answers


@pytest.mark.parametrize("level", range(1, 10))
@pytest.mark.parametrize("kern, p", KERNELS)
def test_b_layers_on_the_gaps_are_the_entrywise_layers(kern, p, level,
                                                       monkeypatch):
    answers = gaps_spy(monkeypatch)
    nodes = grid(level).nodes
    w0 = 1.0 + np.sin(7.0 * nodes) ** 2
    plan = _plan(kern, Lebesgue(), p)
    for lo in (None, 0.0):
        got = plan.b_layers(nodes, w0, 12, lo)
        assert hexes(got) == hexes(entrywise_b_layers(plan, nodes, w0, 12,
                                                      lo))
    assert answers == [True, True]


@pytest.mark.parametrize("kern, p, level, pins", [
    (ONE_PART, 1.0, 8, ((0, 256, "0x1.0c85c7d06c30ap+1"),
                        (4, 85, "0x1.76c0a568b3b91p-9"),
                        (11, 7, "0x1.4062c8dc3b364p-62"))),
    (FractionalKernel(0.9, 0.0), 1.5, 6,
     ((0, 64, "0x1.bdc421c5f2fd8p+0"), (4, 21, "0x1.8c90177801595p-8"),
      (11, 7, "0x1.7b1da09812217p-36"))),
    (TWO_PARTS, 1.0, 5, ((0, 32, "0x1.5e994d473c675p+2"),
                         (4, 11, "0x1.0f5eea65847acp+1"),
                         (11, 7, "0x1.afcb683c8e370p-9"))),
])
def test_b_layers_keep_their_bits(kern, p, level, pins):
    nodes = grid(level).nodes
    b = _plan(kern, Lebesgue(), p).b_layers(nodes, 1.0 + nodes, 12)
    assert [float(b[i, j]).hex() for i, j, _ in pins] == \
        [h for _, _, h in pins]


def transported_parts():
    return TransformedFractionalKernel(phi=np.expm1, phi_dot=np.exp,
                                       alphas=(0.75, 0.5), betas=(0.0, 0.0),
                                       t0=0.0)


@pytest.mark.parametrize("case", ["transported", "non-dyadic", "lo below",
                                  "single node"])
@pytest.mark.parametrize("level", (3, 6))
def test_b_layers_fallbacks_are_the_entrywise_layers(case, level,
                                                     monkeypatch):
    answers = gaps_spy(monkeypatch)
    kern, nodes, lo = ONE_PART, grid(level).nodes, None
    if case == "transported":
        kern = transported_parts()
    elif case == "non-dyadic":
        nodes, lo = grid(level, Interval1D(0.1, 0.9)).nodes, 0.1
    elif case == "lo below":
        lo = -0.5
    else:
        nodes = nodes[3:4]
        lo = float(nodes[0])
    w0 = 1.0 + np.cos(3.0 * nodes) ** 2
    plan = _plan(kern, Lebesgue(), 1.0)
    got = plan.b_layers(nodes, w0, 8, lo)
    assert hexes(got) == hexes(entrywise_b_layers(plan, nodes, w0, 8, lo))
    # transports and lo off the first node never test the gaps
    assert answers == {"transported": [], "lo below": [],
                       "non-dyadic": [False],
                       "single node": [True]}[case]


def test_abel_certificate_reads_the_gaps(monkeypatch):
    from volgron.fixpoint import picard_solve
    from volgron.problems import abel_problem

    prob = abel_problem(level=6)
    answers = gaps_spy(monkeypatch)
    _, cert = picard_solve(prob.spec, prob.x0, 1e-8)
    assert answers == [True]
    plan = _plan(prob.spec.lambda_kernel, Lebesgue(), prob.spec.p)
    assert hexes(cert.b_layers) == hexes(entrywise_b_layers(
        plan, cert.ts, cert.w0, cert.b_layers.shape[0], prob.spec.domain.lo))


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------


@pytest.fixture
def no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


BAD_U0 = [math.nan, -1.0, lambda s: np.full_like(np.asarray(s), math.nan),
          lambda s: np.asarray(s) - 0.5]


@pytest.mark.parametrize("u0", BAD_U0)
@pytest.mark.parametrize("kern", [constant_kernel(1.0),
                                  FractionalKernel(0.75, 0.2)])
def test_check_vanishing_refuses_a_bad_u0(kern, u0, no_warnings):
    with pytest.raises(ValueError, match="^u0 must be nonnegative"):
        check_vanishing(kern, Lebesgue(), 1.0, u0, 0.9, DOM)


@pytest.mark.parametrize("u0", BAD_U0)
def test_void_check_vanishing_refuses_a_bad_u0(u0, no_warnings):
    kern = VoidKernel(k1=lambda s: np.full_like(np.asarray(s, float), 0.5))
    atoms = DiscreteMeasure(((0.0, 0.5), (1.0, 0.5)))
    with pytest.raises(ValueError, match="^u0 must be nonnegative"):
        check_vanishing(kern, atoms, 1.0, u0, 0.5, VoidSet())


@pytest.mark.parametrize("u0", BAD_U0)
def test_gronwall_sequence_bound_refuses_a_bad_u0(u0, no_warnings):
    inp = GronwallInput(1.0, constant_kernel(1.0), Lebesgue(), 1.0, DOM)
    with pytest.raises(ValueError, match="^u0 must be nonnegative"):
        gronwall_sequence_bound(inp, u0, 3, 0.9)


def test_good_u0_keeps_its_answers(no_warnings):
    rep = check_vanishing(constant_kernel(1.0), Lebesgue(), 1.0,
                          lambda s: np.where(np.asarray(s) > 0.5, math.inf,
                                             1.0), 0.9, DOM,
                          strategy="bounded_u0")
    assert (rep.vanishes, rep.criterion) == (False, "u0 unbounded on the grid")
    inp = GronwallInput(1.0, constant_kernel(1.0), Lebesgue(), 1.0, DOM)
    assert gronwall_sequence_bound(inp, 0.0, 3, 0.9)[2] == 0.0


def test_infinite_v0_with_a_zero_kernel_has_a_zero_tail(no_warnings):
    inp = GronwallInput(math.inf, constant_kernel(0.0), Lebesgue(), 1.0, DOM)
    assert gronwall_bound(inp, 0.5) == (math.inf, math.inf, 0.0)
    curve = gronwall_curve(inp, [0.25, 0.5, 1.0])
    assert curve.tail_bound == 0.0
    assert np.isinf(curve.sharp).all() and np.isinf(curve.sup).all()


@pytest.mark.parametrize("x, y", [(math.inf, 0.5), (0.5, math.inf),
                                  (math.nan, 0.5), (0.5, math.nan),
                                  (1e300, 1e-300)])
@pytest.mark.parametrize("beta", (0.0, 0.2))
def test_fractional_f_refuses_non_finite_gaps(x, y, beta, no_warnings):
    params = FractionalResolventParams(0.75, beta, 1.0)
    if beta == 0.0 and (x, y) == (1e300, 1e-300):
        return  # the closed form reads x alone, and x is finite
    with pytest.raises(ValueError, match="finite"):
        fractional_f(params, 3, x, y)


@pytest.mark.parametrize("r_max", (math.inf, math.nan, 0.0, -1.0))
def test_profile_refuses_a_bad_r_max(r_max, no_warnings):
    with pytest.raises(ValueError, match="finite r_max"):
        _FractionalProfile(FractionalResolventParams(0.75, 0.2, 1.0), r_max)
