import math

import numpy as np
import pytest

from volgron.domains import Interval1D, QuadratureGrid, VoidSet
from volgron.fixpoint import (
    DivergentBoundError,
    EvolutionOperatorSpec,
    error_bound,
    lipschitz_profile,
    picard_solve,
    uniqueness_certificate,
)
from volgron.kernels import FractionalKernel, VoidKernel, constant_kernel
from volgron.measures import DiscreteMeasure, Lebesgue
from volgron.problems import (
    _abel_weights,
    abel_problem,
    banach_problem,
    volterra_problem,
)

DOM = Interval1D(0.0, 1.0)


def const_void(c):
    return VoidKernel(k1=lambda s: np.full_like(np.asarray(s, float), c))


# ---------------------------------------------------------------------------
# Lipschitz profile and uniqueness
# ---------------------------------------------------------------------------


def test_lipschitz_profile_constant():
    for t in (0.25, 0.5, 1.0):
        lam0 = lipschitz_profile(constant_kernel(2.0), Lebesgue(), 1.0, t,
                                 DOM)
        assert lam0 == pytest.approx(2.0 * t, rel=1e-10)


def test_lipschitz_profile_void_atom():
    mu = DiscreteMeasure(((0.0, 1.0),))
    lam0 = lipschitz_profile(const_void(0.7), mu, 1.0, 0.0, VoidSet())
    assert lam0 == pytest.approx(0.7, rel=1e-14)


def test_lipschitz_profile_fractional_power_rule():
    # oracle: integral of (t-s)**(alpha-1) over [0, t] is t**alpha / alpha
    k = FractionalKernel(alpha=0.75, beta=0.0)
    lam0 = lipschitz_profile(k, Lebesgue(), 1.0, 1.0, DOM)
    assert lam0 == pytest.approx(1.0 / 0.75, rel=1e-12)
    # p = 2 via the beta closed form
    lam0 = lipschitz_profile(FractionalKernel(alpha=0.9, beta=0.05),
                             Lebesgue(), 2.0, 1.0, DOM)
    from volgron.specfun import beta

    assert lam0 == pytest.approx(beta(1.0 - 0.1, 0.8) ** 0.5, rel=1e-12)


def test_uniqueness_certificate():
    assert uniqueness_certificate(constant_kernel(3.0), Lebesgue(), 1.0,
                                  [0.5, 1.0], domain=DOM) == "unique"
    mu = DiscreteMeasure(tuple((i / 8, 0.125) for i in range(8)))
    assert uniqueness_certificate(const_void(0.5), mu, 1.0, [0.3]) == "unique"
    assert uniqueness_certificate(const_void(1.1), mu, 1.0, [0.3]) == "unknown"


# ---------------------------------------------------------------------------
# the Banach reduction
# ---------------------------------------------------------------------------


def test_banach_certificate_matches_geometric_bound():
    prob = banach_problem(contraction=0.5, shift=1.0)
    x_hat, cert = picard_solve(prob.spec, prob.x0, tol=1e-8, max_iter=60)
    assert cert.converged
    d0 = 1.0  # |x0 - psi(x0)| = |0 - 1|
    lam0 = 0.5
    for n in range(1, 25):
        want = d0 * lam0**n / (1.0 - lam0)
        assert cert.bound(n) == pytest.approx(want, rel=1e-12), n
    assert x_hat[0] == pytest.approx(2.0, abs=1e-7)


def test_identity_operator_refused():
    # contraction constant one: the geometric certificate diverges
    domain = VoidSet("identity")
    mu = DiscreteMeasure(((0.0, 1.0),))
    spec = EvolutionOperatorSpec(
        apply=lambda x: x.copy(),
        lambda_kernel=const_void(1.0),
        measure=mu, p=1.0, domain=domain, grid=np.array([0.0]),
    )
    with pytest.raises(DivergentBoundError):
        picard_solve(spec, np.array([1.0]), tol=1e-6, max_iter=10)


# ---------------------------------------------------------------------------
# linear Volterra problem
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def volterra_solution():
    prob = volterra_problem(rate=2.0, level=9)
    x_hat, cert = picard_solve(prob.spec, prob.x0, tol=1e-6, max_iter=25)
    return prob, x_hat, cert


def test_volterra_converges_to_exponential(volterra_solution):
    prob, x_hat, cert = volterra_solution
    assert cert.converged
    assert cert.iterates <= 25
    err = np.max(np.abs(x_hat - prob.reference))
    assert err < 1e-4


def test_volterra_certificate_sound(volterra_solution):
    # measured distance to the exact solution never exceeds the bound
    prob, _, cert = volterra_solution
    x = prob.x0.copy()
    stride = (prob.spec.grid.size - 1) // (cert.ts.size - 1)
    for n in range(1, 11):
        x = prob.spec.apply(x)
        measured = prob.spec.distance_profile(x, prob.reference)
        for j_c in range(cert.ts.size):
            b = cert.bound(n, j_c)
            assert measured[j_c * stride] <= b + 1e-5, (n, j_c)


def test_volterra_bounds_decreasing(volterra_solution):
    _, _, cert = volterra_solution
    bounds = [cert.bound(n) for n in range(1, cert.iterates + 1)]
    assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(bounds, bounds[1:]))


def test_volterra_cauchy_telescoping(volterra_solution):
    # distance between iterates is bounded by the partial layer sums
    prob, _, cert = volterra_solution
    xs = [prob.x0.copy()]
    for _ in range(8):
        xs.append(prob.spec.apply(xs[-1]))
    stride = (prob.spec.grid.size - 1) // (cert.ts.size - 1)
    for n in (1, 2, 4):
        for m in (5, 7, 8):
            d = prob.spec.distance_profile(xs[n], xs[m])
            partial = cert.b_layers[n - 1: m - 1].sum(axis=0)
            # slack covers the trapezoid discretisation of the operator
            assert np.all(d[::stride] <= partial + 1e-5 * (1.0 + partial))


def test_volterra_fixed_point_residual(volterra_solution):
    prob, x_hat, cert = volterra_solution
    nxt = prob.spec.apply(x_hat)
    assert prob.spec.distance_at(x_hat, nxt) <= 2e-6


def test_volterra_uniqueness_of_limits(volterra_solution):
    prob, x_hat, _ = volterra_solution
    other_start = np.full_like(prob.x0, 5.0)
    x_other, _ = picard_solve(prob.spec, other_start, tol=1e-6, max_iter=30)
    assert prob.spec.distance_at(x_hat, x_other) <= 2e-6


def test_error_bound_lookup_and_majorant(volterra_solution):
    _, _, cert = volterra_solution
    b = error_bound(cert, 3, 1.0)
    assert b == pytest.approx(cert.bound(3, -1))
    b, maj = error_bound(cert, 3, 1.0, with_majorant=True)
    assert maj >= b - 1e-12
    # the closed-form majorant dominates at every recorded layer
    for n in range(1, 12):
        v, m = error_bound(cert, n, 1.0, with_majorant=True)
        assert m >= v - 1e-12
    with pytest.raises(ValueError):
        error_bound(cert, 3, 0.123456)  # not a certificate node


# ---------------------------------------------------------------------------
# Abel problem (weakly singular kernel)
# ---------------------------------------------------------------------------


def loop_abel_weights(nodes, alpha):
    """The product-integration weights panel by panel: exact moments m0,
    m1 of (t_i - s)**(alpha-1) and (t_i - s)**(alpha-1) (s - t_l) on each
    panel [t_l, t_l+1] below t_i, split over its two hat functions."""
    m = nodes.size
    V = np.zeros((m, m))
    for i in range(1, m):
        ti = nodes[i]
        for l in range(i):
            h = nodes[l + 1] - nodes[l]
            b = ti - nodes[l]
            a = ti - nodes[l + 1]
            m0 = (b**alpha - a**alpha) / alpha
            m1 = b * m0 - (b ** (alpha + 1) - a ** (alpha + 1)) / (alpha + 1)
            V[i, l] += m0 - m1 / h
            V[i, l + 1] += m1 / h
    return V


@pytest.mark.parametrize("alpha, level", [
    (0.1, 8), (0.5, 8), (0.75, 8), (0.85, 8), (1.5, 8), (0.75, 9), (0.3, 3)])
def test_abel_weights_match_the_panel_loop(alpha, level):
    # both evaluate the moments as differences of powers of size 1 divided
    # by alpha h, so they differ by rounding of up to a few eps / (alpha h)
    # where pow rounds differently in the vectorised pass
    nodes = QuadratureGrid.for_interval(DOM, level).nodes
    got, ref = _abel_weights(nodes, alpha), loop_abel_weights(nodes, alpha)
    assert not np.triu(got, 1).any()
    h = nodes[1] - nodes[0]
    assert np.max(np.abs(got - ref)) <= 8 * np.finfo(float).eps / (alpha * h)


def test_abel_problem_certificate_and_convergence():
    prob = abel_problem(alpha=0.75, level=7)
    x_hat, cert = picard_solve(prob.spec, prob.x0, tol=1e-5, max_iter=40,
                               cert_level=6)
    assert cert.converged
    err = np.max(np.abs(x_hat - prob.reference))
    assert err < 1e-3
    # soundness against the exact constant solution
    x = prob.x0.copy()
    stride = (prob.spec.grid.size - 1) // (cert.ts.size - 1)
    for n in range(1, 8):
        x = prob.spec.apply(x)
        measured = prob.spec.distance_profile(x, prob.reference)
        for j_c in range(0, cert.ts.size, 8):
            assert measured[j_c * stride] <= cert.bound(n, j_c) + 1e-3


def test_increment_profile_hook():
    # a caller-supplied increment profile tightens the certificate
    prob = volterra_problem(rate=1.0, level=6)
    spec = prob.spec
    tight = EvolutionOperatorSpec(
        apply=spec.apply, lambda_kernel=spec.lambda_kernel,
        measure=spec.measure, p=spec.p, domain=spec.domain, grid=spec.grid,
        increment_profile=lambda x0, x1: np.abs(x1 - x0),
    )
    _, cert_def = picard_solve(spec, prob.x0, tol=1e-6, max_iter=30)
    _, cert_tight = picard_solve(tight, prob.x0, tol=1e-6, max_iter=30)
    assert cert_tight.bound(1) <= cert_def.bound(1) + 1e-12


def test_nonmonotone_kernel_has_no_certificate():
    from volgron.kernels import CallableKernel

    prob = volterra_problem(rate=1.0, level=6)
    spec = EvolutionOperatorSpec(
        apply=prob.spec.apply,
        lambda_kernel=CallableKernel(fn=lambda T, S: 1.0 + 0.0 * S),
        measure=Lebesgue(), p=1.0, domain=DOM, grid=prob.spec.grid,
    )
    with pytest.raises(DivergentBoundError):
        picard_solve(spec, prob.x0, tol=1e-6, max_iter=5)


def test_error_bound_out_of_range(volterra_solution):
    _, _, cert = volterra_solution
    with pytest.raises(IndexError):
        error_bound(cert, cert.n_layers + 1, 1.0)
    with pytest.raises(ValueError):
        error_bound(cert, 0, 1.0)


def test_lipschitz_profile_null_lower_set():
    assert lipschitz_profile(constant_kernel(2.0), Lebesgue(), 1.0, 0.0,
                             DOM) == 0.0


def test_picard_certificate_p_two():
    # square-mean contract: |psi(x) - psi(y)|(t) is bounded by the L2
    # norm of c * (x - y) over [0, t] (reverse triangle inequality), an
    # increment contract with p = 2 and constant kernel c
    from volgron.domains import QuadratureGrid
    from volgron.problems import _trapezoid_cumulative

    c = 0.8
    domain = Interval1D(0.0, 1.0)
    nodes = QuadratureGrid.for_interval(domain, 7).nodes
    V = _trapezoid_cumulative(nodes)

    def apply(u):
        return 1.0 + np.sqrt(np.maximum(V @ (c * c * u * u), 0.0))

    spec = EvolutionOperatorSpec(
        apply=apply, lambda_kernel=constant_kernel(c), measure=Lebesgue(),
        p=2.0, domain=domain, grid=nodes,
    )
    x0 = np.zeros_like(nodes)
    x_hat, cert = picard_solve(spec, x0, tol=1e-7, max_iter=40, cert_level=6)
    assert cert.converged
    # soundness against the converged limit
    x = x0.copy()
    stride = (nodes.size - 1) // (cert.ts.size - 1)
    for n in range(1, 9):
        x = apply(x)
        measured = spec.distance_profile(x, x_hat)
        for j in range(0, cert.ts.size, 8):
            assert measured[j * stride] <= cert.bound(n, j) + 1e-6, (n, j)
