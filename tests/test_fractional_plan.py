"""One plan for the fractional family: fractional kernels, transported
fractional kernels at p = 1 and sums of beta = 0 fractional kernels with
one t0.  Transported and summed kernels against mpmath and against the
fractional kernel in phi coordinates; fractional kernels against values
recorded before the merge.  Also: the lower end of the domain in the
closed forms, the rank-one series tail without a monotone flag, and the
CLI's one-line refusals."""

import json
import math

import mpmath as mp
import numpy as np
import pytest

from volgron.cli import main
from volgron.domains import Interval1D, QuadratureGrid
from volgron.fixpoint import (
    EvolutionOperatorSpec,
    lipschitz_profile,
    picard_solve,
)
from volgron.gronwall import check_vanishing, resolvent_bound
from volgron.kernels import (
    FractionalKernel,
    SeparableKernel,
    SumKernel,
    TransformedFractionalKernel,
)
from volgron.measures import Lebesgue, WeightedLebesgue
from volgron.problems import abel_problem
from volgron.resolvent import (
    _FractionalPlan,
    _GridPlan,
    _plan,
    iterated_kernels,
    product_bound,
    resolvent_series,
    series_function_I,
)

LEB = Lebesgue()
DOM = Interval1D(0.0, 1.0)
TOL = 1e-10


def phi(t):
    t = np.asarray(t, dtype=float)
    return t * t + t


def phi_dot(t):
    return 2.0 * np.asarray(t, dtype=float) + 1.0


def transported(alphas, betas=None, f=phi, f_dot=phi_dot):
    betas = (0.0,) * len(alphas) if betas is None else betas
    return TransformedFractionalKernel(phi=f, phi_dot=f_dot, alphas=alphas,
                                       betas=betas, t0=0.0)


def summed(*alphas):
    return SumKernel(tuple(FractionalKernel(a, 0.0) for a in alphas))


def grid(level):
    return QuadratureGrid.for_interval(DOM, level)


# ---------------------------------------------------------------------------
# mpmath references: beta = 0 multinomial layers, summed over n
# ---------------------------------------------------------------------------


def mp_terms(alphas, n):
    """(A, coefficient) over the count vectors of n among the parts."""
    def counts(n, N):
        if N == 1:
            yield (n,)
            return
        for head in range(n + 1):
            for rest in counts(n - head, N - 1):
                yield (head,) + rest

    out = []
    for c in counts(n, len(alphas)):
        coef = mp.factorial(n)
        for ci, a in zip(c, alphas):
            coef *= mp.gamma(mp.mpf(a)) ** ci / mp.factorial(ci)
        out.append((sum(ci * mp.mpf(a) for ci, a in zip(c, alphas)), coef))
    return out


def mp_series(alphas, x, integrated=False, first=1):
    """Sum over n >= first of layer n at gap x, or of its integral over
    gaps in [0, x]."""
    with mp.workdps(30):
        x, total = mp.mpf(x), mp.mpf(0)
        for n in range(first, 400):
            term = sum(c * (x**A / mp.gamma(A + 1) if integrated
                            else x ** (A - 1) / mp.gamma(A))
                       for A, c in mp_terms(alphas, n))
            total += term
            if n > 5 and term < mp.mpf(10) ** -28 * total:
                return float(total)
    raise AssertionError("reference did not converge")


def z(t):
    return float(phi(t))


X9 = z(0.9)           # phi(0.9) - phi(t0), the lower set of 0.9
GAP = z(0.9) - z(0.1)  # the gap of (0.9, 0.1)
DOT = float(phi_dot(0.1))

# (series, reference): each probe is converged within TOL of mpmath
PROBES = {
    "transported 1.5 resolvent": (
        lambda: resolvent_series(transported((1.5,)), LEB, 1.0, 0.9, 0.1),
        lambda: DOT * mp_series((1.5,), GAP)),
    "transported 0.75 resolvent": (
        lambda: resolvent_series(transported((0.75,)), LEB, 1.0, 0.9, 0.1),
        lambda: DOT * mp_series((0.75,), GAP)),
    "transported 0.75 series": (
        lambda: series_function_I(transported((0.75,)), LEB, 1.0, 0.9),
        lambda: mp_series((0.75,), X9, integrated=True)),
    "transported 1.5 series": (
        lambda: series_function_I(transported((1.5,)), LEB, 1.0, 0.9),
        lambda: mp_series((1.5,), X9, integrated=True)),
    "two-part transported resolvent": (
        lambda: resolvent_series(transported((0.8, 1.3)), LEB, 1.0, 0.9,
                                 0.1),
        lambda: DOT * mp_series((0.8, 1.3), GAP)),
    "two-part transported series": (
        lambda: series_function_I(transported((0.8, 1.3)), LEB, 1.0, 0.9),
        lambda: mp_series((0.8, 1.3), X9, integrated=True)),
    "two-part transported 1.5, 2.0 resolvent": (
        lambda: resolvent_series(transported((1.5, 2.0)), LEB, 1.0, 0.9,
                                 0.1),
        lambda: DOT * mp_series((1.5, 2.0), GAP)),
    "sum resolvent": (
        lambda: resolvent_series(summed(1.5, 2.0), LEB, 1.0, 0.9, 0.1),
        lambda: mp_series((1.5, 2.0), 0.8)),
    "sum series": (
        lambda: series_function_I(summed(0.8, 1.3), LEB, 1.0, 0.9),
        lambda: mp_series((0.8, 1.3), 0.9, integrated=True)),
    "transported 0.75 bound at v = 2": (
        lambda: resolvent_bound(2.0, transported((0.75,)), LEB, 1.0, 0.9,
                                DOM),
        lambda: 2.0 * (1.0 + mp_series((0.75,), X9, integrated=True))),
    "sum bound at v = 2": (
        lambda: resolvent_bound(2.0, summed(0.8, 1.3), LEB, 1.0, 0.9, DOM),
        lambda: 2.0 * (1.0 + mp_series((0.8, 1.3), 0.9, integrated=True))),
}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_probe_matches_mpmath(name):
    series, reference = PROBES[name]
    sv, ref = series(), reference()
    assert sv.converged
    assert abs(sv.sum - ref) <= TOL, (sv, ref)


def test_probe_values_are_the_stated_ones():
    # the values stated for the probes, within TOL of mpmath
    stated = {
        "transported 1.5 resolvent": "3.16908867189",
        "transported 0.75 resolvent": "17.1378324861",
        "transported 0.75 series": "11.457248669",
        "transported 1.5 series": "2.31772771417",
        "two-part transported resolvent": "69.65233763",
        "two-part transported series": "34.2600772763",
        "two-part transported 1.5, 2.0 resolvent": "9.762045657",
        "sum resolvent": "2.432401516",
    }
    for name, value in stated.items():
        half_ulp = 0.5 * 10.0 ** -len(value.split(".")[1])
        assert abs(PROBES[name][1]() - float(value)) <= TOL + half_ulp


@pytest.mark.parametrize("alphas", [(0.75,), (1.5,), (0.8, 1.3)])
def test_transported_lipschitz_profile_matches_mpmath(alphas):
    with mp.workdps(30):
        ref = float(sum(mp.mpf(X9) ** a / a for a in alphas))
    got = lipschitz_profile(transported(alphas), LEB, 1.0, 0.9, DOM)
    assert got == pytest.approx(ref, rel=1e-14)


def test_transported_lipschitz_probes_are_the_stated_ones():
    for alphas, value in (((0.75,), 1.9938194092), ((1.5,), 1.49074343869)):
        got = lipschitz_profile(transported(alphas), LEB, 1.0, 0.9, DOM)
        assert got == pytest.approx(value, abs=1e-10)


def test_transported_pole_probe():
    # (alpha, beta) = (0.8, 0.15) at (0.9, 0.3); the stated value agrees
    # with ratio profiles of Chebyshev degree 96, 200 and 256 to 5e-13
    sv = resolvent_series(transported((0.8,), (0.15,)), LEB, 1.0, 0.9, 0.3)
    assert sv.converged
    assert abs(sv.sum - 14.0347419156) <= TOL + 5e-11


# ---------------------------------------------------------------------------
# beta > 0: the fractional kernel in phi coordinates, times phi'(s)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha, beta", [(0.8, 0.15), (0.6, 0.3),
                                         (1.3, 0.2)])
def test_transported_pole_is_the_fractional_kernel_in_phi(alpha, beta):
    kern, frac = transported((alpha,), (beta,)), FractionalKernel(alpha, beta)
    t, s = 0.9, 0.3
    got = resolvent_series(kern, LEB, 1.0, t, s)
    want = resolvent_series(frac, LEB, 1.0, z(t), z(s))
    assert got.converged and want.converged
    dot = float(phi_dot(s))
    assert got.sum == pytest.approx(dot * want.sum, rel=1e-12)
    for n in (1, 2, 3):
        it = float(product_bound([(kern, LEB)], 1.0, n, [t], [s]))
        assert it == pytest.approx(
            dot * float(product_bound([(frac, LEB)], 1.0, n, [z(t)], [z(s)])),
            rel=1e-13)
    # the integrals over s are the fractional ones over z, without phi'
    assert series_function_I(kern, LEB, 1.0, t) == series_function_I(
        frac, LEB, 1.0, z(t))
    assert lipschitz_profile(kern, LEB, 1.0, t, DOM) == lipschitz_profile(
        frac, LEB, 1.0, z(t), Interval1D(0.0, z(1.0)))


# ---------------------------------------------------------------------------
# the plan's entry points against its table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kern", [transported((0.5, 1.0)), summed(0.5, 1.0),
                                  transported((0.75, 1.25))],
                         ids=["transported", "sum", "no-A-one"])
def test_multi_part_iterate_follows_the_table(kern):
    tab = iterated_kernels(kern, LEB, 1.0, 4, grid(3))
    nodes = tab.nodes
    for n in range(1, 5):
        for i, j in ((3, 3), (8, 8), (0, 0), (7, 2), (8, 0)):
            got = float(product_bound([(kern, LEB)], 1.0, n, [nodes[i]],
                                      [nodes[j]]))
            want = tab.value(n, i, j)
            if i == j:  # the small-gap rule: inf, the A = 1 sum or 0
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-13)


def test_many_part_series_stop_at_the_component_budget():
    # layers 1 to n of three parts have comb(n + 3, 3) - 1 multinomial
    # components: 82 layers fit the budget of 100000, 83 do not
    assert math.comb(82 + 3, 3) - 1 <= 100_000 < math.comb(83 + 3, 3) - 1
    kern = summed(0.3, 0.5, 0.7)
    for sv in (resolvent_series(kern, LEB, 1.0, 1.0, 0.0),
               series_function_I(kern, LEB, 1.0, 1.0)):
        assert not sv.converged and sv.terms_used == 82


def test_sum_table_is_the_identity_transport_table():
    ident = transported((0.8, 1.3), f=lambda x: np.asarray(x, dtype=float),
                        f_dot=lambda x: np.ones_like(np.asarray(x, float)))
    a = iterated_kernels(summed(0.8, 1.3), LEB, 1.0, 4, grid(4))
    b = iterated_kernels(ident, LEB, 1.0, 4, grid(4))
    np.testing.assert_array_equal(a.values, b.values)
    assert (a.err_est, a.status) == (b.err_est, b.status) == (0.0, "exact")


@pytest.mark.parametrize("kern", [transported((0.75,)),
                                  transported((0.8, 1.3)),
                                  summed(0.8, 1.3)],
                         ids=["transported", "two-part", "sum"])
def test_picard_certificate_layers_match_mpmath(kern):
    nodes = grid(3).nodes
    spec = EvolutionOperatorSpec(apply=lambda u: 1.0 + 0.1 * u,
                                 lambda_kernel=kern, measure=LEB, p=1.0,
                                 domain=DOM, grid=nodes)
    _, cert = picard_solve(spec, np.zeros(nodes.size), tol=1e-6,
                           n_layers=12)
    alphas = kern.alphas if isinstance(kern, TransformedFractionalKernel) \
        else tuple(k.alpha for k in kern.parts)
    coords = phi(nodes) if isinstance(kern, TransformedFractionalKernel) \
        else nodes
    # w0 = 1: layer i is the integrated multinomial layer over [0, z(t)]
    for j in (2, 5, 8):
        X = float(coords[j])
        for i in (1, 2, 5, 12):
            want = mp_series(alphas, X, integrated=True, first=i) - \
                mp_series(alphas, X, integrated=True, first=i + 1)
            assert cert.b_layers[i - 1][j] == pytest.approx(want, rel=1e-12)
        lam = float(sum(mp.mpf(X) ** a / a for a in alphas))
        assert cert.lambda0_profile[j] == pytest.approx(lam, rel=1e-14)
        # the tail encloses the rest of the series function
        rest = mp_series(alphas, X, integrated=True, first=13)
        assert rest <= cert.tail[j] * (1 + 1e-12)


# ---------------------------------------------------------------------------
# check_vanishing integrates the transported weight
# ---------------------------------------------------------------------------


def test_vanishing_with_an_unbounded_phi_dot_and_u0_is_not_claimed():
    # phi' is unbounded at t0 and u0 = s**-0.6: phi'(s) u0(s) ~ s**-1.1
    # is not integrable, though u0 alone is
    for beta in (0.0, 0.2):
        kern = transported((0.75,), (beta,), f=lambda t: np.sqrt(t) + t,
                           f_dot=lambda t: 0.5 / np.sqrt(t) + 1.0)
        rep = check_vanishing(kern, LEB, 1.0, lambda s: s ** -0.6, 0.9, DOM)
        assert not rep.vanishes


def test_vanishing_reads_the_transported_weight():
    # phi(t) = t**2: phi'(s) u0(s) = 2 s**0.5 for u0 = s**-0.5, so the
    # transported integral is regular where the plain one is singular
    kern = transported((0.75,), f=lambda t: np.asarray(t, float) ** 2,
                       f_dot=lambda t: 2.0 * np.asarray(t, float))
    u0 = lambda s: np.asarray(s, float) ** -0.5  # noqa: E731
    assert check_vanishing(kern, LEB, 1.0, u0, 0.9, DOM).vanishes
    assert not check_vanishing(FractionalKernel(0.75, 0.0), LEB, 1.0, u0,
                               0.9, DOM).vanishes
    bounded = check_vanishing(transported((0.75,), (0.2,)), LEB, 1.0,
                              lambda s: 1.0 + np.asarray(s), 0.9, DOM)
    assert bounded.vanishes


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kern, p", [
    (FractionalKernel(0.75, 0.2), 1.0), (FractionalKernel(0.9, 0.3), 2.0),
    (transported((0.75,)), 1.0), (transported((0.8,), (0.15,)), 1.0),
    (transported((0.8, 1.3)), 1.0), (summed(1.5, 2.0), 1.0),
    (summed(0.7), 1.0)])
def test_the_family_takes_the_fractional_plan(kern, p):
    assert isinstance(_plan(kern, LEB, p), _FractionalPlan)


@pytest.mark.parametrize("kern, p", [
    (transported((0.75,)), 2.0), (transported((0.5, 0.9), (0.1, 0.0)), 1.0)])
def test_uncovered_transports_take_the_grid_without_tables(kern, p):
    assert type(_plan(kern, LEB, p)) is _GridPlan
    with pytest.raises(NotImplementedError):
        iterated_kernels(kern, LEB, p, 2, grid(3))
    sv = resolvent_series(kern, LEB, p, 0.9, 0.5, level=4)
    assert sv.terms_used >= 1


@pytest.mark.parametrize("kern, measure, p", [
    (SumKernel((FractionalKernel(1.5, 0.1), FractionalKernel(2.0, 0.0))),
     LEB, 1.0),
    (SumKernel((FractionalKernel(1.5, 0.0),
                FractionalKernel(2.0, 0.0, t0=0.5))), LEB, 1.0),
    (summed(1.5, 2.0), LEB, 2.0),
    (summed(1.5, 2.0), WeightedLebesgue(lambda s: 1.0 + 0 * s), 1.0),
    (transported((1.5,)), WeightedLebesgue(lambda s: 1.0 + 0 * s), 1.0)])
def test_other_sums_keep_the_grid(kern, measure, p):
    assert type(_plan(kern, measure, p)) is _GridPlan


# ---------------------------------------------------------------------------
# FractionalKernel results as recorded before the merge
# ---------------------------------------------------------------------------


def F(alpha, beta):
    return FractionalKernel(alpha, beta)


def series_pin(sv):
    return (sv.sum.hex(), float(sv.tail_bound).hex(), sv.terms_used,
            sv.converged)


PIN_CALLS = {
    "table b0": lambda: iterated_kernels(F(0.75, 0.0), LEB, 1.0, 3, grid(4)),
    "table b.2": lambda: iterated_kernels(F(0.75, 0.2), LEB, 1.0, 3, grid(3)),
    "table p2": lambda: iterated_kernels(F(0.9, 0.3), LEB, 2.0, 3, grid(3)),
    "resolvent b0": lambda: resolvent_series(F(0.7, 0.0), LEB, 1.0, 1.0, 0.2),
    "resolvent b.1": lambda: resolvent_series(F(0.75, 0.1), LEB, 1.0, 1.0,
                                              0.5),
    "resolvent p2": lambda: resolvent_series(F(0.9, 0.3), LEB, 2.0, 0.9, 0.2),
    "series b0": lambda: series_function_I(F(0.75, 0.0), LEB, 1.0, 0.9),
    "series b0 domain": lambda: series_function_I(F(0.75, 0.0), LEB, 1.0,
                                                  0.9, domain=DOM),
    "series b.2": lambda: series_function_I(F(0.75, 0.2), LEB, 1.0, 0.9),
    "series p1.5": lambda: series_function_I(F(1.2, 0.1), LEB, 1.5, 0.9),
    "bound const": lambda: resolvent_bound(2.0, F(0.75, 0.0), LEB, 1.0, 0.9,
                                           DOM),
    "bound fn": lambda: resolvent_bound(lambda s: 1.0 + np.asarray(s),
                                        F(0.75, 0.0), LEB, 1.0, 0.9, DOM,
                                        level=5),
    "lipschitz b.2": lambda: lipschitz_profile(F(0.75, 0.2), LEB, 1.0, 0.9,
                                               DOM),
    "lipschitz p2": lambda: lipschitz_profile(F(1.2, 0.0), LEB, 2.0, 0.9,
                                              DOM),
    "vanishing": lambda: check_vanishing(F(0.75, 0.2), LEB, 1.0,
                                         lambda s: 1.0 + np.asarray(s), 0.9,
                                         DOM),
    "iterate b.2": lambda: product_bound([(F(0.75, 0.2), LEB)], 1.0, 3,
                                         [0.9], [0.3]),
    "iterate b0": lambda: product_bound([(F(0.75, 0.0), LEB)], 1.0, 2, [0.9],
                                        [0.3]),
}

PINS = {
    'table b0': ('0x1.32b95184360c9p+0', '0x1.9fc6dc87ba4b2p+0', '0x0.0p+0',
                 'exact'),
    'table b.2': ('0x1.d71f5fb1e126ap+0', '0x1.6a18ac97215c8p+1',
                  '0x1.d000000000000p-45', 'certified'),
    'table p2': ('0x1.d5d17a7b1390dp+1', '0x1.3fd623533b023p+3',
                 '0x1.3e00000000000p-41', 'certified'),
    'resolvent b0': ('0x1.ad3b7fe3c53a1p+2', '0x1.1e28f78169e4bp-34', 21,
                     True),
    'resolvent b.1': ('0x1.eec71a025e101p+1', '0x1.2ca2b591c4f69p-35', 19,
                      True),
    'resolvent p2': ('0x1.3aa3f4dfbb9abp+4', '0x1.2f717e7ca4c38p-34', 90,
                     True),
    'series b0': ('0x1.9aefdf5116ca7p+1', '0x1.42f89e05b4bc7p-36', 19, True),
    'series b0 domain': ('0x1.9aefdf5116ca7p+1', '0x1.42f89e05b4bc7p-36', 19,
                         True),
    'series b.2': ('0x1.def43a6b924d6p+2', '0x0.0p+0', 22, False),
    'series p1.5': ('0x1.78f04c8c59952p+0', '0x0.0p+0', 13, False),
    'bound const': ('0x1.0d77efa88b654p+3', '0x1.42f89e05b4bc7p-35', 19,
                    True),
    'bound fn': ('0x1.95d2610a39840p+2', '0x1.8a2f5756bc054p-36', 19, True),
    'lipschitz b.2': '0x1.83c180904e715p+0',
    'lipschitz p2': '0x1.91f4119ba267bp-1',
    'vanishing': (True, 'pole-weighted integral finite'),
    'iterate b.2': '0x1.5f9d096f1d47fp+0',
    'iterate b0': '0x1.4fffcb70e43bfp+0',
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_fractional_kernel_results_are_unchanged(name):
    got = PIN_CALLS[name]()
    if name.startswith("table"):
        t1, t2 = ((2, 12, 4), (3, 16, 0)) if name == "table b0" \
            else ((2, 6, 2), (3, 8, 1))
        got = (got.value(*t1).hex(), got.value(*t2).hex(),
               float(got.err_est).hex(), got.status)
    elif name == "vanishing":
        got = (got.vanishes, got.criterion)
    elif name.startswith(("lipschitz", "iterate")):
        got = float(got).hex()
    else:
        got = series_pin(got)
    assert got == PINS[name]


def test_abel_certificate_is_unchanged():
    prob = abel_problem(alpha=0.75, level=6)
    x, cert = picard_solve(prob.spec, prob.x0, tol=1e-8)
    got = tuple(float(v).hex() for v in (
        x[-1], cert.b_layers[0][-1], cert.b_layers[3][5], cert.tail[-1],
        cert.lambda0_profile[-1])) + (cert.iterates, cert.converged)
    assert got == ('0x1.fffffff0da59ep-1', '0x1.5555555555555p+0',
                   '0x1.77d2d0d3acc48p-13', '0x1.a324444a2cb30p-154',
                   '0x1.5555555555553p+0', 18, True)


# ---------------------------------------------------------------------------
# the closed forms integrate from the domain's lower end
# ---------------------------------------------------------------------------


def test_beta_zero_reads_the_domain_lower_end():
    kern = FractionalKernel(0.75, 0.0, t0=0.5)
    assert lipschitz_profile(kern, LEB, 1.0, 1.0, DOM) == pytest.approx(
        4.0 / 3.0, rel=1e-14)
    # a beta = 0 kernel depends on the gap only: the t0 = 0 value
    ref = mp_series((0.75,), 1.0, integrated=True)
    assert ref == pytest.approx(3.82416493343853846, rel=1e-15)
    sv = series_function_I(kern, LEB, 1.0, 1.0, domain=DOM)
    assert sv.converged and abs(sv.sum - ref) <= TOL
    bound = resolvent_bound(1.0, kern, LEB, 1.0, 1.0, DOM)
    assert bound.converged and abs(bound.sum - (1.0 + ref)) <= TOL
    short = lipschitz_profile(FractionalKernel(0.75, 0.0), LEB, 1.0, 1.0,
                              Interval1D(0.5, 1.0))
    assert short == pytest.approx(0.5**0.75 / 0.75, rel=1e-14)


def test_beta_zero_certificate_starts_at_the_domain_lower_end():
    nodes = grid(3).nodes
    spec = EvolutionOperatorSpec(apply=lambda u: 1.0 + 0.1 * u,
                                 lambda_kernel=FractionalKernel(0.75, 0.0,
                                                                t0=0.5),
                                 measure=LEB, p=1.0, domain=DOM, grid=nodes)
    _, cert = picard_solve(spec, np.zeros(nodes.size), tol=1e-6, n_layers=8)
    for j in (1, 4, 8):
        X = float(nodes[j])
        for i in (1, 3):
            want = math.gamma(0.75) ** i * X ** (0.75 * i) \
                / math.gamma(0.75 * i + 1.0)
            assert cert.b_layers[i - 1][j] == pytest.approx(want, rel=1e-13)
        assert cert.tail[j] > 0.0


def test_a_pole_below_the_domain_lower_end():
    kern = FractionalKernel(0.75, 0.2, t0=0.5)
    # the kernel is inf below t0
    assert lipschitz_profile(kern, LEB, 1.0, 1.0, DOM) == math.inf
    assert series_function_I(kern, LEB, 1.0, 1.0, domain=DOM).sum == math.inf
    # above t0 the value on [t0, t] is kept, an upper bound
    inner = Interval1D(0.7, 1.0)
    assert lipschitz_profile(kern, LEB, 1.0, 1.0, inner) == \
        lipschitz_profile(kern, LEB, 1.0, 1.0, Interval1D(0.5, 1.0))
    assert series_function_I(kern, LEB, 1.0, 1.0, domain=inner) == \
        series_function_I(kern, LEB, 1.0, 1.0)


# ---------------------------------------------------------------------------
# rank-one series without a monotone flag
# ---------------------------------------------------------------------------


def test_rank_one_series_without_monotone_flag_converges():
    kern = SeparableKernel(lambda t: 2.0 - t, lambda s: 1.0 + 0.0 * s,
                           k0_monotone="decreasing")
    sv = series_function_I(kern, LEB, 1.0, 0.9, domain=DOM)
    finer = series_function_I(kern, LEB, 1.0, 0.9, domain=DOM, level=9)
    # I(t) = integral over [0, t] of (2 - t) exp(Phi(s, t)) ds with
    # Phi(s, t) the integral of 2 - u over [s, t]
    big_f = lambda u: 2 * u - u * u / 2  # noqa: E731
    with mp.workdps(30):
        ref = float(mp.quad(lambda s: (2 - mp.mpf("0.9"))
                            * mp.exp(big_f(mp.mpf("0.9")) - big_f(s)),
                            [0, mp.mpf("0.9")]))
    assert ref == pytest.approx(2.0184447964174, abs=1e-13)
    assert sv.converged and sv.terms_used < 400
    # within tol plus the level-9 quadrature error of the series terms
    assert abs(sv.sum - ref) <= TOL + abs(sv.sum - finer.sum)


# ---------------------------------------------------------------------------
# CLI: a kernel off its measure exits 1 with one line
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cfg, words", [
    ({"domain": {"type": "interval", "lo": 0.0, "hi": 1.0},
      "measure": {"type": "lebesgue"},
      "kernel": {"family": "void", "c": 0.5}}, "atoms"),
    ({"domain": {"type": "box", "factors": [{"lo": 0.0, "hi": 1.0},
                                             {"lo": 0.0, "hi": 1.0}]},
      "measure": {"type": "discrete", "atoms": [[0.0, 0.5], [0.5, 0.5]]},
      "kernel": {"family": "product", "factors": [
          {"family": "constant", "c": 1.2},
          {"family": "constant", "c": 1.2}]}}, "box tables"),
], ids=["void-on-lebesgue", "product-on-atoms"])
def test_cli_resolvent_with_a_kernel_off_its_measure_exits_1(cfg, words,
                                                              capsys):
    code = main(["resolvent", "--grid-level", "3", "--config",
                 json.dumps(cfg)])
    err = capsys.readouterr().err
    assert code == 1 and len(err.splitlines()) == 1, err
    assert words in err
