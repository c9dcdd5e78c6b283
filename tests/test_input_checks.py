"""Bad v, v0 and tol raise one ``ValueError`` at every entry point, and
the values the code works out for itself (a plan's ``discrete``, the
one-part gamma quotient) are the ones it was given before."""

import math

import numpy as np
import pytest

from volgron import cli
from volgron.domains import Interval1D, VoidSet
from volgron.fixpoint import EvolutionOperatorSpec, picard_solve
from volgron.gronwall import (GronwallInput, fractional_box_sup_bound,
                              gronwall_bound, gronwall_curve,
                              gronwall_sequence_bound, resolvent_bound)
from volgron.kernels import (CallableKernel, FractionalKernel, ProductKernel,
                             SumKernel, VoidKernel, constant_kernel)
from volgron.measures import (DiscreteMeasure, Lebesgue, ProductMeasure,
                              WeightedLebesgue)
from volgron.quadrature import integrate, integrate_singular
from volgron.resolvent import (FractionalResolventParams, _gap_limit, _plan,
                               fractional_f, resolvent_series,
                               series_function_I)
from volgron.specfun import MLParams, SeriesValue, ln_gamma, mittag_leffler

DOM = Interval1D(0.0, 1.0)
ATOMS = DiscreteMeasure(((0.2, 0.5), (0.6, 0.5)))
KERNELS = {
    "grid": (CallableKernel(lambda T, S: 1.0 + T - S, monotone_flag=True),
             Lebesgue()),
    "atoms": (constant_kernel(2.0), ATOMS),
    "rank-one": (constant_kernel(2.0), Lebesgue()),
    "fractional": (FractionalKernel(0.75, 0.0), Lebesgue()),
    "pole": (FractionalKernel(0.75, 0.2), Lebesgue()),
    "sum": (SumKernel((FractionalKernel(0.5, 0.0),
                       FractionalKernel(0.75, 0.0))), Lebesgue()),
}
BAD_V = {
    "negative": -1.0,
    "nan": math.nan,
    "negative-function": lambda s: np.asarray(s) - 0.5,
    "nan-function": lambda s: np.where(np.asarray(s) < 0.3, math.nan, 1.0),
}


@pytest.mark.parametrize("v", sorted(BAD_V))
@pytest.mark.parametrize("family", sorted(KERNELS))
def test_resolvent_bound_rejects_a_bad_v(family, v):
    kernel, measure = KERNELS[family]
    with pytest.raises(ValueError, match="^v must be nonnegative"):
        resolvent_bound(BAD_V[v], kernel, measure, 1.0, 0.9, DOM, level=4)


def test_void_bound_rejects_a_bad_v():
    kern = VoidKernel(lambda s: 0.5 + 0 * s)
    with pytest.raises(ValueError, match="^v must be nonnegative"):
        resolvent_bound(-1.0, kern, ATOMS, 1.0, 0.6, VoidSet())


def test_infinite_constant_v_gives_the_grid_paths_value():
    kern = FractionalKernel(0.75, 0.0)
    got = resolvent_bound(math.inf, kern, Lebesgue(), 1.0, 0.9, DOM)
    # under a weighted measure the same kernel takes the grid
    grid = resolvent_bound(math.inf, kern, WeightedLebesgue(np.ones_like),
                           1.0, 0.9, DOM, level=4)
    assert got == grid == SeriesValue(math.inf, math.inf, 1, False)


@pytest.mark.parametrize("v0", sorted(BAD_V))
def test_gronwall_rejects_a_bad_v0(v0):
    bad = BAD_V[v0]
    with pytest.raises(ValueError, match="^v0 must be nonnegative"):
        inp = GronwallInput(v0=bad, k=constant_kernel(1.0),
                            measure=Lebesgue(), p=1.0, domain=DOM)
        gronwall_bound(inp, 0.9, level=4)
    if callable(bad):
        # t = 0 has a null lower set: v0(0) is the whole bound
        for call in (lambda: gronwall_curve(inp, [0.5, 0.9], level=4),
                     lambda: gronwall_sequence_bound(inp, 1.0, 3, 0.9, 4),
                     lambda: gronwall_bound(inp, 0.0)):
            with pytest.raises(ValueError, match="^v0 must be nonnegative"):
                call()


def test_void_gronwall_rejects_a_bad_v0():
    inp = GronwallInput(v0=lambda t: -np.ones_like(t),
                        k=VoidKernel(lambda s: 0.5 + 0 * s), measure=ATOMS,
                        p=1.0, domain=VoidSet())
    with pytest.raises(ValueError, match="^v0 must be nonnegative"):
        gronwall_bound(inp, 0.6)


def _picard(tol):
    op = EvolutionOperatorSpec(
        apply=lambda x: x / 2, lambda_kernel=constant_kernel(0.5),
        measure=Lebesgue(), domain=DOM, p=1.0,
        grid=np.linspace(0.0, 1.0, 9))
    return picard_solve(op, np.ones(9), tol)


ENTRY_POINTS = {
    "resolvent_series": lambda tol: resolvent_series(
        constant_kernel(1.0), Lebesgue(), 1.0, 0.9, 0.1, tol=tol),
    "series_function_I": lambda tol: series_function_I(
        constant_kernel(1.0), Lebesgue(), 1.0, 0.9, DOM, tol=tol),
    "resolvent_bound": lambda tol: resolvent_bound(
        1.0, constant_kernel(1.0), Lebesgue(), 1.0, 0.9, DOM, tol=tol),
    "gronwall_bound": lambda tol: gronwall_bound(GronwallInput(
        v0=1.0, k=constant_kernel(1.0), measure=Lebesgue(), p=1.0,
        domain=DOM), 0.9, tol=tol),
    "gronwall_curve": lambda tol: gronwall_curve(GronwallInput(
        v0=1.0, k=constant_kernel(1.0), measure=Lebesgue(), p=1.0,
        domain=DOM), [0.9], tol=tol),
    "mittag_leffler": lambda tol: mittag_leffler(MLParams(1.0, 1.0), 1.0,
                                                 tol=tol),
    "integrate": lambda tol: integrate(lambda x: x, DOM, Lebesgue(), tol=tol),
    "integrate_singular": lambda tol: integrate_singular(
        lambda x: x, 0.5, 1.0, tol=tol),
    "fractional_box_sup_bound": lambda tol: fractional_box_sup_bound(
        1.0, [0.5], [0.0], 1.0, [1.0], [0.0], 1.0, tol=tol),
    "picard_solve": _picard,
}


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_public_tol_must_be_positive(entry, tol):
    with pytest.raises(ValueError, match="^tol must be positive$"):
        ENTRY_POINTS[entry](tol)


@pytest.mark.parametrize("argv, word", [
    (["ml", "--alpha", "1", "--beta", "1", "--z", "1", "--tol", "nan"],
     "tol"),
    (["ml", "--alpha", "1", "--beta", "1", "--z", "1", "--tol", "0"], "tol"),
    (["gronwall", "--config", '{"domain": {"type": "interval", "lo": 0.0, '
      '"hi": 1.0}, "measure": {"type": "lebesgue"}, "kernel": {"family": '
      '"constant", "c": 1.0}, "params": {"p": 1.0, "v0": -1}}'], "v0"),
    (["gronwall", "--config", '{"domain": {"type": "interval", "lo": 0.0, '
      '"hi": 1.0}, "measure": {"type": "lebesgue"}, "kernel": {"family": '
      '"constant", "c": 1.0}, "params": {"p": 1.0, "v0": NaN}}'], "v0"),
])
def test_cli_bad_tol_or_v0_exits_1_with_one_line(capsys, argv, word):
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"volgron: bad argument: "
                                                   f"{word} must be")


# ---------------------------------------------------------------------------
# values the code works out for itself
# ---------------------------------------------------------------------------


def test_plans_work_out_whether_their_measure_is_discrete():
    assert _plan(constant_kernel(1.0), ATOMS, 1.0).discrete
    assert not _plan(CallableKernel(lambda T, S: 1.0 + 0 * T), Lebesgue(),
                     1.0).discrete
    assert _plan(VoidKernel(lambda s: 0.5 + 0 * s), ATOMS, 1.0).discrete
    box = ProductKernel((constant_kernel(1.0), constant_kernel(1.0)))
    assert not _plan(box, ProductMeasure((Lebesgue(), Lebesgue())),
                     1.0).discrete


def old_fractional_f(params, n, x, y):
    """The replaced beta = 0 branch: its own gamma quotient."""
    if x == 0.0:
        return _gap_limit_beta0(params, n)
    ap = params.alpha_p
    return math.exp(n * ln_gamma(ap) - ln_gamma(ap * n)
                    + (ap * n - 1.0) * math.log(x))


def _gap_limit_beta0(params, n):
    ap = params.alpha_p
    if ap * n != 1.0:
        return 0.0 if ap * n > 1.0 else math.inf
    return math.exp(n * ln_gamma(ap) - ln_gamma(ap * n))


def test_one_part_gamma_quotient_keeps_its_bits():
    rng = np.random.default_rng(20)
    for _ in range(2000):
        p = float(rng.uniform(1.0, 3.0))
        alpha = float(rng.uniform(1.0 - 1.0 / p + 1e-6, 1.0 + 1.5 / p))
        params = FractionalResolventParams(alpha, 0.0, p)
        n = int(rng.integers(1, 60))
        x = 0.0 if rng.random() < 0.1 else float(10 ** rng.uniform(-8, 3))
        got = fractional_f(params, n, x, 0.5)
        assert type(got) is float
        assert got.hex() == old_fractional_f(params, n, x, 0.5).hex()
    # alpha_p n = 1 exactly: the diagonal is the gamma quotient itself
    params = FractionalResolventParams(0.5, 0.0, 1.0)
    assert fractional_f(params, 2, 0.0, 1.0).hex() == \
        _gap_limit_beta0(params, 2).hex()
    # with a pole the small-gap limit keeps its y**(-beta_p n)
    pole = FractionalResolventParams(0.5, 0.25, 1.0)
    assert _gap_limit(pole, 2, 0.3).hex() == math.exp(
        2 * ln_gamma(0.5) - ln_gamma(1.0)
        - 0.25 * 2 * math.log(0.3)).hex()


def test_fractional_plan_iterates_read_the_gamma_quotient():
    kern = FractionalKernel(0.75, 0.0)
    plan = _plan(kern, Lebesgue(), 2.0)
    params = FractionalResolventParams(0.75, 0.0, 2.0)
    for n in (1, 2, 7, 30):
        assert plan.iterate(n, 0.9, 0.2, 6).hex() == old_fractional_f(
            params, n, 0.9 - 0.2, 0.2).hex()
