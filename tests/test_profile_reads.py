"""The ratio profile of fractional kernels with a pole reads each layer
where it is used: a layer's values at the ratios of a table or a series
term are one quadrature step on the layer below, and an interpolant is
built only for a layer stepped from or read at many ratios.  The
always-interpolating profile it replaced is kept here as the reference.
Also: the pole corner of fractional kernels, one class check for
fractional exponents, and the CLI on a closed pipe."""

import math
import os
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest

from volgron import resolvent
from volgron.domains import Interval1D, QuadratureGrid
from volgron.kernels import (
    FractionalKernel,
    TransformedFractionalKernel,
    _fractional_values,
)
from volgron.measures import Lebesgue
from volgron.resolvent import (
    _TABLE_RULES,
    FractionalResolventParams,
    _chebval,
    _ext_mul,
    _FractionalProfile,
    _gap_limit,
    _jacobi_rule,
    _tril_mask,
    fractional_f,
    iterated_kernels,
    resolvent_series,
)

DOM = Interval1D(0.0, 1.0)
N_MAX = 3


def grid(level):
    return QuadratureGrid.for_interval(DOM, level)


# ---------------------------------------------------------------------------
# reference: the profile that advances every layer it reads
# ---------------------------------------------------------------------------


class InterpolatedProfile(_FractionalProfile):
    """The replaced reads: advance the full Chebyshev profile up to layer
    n, then interpolate it at every ratio with numpy's ``chebval``."""

    def _psi_at(self, n, r):
        u = np.clip(np.log(np.maximum(r, 1e-300)), self.u_lo, self.u_hi)
        unit = (2.0 * u - (self.u_lo + self.u_hi)) / (self.u_hi - self.u_lo)
        return np.polynomial.chebyshev.chebval(unit, self._coefs[n])

    def advance(self):
        ap, bp = self.params.alpha_p, self.params.beta_p
        n = self.n_layers
        lam, w = _jacobi_rule(self.jacobi_nodes, ap - 1.0, ap * n - 1.0)
        z = lam[:, None] * self._rs[None, :]
        psi_next = w @ ((1.0 + z) ** (-bp) * self._psi_at(n, z))
        self._coefs.append(self._fit @ psi_next)

    def f(self, n, x, y):
        while self.n_layers < n:
            self.advance()
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                                   np.asarray(y, dtype=float))
        tau = self.params.alpha_p * n - 1.0
        return (x**tau * y ** (-self.params.beta_p * n)
                * self._psi_at(n, x / y))


def ref_gap_tables(params, z, z0, n_max):
    """The replaced gap tables: both rules read through
    ``InterpolatedProfile.f``."""
    m = z.size
    y = z - z0
    live = y > 0
    layers = np.zeros((n_max, m, m))
    layers[:, _tril_mask(m) & ~live[None, :]] = np.inf
    cols = np.flatnonzero(live)
    for n in range(1, n_max + 1):
        layers[n - 1, cols, cols] = (_gap_limit(params, n, 1.0)
                                     * y[cols] ** (-params.beta_p * n))
    ii, jj = np.nonzero(np.tril(_tril_mask(m) & live[None, :], -1))
    xs, ys = z[ii] - z[jj], y[jj]
    r_max = float(np.max(xs / ys))
    lo, hi = (InterpolatedProfile(params, r_max, deg, nodes)
              for deg, nodes in _TABLE_RULES)
    err = 0.0
    for n in range(1, n_max + 1):
        vals = hi.f(n, xs, ys)
        layers[n - 1, ii, jj] = vals
        diff = np.abs(vals - lo.f(n, xs, ys))
        finite = np.isfinite(diff)
        if np.any(finite):
            err = max(err, float(np.max(diff[finite])))
    return layers, err


def close_tables(got, want, rtol=1e-13):
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    np.testing.assert_allclose(got[finite], want[finite], rtol=rtol, atol=0)


def transported(alpha, beta):
    return TransformedFractionalKernel(phi=np.expm1, phi_dot=np.exp,
                                       alphas=(alpha,), betas=(beta,),
                                       t0=0.0)


SWEEP = [(a, b, p) for a in (0.5, 0.75, 0.9) for b in (0.05, 0.2)
         for p in (1.0, 1.5)]


# ---------------------------------------------------------------------------
# values against the reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("level", (2, 3, 4, 5))
@pytest.mark.parametrize("alpha, beta, p", SWEEP)
def test_fractional_table_matches_interpolated_reference(alpha, beta, p,
                                                         level):
    kern = FractionalKernel(alpha, beta)
    try:
        params = FractionalResolventParams(alpha, beta, p)
    except ValueError:
        with pytest.raises(ValueError):
            iterated_kernels(kern, Lebesgue(), p, N_MAX, grid(level))
        return
    want, want_err = ref_gap_tables(params, grid(level).nodes, 0.0, N_MAX)
    tab = iterated_kernels(kern, Lebesgue(), p, N_MAX, grid(level))
    close_tables(tab.values, want)
    assert tab.status == "certified"
    assert 0.0 < tab.err_est < 2.0 * want_err


@pytest.mark.parametrize("level", (2, 3, 4, 5))
@pytest.mark.parametrize("alpha, beta, p", SWEEP)
def test_transported_table_matches_interpolated_reference(alpha, beta, p,
                                                          level):
    kern, nodes = transported(alpha, beta), grid(level).nodes
    if p != 1.0:
        with pytest.raises(NotImplementedError):
            iterated_kernels(kern, Lebesgue(), p, N_MAX, grid(level))
        return
    params = FractionalResolventParams(alpha, beta, 1.0)
    gap, gap_err = ref_gap_tables(params, np.expm1(nodes), 0.0, N_MAX)
    dot = np.exp(nodes)
    tab = iterated_kernels(kern, Lebesgue(), p, N_MAX, grid(level))
    close_tables(tab.values, _ext_mul(gap, dot[None, None, :]))
    assert tab.status == "certified"
    assert 0.0 < tab.err_est < 2.0 * gap_err * float(dot.max())


def test_err_est_drops_the_interpolation_error():
    # the two rules read layer 3 by direct steps: err_est is mostly their
    # rule difference, without the interpolants' own error
    params = FractionalResolventParams(0.75, 0.2, 1.0)
    _, want_err = ref_gap_tables(params, grid(3).nodes, 0.0, N_MAX)
    tab = iterated_kernels(FractionalKernel(0.75, 0.2), Lebesgue(), 1.0,
                           N_MAX, grid(3))
    assert tab.err_est < 1e-13 < want_err


@pytest.mark.parametrize("alpha, beta, p", [(0.75, 0.2, 1.0),
                                            (0.9, 0.05, 1.5),
                                            (0.5, 0.1, 1.0)])
def test_fractional_f_matches_interpolated_reference(alpha, beta, p,
                                                     monkeypatch):
    params = FractionalResolventParams(alpha, beta, p)
    points = [(0.7, 0.4), (0.05, 0.9), (0.3, 0.3), (1.0, 0.5)]
    got = [fractional_f(params, n, x, y) for n in range(1, 8)
           for x, y in points]
    monkeypatch.setattr(resolvent, "_FractionalProfile", InterpolatedProfile)
    want = [fractional_f(params, n, x, y) for n in range(1, 8)
            for x, y in points]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_heavy_series_matches_interpolated_reference(monkeypatch):
    args = (FractionalKernel(0.75, 0.1), Lebesgue(), 1, 1.0, 0.5)
    got = resolvent_series(*args, tol=1e-10)
    monkeypatch.setattr(resolvent, "_FractionalProfile", InterpolatedProfile)
    want = resolvent_series(*args, tol=1e-10)
    assert got.converged and want.converged
    assert got.terms_used == want.terms_used == 19
    assert got.sum == pytest.approx(want.sum, rel=1e-13)
    assert got.tail_bound == want.tail_bound


@pytest.mark.parametrize("alpha, beta", [(0.75, 0.2), (0.9, 0.1)])
def test_layer_two_against_mpmath(alpha, beta):
    # f_2(x, y) = integral over (0, x) of (x - v)**(alpha - 1)
    #             * v**(alpha - 1) * (y + v)**(-beta) dv * y**(-beta)
    # at ratio 200 the interpolated layer 2 was off by up to 8e-11
    params = FractionalResolventParams(alpha, beta, 1.0)
    for x, y in [(0.7, 0.4), (0.125, 0.5), (3.0, 0.25), (2.0, 0.01)]:
        with mp.workdps(30):
            oracle = mp.quad(lambda v: (x - v) ** (alpha - 1)
                             * v ** (alpha - 1) * (y + v) ** (-beta),
                             [0, x / 2, x]) * mp.mpf(y) ** (-beta)
        assert fractional_f(params, 2, x, y) == pytest.approx(
            float(oracle), rel=1e-13)


# ---------------------------------------------------------------------------
# what is built
# ---------------------------------------------------------------------------


def count_builds(monkeypatch, cls):
    builds = {}
    advance = cls.advance

    def spy(self):
        builds[id(self)] = builds.get(id(self), 0) + 1
        advance(self)

    monkeypatch.setattr(cls, "advance", spy)
    return builds


@pytest.mark.parametrize("level, per_profile", [(3, 1), (4, 1), (5, 2)])
def test_table_builds_only_layers_it_steps_from(level, per_profile,
                                                monkeypatch):
    # level 3 and 4 tables read layer 3 at 21 and 79 ratios, fewer than
    # the Chebyshev points of either rule: only layer 2 is built (the
    # always-interpolating profile built layers 2 and 3); level 5 reads
    # 323 ratios and builds layer 3 as well
    builds = count_builds(monkeypatch, _FractionalProfile)
    iterated_kernels(FractionalKernel(0.75, 0.2), Lebesgue(), 1.0, N_MAX,
                     grid(level))
    assert sorted(builds.values()) == [per_profile] * len(_TABLE_RULES)


def test_series_term_builds_the_layer_below(monkeypatch):
    # term n is one step on layer n - 1: 19 terms build layers 2..18
    builds = count_builds(monkeypatch, _FractionalProfile)
    sv = resolvent_series(FractionalKernel(0.75, 0.1), Lebesgue(), 1, 1.0,
                          0.5, tol=1e-10)
    assert list(builds.values()) == [sv.terms_used - 2]


@pytest.mark.parametrize("shape", [(1,), (7,), (224, 21), (160, 96)])
@pytest.mark.parametrize("size", (2, 3, 96, 128))
def test_in_place_clenshaw_is_chebval(shape, size):
    rng = np.random.default_rng(size)
    x = rng.uniform(-1.0, 1.0, shape)
    c = rng.standard_normal(size) * np.exp(-0.1 * np.arange(size))
    np.testing.assert_array_equal(_chebval(x, c),
                                  np.polynomial.chebyshev.chebval(x, c))


def test_direct_read_and_interpolant_agree():
    params = FractionalResolventParams(0.75, 0.2, 1.0)
    r = np.array([1e-3, 0.1, 0.5, 1.0])
    direct = _FractionalProfile(params, 1.0)
    built = _FractionalProfile(params, 1.0)
    for n in range(2, 6):
        a = direct.psi(n, r)
        assert direct.n_layers == n - 1
        built.advance()
        np.testing.assert_allclose(a, built.psi(n, r), rtol=1e-13)
        np.testing.assert_array_equal(a, built._step(n - 1, r))


# ---------------------------------------------------------------------------
# the pole corner: 0 * inf = 0
# ---------------------------------------------------------------------------


def ref_fractional_values(alpha, beta, x, y):
    """The replaced formula, NaN at the corner of x = 0 with alpha > 1 and
    y = 0 with beta > 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        vx = np.where(x > 0, x ** (alpha - 1.0),
                      1.0 if alpha == 1.0 else
                      (0.0 if alpha > 1.0 else np.inf))
        vy = np.where(y > 0, y ** (-beta), 1.0 if beta == 0.0 else np.inf)
        return vx * vy


@pytest.mark.parametrize("alpha, beta, corner", [
    (1.3, 0.1, 0.0), (1.0, 0.1, math.inf), (0.6, 0.1, math.inf),
    (1.3, 0.0, 0.0), (0.6, 0.0, math.inf),
])
def test_pole_corner_follows_zero_times_inf(alpha, beta, corner):
    kernels = (FractionalKernel(alpha, beta),
               TransformedFractionalKernel(phi=lambda x: x,
                                           phi_dot=np.ones_like,
                                           alphas=(alpha,), betas=(beta,),
                                           t0=0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kern in kernels:
            assert float(kern.eval_grid(0.0, 0.0)) == corner
            assert kern.eval(0.0, 0.0).value == corner


@pytest.mark.parametrize("alpha", (0.4, 1.0, 1.3, 2.5))
@pytest.mark.parametrize("beta", (0.0, 0.1, 0.7))
def test_fractional_values_off_the_corner_unchanged(alpha, beta):
    t = np.linspace(0.0, 1.0, 13)
    T, S = np.meshgrid(t, t, indexing="ij")
    off = (T != 0.0) | (S != 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _fractional_values(alpha, beta, T - S, S)
    np.testing.assert_array_equal(
        got[off], ref_fractional_values(alpha, beta, T - S, S)[off])


# ---------------------------------------------------------------------------
# one class check for fractional exponents
# ---------------------------------------------------------------------------


def accepts(check) -> bool:
    try:
        check()
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("p", (1.0, 1.5, 2.0, 3.0))
def test_kernel_and_params_class_checks_agree(p):
    for alpha in np.linspace(0.05, 2.0, 40):
        alpha = float(alpha)
        bound = ((alpha - 1.0) * p + 1.0) / p
        for beta in (0.0, 0.3, alpha, bound, math.nextafter(bound, 0.0),
                     math.nextafter(bound, math.inf), 0.5 * bound):
            if beta < 0:
                continue
            kern = FractionalKernel(alpha, beta)
            assert accepts(lambda: kern.require_p(p)) == accepts(
                lambda: FractionalResolventParams(alpha, beta, p)), \
                (alpha, beta, p)


def test_class_boundary_is_refused_at_p_one():
    with pytest.raises(ValueError, match="beta \\+ 1 - 1/p < alpha"):
        FractionalKernel(0.3, 0.3).require_p(1.0)
    with pytest.raises(ValueError, match="need beta\\*p"):
        FractionalResolventParams(0.3, 0.3, 1.0)
    assert FractionalResolventParams(0.3, 0.2, 1.0).alpha_p == 0.3


def test_alpha_p_unchanged_from_half_up_or_off_p_one():
    # (alpha - 1) + 1 is exact for alpha >= 1/2 (Sterbenz), so alpha_p = alpha
    # changes nothing there; off p = 1 the formula is the same
    for alpha in np.linspace(0.5, 2.0, 57):
        alpha = float(alpha)
        assert FractionalResolventParams(alpha, 0.0, 1.0).alpha_p == \
            (alpha - 1.0) * 1.0 + 1.0
        for p in (1.5, 2.0, 3.0):
            if (alpha - 1.0) * p + 1.0 > 0.0:
                assert FractionalResolventParams(alpha, 0.0, p).alpha_p == \
                    (alpha - 1.0) * p + 1.0


# ---------------------------------------------------------------------------
# the CLI on a pipe closed early
# ---------------------------------------------------------------------------


def test_cli_closed_pipe_exits_one_without_traceback():
    # a level-8 table is megabytes of CSV, more than any pipe buffer holds
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         os.environ.get("PYTHONPATH", "")]))
    cfg = os.path.join(os.path.dirname(__file__), "..", "demos", "configs",
                       "constant.json")
    proc = subprocess.Popen(
        [sys.executable, "-m", "volgron", "resolvent", "--config", cfg,
         "--grid-level", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"n,t,s,value\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert stderr == b""
