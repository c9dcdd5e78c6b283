"""Independent reference values for the benchmark's requests.

Nothing here calls volgron.  Every reference comes from a closed form, a
direct term sum in 40-digit arithmetic (mpmath), an exact discrete fixed
point (``numpy.linalg.solve``) or adaptive quadrature
(``scipy.integrate.quad``), so a change to the program cannot move its own
yardstick.

Kernels with closed-form iterates are described by ``SepSpec``: every
kernel the interval workloads use (constant, separable, sums of
constants, multiplicative exponentials and callables of separable shape)
has the form ``k(t, s) = k0(t) * k1(s)``, so with ``A = k0**p``,
``B = k1**p`` and a weight ``w`` of the measure,

    R_n(t, s) = A(t) B(s) (G(t) - G(s))**(n-1) / (n-1)!,  G' = A B w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import mpmath as mp
import numpy as np

mp.mp.dps = 40

_STOP = mp.mpf("1e-36")


# ---------------------------------------------------------------------------
# polynomials with mpf coefficients, lowest degree first
# ---------------------------------------------------------------------------


def _pmul(a, b):
    out = [mp.mpf(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _ppow(a, k: int):
    out = [mp.mpf(1)]
    for _ in range(k):
        out = _pmul(out, a)
    return out


def _pint(a):
    return [mp.mpf(0)] + [c / (i + 1) for i, c in enumerate(a)]


def _pval(a, x):
    acc = mp.mpf(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# separable kernels on an interval
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SepSpec:
    """``k(t, s) = k0(t) k1(s)`` against the weight ``1 + e x``.

    ``shape`` is ``"poly"`` with ``k0 = 1 + a t`` and ``k1 = b (1 + d s)``
    or ``"exp"`` with ``k0 = exp(r t)`` and ``k1 = exp(-r s)``.
    """

    shape: str
    a: float = 0.0
    b: float = 1.0
    d: float = 0.0
    r: float = 0.0
    e: float = 0.0
    p: int = 1

    # exact mp pieces -------------------------------------------------------
    def A(self, t):
        t = mp.mpf(t)
        if self.shape == "exp":
            return mp.exp(self.p * mp.mpf(self.r) * t)
        return (1 + mp.mpf(self.a) * t) ** self.p

    def B(self, s):
        s = mp.mpf(s)
        if self.shape == "exp":
            return mp.exp(-self.p * mp.mpf(self.r) * s)
        return (mp.mpf(self.b) * (1 + mp.mpf(self.d) * s)) ** self.p

    def w(self, x):
        return 1 + mp.mpf(self.e) * mp.mpf(x)

    def _w_poly(self):
        return [mp.mpf(1), mp.mpf(self.e)]

    def G_poly(self):
        """Antiderivative of A B w (A B = 1 for the exponential shape)."""
        if self.shape == "exp":
            return _pint(self._w_poly())
        ab = _pmul([mp.mpf(1), mp.mpf(self.a)],
                   [mp.mpf(self.b), mp.mpf(self.b) * mp.mpf(self.d)])
        return _pint(_pmul(_ppow(ab, self.p), self._w_poly()))

    def H_poly(self):
        """Antiderivative of B w, for the poly shape."""
        bp = _ppow([mp.mpf(self.b), mp.mpf(self.b) * mp.mpf(self.d)], self.p)
        return _pint(_pmul(bp, self._w_poly()))

    @property
    def a_const(self) -> bool:
        return self.shape == "poly" and self.a == 0.0

    # float layers ------------------------------------------------------------
    def layers(self, nodes: np.ndarray, n_max: int) -> np.ndarray:
        """Closed-form layers ``R_1..R_{n_max}`` on the lower triangle."""
        G = np.array([float(_pval(self.G_poly(), mp.mpf(float(x))))
                      for x in nodes])
        A = np.array([float(self.A(x)) for x in nodes])
        B = np.array([float(self.B(x)) for x in nodes])
        D = np.tril(G[:, None] - G[None, :])
        base = np.tril(A[:, None] * B[None, :])
        out = np.empty((n_max,) + D.shape)
        for n in range(1, n_max + 1):
            out[n - 1] = base * D ** (n - 1) / math.factorial(n - 1)
        return out

    # series ------------------------------------------------------------------
    def resolvent(self, t: float, s: float):
        """Sum of all iterates at (t, s): ``A(t) B(s) exp(G(t) - G(s))``."""
        G = self.G_poly()
        return self.A(t) * self.B(s) * mp.exp(_pval(G, mp.mpf(t))
                                              - _pval(G, mp.mpf(s)))

    def series_I(self, t: float, lo: float = 0.0):
        """Sum over n of (integral over [lo, t] of R_n(t, s) mu(ds))**(1/p)."""
        G = self.G_poly()
        Gt = _pval(G, mp.mpf(t))
        root = mp.mpf(1) / self.p
        total = mp.mpf(0)
        if self.a_const:
            # B w = G' / A, so each integral is (G(t) - G(lo))**n / n! / A
            D = Gt - _pval(G, mp.mpf(lo))
            n = 1
            while True:
                term = (D ** n / mp.factorial(n)) ** root
                total += term
                if n > 3 and term < _STOP * total:
                    return total
                n += 1
        At = self.A(t)
        n = 1
        while True:
            f = (lambda s, n=n: self.B(s) * self.w(s)
                 * (Gt - _pval(G, s)) ** (n - 1))
            integ = At * mp.quad(f, [mp.mpf(lo), mp.mpf(t)]) \
                / mp.factorial(n - 1)
            term = integ ** root
            total += term
            if n > 3 and term < _STOP * total:
                return total
            n += 1

    def gronwall_sharp(self, t: float, v0: float, lo: float = 0.0,
                       l_const: float = 0.0):
        """Sharp closed Gronwall bound at t for constant v0.

        Without ``l`` the n-th term integrates ``A(t)**(n+1) B w
        (H(t) - H(s))**n / n!`` in closed form.  With a constant ``l``
        (p = 1 only) ``v(s) = v0 + l * (M(s) - M(lo))`` and the summed
        series is one integral of ``A(t) B(s) exp(A(t)(H(t) - H(s))) v(s)
        w(s)``.
        """
        if self.shape == "exp":
            raise ValueError("gronwall references use the poly shape")
        H = self.H_poly()
        At = self.A(t)
        Ht = _pval(H, mp.mpf(t))
        v0 = mp.mpf(v0)
        if l_const == 0.0:
            E = At * (Ht - _pval(H, mp.mpf(lo)))
            root = mp.mpf(1) / self.p
            total = v0
            m = 1
            while True:
                term = v0 * (E ** m / mp.factorial(m)) ** root
                total += term
                if m > 3 and term < _STOP * total:
                    return total
                m += 1
        if self.p != 1:
            raise ValueError("gronwall references with l need p = 1")
        M = _pint(self._w_poly())
        Mlo = _pval(M, mp.mpf(lo))
        lc = mp.mpf(l_const)

        def v(s):
            return v0 + lc * (_pval(M, s) - Mlo)

        integ = mp.quad(lambda s: At * self.B(s) * mp.exp(At * (Ht - _pval(H, s)))
                        * v(s) * self.w(s), [mp.mpf(lo), mp.mpf(t)])
        return v(mp.mpf(t)) + integ


def const_multi_index(cs: Sequence[float], idx: Tuple[int, ...], t: float,
                      s: float) -> float:
    """Component of a sum of constant kernels: prod c * (t-s)**(n-1)/(n-1)!."""
    n = len(idx)
    val = 1.0
    for a in idx:
        val *= cs[a]
    return val * (t - s) ** (n - 1) / math.factorial(n - 1)


# ---------------------------------------------------------------------------
# fractional kernels
# ---------------------------------------------------------------------------


def frac_params(alpha: float, beta: float, p: float):
    ap = (alpha - 1.0) * p + 1.0
    bp = beta * p
    return ap, bp, ap - bp


def frac_layer_beta0(ap: float, n: int, X: np.ndarray) -> np.ndarray:
    """n-th iterate of (t-s)**(ap-1) at gaps X > 0 (gamma closed form)."""
    return np.exp(n * math.lgamma(ap) - math.lgamma(ap * n)
                  + (ap * n - 1.0) * np.log(X))


def frac_layer2(alpha: float, beta: float, p: float, x: float, y: float):
    """Second iterate of the fractional kernel power in gap coordinates.

    ``y**(-bp) * integral over [0, x] of (x-z)**(ap-1) z**(ap-1)
    (y+z)**(-bp) dz`` by QUADPACK's algebraic-weight rule; returns the
    value and QUADPACK's error estimate.
    """
    from scipy.integrate import quad

    ap, bp, _ = frac_params(alpha, beta, p)
    val, err = quad(lambda z: (y + z) ** (-bp), 0.0, x, weight="alg",
                    wvar=(ap - 1.0, ap - 1.0), epsabs=0.0, epsrel=1e-13,
                    limit=200)
    scale = y ** (-bp)
    return val * scale, err * scale


def frac_resolvent_beta0(ap: float, x: float):
    """Sum over n of the beta = 0 iterates at gap x."""
    ap = mp.mpf(ap)
    x = mp.mpf(x)
    total = mp.mpf(0)
    n = 1
    while True:
        term = mp.gamma(ap) ** n / mp.gamma(ap * n) * x ** (ap * n - 1)
        total += term
        if n > 3 and term < _STOP * total:
            return total
        n += 1


def frac_series_I_beta0(ap: float, p: float, X: float):
    """Series function of a beta = 0 fractional kernel power at X = t - t0."""
    ap = mp.mpf(ap)
    X = mp.mpf(X)
    root = 1 / mp.mpf(p)
    total = mp.mpf(0)
    n = 1
    while True:
        term = (mp.gamma(ap) ** n * X ** (ap * n) / mp.gamma(ap * n + 1)) ** root
        total += term
        if n > 3 and term < _STOP * total:
            return total
        n += 1


def frac_box_series(k0: float, alphas, betas, p: float, X) -> mp.mpf:
    """The per-axis gamma-quotient series behind ``fractional_box_sup_bound``
    for beta = 0 axes: sum over n of k0**n prod_i (gamma(ap_i)**n
    X_i**(ap_i n) / gamma(ap_i n + 1))**(1/p)."""
    if any(b != 0.0 for b in betas):
        raise ValueError("box references use beta = 0 axes")
    root = 1 / mp.mpf(p)
    total = mp.mpf(0)
    n = 1
    while True:
        term = mp.mpf(k0) ** n
        for a, x in zip(alphas, X):
            ap = (mp.mpf(a) - 1) * p + 1
            term *= (mp.gamma(ap) ** n * mp.mpf(x) ** (ap * n)
                     / mp.gamma(ap * n + 1)) ** root
        total += term
        if n > 3 and term < _STOP * total:
            return total
        n += 1


def frac_lipschitz(alpha: float, beta: float, p: float, X: float) -> float:
    """(integral over [t0, t] of k(t, s)**p ds)**(1/p) = (X**gap B(1-bp, ap))**(1/p)."""
    ap, bp, gap = frac_params(alpha, beta, p)
    val = mp.mpf(X) ** gap * mp.beta(1 - mp.mpf(bp), mp.mpf(ap))
    return float(val ** (1 / mp.mpf(p)))


def frac_resolvent_bound_beta0(ap: float, p: float, X: float, v0: float):
    """v0 + sum over n of (gamma(ap)**n / gamma(ap n) * v0**p
    * X**(ap n) / (ap n))**(1/p) for constant v."""
    return mp.mpf(v0) * (1 + frac_series_I_beta0(ap, p, X))


def transformed_beta0_layer(alphas, n: int, X: np.ndarray) -> np.ndarray:
    """n-th iterate of sum_i x**(alpha_i-1) at gaps X, by summing every
    ordered sequence of parts (each a gamma convolution)."""
    from itertools import product

    out = np.zeros_like(X)
    for seq in product(range(len(alphas)), repeat=n):
        A = sum(alphas[i] for i in seq)
        ln_c = sum(math.lgamma(alphas[i]) for i in seq) - math.lgamma(A)
        out += np.exp(ln_c + (A - 1.0) * np.log(X))
    return out


# ---------------------------------------------------------------------------
# Mittag-Leffler
# ---------------------------------------------------------------------------


def mittag_leffler(alpha: float, beta: float, p: float, z: float):
    """sum over n >= 0 of z**n / gamma(alpha n + beta)**(1/p), term by term."""
    a, b, z = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
    root = 1 / mp.mpf(p)
    total = mp.mpf(0) if beta == 0 else 1 / mp.gamma(b) ** root
    n = 1
    while True:
        term = z ** n / mp.gamma(a * n + b) ** root
        total += term
        if n > 3 and term < _STOP * total:
            return total
        n += 1


# ---------------------------------------------------------------------------
# built-in problems: exact discrete fixed points
# ---------------------------------------------------------------------------


def trapezoid_matrix(nodes: np.ndarray) -> np.ndarray:
    """(V u)[i] = trapezoid integral of u over [t_0, t_i]."""
    m = nodes.size
    h = np.diff(nodes)
    V = np.zeros((m, m))
    for i in range(1, m):
        V[i, :i] += 0.5 * h[:i]
        V[i, 1:i + 1] += 0.5 * h[:i]
    return V


def abel_matrix(nodes: np.ndarray, alpha: float) -> np.ndarray:
    """Product-integration weights of (t_i - s)**(alpha-1) against the
    piecewise-linear interpolant, from exact panel moments."""
    m = nodes.size
    V = np.zeros((m, m))
    for i in range(1, m):
        lo, hi = nodes[:i], nodes[1:i + 1]
        h = hi - lo
        b = nodes[i] - lo
        a = nodes[i] - hi
        m0 = (b ** alpha - a ** alpha) / alpha
        m1 = b * m0 - (b ** (alpha + 1) - a ** (alpha + 1)) / (alpha + 1)
        V[i, :i] += m0 - m1 / h
        V[i, 1:i + 1] += m1 / h
    return V


@dataclass(frozen=True)
class DiscreteProblem:
    """x = g + c V x on a grid, with its exact discrete fixed point."""

    apply: Callable[[np.ndarray], np.ndarray]
    fixed_point: np.ndarray
    x0: np.ndarray


def volterra_discrete(rate: float, nodes: np.ndarray) -> DiscreteProblem:
    V = trapezoid_matrix(nodes)
    m = nodes.size
    xs = np.linalg.solve(np.eye(m) - rate * V, np.ones(m))
    return DiscreteProblem(lambda u: 1.0 + rate * (V @ u), xs, np.ones(m))


def abel_discrete(alpha: float, nodes: np.ndarray) -> DiscreteProblem:
    V = abel_matrix(nodes, alpha)
    g = 1.0 - nodes ** alpha / alpha
    m = nodes.size
    xs = np.linalg.solve(np.eye(m) - V, g)
    return DiscreteProblem(lambda u: g + V @ u, xs, np.zeros(m))


# ---------------------------------------------------------------------------
# zero-slack enclosure test
# ---------------------------------------------------------------------------


def encloses(lo: float, width: float, ref) -> bool:
    """Whether ``lo <= ref <= lo + width`` holds exactly (no slack)."""
    lo_mp = mp.mpf(lo)
    return lo_mp <= ref <= lo_mp + mp.mpf(width)
