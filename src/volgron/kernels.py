"""Parameterised kernel families on ordered domains.

A kernel is a nonnegative function ``k(t, s)`` defined for ``s <= t`` in
the domain's preorder.  Each family below declares the structure the
resolvent and bound modules dispatch on (separable, fractional, sum,
product, void, multiplicative).  Scalar evaluation returns an ``ExtReal``
and enforces the preorder; the vectorised ``eval_grid`` works on raw
float arrays (``inf`` allowed at singular points) and trusts the caller
to pass ordered pairs only.  Every ordered path of the resolvent, bound
and certificate modules does: tables and grid operators gather the pairs
s <= t of their nodes before evaluating, so a kernel is never evaluated
above the diagonal (only void-ordered kernels, whose order relates every
pair, are evaluated on the full square).

Kernels are immutable after construction and evaluation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .extreal import ExtReal

__all__ = [
    "PreorderError",
    "Kernel",
    "CallableKernel",
    "SeparableKernel",
    "FractionalKernel",
    "TransformedFractionalKernel",
    "SumKernel",
    "ProductKernel",
    "VoidKernel",
    "MultiplicativeKernel",
    "constant_kernel",
    "AlphaBetaBounds",
    "MonotoneReport",
    "check_monotone",
    "submultiplicative_defect",
]


class PreorderError(ValueError):
    """Evaluation at a pair (t, s) with s not below t."""


def _leq_points(s, t) -> bool:
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return bool(np.all(s <= t))


def _as_fn(f: Union[float, Callable]) -> Callable:
    if callable(f):
        return f
    c = float(f)
    return lambda x: np.full_like(np.asarray(x, dtype=float), c)


# the k0 of every constant kernel: one object, so that a sum of constants
# is recognised as separable (``SumKernel._diagonal``)
_ONE = _as_fn(1.0)


class Kernel:
    """Base class; concrete families implement ``_value_grid``."""

    #: whether k(s~, s) <= k(t, s) holds for s <= s~ <= t by construction
    monotone: bool = False
    family: str = "generic"

    def _value_grid(self, T: np.ndarray, S: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval_grid(self, T, S) -> np.ndarray:
        """Vectorised evaluation; caller guarantees s <= t pointwise."""
        T = np.asarray(T, dtype=float)
        S = np.asarray(S, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            out = self._value_grid(T, S)
        return np.asarray(out, dtype=float)

    def eval(self, t, s) -> ExtReal:
        """Kernel value at a single ordered pair; raises off the triangle."""
        if not self._ordered(s, t):
            raise PreorderError(f"point {s!r} is not below {t!r}")
        v = float(self.eval_grid(np.asarray(t, dtype=float),
                                 np.asarray(s, dtype=float)))
        return ExtReal(v)

    def _ordered(self, s, t) -> bool:
        return _leq_points(s, t)

    def _diagonal(self) -> Optional[Callable]:
        """d with ``k(t, u) k(u, s) = k(t, s) d(u)`` for s <= u <= t."""
        return None


@dataclass(frozen=True)
class CallableKernel(Kernel):
    """Kernel defined by an arbitrary array-aware callable (t, s) -> value.

    ``monotone_flag`` declares the monotonicity condition; it is the
    caller's assertion (spot-check it with ``check_monotone``).
    """

    fn: Callable
    monotone_flag: bool = False

    family = "generic"

    @property
    def monotone(self) -> bool:  # type: ignore[override]
        return self.monotone_flag

    def _value_grid(self, T, S):
        return np.asarray(self.fn(T, S), dtype=float)


@dataclass(frozen=True)
class SeparableKernel(Kernel):
    """k(t, s) = k0(t) * k1(s) with monotone k0.

    ``k0_monotone`` must be ``"increasing"`` or ``"decreasing"``; the
    kernel satisfies the monotonicity condition exactly when k0 is
    increasing.
    """

    k0: Callable
    k1: Callable
    k0_monotone: str = "increasing"

    family = "separable"

    def __post_init__(self):
        if self.k0_monotone not in ("increasing", "decreasing"):
            raise ValueError("k0_monotone must be 'increasing' or 'decreasing'")

    @property
    def monotone(self) -> bool:  # type: ignore[override]
        return self.k0_monotone == "increasing"

    def _value_grid(self, T, S):
        return np.asarray(self.k0(T), dtype=float) * np.asarray(self.k1(S), dtype=float)

    def _diagonal(self) -> Callable:
        return lambda u: self.eval_grid(u, u)  # k0 * k1


def constant_kernel(c: float) -> SeparableKernel:
    """The constant kernel c, as a separable kernel with k0 = 1.

    Keeping k0 identically one puts it in the regime where the factorial
    resolvent bounds are identities.
    """
    if c < 0:
        raise ValueError("constant kernels are nonnegative")
    return SeparableKernel(k0=_ONE, k1=_as_fn(c), k0_monotone="increasing")


@dataclass(frozen=True)
class FractionalKernel(Kernel):
    """k(t, s) = (t - s)**(alpha - 1) * (s - t0)**(-beta).

    Singular at s = t when alpha < 1 and at s = t0 when beta > 0; those
    evaluations return infinity.  The constraint tying alpha, beta to an
    integrability exponent p is checked by ``require_p``.
    """

    alpha: float
    beta: float
    t0: float = 0.0

    family = "fractional"

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")

    @property
    def monotone(self) -> bool:  # type: ignore[override]
        return self.alpha >= 1.0

    def require_p(self, p: float) -> None:
        """Validate beta + 1 - 1/p < alpha, needed for p-integrability:
        the exponents of the p-th power satisfy beta_p < alpha_p."""
        alpha_p, beta_p = _power_exponents(self.alpha, self.beta, p)
        if not beta_p < alpha_p:
            raise ValueError(
                f"fractional kernel needs beta + 1 - 1/p < alpha, got "
                f"alpha={self.alpha}, beta={self.beta}, p={p}"
            )

    def _value_grid(self, T, S):
        return _fractional_values(self.alpha, self.beta, T - S, S - self.t0)


def _power_exponents(alpha: float, beta: float,
                     p: float) -> Tuple[float, float]:
    """The exponents ``(alpha_p, beta_p) = ((alpha - 1) p + 1, beta p)`` of
    the p-th power of a fractional kernel; alpha_p is alpha itself at
    p = 1, unrounded."""
    return (alpha if p == 1.0 else (alpha - 1.0) * p + 1.0), beta * p


def _fractional_values(alpha: float, beta: float, x, y) -> np.ndarray:
    """``x**(alpha - 1) * y**(-beta)`` at gaps x and offsets y, with its
    limits at x <= 0 and y <= 0 (inf on a pole, 0 * inf = 0 where both
    meet)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        vx = np.where(x > 0, x ** (alpha - 1.0),
                      1.0 if alpha == 1.0 else
                      (0.0 if alpha > 1.0 else np.inf))
        vy = np.where(y > 0, y ** (-beta), 1.0 if beta == 0.0 else np.inf)
        out = vx * vy
    return np.where(np.isnan(out), 0.0, out)


@dataclass(frozen=True)
class TransformedFractionalKernel(Kernel):
    """Sum of fractional kernels transported by an increasing map phi.

    k(t, s) = phi_dot(s) * sum_j (phi(t)-phi(s))**(alpha_j - 1)
                                 * (phi(s)-phi(t0))**(-beta_j)

    ``phi`` and ``phi_dot`` are paired callables; their consistency
    (phi strictly increasing, phi_dot positive) is sampled by
    ``sample_consistency``, not proven.
    """

    phi: Callable
    phi_dot: Callable
    alphas: Tuple[float, ...]
    betas: Tuple[float, ...]
    t0: float

    family = "transformed-fractional"

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        betas = tuple(float(b) for b in self.betas)
        if len(alphas) != len(betas) or not alphas:
            raise ValueError("alphas and betas must be non-empty, equal length")
        bounds = AlphaBetaBounds.from_vectors(alphas, betas)
        if not math.isfinite(float(self.phi(np.asarray(self.t0)))):
            raise ValueError("phi(t0) must be finite")
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "_bounds", bounds)

    @property
    def bounds(self) -> "AlphaBetaBounds":
        return self._bounds  # type: ignore[attr-defined]

    @property
    def n_parts(self) -> int:
        return len(self.alphas)

    @property
    def monotone(self) -> bool:  # type: ignore[override]
        return min(self.alphas) >= 1.0

    def sample_consistency(self, lo: float, hi: float, samples: int = 64,
                           seed: int = 42) -> bool:
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(lo, hi, size=samples))
        phi = np.asarray(self.phi(x), dtype=float)
        dot = np.asarray(self.phi_dot(x), dtype=float)
        return bool(np.all(np.diff(phi) > 0) and np.all(dot > 0))

    def _value_grid(self, T, S):
        ps = np.asarray(self.phi(S), dtype=float)
        x = np.asarray(self.phi(T), dtype=float) - ps
        y = ps - float(self.phi(np.asarray(self.t0)))
        total = sum(_fractional_values(a, b, x, y)
                    for a, b in zip(self.alphas, self.betas))
        return np.asarray(self.phi_dot(S), dtype=float) * total


@dataclass(frozen=True)
class SumKernel(Kernel):
    """Pointwise sum of kernels on a common domain."""

    parts: Tuple[Kernel, ...]

    family = "sum"

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("sum of zero kernels")
        object.__setattr__(self, "parts", parts)

    @property
    def monotone(self) -> bool:  # type: ignore[override]
        return all(p.monotone for p in self.parts)

    def _value_grid(self, T, S):
        acc = self.parts[0].eval_grid(T, S)
        for k in self.parts[1:]:
            acc = acc + k.eval_grid(T, S)
        return acc

    def _diagonal(self) -> Optional[Callable]:
        """Separable parts ``k0(t) k1_i(s)`` that share one ``k0`` object
        sum to the separable ``k0(t) (sum_i k1_i)(s)``, d its diagonal;
        other sums have none."""
        k0 = getattr(self.parts[0], "k0", None)
        if not all(isinstance(k, SeparableKernel) and k.k0 is k0
                   for k in self.parts):
            return None
        return lambda u: self.eval_grid(u, u)


@dataclass(frozen=True)
class ProductKernel(Kernel):
    """Per-axis product kernel on a box, with an optional trailing factor.

    k(t, s) = prod_i factors[i](t_i, s_i) * tail_factor(s)

    The trailing factor models a kernel of the second variable only on an
    abstract extra coordinate; under the usual singleton identification it
    is a constant, which is what the resolvent recursion on boxes
    requires.  A callable tail is accepted for evaluation but rejected by
    the table builders.
    """

    factors: Tuple[Kernel, ...]
    tail_factor: Union[float, Callable, None] = None

    family = "product"

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise ValueError("product of zero kernels")
        object.__setattr__(self, "factors", factors)

    @property
    def ndim(self) -> int:
        return len(self.factors)

    @property
    def monotone(self) -> bool:  # type: ignore[override]
        return all(f.monotone for f in self.factors)

    @property
    def tail_constant(self) -> float:
        if self.tail_factor is None:
            return 1.0
        if callable(self.tail_factor):
            raise TypeError(
                "a callable tail factor has no constant value; resolvent "
                "tables on boxes need a constant trailing factor"
            )
        return float(self.tail_factor)

    def _value_grid(self, T, S):
        # points live on the last axis
        T = np.asarray(T, dtype=float)
        S = np.asarray(S, dtype=float)
        if T.shape[-1] != self.ndim or S.shape[-1] != self.ndim:
            raise ValueError("point dimension does not match the kernel")
        acc = None
        for i, k in enumerate(self.factors):
            v = k.eval_grid(T[..., i], S[..., i])
            acc = v if acc is None else acc * v
        if self.tail_factor is not None:
            if callable(self.tail_factor):
                acc = acc * np.asarray(self.tail_factor(S), dtype=float)
            else:
                acc = acc * float(self.tail_factor)
        return acc


@dataclass(frozen=True)
class VoidKernel(Kernel):
    """k(t, s) = k1(s) on a void-ordered set.

    This is the only shape compatible with the monotonicity condition
    when every pair of points is comparable.
    """

    k1: Callable

    family = "void"
    monotone = True

    def _ordered(self, s, t) -> bool:
        return True

    def _value_grid(self, T, S):
        vals = np.asarray(self.k1(S), dtype=float)
        return np.broadcast_to(vals, np.broadcast(T, S).shape).copy()


@dataclass(frozen=True)
class MultiplicativeKernel(Kernel):
    """k(t, s) = exp(nu([s, t])) for an atomless signed measure nu.

    The measure is described by its cumulative mass function
    ``nu_cumulative`` with nu([s, t]) = F(t) - F(s), which makes
    k(t, s~) * k(s~, s) = k(t, s) hold exactly.  Set ``nu_nonnegative``
    to False for signed mass functions; the kernel is then not declared
    monotone.
    """

    nu_cumulative: Callable
    nu_nonnegative: bool = True

    family = "multiplicative"

    @property
    def monotone(self) -> bool:  # type: ignore[override]
        return self.nu_nonnegative

    def mass(self, s, t) -> float:
        F = self.nu_cumulative
        return float(np.asarray(F(np.asarray(t, dtype=float)), dtype=float)
                     - np.asarray(F(np.asarray(s, dtype=float)), dtype=float))

    def _value_grid(self, T, S):
        F = self.nu_cumulative
        return np.exp(np.asarray(F(T), dtype=float) - np.asarray(F(S), dtype=float))

    def _diagonal(self) -> Callable:
        return _as_fn(1.0)


@dataclass(frozen=True)
class AlphaBetaBounds:
    """Componentwise extremes of fractional exponent vectors."""

    alpha0: float
    alpha_inf: float
    beta0: float
    beta_inf: float

    def __post_init__(self):
        if not (self.alpha0 <= self.alpha_inf and self.beta0 <= self.beta_inf):
            raise ValueError("exponent bounds out of order")
        if not self.beta_inf < self.alpha0:
            raise ValueError(
                f"need beta_inf < alpha0, got beta_inf={self.beta_inf}, "
                f"alpha0={self.alpha0}"
            )

    @staticmethod
    def from_vectors(alphas: Sequence[float], betas: Sequence[float]) -> "AlphaBetaBounds":
        return AlphaBetaBounds(
            alpha0=min(alphas), alpha_inf=max(alphas),
            beta0=min(betas), beta_inf=max(betas),
        )


@dataclass(frozen=True)
class MonotoneReport:
    passed: bool
    samples: int
    counterexample: Optional[tuple] = None


def _sample_triples(domain, samples: int, rng) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    from .domains import Interval1D, ProductBox

    if isinstance(domain, Interval1D):
        u = np.sort(rng.uniform(domain.lo, domain.hi, size=(samples, 3)), axis=1)
        return u[:, 0], u[:, 1], u[:, 2]
    if isinstance(domain, ProductBox):
        cols = [np.sort(rng.uniform(f.lo, f.hi, size=(samples, 3)), axis=1)
                for f in domain.factors]
        stack = np.stack(cols, axis=-1)  # (samples, 3, ndim)
        return stack[:, 0, :], stack[:, 1, :], stack[:, 2, :]
    raise TypeError("monotonicity sampling needs an interval or box domain")


def check_monotone(kernel: Kernel, domain, samples: int = 200,
                   seed: int = 42, rtol: float = 1e-12) -> MonotoneReport:
    """Randomised falsification of k(s~, s) <= k(t, s) on ordered triples.

    A failed check returns the first counterexample triple with both
    kernel values.  Void kernels pass vacuously (they do not depend on
    the first argument).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if isinstance(kernel, VoidKernel):
        return MonotoneReport(passed=True, samples=samples)
    rng = np.random.default_rng(seed)
    s, s_mid, t = _sample_triples(domain, samples, rng)
    lhs = kernel.eval_grid(s_mid, s)
    rhs = kernel.eval_grid(t, s)
    tolerance = rtol * np.maximum(1.0, np.abs(rhs))
    with np.errstate(invalid="ignore"):
        bad = lhs > rhs + tolerance
    # inf <= inf counts as ordered
    bad &= ~(np.isinf(lhs) & np.isinf(rhs))
    if np.any(bad):
        i = int(np.argmax(bad))
        witness = (np.asarray(s)[i], np.asarray(s_mid)[i], np.asarray(t)[i],
                   float(np.asarray(lhs)[i]), float(np.asarray(rhs)[i]))
        return MonotoneReport(passed=False, samples=samples, counterexample=witness)
    return MonotoneReport(passed=True, samples=samples)


def submultiplicative_defect(kernel: Kernel, triples: Sequence[tuple]) -> float:
    """max over triples of k(t, s~) * k(s~, s) - k(t, s).

    Nonpositive for submultiplicative kernels and exactly zero for the
    multiplicative family.
    """
    if not triples:
        raise ValueError("need at least one triple")
    worst = -math.inf
    for s, s_mid, t in triples:
        prod = float(kernel.eval(t, s_mid)) * float(kernel.eval(s_mid, s))
        direct = float(kernel.eval(t, s))
        worst = max(worst, prod - direct)
    return worst
