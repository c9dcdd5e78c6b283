"""Iterated kernels, resolvent series and their closed-form families.

The resolvent sequence of a kernel k against a measure mu starts at
``R_1 = k`` and advances by

    R_{n+1}(t, s) = integral over [s, t] of k(t, u) R_n(u, s) mu(du).

``iterated_kernels`` tabulates ``R_{k**p, mu, n}`` on a triangular grid.
Every grid recursion runs through one ``GridOperator``: the nodes, the
per-node weights (density times panel width on intervals, masses on
atoms) and the interval range weights, which are exact for cubics.
Discrete and void-ordered settings are exact sums.  The fractional
family bypasses grid quadrature: fractional kernels, their sums
transported by an increasing phi, and sums of beta = 0 fractional kernels
with one t0.  Its p-th powers are phi'(s) times a sum of fractional parts
in z = phi(t), so one builder tabulates them all
(``_fractional_sum_layers`` on phi(nodes)), by multinomial gamma-quotient
closed forms when every pole exponent ``beta`` vanishes (each layer a
function of the gap, summed once on the gap vector where the nodes have
equal float gaps, as on dyadic grids of dyadic intervals without a
transport, else entry by entry), otherwise by a one-dimensional recursion
on one homogeneous ratio profile per (alpha, beta, p); every diagonal is
the small-gap limit.

One interval layer is a product of two lower-triangular m x m matrices,
about a third of the multiply-adds of a full m x m product
(``_tri_matmul``), plus O(m) work: the range weights are 1 inside long
ranges, their end weights factor into the first subdiagonals of the two
factors, and the short ranges are rewritten with their closed rules
(``_LayerStep``, which prepares the left factor once per table).  A box
layer of a product kernel with a constant tail is ``tail**n`` times the
outer product of the two axis layers.  Whatever only needs integrals of the
iterates over the lower set of t (a single column, the series function,
the resolvent bound, the Picard certificate layers) never builds layers:
by Fubini those integrals advance by one matrix-vector product with the
lower-set operator per term (``GridOperator.powers``).  Grid values
follow the convention ``0 * inf = 0``; no layer, table entry, series
term, sum component or residual is ever NaN.

Every entry point here, in ``gronwall`` and in ``fixpoint`` asks one
dispatch, ``_plan(kernel, measure, p)``, for the path of its family: the
void order on atoms (geometric closed forms), the fractional family on
Lebesgue measure (``_FractionalPlan``: gamma-quotient and multinomial
closed forms and the ratio profile; transports at p != 1 and several
parts with a pole take the grid, without tables), rank-one kernels
(``k(t, u) k(u, s) = k(t, s) d(u)``: separable, constant, multiplicative,
sums of separable kernels with one ``k0``) on ``Lebesgue`` or
``WeightedLebesgue`` (``R_n = k**p Phi**(n-1) / (n-1)!``, ``R = k**p
exp(Phi)``, Phi the integral of d**p) or the grid (``GridOperator`` on
atoms or dyadic intervals).  ``_root_sum`` is the one loop that sums a
resolvent series, with a certified truncation tail.  Where a majorant is
recognised (factorial for monotone and rank-one kernels on atomless
measures, Mittag-Leffler for the fractional family) the tail is a
log-concave series given by its log-terms (``_factorial_log``,
``FractionalResolventParams.log_layer_bound`` and ``log_series_bound``)
summed after every term by one ``specfun._running_tail``, which runs
``specfun._log_series`` (inf on float overflow) afresh only where the
tail can fall below tol.  Elsewhere, on atoms or a
grid whose operator B is finite and nonnegative, the positivity tail of
``_ratio_tail`` bounds the rest once one column shrinks entrywise by a
factor theta < 1.  Either tail bounds the truncation of the operator's
own series; quadrature error is controlled separately by the grid level
(series evaluate their recursions one level finer than requested).
"""

from __future__ import annotations

import itertools
import json
import math
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from .domains import Interval1D, ProductBox, QuadratureGrid
from .extreal import ExtReal
from .kernels import (
    FractionalKernel,
    Kernel,
    ProductKernel,
    SumKernel,
    TransformedFractionalKernel,
    VoidKernel,
    _as_fn,
    _leq_points,
    _power_exponents,
)
from .measures import (
    DiscreteMeasure,
    Lebesgue,
    MeasureSpec,
    ProductMeasure,
    WeightedLebesgue,
    _density,
)
from .quadrature import integrate, range_weights_matrix
from .specfun import (_LOG_MAX, SeriesValue, _log_series, _running_tail,
                      _tail_sum, gamma_min_point, ln_gamma)
from .specfun import beta as beta_fn

__all__ = [
    "MaskedEntryError",
    "ComponentBudgetError",
    "ResolventTable",
    "FractionalResolventParams",
    "fractional_f",
    "fractional_f_bound",
    "fractional_inequality_constant",
    "iterated_kernels",
    "compose_layers",
    "resolvent_series",
    "volterra_residual",
    "series_function_I",
    "sum_decomposition",
    "product_bound",
]


class MaskedEntryError(LookupError):
    """Access to a table entry outside the triangular region."""


class ComponentBudgetError(RuntimeError):
    """A sum decomposition would exceed the component budget."""


_TRI_CACHE: dict = {}


def _tril_mask(m: int) -> np.ndarray:
    mask = _TRI_CACHE.get(m)
    if mask is None:
        mask = np.tril(np.ones((m, m), dtype=bool))
        _TRI_CACHE[m] = mask
    return mask


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


@dataclass
class ResolventTable:
    """Tabulated iterated kernels ``R_{k**p, mu, n}`` on a grid.

    ``values[n-1, i, j]`` approximates ``R_n(t_i, t_j)``; for ordered
    domains entries with ``j > i`` are masked (stored as zero and guarded
    by the accessor).  Box tables index per axis:
    ``values[n-1, i1, i2, j1, j2]``.  ``err_est`` comes from a two-level
    grid comparison (two gap-recursion profiles for fractional kernels
    with a pole) and is 0 on exact (discrete, void, closed-form) paths.
    Finished tables are immutable by convention and safe to share.
    """

    grid: QuadratureGrid
    n_max: int
    p: float
    values: np.ndarray
    err_est: float
    measure: MeasureSpec
    ordered: bool = True
    family: str = "generic"
    status: str = "certified"

    @property
    def nodes(self) -> np.ndarray:
        return self.grid.nodes

    def value(self, n: int, i, j) -> float:
        """Entry ``R_n(t_i, t_j)``; raises on masked index pairs."""
        if not 1 <= n <= self.n_max:
            raise IndexError(f"layer {n} outside 1..{self.n_max}")
        if self.values.ndim == 3:
            if self.ordered and j > i:
                raise MaskedEntryError(f"entry (i={i}, j={j}) is masked")
            return float(self.values[n - 1, i, j])
        i1, i2 = i
        j1, j2 = j
        if self.ordered and (j1 > i1 or j2 > i2):
            raise MaskedEntryError(f"entry (i={i}, j={j}) is masked")
        return float(self.values[n - 1, i1, i2, j1, j2])

    def layer(self, n: int) -> np.ndarray:
        if not 1 <= n <= self.n_max:
            raise IndexError(f"layer {n} outside 1..{self.n_max}")
        return self.values[n - 1]

    def _chunks(self, as_json: bool) -> Iterator[str]:
        """Entry text in table order, one chunk per layer and first index.

        Node strings are formatted once.  Each chunk is one %-template,
        built by joining those strings, filled with its block of values in
        one formatting call.  An entry reads ``head + s + tail``: the
        coordinates ``s`` vary fastest, and ``head``/``tail`` carry the
        layer, the point t and the value placeholder.
        """
        if as_json:
            num, coord_sep, entry_sep = float.__repr__, ", ", ", "

            def frame(n, t):
                return ('{"n": %d, "s": [' % n,
                        '], "t": [%s], "value": %%s}' % t)
        else:
            num, coord_sep, entry_sep = "%.17g".__mod__, ",", ""

            def frame(n, t):
                return f"{n},{t},", ",%.17g\n"

        def fill(template: str, block: np.ndarray) -> str:
            vals = block.astype(float, copy=False).tolist()
            if as_json and not np.isfinite(block).all():
                # json spells non-finite floats Infinity, -Infinity, NaN
                vals = [v if math.isfinite(v) else json.dumps(v) for v in vals]
            return template % tuple(vals)

        axes = [[num(x) for x in a] for a in self.grid.axes]
        lead = ""
        if self.values.ndim == 3:
            (ax,) = axes
            m = len(ax)
            for n in range(1, self.n_max + 1):
                layer = self.values[n - 1]
                for i in range(m):
                    top = i + 1 if self.ordered else m
                    head, tail = frame(n, ax[i])
                    template = (lead + head
                                + (tail + entry_sep + head).join(ax[:top]) + tail)
                    yield fill(template, layer[i, :top])
                    lead = entry_sep
            return
        a1, a2 = axes
        pairs = [[s1 + coord_sep + s2 for s2 in a2] for s1 in a1]
        m2 = len(a2)
        # below[i2, 0, j2]: j2 <= i2, broadcast over j1
        below = np.tri(m2, dtype=bool)[:, None, :]
        for n in range(1, self.n_max + 1):
            layer = self.values[n - 1]
            for i1 in range(len(a1)):
                rows = []
                for i2 in range(m2):
                    head, tail = frame(n, a1[i1] + coord_sep + a2[i2])
                    joint = tail + entry_sep + head
                    rows.append(head + joint.join(
                        [joint.join(row[:i2 + 1]) for row in pairs[:i1 + 1]])
                        + tail)
                block = layer[i1, :, :i1 + 1, :]
                template = lead + entry_sep.join(rows)
                yield fill(template, block[np.broadcast_to(below, block.shape)])
                lead = entry_sep

    def iter_csv(self) -> Iterator[str]:
        """The CSV text of ``to_csv`` in chunks."""
        ndim = len(self.grid.axes)
        if ndim == 1:
            heads = ["n", "t", "s", "value"]
        else:
            heads = (["n"] + [f"t{k+1}" for k in range(ndim)]
                     + [f"s{k+1}" for k in range(ndim)] + ["value"])
        yield ",".join(heads) + "\n"
        yield from self._chunks(as_json=False)

    def to_csv(self) -> str:
        return "".join(self.iter_csv())

    def iter_json(self) -> Iterator[str]:
        """The JSON text of ``to_json`` in chunks."""
        payload = {
            "n_max": self.n_max,
            "p": self.p,
            "family": self.family,
            "status": self.status,
            "err_est": self.err_est,
            "axes": [list(map(float, a)) for a in self.grid.axes],
            "entries": [],
        }
        head, tail = json.dumps(payload, sort_keys=True).split(
            '"entries": []', 1)
        yield head + '"entries": ['
        yield from self._chunks(as_json=True)
        yield "]" + tail

    def to_json(self) -> str:
        return "".join(self.iter_json())


# ---------------------------------------------------------------------------
# interval recursion machinery
# ---------------------------------------------------------------------------


def _inf_hits(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Where ``A @ X`` holds a product of two positive factors, one of
    them infinite."""
    pos_a, pos_x = A > 0, X > 0
    inf_a, inf_x = pos_a & np.isinf(A), pos_x & np.isinf(X)
    return (inf_a.astype(float) @ pos_x.astype(float)
            + pos_a.astype(float) @ inf_x.astype(float)) > 0


def _ext_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``a * b`` of nonnegative arrays with 0 * inf = 0."""
    with np.errstate(invalid="ignore", over="ignore"):
        out = np.multiply(a, b)
    out[np.isnan(out)] = 0.0
    return out


def _nonnegative(name: str, values) -> np.ndarray:
    """``values`` as a new float array; a ``ValueError`` naming them unless
    each is >= 0 (NaN is not)."""
    out = np.array(values, dtype=float)
    if not (out >= 0).all():
        raise ValueError(f"{name} must be nonnegative and not NaN")
    return out


def _ext_matmul(A: np.ndarray, X: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """``A @ X`` over the extended reals with the convention 0 * inf = 0,
    written into ``out`` when given.

    A product counts as +inf only when both factors are positive and one
    of them is infinite; every other product with a non-finite factor
    counts as 0, so the result never holds NaN.
    """
    fin_a, fin_x = np.isfinite(A), np.isfinite(X)
    if fin_a.all() and fin_x.all():
        return np.matmul(A, X, out=out)
    out = np.asarray(np.matmul(np.where(fin_a, A, 0.0),
                               np.where(fin_x, X, 0.0), out=out))
    out[_inf_hits(A, X)] = np.inf
    return out


# below this size a triangular product is one plain matrix product
_TRI_LEAF = 96


def _tri_matmul(A: np.ndarray, R: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """``A @ R`` for square A and R that are zero above the diagonal.

    The product is lower triangular too.  Halving the index range, its
    two diagonal blocks are the triangular products of the diagonal
    blocks and recurse, and the block below them is one product
    ``A[h:, :] @ R[:, :h]``: m**3 / 4 multiply-adds on top of the halves,
    about m**3 / 3 in all against m**3 for ``A @ R``.  Blocks up to
    ``_TRI_LEAF`` rows are plain products.  Every block is written in
    place into one output, ``out`` when given (it must be zero above the
    diagonal) or fresh zeros, whose views the recursion passes down.
    """
    if out is None:
        out = np.zeros(A.shape)
    m = A.shape[0]
    if m <= _TRI_LEAF:
        np.matmul(A, R, out=out)
        return out
    h = m // 2
    _tri_matmul(A[:h, :h], R[:h, :h], out[:h, :h])
    _tri_matmul(A[h:, h:], R[h:, h:], out[h:, h:])
    np.matmul(A[h:, :], R[:, :h], out=out[h:, :h])
    return out


def _subdiag(X: np.ndarray, d: int) -> np.ndarray:
    """The writable view of ``X[k + d, k]`` in a C-contiguous square X."""
    m = X.shape[0]
    return X.reshape(-1)[d * m::m + 1]


_SCRATCH = threading.local()


def _workspace(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """This thread's m x m float and bool scratch of ``_LayerStep``.

    Kept per thread and size (grid sizes are dyadic, so one pair per level
    in use), it saves allocating and first touching two fresh arrays per
    layer.  Only lower triangles are ever written: the float buffer stays
    zero above the diagonal.
    """
    pairs = getattr(_SCRATCH, "pairs", None)
    if pairs is None:
        pairs = _SCRATCH.pairs = {}
    pair = pairs.get(m)
    if pair is None:
        pair = pairs[m] = (np.zeros((m, m)), np.empty((m, m), dtype=bool))
    return pair


class _LayerStep:
    """``R -> _layer_update(A, R, W)`` with the left factor A prepared once.

    R'[i, j] = sum_l W[i-j, l-j] A[i, l] R[l, j], from the lower triangles
    of A and R only.  In a range of six or more panels the weight of node
    l is 1 except for the three end weights at each end, and since
    l - j <= 2 and i - l <= 2 cannot both hold there, it is a factor of
    i - l times a factor of l - j.  Folding those factors into the first
    three subdiagonals of A and of R makes the step one triangular
    product (``_tri_matmul``); the diagonals i - j <= 5 are then
    rewritten with the closed short-range rules, and the diagonal is 0 (a
    one-point range is null).  Products follow ``_ext_matmul``: no entry
    is NaN.

    Preparing A takes its lower triangle, multiplied by the node weights
    ``w`` of its second index when given (0 * inf = 0), its positive and
    +inf masks when it is not finite, its short subdiagonals and the
    end-weight fold, so a table pays them once, not once per layer.
    """

    def __init__(self, A: np.ndarray, W: np.ndarray,
                 w: Optional[np.ndarray] = None):
        m = A.shape[0]
        self.W, self.short = W, min(m, 6)
        low = np.zeros((m, m))
        with np.errstate(invalid="ignore", over="ignore"):
            np.multiply(A, 1.0 if w is None else w, out=low,
                        where=_tril_mask(m))
        fin = np.isfinite(low, out=_workspace(m)[1])
        self.pos = self.inf = None
        if not fin.all():
            self.pos = (low > 0).astype(float)
            self.inf = (low == np.inf).astype(float)
            low[~fin] = 0.0
        self.sub = [_subdiag(low, e).copy() for e in range(self.short)]
        self._fold(low)
        self.A = low

    def _fold(self, X: np.ndarray) -> None:
        m = X.shape[0]
        if m > 6:
            for d, c in enumerate(self.W[m - 1, :3]):
                _subdiag(X, d)[:] *= c

    def _hits(self, R: np.ndarray, r_finite: bool) -> np.ndarray:
        """Where a term pairs a positive factor with a positive infinite
        one (R not yet cleared of its non-finite entries)."""
        acc = np.zeros(R.shape)
        if self.inf is not None:
            acc += _tri_matmul(self.inf, (R > 0).astype(float))
        if not r_finite:
            pos = self.pos if self.pos is not None else \
                (self.A > 0).astype(float)
            acc += _tri_matmul(pos, (R == np.inf).astype(float))
        return acc > 0

    def __call__(self, R: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
        """The next layer, written into ``out`` (zero above the diagonal)
        when given, else into fresh zeros.  R's lower triangle is cleared
        of non-finite entries and folded in this thread's scratch."""
        m, W = R.shape[0], self.W
        X, fin = _workspace(m)
        np.copyto(X, R, where=_tril_mask(m))
        np.isfinite(X, out=fin)
        r_finite = bool(fin.all())
        hits = None
        if self.inf is not None or not r_finite:
            hits = self._hits(X, r_finite)
            X[~fin] = 0.0
        r_sub = [_subdiag(X, d).copy() for d in range(self.short)]
        self._fold(X)
        out = _tri_matmul(self.A, X, out)
        for N in range(1, self.short):
            k = m - N
            _subdiag(out, N)[:] = sum(W[N, d] * self.sub[N - d][d:d + k]
                                      * r_sub[d][:k] for d in range(N + 1))
        if hits is not None:
            out[hits] = np.inf
        np.fill_diagonal(out, 0.0)
        return out


def _layer_update(A: np.ndarray, R: np.ndarray, W: np.ndarray) -> np.ndarray:
    """One recursion step R'[i, j] = sum_l W[i-j, l-j] A[i, l] R[l, j]
    (see ``_LayerStep``)."""
    return _LayerStep(A, W)(R)


def _grid_density(measure, nodes: np.ndarray) -> np.ndarray:
    """Node weights of uniform grids along the last axis of ``nodes``: the
    density of the measure times the panel width, range / panels."""
    h = (nodes[..., -1:] - nodes[..., :1]) / (nodes.shape[-1] - 1)
    if isinstance(measure, Lebesgue):
        return np.full(nodes.shape, h)
    if isinstance(measure, WeightedLebesgue):
        return h * _density(measure.weight, nodes)
    raise TypeError(f"measure {measure!r} has no density on a grid")


def _kernel_power(kernel: Kernel, p: float, t, s) -> np.ndarray:
    vals = kernel.eval_grid(t, s)
    with np.errstate(invalid="ignore", over="ignore"):
        return vals**p


def _lower_kernel_power(kernel: Kernel, p: float, nodes: np.ndarray,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """k(t_i, t_j)**p for j <= i, zero above the diagonal: the kernel is
    evaluated at the ordered pairs only, gathered in one boolean pass
    through ``_tril_mask`` and scattered into ``out`` (zero above the
    diagonal) when given, else into fresh zeros."""
    m = nodes.size
    mask, square = _tril_mask(m), (m, m)
    if out is None:
        out = np.zeros(square)
    out[mask] = _kernel_power(kernel, p,
                              np.broadcast_to(nodes[:, None], square)[mask],
                              np.broadcast_to(nodes, square)[mask])
    return out


def _ext_row_sums(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Sums of ``w * f`` along the last axis with 0 * inf = 0, as in
    ``_ext_matmul``: a sum is +inf where a term pairs two positive factors,
    one of them infinite, and other non-finite factors count as 0.  One
    pairwise reduction per row, which sums a row of a block exactly as it
    sums the row alone; a sum past the float range is inf."""
    fin_w, fin_f = np.isfinite(w), np.isfinite(f)
    with np.errstate(over="ignore"):
        if fin_w.all() and fin_f.all():
            return np.multiply(w, f).sum(axis=-1)
        sums = np.multiply(np.where(fin_w, w, 0.0),
                           np.where(fin_f, f, 0.0)).sum(axis=-1)
    hit = (w > 0) & (f > 0) & ~(fin_w & fin_f)
    return np.where(hit.any(axis=-1), np.inf, sums)


def _row_integrals(kernel: Kernel, measure, p: float, lo: float,
                   ts: np.ndarray, level: int) -> np.ndarray:
    """Integral of k(t, u)**p over [lo, t] for each t > lo of ``ts``, on
    the dyadic grid of [lo, t] at ``level``.

    The value of ``GridOperator.on_interval(kernel, measure, p, lo, t,
    level)`` and its ``row_integral(kernel_row())`` for every t at once:
    one block of grid rows, one kernel evaluation and one row-wise
    reduction (``_ext_row_sums``), the one ``row_integral`` makes.
    """
    ts = np.asarray(ts, dtype=float)
    nodes = np.linspace(lo, ts, 2**level + 1, axis=-1)
    f = _kernel_power(kernel, p, np.broadcast_to(ts[:, None], nodes.shape),
                      nodes)
    rows = range_weights_matrix(nodes.shape[1])[-1] \
        * _grid_density(measure, nodes)
    return _ext_row_sums(rows, f)


class GridOperator:
    """The quadrature form of the resolvent step on one grid,
    ``R -> integral over [s, t] of k(t, u)**p R(u, s) mu(du)``.

    It holds the nodes, the per-node weights (the density times the panel
    width on a uniform interval grid, the masses on atoms) and, on
    intervals, the range weights ``W``: a range of N panels weighs its
    node d panels above the lower end by ``W[N, d]``.  A range of atoms
    weighs each of its atoms fully.  The kernel-power triangle ``kp`` and
    the lower-set operator ``B`` are built on first use, so callers that
    only integrate over the whole range never form an m x m array.  Every
    product follows ``0 * inf = 0``.
    """

    def __init__(self, kernel: Optional[Kernel], p: float, nodes: np.ndarray,
                 weights: np.ndarray, W: Optional[np.ndarray] = None,
                 ordered: bool = True):
        self.kernel, self.p, self.ordered = kernel, p, ordered
        self.nodes, self.weights, self.W = nodes, weights, W

    @classmethod
    def on_nodes(cls, kernel, measure, p, nodes: np.ndarray) -> "GridOperator":
        """Over uniform interval nodes, against the density of the measure."""
        return cls(kernel, p, nodes, _grid_density(measure, nodes),
                   range_weights_matrix(nodes.size))

    @classmethod
    def on_atoms(cls, kernel, measure: DiscreteMeasure, p,
                 ordered: bool = True) -> "GridOperator":
        """Over all atoms of a discrete measure, in increasing order."""
        order = np.argsort(measure.points)
        return cls(kernel, p, measure.points[order], measure.masses[order],
                   ordered=ordered)

    @classmethod
    def on_interval(cls, kernel, measure, p, s: float, t: float,
                    level: int) -> "GridOperator":
        """Over the dyadic grid of [s, t] at ``level`` (atomless measures)."""
        seg = Interval1D(float(s), float(t))
        return cls.on_nodes(kernel, measure, p,
                            QuadratureGrid.for_interval(seg, level).nodes)

    @classmethod
    def on_range(cls, kernel, measure, p, s: float, t: float,
                 level: int) -> "GridOperator":
        """Over [s, t]: the atoms there, with t appended at mass 0 when it
        is not an atom, or the grid of ``on_interval``."""
        if not isinstance(measure, DiscreteMeasure):
            return cls.on_interval(kernel, measure, p, s, t, level)
        atoms = cls.on_atoms(kernel, measure, p)
        keep = (atoms.nodes >= s) & (atoms.nodes <= t)
        nodes, masses = atoms.nodes[keep], atoms.weights[keep]
        if nodes.size == 0 or not np.isclose(nodes[-1], t):
            nodes, masses = np.append(nodes, t), np.append(masses, 0.0)
        return cls(kernel, p, nodes, masses)

    def _triangle(self) -> np.ndarray:
        """k(t_i, t_l)**p: on ordered grids at l <= i only (zero above the
        diagonal), on the void order at every pair."""
        if self.ordered:
            return _lower_kernel_power(self.kernel, self.p, self.nodes)
        square = (self.nodes.size,) * 2
        return _kernel_power(self.kernel, self.p,
                             np.broadcast_to(self.nodes[:, None], square),
                             np.broadcast_to(self.nodes, square))

    @cached_property
    def kp(self) -> np.ndarray:
        """k(t_i, t_l)**p, zero above the diagonal on ordered grids."""
        return self._triangle()

    @cached_property
    def B(self) -> np.ndarray:
        """The lower-set operator: ``(B g)[i]`` integrates
        ``k(t_i, u)**p g(u)`` over the range from the first node to t_i."""
        # weighted in place: a fresh m x m temporary costs more than a product
        B = self._triangle()
        with np.errstate(invalid="ignore"):
            B *= self.weights
            if self.W is not None:
                B *= self.W
        B[np.isnan(B)] = 0.0
        return B

    @cached_property
    def _b_finite(self) -> bool:
        return bool(np.isfinite(self.B).all())

    @cached_property
    def _b_certifiable(self) -> bool:
        """Whether B is finite and nonnegative, as the ratio tail needs
        (a kernel power of a sign-changing kernel at p = 1 is not)."""
        return self._b_finite and bool((self.B >= 0).all())

    def column(self, g: np.ndarray) -> np.ndarray:
        """``B @ g`` with ``0 * inf = 0``."""
        if self._b_finite and np.isfinite(g).all():
            return self.B @ g
        return _ext_matmul(self.B, g)

    def powers(self, g: np.ndarray) -> Iterator[np.ndarray]:
        """g, B g, B**2 g, ...: every grid series, iterate and certificate."""
        while True:
            yield g
            g = self.column(g)

    def kernel_row(self) -> np.ndarray:
        """k(t, u)**p at the last node t, for every node u."""
        return _kernel_power(self.kernel, self.p,
                             np.full(self.nodes.size, self.nodes[-1]),
                             self.nodes)

    def kernel_column(self, s: float) -> np.ndarray:
        """k(u, s)**p for every node u."""
        return _kernel_power(self.kernel, self.p, self.nodes,
                             np.full(self.nodes.size, float(s)))

    @cached_property
    def row_weights(self) -> np.ndarray:
        """Node weights of the integral over the whole range."""
        return self.weights if self.W is None else self.W[-1] * self.weights

    def row_integral(self, f: np.ndarray) -> float:
        """Integral of f over the whole range (``_ext_row_sums``)."""
        return float(_ext_row_sums(self.row_weights, f))

    def suffix_integrals(self, f: np.ndarray) -> np.ndarray:
        """Q[j] = integral of f over [t_j, t] on an interval grid.

        With interior weight 1, Q is a reverse cumulative sum; ranges of six
        or more panels then correct their three end weights at each end, and
        shorter ranges use their closed rules.  All range weights are
        positive, so a +inf entry of f makes every range holding it
        infinite; other non-finite entries count as 0 and the one-point
        range at t is null, so Q is never NaN.
        """
        W = self.W
        g = _ext_mul(f, self.weights)
        m = g.size
        fin = np.isfinite(g)
        gf = np.where(fin, g, 0.0)
        Q = np.cumsum(gf[::-1])[::-1].copy()
        k = m - 6  # ranges of N >= 6 panels start at j < k
        if k > 0:
            for d, c in enumerate(W[m - 1, :3] - 1.0):
                Q[:k] += c * (gf[d:d + k] + gf[m - 1 - d])
        for N in range(1, min(m, 6)):
            Q[m - 1 - N] = W[N, : N + 1] @ gf[m - 1 - N:]
        Q[m - 1] = 0.0
        if not fin.all():
            hit = np.cumsum((g == np.inf)[::-1])[::-1] > 0
            hit[m - 1] = False
            Q[hit] = np.inf
        return Q

    def _stepper(self, left: np.ndarray):
        """``(R, out=None) -> integral over [s, t] of left(t, u) R(u, s)
        mu(du)``, written into ``out`` when given."""
        if self.W is None:
            A = _ext_mul(left, self.weights[None, :])
            return lambda R, out=None: _ext_matmul(A, R, out)
        return _LayerStep(left, self.W, self.weights)

    def compose(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """``integral over [s, t] of left(t, u) right(u, s) mu(du)`` on
        the grid."""
        return self._stepper(left)(right)

    def layers(self, n_max: int) -> np.ndarray:
        """The iterated kernels ``R_1 = kp, ..., R_{n_max}`` on the grid."""
        m = self.nodes.size
        out = np.zeros((n_max, m, m))
        out[0] = self.kp
        step = self._stepper(self.kp)
        for n in range(1, n_max):
            step(out[n - 1], out[n])
        return out


# ---------------------------------------------------------------------------
# fractional kernels: one-dimensional recursion in the gap variable
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FractionalResolventParams:
    """Derived quantities of a fractional kernel raised to the power p.

    With ``alpha_p = (alpha - 1) p + 1`` (alpha itself at p = 1) the p-th
    power of the kernel is again fractional with exponents
    ``(alpha_p, beta * p)``; the class constraint is ``beta * p < alpha_p``,
    the inequality ``FractionalKernel.require_p`` checks.
    """

    alpha: float
    beta: float
    p: float

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.alpha <= 0 or self.beta < 0:
            raise ValueError("need alpha > 0 and beta >= 0")
        if not self.beta_p < self.alpha_p:
            raise ValueError(
                f"need beta*p < (alpha-1)*p + 1, got alpha={self.alpha}, "
                f"beta={self.beta}, p={self.p}"
            )

    @property
    def alpha_p(self) -> float:
        return _power_exponents(self.alpha, self.beta, self.p)[0]

    @property
    def beta_p(self) -> float:
        return _power_exponents(self.alpha, self.beta, self.p)[1]

    @property
    def gap(self) -> float:
        """alpha_p - beta_p, the exponent gained per layer."""
        return self.alpha_p - self.beta_p

    def sigma(self, n: int) -> float:
        """Exponent of the gap variable in the n-th iterate."""
        return self.gap * n + self.beta_p - 1.0

    def ln_c_hat(self, n: int) -> float:
        """log of the gamma-quotient product entering the layer bound."""
        g, bp = self.gap, self.beta_p
        return sum(ln_gamma(g * i) - ln_gamma(g * i + bp) for i in range(1, n))

    @property
    def n_gamma(self) -> int:
        """First index at which the gap multiples reach the gamma minimiser."""
        x_min, _ = gamma_min_point()
        return max(1, math.ceil(x_min / self.gap))

    @cached_property
    def ln_c_hat_max(self) -> float:
        """log of the largest gamma-quotient product over all layer counts."""
        return max(self.ln_c_hat(i) for i in range(1, self.n_gamma + 1))

    def log_layer_bound(self, n: int, x: float, y: float,
                        ln_c: float) -> float:
        """log of the closed-form bound of the n-th iterate at gap x and
        inner offset y, with gamma-quotient constant ``exp(ln_c)``."""
        g, bp = self.gap, self.beta_p
        log_v = (ln_c + n * ln_gamma(self.alpha_p) - ln_gamma(g * n + bp)
                 + (g * n + bp - 1.0) * math.log(x))
        return log_v - bp * math.log(y) if bp > 0 else log_v

    def log_series_bound(self, n: int, X: float, ln_c: float) -> float:
        """log of the p-th root of the n-th layer bound integrated over a
        lower set of length X (a beta integral; needs beta_p < 1)."""
        g = self.gap
        return (ln_c + n * ln_gamma(self.alpha_p)
                + ln_gamma(1.0 - self.beta_p) + g * n * math.log(X)
                - ln_gamma(g * n + 1.0)) / self.p


def fractional_f_bound(params: FractionalResolventParams, n: int,
                       x: float, y: float) -> float:
    """Closed-form upper bound for the n-th fractional iterate.

    Coincides with the iterate exactly when beta = 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if x <= 0:
        raise ValueError("x must be positive")
    if params.beta_p > 0 and y <= 0:
        return math.inf
    return math.exp(params.log_layer_bound(n, x, y, params.ln_c_hat(n)))


def fractional_inequality_constant(alphas: Sequence[float],
                                   betas: Sequence[float], p: float) -> float:
    """A valid constant for the multivariate fractional resolvent bound.

    The product over axes of the maximal gamma-quotient products.  Equals
    1 when every beta vanishes.  Valid, possibly non-optimal; no explicit
    optimal constant is known to this package.
    """
    log_c = 0.0
    for a, b in zip(alphas, betas):
        log_c += FractionalResolventParams(a, b, p).ln_c_hat_max
    return math.exp(log_c)


@lru_cache(maxsize=4096)
def _jacobi_rule(deg: int, a: float, b: float):
    """Nodes and weights for integral over [0, 1] of
    (1-lam)**a * lam**b * g(lam) d lam."""
    from scipy.special import roots_jacobi

    # scipy divides by 1 + a + b in a branch it masks: 0 when a + b = -1
    with np.errstate(invalid="ignore", divide="ignore"):
        xj, wj = roots_jacobi(deg, a, b)
    lam = 0.5 * (xj + 1.0)
    w = wj * 2.0 ** (-a - b - 1.0)
    return lam, w


@lru_cache(maxsize=None)
def _cheb_rule(deg: int) -> Tuple[np.ndarray, np.ndarray]:
    """Chebyshev points of the first kind and the matrix mapping values
    there to the coefficients of their interpolant (discrete
    orthogonality of T_0..T_{deg-1} on these points)."""
    theta = math.pi * (2 * np.arange(deg) + 1) / (2 * deg)
    fit = np.cos(np.outer(np.arange(deg), theta)) * (2.0 / deg)
    fit[0] *= 0.5
    return np.cos(theta), fit


def _chebval(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``numpy.polynomial.chebyshev.chebval(x, c)`` for a 1-d c of length
    >= 2: the same Clenshaw recurrence in the same order, so the same
    values, updated in place instead of allocating arrays of the size of
    x for every coefficient."""
    x2 = 2.0 * x
    c0, c1 = np.full(x.shape, c[-2]), np.full(x.shape, c[-1])
    spare = np.empty(x.shape)
    for ck in c[-3::-1].tolist():
        np.subtract(ck, c1, out=spare)
        c1 *= x2
        c1 += c0
        c0, spare = spare, c0
    c1 *= x
    c1 += c0
    return c1


class _FractionalProfile:
    """The iterates of a fractional kernel power at y = 1, in the ratio
    r = x / y of the gap to the distance from the left endpoint.

    The iterates are homogeneous, ``f_n(x, y) = y**(gap n - 1) F_n(x / y)``,
    so one profile built up to the largest ratio ``r_max`` serves every
    column of a table and every term of a series.  It factors
    ``F_n(r) = r**(alpha_p n - 1) * psi_n(r)``, which leaves psi_n analytic
    up to r = 0 (the factored power is the exact small-gap exponent), and
    computes one layer from the last by

        psi_{n+1}(r) = integral over [0, 1] of (1 - lam)**(alpha_p - 1)
                       * lam**(alpha_p n - 1) * (1 + lam r)**(-beta_p)
                       * psi_n(lam r) d lam,

    with a Gauss-Jacobi rule whose weight absorbs both endpoint powers
    (``_step``).  The step reads psi_n from its Chebyshev interpolant in
    log r over ``[log r_max - WIDTH, log r_max]``; psi_1 = 1 is read in
    closed form.  A layer is read where it is used: from its interpolant
    once built, else by the step itself at the ratios asked for, when
    they are fewer than the Chebyshev points.  So an interpolant is built (``advance``) only for
    a layer a later layer steps from, or one read at that many ratios.
    Only needed for beta > 0; beta = 0 has closed forms.
    """

    _WIDTH = 50.0

    def __init__(self, params: FractionalResolventParams, r_max: float,
                 deg: int = 96, jacobi_nodes: int = 192):
        if not 0 < r_max < math.inf:
            raise ValueError("profile needs a finite r_max > 0")
        self.params = params
        self.u_hi = math.log(r_max)
        self.u_lo = self.u_hi - self._WIDTH
        self.jacobi_nodes = jacobi_nodes
        xc, self._fit = _cheb_rule(deg)
        self._rs = np.exp(0.5 * ((self.u_hi + self.u_lo)
                                 + (self.u_hi - self.u_lo) * xc))
        # psi_1 = 1, read in closed form; kept for subclasses that interpolate
        self._coefs: list = [None, np.array([1.0, 0.0])]

    @property
    def n_layers(self) -> int:
        """Number of layers with a built interpolant."""
        return len(self._coefs) - 1

    def _psi_at(self, n: int, r: np.ndarray) -> np.ndarray:
        # psi tends to a constant at the left end, so the clamp is benign
        u = np.clip(np.log(np.maximum(r, 1e-300)), self.u_lo, self.u_hi)
        unit = (2.0 * u - (self.u_lo + self.u_hi)) / (self.u_hi - self.u_lo)
        return _chebval(unit, self._coefs[n])

    def _step(self, n: int, r: np.ndarray) -> np.ndarray:
        """psi_{n+1} at ratios r, by the quadrature on layer n's
        interpolant (on psi_1 = 1 itself for n = 1)."""
        ap, bp = self.params.alpha_p, self.params.beta_p
        lam, w = _jacobi_rule(self.jacobi_nodes, ap - 1.0, ap * n - 1.0)
        z = lam[:, None] * r[None, :]
        weight = (1.0 + z) ** (-bp)
        return w @ (weight if n == 1 else weight * self._psi_at(n, z))

    def advance(self) -> None:
        """Build the interpolant of the next layer."""
        self._coefs.append(self._fit @ self._step(self.n_layers, self._rs))

    def psi(self, n: int, r: np.ndarray) -> np.ndarray:
        """psi_n at distinct ratios r (1-d, ``r <= r_max``)."""
        if n == 1:
            return np.ones(r.shape)
        if n > self.n_layers and r.size < self._rs.size:
            while self.n_layers < n - 1:
                self.advance()
            return self._step(n - 1, r)
        while self.n_layers < n:
            self.advance()
        return self._psi_at(n, r)

    def scale(self, n: int, x, y):
        """The factor ``x**(alpha_p n - 1) * y**(-beta_p n)`` of f_n
        (``f_n = scale * psi_n(x / y)``)."""
        return (x ** (self.params.alpha_p * n - 1.0)
                * y ** (-self.params.beta_p * n))

    def f(self, n: int, x, y) -> np.ndarray:
        """The n-th iterate at gaps x > 0 and distances y > 0
        (vectorised, ``x / y <= r_max``)."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                                   np.asarray(y, dtype=float))
        ratios, inv = np.unique(x / y, return_inverse=True)
        return self.scale(n, x, y) * self.psi(n, ratios)[inv].reshape(x.shape)


def _gap_limit(params: FractionalResolventParams, n: int, y: float) -> float:
    """Limit of the n-th iterate as the gap variable tends to zero.

    The small-gap exponent is ``A - 1`` with ``A = alpha_p n`` (the pole
    weight is regular at the inner point there): the limit is inf for
    A < 1, 0 for A > 1, and for A = 1 the beta = 0 gamma-quotient
    coefficient ``gamma(alpha_p)**n / gamma(A)`` times ``y**(-beta_p n)``.
    """
    ap = params.alpha_p
    if ap * n != 1.0:
        return 0.0 if ap * n > 1.0 else math.inf
    return math.exp(n * ln_gamma(ap) - ln_gamma(ap * n)
                    - params.beta_p * n * math.log(y))


# (Chebyshev degree, Jacobi nodes) of the two profiles behind a table: the
# values come from the second, err_est is their largest difference
_TABLE_RULES = ((96, 160), (128, 224))


def _gap_tables(params: FractionalResolventParams, z: np.ndarray, z0: float,
                n_max: int) -> Tuple[np.ndarray, float]:
    """Layers ``f_n(z_i - z_j, z_j - z0)`` on the lower triangle of
    increasing coordinates z, and their quadrature error estimate.

    Columns with ``z_j <= z0`` sit on the pole of the ``(s - t0)`` weight
    and are infinite; diagonals take the small-gap limit.  The strict
    triangle reads one lo and one hi profile, each built once up to the
    largest ratio on the grid (``_TABLE_RULES``).
    """
    m = z.size
    y = z - z0
    live = y > 0
    layers = np.zeros((n_max, m, m))
    layers[:, _tril_mask(m) & ~live[None, :]] = np.inf
    cols = np.flatnonzero(live)
    for n in range(1, n_max + 1):
        # the small-gap limit is 0, inf, or a constant times y**(-bp n)
        layers[n - 1, cols, cols] = (_gap_limit(params, n, 1.0)
                                     * y[cols] ** (-params.beta_p * n))
    ii, jj = np.nonzero(np.tril(_tril_mask(m) & live[None, :], -1))
    if ii.size == 0:
        return layers, 0.0
    xs, ys = z[ii] - z[jj], y[jj]
    # the distinct ratios, read by both rules in every layer
    ratios, inv = np.unique(xs / ys, return_inverse=True)
    lo, hi = (_FractionalProfile(params, float(ratios[-1]), deg, nodes)
              for deg, nodes in _TABLE_RULES)
    err = 0.0
    for n in range(1, n_max + 1):
        scale = hi.scale(n, xs, ys)
        vals = scale * hi.psi(n, ratios)[inv]
        layers[n - 1, ii, jj] = vals
        diff = np.abs(vals - scale * lo.psi(n, ratios)[inv])
        finite = np.isfinite(diff)
        if np.any(finite):
            err = max(err, float(np.max(diff[finite])))
    return layers, err


def _count_vectors(n: int, N: int):
    """All nonnegative integer vectors of length N summing to n."""
    if N == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in _count_vectors(n - head, N - 1):
            yield (head,) + rest


@lru_cache(maxsize=4096)
def _multinomial_terms(alphas: Tuple[float, ...], n: int
                       ) -> Tuple[Tuple[float, float], ...]:
    """Layer n of the sum of the kernels x**(alpha_j - 1), term by term:
    over the count vectors c of ``_count_vectors(n, N)``, the pairs of the
    exponent ``A = sum_j c_j alpha_j`` and the log coefficient of

        n! / prod c_j! * prod gamma(alpha_j)**c_j / gamma(A) * x**(A - 1)

    at gap x.  One part gives the gamma-quotient closed form."""
    a = np.asarray(alphas, dtype=float)
    ln_g = np.array([ln_gamma(x) for x in alphas])
    ln_fact = [ln_gamma(c + 1.0) for c in range(n + 1)]
    terms = []
    for counts in _count_vectors(n, len(alphas)):
        iv = np.asarray(counts, dtype=float)
        A = float(iv @ a)
        terms.append((A, ln_fact[n] - sum(ln_fact[c] for c in counts)
                      + float(iv @ ln_g) - ln_gamma(A)))
    return tuple(terms)


# the multinomial components a table or a series of several parts may
# enumerate: layers 1 to n of N parts have comb(n + N, N) - 1
_COMPONENT_BUDGET = 100_000


def _layers_in_budget(N: int, n_max: int) -> int:
    """The number of layers, at most n_max, whose multinomial components
    fit ``_COMPONENT_BUDGET`` together."""
    while math.comb(n_max + N, N) - 1 > _COMPONENT_BUDGET:
        n_max -= 1
    return n_max


def _multinomial_value(alphas: Tuple[float, ...], n: int, x: float) -> float:
    """Layer n of the sum of the kernels x**(alpha_j - 1) at gap x >= 0.
    At x = 0 it is the small-gap limit, the table's diagonal: inf if some
    A < 1, else the sum of the coefficients with A = 1, else 0."""
    terms = _multinomial_terms(alphas, n)
    if x == 0.0:
        return math.inf if min(A for A, _ in terms) < 1.0 else \
            sum((math.exp(c) for A, c in terms if A == 1.0), 0.0)
    lx = math.log(x)
    return sum(math.exp(c + (A - 1.0) * lx) for A, c in terms)


def _equal_gaps(z: np.ndarray) -> bool:
    """Equal float gaps of increasing z (every dyadic grid of an interval
    with dyadic ends and width): ``z_i - z_j`` is ``z_(i-j) - z_0`` then."""
    gaps = np.diff(z)
    return bool((gaps == gaps[:1]).all())


def _fractional_sum_layers(alphas: Tuple[float, ...],
                           pole: Optional[FractionalResolventParams],
                           z: np.ndarray, z0: float, n_max: int
                           ) -> Tuple[np.ndarray, float, str]:
    """Iterates of the sum of the kernels x**(alpha_j - 1) at gaps x of
    increasing coordinates z, or of the one-part kernel ``pole`` with a
    pole exponent (``_gap_tables``, certified), their error estimate and
    status.

    Without a pole, layer n sums the terms of ``_multinomial_terms``,
    exact.  The diagonal is their small-gap limit (``_multinomial_value``
    at x = 0).  The kernel depends on the gap alone, and so does every
    layer: on nodes with equal float gaps (``_equal_gaps``, phi the
    identity) a layer is summed once on the m - 1 gaps to ``z_0`` and
    copied along its diagonals.  Other nodes (transported, non-dyadic,
    ``for_points``) sum every entry below the diagonal.
    """
    if pole is not None:
        return _gap_tables(pole, z, z0, n_max) + ("certified",)
    N, m = len(alphas), z.size
    n_counts = math.comb(n_max + N, N) - 1
    if n_counts > _COMPONENT_BUDGET:
        raise ComponentBudgetError(
            f"{n_counts} multinomial components exceed budget 100000"
        )
    layers = np.zeros((n_max, m, m))
    toeplitz = _equal_gaps(z)
    strict = ~_tril_mask(m).T
    lx = np.log(z[1:] - z[0] if toeplitz else
                (z[:, None] - z[None, :])[strict])
    # row i of a Toeplitz layer is ``padded[i:i + m]`` reversed: [zeros,
    # diagonal, the values at gaps 1 to m - 1]
    padded = np.zeros(2 * m - 1)
    rows = np.lib.stride_tricks.sliding_window_view(padded, m)[:, ::-1]
    for n in range(1, n_max + 1):
        acc = 0.0
        for A, log_coef in _multinomial_terms(alphas, n):
            acc = acc + np.exp(log_coef + (A - 1.0) * lx)
        diagonal = _multinomial_value(alphas, n, 0.0)
        if toeplitz:
            padded[m - 1], padded[m:] = diagonal, acc
            layers[n - 1] = rows
        else:
            layers[n - 1][strict] = acc
            np.fill_diagonal(layers[n - 1], diagonal)
    return layers, 0.0, "exact"


def fractional_f(params: FractionalResolventParams, n: int,
                 x: float, y: float) -> float:
    """The n-th iterate of a fractional kernel power in gap coordinates.

    ``x`` is the distance between the two arguments and ``y`` the
    distance of the inner argument to the left endpoint.  For beta = 0
    the value is the exact gamma-quotient closed form

        gamma(alpha_p)**n / gamma(alpha_p * n) * x**(alpha_p * n - 1);

    otherwise the defining recursion is integrated layer by layer with
    singularity-absorbing quadrature, on the ratio profile of
    ``_FractionalProfile`` up to ``x / y``: layers 2 to n - 1 are
    interpolants, and layer n is one quadrature step at ``x / y``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if not math.isfinite(x) or not math.isfinite(y):
        raise ValueError("x and y must be finite")
    if params.beta_p == 0.0:
        return _multinomial_value((params.alpha_p,), n, x)
    if y <= 0:
        return math.inf
    if x == 0.0:
        return _gap_limit(params, n, y)
    return float(_FractionalProfile(params, x / y).f(n, x, y))


# ---------------------------------------------------------------------------
# table construction
# ---------------------------------------------------------------------------


def _two_level_err(fine: np.ndarray, coarse: np.ndarray
                   ) -> Tuple[float, str]:
    """Largest difference of two grid levels where both are finite (inf
    when no entry is), and the status it supports.

    The status is ``unknown-accuracy`` when that difference is inf or a
    layer n >= 2 is not finite at an entry where layer 1, the kernel
    power, is: there the grid did not resolve the iterate (a kernel
    with an integrable singularity on the diagonal gives ``inf`` layers
    while its iterates are finite); otherwise ``certified``.
    """
    finite = np.isfinite(fine) & np.isfinite(coarse)
    if not finite.any():
        return math.inf, "unknown-accuracy"
    diff = np.subtract(fine, coarse, out=np.zeros_like(coarse), where=finite)
    err = float(np.abs(diff, out=diff).max())
    resolved = not (finite[0] > finite[1:]).any()
    return err, "certified" if resolved else "unknown-accuracy"


def iterated_kernels(kernel: Kernel, measure: MeasureSpec, p: float,
                     n_max: int, grid: Optional[QuadratureGrid] = None,
                     estimate_error: bool = True) -> ResolventTable:
    """Tabulate the iterated kernels of ``kernel**p`` against a measure.

    Parameters
    ----------
    kernel, measure, p
        The kernel family, the measure and the power.
    n_max : int
        Number of layers; layer 1 is the kernel power itself.
    grid : QuadratureGrid, optional
        Evaluation grid.  Omitted for discrete measures, whose atoms form
        the grid.
    estimate_error : bool
        Compare against a neighbouring grid level to report ``err_est``
        (exact paths always report 0).

    Returns
    -------
    ResolventTable
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return _plan(kernel, measure, p).table(grid, n_max, estimate_error)


# table builders: (plan, grid, n_max, estimate_error) -> (layers, err, status)


def _grid_table(plan, grid, n_max, estimate_error):
    """GridOperator layers, read from the next finer level when the two
    levels are compared."""
    args = (plan.kernel, plan.measure, plan.p)
    layers = GridOperator.on_nodes(*args, grid.nodes).layers(n_max)
    if not estimate_error:
        return layers, 0.0, "unknown-accuracy"
    fine = GridOperator.on_nodes(*args, grid.refine().nodes).layers(
        n_max)[:, ::2, ::2]
    return (fine,) + _two_level_err(fine, layers)


def _rank_one_table(plan, grid, n_max, estimate_error):
    """``k**p Phi**(n-1) / (n-1)!`` on the lower triangle, ``Phi[i, j] = F_j
    - F_i`` from the suffix integrals F of d**p one level finer; ``err_est``
    is the largest difference from the layers of F on the grid itself, plus
    rounding.  The recursion builds tables with non-finite entries."""
    nodes, m = grid.nodes, grid.nodes.size
    values = np.zeros((n_max, m, m))
    _lower_kernel_power(plan.kernel, plan.p, nodes, out=values[0])
    layer_c, err = values[0].copy(), 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        phi, phi_c = (np.subtract(F, F[:, None]) for F in (
            plan.gap_profile(grid.refine().nodes)[::2],
            plan.gap_profile(nodes)))
        # a difference of two suffix rules can fall below 0; above the
        # diagonal every layer stays 0, layer 1 times a finite Phi
        for gap in (phi, phi_c):
            gap.clip(0.0, out=gap)
        for n in range(1, n_max):
            np.multiply(values[n - 1], phi, out=values[n])
            values[n] /= n
            layer_c *= phi_c
            layer_c /= n
            # the comparison goes into the next layer's slot, or into Phi
            # after the last layer: no m x m temporary per layer
            diff = values[n + 1] if n + 1 < n_max else phi
            np.subtract(values[n], layer_c, out=diff)
            # plus the rounding of n sums of m terms
            err = max(err, float(np.abs(diff, out=diff).max())
                      + n * m * np.finfo(float).eps * float(values[n].max()))
    # a non-finite entry stays so in every later layer
    if not all(np.isfinite(x).all() for x in (values[0], values[-1], layer_c)):
        return _grid_table(plan, grid, n_max, estimate_error)
    return (values, err, "certified") if estimate_error else \
        (values, 0.0, "unknown-accuracy")


def _fractional_table(plan, grid, n_max, estimate_error):
    """The table of the fractional parts on z = phi(nodes), scaled by
    ``phi_dot`` of the inner argument (``_FractionalPlan``)."""
    if not isinstance(plan, _FractionalPlan):  # left on the grid by _plan
        raise NotImplementedError(
            "transported fractional tables hold at p = 1, with a pole in "
            "one part at most; decompose with sum_decomposition instead")
    layers, err, status = _fractional_sum_layers(
        plan.alphas, plan.pole, plan.z(grid.nodes), plan.z0, n_max)
    if plan.phi is None:
        return layers, err, status
    dot = plan.dot(grid.nodes)
    with np.errstate(invalid="ignore", over="ignore"):
        layers *= dot
    # inf * 0 at a vanishing-derivative node follows the measure-theoretic
    # convention
    layers[np.isnan(layers)] = 0.0
    dot_max = float(np.max(dot, initial=0.0, where=np.isfinite(dot)))
    return layers, err * dot_max, status


def _box_axis_measures(measure, ndim):
    if isinstance(measure, ProductMeasure):
        if len(measure.factors) != ndim:
            raise ValueError("measure factors do not match kernel axes")
        return measure.factors
    if isinstance(measure, (Lebesgue, WeightedLebesgue)):
        return (measure,) * ndim
    raise TypeError("box tables need Lebesgue-type axis measures")


def _box_layers(kernel: ProductKernel, measure, p, grid: QuadratureGrid,
                n_max) -> np.ndarray:
    """Layer n is ``tail**n`` times the outer product of the axis layers:
    the constant tail and the product measure factor the recursion."""
    if kernel.ndim != 2 or grid.ndim != 2:
        raise NotImplementedError(
            "grid tables on boxes are implemented for two axes; use "
            "product_bound for higher-dimensional products"
        )
    R1, R2 = (GridOperator.on_nodes(k, ms, p, a).layers(n_max)
              for k, ms, a in zip(kernel.factors,
                                  _box_axis_measures(measure, 2), grid.axes))
    scale = (kernel.tail_constant**p) ** np.arange(1.0, n_max + 1.0)
    R1 = _ext_mul(R1, scale[:, None, None])
    return _ext_mul(R1[:, :, None, :, None], R2[:, None, :, None, :])


def _box_table(plan, grid, n_max, estimate_error):
    args = (plan.kernel, plan.measure, plan.p)
    layers = _box_layers(*args, grid, n_max)
    # level 1 has no coarser level to compare with
    if not (estimate_error and grid.level >= 2):
        return layers, 0.0, "unknown-accuracy"
    box = ProductBox(tuple(Interval1D(a[0], a[-1]) for a in grid.axes))
    coarse = _box_layers(*args, QuadratureGrid.for_box(box, grid.level - 1),
                         n_max)
    return (layers,) + _two_level_err(layers[:, ::2, ::2, ::2, ::2], coarse)


def compose_layers(table: ResolventTable, m: int, n: int) -> np.ndarray:
    """Discrete composition ``integral of R_m(t, u) R_n(u, s) mu(du)``.

    Under the semigroup property of iterated kernels this reproduces
    layer ``m + n`` up to quadrature error.  One-dimensional tables with
    finite layer values only; singular layers (fractional first layers)
    do not compose through grid weights.
    """
    if table.values.ndim != 3:
        raise NotImplementedError("layer composition is one-dimensional")
    if isinstance(table.measure, DiscreteMeasure):
        op = GridOperator.on_atoms(None, table.measure, table.p, table.ordered)
    else:
        op = GridOperator.on_nodes(None, table.measure, table.p, table.nodes)
    return op.compose(table.layer(m), table.layer(n))


# ---------------------------------------------------------------------------
# certified tails
# ---------------------------------------------------------------------------


def _factorial_log(q: float, p: float):
    """log-terms ``n -> log((q**n / n!)**(1/p))`` of the factorial
    majorant (n >= 1); ``q = inf`` gives infinite terms."""
    log_q = math.log(q) if q > 0 else -math.inf
    return lambda n: (n * log_q - ln_gamma(n + 1.0)) / p


def _factorial_integrals(w: np.ndarray, Q: np.ndarray) -> Iterator[float]:
    """The sums of ``w Q**n / n!``, n = 0, 1, ...: ``h <- h Q / n``, one
    O(m) product per term, with ``0 * inf = 0``.

    With w and Q finite, ``|h Q| <= max|w| q e**q`` (q = max|Q|: q**n / n!
    <= e**q), so where m max|w| max(q, 1) e**q is in the float range no
    sum or product overflows or makes a NaN, and the terms need neither
    an ``errstate`` nor a NaN scan.
    """
    h = np.array(w, dtype=float)
    plain = bool(np.isfinite(h).all() and np.isfinite(Q).all())
    if plain:
        q = float(np.abs(Q).max(initial=0.0))
        scale = float(np.abs(h).max(initial=0.0)) * max(q, 1.0) * h.size
        plain = scale == 0.0 or math.log(scale) + q < _LOG_MAX - 1.0
    for n in itertools.count(1):
        if plain:
            total = float(h.sum())
            np.multiply(h, Q, out=h)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                total = float(h.sum())
                np.multiply(h, Q, out=h)
            h[np.isnan(h)] = 0.0
        h /= n
        yield total


def _ratio_tail(columns: Iterator[np.ndarray], p: float, certify: bool):
    """The last entries g_n(t) of the columns g_1, g_2, ... of a
    ``GridOperator`` and, if ``certify`` (B finite and nonnegative), the
    tail of their p-th roots: once g_n >= 0 and g_{n+1} <= theta g_n
    entrywise, theta < 1, every later column shrinks by theta too, so the
    terms after the n-th are at most g_{n+1}(t)**(1/p) / (1 - theta**(1/p));
    else inf.  ``tail(n)`` must be called for n = 1, 2, ... in turn."""
    if not certify:
        return (float(g[-1]) for g in columns), None
    columns, ahead = itertools.tee(columns)
    pairs, r = enumerate(itertools.pairwise(ahead), 1), 1.0 / p

    def tail(n: int) -> float:
        k, (g, nxt) = next(pairs)
        if k != n:
            raise RuntimeError(f"ratio tail asked for term {n} after "
                               f"{k - 1}: it reads each column pair in turn")
        pos = g > 0
        if (g < 0).any() or not (nxt >= 0).all() or nxt[~pos].any() \
                or not np.isfinite(nxt).all():
            return math.inf
        with np.errstate(over="ignore"):
            theta = float(np.max(nxt[pos] / g[pos], initial=0.0)) ** r
        return float(nxt[-1]) ** r / (1.0 - theta) if theta < 1.0 \
            else math.inf

    return (float(g[-1]) for g in columns), tail


def _root_sum(integrals: Iterator[float], p: float, tail, tol: float,
              n_cap: int) -> SeriesValue:
    """The one loop that adds resolvent series terms: the p-th roots of
    ``integrals`` (negative rounding as 0) up to the first n where the
    bound ``tail(n)`` of the rest is below ``tol``, else all n_cap (or all
    there are), unconverged; a non-finite term gives inf, unconverged."""
    r, total, n = 1.0 / p, 0.0, 0
    for n, integ in zip(range(1, n_cap + 1), integrals):
        if not math.isfinite(integ):
            return SeriesValue(math.inf, math.inf, n, False)
        total += max(integ, 0.0) ** r
        rest = math.inf if tail is None else tail(n)
        if rest < tol:
            return SeriesValue(total, rest, n, True)
    return SeriesValue(total, math.inf, n, False)


# ---------------------------------------------------------------------------
# family dispatch
# ---------------------------------------------------------------------------


class DivergentBoundError(RuntimeError):
    """The first certified bound is already infinite; iteration refused."""


class _GridPlan:
    """``GridOperator`` recursions on the atoms of a discrete measure
    (exact sums) or on dyadic interval grids; the closed-form plans
    subclass it and fall back on it where they have no closed form.
    ``table_layers`` builds interval and box tables.
    """

    ordered = True

    def __init__(self, kernel: Kernel, measure: MeasureSpec, p: float,
                 table_layers=_grid_table):
        self.kernel, self.measure, self.p = kernel, measure, p
        self.table_layers = table_layers
        self.discrete = isinstance(measure, DiscreteMeasure)

    @property
    def _factorial(self) -> bool:
        """Factorial majorants: monotone kernels, atomless measures."""
        return self.kernel.monotone and not self.discrete

    def _kp(self, t, s) -> float:
        return float(self.kernel.eval_grid(np.asarray(float(t)),
                                           np.asarray(float(s)))) ** self.p

    def null(self, s, t) -> bool:
        """Whether [s, t] is null: at most a point of an atomless measure."""
        return not self.discrete and float(t) <= float(s)

    def op(self, s, t, level: int, finer: bool = True) -> GridOperator:
        """The operator on [s, t], one level finer on intervals for series
        (their quadrature error stays below the truncation tail)."""
        if finer and not self.discrete:
            level += 1
        return GridOperator.on_range(self.kernel, self.measure, self.p,
                                     float(s), float(t), level)

    def table(self, grid, n_max: int, estimate_error: bool) -> ResolventTable:
        if self.discrete:
            op = GridOperator.on_atoms(self.kernel, self.measure, self.p,
                                       self.ordered)
            grid = QuadratureGrid.for_points(op.nodes)
            values, err, status = op.layers(n_max), 0.0, "exact"
        elif grid is None:
            raise ValueError("continuous measures need an explicit grid")
        else:
            values, err, status = self.table_layers(self, grid, n_max,
                                                    estimate_error)
        return ResolventTable(grid=grid, n_max=n_max, p=self.p, values=values,
                              err_est=err, measure=self.measure,
                              ordered=self.ordered, family=self.kernel.family,
                              status=status)

    def resolvent(self, t, s, tol, level, n_cap) -> SeriesValue:
        kp_at = self._kp(t, s)
        if self.null(s, t) or math.isinf(kp_at):
            # a null range keeps the first iterate alone; R >= k**p = inf
            return SeriesValue(kp_at, 0.0, 1, True)
        op = self.op(s, t, level)
        q = float(op.column(np.ones(op.nodes.size))[-1]) \
            if self._factorial else math.inf
        # R_n(t, s) <= k**p(t, s) q**(n-1) / (n-1)!
        terms, tail = self._tailed(op, op.powers(op.kernel_column(s)), 1.0,
                                   q, kp_at, 0, tol)
        # an infinite grid term of a finite kernel value is a quadrature
        # artefact (a singular kernel), not a divergence: the terms end
        return _root_sum(itertools.takewhile(math.isfinite, terms), 1.0,
                         tail, tol, n_cap)

    def residual(self, t, s, grid, n_cap) -> float:
        if grid is None:
            raise ValueError("interval residuals need a grid")
        if self.null(s, t):
            return 0.0  # R(t, t) = k(t, t): the null-range integral vanishes
        fine = self.op(s, t, grid.level)
        op = fine if self.discrete else self.op(s, t, grid.level, finer=False)
        k_ts = self._kp(t, s)  # p = 1
        scale = max(1.0, abs(k_ts))
        rho = np.zeros(fine.nodes.size)
        for cur in itertools.islice(fine.powers(fine.kernel_column(s)), n_cap):
            rho = rho + cur
            if math.isinf(rho[-1]):
                return math.inf  # the grid does not resolve the singularity
            if float(np.max(np.abs(cur))) < 1e-16 * scale:
                break
        rho_coarse = rho[::1 if self.discrete else 2]
        lhs = float(rho_coarse[-1])
        rhs = k_ts + float(op.column(rho_coarse)[-1])
        return abs(lhs - rhs)

    def iterate(self, n, t, s, level) -> float:
        """R_n(t, s) by single-column recursion."""
        if self.null(s, t):
            return self._kp(t, s) if n == 1 else 0.0
        op = self.op(s, t, level, finer=False)
        cols = op.powers(op.kernel_column(s))
        return float(next(itertools.islice(cols, n - 1, None))[-1])

    def series_function(self, t, domain, tol, level, n_cap) -> SeriesValue:
        return self.series(1.0, t, domain, tol, level, n_cap)

    def bound(self, v, t, domain, tol, level, n_cap) -> SeriesValue:
        v_t = float(_nonnegative("v", _as_fn(v)(np.asarray(float(t)))))
        sv = self.series(v, t, domain, tol, level, n_cap)
        return SeriesValue(v_t + sv.sum, sv.tail_bound, sv.terms_used,
                           sv.converged)

    def series(self, v, t, domain, tol, level, n_cap) -> SeriesValue:
        """Sum over n of (integral over the lower set of t of
        R_n(t, s) v(s)**p mu(ds))**(1/p), for a number or function v."""
        if not isinstance(domain, Interval1D):
            raise ValueError("interval kernels need their interval domain to "
                             "form the lower set of t")
        if self.null(domain.lo, t):
            return SeriesValue(0.0, 0.0, 0, True)  # null lower set
        return self._series(v, domain.lo, float(t), tol, level, n_cap)

    def _series(self, v, lo: float, t: float, tol, level, n_cap
                ) -> SeriesValue:
        """``series`` over [lo, t], term n the p-th root of the integral
        g_n(t) of ``_terms``."""
        op = self.op(lo, t, level)
        v_vals = _nonnegative("v", _as_fn(v)(op.nodes))
        sup_v = float(np.max(v_vals)) if np.all(np.isfinite(v_vals)) \
            else math.inf
        terms, tail = self._terms(op, v_vals**self.p, sup_v, tol)
        return _root_sum(terms, self.p, tail, tol, n_cap)

    def _terms(self, op: GridOperator, vp, sup_v, tol):
        """The integrals g_n(t), by Fubini g_1 = B v**p and g_{n+1} = B g_n,
        and their tail; g_n(t)**(1/p) <= sup v (q**n / n!)**(1/p) with the
        gap integral q = (B 1)(t)."""
        q = float(op.column(np.ones(op.nodes.size))[-1])
        return self._tailed(op, op.powers(op.column(vp)), self.p, q, sup_v, 1,
                            tol)

    def _tailed(self, op: GridOperator, columns, p, q, scale, first, tol):
        """The last entries of ``op``'s ``columns`` and the one tail of
        their p-th roots: factorial where it holds (``_factorial``, finite
        gap integral q), else the ratio tail."""
        if not (self._factorial and math.isfinite(q)):
            return _ratio_tail(columns, p, op._b_certifiable)
        return (float(g[-1]) for g in columns), _running_tail(
            _factorial_log(q, p), first, scale, tol)

    def _gap(self, lo, t, level):
        """The grid of [lo, t], k(t, u)**p on it and its integral (inf
        where it is not finite)."""
        op = GridOperator.on_interval(self.kernel, self.measure, self.p, lo,
                                      t, level)
        row = op.kernel_row()
        return op, row, op.row_integral(np.where(np.isfinite(row), row,
                                                 np.inf))

    def vanishing(self, u0, t, domain, strategy, level) -> Tuple[bool, str]:
        if not isinstance(domain, Interval1D):
            return False, "unrecognised setting"
        if not self.kernel.monotone:
            return False, "kernel not declared monotone"
        op, kcol, q = self._gap(domain.lo, t, level)
        if not math.isfinite(q):
            return False, "gap integral infinite"
        u0_vals = np.asarray(_as_fn(u0)(op.nodes), dtype=float)
        if strategy in ("auto", "bounded_u0"):
            if np.all(np.isfinite(u0_vals)):
                return True, "bounded u0 with finite series function"
            if strategy == "bounded_u0":
                return False, "u0 unbounded on the grid"
        if strategy in ("auto", "summability"):
            if math.isfinite(op.row_integral(_ext_mul(kcol, u0_vals**self.p))):
                return True, "finite integral of k**p u0**p"
        return False, "no criterion applied"

    def lipschitz(self, t, domain, level) -> float:
        """(integral of k**p over the lower set of t)**(1/p)."""
        if not isinstance(domain, Interval1D):
            raise TypeError("ordered profiles need an interval domain")
        return self._lipschitz(domain.lo, float(t), level)

    def _lipschitz(self, lo: float, t: float, level) -> float:
        if self.null(lo, t):
            return 0.0  # null lower set
        q = self._gap(lo, t, level)[2]
        return q ** (1.0 / self.p) if math.isfinite(q) else math.inf

    def certificate(self, nodes, w0, n_layers, cert_level, domain):
        """``(ts, w0, b, tail, lambda0)``: the Picard series terms of w0,
        their tail and the Lipschitz profile, on the dyadic sub-grid of
        the operator grid at level at most ``cert_level``."""
        op_level = int(round(math.log2(nodes.size - 1)))
        if 2**op_level + 1 != nodes.size:
            raise ValueError("operator grids must be dyadic (2**level + 1 "
                             "nodes)")
        stride = 2 ** max(op_level - cert_level, 0)
        ts, w0 = nodes[::stride], w0[::stride]
        return (ts, w0) + self._certificate(ts, w0, n_layers, domain)

    def _certificate(self, ts, w0, n_layers, domain):
        if not self.kernel.monotone:
            raise DivergentBoundError(
                "no certified tail for this increment kernel: it must be "
                "monotone, fractional with beta = 0, or void-ordered"
            )
        # by Fubini g_1 = B w0**p and g_{i+1} = B g_i (see ``_terms``)
        p = self.p
        op = GridOperator.on_nodes(self.kernel, self.measure, p, ts)
        q_prof = op.column(np.ones(ts.size))
        cols = itertools.islice(op.powers(op.column(w0**p)), n_layers)
        b = np.array([np.maximum(g, 0.0) ** (1.0 / p) for g in cols])
        sup_w0 = np.maximum.accumulate(w0)
        tail = np.array([sup_w0[j] * _tail_sum(_factorial_log(float(q), p),
                                               n_layers + 1)
                         for j, q in enumerate(q_prof)])
        return b, tail, np.where(q_prof > 0, q_prof, 0.0) ** (1.0 / p)


class _BoxPlan(_GridPlan):
    """A product kernel on a box: tables only (``_box_table``)."""

    def _one_axis(self, *args, **kwargs):
        raise NotImplementedError(
            "product kernels are tabulated by iterated_kernels; for "
            "iterates pass their axis kernels to product_bound"
        )

    resolvent = residual = iterate = series_function = bound = vanishing = \
        lipschitz = certificate = op = null = _one_axis


def _scaled_power(c: float, q: float, x) -> float:
    """``c * q**x``: 0 for c = 0, inf past the float range."""
    try:
        return c * q**x if c else 0.0
    except OverflowError:
        return math.inf


class _VoidPlan(_GridPlan):
    """The void order on atoms (the Fredholm case): every lower set is
    the whole set, ``R_n(t, s) = k1(s)**p q**(n-1)`` with
    ``q = weighted(1)``, and every series is geometric, ``inf`` for q >= 1.
    """

    ordered = False

    def __init__(self, kernel: VoidKernel, measure: DiscreteMeasure, p):
        super().__init__(kernel, measure, p)
        atoms = GridOperator.on_atoms(kernel, measure, p, ordered=False)
        self.nodes, self.masses = atoms.nodes, atoms.weights
        self.k1p = np.asarray(kernel.k1(self.nodes), dtype=float)**p
        self.q = self.weighted(1.0)

    def weighted(self, f) -> float:
        """Sum over the sorted atoms of m k1**p f**p."""
        return float(np.dot(self.masses,
                            self.k1p * np.asarray(f, dtype=float)**self.p))

    def _k1p_at(self, s) -> float:
        return float(self.kernel.k1(np.asarray(s, dtype=float))) ** self.p

    def resolvent(self, t, s, tol, level, n_cap):
        if self.q >= 1.0:
            return SeriesValue(math.inf, 0.0, 0, True)
        return SeriesValue(self._k1p_at(s) / (1.0 - self.q), 0.0, 1, True)

    def residual(self, t, s, grid, n_cap):
        if self.q >= 1.0:
            raise ValueError("void resolvent diverges for mass >= 1")
        k_s = self._k1p_at(s)
        r_col = k_s / (1.0 - self.q)
        return abs(r_col - (k_s + self.weighted(r_col)))

    def iterate(self, n, t, s, level):
        return _scaled_power(self._k1p_at(s), self.q, n - 1)

    def series(self, v, t, domain, tol, level, n_cap):
        if self.q >= 1.0:
            return SeriesValue(math.inf, 0.0, 0, True)
        r, vi = self.q ** (1.0 / self.p), self.weighted(_as_fn(v)(self.nodes))
        return SeriesValue(vi ** (1.0 / self.p) / (1.0 - r), 0.0, 1, True)

    def vanishing(self, u0, t, domain, strategy, level):
        if self.q >= 1.0:
            return False, "void mass >= 1"
        if math.isfinite(self.weighted(_as_fn(u0)(self.nodes))):
            return True, "void geometric decay"
        return False, "weighted integral infinite"

    def lipschitz(self, t, domain, level):
        return self.q ** (1.0 / self.p)

    def certificate(self, nodes, w0, n_layers, cert_level, domain):
        q, p = self.q, self.p
        if q >= 1.0:
            raise DivergentBoundError(
                f"void-order geometric certificate diverges: kernel mass "
                f"{q:.6g} >= 1"
            )
        c0, lam0 = self.weighted(w0), q ** (1.0 / p)
        b = np.empty((n_layers, nodes.size))
        for i in range(1, n_layers + 1):
            b[i - 1] = (c0 * q ** (i - 1)) ** (1.0 / p)
        tail = (c0 ** (1.0 / p) * q ** (n_layers / p)
                / (1.0 - lam0)) if c0 > 0 else 0.0
        return (nodes, w0, b, np.full(nodes.size, tail),
                np.full(nodes.size, lam0))


class _FractionalPlan(_GridPlan):
    """A kernel whose p-th power is ``phi'(s)`` times a sum of fractional
    parts ``x**(a_j - 1) y**(-b_j)`` at the gap ``x = z(t) - z(s)`` and the
    offset ``y = z(s) - z(t0)`` of z = phi(t), on Lebesgue measure
    (``_fractional_parts``).  An order isomorphism phi gives ``R_n(t, s) =
    phi'(s) R_n^frac(x, y)``, and makes every integral over s the
    fractional one over z.  One part takes gamma-quotient closed forms
    (beta = 0) or the ratio profile, several parts without poles their
    multinomial terms; the Mittag-Leffler tails are the least part's,
    scaled by ``C**n`` (``_ln_spread``).  Residuals, beta > 0 resolvent
    bounds and a function v in the bound of a transported or multi-part
    kernel take the grid path.
    """

    def __init__(self, kernel: Kernel, measure: Lebesgue, p, alphas, betas,
                 t0, phi, phi_dot):
        super().__init__(kernel, measure, p, table_layers=_fractional_table)
        least = int(np.argmin(alphas))
        # the least part: the kernel power itself for one part
        self.params = FractionalResolventParams(alphas[least], betas[least],
                                                p)
        self.alphas = tuple(_power_exponents(a, b, p)[0]
                            for a, b in zip(alphas, betas))
        self.pole = self.params if self.params.beta_p > 0 else None
        self.t0, self.phi, self.phi_dot = t0, phi, phi_dot
        self.z0 = float(self.z(t0))

    def z(self, u):
        """The coordinate z = phi(u), u itself without a transport."""
        return u if self.phi is None else \
            np.asarray(self.phi(np.asarray(u, dtype=float)), dtype=float)

    def dot(self, u):
        """phi'(u), 1 without a transport."""
        return 1.0 if self.phi_dot is None else \
            np.asarray(self.phi_dot(np.asarray(u, dtype=float)), dtype=float)

    def _gaps(self, t, s) -> Tuple[float, float]:
        zs = float(self.z(s))
        return float(self.z(t)) - zs, zs - self.z0

    def _span(self, lo, t) -> float:
        """The z-length X of the lower set [lo, t] (lo None: t0): z(t) -
        z(lo) without a pole; with one, whose kernel is inf below t0, inf
        for lo < t0 and from t0 for lo > t0 (then an upper bound)."""
        zt = float(self.z(t))
        if lo is None or self.pole is not None and lo >= self.t0:
            return zt - self.z0
        X = zt - float(self.z(lo))
        return math.inf if self.pole is not None and X > 0 else X

    def _ln_spread(self, x: float) -> float:
        """log C, ``C = sum_j x**(a_j - a_min)``: on gaps up to x every part
        is at most C times x**(a_min - 1), so by the monotonicity of the
        resolvent in the kernel layer n is at most C**n times the least
        part's.  0 for one part."""
        a_min = self.params.alpha_p
        return math.log(sum(x ** (a - a_min) for a in self.alphas))

    def _f(self, n: int, x: float, y: float) -> float:
        """R_n^frac at gap x and offset y."""
        if self.pole is not None:
            return fractional_f(self.params, n, x, y)
        return _multinomial_value(self.alphas, n, x)

    def _log_series_majorant(self, X: float):
        """log-terms of the majorant of the p-th roots of the layers
        integrated over a lower set of z-length X (beta = 0)."""
        prm, ln_c = self.params, self._ln_spread(X) / self.p
        return lambda k: prm.log_series_bound(k, X, 0.0) + k * ln_c

    def resolvent(self, t, s, tol, level, n_cap):
        params = self.params
        x, y = self._gaps(t, s)
        if x <= 0:
            raise ValueError("need s < t for fractional kernels")
        d = float(self.dot(s))
        if self.pole is not None and y <= 0 or math.isinf(d):
            # the first iterate is infinite, and so the resolvent
            return SeriesValue(math.inf, 0.0, 1, True)
        # beta > 0: one profile; term n builds layer n - 1 and steps from it
        f = _FractionalProfile(params, x / y).f if self.pole is not None \
            else self._f
        ln_c = self._ln_spread(x)
        log_maj = lambda k: params.log_layer_bound(  # noqa: E731
            k, x, y, params.ln_c_hat_max) + k * ln_c
        return _root_sum((d * float(f(n, x, y)) for n in itertools.count(1)),
                         1.0, _running_tail(log_maj, 1, d, tol), tol,
                         _layers_in_budget(len(self.alphas), n_cap))

    def iterate(self, n, t, s, level):
        d = float(self.dot(s))
        return d * self._f(n, *self._gaps(t, s)) if d else 0.0

    def series_function(self, t, domain, tol, level, n_cap):
        X = self._span(domain.lo if isinstance(domain, Interval1D) else None,
                       t)
        if X <= 0:
            raise ValueError("need t above the kernel origin")
        return self._closed_series(X, tol, n_cap)

    def _closed_series(self, X: float, tol, n_cap) -> SeriesValue:
        """The series function over a lower set of z-length X."""
        prm = self.params
        if prm.beta_p >= 1.0 or math.isinf(X):
            return SeriesValue(math.inf, 0.0, 0, True)
        if len(self.alphas) > 1:
            # term n: coef X**A / A summed over the multinomial terms
            lX, log_maj = math.log(X), self._log_series_majorant(X)
            terms = (sum(math.exp(c + A * lX) / A
                         for A, c in _multinomial_terms(self.alphas, n))
                     for n in itertools.count(1))
            return _root_sum(terms, 1.0, _running_tail(log_maj, 1, 1.0, tol),
                             tol, _layers_in_budget(len(self.alphas), n_cap))
        # beta = 0: the closed-form terms are their own majorant; beta > 0:
        # the majorant summed as an upper envelope.  tol is absolute, so it
        # is scaled down by an upper bound of the sum.
        exact = prm.beta_p == 0.0
        log_t = lambda n: prm.log_series_bound(  # noqa: E731
            n, X, 0.0 if exact else prm.ln_c_hat(n))
        sv = _log_series(log_t, 1, tol / max(1.0, _tail_sum(log_t, 1)), n_cap)
        if exact:
            return sv
        return SeriesValue(sv.sum + sv.tail_bound, 0.0, sv.terms_used, False)

    def _series(self, v, lo, t, tol, level, n_cap):
        """beta = 0: a constant v times the series function over [lo, t];
        a function v integrated against each closed-form layer by singular
        quadrature (one part, no transport)."""
        p = self.p
        if self.pole is not None or callable(v) and (
                self.phi is not None or len(self.alphas) > 1):
            return super()._series(v, lo, t, tol, level, n_cap)
        X = self._span(lo, t)
        if X <= 0:
            return SeriesValue(0.0, 0.0, 0, True)
        if not callable(v):
            c = float(v)
            if c == 0.0:
                return SeriesValue(0.0, 0.0, 0, True)
            if math.isinf(c):  # the grid path's first term
                return SeriesValue(math.inf, math.inf, 1, False)
            sv = self._closed_series(X, tol / c, n_cap)
            return SeriesValue(c * sv.sum, c * sv.tail_bound, sv.terms_used,
                               sv.converged)
        from .quadrature import integrate_singular

        vp = lambda s: np.asarray(v(s), dtype=float)**p  # noqa: E731
        sup_v = float(np.max(_nonnegative("v", v(np.linspace(lo, t, 257)))))
        log_ml = self._log_series_majorant(X)
        integrals = (math.exp(log_coef) * integrate_singular(
            vp, gamma=1.0, delta=A, a=lo, b=t, tol=1e-13).value
            for n in itertools.count(1)
            for A, log_coef in _multinomial_terms(self.alphas, n))
        return _root_sum(integrals, p, _running_tail(log_ml, 1, sup_v, tol),
                         tol, n_cap)

    def vanishing(self, u0, t, domain, strategy, level):
        from .quadrature import integrate_singular

        bp = self.params.beta_p
        if bp >= 1.0:
            return False, "pole exponent too large"
        u0f = _as_fn(u0)

        def weighted(s):
            # a transport weighs phi'(s) (z(s) - z0)**(-beta), over the
            # (s - t0)**(-beta) the rule absorbs
            w = 1.0 if self.phi is None else self.dot(s) * (
                (self.z(s) - self.z0) / (s - self.t0)) ** (-bp)
            return np.asarray(u0f(s), dtype=float)**self.p * w

        res = integrate_singular(weighted, gamma=1.0 - bp, delta=1.0,
                                 a=self.t0, b=float(t), tol=1e-9)
        if res.converged and math.isfinite(res.value):
            return True, "pole-weighted integral finite"
        return False, "pole-weighted integral not certified"

    def _lipschitz(self, lo, t, level):
        X, bp = self._span(lo, t), self.params.beta_p
        if X <= 0:
            return 0.0
        if bp >= 1.0:
            return math.inf
        val = sum(X ** (a - bp) * beta_fn(1.0 - bp, a) for a in self.alphas)
        return val ** (1.0 / self.p)

    def b_layers(self, nodes, w0, n_layers, lo=None) -> np.ndarray:
        """Picard series terms of a beta-zero kernel, in closed form.

        The increment profile is dominated by its right-continuous step
        majorant, ``w0[k]**p`` on ``(nodes[k-1], nodes[k]]`` and
        ``w0[0]**p`` on ``[lo, nodes[0]]`` (lo the domain's lower end, t0
        when None; sound: the step dominates the profile).  In z each step
        integrates exactly against the closed-form layer, the sum of
        ``coef x**(A - 1)`` over the multinomial terms, so term i at t is

            (sum over k of w0[k]**p sum of coef ((z(t) - z(a_k))**A
             - (z(t) - z(b_k))**A) / A)**(1/p)

        with the step ends ``a_k < b_k`` clipped to ``[lo, t]``: one
        vectorised O(m**2) evaluation per term and no quadrature error.
        Untransported nodes with equal gaps from ``lo = nodes[0]``
        (``_equal_gaps``) make each distance a gap to nodes[0]: a term is
        taken on the m gaps and its sum gathered along the diagonals.
        """
        if self.pole is not None:
            raise DivergentBoundError(
                "certificates for fractional increment kernels are "
                "implemented for beta = 0"
            )
        lo, p, m = self.t0 if lo is None else lo, self.p, nodes.size
        if self.phi is None and lo == nodes[0] and _equal_gaps(nodes):
            # row i of the entry-wise differences: gap i less itself, gap q
            # less gap q - 1 for q = i down to 1, then gap 0 less itself
            dist, ahead = nodes - nodes[0], np.arange(m)
            left, right = np.r_[ahead, 1:m], np.r_[ahead, :m - 1]
            gather = np.tril(m + ahead[:, None] - ahead)
            gather[:, 0] = ahead
        else:
            t = np.maximum(nodes, lo)[:, None]
            ends = np.concatenate(([lo], nodes))[None, :]
            # z-distance from t to every step end, ends above t clipped to t
            dist = self.z(t) - self.z(np.clip(ends, lo, t))
            left, right, gather = np.s_[:, :-1], np.s_[:, 1:], Ellipsis
        step = w0**p
        b = np.zeros((n_layers, m))
        for i in range(1, n_layers + 1):
            weights = None
            for A, log_coef in _multinomial_terms(self.alphas, i):
                powers = dist**A
                part = (powers[left] - powers[right]) * (math.exp(log_coef)
                                                         / A)
                weights = part if weights is None else weights + part
            b[i - 1] = np.maximum(_ext_matmul(weights[gather], step),
                                  0.0) ** (1.0 / p)
        return b

    def _certificate(self, ts, w0, n_layers, domain):
        lo = domain.lo if isinstance(domain, Interval1D) else None
        b = self.b_layers(ts, w0, n_layers, lo)
        # the closed-form Lipschitz constant needs no grid level
        lam0 = np.array([self.lipschitz(t, domain, None) for t in ts])
        sup_w0 = np.maximum.accumulate(w0)
        spans = [self._span(lo, t) for t in ts]
        tail = np.array([0.0 if X <= 0 else sup_w0[j] * _tail_sum(
            self._log_series_majorant(X), n_layers + 1)
            for j, X in enumerate(spans)])
        return b, tail, lam0


class _RankOnePlan(_GridPlan):
    """A kernel with ``k(t, u) k(u, s) = k(t, s) d(u)`` for s <= u <= t
    (``Kernel._diagonal``: separable kernels and sums of separable kernels
    with one ``k0`` object, d = k(u, u); multiplicative kernels, d = 1) on
    an atomless measure.  The resolvent inequalities
    are identities there: with ``Phi(s, t)`` the integral of d**p over
    [s, t], ``R_n = k**p Phi**(n-1) / (n-1)!`` and ``R = k**p exp(Phi)``.
    Tables and series terms take Phi from the range rules of their grid,
    iterates and the resolvent from a converged ``integrate``; each falls
    back on the grid recursion where k**p, d**p or Phi is not resolved.
    """

    def __init__(self, kernel: Kernel, measure: MeasureSpec, p: float):
        super().__init__(kernel, measure, p, table_layers=_rank_one_table)
        self.diagonal = kernel._diagonal()

    def _dp(self, u) -> np.ndarray:
        with np.errstate(invalid="ignore", over="ignore"):
            return np.asarray(self.diagonal(u), dtype=float) ** self.p

    def gap_profile(self, nodes: np.ndarray) -> np.ndarray:
        """``Phi(u, t)``, t the last node: suffix integrals of d**p."""
        return GridOperator.on_nodes(None, self.measure, self.p,
                                     nodes).suffix_integrals(self._dp(nodes))

    def _phi(self, s, t):
        """Phi(s, t) and its error; None on a null range or no convergence."""
        res = None if self.null(s, t) else integrate(
            self._dp, Interval1D(float(s), float(t)), self.measure, tol=1e-12)
        return res if res is not None and res.converged else None

    def resolvent(self, t, s, tol, level, n_cap):
        """``k**p exp(Phi)`` enclosed by ``k**p exp(Phi +- delta)``, delta the
        error of Phi plus rounding; converged if narrower than ``tol``."""
        kp, res = self._kp(t, s), self._phi(s, t)
        if res is None or not 0.0 < kp < math.inf:
            return super().resolvent(t, s, tol, level, n_cap)
        delta = res.err_est + 16 * np.finfo(float).eps * (1.0 + res.value)
        with np.errstate(over="ignore"):
            lo, hi = kp * np.exp([res.value - delta, res.value + delta])
        if math.isinf(lo):
            return SeriesValue(math.inf, 0.0, 1, True)
        return SeriesValue(float(lo), float(hi - lo), 1, bool(hi - lo < tol))

    def iterate(self, n, t, s, level):
        kp, res = self._kp(t, s), self._phi(s, t)
        if res is None or not math.isfinite(kp):
            return super().iterate(n, t, s, level)
        for i in range(1, n):
            kp = kp * res.value / i
        return kp

    def _terms(self, op, vp, sup_v, tol):
        """g_n(t), the integral of ``k**p(t, s) Phi(s, t)**(n-1) / (n-1)!
        v(s)**p`` over the range, one O(m) sum per term ``sum w v**p
        Q**(n-1) / (n-1)!``, and its tail: the gap-integral majorant of a
        monotone kernel; else, where w v**p >= 0 and 0 <= Q <= q = max Q,
        g_n <= W q**(n-1) / (n-1)! with W = sum w v**p."""
        row, Q = op.kernel_row(), self.gap_profile(op.nodes)
        if not all(np.isfinite(x).all() for x in (row, Q, vp)):
            return super()._terms(op, vp, sup_v, tol)
        w = op.row_weights * row
        wv = w * vp
        tail = None
        if self._factorial:
            tail = _running_tail(_factorial_log(float(w.sum()), self.p), 1,
                                 sup_v, tol)
        elif (wv >= 0).all() and (Q >= 0).all():
            tail = _running_tail(_factorial_log(float(Q.max()), self.p), 0,
                                 float(wv.sum()) ** (1.0 / self.p), tol)
        return _factorial_integrals(wv, Q), tail


def _fractional_parts(kernel: Kernel, p: float):
    """``(alphas, betas, t0, phi, phi_dot)`` of a fractional kernel, a
    transported one, or at p = 1 a sum of beta = 0 fractional kernels with
    one t0 (phi None: the identity); None for any other kernel."""
    if isinstance(kernel, FractionalKernel):
        kernel.require_p(p)
        return (kernel.alpha,), (kernel.beta,), kernel.t0, None, None
    if isinstance(kernel, TransformedFractionalKernel):
        return kernel.alphas, kernel.betas, kernel.t0, kernel.phi, \
            kernel.phi_dot
    parts = getattr(kernel, "parts", ())
    if isinstance(kernel, SumKernel) and p == 1.0 and all(
            isinstance(k, FractionalKernel) and k.beta == 0.0
            and k.t0 == parts[0].t0 for k in parts):
        return (tuple(k.alpha for k in parts), (0.0,) * len(parts),
                parts[0].t0, None, None)
    return None


def _plan(kernel: Kernel, measure: MeasureSpec, p: float) -> _GridPlan:
    """The path of a kernel family on a measure, validated once: void
    kernels need atoms (``TypeError`` otherwise); on Lebesgue measure the
    fractional family (``_fractional_parts``) takes ``_FractionalPlan``,
    except transports at p != 1 and several parts with a pole, which take
    the grid and have no table; product kernels take box tables only
    (``NotImplementedError`` at every other entry point, and ``TypeError``
    off a box measure); kernels with a declared diagonal take the
    rank-one closed forms on atomless measures; everything else takes the
    grid."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if isinstance(kernel, VoidKernel):
        if not isinstance(measure, DiscreteMeasure):
            raise TypeError("void-ordered kernels integrate against atoms")
        return _VoidPlan(kernel, measure, p)
    family = _fractional_parts(kernel, p) \
        if isinstance(measure, Lebesgue) else None
    if family is not None:
        alphas, betas, _, phi, _ = family
        if (phi is None or p == 1.0) and (len(alphas) == 1 or not any(betas)):
            return _FractionalPlan(kernel, measure, p, *family)
        return _GridPlan(kernel, measure, p, table_layers=_fractional_table)
    if isinstance(kernel, ProductKernel):
        _box_axis_measures(measure, kernel.ndim)  # a box measure
        return _BoxPlan(kernel, measure, p, _box_table)
    if kernel._diagonal() is not None and \
            isinstance(measure, (Lebesgue, WeightedLebesgue)):
        return _RankOnePlan(kernel, measure, p)
    return _GridPlan(kernel, measure, p)


# ---------------------------------------------------------------------------
# series operations
# ---------------------------------------------------------------------------


def resolvent_series(kernel: Kernel, measure: MeasureSpec, p: float,
                     t, s, tol: float = 1e-10, level: int = 8,
                     n_cap: int = 400) -> SeriesValue:
    """Resolvent of ``kernel**p`` at (t, s): the sum of all iterates.

    Truncation is certified family by family: factorial majorants for
    monotone kernels with finite gap integrals on atomless measures,
    exact geometric sums in the void case, Mittag-Leffler majorants for
    the fractional family on Lebesgue measure (fractional kernels,
    transported ones at p = 1 with at most one part with a pole, and
    sums of beta = 0 fractional kernels with one t0 at p = 1; for
    several parts ``C**n`` times the least part's majorant), and the
    positivity (ratio)
    tail of the grid columns for every other kernel on atoms or a grid
    whose operator is finite and nonnegative; rank-one kernels
    (separable, constant, multiplicative) on ``Lebesgue`` and
    ``WeightedLebesgue`` return the closed form ``k**p exp(Phi +- delta)``,
    delta the error of Phi plus rounding, as the enclosure ``[sum, sum +
    tail]``, converged when its width is below ``tol``.  An infinite
    ``k(t, s)**p`` returns ``inf`` (converged, zero tail); a tail not
    below ``tol`` within ``n_cap`` terms, or an infinite grid term, leaves
    the sum ``converged=False``.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    plan = _plan(kernel, measure, p)
    if plan.ordered and not _leq_points(s, t):
        raise ValueError("need s <= t")
    return plan.resolvent(t, s, tol, level, n_cap)


def volterra_residual(kernel: Kernel, measure: MeasureSpec, t, s,
                      grid: Optional[QuadratureGrid] = None,
                      n_cap: int = 200) -> float:
    """Plug the computed resolvent back into its defining linear equation.

    Returns ``|R(t,s) - k(t,s) - integral over [s,t] of k(t,u) R(u,s)|``.
    The resolvent column is computed one grid level finer than the
    plug-in quadrature, so the residual genuinely reflects quadrature and
    truncation error instead of telescoping away.
    """
    return _plan(kernel, measure, 1.0).residual(t, s, grid, n_cap)


def series_function_I(kernel: Kernel, measure: MeasureSpec, p: float, t,
                      domain: Optional[Interval1D] = None, tol: float = 1e-10,
                      level: int = 8, n_cap: int = 400) -> SeriesValue:
    """The series of p-th roots of integrated iterates at t.

    Finiteness of this function across the domain is what places a
    kernel in the tractable class behind the bound corollaries.
    Dispatch:

    * void order: exact geometric value ``r / (1 - r)`` with
      ``r = q**(1/p)`` for ``q < 1``, infinity otherwise;
    * the fractional family on Lebesgue measure (fractional kernels,
      transported ones at p = 1 with at most one part with a pole, sums
      of beta = 0 fractional kernels with one t0 at p = 1), over the
      lower set [domain.lo, t], or [t0, t] without a domain; a
      transported kernel's integral is the fractional one over phi:

      - one part with beta = 0: closed-form terms (an identity with the
        generalised Mittag-Leffler series);
      - several parts, all with beta = 0: multinomial closed-form terms
        with the majorant tail of their least exponent;
      - one part with beta > 0: finite iff ``beta * p < 1`` and
        ``domain.lo >= t0``; the returned sum is a certified upper
        envelope from the Mittag-Leffler majorant, flagged
        ``converged=False`` (no two-sided certificate);
    * rank-one kernels on atomless measures: closed-form terms with a
      factorial tail, with or without a monotone flag;
    * monotone interval kernels with finite gap integral on atomless
      measures: quadrature terms with a factorial tail;
    * every other kernel on atoms or a grid: quadrature terms with the
      positivity (ratio) tail where the grid operator is finite and
      nonnegative, inf and unconverged at an infinite term.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    return _plan(kernel, measure, p).series_function(t, domain, tol, level,
                                                     n_cap)


def sum_decomposition(parts: Sequence[Kernel], measure: MeasureSpec, n: int,
                      t, s, level: int = 7,
                      budget: int = 4096) -> Dict[Tuple[int, ...], float]:
    """All multi-indexed components of the n-th iterate of a kernel sum.

    Components follow the recursion that integrates the part selected by
    the newest index against the previous component.  Their sum over all
    multi-indices of length n reproduces the iterate of the summed
    kernel, and constant multi-indices reproduce single-kernel iterates.

    Raises
    ------
    ComponentBudgetError
        If ``len(parts)**n`` exceeds ``budget``.
    """
    N = len(parts)
    if N < 1 or n < 1:
        raise ValueError("need at least one part and n >= 1")
    if N**n > budget:
        raise ComponentBudgetError(
            f"{N}**{n} = {N**n} components exceed the budget {budget}"
        )
    if not _leq_points(s, t):
        raise ValueError("need s <= t")

    ops = [_plan(k, measure, 1.0).op(s, t, level, finer=False) for k in parts]
    columns: Dict[Tuple[int, ...], np.ndarray] = {
        (a,): op.kernel_column(s) for a, op in enumerate(ops)
    }
    for _ in range(n - 1):
        nxt: Dict[Tuple[int, ...], np.ndarray] = {}
        for idx, col in columns.items():
            for a, op in enumerate(ops):
                nxt[idx + (a,)] = op.column(col)
        columns = nxt
    return {idx: float(col[-1]) for idx, col in columns.items()}


def product_bound(factors: Sequence[Tuple[Kernel, MeasureSpec]], p: float,
                  n: int, t: Sequence[float], s: Sequence[float],
                  level: int = 7) -> ExtReal:
    """Product over axes of one-dimensional iterates at (t_i, s_i).

    Bounds the iterate of a kernel dominated by a product of per-axis
    kernels, and equals the box iterate exactly when kernel and measure
    factor exactly.
    """
    if len(factors) != len(t) or len(factors) != len(s):
        raise ValueError("axis count mismatch between factors and points")
    acc = ExtReal(1.0)
    for (kern, meas), ti, si in zip(factors, t, s):
        v = _plan(kern, meas, p).iterate(n, float(ti), float(si), level)
        acc = acc * ExtReal(v)
    return acc
