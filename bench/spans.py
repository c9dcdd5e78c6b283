"""Span recorder installed from the benchmark side around volgron's
public functions.

``Tracer.install()`` replaces each traced function by a wrapper in every
``volgron`` module namespace that holds it, so calls that one module makes
into another (``volgron.fixpoint.integrate_singular``, say) are recorded
at the module boundary without touching ``src/``.  ``uninstall()`` puts
the originals back, so untraced batches run the unmodified program.

A span is ``(name, start, end, parent, request)``; counts read from the
results (series terms, Picard iterates, table entries, grid points,
converged integrals) are attached to the span that produced them.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

import volgron
from volgron import kernels as vk


def _table_family(a, k) -> str:
    kernel = a[0] if a else k.get("kernel")
    measure = a[1] if len(a) > 1 else k.get("measure")
    if isinstance(kernel, vk.VoidKernel) or \
            isinstance(measure, volgron.DiscreteMeasure):
        return "discrete"
    if isinstance(kernel, vk.ProductKernel):
        return "box"
    if isinstance(kernel, (vk.FractionalKernel, vk.TransformedFractionalKernel)):
        return "fractional"
    return "interval"


def _picard_problem(a, k) -> str:
    spec = a[0] if a else k.get("op")
    lam = spec.lambda_kernel
    if isinstance(lam, vk.FractionalKernel):
        return "abel"
    if isinstance(lam, vk.VoidKernel):
        return "banach"
    return "volterra"


def _terms(res) -> Dict[str, float]:
    return {"terms": res.terms_used}


# module, function, how to name the span, what to count from the result
TRACED = [
    ("specfun", "mittag_leffler", None, _terms),
    ("quadrature", "integrate_singular", None,
     lambda r: {"converged": float(r.converged)}),
    ("quadrature", "integrate", None, None),
    ("quadrature", "range_weights_matrix", None, None),
    ("resolvent", "iterated_kernels", _table_family,
     lambda r: {"entries": r.values.size}),
    ("resolvent", "compose_layers", lambda a, k: f"m{a[0].nodes.size}", None),
    ("resolvent", "series_function_I", None, _terms),
    ("resolvent", "resolvent_series", None, _terms),
    ("resolvent", "volterra_residual", None, None),
    ("resolvent", "sum_decomposition", None, None),
    ("gronwall", "resolvent_bound", None, _terms),
    ("gronwall", "gronwall_curve", None, None),
    ("gronwall", "check_vanishing", None, None),
    ("gronwall", "fractional_box_sup_bound", None, None),
    ("fixpoint", "picard_solve", _picard_problem,
     lambda r: {"iterates": r[1].iterates}),
    ("fixpoint", "lipschitz_profile", None, None),
    ("problems", "volterra_problem", None, None),
    ("problems", "abel_problem", None, None),
    ("problems", "banach_problem", None, None),
]


class Tracer:
    """In-memory span recorder; ``enabled`` gates recording."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: List[Dict[str, float]] = []
        self.stack: List[int] = []
        self.request = -1
        self.ln_gamma_calls = 0
        self._patches: List[tuple] = []

    # -- recording ------------------------------------------------------------
    def _wrap(self, base: str, fn: Callable, namer, counter) -> Callable:
        tracer = self

        def wrapper(*a, **k):
            name = base if namer is None else f"{base}.{namer(a, k)}"
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append([name, 0.0, 0.0, parent, tracer.request])
            tracer.counts.append({})
            tracer.stack.append(idx)
            start = time.perf_counter()
            try:
                res = fn(*a, **k)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[idx][1] = start
                tracer.spans[idx][2] = end
            if counter is not None:
                tracer.counts[idx] = counter(res)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_ln_gamma(self, fn: Callable) -> Callable:
        tracer = self

        def wrapper(x):
            tracer.ln_gamma_calls += 1
            return fn(x)

        return wrapper

    # -- installation -----------------------------------------------------------
    def _patch_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "volgron"
                                   or mod_name.startswith("volgron.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def install(self) -> None:
        for mod_name, fn_name, namer, counter in TRACED:
            original = getattr(sys.modules[f"volgron.{mod_name}"], fn_name)
            self._patch_everywhere(
                original,
                self._wrap(f"{mod_name}.{fn_name}", original, namer, counter))
        ln_gamma = sys.modules["volgron.specfun"].ln_gamma
        self._patch_everywhere(ln_gamma, self._count_ln_gamma(ln_gamma))
        eval_grid = vk.Kernel.eval_grid

        def points(res):
            return {"points": int(np.asarray(res).size)}

        vk.Kernel.eval_grid = self._wrap("kernels.eval_grid", eval_grid, None,
                                         points)
        self._patches.append((vk.Kernel, "eval_grid", eval_grid))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------
    def mark(self) -> int:
        return len(self.spans)

    def self_times(self, lo: int = 0, hi: Optional[int] = None) -> List[float]:
        hi = len(self.spans) if hi is None else hi
        own = [s[2] - s[1] for s in self.spans[lo:hi]]
        for i in range(lo, hi):
            parent = self.spans[i][3]
            if parent >= lo:
                own[parent - lo] -= self.spans[i][2] - self.spans[i][1]
        return own

    def totals(self, lo: int = 0, hi: Optional[int] = None
               ) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, self seconds and summed counts."""
        hi = len(self.spans) if hi is None else hi
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for i, own in zip(range(lo, hi), self.self_times(lo, hi)):
            agg = out[self.spans[i][0]]
            agg["calls"] += 1
            agg["self_s"] += own
            for key, val in self.counts[i].items():
                agg[key] += val
        return out

    def write(self, path: str, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for (name, start, end, parent, req), cnt in zip(self.spans,
                                                            self.counts):
                fh.write(json.dumps({"name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent,
                                     "request": req, **cnt}) + "\n")
