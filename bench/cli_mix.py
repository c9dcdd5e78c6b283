"""Seeded request mix for the ``cli`` workload.

Why: it drives the same resolvent layer to write large outputs rather
than as a compute kernel.  Interpreter start plus ``import volgron`` is
most of a small call, and per-entry Python serialisation and the 5-D box
tables dominate the rest, so a change that speeds compute but slows
import or output shows up here.

One subprocess per request: every README command, ``resolvent`` over
seeded variants of all six demo configurations (constant at level 8 as
CSV and JSON, product at level 5), ``gronwall``, ``solve`` for all three
problems, ``selftest`` once, one repeat per subcommand for the
bit-for-bit check, and the overflow inputs ``ml --alpha 0.1 --beta 1 --z
100`` and ``solve --problem abel --alpha 0.1`` (at grid level 2).  Every stdout is parsed
and compared with the in-process API result of the same call.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

import numpy as np


@dataclass
class CliRequest:
    name: str
    argv: List[str]
    # computes the expected result through the public API; None for
    # requests that only have an exit contract
    api: Optional[Callable[[], Any]] = None
    # compares parsed stdout with the API result: (ok, detail)
    compare: Optional[Callable[[bytes, Any], Tuple[bool, str]]] = None
    # the exit code the API result implies
    code: Optional[Callable[[Any], int]] = None
    repeat_of: Optional[int] = None
    key: str = ""
    serialise: Optional[Callable[[Any], str]] = None

    @property
    def sub(self) -> str:
        return self.argv[0]


def _rows(text: str) -> List[List[str]]:
    return [line.split(",") for line in text.splitlines()[1:]]


# ---------------------------------------------------------------------------
# ml
# ---------------------------------------------------------------------------


def _ml_request(alpha: float, beta: float, p: float, z: float) -> CliRequest:
    import volgron as vg

    def api():
        return vg.mittag_leffler(vg.MLParams(alpha, beta, p), z, tol=1e-14)

    def compare(out: bytes, sv) -> Tuple[bool, str]:
        row = _rows(out.decode())[0]
        got = (float(row[0]), float(row[1]), int(row[2]), row[3] == "true")
        want = (sv.sum, sv.tail_bound, sv.terms_used, sv.converged)
        return got == want, f"cli {got} api {want}"

    return CliRequest(f"ml/a{alpha:g}/b{beta:g}/p{p:g}/z{z:g}",
                      ["ml", "--alpha", repr(alpha), "--beta", repr(beta),
                       "--p", repr(p), "--z", repr(z)],
                      api, compare, lambda sv: 0 if sv.converged else 2)


# ---------------------------------------------------------------------------
# resolvent
# ---------------------------------------------------------------------------


def _table_for(cfg_src, n_arg: Optional[int], level: int):
    import volgron as vg

    cfg = vg.load_problem_config(cfg_src)
    p = float(cfg.params.get("p", 1.0))
    n = n_arg if n_arg is not None else int(cfg.params.get("n", 3))
    if isinstance(cfg.measure, vg.DiscreteMeasure):
        grid = None
    elif isinstance(cfg.domain, vg.Interval1D):
        grid = vg.QuadratureGrid.for_interval(cfg.domain, level)
    else:
        grid = vg.QuadratureGrid.for_box(cfg.domain, level)
    return vg.iterated_kernels(cfg.kernel, cfg.measure, p, n, grid)


def _table_values(tab) -> np.ndarray:
    """Table entries in output order, from the public ``values`` array."""
    vals = tab.values
    chunks = []
    for n in range(tab.n_max):
        layer = vals[n]
        if layer.ndim == 2:
            if tab.ordered:
                chunks.append(layer[np.tril_indices(layer.shape[0])])
            else:
                chunks.append(layer.ravel())
        else:
            n1, n2 = layer.shape[:2]
            for i1 in range(n1):
                for i2 in range(n2):
                    chunks.append(layer[i1, i2, :i1 + 1, :i2 + 1].ravel())
    return np.concatenate(chunks)


def _compare_csv(out: bytes, tab) -> Tuple[bool, str]:
    lines = out.decode().splitlines()
    want = _table_values(tab)
    got = np.array([ln.rsplit(",", 1)[1] for ln in lines[1:]], dtype=float)
    if got.shape != want.shape:
        return False, f"{got.size} rows, api {want.size}"
    same = np.array_equal(got, want) or bool(np.all(
        (got == want) | (np.isnan(got) & np.isnan(want))))
    return same, f"{got.size} rows {'equal' if same else 'differ'}"


def _compare_json(out: bytes, tab) -> Tuple[bool, str]:
    payload = json.loads(out)
    want = _table_values(tab)
    got = np.array([e["value"] for e in payload["entries"]], dtype=float)
    meta_ok = (payload["n_max"] == tab.n_max and payload["p"] == tab.p
               and payload["err_est"] == tab.err_est
               and payload["status"] == tab.status)
    same = meta_ok and got.shape == want.shape and np.array_equal(got, want)
    return same, f"{got.size} entries {'equal' if same else 'differ'}"


def _resolvent_request(label: str, cfg_src: str, level: Optional[int] = None,
                       n: Optional[int] = None,
                       output: str = "csv") -> CliRequest:
    argv = ["resolvent", "--config", cfg_src]
    if n is not None:
        argv += ["--n", str(n)]
    if level is not None:
        argv += ["--grid-level", str(level)]
    argv += ["--output", output]
    use_level = 6 if level is None else level
    return CliRequest(
        f"resolvent/{label}/{output}", argv,
        lambda: _table_for(cfg_src, n, use_level),
        _compare_csv if output == "csv" else _compare_json, lambda tab: 0,
        key=f"resolvent|{cfg_src}|{n}|{use_level}",
        serialise=(lambda tab: tab.to_csv()) if output == "csv"
        else (lambda tab: tab.to_json() + "\n"))


# ---------------------------------------------------------------------------
# gronwall
# ---------------------------------------------------------------------------


def _gronwall_request(label: str, cfg_src: str, points: Optional[int] = None
                      ) -> CliRequest:
    import volgron as vg

    n_points = 17 if points is None else points

    def api():
        cfg = vg.load_problem_config(cfg_src)
        params = cfg.params
        l_kernel = vg.parse_kernel(cfg.raw["l"]) if "l" in cfg.raw else None
        inp = vg.GronwallInput(v0=float(params.get("v0", 1.0)), k=cfg.kernel,
                               measure=cfg.measure,
                               p=float(params.get("p", 1.0)),
                               domain=cfg.domain, l=l_kernel)
        if isinstance(cfg.domain, vg.VoidSet):
            ts = sorted(set(cfg.measure.points.tolist()))
        else:
            ts = np.linspace(cfg.domain.lo, cfg.domain.hi,
                             n_points + 1)[1:].tolist()
        return vg.gronwall_curve(inp, ts, level=8)

    def compare(out: bytes, curve) -> Tuple[bool, str]:
        rows = np.array(_rows(out.decode()), dtype=float)
        want = np.column_stack([curve.ts, curve.sharp, curve.sup,
                                np.full(curve.ts.size, curve.tail_bound)])
        same = rows.shape == want.shape and np.array_equal(rows, want)
        return same, f"{rows.shape[0]} points {'equal' if same else 'differ'}"

    argv = ["gronwall", "--config", cfg_src]
    if points is not None:
        argv += ["--points", str(points)]
    return CliRequest(f"gronwall/{label}", argv, api, compare,
                      lambda c: 0 if np.all(np.isfinite(c.sharp)) else 2,
                      key=f"gronwall|{cfg_src}|{n_points}",
                      serialise=lambda curve: curve.to_csv())


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _solve_request(label: str, problem: str, extra: List[str], kwargs: dict
                   ) -> CliRequest:
    import volgron as vg
    from volgron import problems

    def api():
        prob = getattr(problems, f"{problem}_problem")(**kwargs)
        _, cert = vg.picard_solve(prob.spec, prob.x0, tol=1e-6, max_iter=25)
        n_nodes = cert.ts.size
        sample = sorted(set([n_nodes - 1]
                            + list(range(0, n_nodes, max(1, n_nodes // 4)))))
        stride = max(1, (prob.spec.grid.size - 1) // max(1, n_nodes - 1))
        rows = []
        x = prob.x0.copy()
        for n in range(1, cert.iterates + 1):
            x = np.asarray(prob.spec.apply(x), dtype=float)
            profile = prob.spec.distance_profile(x, prob.reference)
            for j in sample:
                measured = profile[j * stride] if prob.spec.ordered \
                    else profile[j]
                rows.append([n, cert.ts[j], float(measured), cert.bound(n, j)])
        return np.array(rows, dtype=float), cert.converged

    def compare(out: bytes, res) -> Tuple[bool, str]:
        rows = np.array(_rows(out.decode()), dtype=float)
        want = res[0]
        same = rows.shape == want.shape and np.array_equal(rows, want)
        return same, f"{rows.shape[0]} rows {'equal' if same else 'differ'}"

    return CliRequest(f"solve/{label}",
                      ["solve", "--problem", problem] + extra,
                      api, compare, lambda res: 0 if res[1] else 2)


# ---------------------------------------------------------------------------
# the mix
# ---------------------------------------------------------------------------


def _cfg(domain: dict, measure: dict, kernel: dict, params: dict,
         **extra) -> str:
    data = {"domain": domain, "measure": measure, "kernel": kernel,
            "params": params, **extra}
    return json.dumps(data, sort_keys=True)


UNIT = {"type": "interval", "lo": 0.0, "hi": 1.0}
LEB = {"type": "lebesgue"}


def build(seed: int) -> List[CliRequest]:
    rng = np.random.default_rng([seed, 7])

    def u(lo, hi):
        return round(float(rng.uniform(lo, hi)), 6)

    const = _cfg(UNIT, LEB, {"family": "constant", "c": u(1.0, 2.0)},
                 {"p": 1.0, "n": 3})
    frac = _cfg(UNIT, LEB, {"family": "fractional", "alpha": u(0.6, 0.9),
                            "beta": 0.0, "t0": 0.0}, {"p": 1.0, "n": 3})
    mult = _cfg(UNIT, LEB, {"family": "multiplicative", "rate": u(0.5, 1.5)},
                {"p": 1.0, "n": 3})
    c_box = u(1.0, 1.4)
    product = _cfg({"type": "box", "factors": [UNIT, UNIT]},
                   {"type": "product", "factors": [LEB, LEB]},
                   {"family": "product",
                    "factors": [{"family": "constant", "c": c_box},
                                {"family": "constant", "c": u(1.0, 1.4)}],
                    "tail": 1.0},
                   {"p": 1.0, "n": 2})
    sum_cfg = _cfg(UNIT, LEB, {"family": "sum",
                               "parts": [{"family": "constant", "c": u(0.5, 1.0)},
                                         {"family": "constant", "c": u(1.0, 1.5)}]},
                   {"p": 1.0, "n": 2, "v0": u(0.5, 2.0)},
                   l={"family": "constant", "c": u(0.2, 0.8)})
    void = _cfg({"type": "void", "label": "fredholm"},
                {"type": "discrete",
                 "atoms": [[k / 8, 0.125] for k in range(8)]},
                {"family": "void", "c": u(0.3, 0.7)},
                {"p": 1.0, "n": 4, "v0": 1.0})

    readme = [
        _ml_request(1.0, 1.0, 1.0, 1.0),
        _resolvent_request("readme-constant", "demos/configs/constant.json",
                           level=6, n=3),
        _gronwall_request("readme-constant", "demos/configs/constant.json",
                          points=16),
        _solve_request("readme-volterra", "volterra",
                       ["--rate", "2", "--tol", "1e-6", "--max-iter", "25"],
                       {"rate": 2.0, "level": 9}),
        _solve_request("readme-abel", "abel", ["--alpha", "0.75"],
                       {"alpha": 0.75, "level": 8}),
        _solve_request("readme-banach", "banach", ["--contraction", "0.5"],
                       {"contraction": 0.5}),
        CliRequest("selftest", ["selftest"]),
    ]
    configs = [
        _resolvent_request("constant-L8", const, level=8),
        _resolvent_request("constant-L8", const, level=8, output="json"),
        _resolvent_request("fractional", frac),
        _resolvent_request("multiplicative", mult),
        _resolvent_request("product-L5", product, level=5),
        _resolvent_request("sum", sum_cfg),
        _resolvent_request("void", void),
        _gronwall_request("sum-with-l", sum_cfg),
        _gronwall_request("void", void),
        _ml_request(u(0.5, 1.5), u(0.5, 1.5), 1.0, u(0.5, 5.0)),
        _ml_request(u(0.5, 1.5), u(0.5, 1.5), 2.0, u(0.5, 5.0)),
        _ml_request(u(0.5, 1.5), u(0.5, 1.5), 1.5, u(0.5, 5.0)),
        _ml_request(u(0.5, 1.5), u(0.5, 1.5), 1.0, u(0.5, 5.0)),
        _resolvent_request("multiplicative-L8", mult, level=8),
        _resolvent_request("fractional-L8", frac, level=8, n=4),
        _resolvent_request("product-L3", product, level=3),
        _gronwall_request("constant", const),
        _gronwall_request("multiplicative", mult),
    ]
    rate = u(1.5, 2.5)
    configs.append(_solve_request("volterra", "volterra", ["--rate", repr(rate)],
                                  {"rate": rate, "level": 9}))
    overflow = [
        CliRequest("ml/overflow", ["ml", "--alpha", "0.1", "--beta", "1",
                                   "--z", "100"]),
        # level 2 raises the same OverflowError as the default level 8,
        # which takes about 50 s of singular quadrature to get there
        CliRequest("solve/abel-overflow", ["solve", "--problem", "abel",
                                           "--alpha", "0.1",
                                           "--grid-level", "2"]),
    ]
    # Sorted by cost: 24 calls of about 0.4-0.9 s (interpreter start and
    # import dominate), 6 of about 1-1.3 s that carry the 90th percentile
    # (constant level 8 as CSV and JSON, multiplicative and fractional
    # level 8, the two abel solves) and product level 5 and selftest.
    reqs = readme + configs + overflow
    # one repeated invocation per subcommand for the bit-for-bit contract
    # (selftest prints wall times, so its stdout is not comparable)
    for idx in (0, 1, 2, 5):
        orig = reqs[idx]
        reqs.append(CliRequest(orig.name + "/repeat", orig.argv,
                               repeat_of=idx))
    return reqs


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
