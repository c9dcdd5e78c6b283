#!/usr/bin/env python3
"""volgron benchmark: one command, three workloads, checked results.

Usage, from the repository root::

    python3 bench/run.py --workload {grid,fractional,cli} --seed N \\
        --seconds S --trace {0,1}

Each workload is a closed loop with one client: every request is one
public call (or one ``volgron`` subprocess for ``cli``) and the next
starts when it returns.  The fixed batch of requests is repeated until
the measured time would pass ``--seconds`` (at least one batch).  Every
result is checked against an independent reference (``oracle.py``); a
CLI stdout is parsed and compared with the in-process API result.

Times are reported in reference seconds (``calibration.py``).  The run
is pinned to one CPU, and a calibration loop of the same kind as the
workload's hot code (``CALIBRATION``) is timed on either side of every
request and set-up process.  ``wall_s``, ``op_p50_ms`` and ``op_p90_ms``
are the raw times multiplied by the run's time-weighted factor;
``setup_s`` is the median of the set-up processes, each converted by its
own two samples.  This takes out most of the host's speed, which swings
by 1.6x on a shared machine; the raw times are printed beside them and
kept in the record.  The set-up processes (fresh interpreter, ``import
volgron`` and the workload's inputs) are spread over the run rather than
run first, so that they meet the same host speeds as the requests.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
traced and untraced batches and prints the per-layer metrics, taken from
spans recorded around volgron's public functions (``spans.py``) in the
first traced batch, plus the tracing overhead.  The last line of stdout
is one JSON object; a longer record with the machine fingerprint and
per-request details is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import fingerprint  # noqa: E402

WORKLOADS = ("grid", "fractional", "cli")
SETUP_REPEATS = 5
# calibration loop per workload, of the same kind as its hot code
CALIBRATION = {"grid": "array", "fractional": "mixed", "cli": "python"}
OUT_DIR = ".bench_out"

SETUP_SNIPPET = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
    "import volgron\n"
    "t1 = time.perf_counter()\n"
    "if sys.argv[3] != 'cli':\n"
    "    import workloads\n"
    "    workloads.build(sys.argv[3], int(sys.argv[4]))\n"
    "print('ready', t1 - t0, flush=True)\n"
)

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("specfun.mittag_leffler.calls", "count"),
    ("specfun.mittag_leffler.self_s", "s"),
    ("specfun.ln_gamma.calls", "count"),
    ("quadrature.integrate_singular.calls", "count"),
    ("quadrature.integrate_singular.self_s", "s"),
    ("quadrature.integrate_singular.converged_ratio", "ratio"),
    ("quadrature.integrate.calls", "count"),
    ("quadrature.integrate.self_s", "s"),
    ("quadrature.range_weights_matrix.misses", "count"),
    ("quadrature.range_weights_matrix.self_s", "s"),
    ("kernels.eval_grid.calls", "count"),
    ("kernels.eval_grid.points", "count"),
    ("kernels.eval_grid.self_s", "s"),
    ("resolvent.iterated_kernels.interval.self_s", "s"),
    ("resolvent.iterated_kernels.interval.entries", "count"),
    ("resolvent.iterated_kernels.fractional.self_s", "s"),
    ("resolvent.iterated_kernels.box.self_s", "s"),
    ("resolvent.iterated_kernels.box.entries", "count"),
    ("resolvent.compose_layers.m129.self_s", "s"),
    ("resolvent.compose_layers.m513.self_s", "s"),
    ("resolvent.series_function_I.self_s", "s"),
    ("resolvent.series_function_I.terms", "count"),
    ("resolvent.resolvent_series.self_s", "s"),
    ("resolvent.resolvent_series.terms", "count"),
    ("resolvent.volterra_residual.self_s", "s"),
    ("resolvent.sum_decomposition.self_s", "s"),
    ("gronwall.resolvent_bound.self_s", "s"),
    ("gronwall.resolvent_bound.terms", "count"),
    ("gronwall.gronwall_curve.self_s", "s"),
    ("gronwall.check_vanishing.self_s", "s"),
    ("fixpoint.picard_solve.volterra.self_s", "s"),
    ("fixpoint.picard_solve.abel.self_s", "s"),
    ("fixpoint.picard_solve.iterates", "count"),
    ("fixpoint.lipschitz_profile.calls", "count"),
    ("fixpoint.lipschitz_profile.self_s", "s"),
    ("problems.build_s", "s"),
    ("cli.import_s", "s"),
    ("cli.ml.s", "s"),
    ("cli.resolvent.s", "s"),
    ("cli.gronwall.s", "s"),
    ("cli.solve.s", "s"),
    ("cli.selftest.s", "s"),
    ("cli.bytes_out", "B"),
    ("cli.serialise_s", "s"),
    ("cli.serialise_mb_per_s", "MB/s"),
    ("trace_overhead_frac", "ratio"),
    ("fail_frac", "ratio"),
    ("enclosure_miss", "count"),
    ("op_samples", "count"),
]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _percentiles(samples):
    """Median and 90th percentile, with the count of samples above it."""
    q = statistics.quantiles(samples, n=100, method="inclusive")
    p50, p90 = q[49], q[89]
    return p50, p90, sum(1 for x in samples if x > p90)


def _digest(obj, h=None):
    """Hash of a result's data, for the bit-for-bit repeat check."""
    import numpy as np

    top = h is None
    h = h or hashlib.sha256()
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for x in obj:
            _digest(x, h)
    elif isinstance(obj, dict):
        for k in sorted(obj, key=repr):
            _digest(k, h)
            _digest(obj[k], h)
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            val = getattr(obj, f.name)
            if not callable(val):
                _digest(val, h)
    elif isinstance(obj, (bool, int, float, str, np.floating, np.integer)) \
            or obj is None:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else None


def spawn_setup(argv, env, clock):
    """One fresh process from spawn to ready: its reference seconds, raw
    seconds and import seconds."""
    before = clock.sample()
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    wall = time.perf_counter() - start
    out, err = proc.communicate()
    if proc.returncode != 0 or not line.startswith("ready"):
        raise RuntimeError(f"setup process failed: {err.strip()}")
    ref = clock.add(wall, before, clock.sample())
    return ref, wall, float(line.split()[1])


def batch_order(reqs):
    """Execution order that spreads each cost class evenly over a batch,
    so that calibration samples fall at most one heavy request apart."""
    groups = {}
    for i, r in enumerate(reqs):
        groups.setdefault(r.cls, []).append(i)
    n, taken, order = len(reqs), dict.fromkeys(groups, 0), []
    for slot in range(n):
        c = max((c for c in groups if taken[c] < len(groups[c])),
                key=lambda c: (len(groups[c]) * (slot + 1) / n - taken[c], c))
        order.append(groups[c][taken[c]])
        taken[c] += 1
    return order


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------


def run_inprocess(name, seed, seconds, traced, env):
    setup_argv = [sys.executable, "-c", SETUP_SNIPPET, "src", HERE, name,
                  str(seed)]
    clock, setups = calibration.Clock(CALIBRATION[name]), []

    import spans
    import workloads
    from volgron import quadrature

    rwm = quadrature.range_weights_matrix
    tracer = spans.Tracer() if traced else None
    if tracer:
        tracer.install()
    build_start = time.perf_counter()
    reqs = workloads.build(name, seed)
    build_s = time.perf_counter() - build_start
    problems_build_s = 0.0
    if tracer:
        problems_build_s = sum(s[2] - s[1] for s in tracer.spans
                               if s[0].startswith("problems.")
                               and s[3] == -1)
        tracer.uninstall()

    n = len(reqs)
    lat = [[] for _ in range(n)]
    order = batch_order(reqs)
    walls_plain, walls_traced = [], []
    first_digest = [None] * n
    outcome = [None] * n
    errors = [None] * n
    attempted = failed = wrong = 0
    traced_window = None
    ln_gamma_first = 0
    misses_before = misses_after = 0
    batch = 0
    measured = 0.0
    min_batches = 2 if traced else 1
    while True:
        # set-up spawns are spread over the run, one before each batch,
        # so that they meet the same host speeds as the requests
        if len(setups) < SETUP_REPEATS:
            setups.append(spawn_setup(setup_argv, env, clock))
        batch_traced = traced and batch % 2 == 0
        if batch_traced:
            tracer.install()
            lo = tracer.mark()
            lg0 = tracer.ln_gamma_calls
            miss0 = rwm.cache_info().misses
        results, durs, bcals = [None] * n, [0.0] * n, []
        for i in order:
            req = reqs[i]
            if tracer:
                tracer.request = i
            bcals.append(clock.sample())
            t0 = time.perf_counter()
            try:
                res, err = req.call(), None
            except Exception:
                res, err = None, traceback.format_exc(limit=3)
            t1 = time.perf_counter()
            results[i] = (res, err)
            durs[i] = t1 - t0
        bcals.append(clock.sample())
        for k, i in enumerate(order):
            clock.add(durs[i], bcals[k], bcals[k + 1])
        wall = sum(durs)
        if not batch_traced:
            for i, d in enumerate(durs):
                lat[i].append(d)
        if batch_traced:
            tracer.uninstall()
            if traced_window is None:
                traced_window = (lo, tracer.mark())
                ln_gamma_first = tracer.ln_gamma_calls - lg0
                misses_before, misses_after = miss0, rwm.cache_info().misses
            walls_traced.append(wall)
        else:
            walls_plain.append(wall)

        for i, (res, err) in enumerate(results):
            attempted += 1
            if err is not None:
                failed += 1
                errors[i] = err
                continue
            d = _digest(res)
            if first_digest[i] is None:
                first_digest[i] = d
                try:
                    outcome[i] = reqs[i].check(res)
                except Exception:
                    outcome[i] = workloads.Outcome(
                        False, detail="check raised: "
                        + traceback.format_exc(limit=3))
            elif d != first_digest[i]:
                failed += 1
                wrong += 1
                errors[i] = "result differs between identical calls"
                continue
            if not outcome[i].ok:
                failed += 1
                wrong += 1
        batch += 1
        measured += wall
        typical = statistics.median(walls_plain + walls_traced)
        if batch >= min_batches and measured + typical > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(spawn_setup(setup_argv, env, clock))

    all_lat = [x for per in lat for x in per]
    p50, p90, beyond = _percentiles(all_lat)
    misses = sum(1 for o in outcome if o is not None and o.miss)
    certified = sum(o.certified for o in outcome if o is not None)
    raw = {
        "setup_s": statistics.median(w for _, w, _ in setups),
        "wall_s": statistics.median(walls_plain) if walls_plain
        else statistics.median(walls_traced),
        "op_p50_ms": 1e3 * p50,
        "op_p90_ms": 1e3 * p90,
    }
    e2e = {
        "setup_s": statistics.median(r for r, _, _ in setups),
        "wall_s": clock.scale * raw["wall_s"],
        "op_p50_ms": clock.scale * raw["op_p50_ms"],
        "op_p90_ms": clock.scale * raw["op_p90_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_frac": failed / attempted,
        "enclosure_miss": misses,
        "op_samples": len(all_lat),
    }
    layer = {}
    if traced:
        lo, hi = traced_window
        layer = layer_metrics(tracer.totals(lo, hi))
        layer["specfun.ln_gamma.calls"] = ln_gamma_first
        layer["quadrature.range_weights_matrix.misses"] = \
            misses_after - misses_before
        layer["problems.build_s"] = problems_build_s
        warm = walls_traced[1:] or walls_traced
        layer["trace_overhead_frac"] = \
            statistics.median(warm) / statistics.median(walls_plain) - 1.0
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl"),
                     tracer.spans[0][1] if tracer.spans else 0.0)
    details = [{
        "name": r.name, "class": r.cls,
        "median_ms": 1e3 * statistics.median(lat[i]) if lat[i] else None,
        "ok": bool(outcome[i].ok) if outcome[i] else False,
        "certified": outcome[i].certified if outcome[i] else 0,
        "miss": bool(outcome[i].miss) if outcome[i] else False,
        "detail": outcome[i].detail if outcome[i] else errors[i],
    } for i, r in enumerate(reqs)]
    extra = {"batches": batch, "beyond_p90": beyond, "certified": certified,
             "scale": clock.scale, "scales": clock.scales,
             "cal_samples": len(clock.samples),
             "raw": raw, "setups": setups, "build_s": build_s,
             "walls_plain": walls_plain, "walls_traced": walls_traced}
    return attempted, failed, wrong, e2e, layer, details, extra


# ---------------------------------------------------------------------------
# cli workload
# ---------------------------------------------------------------------------


def _run_cli_batch(reqs, env, clock, before=None, tracer=None):
    """Run every request as a subprocess, with a calibration sample on
    either side; ``before(i)`` runs ahead of request ``i``'s first sample
    and a tracer gets one span per request.  Returns the batch's raw
    seconds and the runs."""
    out = []
    for i, req in enumerate(reqs):
        if before is not None:
            before(i)
        c0 = clock.sample()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "volgron"] + req.argv,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env)
        t1 = time.perf_counter()
        clock.add(t1 - t0, c0, clock.sample())
        if tracer is not None:
            tracer.spans.append([f"cli.{req.sub}", t0, t1, -1, i])
            tracer.counts.append({"bytes": len(proc.stdout)})
        out.append((t1 - t0, proc.returncode, proc.stdout, proc.stderr))
    return sum(r[0] for r in out), out


def _check_cli(reqs, runs, api_results):
    """Verdict per request: (ok, detail)."""
    verdicts = []
    for i, (req, (_, code, stdout, stderr)) in enumerate(zip(reqs, runs)):
        if b"Traceback (most recent call last)" in stderr:
            last = stderr.decode(errors="replace").strip().splitlines()[-1]
            verdicts.append((False, f"traceback: {last}"))
            continue
        if req.repeat_of is not None:
            same = runs[req.repeat_of][2] == stdout and \
                runs[req.repeat_of][1] == code
            verdicts.append((same, "stdout identical" if same
                             else "stdout differs from the first call"))
            continue
        if req.sub == "selftest":
            lines = stdout.decode().splitlines()
            from volgron.selftest import ALL_CHECKS

            ok = code == 0 and len(lines) == len(ALL_CHECKS) and \
                all(ln.startswith("[PASS] ") for ln in lines)
            verdicts.append((ok, f"exit {code}, {len(lines)} lines"))
            continue
        if req.api is None:
            # exit contract only: a one-line message and exit 1 or 2
            ok = code in (1, 2) and len(stderr.strip().splitlines()) <= 1
            verdicts.append((ok, f"exit {code}"))
            continue
        res = api_results[i]
        if isinstance(res, Exception):
            verdicts.append((False, f"api raised {res!r}"))
            continue
        want_code = req.code(res)
        if code != want_code:
            verdicts.append((False, f"exit {code}, api implies {want_code}"))
            continue
        try:
            verdicts.append(req.compare(stdout, res))
        except Exception as exc:
            verdicts.append((False, f"unparseable stdout: {exc!r}"))
    return verdicts


def run_cli(seed, seconds, traced, env):
    import cli_mix
    import spans

    setup_argv = [sys.executable, "-c", SETUP_SNIPPET, "src", HERE, "cli",
                  "0"]
    clock, setups = calibration.Clock(CALIBRATION["cli"]), []
    reqs = cli_mix.build(seed)
    # the set-up spawns are spread over the first batch
    setup_at = {k * len(reqs) // SETUP_REPEATS for k in range(SETUP_REPEATS)}

    def spawn_due(i):
        if i in setup_at and len(setups) < SETUP_REPEATS:
            setups.append(spawn_setup(setup_argv, env, clock))

    tracer = spans.Tracer() if traced else None
    walls_plain, walls_traced, runs_all = [], [], []
    measured = 0.0
    batch = 0
    while True:
        batch_traced = traced and batch % 2 == 1
        wall, runs = _run_cli_batch(
            reqs, env, clock, spawn_due if batch == 0 else None,
            tracer if batch_traced else None)
        (walls_traced if batch_traced else walls_plain).append(wall)
        runs_all.append(runs)
        batch += 1
        measured += wall
        if batch >= (2 if traced else 1) and \
                measured + statistics.median(walls_plain) > seconds:
            break

    # in-process API results of the same calls, shared by repeats
    if tracer:
        tracer.install()
    cache, api_results = {}, []
    for req in reqs:
        if req.api is None:
            api_results.append(None)
            continue
        key = req.key or repr(req.argv)
        if key not in cache:
            try:
                cache[key] = req.api()
            except Exception as exc:
                cache[key] = exc
        api_results.append(cache[key])
    if tracer:
        tracer.uninstall()

    attempted = failed = wrong = 0
    verdicts = None
    for runs in runs_all:
        v = _check_cli(reqs, runs, api_results)
        verdicts = verdicts or v
        for ok, detail in v:
            attempted += 1
            if not ok:
                failed += 1
                wrong += not detail.startswith("traceback")
    lat_plain = [r[0] for b, runs in enumerate(runs_all)
                 if not (traced and b % 2 == 1) for r in runs]
    p50, p90, beyond = _percentiles(lat_plain)
    import_s = statistics.median(i for _, _, i in setups)
    raw = {
        "setup_s": statistics.median(w for _, w, _ in setups),
        "wall_s": statistics.median(walls_plain),
        "op_p50_ms": 1e3 * p50,
        "op_p90_ms": 1e3 * p90,
    }
    e2e = {
        "setup_s": statistics.median(r for r, _, _ in setups),
        "wall_s": clock.scale * raw["wall_s"],
        "op_p50_ms": clock.scale * raw["op_p50_ms"],
        "op_p90_ms": clock.scale * raw["op_p90_ms"],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "fail_frac": failed / attempted,
        "enclosure_miss": 0,
        "op_samples": len(lat_plain),
    }
    layer = {}
    if traced:
        layer = layer_metrics(tracer.totals())
        layer["specfun.ln_gamma.calls"] = tracer.ln_gamma_calls
        layer["cli.import_s"] = import_s
        for sub in ("ml", "resolvent", "gronwall", "solve", "selftest"):
            layer[f"cli.{sub}.s"] = statistics.median(
                sp[2] - sp[1] for sp in tracer.spans if sp[0] == f"cli.{sub}")
        layer["cli.bytes_out"] = sum(c.get("bytes", 0) for c in tracer.counts)
        ser_s, ser_bytes, done = 0.0, 0, set()
        for req, res in zip(reqs, api_results):
            if req.serialise is None or isinstance(res, Exception):
                continue
            tag = (req.key, req.argv[-1])
            if tag in done:
                continue
            done.add(tag)
            t0 = time.perf_counter()
            text = req.serialise(res)
            ser_s += time.perf_counter() - t0
            ser_bytes += len(text)
        layer["cli.serialise_s"] = ser_s
        layer["cli.serialise_mb_per_s"] = ser_bytes / 1e6 / ser_s
        layer["trace_overhead_frac"] = \
            statistics.median(walls_traced) / statistics.median(walls_plain) - 1
    first = runs_all[0]
    details = [{
        "name": req.name, "argv": req.argv[:1] + [
            a if len(a) < 80 else a[:77] + "..." for a in req.argv[1:]],
        "seconds": r[0], "exit": r[1], "stdout_bytes": len(r[2]),
        "sha256": cli_mix.digest(r[2]), "ok": v[0], "detail": v[1],
    } for req, r, v in zip(reqs, first, verdicts)]
    extra = {"batches": batch, "beyond_p90": beyond,
             "scale": clock.scale, "scales": clock.scales,
             "cal_samples": len(clock.samples),
             "raw": raw, "setups": setups,
             "walls_plain": walls_plain, "walls_traced": walls_traced}
    return attempted, failed, wrong, e2e, layer, details, extra


# ---------------------------------------------------------------------------
# per-layer metrics from span totals
# ---------------------------------------------------------------------------


def layer_metrics(tot):
    def g(span, key):
        return tot[span][key] if span in tot and key in tot[span] else 0.0

    m = {}
    for metric, _ in PER_LAYER:
        m[metric] = 0.0
    for span in ("specfun.mittag_leffler", "quadrature.integrate_singular",
                 "quadrature.integrate", "kernels.eval_grid",
                 "fixpoint.lipschitz_profile"):
        m[f"{span}.calls"] = g(span, "calls")
        m[f"{span}.self_s"] = g(span, "self_s")
    calls = g("quadrature.integrate_singular", "calls")
    m["quadrature.integrate_singular.converged_ratio"] = \
        g("quadrature.integrate_singular", "converged") / calls if calls else 0.0
    m["quadrature.range_weights_matrix.self_s"] = \
        g("quadrature.range_weights_matrix", "self_s")
    m["kernels.eval_grid.points"] = g("kernels.eval_grid", "points")
    for fam in ("interval", "fractional", "box"):
        span = f"resolvent.iterated_kernels.{fam}"
        m[f"{span}.self_s"] = g(span, "self_s")
        if f"{span}.entries" in m:
            m[f"{span}.entries"] = g(span, "entries")
    for size in ("m129", "m513"):
        m[f"resolvent.compose_layers.{size}.self_s"] = \
            g(f"resolvent.compose_layers.{size}", "self_s")
    for span in ("resolvent.series_function_I", "resolvent.resolvent_series",
                 "gronwall.resolvent_bound"):
        m[f"{span}.self_s"] = g(span, "self_s")
        m[f"{span}.terms"] = g(span, "terms")
    for span in ("resolvent.volterra_residual", "resolvent.sum_decomposition",
                 "gronwall.gronwall_curve", "gronwall.check_vanishing",
                 "fixpoint.picard_solve.volterra",
                 "fixpoint.picard_solve.abel"):
        m[f"{span}.self_s"] = g(span, "self_s")
    m["fixpoint.picard_solve.iterates"] = sum(
        g(s, "iterates") for s in tot if s.startswith("fixpoint.picard_solve."))
    return m


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "volgron", "__init__.py")):
        print("bench: volgron sources not found under ./src; run from the "
              "repository root", file=sys.stderr)
        return 2
    fingerprint.pin_blas_threads()
    calibration.pin_one_cpu()
    sys.path.insert(0, src)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"

    traced = bool(args.trace)
    if args.workload == "cli":
        result = run_cli(args.seed, args.seconds, traced, env)
    else:
        result = run_inprocess(args.workload, args.seed, args.seconds, traced,
                               env)
    attempted, failed, wrong, e2e, layer, details, extra = result
    if traced:
        for key in ("fail_frac", "enclosure_miss", "op_samples"):
            layer[key] = e2e[key]
    units = dict(END_TO_END + PER_LAYER)
    shown = layer if traced else {k: e2e[k] for k, _ in END_TO_END}
    metrics = {k: {"value": float(v), "unit": units[k]}
               for k, v in shown.items()}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "fingerprint": fingerprint.collect(),
              "attempted": attempted, "failed": failed,
              "wrong_answers": wrong, "end_to_end": e2e, "per_layer": layer,
              "run": extra, "requests": details}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    fp = record["fingerprint"]
    print(f"# {args.workload} seed {args.seed}: {attempted} requests in "
          f"{extra['batches']} batches, {failed} failed "
          f"({wrong} wrong answers), record in {path}")
    print(f"# machine: nproc {fp['nproc']}, BLAS {fp['blas'].get('name')} "
          f"threads {fp['blas_threads']['OPENBLAS_NUM_THREADS']}, python "
          f"{fp['python']}, numpy {fp['numpy']}, scipy {fp['scipy']}, "
          f"caches {fp['caches']}")
    print(f"# times in reference seconds: raw seconds x {extra['scale']:.4f} "
          f"from {extra['cal_samples']} calibration samples, kind "
          f"{CALIBRATION[args.workload]} (calibration.py)")
    for key, unit in END_TO_END + [("fail_frac", "ratio"),
                                   ("enclosure_miss", "count")]:
        raw = extra["raw"].get(key)
        print(f"{key:>16s} {e2e[key]:14.6g} {unit}"
              + (f"  (raw {raw:.6g})" if raw is not None else ""))
    print(f"{'samples':>16s} {e2e['op_samples']:14d} "
          f"({extra['beyond_p90']} above p90)")
    for d in details:
        if not d["ok"] or d.get("miss"):
            flag = "FAIL" if not d["ok"] else "MISS"
            print(f"# {flag} {d['name']}: {d['detail']}".splitlines()[0])
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
