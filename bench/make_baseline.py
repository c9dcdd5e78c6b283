#!/usr/bin/env python3
"""Collect run records from ``.bench_out/`` into ``bench/baseline.json``.

Usage, from the repository root, after ten untraced runs per workload and
one traced run each::

    python3 bench/make_baseline.py --seeds 101-110 --traced-seed 201

For every end-to-end metric it keeps the ten values, their median and
quartiles and the spread (q3 - q1) / median that the benchmark's bounds
are checked against, plus the same for the raw (unscaled) times and the
run's calibration factor.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import END_TO_END, OUT_DIR, WORKLOADS  # noqa: E402


def _summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def _load(workload, seed, trace):
    path = os.path.join(OUT_DIR,
                        f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=_seeds, required=True)
    ap.add_argument("--traced-seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--note", default="")
    args = ap.parse_args()

    out = {"note": args.note, "run_seconds": args.seconds,
           "command": "python3 bench/run.py --workload W --seed N "
                      f"--seconds {args.seconds} --trace 0|1",
           "workloads": {}}
    for w in WORKLOADS:
        runs = [_load(w, s, 0) for s in args.seeds]
        traced = _load(w, args.traced_seed, 1)
        out.setdefault("fingerprint", runs[0]["fingerprint"])
        keys = [k for k, _ in END_TO_END] + ["fail_frac", "enclosure_miss",
                                             "op_samples"]
        out["workloads"][w] = {
            "seeds": args.seeds,
            "end_to_end": {k: _summary([r["end_to_end"][k] for r in runs])
                           for k in keys},
            "raw": {k: _summary([r["run"]["raw"][k] for r in runs])
                    for k in runs[0]["run"]["raw"]},
            "scale": _summary([r["run"]["scale"] for r in runs]),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "wrong_answers": [r["wrong_answers"] for r in runs],
            "per_layer_seed": args.traced_seed,
            "per_layer": traced["per_layer"],
            "requests_seed": args.seeds[0],
            "requests": runs[0]["requests"],
        }
    path = os.path.join(HERE, "baseline.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for w, rec in out["workloads"].items():
        print(w, " ".join(f"{k} {v['median']:.4g} ({v['spread']:.3f})"
                          for k, v in rec["end_to_end"].items()))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
