"""Machine fingerprint recorded with every result."""

from __future__ import annotations

import os
import platform
import sys

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_blas_threads() -> None:
    """Run BLAS single-threaded; call before numpy loads.

    One thread is within ``nproc`` on any machine and keeps the timings
    of a shared two-core machine steadier than a thread pool would.
    """
    for var in BLAS_ENV:
        os.environ[var] = "1"


def _cache_sizes() -> dict:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        if not entry.startswith("index"):
            continue
        try:
            with open(f"{base}/{entry}/level") as fh:
                level = fh.read().strip()
            with open(f"{base}/{entry}/type") as fh:
                kind = fh.read().strip()
            with open(f"{base}/{entry}/size") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def collect() -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        info = cfg["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version"),
                "config": info.get("openblas configuration")}
    except Exception as exc:  # the layout of show_config varies by version
        blas = {"error": repr(exc)}
    return {
        "nproc": nproc(),
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "caches": _cache_sizes(),
    }
