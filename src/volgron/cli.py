"""Batch command-line front end.

Subcommands: ``ml`` (generalised Mittag-Leffler values), ``resolvent``
(iterated-kernel tables from a JSON problem configuration), ``gronwall``
(bound curves), ``solve`` (built-in fixed-point problems with
iterate-error tables) and ``selftest`` (the acceptance suite).  Outputs
are CSV or JSON with 17-significant-digit floats and sorted keys, so
identical invocations produce identical bytes.  Resolvent tables are
written chunk by chunk as they are formatted, never held as one string.

Exit codes: 0 on success, 1 on configuration errors and bad arguments
(unknown subcommand, malformed or unsupported configuration, unreadable
file, a value outside its range), 2 on numerical failure (a value above
the float range, an unconverged ``ml`` series or ``solve`` certificate,
an infinite ``gronwall`` bound, a failed ``selftest``), after any output
is written.  Errors print one ``volgron: ...`` line on stderr, never a
traceback.  Relative ``--out`` paths are resolved
against the directory named by the ``VOLGRON_OUT_DIR`` environment
variable when it is set.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import Iterable, Optional

import numpy as np

from .config import ConfigError, load_problem_config
from .domains import Interval1D, QuadratureGrid, VoidSet
from .fixpoint import DivergentBoundError, picard_solve
from .gronwall import GronwallInput, gronwall_curve
from .measures import DiscreteMeasure
from .problems import PROBLEMS
from .resolvent import iterated_kernels
from .specfun import MLParams, mittag_leffler

__all__ = ["main"]


class _CliError(Exception):
    """Bad arguments or configuration: exit 1."""


class _NoResult(Exception):
    """No finite or certified result, after any output is written: exit 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 with a distinct message
        raise _CliError(f"argument error: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="volgron",
                     description="resolvent kernels, Gronwall bounds and "
                                 "certified Picard iteration")
    sub = parser.add_subparsers(dest="command")

    p_ml = sub.add_parser("ml", help="evaluate the generalised "
                                     "Mittag-Leffler series")
    p_ml.add_argument("--alpha", type=float, required=True)
    p_ml.add_argument("--beta", type=float, required=True)
    p_ml.add_argument("--p", type=float, default=1.0)
    p_ml.add_argument("--z", type=float, required=True)
    p_ml.add_argument("--tol", type=float, default=1e-14)
    p_ml.add_argument("--out", type=str, default=None)

    p_res = sub.add_parser("resolvent", help="tabulate iterated kernels")
    p_res.add_argument("--config", type=str, required=True)
    p_res.add_argument("--n", type=int, default=None,
                       help="layers to tabulate (default: config, then 3)")
    p_res.add_argument("--p", type=float, default=None,
                       help="override the power from the configuration")
    p_res.add_argument("--grid-level", type=int, default=6)
    p_res.add_argument("--output", choices=("csv", "json"), default="csv")
    p_res.add_argument("--out", type=str, default=None)

    p_gro = sub.add_parser("gronwall", help="emit a bound curve")
    p_gro.add_argument("--config", type=str, required=True)
    p_gro.add_argument("--grid-level", type=int, default=8)
    p_gro.add_argument("--points", type=int, default=17)
    p_gro.add_argument("--out", type=str, default=None)

    p_sol = sub.add_parser("solve", help="run a built-in fixed-point problem")
    p_sol.add_argument("--problem", choices=sorted(PROBLEMS), required=True)
    p_sol.add_argument("--tol", type=float, default=1e-6)
    p_sol.add_argument("--max-iter", type=int, default=25)
    p_sol.add_argument("--grid-level", type=int, default=9)
    p_sol.add_argument("--rate", type=float, default=2.0,
                       help="rate of the linear Volterra problem")
    p_sol.add_argument("--alpha", type=float, default=0.75,
                       help="exponent of the Abel problem")
    p_sol.add_argument("--contraction", type=float, default=0.5,
                       help="contraction of the scalar toy problem")
    p_sol.add_argument("--out", type=str, default=None)

    p_self = sub.add_parser("selftest", help="run the acceptance checks")
    p_self.add_argument("--seed", type=int, default=42)

    return parser


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write(chunks: Iterable[str], out: Optional[str]) -> None:
    """Write text chunks as they come, to stdout or to the ``--out`` file."""
    if out is None:
        sys.stdout.writelines(chunks)
        return
    base = os.environ.get("VOLGRON_OUT_DIR")
    if base and not os.path.isabs(out):
        out = os.path.join(base, out)
    with open(out, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


def _cmd_ml(args) -> int:
    sv = mittag_leffler(MLParams(args.alpha, args.beta, args.p), args.z,
                        tol=args.tol)
    text = ("value,tail_bound,terms,converged\n"
            f"{_fmt(sv.sum)},{_fmt(sv.tail_bound)},{sv.terms_used},"
            f"{str(sv.converged).lower()}\n")
    _write([text], args.out)
    if not sv.converged:
        raise _NoResult(f"Mittag-Leffler series not converged: sum "
                        f"{sv.sum:g} after {sv.terms_used} terms")
    return 0


def _load(path_or_json: str):
    try:
        return load_problem_config(path_or_json)
    except FileNotFoundError as exc:
        raise _CliError(f"unreadable configuration file: {exc}")
    except json.JSONDecodeError as exc:
        raise _CliError(f"malformed configuration JSON: {exc}")
    except ConfigError as exc:
        raise _CliError(f"bad configuration: {exc}")


def _cmd_resolvent(args) -> int:
    cfg = _load(args.config)
    p = args.p if args.p is not None else float(cfg.params.get("p", 1.0))
    n = args.n if args.n is not None else int(cfg.params.get("n", 3))
    level = args.grid_level
    if isinstance(cfg.measure, DiscreteMeasure):
        grid = None
    elif isinstance(cfg.domain, Interval1D):
        grid = QuadratureGrid.for_interval(cfg.domain, level)
    else:
        from .domains import ProductBox

        if not isinstance(cfg.domain, ProductBox):
            raise _CliError("resolvent tables need an interval, box, or "
                            "discrete configuration")
        grid = QuadratureGrid.for_box(cfg.domain, level)
    try:
        table = iterated_kernels(cfg.kernel, cfg.measure, p, n, grid)
    except TypeError as exc:  # a kernel family off its measure
        raise _CliError(f"bad configuration: {exc}")
    if args.output == "csv":
        _write(table.iter_csv(), args.out)
    else:
        _write(itertools.chain(table.iter_json(), ["\n"]), args.out)
    return 0


def _cmd_gronwall(args) -> int:
    cfg = _load(args.config)
    params = cfg.params
    p = float(params.get("p", 1.0))
    v0 = float(params.get("v0", 1.0))
    l_kernel = None
    if "l" in cfg.raw:
        from .config import parse_kernel

        l_kernel = parse_kernel(cfg.raw["l"])
    try:
        inp = GronwallInput(v0=v0, k=cfg.kernel, measure=cfg.measure, p=p,
                            domain=cfg.domain, l=l_kernel)
    except TypeError as exc:  # a kernel family off its measure or domain
        raise _CliError(f"bad configuration: {exc}")
    if isinstance(cfg.domain, VoidSet):
        # GronwallInput has checked that the measure is discrete
        ts = sorted(set(cfg.measure.points.tolist()))
    else:
        ts = np.linspace(cfg.domain.lo, cfg.domain.hi,
                         args.points + 1)[1:].tolist()
    curve = gronwall_curve(inp, ts, level=args.grid_level)
    _write([curve.to_csv()], args.out)
    bad = ~np.isfinite(curve.sharp)
    if np.any(bad):
        raise _NoResult(f"bound is infinite from t={curve.ts[bad][0]:.17g}")
    return 0


def _cmd_solve(args) -> int:
    kwargs = {}
    if args.problem == "volterra":
        kwargs = {"rate": args.rate, "level": args.grid_level}
    elif args.problem == "abel":
        kwargs = {"alpha": args.alpha, "level": min(args.grid_level, 8)}
    elif args.problem == "banach":
        kwargs = {"contraction": args.contraction}
    prob = PROBLEMS[args.problem](**kwargs)
    x_hat, cert = picard_solve(prob.spec, prob.x0, tol=args.tol,
                               max_iter=args.max_iter)
    # iterate-error table at a handful of certificate nodes
    n_nodes = cert.ts.size
    sample = sorted(set([n_nodes - 1] + list(range(0, n_nodes,
                                                   max(1, n_nodes // 4)))))
    stride = max(1, (prob.spec.grid.size - 1) // max(1, n_nodes - 1))
    lines = ["n,t,measured_error_vs_reference,certified_bound"]
    x = prob.x0.copy()
    for n in range(1, cert.iterates + 1):
        x = np.asarray(prob.spec.apply(x), dtype=float)
        profile = prob.spec.distance_profile(x, prob.reference)
        for j in sample:
            t = cert.ts[j]
            measured = profile[j * stride] if prob.spec.ordered else profile[j]
            lines.append(f"{n},{_fmt(t)},{_fmt(float(measured))},"
                         f"{_fmt(cert.bound(n, j))}")
    _write(["\n".join(lines) + "\n"], args.out)
    if not cert.converged:
        raise _NoResult(f"certified bound not below {args.tol:g} after "
                        f"{cert.iterates} iterations")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_all

    if not run_all(seed=args.seed):
        raise _NoResult("selftest failed")
    return 0


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): exit without a
        # traceback, and keep the interpreter's last flush off the pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _CliError("missing subcommand (ml, resolvent, gronwall, "
                            "solve, selftest)")
        if args.command == "ml":
            return _cmd_ml(args)
        if args.command == "resolvent":
            return _cmd_resolvent(args)
        if args.command == "gronwall":
            return _cmd_gronwall(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "selftest":
            return _cmd_selftest(args)
        raise _CliError(f"unknown subcommand {args.command!r}")
    except _CliError as exc:
        print(f"volgron: {exc}", file=sys.stderr)
        return 1
    except _NoResult as exc:
        print(f"volgron: {exc}", file=sys.stderr)
        return 2
    except DivergentBoundError as exc:
        print(f"volgron: certificate failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"volgron: bad argument: {exc}", file=sys.stderr)
        return 1
    except NotImplementedError as exc:
        print(f"volgron: unsupported configuration: {exc}", file=sys.stderr)
        return 1
    except (OverflowError, FloatingPointError) as exc:
        print(f"volgron: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
