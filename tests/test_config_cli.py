import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from volgron.cli import main
from volgron.config import (
    ConfigError,
    load_problem_config,
    parse_domain,
    parse_kernel,
    parse_measure,
)
from volgron.domains import Interval1D, ProductBox, VoidSet
from volgron.kernels import FractionalKernel, ProductKernel, SumKernel
from volgron.measures import DiscreteMeasure, Lebesgue, ProductMeasure

CONST_CFG = {
    "domain": {"type": "interval", "lo": 0.0, "hi": 1.0},
    "measure": {"type": "lebesgue"},
    "kernel": {"family": "constant", "c": 1.5},
    "params": {"p": 1.0, "n": 3},
}


# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------


def test_parse_domains():
    assert parse_domain({"type": "interval", "lo": 0, "hi": 2}) == \
        Interval1D(0.0, 2.0)
    box = parse_domain({"type": "box", "factors": [
        {"lo": 0, "hi": 1}, {"lo": 0, "hi": 2}]})
    assert isinstance(box, ProductBox) and box.ndim == 2
    assert isinstance(parse_domain({"type": "void"}), VoidSet)
    with pytest.raises(ConfigError):
        parse_domain({"type": "sphere"})
    with pytest.raises(ConfigError):
        parse_domain({"lo": 0, "hi": 1})


def test_parse_measures():
    assert isinstance(parse_measure({"type": "lebesgue"}), Lebesgue)
    mu = parse_measure({"type": "discrete", "atoms": [[0.0, 1.0], [1.0, 2.0]]})
    assert isinstance(mu, DiscreteMeasure) and mu.total_mass == 3.0
    pm = parse_measure({"type": "product",
                        "factors": [{"type": "lebesgue"},
                                    {"type": "lebesgue"}]})
    assert isinstance(pm, ProductMeasure)
    with pytest.raises(ConfigError):
        parse_measure({"type": "gaussian"})


def test_parse_kernels():
    k = parse_kernel({"family": "constant", "c": 2.0})
    assert float(k.eval(1.0, 0.0)) == pytest.approx(2.0)
    f = parse_kernel({"family": "fractional", "alpha": 0.75, "beta": 0.1,
                      "t0": 0.0})
    assert isinstance(f, FractionalKernel) and f.alpha == 0.75
    v = parse_kernel({"family": "void", "c": 0.5})
    assert float(v.eval(0.0, 7.0)) == pytest.approx(0.5)
    m = parse_kernel({"family": "multiplicative", "rate": 1.0})
    assert float(m.eval(1.0, 0.0)) == pytest.approx(math.e)
    s = parse_kernel({"family": "sum", "parts": [
        {"family": "constant", "c": 1.0}, {"family": "constant", "c": 2.0}]})
    assert isinstance(s, SumKernel)
    assert float(s.eval(1.0, 0.0)) == pytest.approx(3.0)
    prod = parse_kernel({"family": "product", "factors": [
        {"family": "constant", "c": 1.0}, {"family": "constant", "c": 2.0}],
        "tail": 3.0})
    assert isinstance(prod, ProductKernel)
    assert prod.tail_constant == 3.0
    with pytest.raises(ConfigError):
        parse_kernel({"family": "mystery"})


def test_config_round_trip():
    cfg = load_problem_config(CONST_CFG)
    text = cfg.to_json()
    again = load_problem_config(text)
    assert again.to_json() == text
    assert again.params == cfg.params


def test_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CONST_CFG))
    cfg = load_problem_config(str(path))
    assert isinstance(cfg.domain, Interval1D)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_ml_prints_e(capsys):
    code, out, _ = run_cli(["ml", "--alpha", "1", "--beta", "1", "--p", "1",
                            "--z", "1"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "value,tail_bound,terms,converged"
    value, tail, _, conv = lines[1].split(",")
    assert float(value) == pytest.approx(math.e, rel=1e-12)
    assert float(tail) >= 0.0
    assert conv == "true"


def test_cli_unknown_subcommand(capsys):
    code, _, err = run_cli(["frobnicate"], capsys)
    assert code == 1
    assert "argument error" in err


def test_cli_missing_subcommand(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 1
    assert "missing subcommand" in err


def test_cli_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["resolvent", "--config", str(bad)], capsys)
    assert code == 1
    assert "malformed configuration" in err


def test_cli_unreadable_config(capsys):
    code, _, err = run_cli(["resolvent", "--config", "/nonexistent/x.json"],
                           capsys)
    assert code == 1
    assert "unreadable configuration" in err


def test_cli_resolvent_matches_closed_form(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(CONST_CFG))
    code, out, _ = run_cli(["resolvent", "--config", str(path), "--n", "3",
                            "--grid-level", "5"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,t,s,value"
    # pick the layer-3 entry at (t=1, s=0) and compare with the closed form
    c = 1.5
    target = None
    for line in lines[1:]:
        n, t, s, v = line.split(",")
        if n == "3" and float(t) == 1.0 and float(s) == 0.0:
            target = float(v)
    assert target is not None
    assert target == pytest.approx(c**3 * 1.0**2 / 2.0, rel=1e-5)


def test_cli_determinism(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(CONST_CFG))
    argv = ["resolvent", "--config", str(path), "--n", "2",
            "--grid-level", "4"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert out1 == out2


def test_cli_out_file_and_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("VOLGRON_OUT_DIR", str(tmp_path))
    code, out, _ = run_cli(["ml", "--alpha", "1", "--beta", "1",
                            "--z", "1", "--out", "ml.csv"], capsys)
    assert code == 0 and out == ""
    content = (tmp_path / "ml.csv").read_text()
    assert content.startswith("value,tail_bound")


def test_cli_gronwall_curve(tmp_path, capsys):
    cfg = {
        "domain": {"type": "interval", "lo": 0.0, "hi": 1.0},
        "measure": {"type": "lebesgue"},
        "kernel": {"family": "constant", "c": 1.0},
        "params": {"p": 1.0, "v0": 1.0},
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(["gronwall", "--config", str(path),
                            "--points", "4"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,sharp,sup,tail"
    t, sharp, sup, tail = lines[-1].split(",")
    assert float(t) == pytest.approx(1.0)
    assert float(sharp) == pytest.approx(math.e, rel=1e-6)


def test_cli_gronwall_kernel_not_monotone_exits_2(capsys):
    # a negative rate makes the multiplicative kernel decreasing: no closed
    # Gronwall bound, so the curve is inf and the exit code 2
    cfg = json.dumps({
        "domain": {"type": "interval", "lo": 0.0, "hi": 1.0},
        "measure": {"type": "lebesgue"},
        "kernel": {"family": "multiplicative", "rate": -1},
        "params": {"p": 1.0},
    })
    code, out, err = run_cli(["gronwall", "--config", cfg, "--points", "4"],
                             capsys)
    assert code == 2 and len(err.splitlines()) == 1
    assert out.splitlines()[-1].endswith(",inf,inf,inf")


def test_cli_solve_banach(capsys):
    code, out, _ = run_cli(["solve", "--problem", "banach",
                            "--tol", "1e-8", "--max-iter", "40"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,t,measured_error_vs_reference,certified_bound"
    for line in lines[1:]:
        n, t, measured, bound = line.split(",")
        assert float(measured) <= float(bound) + 1e-12


def test_cli_solve_volterra_sound(capsys):
    code, out, _ = run_cli(["solve", "--problem", "volterra", "--rate", "2",
                            "--tol", "1e-6", "--grid-level", "9"], capsys)
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        n, t, measured, bound = line.split(",")
        # the bound covers the distance to the discrete fixed point; the
        # reference column compares against the continuum solution, so
        # early iterates (before discretisation error dominates) obey it
        if int(n) <= 10:
            assert float(measured) <= float(bound) + 1e-5


def test_cli_entry_point_subprocess():
    # console entry: python -m semantics via the installed script path
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from volgron.cli import main; "
         "sys.exit(main(['ml', '--alpha', '1', '--beta', '1', '--z', '0']))"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("1,")


@pytest.mark.parametrize("argv, code", [
    (["ml", "--alpha", "0.1", "--beta", "1", "--z", "100"], 2),
    (["ml", "--alpha", "1", "--beta", "1", "--z", "1e300"], 2),
    (["solve", "--problem", "abel", "--alpha", "0.1", "--grid-level", "2"], 2),
    (["ml", "--alpha", "-1", "--beta", "1", "--z", "1"], 1),
    # a void kernel needs atoms: a Lebesgue measure is a configuration error
    (["gronwall", "--config", '{"domain": {"type": "void"}, "measure": '
      '{"type": "lebesgue"}, "kernel": {"family": "void", "c": 0.5}}'], 1),
])
def test_cli_errors_exit_with_one_line(argv, code):
    # bad arguments exit 1, overflow exits 2, each with one stderr line
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "volgron", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("volgron: ")


CONFIGS = os.path.join(os.path.dirname(__file__), "..", "demos", "configs")


@pytest.mark.parametrize("argv, code", [
    (["gronwall", "--config", os.path.join(CONFIGS, "fractional.json"),
      "--grid-level", "4", "--points", "2"], 2),
    (["solve", "--problem", "banach", "--max-iter", "1"], 2),
    (["ml", "--alpha", "0.1", "--beta", "1", "--z", "100"], 2),
    (["gronwall", "--config", os.path.join(CONFIGS, "product.json")], 1),
])
def test_cli_failures_after_output_print_one_line(argv, code, capsys):
    # an infinite bound, an unconverged certificate or series: stdout is
    # written, then one stderr line; an unsupported geometry exits 1
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert (out != "") == (code == 2)
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("volgron: ")


def test_domain_measure_serialisers_round_trip():
    from volgron.config import domain_to_json, measure_to_json

    dom = ProductBox((Interval1D(0, 1), Interval1D(-1, 2)))
    assert parse_domain(domain_to_json(dom)) == dom
    assert parse_domain(domain_to_json(VoidSet("x"))) == VoidSet("x")
    mu = DiscreteMeasure(((0.0, 1.0), (0.5, 2.0)))
    assert parse_measure(measure_to_json(mu)) == mu
    pm = ProductMeasure((Lebesgue(), Lebesgue()))
    assert parse_measure(measure_to_json(pm)) == pm
