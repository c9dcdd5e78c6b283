"""The chunked table writer against the per-entry loop it replaced, kept
here as the reference; the import contract (no scipy at import); and the
gamma minimiser constant."""

import io
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from volgron.cli import main
from volgron.domains import Interval1D, ProductBox, QuadratureGrid
from volgron.kernels import (
    CallableKernel,
    ProductKernel,
    SeparableKernel,
    VoidKernel,
    constant_kernel,
)
from volgron.measures import DiscreteMeasure, Lebesgue, ProductMeasure
from volgron.resolvent import ResolventTable, iterated_kernels
from volgron.specfun import digamma, gamma_min_point, ln_gamma

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "demos" / "configs"
DOM = Interval1D(0.0, 1.0)


# ---------------------------------------------------------------------------
# reference: the per-entry serialisation loop
# ---------------------------------------------------------------------------


def _rows(table):
    if table.values.ndim == 3:
        nodes = table.nodes
        m = nodes.size
        for n in range(1, table.n_max + 1):
            for i in range(m):
                top = m if not table.ordered else i + 1
                for j in range(top):
                    yield (n, (nodes[i],), (nodes[j],),
                           float(table.values[n - 1, i, j]))
    else:
        a1, a2 = table.grid.axes
        for n in range(1, table.n_max + 1):
            for i1 in range(a1.size):
                for i2 in range(a2.size):
                    for j1 in range(i1 + 1):
                        for j2 in range(i2 + 1):
                            yield (n, (a1[i1], a2[i2]), (a1[j1], a2[j2]),
                                   float(table.values[n - 1, i1, i2, j1, j2]))


def reference_csv(table):
    ndim = len(table.grid.axes)
    if ndim == 1:
        heads = ["n", "t", "s", "value"]
    else:
        heads = (["n"] + [f"t{k+1}" for k in range(ndim)]
                 + [f"s{k+1}" for k in range(ndim)] + ["value"])
    out = io.StringIO()
    out.write(",".join(heads) + "\n")
    for n, t, s, v in _rows(table):
        cells = [str(n)] + [f"{x:.17g}" for x in t] + [f"{x:.17g}" for x in s]
        cells.append(f"{v:.17g}")
        out.write(",".join(cells) + "\n")
    return out.getvalue()


def reference_json(table):
    payload = {
        "n_max": table.n_max,
        "p": table.p,
        "family": table.family,
        "status": table.status,
        "err_est": table.err_est,
        "axes": [list(map(float, a)) for a in table.grid.axes],
        "entries": [
            {"n": n, "t": list(t), "s": list(s), "value": v}
            for n, t, s, v in _rows(table)
        ],
    }
    return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def _interval_table():
    sep = SeparableKernel(k0=lambda t: 1.0 + np.asarray(t, dtype=float),
                          k1=lambda s: 2.0 - np.asarray(s, dtype=float),
                          k0_monotone="increasing")
    return iterated_kernels(sep, Lebesgue(), 1.5, 3,
                            QuadratureGrid.for_interval(DOM, 4))


def _void_table():
    mu = DiscreteMeasure(tuple((0.1 * i + 0.03, 0.1 + 0.01 * i)
                               for i in range(7)))
    kern = VoidKernel(k1=lambda s: 0.5 + np.asarray(s, dtype=float))
    return iterated_kernels(kern, mu, 1.0, 3)


def _discrete_table():
    mu = DiscreteMeasure(tuple((i / 9, 1 / 9) for i in range(9)))
    return iterated_kernels(constant_kernel(1.3), mu, 2.0, 2)


def _box_table():
    f1 = SeparableKernel(k0=lambda t: 1.0 + np.asarray(t, dtype=float),
                         k1=lambda s: 1.0 + 0 * np.asarray(s, dtype=float),
                         k0_monotone="increasing")
    kern = ProductKernel((f1, constant_kernel(0.7)), tail_factor=1.1)
    box = ProductBox((Interval1D(0.0, 1.0), Interval1D(0.0, 2.0)))
    return iterated_kernels(kern, ProductMeasure((Lebesgue(), Lebesgue())),
                            1.0, 2, QuadratureGrid.for_box(box, 2))


def _singular_table():
    # k = 1/sqrt(t - s): infinite on the diagonal in layer 1, below it later
    kern = CallableKernel(lambda t, s: 1.0 / np.sqrt(np.maximum(t - s, 0.0)))
    return iterated_kernels(kern, Lebesgue(), 1.0, 3,
                            QuadratureGrid.for_interval(DOM, 3))


def _special_values_table():
    # every float the JSON writer spells out by hand, in a hand-made table
    vals = np.array([0.1, -0.0, math.inf, -math.inf, math.nan, 1e300, 5e-324,
                     1e16, 123456789.0])
    grid = QuadratureGrid.for_points([0.0, 0.5, 1.0 / 3.0])
    return ResolventTable(grid=grid, n_max=1, p=1.0,
                          values=vals.reshape(1, 3, 3), err_est=math.inf,
                          measure=DiscreteMeasure(((0.0, 1.0),)),
                          ordered=False, family="test", status="unknown")


TABLES = {
    "interval": _interval_table,
    "void": _void_table,
    "discrete": _discrete_table,
    "box": _box_table,
    "singular": _singular_table,
    "special": _special_values_table,
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_writer_matches_entry_loop(name):
    table = TABLES[name]()
    assert table.to_csv() == reference_csv(table)
    assert table.to_json() == reference_json(table)


def test_non_finite_json_values():
    singular = json.loads(_singular_table().to_json())
    assert math.inf in [e["value"] for e in singular["entries"]]
    text = _special_values_table().to_json()
    for word in ("Infinity", "-Infinity", "NaN", "-0.0", "5e-324"):
        assert f'"value": {word}}}' in text


@pytest.mark.parametrize("output", ["csv", "json"])
def test_cli_out_file_equals_stdout(output, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("VOLGRON_OUT_DIR", str(tmp_path))
    argv = ["resolvent", "--config", str(CONFIGS / "product.json"),
            "--grid-level", "3", "--output", output]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert main(argv + ["--out", f"table.{output}"]) == 0
    assert capsys.readouterr().out == ""
    written = (tmp_path / f"table.{output}").read_bytes()
    assert written == stdout.encode("utf-8")
    assert written.endswith(b"\n")


def test_singular_table_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kern = CallableKernel(
            lambda t, s: 1.0 / np.sqrt(np.maximum(t - s, 0.0)))
        tab = iterated_kernels(kern, Lebesgue(), 1.0, 3,
                               QuadratureGrid.for_interval(DOM, 5))
    assert math.isfinite(tab.err_est)


# ---------------------------------------------------------------------------
# import contract and the gamma minimiser
# ---------------------------------------------------------------------------


def _loads_scipy_special(code: str) -> bool:
    proc = subprocess.run(
        [sys.executable, "-c",
         code + "\nprint('scipy.special' in sys.modules)"],
        capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1] == "True"


def test_import_does_not_load_scipy():
    assert not _loads_scipy_special("import sys, volgron")


def test_abel_solve_does_not_load_scipy():
    assert not _loads_scipy_special(
        "import sys\nfrom volgron.cli import main\n"
        "assert main(['solve', '--problem', 'abel', '--grid-level', '3']) == 0")


def test_gamma_min_point_is_the_digamma_root():
    x_min, g_min = gamma_min_point()
    assert abs(digamma(x_min)) < 1e-15
    assert digamma(math.nextafter(x_min, 0.0)) < 0.0
    assert digamma(math.nextafter(x_min, 2.0)) > 0.0
    assert g_min == math.exp(ln_gamma(x_min))
