"""Beta = 0 fractional tables from one gap vector per layer, against the
entry-wise path they replaced (every gap ``z_i - z_j`` below the diagonal
summed on its own), kept here as the reference: bit-identical layers on
grids with equal float gaps, the entry path elsewhere, the layout of the
values and the CLI output of the fractional demo configuration."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import volgron.resolvent as resolvent
from volgron.cli import main
from volgron.domains import Interval1D, QuadratureGrid
from volgron.kernels import FractionalKernel, SumKernel, _power_exponents
from volgron.measures import Lebesgue
from volgron.resolvent import (
    _multinomial_terms,
    _multinomial_value,
    iterated_kernels,
)

ROOT = Path(__file__).resolve().parent.parent
LEB = Lebesgue()


# ---------------------------------------------------------------------------
# reference: the entry-wise path
# ---------------------------------------------------------------------------


def reference_layers(alphas, z, n_max):
    """Layer n sums the multinomial terms at every gap below the diagonal,
    and takes their small-gap limit on it."""
    m = z.size
    layers = np.zeros((n_max, m, m))
    i, j = np.tril_indices(m, -1)
    lx = np.log(z[i] - z[j])
    for n in range(1, n_max + 1):
        acc = 0.0
        for A, log_coef in _multinomial_terms(alphas, n):
            acc = acc + np.exp(log_coef + (A - 1.0) * lx)
        layers[n - 1][i, j] = acc
        np.fill_diagonal(layers[n - 1], _multinomial_value(alphas, n, 0.0))
    return layers


def _alphas(kernel, p):
    parts = kernel.parts if isinstance(kernel, SumKernel) else (kernel,)
    return tuple(_power_exponents(k.alpha, k.beta, p)[0] for k in parts)


class _LogSizes:
    """numpy with ``log`` recording the size of each argument: the gaps a
    table takes logarithms of."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def log(self, x, *args, **kwargs):
        self.sizes.append(np.size(x))
        return np.log(x, *args, **kwargs)


def _table_and_gaps(monkeypatch, kernel, p, n_max, grid):
    spy = _LogSizes()
    monkeypatch.setattr(resolvent, "np", spy)
    table = iterated_kernels(kernel, LEB, p, n_max, grid)
    monkeypatch.undo()
    return table, max(spy.sizes)


KERNELS = {
    "frac-p1": (FractionalKernel(0.75, 0.0), 1.0),
    "frac-p1.5": (FractionalKernel(0.75, 0.0), 1.5),
    "sum": (SumKernel((FractionalKernel(0.8, 0.0),
                       FractionalKernel(1.3, 0.0))), 1.0),
}


# ---------------------------------------------------------------------------
# equal float gaps: one gap vector per layer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("level", range(1, 10))
@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.0, 2.0), (-1.0, 3.0),
                                    (0.5, 1.5)])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_gap_vector_layers_match_the_entry_path(name, lo, hi, level,
                                                monkeypatch):
    kernel, p = KERNELS[name]
    grid = QuadratureGrid.for_interval(Interval1D(lo, hi), level)
    z, m = grid.nodes, grid.nodes.size
    gaps = np.diff(z)
    assert (gaps == gaps[0]).all()
    ref = reference_layers(_alphas(kernel, p), z, 6)
    for n_max in range(1, 7):
        table, logged = _table_and_gaps(monkeypatch, kernel, p, n_max, grid)
        assert logged == m - 1  # the gaps to z[0], not every entry
        assert np.array_equal(table.values, ref[:n_max])
        assert (table.err_est, table.status) == (0.0, "exact")


def test_unit_diagonal_exponent_gives_the_coefficient():
    # alpha = 0.5: layer 1 is inf on the diagonal, layer 2 (A = 1) the
    # coefficient gamma(1/2)**2 = pi, layer 3 (A = 3/2) zero
    kernel = FractionalKernel(0.5, 0.0)
    grid = QuadratureGrid.for_interval(Interval1D(0.0, 1.0), 6)
    table = iterated_kernels(kernel, LEB, 1.0, 3, grid)
    assert np.array_equal(table.values,
                          reference_layers((0.5,), grid.nodes, 3))
    diag = np.diagonal(table.values, axis1=1, axis2=2)
    assert (diag[0] == math.inf).all()
    assert np.allclose(diag[1], math.pi, rtol=1e-14, atol=0.0)
    assert (diag[2] == 0.0).all()


# ---------------------------------------------------------------------------
# other nodes: the entry path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("grid", [
    QuadratureGrid.for_interval(Interval1D(0.1, 0.9), 5),
    QuadratureGrid.for_points([0.0, 0.1, 0.25, 0.3, 0.7, 1.0]),
], ids=["non-dyadic", "points"])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_unequal_gaps_take_the_entry_path(name, grid, monkeypatch):
    kernel, p = KERNELS[name]
    z, m = grid.nodes, grid.nodes.size
    gaps = np.diff(z)
    assert not (gaps == gaps[0]).all()
    table, logged = _table_and_gaps(monkeypatch, kernel, p, 4, grid)
    assert logged == m * (m - 1) // 2
    assert np.array_equal(table.values,
                          reference_layers(_alphas(kernel, p), z, 4))


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.1, 0.9)])
def test_values_are_contiguous_writable_and_zero_above(lo, hi):
    grid = QuadratureGrid.for_interval(Interval1D(lo, hi), 5)
    values = iterated_kernels(FractionalKernel(0.75, 0.0), LEB, 1.0, 4,
                              grid).values
    assert values.shape == (4, 33, 33)
    assert values.flags.c_contiguous and values.flags.writeable
    upper = np.triu(np.ones((33, 33), dtype=bool), 1)
    assert (values[:, upper] == 0.0).all()
    values[0, 1, 0] = 1.0


# ---------------------------------------------------------------------------
# the CLI output of the fractional demo configuration
# ---------------------------------------------------------------------------


def test_fractional_demo_csv_and_json_match_the_reference(capsys):
    config = str(ROOT / "demos" / "configs" / "fractional.json")
    grid = QuadratureGrid.for_interval(Interval1D(0.0, 1.0), 6)
    table = iterated_kernels(FractionalKernel(0.75, 0.0), LEB, 1.0, 3, grid)
    ref = dataclasses.replace(
        table, values=reference_layers((0.75,), grid.nodes, 3))
    assert main(["resolvent", "--config", config]) == 0
    assert capsys.readouterr().out == "".join(ref.iter_csv())
    assert main(["resolvent", "--config", config, "--output", "json"]) == 0
    assert capsys.readouterr().out == "".join(ref.iter_json()) + "\n"
