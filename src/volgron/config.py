"""JSON configuration schema for domains, measures and kernel families.

A problem configuration is an object with ``domain``, ``measure``,
``kernel`` and ``params`` keys::

    {
      "domain":  {"type": "interval", "lo": 0.0, "hi": 1.0},
      "measure": {"type": "lebesgue"},
      "kernel":  {"family": "constant", "c": 1.5},
      "params":  {"p": 1.0, "n": 3}
    }

The CLI reads ``p`` and ``n`` from ``params`` for ``resolvent`` and ``p``
and ``v0`` for ``gronwall``; grid level and tolerance are command-line
options.

Domains: ``interval`` (lo, hi), ``box`` (factors: list of intervals),
``void`` (label).  Measures: ``lebesgue``, ``discrete`` (atoms: list of
[point, mass] pairs), ``product`` (factors).  Kernel families:
``constant`` (c), ``fractional`` (alpha, beta, t0), ``void`` (constant
value c of the second-variable function), ``multiplicative`` (rate r of
the linear cumulative mass t -> r t), ``sum`` (parts) and ``product``
(factors, optional constant tail).  Kernels defined by arbitrary user
callables are API-level only and have no configuration form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

from .domains import DomainSpec, Interval1D, ProductBox, VoidSet
from .kernels import (
    FractionalKernel,
    Kernel,
    MultiplicativeKernel,
    ProductKernel,
    SumKernel,
    VoidKernel,
    constant_kernel,
)
from .measures import (
    DiscreteMeasure,
    Lebesgue,
    MeasureSpec,
    ProductMeasure,
)

__all__ = [
    "ConfigError",
    "parse_domain",
    "parse_measure",
    "parse_kernel",
    "domain_to_json",
    "measure_to_json",
    "ProblemConfig",
    "load_problem_config",
]


class ConfigError(ValueError):
    """Malformed or unsupported configuration content."""


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"missing key {key!r} in {where}")
    return d[key]


def parse_domain(d: dict) -> DomainSpec:
    kind = _require(d, "type", "domain")
    if kind == "interval":
        return Interval1D(float(_require(d, "lo", "domain")),
                          float(_require(d, "hi", "domain")))
    if kind == "box":
        factors = _require(d, "factors", "domain")
        return ProductBox(tuple(
            Interval1D(float(f["lo"]), float(f["hi"])) for f in factors
        ))
    if kind == "void":
        return VoidSet(str(d.get("label", "void")))
    raise ConfigError(f"unknown domain type {kind!r}")


def domain_to_json(domain: DomainSpec) -> dict:
    """Canonical configuration form of a domain."""
    if isinstance(domain, Interval1D):
        return {"type": "interval", "lo": domain.lo, "hi": domain.hi}
    if isinstance(domain, ProductBox):
        return {"type": "box",
                "factors": [{"lo": f.lo, "hi": f.hi} for f in domain.factors]}
    if isinstance(domain, VoidSet):
        return {"type": "void", "label": domain.label}
    raise ConfigError(f"not a domain: {domain!r}")


def measure_to_json(measure: MeasureSpec) -> dict:
    """Canonical configuration form of a measure (weighted densities are
    API-level callables and have no configuration form)."""
    if isinstance(measure, Lebesgue):
        return {"type": "lebesgue"}
    if isinstance(measure, DiscreteMeasure):
        return {"type": "discrete",
                "atoms": [[p, m] for p, m in measure.atoms]}
    if isinstance(measure, ProductMeasure):
        return {"type": "product",
                "factors": [measure_to_json(f) for f in measure.factors]}
    raise ConfigError(f"measure {measure!r} has no configuration form")


def parse_measure(d: dict) -> MeasureSpec:
    kind = _require(d, "type", "measure")
    if kind == "lebesgue":
        return Lebesgue()
    if kind == "discrete":
        atoms = _require(d, "atoms", "measure")
        return DiscreteMeasure(tuple((float(p), float(m)) for p, m in atoms))
    if kind == "product":
        factors = _require(d, "factors", "measure")
        return ProductMeasure(tuple(parse_measure(f) for f in factors))
    raise ConfigError(f"unknown measure type {kind!r}")


def _const_fn(c: float):
    return lambda s: np.full_like(np.asarray(s, dtype=float), c, dtype=float)


def parse_kernel(d: dict) -> Kernel:
    family = _require(d, "family", "kernel")
    if family == "constant":
        return constant_kernel(float(_require(d, "c", "kernel")))
    if family == "fractional":
        return FractionalKernel(
            alpha=float(_require(d, "alpha", "kernel")),
            beta=float(d.get("beta", 0.0)),
            t0=float(d.get("t0", 0.0)),
        )
    if family == "void":
        return VoidKernel(k1=_const_fn(float(_require(d, "c", "kernel"))))
    if family == "multiplicative":
        rate = float(_require(d, "rate", "kernel"))
        return MultiplicativeKernel(
            nu_cumulative=lambda t: rate * np.asarray(t, dtype=float),
            nu_nonnegative=rate >= 0,
        )
    if family == "sum":
        parts = _require(d, "parts", "kernel")
        return SumKernel(tuple(parse_kernel(p) for p in parts))
    if family == "product":
        factors = _require(d, "factors", "kernel")
        tail = d.get("tail")
        return ProductKernel(
            factors=tuple(parse_kernel(f) for f in factors),
            tail_factor=float(tail) if tail is not None else None,
        )
    raise ConfigError(f"unknown kernel family {family!r}")


@dataclass(frozen=True)
class ProblemConfig:
    """A parsed configuration plus its canonical JSON form.

    ``raw`` keeps the original content so that emitted configurations
    re-parse to an equivalent object (round-trip invariant); ``to_json``
    is canonical (sorted keys), so equal configurations serialise to
    identical bytes.
    """

    domain: DomainSpec
    measure: MeasureSpec
    kernel: Kernel
    params: Dict[str, Any]
    raw: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True)


def load_problem_config(source) -> ProblemConfig:
    """Parse a problem configuration from a dict, JSON text, or path."""
    if isinstance(source, dict):
        data = source
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            data = json.loads(text)
        else:
            with open(text, "r", encoding="utf-8") as fh:
                data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    domain = parse_domain(_require(data, "domain", "configuration"))
    measure = parse_measure(_require(data, "measure", "configuration"))
    kernel = parse_kernel(_require(data, "kernel", "configuration"))
    params = dict(data.get("params", {}))
    return ProblemConfig(domain=domain, measure=measure, kernel=kernel,
                         params=params, raw=data)
