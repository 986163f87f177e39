"""Metric result carrier used by every evaluation module."""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Collection, Mapping

from ..errors import ConfigError, SchemaMismatch
from ..tabular import Dataset


class Direction(str, Enum):
    HIGHER_BETTER = "higher_better"
    LOWER_BETTER = "lower_better"
    CENTERED_ZERO = "centered_zero"
    CENTERED_ONE = "centered_one"


@dataclass(frozen=True)
class MetricResult:
    name: str
    score: float
    direction: Direction
    provenance: str  # diagnostic | utility | privacy
    details: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise ValueError(f"metric {self.name!r}: score must be finite")


def check_metric_names(metrics: Collection[str], known: Collection[str]) -> None:
    """The rule on a metric selection, for spec parsing and every evaluate
    function: known names, none repeated; raises ConfigError."""
    unknown = set(metrics) - set(known)
    if unknown:
        raise ConfigError(f"unknown metrics {sorted(unknown)}")
    if len(set(metrics)) != len(metrics):
        raise ConfigError("metrics must not repeat a name")


def metric_inputs(compute: Callable) -> tuple[str, ...]:
    """The inputs a computation of a metric table reads: its parameters'
    names."""
    return tuple(inspect.signature(compute).parameters)


def compute_metrics(
    table: Mapping[str, Callable], metrics: Collection[str], inputs: Mapping[str, Any]
) -> list[MetricResult]:
    """The selected metrics of `table`, in the order given, each computed
    from the entries of `inputs` that it reads (metric_inputs)."""
    return [table[name](**{k: inputs[k] for k in metric_inputs(table[name])}) for name in metrics]


def check_rows(real: Dataset, synth: Dataset, what: str) -> None:
    """Both datasets hold rows, as every metric that averages over each
    side's rows needs; raises ConfigError."""
    if real.n == 0 or synth.n == 0:
        raise ConfigError(f"{what} needs non-empty datasets")


def check_pair(real: Dataset, synth: Dataset, what: str) -> None:
    """The rule on the datasets a utility or privacy metric compares: one
    structure (else SchemaMismatch), then rows on both sides (check_rows)."""
    if not real.schema.same_structure(synth.schema):
        raise SchemaMismatch("real and synthetic schemas differ")
    check_rows(real, synth, what)


def check_threshold_names(thresholds: Collection[str], produced: Collection[str]) -> None:
    """The rule on a report's thresholds, for spec validation and report
    compilation: each names a produced metric; raises ConfigError."""
    if missing := set(thresholds) - set(produced):
        raise ConfigError(f"thresholds name metrics no evaluate node produces: {sorted(missing)}")
