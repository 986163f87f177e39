"""Metric result carrier used by every evaluation module."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Collection, Mapping

from ..errors import ConfigError


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

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "score": self.score,
            "direction": self.direction.value,
            "provenance": self.provenance,
            "details": dict(self.details),
        }


def metric_from_json_obj(obj: Mapping[str, Any]) -> MetricResult:
    return MetricResult(
        name=obj["name"],
        score=float(obj["score"]),
        direction=Direction(obj["direction"]),
        provenance=obj["provenance"],
        details=dict(obj.get("details", {})),
    )


def check_metric_names(metrics: Collection[str], known: Collection[str]) -> None:
    """The rule on a metric selection, for spec parsing and every evaluate
    function: known names, none repeated; raises ConfigError."""
    unknown = set(metrics) - set(known)
    if unknown:
        raise ConfigError(f"unknown metrics {sorted(unknown)}")
    if len(set(metrics)) != len(metrics):
        raise ConfigError("metrics must not repeat a name")


def check_threshold_names(thresholds: Collection[str], produced: Collection[str]) -> None:
    """The rule on a report's thresholds, for spec validation and report
    compilation: each names a produced metric; raises ConfigError."""
    if missing := set(thresholds) - set(produced):
        raise ConfigError(f"thresholds name metrics no evaluate node produces: {sorted(missing)}")
