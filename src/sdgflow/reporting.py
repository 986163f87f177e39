"""Evaluation report assembly: one machine-readable document collecting the
diagnostic result and every metric, with per-section verdicts derived from
the thresholds the pipeline author put in the spec."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import ConfigError, DuplicateMetric
from .evaluation.results import Direction, MetricResult, check_threshold_names
from .specs import SpecDigest

SECTIONS = ("diagnostic", "utility", "privacy")


@dataclass(frozen=True)
class EvaluationReport:
    digest: SpecDigest
    seed: int
    metrics: tuple[MetricResult, ...]  # each in the section its provenance names
    thresholds: Mapping[str, float] = field(default_factory=dict)
    verdicts: Mapping[str, bool] = field(default_factory=dict)

    def section_metrics(self, section: str) -> tuple[MetricResult, ...]:
        return tuple(m for m in self.metrics if m.provenance == section)

    def to_json_obj(self) -> dict:
        sections = {s: {"metrics": [m.to_json_obj() for m in self.section_metrics(s)]} for s in SECTIONS}
        # the diagnostic metric's details are the diagnostic result document
        diagnostic = self.section_metrics("diagnostic")
        sections["diagnostic"]["result"] = dict(diagnostic[0].details) if diagnostic else None
        return {
            "run": {
                "spec_hash": self.digest.hash,
                "spec_canonical_bytes_len": self.digest.canonical_bytes_len,
                "seed": self.seed,
            },
            "thresholds": dict(self.thresholds),
            "sections": sections,
            "verdicts": dict(self.verdicts),
        }


def threshold_passes(metric: MetricResult, bound: float) -> bool:
    """Interpret a threshold in the metric's direction sense."""
    s = metric.score
    if metric.direction is Direction.HIGHER_BETTER:
        return s >= bound
    if metric.direction is Direction.LOWER_BETTER:
        return s <= bound
    if metric.direction is Direction.CENTERED_ZERO:
        return abs(s) <= bound
    return abs(s - 1.0) <= bound


def derive_verdicts(metrics: tuple[MetricResult, ...], thresholds: Mapping[str, float]) -> dict[str, bool]:
    """Per-section pass/fail; a section passes when all of its thresholded
    metrics satisfy their bounds (vacuously when none are thresholded)."""
    check_threshold_names(thresholds, [m.name for m in metrics])
    verdicts = {
        section: all(
            threshold_passes(m, thresholds[m.name])
            for m in metrics
            if m.provenance == section and m.name in thresholds
        )
        for section in SECTIONS
    }
    verdicts["overall"] = all(verdicts[s] for s in SECTIONS)
    return verdicts


def compile_report(
    digest: SpecDigest,
    seed: int,
    metrics: tuple[MetricResult, ...],
    thresholds: Mapping[str, float],
) -> EvaluationReport:
    """Assemble the report and derive its verdicts; fully deterministic. Each
    metric goes to the section its provenance names; any other provenance
    raises ConfigError."""
    strays = sorted({m.provenance for m in metrics} - set(SECTIONS))
    if strays:
        raise ConfigError(f"metric provenance must be one of {SECTIONS}, got {strays}")
    names = [m.name for m in metrics]
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise DuplicateMetric(f"metrics appear more than once: {sorted(dupes)}")
    return EvaluationReport(
        digest=digest,
        seed=seed,
        metrics=tuple(metrics),
        thresholds=dict(thresholds),
        verdicts=derive_verdicts(metrics, thresholds),
    )


_SENSE = {
    Direction.HIGHER_BETTER: ">=",
    Direction.LOWER_BETTER: "<=",
    Direction.CENTERED_ZERO: "|score| <=",
    Direction.CENTERED_ONE: "|score-1| <=",
}


def render_text(report: EvaluationReport) -> str:
    """Plain-text rendering with a stable layout (golden-file friendly)."""
    lines = [
        "evaluation report",
        "=================",
        f"spec sha256: {report.digest.hash}",
        f"canonical bytes: {report.digest.canonical_bytes_len}",
        f"seed: {report.seed}",
        "",
    ]
    for section in SECTIONS:
        verdict = "PASS" if report.verdicts.get(section, True) else "FAIL"
        lines.append(f"{section}: {verdict}")
        for m in report.section_metrics(section):
            if m.name in report.thresholds:
                bound = report.thresholds[m.name]
                ok = "PASS" if threshold_passes(m, bound) else "FAIL"
                suffix = f"threshold {_SENSE[m.direction]} {bound!r}  {ok}"
            else:
                suffix = "(no threshold)"
            lines.append(f"  {m.name}  score={m.score!r}  direction={m.direction.value}  {suffix}")
        lines.append("")
    lines.append(f"OVERALL: {'PASS' if report.verdicts.get('overall') else 'FAIL'}")
    lines.append("")
    return "\n".join(lines)
