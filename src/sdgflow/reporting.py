"""Evaluation report assembly: one machine-readable document collecting the
diagnostic result and every metric, with per-section verdicts derived from
the thresholds the pipeline author put in the spec."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import ConfigError, DuplicateMetric
from .evaluation.diagnostic import DiagnosticResult, diagnostic_metric
from .evaluation.results import Direction, MetricResult
from .specs import SpecDigest

SECTIONS = ("diagnostic", "utility", "privacy")


@dataclass(frozen=True)
class EvaluationReport:
    digest: SpecDigest
    seed: int
    diagnostic: DiagnosticResult | None
    utility: tuple[MetricResult, ...]
    privacy: tuple[MetricResult, ...]
    thresholds: Mapping[str, float] = field(default_factory=dict)
    verdicts: Mapping[str, bool] = field(default_factory=dict)

    def section_metrics(self, section: str) -> tuple[MetricResult, ...]:
        if section == "diagnostic":
            return (diagnostic_metric(self.diagnostic),) if self.diagnostic else ()
        return self.utility if section == "utility" else self.privacy

    def to_json_obj(self) -> dict:
        return {
            "run": {
                "spec_hash": self.digest.hash,
                "spec_canonical_bytes_len": self.digest.canonical_bytes_len,
                "seed": self.seed,
            },
            "thresholds": dict(self.thresholds),
            "sections": {
                "diagnostic": {
                    "result": self.diagnostic.to_json_obj() if self.diagnostic else None,
                    "metrics": [m.to_json_obj() for m in self.section_metrics("diagnostic")],
                },
                "utility": {"metrics": [m.to_json_obj() for m in self.utility]},
                "privacy": {"metrics": [m.to_json_obj() for m in self.privacy]},
            },
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


def derive_verdicts(
    diagnostic: DiagnosticResult | None,
    utility: tuple[MetricResult, ...],
    privacy: tuple[MetricResult, ...],
    thresholds: Mapping[str, float],
) -> dict[str, bool]:
    """Per-section pass/fail; a section passes when all of its thresholded
    metrics satisfy their bounds (vacuously when none are thresholded)."""
    by_section = {
        "diagnostic": (diagnostic_metric(diagnostic),) if diagnostic else (),
        "utility": utility,
        "privacy": privacy,
    }
    known = {m.name for ms in by_section.values() for m in ms}
    missing = set(thresholds) - known
    if missing:
        raise ConfigError(f"thresholds reference metrics not present: {sorted(missing)}")
    verdicts: dict[str, bool] = {}
    for section, metrics in by_section.items():
        verdicts[section] = all(
            threshold_passes(m, thresholds[m.name]) for m in metrics if m.name in thresholds
        )
    verdicts["overall"] = all(verdicts[s] for s in SECTIONS)
    return verdicts


def compile_report(
    digest: SpecDigest,
    seed: int,
    diagnostic: DiagnosticResult | None,
    utility: tuple[MetricResult, ...],
    privacy: tuple[MetricResult, ...],
    thresholds: Mapping[str, float],
) -> EvaluationReport:
    """Assemble the report and derive its verdicts; fully deterministic."""
    names = [m.name for ms in (utility, privacy) for m in ms]
    if diagnostic is not None:
        names.append("diagnostic_overall_score")
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise DuplicateMetric(f"metrics appear more than once: {sorted(dupes)}")
    verdicts = derive_verdicts(diagnostic, utility, privacy, thresholds)
    return EvaluationReport(
        digest=digest,
        seed=seed,
        diagnostic=diagnostic,
        utility=tuple(utility),
        privacy=tuple(privacy),
        thresholds=dict(thresholds),
        verdicts=verdicts,
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
