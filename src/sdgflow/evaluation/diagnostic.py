"""Structural and validity checks comparing a synthetic dataset to the real
one it should resemble: matching columns, in-range continuous values, and
categorical labels that actually occur in the real data."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..tabular import ColumnKind, Dataset
from .results import Direction, MetricResult

RANGE_VALIDITY = "range_validity"
CATEGORY_ADHERENCE = "category_adherence"
NAME_TYPE_MATCH = "name_type_match"


@dataclass(frozen=True)
class ColumnCheck:
    column: str
    check: str
    pass_fraction: float


@dataclass(frozen=True)
class DiagnosticResult:
    structure_ok: bool
    per_column: tuple[ColumnCheck, ...]
    overall_score: float

    def to_json_obj(self) -> dict:
        return asdict(self)


def _columns_match(a, b) -> bool:
    return a.name == b.name and a.kind == b.kind and a.categories == b.categories


def diagnose(real: Dataset, synth: Dataset) -> DiagnosticResult:
    """Compare synth against real; a schema mismatch is a finding, not an error.

    structure_ok requires identical column names, order, kinds, and category
    lists. When structure holds, each continuous column gets a range_validity
    fraction (synthetic values inside the observed real [min, max]) and each
    categorical column a category_adherence fraction (labels present in the
    real column). Structure failure forces the overall score to 0.
    """
    rs, ss = real.schema.columns, synth.schema.columns
    checks: list[ColumnCheck] = []
    structure_ok = len(rs) == len(ss)
    for i in range(max(len(rs), len(ss))):
        if i < len(rs) and i < len(ss) and _columns_match(rs[i], ss[i]):
            checks.append(ColumnCheck(rs[i].name, NAME_TYPE_MATCH, 1.0))
        else:
            name = rs[i].name if i < len(rs) else ss[i].name
            checks.append(ColumnCheck(name, NAME_TYPE_MATCH, 0.0))
            structure_ok = False

    if not structure_ok:
        return DiagnosticResult(structure_ok=False, per_column=tuple(checks), overall_score=0.0)

    for spec in real.schema.columns:
        r = real.column(spec.name)
        s = synth.column(spec.name)
        if spec.kind is ColumnKind.CONTINUOUS:
            if s.size == 0:
                frac = 1.0
            else:
                lo, hi = float(r.min()), float(r.max())
                frac = float(np.mean((s >= lo) & (s <= hi)))
            checks.append(ColumnCheck(spec.name, RANGE_VALIDITY, frac))
        else:
            seen = np.unique(r)
            frac = 1.0 if s.size == 0 else float(np.mean(np.isin(s, seen)))
            checks.append(ColumnCheck(spec.name, CATEGORY_ADHERENCE, frac))

    overall = float(np.mean([c.pass_fraction for c in checks]))
    return DiagnosticResult(structure_ok=True, per_column=tuple(checks), overall_score=overall)


def diagnostic_metric(result: DiagnosticResult) -> MetricResult:
    """Summarize a DiagnosticResult as the single reportable metric."""
    return MetricResult(
        name="diagnostic_overall_score",
        score=result.overall_score,
        direction=Direction.HIGHER_BETTER,
        provenance="diagnostic",
        details=result.to_json_obj(),
    )


# metric name -> its computation from (real, synth). Each calls through the
# module's globals, so a function replaced on the module is the one called.
_COMPUTE = {
    "diagnostic_overall_score": lambda real, synth: diagnostic_metric(diagnose(real, synth)),
}
DIAGNOSTIC_METRICS = tuple(_COMPUTE)


def evaluate_diagnostic(real: Dataset, synth: Dataset) -> list[MetricResult]:
    """Run every diagnostic metric."""
    return [compute(real, synth) for compute in _COMPUTE.values()]
