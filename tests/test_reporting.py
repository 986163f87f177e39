"""Report compilation: threshold verdicts, stable JSON, stable text rendering."""
import pytest

from sdgflow.errors import ConfigError, DuplicateMetric
from sdgflow.evaluation.diagnostic import diagnose, diagnostic_metric
from sdgflow.evaluation.results import Direction, MetricResult
from sdgflow.reporting import (
    SECTIONS,
    EvaluationReport,
    compile_report,
    derive_verdicts,
    render_text,
    threshold_passes,
)
from sdgflow.specs import SpecDigest
from sdgflow.tabular import ColumnKind, ColumnSpec, Schema, make_dataset


def report_from_json_obj(doc):
    run = doc["run"]
    return EvaluationReport(
        digest=SpecDigest(hash=run["spec_hash"], canonical_bytes_len=run["spec_canonical_bytes_len"]),
        seed=run["seed"],
        metrics=tuple(
            MetricResult(**{**m, "direction": Direction(m["direction"])})
            for s in SECTIONS
            for m in doc["sections"][s]["metrics"]
        ),
        thresholds=dict(doc["thresholds"]),
        verdicts=dict(doc["verdicts"]),
    )


def metric(name, score, direction, provenance="utility"):
    return MetricResult(name, score, direction, provenance, {})


def small_report():
    schema = Schema((ColumnSpec("x", ColumnKind.CONTINUOUS),))
    real = make_dataset(schema, {"x": [0.0, 10.0]})
    synth = make_dataset(schema, {"x": [1.0, 2.0, 3.0, 11.0]})
    diag = diagnostic_metric(diagnose(real, synth))
    utility = (
        metric("univariate_fidelity", 0.875, Direction.HIGHER_BETTER),
        metric("pmse_ratio", 1.25, Direction.CENTERED_ONE),
    )
    privacy = (metric("min_nn_distance", 0.0, Direction.HIGHER_BETTER, "privacy"),)
    digest = SpecDigest(hash="ab" * 32, canonical_bytes_len=512)
    thresholds = {"univariate_fidelity": 0.8, "pmse_ratio": 0.5, "min_nn_distance": 0.05}
    return compile_report(digest, 7, (diag, *utility, *privacy), thresholds)


GOLDEN_TEXT = (
    "evaluation report\n"
    "=================\n"
    "spec sha256: abababababababababababababababababababababababababababababababab\n"
    "canonical bytes: 512\n"
    "seed: 7\n"
    "\n"
    "diagnostic: PASS\n"
    "  diagnostic_overall_score  score=0.875  direction=higher_better  (no threshold)\n"
    "\n"
    "utility: PASS\n"
    "  univariate_fidelity  score=0.875  direction=higher_better  threshold >= 0.8  PASS\n"
    "  pmse_ratio  score=1.25  direction=centered_one  threshold |score-1| <= 0.5  PASS\n"
    "\n"
    "privacy: FAIL\n"
    "  min_nn_distance  score=0.0  direction=higher_better  threshold >= 0.05  FAIL\n"
    "\n"
    "OVERALL: FAIL\n"
)


# -------------------------------------------------------------- thresholds ---

def test_threshold_senses():
    assert threshold_passes(metric("m", 0.9, Direction.HIGHER_BETTER), 0.8)
    assert not threshold_passes(metric("m", 0.7, Direction.HIGHER_BETTER), 0.8)
    assert threshold_passes(metric("m", 0.1, Direction.LOWER_BETTER), 0.2)
    assert not threshold_passes(metric("m", 0.3, Direction.LOWER_BETTER), 0.2)
    assert threshold_passes(metric("m", -1.5, Direction.CENTERED_ZERO), 2.0)
    assert not threshold_passes(metric("m", 2.5, Direction.CENTERED_ZERO), 2.0)
    assert threshold_passes(metric("m", 1.4, Direction.CENTERED_ONE), 0.5)
    assert not threshold_passes(metric("m", 0.3, Direction.CENTERED_ONE), 0.5)


def test_threshold_boundaries_inclusive():
    assert threshold_passes(metric("m", 0.8, Direction.HIGHER_BETTER), 0.8)
    assert threshold_passes(metric("m", 0.2, Direction.LOWER_BETTER), 0.2)
    assert threshold_passes(metric("m", -2.0, Direction.CENTERED_ZERO), 2.0)
    assert threshold_passes(metric("m", 1.5, Direction.CENTERED_ONE), 0.5)


def test_verdicts_per_section_and_overall():
    rep = small_report()
    assert rep.verdicts == {
        "diagnostic": True,
        "utility": True,
        "privacy": False,
        "overall": False,
    }


def test_sections_without_thresholds_pass_vacuously():
    verdicts = derive_verdicts((), {})
    assert verdicts == {"diagnostic": True, "utility": True, "privacy": True, "overall": True}


def test_threshold_on_unknown_metric_rejected():
    with pytest.raises(ConfigError):
        derive_verdicts((metric("specks", 0.1, Direction.LOWER_BETTER),), {"ghost": 1.0})


def test_duplicate_metric_rejected():
    digest = SpecDigest(hash="cd" * 32, canonical_bytes_len=9)
    dup = (
        metric("specks", 0.1, Direction.LOWER_BETTER),
        metric("specks", 0.2, Direction.LOWER_BETTER),
    )
    with pytest.raises(DuplicateMetric):
        compile_report(digest, 1, dup, {})


def test_metric_outside_every_section_rejected():
    digest = SpecDigest(hash="cd" * 32, canonical_bytes_len=9)
    stray = metric("specks", 0.1, Direction.LOWER_BETTER, provenance="fidelity")
    with pytest.raises(ConfigError, match="fidelity"):
        compile_report(digest, 1, (metric("pmse_ratio", 1.0, Direction.CENTERED_ONE), stray), {})


def test_sections_hold_metrics_by_provenance():
    rep = small_report()
    assert [m.name for m in rep.section_metrics("utility")] == ["univariate_fidelity", "pmse_ratio"]
    assert [m.name for m in rep.section_metrics("privacy")] == ["min_nn_distance"]
    assert rep.to_json_obj()["sections"]["diagnostic"]["result"] == dict(rep.metrics[0].details)


# ----------------------------------------------------------------- renders ---

def test_render_text_golden():
    assert render_text(small_report()) == GOLDEN_TEXT


def test_render_text_deterministic():
    a, b = small_report(), small_report()
    assert render_text(a) == render_text(b)


def test_render_text_has_required_lines():
    text = render_text(small_report())
    assert text.endswith("\n")
    assert "OVERALL: FAIL" in text
    assert "privacy: FAIL" in text
    assert "spec sha256: " in text


def test_report_json_round_trip():
    rep = small_report()
    back = report_from_json_obj(rep.to_json_obj())
    assert back == rep
    assert render_text(back) == render_text(rep)


def test_report_json_carries_run_identity():
    doc = small_report().to_json_obj()
    assert doc["run"]["spec_hash"] == "ab" * 32
    assert doc["run"]["spec_canonical_bytes_len"] == 512
    assert doc["run"]["seed"] == 7
    assert set(doc["sections"]) == {"diagnostic", "utility", "privacy"}
    assert doc["verdicts"]["overall"] is False
