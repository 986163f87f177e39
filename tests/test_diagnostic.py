"""Structure and validity diagnostics comparing synthetic output to its source."""
from dataclasses import asdict

import numpy as np
import pytest

from conftest import mixed_dataset
from sdgflow.errors import ConfigError
from sdgflow.evaluation.diagnostic import diagnose, diagnostic_metric
from sdgflow.evaluation.results import Direction
from sdgflow.tabular import ColumnKind, ColumnSpec, Schema, make_dataset


def two_col(n_rows_x, n_rows_c=None):
    schema = Schema(
        (
            ColumnSpec("x", ColumnKind.CONTINUOUS),
            ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("a", "b", "z")),
        )
    )
    return schema


def test_identical_datasets_score_one():
    ds = mixed_dataset(100)
    res = diagnose(ds, ds)
    assert res.structure_ok
    assert res.overall_score == 1.0
    assert all(chk.pass_fraction == 1.0 for chk in res.per_column)


def test_partial_range_violation():
    schema = Schema((ColumnSpec("x", ColumnKind.CONTINUOUS),))
    real = make_dataset(schema, {"x": [0.0, 10.0]})
    # 2 of 10 synthetic values outside the observed [0, 10]
    synth = make_dataset(schema, {"x": [1.0, 2, 3, 4, 5, 6, 7, 8, -1.0, 11.0]})
    res = diagnose(real, synth)
    checks = {(c.column, c.check): c.pass_fraction for c in res.per_column}
    assert checks[("x", "range_validity")] == pytest.approx(0.8)
    # name_type_match 1.0 and range_validity 0.8 average to 0.9
    assert res.overall_score == pytest.approx((1.0 + 0.8) / 2)


def test_category_adherence_counts_unseen_labels():
    schema = two_col(0)
    real = make_dataset(schema, {"x": [1.0, 2.0], "c": [0, 1]})  # "z" never occurs
    synth = make_dataset(schema, {"x": [1.5, 1.5, 1.5, 1.5], "c": [0, 1, 2, 2]})
    res = diagnose(real, synth)
    checks = {(c.column, c.check): c.pass_fraction for c in res.per_column}
    assert checks[("c", "category_adherence")] == pytest.approx(0.5)


def test_renamed_column_fails_structure():
    schema_a = Schema((ColumnSpec("x", ColumnKind.CONTINUOUS),))
    schema_b = Schema((ColumnSpec("y", ColumnKind.CONTINUOUS),))
    real = make_dataset(schema_a, {"x": [1.0]})
    synth = make_dataset(schema_b, {"y": [1.0]})
    res = diagnose(real, synth)
    assert not res.structure_ok
    assert res.overall_score == 0.0
    # only structural checks are reported, no value checks
    assert {c.check for c in res.per_column} == {"name_type_match"}


def test_kind_mismatch_fails_structure():
    real = make_dataset(Schema((ColumnSpec("x", ColumnKind.CONTINUOUS),)), {"x": [1.0]})
    synth = make_dataset(
        Schema((ColumnSpec("x", ColumnKind.CATEGORICAL, categories=("a",)),)), {"x": [0]}
    )
    assert not diagnose(real, synth).structure_ok


@pytest.mark.parametrize("side", ["real", "synth"])
def test_empty_side_raises_config_error(side):
    ds = mixed_dataset(5)
    empty = ds.take(np.arange(0))
    pair = (empty, ds) if side == "real" else (ds, empty)
    with pytest.raises(ConfigError, match="non-empty"):
        diagnose(*pair)


def test_empty_side_with_other_structure_is_a_finding():
    other = make_dataset(Schema((ColumnSpec("y", ColumnKind.CONTINUOUS),)), {"y": [1.0]})
    res = diagnose(mixed_dataset(3).take(np.arange(0)), other)
    assert not res.structure_ok and res.overall_score == 0.0


def test_monotone_in_violation_count():
    schema = Schema((ColumnSpec("x", ColumnKind.CONTINUOUS),))
    real = make_dataset(schema, {"x": [0.0, 10.0]})
    scores = []
    for bad in (0, 2, 5):
        vals = [5.0] * (10 - bad) + [99.0] * bad
        scores.append(diagnose(real, make_dataset(schema, {"x": vals})).overall_score)
    assert scores[0] > scores[1] > scores[2]


def test_metric_wrapper():
    ds = mixed_dataset(20)
    res = diagnose(ds, ds)
    m = diagnostic_metric(res)
    assert m.details == asdict(res)  # the report's diagnostic result
    assert m.name == "diagnostic_overall_score"
    assert m.direction is Direction.HIGHER_BETTER
    assert m.score == 1.0
    assert m.provenance == "diagnostic"
