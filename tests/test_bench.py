"""Tests for the scalability benchmark helpers."""

import hashlib
from dataclasses import asdict

import numpy as np
import pytest

from sdgflow.bench import (
    BENCH_SCHEMA,
    STAGES,
    build_bench_spec_doc,
    make_bench_dataset,
    render_bench_table,
    run_bench,
)
from sdgflow.canonical import canonical_json_bytes
from sdgflow.errors import ConfigError
from sdgflow.specs import parse_spec
from sdgflow.tabular import ColumnKind, dataset_to_csv_bytes


def test_fixture_is_deterministic():
    a = dataset_to_csv_bytes(make_bench_dataset(500))
    b = dataset_to_csv_bytes(make_bench_dataset(500))
    assert a == b
    assert a != dataset_to_csv_bytes(make_bench_dataset(501))


def test_fixture_respects_schema():
    ds = make_bench_dataset(2000)
    assert ds.n == 2000
    assert ds.schema == BENCH_SCHEMA
    for spec in BENCH_SCHEMA.columns:
        values = ds.column(spec.name)
        if spec.kind is ColumnKind.CONTINUOUS:
            if spec.bounds is not None:
                lo, hi = spec.bounds
                assert values.min() >= lo and values.max() <= hi
        else:
            assert values.min() >= 0
            assert values.max() < len(spec.categories)


def test_fixture_has_correlation_structure():
    ds = make_bench_dataset(20000)
    rho = np.corrcoef(ds.column("age"), ds.column("income"))[0, 1]
    assert rho > 0.3


def test_bench_spec_doc_parses():
    doc = build_bench_spec_doc(300, "data.csv", "schema.json")
    spec = parse_spec(canonical_json_bytes(doc))
    assert spec.seed == 7
    assert {n.id for n in spec.nodes} == set(STAGES)
    quality = next(n for n in spec.nodes if n.id == "quality")
    assert quality.params["permutations"] == 20


def test_run_bench_two_sizes(tmp_path):
    result = run_bench([200, 400], tmp_path)
    assert result.sizes == (200, 400)
    assert len(result.per_size) == 2
    for timing in result.per_size:
        assert set(timing.per_stage_seconds) == set(STAGES)
        assert all(v >= 0.0 for v in timing.per_stage_seconds.values())
        assert timing.total_wall_seconds > 0.0
        assert timing.serialized_stage_sum_seconds == pytest.approx(
            sum(timing.per_stage_seconds.values()), abs=1e-3
        )
    t200 = result.timing(200)
    expected = hashlib.sha256(dataset_to_csv_bytes(make_bench_dataset(200))).hexdigest()
    assert t200.fixture_sha256 == expected
    with pytest.raises(KeyError):
        result.timing(999)

    assert (tmp_path / "bench.json").read_bytes() == canonical_json_bytes(asdict(result))
    assert (tmp_path / "size_200" / "run" / "manifest.json").exists()


def test_run_bench_rejects_single_size(tmp_path):
    with pytest.raises(ConfigError):
        run_bench([200], tmp_path)


def test_run_bench_rejects_repeated_sizes(tmp_path):
    with pytest.raises(ConfigError, match="must not repeat"):
        run_bench([200, 400, 200], tmp_path / "bench")
    assert not (tmp_path / "bench").exists()


def test_run_bench_rejects_a_non_positive_size_before_it_runs(tmp_path):
    with pytest.raises(ConfigError, match="must be positive"):
        run_bench([0, 200], tmp_path / "bench")
    assert not (tmp_path / "bench").exists()


def test_render_bench_table(tmp_path):
    result = run_bench([200, 300], tmp_path)
    table = render_bench_table(result)
    lines = table.splitlines()
    assert len(lines) == 3
    for stage in STAGES:
        assert stage in lines[0]
    assert lines[1].strip().startswith("200")
    assert lines[2].strip().startswith("300")
