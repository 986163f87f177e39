"""Scalability benchmark: a fixed mixed-schema fixture dataset, one standard
pipeline per requested size, and per-stage timings pulled from the manifest.

The fixture is seeded so that two bench runs see hash-identical inputs and
timing is the only variable.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from .canonical import canonical_json_bytes
from .engine import RunManifest, check_out_dir, run
from .errors import ConfigError
from .rng import derive_stream
from .special import ndtr
from .specs import parse_spec
from .tabular import (
    ColumnKind,
    ColumnSpec,
    Dataset,
    Schema,
    dataset_to_csv_bytes,
    schema_to_json_obj,
)

BENCH_SEED = 7
STAGES = ("load", "preprocess", "generate", "quality", "diagnostic", "privacy", "report")

BENCH_SCHEMA = Schema(
    (
        ColumnSpec("age", ColumnKind.CONTINUOUS, bounds=(18.0, 70.0)),
        ColumnSpec("income", ColumnKind.CONTINUOUS, bounds=(20000.0, 100000.0)),
        ColumnSpec("score", ColumnKind.CONTINUOUS),
        ColumnSpec("region", ColumnKind.CATEGORICAL, categories=("north", "south", "east", "west")),
        ColumnSpec(
            "status",
            ColumnKind.CATEGORICAL,
            categories=("single", "married", "divorced", "widowed", "partner"),
        ),
        ColumnSpec(
            "grade",
            ColumnKind.CATEGORICAL,
            categories=("g1", "g2", "g3", "g4", "g5", "g6", "g7", "g8"),
        ),
    )
)

_LATENT_CHOL = np.linalg.cholesky(
    np.array([[1.0, 0.6, 0.3], [0.6, 1.0, 0.2], [0.3, 0.2, 1.0]])
)


def make_bench_dataset(n: int) -> Dataset:
    """Deterministic correlated fixture with 3 continuous and 3 categorical
    columns (4-8 categories)."""
    g = derive_stream(BENCH_SEED, f"fixture/{n}").generator
    latent = g.standard_normal((n, 3)) @ _LATENT_CHOL.T
    noise = g.standard_normal((n, 3))
    age = 18.0 + 52.0 * ndtr(latent[:, 0])
    income = 20000.0 + 80000.0 * ndtr(latent[:, 1])
    score = 50.0 + 10.0 * latent[:, 2]
    region = np.searchsorted(
        np.array([-0.6, 0.0, 0.8]), 0.7 * latent[:, 0] + 0.3 * noise[:, 0], side="right"
    )
    status = np.searchsorted(
        np.array([-1.0, -0.2, 0.5, 1.2]), 0.6 * latent[:, 1] + 0.4 * noise[:, 1], side="right"
    )
    grade = np.searchsorted(
        np.array([-1.5, -0.9, -0.4, 0.0, 0.4, 0.9, 1.5]),
        0.5 * latent[:, 2] + 0.5 * noise[:, 2],
        side="right",
    )
    codes = (c.astype(spec.dtype) for c, spec in zip((region, status, grade), BENCH_SCHEMA.columns[3:]))
    return Dataset._adopt(BENCH_SCHEMA, (age, income, score, *codes))


def build_bench_spec_doc(size: int, data_path: str, schema_path: str) -> dict:
    """The standard pipeline: load -> preprocess -> generate (rsd), the three
    evaluation stages in parallel, then the report."""
    return {
        "version": "1",
        "metadata": {"purpose": f"benchmark size {size}"},
        "seed": BENCH_SEED,
        "inputs": {"bench": {"path": data_path, "schema": schema_path}},
        "nodes": [
            {"id": "load", "kind": "load", "params": {"input": "bench", "missing_policy": "error"}},
            {
                "id": "preprocess",
                "kind": "preprocess",
                "params": {"source": "load", "drop_out_of_bounds": False, "drop_duplicates": False},
                "depends_on": ["load"],
            },
            {
                "id": "generate",
                "kind": "generate",
                "params": {"mode": "rsd", "n_out": size, "mode_params": {}, "real": "preprocess"},
                "depends_on": ["preprocess"],
            },
            {
                "id": "quality",
                "kind": "evaluate_utility",
                "params": {
                    "real": "preprocess",
                    "synthetic": "generate",
                    "null_model": "permutation",
                    "permutations": 20,
                },
                "depends_on": ["preprocess", "generate"],
            },
            {
                "id": "diagnostic",
                "kind": "evaluate_diagnostic",
                "params": {"real": "preprocess", "synthetic": "generate"},
                "depends_on": ["preprocess", "generate"],
            },
            {
                "id": "privacy",
                "kind": "evaluate_privacy",
                "params": {
                    "real": "preprocess",
                    "synthetic": "generate",
                    "key_columns": ["region", "status"],
                    "sensitive_column": "grade",
                },
                "depends_on": ["preprocess", "generate"],
            },
            {
                "id": "report",
                "kind": "report",
                "params": {"thresholds": {}},
                "depends_on": ["quality", "diagnostic", "privacy"],
            },
        ],
        "outputs": [
            {"node": "generate", "artifact": "dataset"},
            {"node": "report", "artifact": "report"},
        ],
    }


@dataclass(frozen=True)
class SizeTiming:
    size: int
    per_stage_seconds: dict[str, float]
    total_wall_seconds: float
    serialized_stage_sum_seconds: float
    fixture_sha256: str


@dataclass(frozen=True)
class BenchResult:
    sizes: tuple[int, ...]
    per_size: tuple[SizeTiming, ...]
    max_parallel: int

    def timing(self, size: int) -> SizeTiming:
        for t in self.per_size:
            if t.size == size:
                return t
        raise KeyError(size)


def _wall_seconds(manifest: RunManifest) -> float:
    start = datetime.fromisoformat(manifest.started_at)
    end = datetime.fromisoformat(manifest.finished_at)
    return (end - start).total_seconds()


def bench_one_size(size: int, out_dir, max_parallel: int) -> SizeTiming:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fixture = make_bench_dataset(size)
    csv_bytes = dataset_to_csv_bytes(fixture)
    (out / "data.csv").write_bytes(csv_bytes)
    (out / "schema.json").write_bytes(canonical_json_bytes(schema_to_json_obj(BENCH_SCHEMA)))
    doc = build_bench_spec_doc(size, "data.csv", "schema.json")
    spec = parse_spec(canonical_json_bytes(doc))
    (out / "pipeline.json").write_bytes(canonical_json_bytes(doc))
    manifest = run(spec, out / "run", max_parallel=max_parallel, base_dir=out)
    per_stage = {
        stage: float(manifest.record(stage).duration_seconds or 0.0) for stage in STAGES
    }
    return SizeTiming(
        size=size,
        per_stage_seconds=per_stage,
        total_wall_seconds=_wall_seconds(manifest),
        serialized_stage_sum_seconds=round(sum(per_stage.values()), 3),
        fixture_sha256=hashlib.sha256(csv_bytes).hexdigest(),
    )


def run_bench(sizes, out_dir, max_parallel: int = 4) -> BenchResult:
    """Bench each of at least 2 distinct positive sizes into out_dir/size_N;
    raises ConfigError before anything runs unless the sizes are such."""
    if len(sizes) < 2:
        raise ConfigError("sizes needs at least 2 sizes")
    if any(s < 1 for s in sizes):
        raise ConfigError("sizes must be positive")
    if len(set(sizes)) < len(sizes):
        # a repeated size would run into its own first run's directory
        raise ConfigError("sizes must not repeat")
    check_out_dir(out_dir)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timings = tuple(bench_one_size(s, out / f"size_{s}", max_parallel) for s in sizes)
    result = BenchResult(sizes=tuple(sizes), per_size=timings, max_parallel=max_parallel)
    (out / "bench.json").write_bytes(canonical_json_bytes(asdict(result)))
    return result


def render_bench_table(result: BenchResult) -> str:
    header = ["size"] + list(STAGES) + ["total_wall", "serial_sum"]
    rows = [header]
    for t in result.per_size:
        rows.append(
            [str(t.size)]
            + [f"{t.per_stage_seconds[s]:.3f}" for s in STAGES]
            + [f"{t.total_wall_seconds:.3f}", f"{t.serialized_stage_sum_seconds:.3f}"]
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]
    return "\n".join(lines)
