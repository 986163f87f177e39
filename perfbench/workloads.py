"""Benchmark-owned inputs: a seeded mixed fixture, its schema and the three
pipeline documents.

Nothing here imports sdgflow. The fixture is drawn with numpy from the
workload seed and formatted by this module, so an edit to the program (its
own bench harness included) cannot move the inputs; the recorded fixture
sha256 and document sha256 show that it did not.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Share of fixture rows pushed outside their schema bounds, and share of rows
# overwritten with a copy of an earlier row. Both make preprocess do work.
OUT_OF_BOUNDS_SHARE = 0.01
DUPLICATE_SHARE = 0.01

FIXTURE_SCHEMA = {
    "columns": [
        {"name": "age", "kind": "continuous", "bounds": [18.0, 70.0]},
        {"name": "income", "kind": "continuous", "bounds": [20000.0, 100000.0]},
        {"name": "score", "kind": "continuous"},
        {"name": "region", "kind": "categorical", "categories": ["north", "south", "east", "west"]},
        {
            "name": "status",
            "kind": "categorical",
            "categories": ["single", "married", "divorced", "widowed", "partner"],
        },
        {
            "name": "grade",
            "kind": "categorical",
            "categories": ["g1", "g2", "g3", "g4", "g5", "g6", "g7", "g8"],
        },
    ]
}

# schema of the two generate nodes of rules-fanout-300k (no input file)
FANOUT_SCHEMA = {
    "columns": [
        {"name": "x1", "kind": "continuous"},
        {"name": "x2", "kind": "continuous"},
        {"name": "x3", "kind": "continuous"},
        {"name": "y", "kind": "continuous"},
        {"name": "region", "kind": "categorical", "categories": ["north", "south", "east", "west"]},
        {"name": "tier", "kind": "categorical", "categories": ["gold", "silver", "bronze"]},
    ]
}

_LATENT_CORR = np.array([[1.0, 0.6, 0.3], [0.6, 1.0, 0.2], [0.3, 0.2, 1.0]])


def canonical_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False).encode("utf-8")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _generator(seed: int, label: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")
    return np.random.default_rng([seed % 2**64, tag])


@dataclass(frozen=True)
class Fixture:
    csv_bytes: bytes
    rows_after_preprocess: int  # rows left once bounds filter and dedupe ran


def make_fixture(n: int, seed: int) -> Fixture:
    """Correlated mixed table: 3 continuous columns (rounded like recorded
    data) and 3 categorical ones driven by the same latent normals, with a
    few out-of-bounds values and exact duplicate rows planted."""
    g = _generator(seed, f"fixture/{n}")
    latent = g.standard_normal((n, 3)) @ np.linalg.cholesky(_LATENT_CORR).T
    noise = g.standard_normal((n, 3))
    logistic = 1.0 / (1.0 + np.exp(-1.7 * latent[:, :2]))
    age = np.round(18.0 + 52.0 * logistic[:, 0], 1)
    income = np.round(20000.0 + 80000.0 * logistic[:, 1], 2)
    score = np.round(50.0 + 10.0 * latent[:, 2], 3)
    region = np.searchsorted([-0.6, 0.0, 0.8], 0.7 * latent[:, 0] + 0.3 * noise[:, 0], side="right")
    status = np.searchsorted(
        [-1.0, -0.2, 0.5, 1.2], 0.6 * latent[:, 1] + 0.4 * noise[:, 1], side="right"
    )
    grade = np.searchsorted(
        [-1.5, -0.9, -0.4, 0.0, 0.4, 0.9, 1.5], 0.5 * latent[:, 2] + 0.5 * noise[:, 2], side="right"
    )
    cols = [age, income, score, region.astype(np.int64), status.astype(np.int64), grade.astype(np.int64)]

    oob = g.choice(n, size=int(n * OUT_OF_BOUNDS_SHARE), replace=False)
    cols[0][oob[: len(oob) // 2]] = np.round(g.uniform(10.0, 17.9, len(oob) // 2), 1)
    cols[1][oob[len(oob) // 2 :]] = np.round(g.uniform(100000.01, 120000.0, len(oob) - len(oob) // 2), 2)
    dup_targets = g.choice(np.arange(1, n), size=int(n * DUPLICATE_SHARE), replace=False)
    dup_sources = (g.random(len(dup_targets)) * dup_targets).astype(np.int64)
    for c in cols:
        c[dup_targets] = c[dup_sources]

    in_bounds = (cols[0] >= 18.0) & (cols[0] <= 70.0) & (cols[1] >= 20000.0) & (cols[1] <= 100000.0)
    kept = np.column_stack([c.astype(np.float64) for c in cols])[in_bounds]
    rows_after = int(np.unique(kept, axis=0).shape[0])
    return Fixture(_csv_bytes(cols), rows_after)


def _csv_bytes(cols) -> bytes:
    names = [c["name"] for c in FIXTURE_SCHEMA["columns"]]
    cells = []
    for spec, arr in zip(FIXTURE_SCHEMA["columns"], cols):
        if spec["kind"] == "continuous":
            cells.append([repr(v) for v in arr.tolist()])  # shortest exact round trip
        else:
            cats = spec["categories"]
            cells.append([cats[i] for i in arr.tolist()])
    lines = [",".join(names)] + [",".join(row) for row in zip(*cells)]
    return ("\n".join(lines) + "\n").encode("utf-8")


# ------------------------------------------------------------------ documents ---

def _node(nid, kind, params, depends_on=()):
    node = {"id": nid, "kind": kind, "params": params}
    if depends_on:
        node["depends_on"] = list(depends_on)
    return node


def _doc(seed, purpose, nodes, outputs, with_input):
    doc = {
        "version": "1",
        "metadata": {"purpose": purpose},
        "seed": seed % 2**64,
        "nodes": nodes,
        "outputs": [{"node": n, "artifact": a} for n, a in outputs],
    }
    if with_input:
        doc["inputs"] = {"fixture": {"path": "data.csv", "schema": "schema.json"}}
    return doc


KEYS = {"key_columns": ["region", "status"], "sensitive_column": "grade"}


def rsd_eval_doc(seed: int, n_out: int) -> dict:
    pair = {"real": "preprocess", "synthetic": "generate"}
    deps = ["preprocess", "generate"]
    nodes = [
        _node("load", "load", {"input": "fixture", "missing_policy": "error"}),
        _node(
            "preprocess",
            "preprocess",
            {"source": "load", "drop_out_of_bounds": True, "drop_duplicates": True},
            ["load"],
        ),
        _node("generate", "generate", {"mode": "rsd", "n_out": n_out, "real": "preprocess"}, ["preprocess"]),
        _node(
            "quality",
            "evaluate_utility",
            {**pair, "null_model": "permutation", "permutations": 20},
            deps,
        ),
        _node("diagnostic", "evaluate_diagnostic", dict(pair), deps),
        _node(
            "privacy",
            "evaluate_privacy",
            {
                **pair,
                **KEYS,
                "metrics": ["categorical_cap", "inference_attack_score", "tcap", "sample_overlap"],
            },
            deps,
        ),
        _node("report", "report", {"thresholds": {}}, ["quality", "diagnostic", "privacy"]),
    ]
    return _doc(
        seed, "perfbench rsd-eval", nodes, [("generate", "dataset"), ("report", "report")], True
    )


def proximity_doc(seed: int, n_out: int) -> dict:
    pair = {"real": "load", "synthetic": "generate"}
    nodes = [
        _node("load", "load", {"input": "fixture", "missing_policy": "error"}),
        _node("generate", "generate", {"mode": "rsd", "n_out": n_out, "real": "load"}, ["load"]),
        _node("privacy", "evaluate_privacy", {**pair, **KEYS}, ["load", "generate"]),
        _node("diagnostic", "evaluate_diagnostic", dict(pair), ["load", "generate"]),
        _node("report", "report", {"thresholds": {}}, ["privacy", "diagnostic"]),
    ]
    return _doc(
        seed, "perfbench proximity", nodes, [("generate", "dataset"), ("report", "report")], True
    )


def fanout_doc(seed: int, n_out: int) -> dict:
    region = {"labels": ["north", "south", "east", "west"], "weights": [0.4, 0.3, 0.2, 0.1]}
    tier = {"labels": ["gold", "silver", "bronze"], "weights": [0.2, 0.3, 0.5]}
    rules_gen = {
        "mode": "asd",
        "n_out": n_out,
        "schema": FANOUT_SCHEMA,
        "mode_params": {
            "column_models": {
                "x1": {"distribution": "normal", "mean": 50.0, "std": 12.0},
                "x2": {"distribution": "uniform", "low": 0.0, "high": 100.0},
                "x3": {
                    "distribution": "quantile_table",
                    "quantiles": [0.0, 0.25, 0.5, 0.75, 1.0],
                    "values": [-3.0, -0.7, 0.0, 0.7, 3.0],
                },
                "region": region,
                "tier": tier,
            },
            "rules": [
                {"kind": "range_constraint", "column": "x1", "min": 30.0, "max": 75.0},
                {
                    "kind": "implication",
                    "if_column": "region",
                    "if_category": "north",
                    "then_column": "tier",
                    "then_categories": ["gold", "silver"],
                },
                {"kind": "derivation", "target": "y", "sources": {"x1": 0.5, "x2": 0.25}, "constant": 10.0},
            ],
        },
    }
    hybrid_gen = {
        "mode": "hsd",
        "n_out": n_out,
        "schema": FANOUT_SCHEMA,
        "mode_params": {
            "partition": [["x1", "x2", "x3", "y"], ["region", "tier"]],
            "sub_configs": [
                {
                    "mode": "csd",
                    "n_out": n_out,
                    "mode_params": {
                        "causal_dag": [
                            {"from": "x1", "to": "x2"},
                            {"from": "x1", "to": "y"},
                            {"from": "x2", "to": "y"},
                        ],
                        "weights": [0.8, 0.5, 0.25],
                        "noise": {
                            "x1": {"distribution": "normal", "std": 12.0},
                            "x2": {"distribution": "uniform", "half_width": 30.0},
                            "x3": {"distribution": "normal", "std": 1.0},
                            "y": {"distribution": "normal", "std": 2.0},
                        },
                        "intercepts": {"x1": 50.0, "x2": 10.0, "y": 10.0},
                    },
                },
                {"mode": "asd", "n_out": n_out, "mode_params": {"column_models": {"region": region, "tier": tier}}},
            ],
        },
    }
    pair = {"real": "rules", "synthetic": "hybrid"}
    both = ["hybrid", "rules"]
    nodes = [
        _node("rules", "generate", rules_gen),
        _node("hybrid", "generate", hybrid_gen),
        _node("diagnostic", "evaluate_diagnostic", dict(pair), both),
        _node(
            "fidelity",
            "evaluate_utility",
            {**pair, "metrics": ["univariate_fidelity", "bivariate_fidelity"]},
            both,
        ),
        _node("report", "report", {"thresholds": {}}, ["diagnostic", "fidelity"]),
    ]
    return _doc(
        seed,
        "perfbench rules-fanout",
        nodes,
        [("rules", "dataset"), ("hybrid", "dataset"), ("report", "report")],
        False,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fixture_rows: int  # 0: the document reads no file
    n_out: int
    build_doc: Callable[[int, int], dict]  # (seed, n_out) -> document
    # node id -> rows its dataset artifact must hold; "fixture" and
    # "preprocessed" stand for the fixture row counts
    dataset_rows: dict
    # evaluate node id -> metric names its metrics.json must hold
    metric_names: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rsd-eval-100k",
            why="standard user pipeline at 100k rows: CSV parse and format, IRLS pMSE permutation null, key attacks, persistence",
            fixture_rows=100_000,
            n_out=100_000,
            build_doc=rsd_eval_doc,
            dataset_rows={"load": "fixture", "preprocess": "preprocessed", "generate": 100_000},
            metric_names={
                "quality": [
                    "pmse_observed",
                    "pmse_standardized",
                    "pmse_ratio",
                    "specks",
                    "univariate_fidelity",
                    "bivariate_fidelity",
                ],
                "privacy": ["categorical_cap", "inference_attack_score", "tcap", "sample_overlap"],
                "diagnostic": ["diagnostic_overall_score"],
            },
        ),
        Workload(
            name="proximity-10k",
            why="10k rows, all six privacy metrics uncapped: isolates the quadratic min_nn_distance and new_row_synthesis scans",
            fixture_rows=10_000,
            n_out=10_000,
            build_doc=proximity_doc,
            dataset_rows={"load": "fixture", "generate": 10_000},
            metric_names={
                "privacy": [
                    "categorical_cap",
                    "new_row_synthesis",
                    "inference_attack_score",
                    "tcap",
                    "min_nn_distance",
                    "sample_overlap",
                ],
                "diagnostic": ["diagnostic_overall_score"],
            },
        ),
        Workload(
            name="rules-fanout-300k",
            why="no input file: two parallel 300k-row generate nodes (asd rejection rules, hsd csd+asd) with fidelity only; big writes, GIL contention",
            fixture_rows=0,
            n_out=300_000,
            build_doc=fanout_doc,
            dataset_rows={"rules": 300_000, "hybrid": 300_000},
            metric_names={
                "fidelity": ["univariate_fidelity", "bivariate_fidelity"],
                "diagnostic": ["diagnostic_overall_score"],
            },
        ),
    )
}


@dataclass(frozen=True)
class PreparedInputs:
    doc_path: Path
    fixture_sha256: str | None
    doc_sha256: str
    expected_rows: dict  # node id -> dataset rows


def prepare(workload: Workload, seed: int, work_dir: Path) -> PreparedInputs:
    """Write the fixture CSV, schema and document for one seed into work_dir."""
    work_dir.mkdir(parents=True, exist_ok=True)
    fixture_sha = None
    counts = {}
    if workload.fixture_rows:
        fx = make_fixture(workload.fixture_rows, seed)
        (work_dir / "data.csv").write_bytes(fx.csv_bytes)
        (work_dir / "schema.json").write_bytes(canonical_bytes(FIXTURE_SCHEMA))
        fixture_sha = sha256_hex(fx.csv_bytes)
        counts = {"fixture": workload.fixture_rows, "preprocessed": fx.rows_after_preprocess}
    doc_bytes = canonical_bytes(workload.build_doc(seed, workload.n_out))
    doc_path = work_dir / "pipeline.json"
    doc_path.write_bytes(doc_bytes)
    expected = {nid: counts.get(v, v) for nid, v in workload.dataset_rows.items()}
    return PreparedInputs(doc_path, fixture_sha, sha256_hex(doc_bytes), expected)
