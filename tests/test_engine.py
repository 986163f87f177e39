"""Workflow execution: scheduling, failure propagation, manifests, verification."""
import dataclasses
import hashlib
import json
import sys
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgflow.canonical import canonical_json_bytes
from sdgflow import engine, tabular
from sdgflow.engine import DEFAULT_RUNNERS, manifest_from_json_obj, run, verify_manifest
from sdgflow.evaluation import utility
from sdgflow.errors import InvalidSpec, ManifestInvalid, ManifestMissing, NodeFailure, RunDirNotEmpty
from sdgflow.specs import parse_spec
from sdgflow.tabular import CSV_BLOCK_ROWS, ColumnKind, ColumnSpec, Schema, dataset_to_csv_bytes, make_dataset


def spec_of(doc):
    return parse_spec(json.dumps(doc))


def stub_dataset():
    schema = Schema((ColumnSpec("x", ColumnKind.CONTINUOUS),))
    return make_dataset(schema, {"x": [1.0, 2.0, 3.0]})


def stub_load(ctx):
    return {"dataset": stub_dataset()}


def stub_passthrough(ctx):
    return {"dataset": ctx.upstream_dataset(ctx.node.params["source"])}


def stub_report(ctx):
    return {"report": {"verdicts": {"overall": True}}, "report_text": "stub report\n"}


STUB_RUNNERS = {"load": stub_load, "preprocess": stub_passthrough, "report": stub_report}


def chain_doc():
    return {
        "version": "1",
        "seed": 3,
        "inputs": {"src": {"path": "in.csv", "schema": "in.json"}},
        "nodes": [
            {"id": "a", "kind": "load", "params": {"input": "src"}},
            {"id": "b", "kind": "preprocess", "depends_on": ["a"], "params": {"source": "a"}},
            {"id": "c", "kind": "preprocess", "depends_on": ["b"], "params": {"source": "b"}},
            {"id": "rep", "kind": "report", "depends_on": ["c"], "params": {}},
        ],
        "outputs": [],
    }


def diamond_doc():
    return {
        "version": "1",
        "seed": 3,
        "inputs": {"src": {"path": "in.csv", "schema": "in.json"}},
        "nodes": [
            {"id": "a", "kind": "load", "params": {"input": "src"}},
            {"id": "b", "kind": "preprocess", "depends_on": ["a"], "params": {"source": "a"}},
            {"id": "c", "kind": "preprocess", "depends_on": ["a"], "params": {"source": "a"}},
            {"id": "rep", "kind": "report", "depends_on": ["b", "c"], "params": {}},
        ],
        "outputs": [],
    }


# a fully synthetic standard pipeline: no input files needed
def synthetic_eval_doc(n=120, seed=11):
    gen = {
        "mode": "asd",
        "n_out": n,
        "mode_params": {
            "column_models": {
                "v": {"distribution": "normal", "mean": 0.0, "std": 1.0},
                "c": {"labels": ["p", "q"], "weights": [2, 1]},
            }
        },
        "schema": {
            "columns": [
                {"name": "v", "kind": "continuous"},
                {"name": "c", "kind": "categorical", "categories": ["p", "q"]},
            ]
        },
    }
    return {
        "version": "1",
        "seed": seed,
        "nodes": [
            {"id": "base", "kind": "generate", "params": dict(gen)},
            {"id": "syn", "kind": "generate", "params": dict(gen)},
            {
                "id": "diag",
                "kind": "evaluate_diagnostic",
                "depends_on": ["base", "syn"],
                "params": {"real": "base", "synthetic": "syn"},
            },
            {
                "id": "qual",
                "kind": "evaluate_utility",
                "depends_on": ["base", "syn"],
                "params": {
                    "real": "base",
                    "synthetic": "syn",
                    "metrics": ["pmse_observed", "specks", "univariate_fidelity", "bivariate_fidelity"],
                },
            },
            {
                "id": "priv",
                "kind": "evaluate_privacy",
                "depends_on": ["base", "syn"],
                "params": {
                    "real": "base",
                    "synthetic": "syn",
                    "metrics": ["new_row_synthesis", "min_nn_distance", "sample_overlap"],
                },
            },
            {
                "id": "rep",
                "kind": "report",
                "depends_on": ["diag", "qual", "priv"],
                "params": {"thresholds": {"diagnostic_overall_score": 0.5}},
            },
        ],
        "outputs": [{"node": "syn", "artifact": "dataset"}, {"node": "rep", "artifact": "report"}],
    }


# ------------------------------------------------------------ run directory ---

@pytest.mark.parametrize("used", ["file", "subdir", "not-a-dir"])
def test_run_refuses_a_used_out_dir_before_any_node_starts(tmp_path, used):
    out = tmp_path / "run"
    if used == "not-a-dir":
        out.write_text("")
    else:
        out.mkdir()
        (out / "logs").mkdir() if used == "subdir" else (out / "stray.txt").write_text("")
    before = sorted(tmp_path.rglob("*"))
    started = []

    def starting(fn):
        return lambda *args: started.append(args) or fn(*args)

    with pytest.raises(RunDirNotEmpty, match="not an empty directory"):
        run(spec_of(chain_doc()), out, runners={k: starting(fn) for k, fn in STUB_RUNNERS.items()})
    assert started == [] and sorted(tmp_path.rglob("*")) == before


def test_of_two_runs_that_both_found_the_out_dir_empty_the_second_raises(tmp_path, monkeypatch):
    # the second run passed check_out_dir before the first made artifacts/
    out = tmp_path / "run"
    (out / "artifacts").mkdir(parents=True)
    monkeypatch.setattr(engine, "check_out_dir", lambda out_dir: None)
    with pytest.raises(RunDirNotEmpty, match="taken by another run"):
        run(spec_of(chain_doc()), out, runners=STUB_RUNNERS)
    assert [p.name for p in out.iterdir()] == ["artifacts"]


# --------------------------------------------------------------- scheduling ---

def test_chain_runs_in_order_with_monotone_clock(tmp_path):
    manifest = run(spec_of(chain_doc()), tmp_path / "run", runners=STUB_RUNNERS)
    rec = {r.id: r for r in manifest.node_records}
    assert set(rec) == {"a", "b", "c", "rep"}
    for r in rec.values():
        assert r.status == "succeeded"
        assert r.start <= r.end
        assert r.duration_seconds >= 0.0
    assert rec["a"].end <= rec["b"].start
    assert rec["b"].end <= rec["c"].start
    assert rec["c"].end <= rec["rep"].start


def test_records_sorted_by_id(tmp_path):
    manifest = run(spec_of(diamond_doc()), tmp_path / "run", runners=STUB_RUNNERS)
    ids = [r.id for r in manifest.node_records]
    assert ids == sorted(ids)


def test_diamond_parallel_overlaps(tmp_path):
    def sleepy(ctx):
        time.sleep(0.12)
        return stub_passthrough(ctx)

    runners = dict(STUB_RUNNERS, preprocess=sleepy)
    t0 = time.monotonic()
    run(spec_of(diamond_doc()), tmp_path / "par", max_parallel=2, runners=runners)
    parallel_wall = time.monotonic() - t0
    t0 = time.monotonic()
    run(spec_of(diamond_doc()), tmp_path / "ser", max_parallel=1, runners=runners)
    serial_wall = time.monotonic() - t0
    assert serial_wall >= 0.24  # two sleeps cannot overlap
    assert parallel_wall < serial_wall - 0.06


def test_run_dir_layout(tmp_path):
    out = tmp_path / "run"
    run(spec_of(synthetic_eval_doc()), out, max_parallel=2)
    assert (out / "manifest.json").is_file()
    assert (out / "report.json").is_file()
    assert (out / "report.txt").is_file()
    for nid, art in [("syn", "dataset.csv"), ("qual", "metrics.json")]:
        assert (out / "artifacts" / nid / art).is_file(), (nid, art)
        assert (out / "logs" / f"{nid}.log").is_file()
    assert (out / "logs" / "rep.log").is_file()
    assert not (out / "artifacts" / "rep").exists()  # the report lives only at the top
    text = (out / "report.txt").read_text()
    assert "OVERALL: PASS" in text


# ------------------------------------------------------------------ failure ---

def test_failure_skips_descendants(tmp_path):
    def exploding(ctx):
        raise RuntimeError("boom")

    runners = dict(STUB_RUNNERS, preprocess=exploding)
    with pytest.raises(NodeFailure) as exc:
        run(spec_of(chain_doc()), tmp_path / "run", runners=runners)
    assert exc.value.node_id == "b"
    assert "boom" in exc.value.cause  # the failed node's traceback text
    manifest = exc.value.manifest
    rec = {r.id: r.status for r in manifest.node_records}
    assert rec == {"a": "succeeded", "b": "failed", "c": "skipped", "rep": "skipped"}
    failed = next(r for r in manifest.node_records if r.id == "b")
    assert "boom" in failed.error


def test_failure_reports_first_failed_in_topo_order(tmp_path):
    def exploding(ctx):
        raise RuntimeError(f"dead {ctx.node.id}")

    runners = dict(STUB_RUNNERS, preprocess=exploding)
    with pytest.raises(NodeFailure) as exc:
        run(spec_of(diamond_doc()), tmp_path / "run", max_parallel=2, runners=runners)
    assert exc.value.node_id == "b"  # both b and c fail; first in topo order wins


def test_manifest_written_even_on_failure(tmp_path):
    def exploding(ctx):
        raise RuntimeError("boom")

    with pytest.raises(NodeFailure):
        run(
            spec_of(chain_doc()),
            tmp_path / "run",
            runners=dict(STUB_RUNNERS, preprocess=exploding),
        )
    doc = json.loads((tmp_path / "run" / "manifest.json").read_text())
    statuses = {r["id"]: r["status"] for r in doc["node_records"]}
    assert statuses["b"] == "failed"


def test_manifest_reads_back_to_its_own_bytes(tmp_path):
    def exploding(ctx):
        raise RuntimeError("boom")

    runners = dict(STUB_RUNNERS, preprocess=exploding)
    with pytest.raises(NodeFailure) as exc:
        run(spec_of(chain_doc()), tmp_path / "run", runners=runners)
    manifest = exc.value.manifest
    data = (tmp_path / "run" / "manifest.json").read_bytes()
    parsed = manifest_from_json_obj(json.loads(data))
    assert parsed == manifest  # succeeded, failed and skipped (null timings) records
    assert canonical_json_bytes(dataclasses.asdict(parsed)) == data


# -------------------------------------------------------------- persistence ---

def wide_dataset(n):
    rng = np.random.default_rng(n)
    schema = Schema(
        (
            ColumnSpec("x", ColumnKind.CONTINUOUS),
            ColumnSpec("y", ColumnKind.CONTINUOUS),
            ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("a", "b")),
        )
    )
    return make_dataset(
        schema, {"x": rng.normal(0.0, 1.0, n), "y": rng.uniform(0.0, 1e6, n), "c": rng.integers(0, 2, n)}
    )


def loads_dataset(ds):
    return dict(STUB_RUNNERS, load=lambda ctx: {"dataset": ds})


def test_multi_block_dataset_hashes_as_the_whole_file(tmp_path, monkeypatch):
    ds = wide_dataset(2 * CSV_BLOCK_ROWS + 5)
    blocks = []
    monkeypatch.setattr(
        tabular, "dataset_to_csv_bytes", lambda *args: blocks.append(args[1:]) or dataset_to_csv_bytes(*args)
    )
    manifest = run(spec_of(chain_doc()), tmp_path / "run", runners=loads_dataset(ds))
    whole = dataset_to_csv_bytes(ds)
    assert (tmp_path / "run" / "artifacts" / "a" / "dataset.csv").read_bytes() == whole
    assert manifest.record("a").artifacts["dataset"]["sha256"] == hashlib.sha256(whole).hexdigest()
    step = CSV_BLOCK_ROWS
    assert blocks[:3] == [(0, step), (step, 2 * step), (2 * step, 3 * step)]  # node a's
    assert verify_manifest(tmp_path / "run").passed


def test_failed_block_leaves_neither_the_artifact_nor_its_part_file(tmp_path, monkeypatch):
    calls = []

    def second_block_fails(ds, lo=0, hi=None):
        calls.append(lo)
        if len(calls) == 2:
            raise RuntimeError("disk gave up")
        return dataset_to_csv_bytes(ds, lo, hi)

    monkeypatch.setattr(tabular, "dataset_to_csv_bytes", second_block_fails)
    out = tmp_path / "run"
    with pytest.raises(NodeFailure) as exc:
        run(spec_of(chain_doc()), out, runners=loads_dataset(wide_dataset(CSV_BLOCK_ROWS + 1)))
    assert exc.value.node_id == "a"
    assert "disk gave up" in exc.value.cause
    assert calls == [0, CSV_BLOCK_ROWS]
    assert not (out / "artifacts" / "a" / "dataset.csv").exists()
    assert not (out / "artifacts" / "a" / "dataset.csv.part").exists()
    assert sorted(p.name for p in out.iterdir()) == ["artifacts", "logs", "manifest.json"]


def test_persisting_a_dataset_holds_a_few_row_blocks(tmp_path):
    ds = wide_dataset(100_000)
    size = len(dataset_to_csv_bytes(ds))
    # a row block's padded cells: two 44-byte float cells, a label, separators
    block = CSV_BLOCK_ROWS * (2 * 45 + 2)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        run(spec_of(chain_doc()), tmp_path / "run", runners=loads_dataset(ds))
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    # the CSV is 4.1 MB; a writer that holds it whole peaks near 7 MB
    assert peak < 4 * block < size
    assert (tmp_path / "run" / "artifacts" / "c" / "dataset.csv").stat().st_size == size


# -------------------------------------------------------------- determinism ---

def test_determinism_across_parallelism(tmp_path):
    doc = synthetic_eval_doc()
    m1 = run(spec_of(doc), tmp_path / "p1", max_parallel=1)
    m4 = run(spec_of(doc), tmp_path / "p4", max_parallel=4)
    h1 = {r.id: r.artifacts for r in m1.node_records}
    h4 = {r.id: r.artifacts for r in m4.node_records}
    assert h1 == h4
    assert (tmp_path / "p1" / "report.json").read_bytes() == (
        tmp_path / "p4" / "report.json"
    ).read_bytes()


def several_nodes_per_section_doc():
    """Two utility and two privacy nodes, where neither document order nor
    id order is the topological order: qa waits on qb, p2 is listed first."""
    doc = synthetic_eval_doc()
    pair = {"real": "base", "synthetic": "syn"}
    base, syn, diag = doc["nodes"][:3]
    evaluate = [
        ("qa", "evaluate_utility", ["bivariate_fidelity"], ["base", "syn", "qb"]),
        ("qb", "evaluate_utility", ["univariate_fidelity", "specks"], ["base", "syn"]),
        ("p2", "evaluate_privacy", ["new_row_synthesis", "sample_overlap"], ["base", "syn"]),
        ("p1", "evaluate_privacy", ["min_nn_distance"], ["base", "syn"]),
    ]
    doc["nodes"] = [base, syn, diag] + [
        {"id": nid, "kind": kind, "depends_on": deps, "params": dict(pair, metrics=metrics)}
        for nid, kind, metrics, deps in evaluate
    ] + [{
        "id": "rep",
        "kind": "report",
        "depends_on": ["diag", "qa", "p1", "p2"],
        "params": {"thresholds": {"specks": 1.0, "min_nn_distance": 0.0}},
    }]
    return doc


def test_report_sections_follow_provenance_in_topological_order(tmp_path):
    spec = spec_of(several_nodes_per_section_doc())
    run(spec, tmp_path / "p1", max_parallel=1)
    run(spec, tmp_path / "p2", max_parallel=2)
    data = (tmp_path / "p1" / "report.json").read_bytes()
    assert data == (tmp_path / "p2" / "report.json").read_bytes()
    sections = json.loads(data)["sections"]
    names = {s: [m["name"] for m in sections[s]["metrics"]] for s in sections}
    assert names == {
        "diagnostic": ["diagnostic_overall_score"],
        "utility": ["univariate_fidelity", "specks", "bivariate_fidelity"],
        "privacy": ["min_nn_distance", "new_row_synthesis", "sample_overlap"],
    }
    diag = json.loads((tmp_path / "p1" / "artifacts" / "diag" / "metrics.json").read_text())
    assert sections["diagnostic"]["result"] == diag["metrics"][0]["details"]
    text = (tmp_path / "p1" / "report.txt").read_text()
    assert text.index("  univariate_fidelity") < text.index("  specks") < text.index("  bivariate_fidelity")


def test_dataset_payload_dropped_after_its_last_direct_dependent(tmp_path):
    # diamond a -> (b, c) -> rep at max_parallel=1 runs a, b, c, rep: a's
    # dataset lives until c, its second reader, has finished
    made, alive = {}, {}

    def fresh(ctx):
        if ctx.node.kind.value == "preprocess":
            ctx.upstream_dataset(ctx.node.params["source"])
        alive[ctx.node.id] = sorted(nid for nid, ref in made.items() if ref() is not None)
        ds = stub_dataset()
        made[ctx.node.id] = weakref.ref(ds)
        return {"dataset": ds}

    def report(ctx):
        alive["rep"] = sorted(nid for nid, ref in made.items() if ref() is not None)
        return stub_report(ctx)

    run(spec_of(diamond_doc()), tmp_path / "run", runners={"load": fresh, "preprocess": fresh, "report": report})
    assert alive == {"a": [], "b": ["a"], "c": ["a", "b"], "rep": ["b", "c"]}


def test_dataset_release_under_thread_switching(tmp_path):
    # more workers than cores, switching threads every microsecond: every
    # reader still finds its source, and only the report's direct
    # dependencies' datasets are alive when it runs
    made, alive = {}, []
    width = 12

    def fresh(ctx):
        if ctx.node.kind.value == "preprocess":
            ctx.upstream_dataset(ctx.node.params["source"])
        ds = stub_dataset()
        made[ctx.node.id] = weakref.ref(ds)
        return {"dataset": ds}

    def report(ctx):
        alive.extend(sorted(nid for nid, ref in made.items() if ref() is not None))
        return stub_report(ctx)

    doc = chain_doc()
    fan = [f"b{i:02d}" for i in range(width)]
    doc["nodes"] = [doc["nodes"][0]] + [
        {"id": nid, "kind": "preprocess", "depends_on": ["a"], "params": {"source": "a"}} for nid in fan
    ] + [
        {"id": "c" + nid, "kind": "preprocess", "depends_on": [nid], "params": {"source": nid}} for nid in fan
    ] + [{"id": "rep", "kind": "report", "depends_on": ["c" + nid for nid in fan], "params": {}}]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = time.monotonic()
        manifest = run(
            spec_of(doc), tmp_path / "run", max_parallel=6,
            runners={"load": fresh, "preprocess": fresh, "report": report},
        )
    finally:
        sys.setswitchinterval(interval)
    assert time.monotonic() - started < 60
    assert all(r.status == "succeeded" for r in manifest.node_records)
    assert alive == ["c" + nid for nid in fan]


def test_report_reads_every_metrics_payload_after_the_datasets_are_dropped(tmp_path):
    # qb reaches the report only through qa; every dataset's readers have
    # finished by the time the report runs
    upstream = {}

    def watching_report(ctx):
        upstream.update({nid: sorted(payload) for nid, payload in ctx.upstream.items()})
        return DEFAULT_RUNNERS["report"](ctx)

    run(spec_of(several_nodes_per_section_doc()), tmp_path / "run", runners={"report": watching_report})
    assert upstream == {
        "base": [], "syn": [],
        **{nid: ["metrics"] for nid in ("diag", "qa", "qb", "p1", "p2")},
    }


def test_metrics_on_a_dataset_preprocess_emptied_fail_with_config_error(tmp_path):
    # both rows' ages fall outside the schema bounds, so preprocess keeps none
    schema = {"columns": [
        {"name": "region", "kind": "categorical", "categories": ["n", "s"]},
        {"name": "age", "kind": "continuous", "bounds": [18.0, 70.0]},
        {"name": "x", "kind": "continuous"},
    ]}
    (tmp_path / "in.json").write_text(json.dumps(schema), encoding="utf-8")
    (tmp_path / "in.csv").write_text("region,age,x\nn,5,1.5\ns,99,2.5\n", encoding="utf-8")
    pair = {"real": "pre", "synthetic": "a"}
    doc = chain_doc()
    doc["nodes"] = [
        {"id": "a", "kind": "load", "params": {"input": "src"}},
        {"id": "pre", "kind": "preprocess", "depends_on": ["a"],
         "params": {"source": "a", "drop_out_of_bounds": True}},
        {"id": "diag", "kind": "evaluate_diagnostic", "depends_on": ["a", "pre"], "params": pair},
        {"id": "qual", "kind": "evaluate_utility", "depends_on": ["a", "pre"],
         "params": dict(pair, metrics=["univariate_fidelity", "bivariate_fidelity"])},
        {"id": "rep", "kind": "report", "depends_on": ["diag", "qual"], "params": {}},
    ]
    with pytest.raises(NodeFailure) as info:
        run(spec_of(doc), tmp_path / "run", base_dir=tmp_path)
    records = {r.id: r for r in info.value.manifest.node_records}
    assert "kept 0 of 2 rows" in (tmp_path / "run" / "logs" / "pre.log").read_text()
    for nid, what in (("diag", "diagnose"), ("qual", "univariate_fidelity")):
        assert records[nid].status == "failed"
        assert f"ConfigError: {what} needs non-empty datasets" in records[nid].error
    assert records["rep"].status == "skipped"


def test_preprocess_drop_duplicates_keeps_the_first_of_rows_equal_but_for_a_zero_sign(tmp_path):
    schema = Schema(
        (ColumnSpec("x", ColumnKind.CONTINUOUS), ColumnSpec("c", ColumnKind.CATEGORICAL, ("p", "q")))
    )
    rows = make_dataset(schema, {"x": [-0.0, 1.0, 0.0, 0.0, -0.0, 1.0], "c": [0, 0, 0, 1, 1, 0]})
    doc = chain_doc()
    doc["nodes"][1]["params"]["drop_duplicates"] = True
    runners = {"load": lambda ctx: {"dataset": rows}, "report": stub_report}
    manifest = run(spec_of(doc), tmp_path / "run", runners=runners)
    record = next(r for r in manifest.node_records if r.id == "b")
    written = (tmp_path / "run" / record.artifacts["dataset"]["file"]).read_bytes()
    assert written == dataset_to_csv_bytes(rows.take([0, 1, 3]))
    assert written.decode().splitlines()[1:] == ["-0,p", "1,p", "0,q"]


def test_seed_changes_artifacts(tmp_path):
    a = run(spec_of(synthetic_eval_doc(seed=11)), tmp_path / "a")
    b = run(spec_of(synthetic_eval_doc(seed=12)), tmp_path / "b")
    ha = next(r for r in a.node_records if r.id == "syn").artifacts["dataset"]["sha256"]
    hb = next(r for r in b.node_records if r.id == "syn").artifacts["dataset"]["sha256"]
    assert ha != hb


def test_utility_node_encodes_per_model_and_records_fit_decisions(tmp_path, monkeypatch):
    # the propensity fit and the permutation null each encode the pair
    calls = []
    original = utility.encode

    def counting_encode(real, synth):
        calls.append(real.n + synth.n)
        return original(real, synth)

    monkeypatch.setattr(utility, "encode", counting_encode)
    doc = synthetic_eval_doc()
    qual = next(node for node in doc["nodes"] if node["id"] == "qual")
    qual["params"]["metrics"] = ["pmse_observed", "pmse_standardized", "pmse_ratio", "specks"]
    run(spec_of(doc), tmp_path / "run")
    assert calls == [240, 240]
    metrics = json.loads((tmp_path / "run" / "artifacts" / "qual" / "metrics.json").read_text())
    details = {m["name"]: m["details"] for m in metrics["metrics"]}
    assert details["pmse_observed"]["converged"] is True
    assert details["pmse_observed"]["iterations"] > 0
    assert details["pmse_standardized"]["null_block_iterations"] > 0
    assert details["pmse_ratio"]["null_newton_refits"] >= 0


def test_node_streams_isolated(tmp_path):
    # two generate nodes with identical params but different ids draw
    # different data
    m = run(spec_of(synthetic_eval_doc()), tmp_path / "run")
    arts = {r.id: r.artifacts for r in m.node_records}
    assert arts["base"]["dataset"]["sha256"] != arts["syn"]["dataset"]["sha256"]


# ------------------------------------------------------------- verification ---

def test_verify_fresh_run_passes(tmp_path):
    out = tmp_path / "run"
    run(spec_of(synthetic_eval_doc()), out)
    rep = verify_manifest(out)
    assert rep.passed
    assert {c.name for c in rep.checks} == {
        "artifact_hashes",
        "edge_ordering",
        "failure_propagation",
        "artifacts_recorded",
    }


@pytest.mark.parametrize("rel, node", [("artifacts/syn/dataset.csv", "syn"), ("report.txt", "rep")])
def test_verify_detects_tampered_artifact(tmp_path, rel, node):
    out = tmp_path / "run"
    run(spec_of(synthetic_eval_doc()), out)
    target = out / rel
    target.write_bytes(target.read_bytes() + b"tampered\n")
    rep = verify_manifest(out)
    assert not rep.passed
    bad = next(c for c in rep.checks if c.name == "artifact_hashes")
    assert not bad.passed
    assert f"{node}/" in bad.detail


def test_verify_detects_missing_artifact(tmp_path):
    out = tmp_path / "run"
    run(spec_of(synthetic_eval_doc()), out)
    (out / "artifacts" / "qual" / "metrics.json").unlink()
    assert not verify_manifest(out).passed


def test_verify_detects_forged_ordering(tmp_path):
    out = tmp_path / "run"
    run(spec_of(chain_doc()), out, runners=STUB_RUNNERS)
    doc = json.loads((out / "manifest.json").read_text())
    recs = {r["id"]: r for r in doc["node_records"]}
    recs["c"]["start"] = "2000-01-01T00:00:00+00:00"  # long before its parent finished
    (out / "manifest.json").write_bytes(canonical_json_bytes(doc))
    rep = verify_manifest(out)
    assert not rep.passed
    bad = next(c for c in rep.checks if c.name == "edge_ordering")
    assert not bad.passed


def test_verify_flags_malformed_timestamp_instead_of_crashing(tmp_path):
    out = tmp_path / "run"
    run(spec_of(chain_doc()), out, runners=STUB_RUNNERS)
    doc = json.loads((out / "manifest.json").read_text())
    recs = {r["id"]: r for r in doc["node_records"]}
    recs["c"]["start"] = "2000-01-01T00:00:00"  # naive stamp, as a hand edit would leave
    (out / "manifest.json").write_bytes(canonical_json_bytes(doc))
    rep = verify_manifest(out)
    assert not rep.passed
    bad = next(c for c in rep.checks if c.name == "edge_ordering")
    assert "timestamps" in bad.detail


def test_verify_detects_forged_success(tmp_path):
    def exploding(ctx):
        raise RuntimeError("boom")

    out = tmp_path / "run"
    with pytest.raises(NodeFailure):
        run(spec_of(chain_doc()), out, runners=dict(STUB_RUNNERS, preprocess=exploding))
    doc = json.loads((out / "manifest.json").read_text())
    for r in doc["node_records"]:
        if r["id"] == "c":
            r["status"] = "succeeded"  # pretend the skipped child ran
    (out / "manifest.json").write_bytes(canonical_json_bytes(doc))
    rep = verify_manifest(out)
    assert not rep.passed


def test_verify_missing_manifest(tmp_path):
    with pytest.raises(ManifestMissing):
        verify_manifest(tmp_path / "nothing-here")


def test_verify_refuses_artifact_path_outside_run_dir(tmp_path):
    out = tmp_path / "run"
    run(spec_of(chain_doc()), out, runners=STUB_RUNNERS)
    outside = tmp_path / "outside.csv"
    outside.write_bytes((out / "artifacts" / "a" / "dataset.csv").read_bytes())
    doc = json.loads((out / "manifest.json").read_text())
    recs = {r["id"]: r for r in doc["node_records"]}
    recs["a"]["artifacts"]["dataset"]["file"] = str(outside)  # same bytes, same hash
    recs["b"]["artifacts"]["dataset"]["file"] = "../outside.csv"
    (out / "manifest.json").write_bytes(canonical_json_bytes(doc))
    bad = next(c for c in verify_manifest(out).checks if c.name == "artifact_hashes")
    assert not bad.passed
    assert bad.detail.count("path leaves the run directory") == 2


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_run_rejects_bad_seed_before_any_node(tmp_path, seed):
    spec = dataclasses.replace(spec_of(chain_doc()), seed=seed)
    started = []

    def watching_load(ctx):
        started.append(ctx.node.id)
        return stub_load(ctx)

    with pytest.raises(InvalidSpec, match="seed"):
        run(spec, tmp_path / "run", runners=dict(STUB_RUNNERS, load=watching_load))
    assert started == []
    assert not (tmp_path / "run").exists()


def _json_paths(value, path=()):
    """Every path to a nested value of a JSON document, the root excluded."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield path + (key,)
        yield from _json_paths(inner, path + (key,))


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["", ".", "..", "/etc/hostname", "../manifest.json", "artifacts", "succeeded"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("manifest-fuzz") / "run"
    run(spec_of(synthetic_eval_doc(n=40)), out)
    return out, json.loads((out / "manifest.json").read_text())


@settings(max_examples=300, deadline=None)
@given(data=st.data(), value=_JSON)
def test_verify_fuzzed_manifest_reports_or_raises_typed_error(finished_run, data, value):
    out, original = finished_run
    doc = json.loads(json.dumps(original))
    # pick a field uniformly (list positions folded together), then one of its places
    by_field: dict = {}
    for path in _json_paths(doc):
        by_field.setdefault(tuple("*" if isinstance(k, int) else k for k in path), []).append(path)
    places = data.draw(st.sampled_from(list(by_field.values())))
    *parents, key = data.draw(st.sampled_from(places))
    holder = doc
    for p in parents:
        holder = holder[p]
    holder[key] = value
    (out / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")  # NaN as a JSON literal
    try:
        verify_manifest(out)
    except ManifestInvalid:
        pass
    finally:
        (out / "manifest.json").write_text(json.dumps(original), encoding="utf-8")
