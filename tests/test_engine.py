"""Workflow execution: scheduling, failure propagation, manifests, verification."""
import dataclasses
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgflow.canonical import canonical_json_bytes
from sdgflow.engine import run, verify_manifest
from sdgflow.evaluation import utility
from sdgflow.errors import InvalidSpec, ManifestInvalid, ManifestMissing, NodeFailure
from sdgflow.specs import parse_spec
from sdgflow.tabular import ColumnKind, ColumnSpec, Schema, make_dataset


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


# --------------------------------------------------------------- scheduling ---

def test_chain_runs_in_order_with_monotone_clock(tmp_path):
    manifest = run(spec_of(chain_doc()), tmp_path / "run", runners=STUB_RUNNERS)
    assert manifest.ok
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
    for nid, art in [("syn", "dataset.csv"), ("qual", "metrics.json"), ("rep", "report.json")]:
        assert (out / "artifacts" / nid / art).is_file(), (nid, art)
        assert (out / "logs" / f"{nid}.log").is_file()
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


def test_failure_can_return_manifest_instead(tmp_path):
    def exploding(ctx):
        raise RuntimeError("boom")

    runners = dict(STUB_RUNNERS, preprocess=exploding)
    manifest = run(
        spec_of(chain_doc()), tmp_path / "run", runners=runners, raise_on_failure=False
    )
    assert not manifest.ok
    assert (tmp_path / "run" / "manifest.json").is_file()


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
    assert sections["diagnostic"]["result"] == diag["diagnostic"]
    text = (tmp_path / "p1" / "report.txt").read_text()
    assert text.index("  univariate_fidelity") < text.index("  specks") < text.index("  bivariate_fidelity")


def test_seed_changes_artifacts(tmp_path):
    a = run(spec_of(synthetic_eval_doc(seed=11)), tmp_path / "a")
    b = run(spec_of(synthetic_eval_doc(seed=12)), tmp_path / "b")
    ha = next(r for r in a.node_records if r.id == "syn").artifacts["dataset"]["sha256"]
    hb = next(r for r in b.node_records if r.id == "syn").artifacts["dataset"]["sha256"]
    assert ha != hb


def test_utility_node_encodes_once_and_records_fit_decisions(tmp_path, monkeypatch):
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
    assert calls == [240]
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


def test_verify_detects_tampered_artifact(tmp_path):
    out = tmp_path / "run"
    run(spec_of(synthetic_eval_doc()), out)
    target = out / "artifacts" / "syn" / "dataset.csv"
    target.write_bytes(target.read_bytes() + b"tampered\n")
    rep = verify_manifest(out)
    assert not rep.passed
    bad = next(c for c in rep.checks if c.name == "artifact_hashes")
    assert not bad.passed
    assert "syn" in bad.detail


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
    run(
        spec_of(chain_doc()),
        out,
        runners=dict(STUB_RUNNERS, preprocess=exploding),
        raise_on_failure=False,
    )
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
