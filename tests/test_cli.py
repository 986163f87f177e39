"""End-to-end tests of the command-line interface, driven in process through
cli.main so exit codes and printed output are both observable."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import sdgflow
from sdgflow.cli import main

SAMPLE_DIR = Path(__file__).resolve().parent.parent / "sample"
SAMPLE_SPEC = SAMPLE_DIR / "pipeline.json"
SAMPLE_DIGEST = "5fe0e5313e97da285b40b530033edf705350f6da1848add665afe0e2211804c7"


def sample_doc() -> dict:
    return json.loads(SAMPLE_SPEC.read_text(encoding="utf-8"))


def write_spec_copy(tmp_path, doc, with_data=True, with_schema=True):
    """Drop a modified pipeline next to copies of the sample's data files."""
    if with_data:
        shutil.copy(SAMPLE_DIR / "data.csv", tmp_path / "data.csv")
    if with_schema:
        shutil.copy(SAMPLE_DIR / "schema.json", tmp_path / "schema.json")
    spec_path = tmp_path / "pipeline.json"
    spec_path.write_text(json.dumps(doc), encoding="utf-8")
    return spec_path


# ----------------------------------------------------------------- validate ---

def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(sdgflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, sdgflow.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_validate_sample_ok(capsys):
    rc = main(["validate", str(SAMPLE_SPEC)])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"ok: 7 nodes, sha256 {SAMPLE_DIGEST}" in out


def test_validate_syntax_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json", encoding="utf-8")
    rc = main(["validate", str(bad)])
    assert rc == 2
    assert "syntax:" in capsys.readouterr().out


def non_finite_spec(tmp_path):
    text = SAMPLE_SPEC.read_text(encoding="utf-8").replace(
        '"overlap_sample_fraction": 0.5', '"overlap_sample_fraction": 0.5, "numeric_match_tolerance": NaN'
    )
    assert "NaN" in text
    spec_path = tmp_path / "pipeline.json"
    spec_path.write_text(text, encoding="utf-8")
    return spec_path


def test_validate_non_finite_number_exit_2(tmp_path, capsys):
    rc = main(["validate", str(non_finite_spec(tmp_path))])
    assert rc == 2
    assert "syntax: number NaN is not a finite double" in capsys.readouterr().out


def test_validate_missing_file_exit_2(tmp_path, capsys):
    rc = main(["validate", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "io:" in capsys.readouterr().out


def test_validate_cycle_exit_1(tmp_path, capsys):
    doc = sample_doc()
    for node in doc["nodes"]:
        if node["id"] == "clean":
            node["depends_on"] = ["load", "report"]
    spec_path = write_spec_copy(tmp_path, doc, with_data=False)
    rc = main(["validate", str(spec_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "clean" in out and "->" in out


@pytest.mark.parametrize("node_id", ["quality", "diagnostic"])
def test_metric_from_two_evaluate_nodes_fails_validate_and_run(tmp_path, capsys, node_id):
    doc = sample_doc()
    doc["nodes"].append({**next(n for n in doc["nodes"] if n["id"] == node_id), "id": "again"})
    next(n for n in doc["nodes"] if n["id"] == "report")["depends_on"].append("again")
    spec_path = write_spec_copy(tmp_path, doc)
    assert main(["validate", str(spec_path)]) == 1
    assert "is also produced by node" in capsys.readouterr().out
    assert main(["run", str(spec_path), "--out", str(tmp_path / "run")]) == 3
    assert not (tmp_path / "run").exists()


def test_validate_raw_export_exit_1(tmp_path, capsys):
    doc = sample_doc()
    doc["outputs"].append({"node": "load", "artifact": "dataset"})
    spec_path = write_spec_copy(tmp_path, doc, with_data=False)
    rc = main(["validate", str(spec_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "raw data exported: load/dataset" in out


# ---------------------------------------------------------------------- run ---

def test_run_sample_passes(tmp_path, capsys):
    out_dir = tmp_path / "run"
    rc = main(["run", str(SAMPLE_SPEC), "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "generate: succeeded" in out
    assert "report verdict: PASS" in out
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "artifacts" / "generate" / "dataset.csv").exists()
    assert (out_dir / "report.txt").exists()


def test_run_failing_threshold_exit_1(tmp_path, capsys):
    doc = sample_doc()
    for node in doc["nodes"]:
        if node["id"] == "report":
            # normalized mixed-type distance cannot exceed 1
            node["params"]["thresholds"] = {"min_nn_distance": 1.1}
    spec_path = write_spec_copy(tmp_path, doc)
    rc = main(["run", str(spec_path), "--out", str(tmp_path / "run")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "report verdict: FAIL" in out


def test_run_missing_input_exit_2(tmp_path, capsys):
    spec_path = write_spec_copy(tmp_path, sample_doc(), with_data=False)
    rc = main(["run", str(spec_path), "--out", str(tmp_path / "run")])
    out = capsys.readouterr().out
    assert rc == 2
    assert "node failure: load" in out


def test_run_invalid_spec_exit_3(tmp_path, capsys):
    doc = sample_doc()
    del doc["version"]
    spec_path = write_spec_copy(tmp_path, doc, with_data=False)
    rc = main(["run", str(spec_path), "--out", str(tmp_path / "run")])
    assert rc == 3
    assert "invalid spec:" in capsys.readouterr().out


def test_run_non_finite_number_exit_3(tmp_path, capsys):
    rc = main(["run", str(non_finite_spec(tmp_path)), "--out", str(tmp_path / "run")])
    assert rc == 3
    assert "invalid spec: number NaN is not a finite double" in capsys.readouterr().out
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "option, message",
    [
        (["--max-parallel", "0"], "--max-parallel must be >= 1"),
        (["--seed", "-1"], "--seed must be an unsigned 64-bit integer"),
        (["--seed", str(2**64)], "--seed must be an unsigned 64-bit integer"),
    ],
    ids=["max-parallel-0", "seed-negative", "seed-2**64"],
)
def test_run_invalid_option_exit_3(tmp_path, capsys, option, message):
    rc = main(["run", str(SAMPLE_SPEC), "--out", str(tmp_path / "run"), *option])
    assert rc == 3
    assert f"invalid option: {message}" in capsys.readouterr().out
    assert not (tmp_path / "run").exists()


def test_run_repeats_are_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(SAMPLE_SPEC), "--out", str(a)]) == 0
    assert main(["run", str(SAMPLE_SPEC), "--out", str(b)]) == 0
    rel = Path("artifacts") / "generate" / "dataset.csv"
    assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_run_seed_override_changes_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(SAMPLE_SPEC), "--out", str(a)]) == 0
    assert main(["run", str(SAMPLE_SPEC), "--out", str(b), "--seed", "43"]) == 0
    rel = Path("artifacts") / "generate" / "dataset.csv"
    assert (a / rel).read_bytes() != (b / rel).read_bytes()


# ------------------------------------------------------------------ inspect ---

def test_inspect_fresh_run_exit_0(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["run", str(SAMPLE_SPEC), "--out", str(out_dir)]) == 0
    rc = main(["inspect", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verification: PASS" in out


def test_inspect_tampered_run_exit_1(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["run", str(SAMPLE_SPEC), "--out", str(out_dir)]) == 0
    target = out_dir / "artifacts" / "generate" / "dataset.csv"
    target.write_bytes(target.read_bytes() + b"x")
    rc = main(["inspect", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "artifact_hashes: FAIL" in out
    assert "verification: FAIL" in out


def test_inspect_missing_dir_exit_2(tmp_path, capsys):
    rc = main(["inspect", str(tmp_path / "never-ran")])
    assert rc == 2
    assert "cannot read run dir" in capsys.readouterr().out


def _with_artifact(doc, key, value):
    rec = next(r for r in doc["node_records"] if r["artifacts"])
    next(iter(rec["artifacts"].values()))[key] = value


@pytest.mark.parametrize(
    "edit, detail",
    [
        (lambda d: d.update(node_records=5), "node_records must be a list"),
        (lambda d: d["node_records"][0].update(artifacts=[]), "artifacts must be an object"),
        (lambda d: d["node_records"][0].update(depends_on=3), "depends_on must be a list of strings"),
        (lambda d: _with_artifact(d, "file", 7), "file must be a string"),
    ],
    ids=["node_records-int", "artifacts-list", "depends_on-int", "file-int"],
)
def test_inspect_malformed_manifest_exit_2(tmp_path, capsys, edit, detail):
    out_dir = tmp_path / "run"
    assert main(["run", str(SAMPLE_SPEC), "--out", str(out_dir)]) == 0
    doc = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    edit(doc)
    (out_dir / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["inspect", str(out_dir)]) == 2
    out = capsys.readouterr().out
    assert "cannot read run dir" in out and detail in out


def test_inspect_absolute_artifact_path_fails_unread(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["run", str(SAMPLE_SPEC), "--out", str(out_dir)]) == 0
    doc = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    _with_artifact(doc, "file", str(tmp_path / "elsewhere.csv"))
    (out_dir / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["inspect", str(out_dir)]) == 1
    out = capsys.readouterr().out
    assert "artifact_hashes: FAIL" in out and "path leaves the run directory" in out


def test_inspect_symlink_out_of_run_dir_fails_unread(tmp_path, capsys):
    # the link's target carries the recorded sha256, so only the path check can fail it
    out_dir = tmp_path / "run"
    assert main(["run", str(SAMPLE_SPEC), "--out", str(out_dir)]) == 0
    doc = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    target = tmp_path / "elsewhere.txt"
    target.write_bytes(b"not from this run\n")
    (out_dir / "artifacts" / "link.txt").symlink_to(target)
    _with_artifact(doc, "file", "artifacts/link.txt")
    _with_artifact(doc, "sha256", hashlib.sha256(target.read_bytes()).hexdigest())
    (out_dir / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["inspect", str(out_dir)]) == 1
    out = capsys.readouterr().out
    assert "artifact_hashes: FAIL" in out and "path leaves the run directory" in out


def test_inspect_nul_in_artifact_path_fails(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["run", str(SAMPLE_SPEC), "--out", str(out_dir)]) == 0
    doc = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    _with_artifact(doc, "file", "artifacts/a\u0000b.csv")
    (out_dir / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
    assert "\\u0000" in (out_dir / "manifest.json").read_text(encoding="utf-8")
    capsys.readouterr()
    assert main(["inspect", str(out_dir)]) == 1
    out = capsys.readouterr().out
    assert "artifact_hashes: FAIL" in out and "path is not a valid file name" in out


# -------------------------------------------------------------------- bench ---

def test_bench_rejects_single_size(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--sizes", "200", "--out", str(tmp_path / "bench")])
    assert exc.value.code == 2


def test_bench_invalid_max_parallel_exit_3(tmp_path, capsys):
    rc = main(["bench", "--sizes", "200,400", "--out", str(tmp_path / "bench"), "--max-parallel", "0"])
    assert rc == 3
    assert "invalid option: --max-parallel must be >= 1" in capsys.readouterr().out
    assert not (tmp_path / "bench").exists()


def test_bench_two_sizes(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    rc = main(["bench", "--sizes", "200,400", "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "size" in out and "total_wall" in out
    assert any(line.strip().startswith("200") for line in out.splitlines())
    assert any(line.strip().startswith("400") for line in out.splitlines())
    assert (out_dir / "bench.json").exists()
