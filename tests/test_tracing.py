"""The benchmark's traced runs: on each workload, every layer the benchmark
expects there records a call. The tracer wraps functions by replacing module
attributes, so a call the program makes through a reference held elsewhere
(a table holding the function object, say) is not seen. Reads perfbench;
changes nothing there."""
import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import workloads  # noqa: E402

ROWS = 2_000


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_records_every_expected_layer(tmp_path, name):
    full = workloads.WORKLOADS[name]
    small = dataclasses.replace(full, fixture_rows=ROWS if full.fixture_rows else 0, n_out=ROWS)
    inputs = workloads.prepare(small, 1, tmp_path)
    job = {
        "doc": str(inputs.doc_path),
        "base_dir": str(tmp_path),
        "out": str(tmp_path / "run"),
        "max_parallel": 2,
        "trace": True,
        "environment": False,
        "result": str(tmp_path / "result.json"),
    }
    (tmp_path / "job.json").write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(tmp_path / "job.json"), repr(time.monotonic())],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert result["error"] is None
    assert result["verify_passed"], result["verify_failures"]
    assert layers.missing_layers(name, result) == []
