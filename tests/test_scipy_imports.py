"""When scipy loads. `import sdgflow.cli` loads none of it. Only the
proximity metrics call scipy (its k-d tree): parsing a document that selects
one loads scipy.spatial, parsing any other loads no scipy, and running it
loads no more; a proximity kernel called with no parse imports scipy.spatial
itself, and every other kernel runs without scipy. A run without proximity
metrics does not load numpy.ma either. Each case runs in a fresh
interpreter, because a module once imported stays in sys.modules."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sdgflow
from sdgflow.engine import run
from sdgflow.specs import load_spec

SAMPLE_DIR = Path(__file__).resolve().parent.parent / "sample"
SRC = str(Path(sdgflow.__file__).resolve().parents[1])
SPATIAL = "scipy.spatial"

LOADED = """
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def in_fresh_process(code: str, *args: str):
    """What `code` prints as JSON, run in a new interpreter that imports the
    package from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", LOADED + code, *args], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def test_cli_import_loads_no_scipy():
    assert in_fresh_process("import sys, json, sdgflow.cli; print(json.dumps(loaded()))") == []


def test_inspect_loads_no_scipy(tmp_path):
    run(load_spec(SAMPLE_DIR / "pipeline.json"), tmp_path / "run", base_dir=SAMPLE_DIR)
    code = """
import contextlib, io, json, sys
from sdgflow.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(["inspect", sys.argv[1]])
print(json.dumps([rc, loaded()]))
"""
    assert in_fresh_process(code, str(tmp_path / "run")) == [0, []]


def sample(name: str) -> dict:
    return json.loads((SAMPLE_DIR / name).read_text(encoding="utf-8"))


def node(doc: dict, node_id: str) -> dict:
    return next(n for n in doc["nodes"] if n["id"] == node_id)


FIDELITY = ["univariate_fidelity", "bivariate_fidelity"]


def asd_and_csd(metrics: list) -> dict:
    """The asd and csd nodes of sample/modes.json, and a utility node that
    compares two asd datasets by `metrics`."""
    modes = sample("modes.json")
    asd, csd = node(modes, "asd"), node(modes, "csd")
    asd2 = {**copy.deepcopy(asd), "id": "asd2"}
    quality = {
        "id": "quality",
        "kind": "evaluate_utility",
        "params": {"real": "asd", "synthetic": "asd2", "metrics": metrics},
        "depends_on": ["asd", "asd2"],
    }
    report = {"id": "report", "kind": "report", "params": {}, "depends_on": ["csd", "quality"]}
    return {"version": "1", "seed": 3, "nodes": [asd, asd2, csd, quality, report]}


def without_proximity() -> dict:
    """The sample pipeline (rsd, the propensity metrics, the diagnostic)
    with a privacy node that runs the key attacks alone."""
    doc = sample("pipeline.json")
    node(doc, "privacy")["params"]["metrics"] = ["categorical_cap", "inference_attack_score", "tcap"]
    del node(doc, "report")["params"]["thresholds"]["sample_overlap"]
    return doc


def key_attacks_only() -> dict:
    """without_proximity, with a utility node that runs the fidelity metrics
    alone."""
    doc = without_proximity()
    node(doc, "quality")["params"]["metrics"] = FIDELITY
    return doc


PARSE_AND_RUN = """
import json, sys, tempfile
from pathlib import Path
from sdgflow import engine, specs

spec = specs.parse_spec(sys.argv[1])
out = {"parse": loaded()}
with tempfile.TemporaryDirectory() as tmp:
    for p in (1, 3):
        engine.run(spec, Path(tmp) / f"p{p}", max_parallel=p, base_dir=sys.argv[2])
        out[f"run at max_parallel {p}"] = loaded()
out["numpy.ma"] = "numpy.ma" in sys.modules
print(json.dumps(out))
"""

DOCUMENTS = {  # document -> whether it selects a proximity metric
    "asd-csd-fidelity-only": (lambda: asd_and_csd(FIDELITY), False),
    "asd-csd-propensity": (lambda: asd_and_csd(["specks", "univariate_fidelity"]), False),
    "rsd-key-attacks-only": (key_attacks_only, False),
    "sample-without-proximity": (without_proximity, False),
    "sample-pipeline": (lambda: sample("pipeline.json"), True),
    "sample-modes": (lambda: sample("modes.json"), True),
}


@pytest.mark.parametrize("doc, proximity", DOCUMENTS.values(), ids=DOCUMENTS)
def test_parse_loads_what_the_nodes_call_and_the_run_loads_nothing_more(doc, proximity):
    out = in_fresh_process(PARSE_AND_RUN, json.dumps(doc()), str(SAMPLE_DIR))
    parsed = out.pop("parse")
    ma = out.pop("numpy.ma")
    assert (SPATIAL in parsed) is proximity
    if not proximity:
        assert parsed == []
        assert not ma  # np.unique without return_inverse would import it
    for after_run in out.values():
        assert after_run == parsed  # a kernel without a parse-time rule imports during the run


KERNEL_CALLS = """
import hashlib, json, sys
from sdgflow import bench, generators, specs
from sdgflow.evaluation import privacy, utility
from sdgflow.rng import derive_stream
from sdgflow.tabular import dataset_to_csv_bytes, load_csv, read_schema

base, parse, kernels = sys.argv[1], sys.argv[2] == "parse", sys.argv[3:]
if parse:
    specs.load_spec(base + "/pipeline.json")
schema = read_schema(base + "/schema.json")
rows = load_csv(base + "/data.csv", schema, "drop_row")
real, synth = rows.take(range(0, rows.n, 2)), rows.take(range(1, rows.n, 2))


def digest(ds):
    return hashlib.sha256(dataset_to_csv_bytes(ds)).hexdigest()


CALLS = {
    "min_nn_distance": lambda: privacy.min_nn_distance(real, synth).score,
    "new_row_synthesis": lambda: privacy.new_row_synthesis(real, synth, 0.01).score,
    "fit_propensity": lambda: list(utility.fit_propensity(real, synth)[0].coefficients),
    "rsd": lambda: digest(generators.generate(
        generators.parse_generator_config({"mode": "rsd", "n_out": 50}), derive_stream(1, "rsd"), real=real
    )),
    "make_bench_dataset": lambda: digest(bench.make_bench_dataset(100)),
}
out = {"before": loaded()}
out.update((name, CALLS[name]()) for name in kernels)
out["after"] = loaded()
print(json.dumps(out))
"""
KERNELS = {  # kernel -> whether it calls scipy
    "min_nn_distance": True,
    "new_row_synthesis": True,
    "fit_propensity": False,
    "rsd": False,
    "make_bench_dataset": False,
}


@pytest.fixture(scope="module")
def after_parse():
    out = in_fresh_process(KERNEL_CALLS, str(SAMPLE_DIR), "parse", *KERNELS)
    assert SPATIAL in out.pop("before")
    del out["after"]
    return out


@pytest.mark.parametrize("kernel, calls_scipy", KERNELS.items(), ids=KERNELS)
def test_a_kernel_called_with_no_parse_imports_scipy_itself(kernel, calls_scipy, after_parse):
    out = in_fresh_process(KERNEL_CALLS, str(SAMPLE_DIR), "no-parse", kernel)
    assert out.pop("before") == []
    after = out.pop("after")
    assert (SPATIAL in after) is calls_scipy
    if not calls_scipy:
        assert after == []
    assert out == {kernel: after_parse[kernel]}
