"""End-to-end acceptance checks.

Each test is one contract-level property: benchmark scaling shape, run
determinism and auditability, metric calibration and extremes, oracle
equivalence for the privacy scores, generator fidelity, and pipeline
hygiene. `pytest -v` shows one pass/fail line per property.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from sdgflow.bench import make_bench_dataset
from sdgflow.cli import main
from sdgflow.errors import (
    CycleDetected,
    DanglingDependency,
    DuplicateNodeId,
    RuleUnsatisfiable,
)
from sdgflow.evaluation.diagnostic import diagnose
from sdgflow.evaluation.privacy import (
    PrivacyConfig,
    categorical_cap,
    key_groups,
    min_nn_distance,
    new_row_synthesis,
    sample_overlap,
    tcap,
)
from sdgflow.evaluation.utility import (
    fit_propensity,
    pmse_null,
    pmse_observed,
    pmse_ratio,
    pmse_standardized,
)
from sdgflow.generators import generate, parse_generator_config
from sdgflow.rng import derive_stream
from sdgflow.specs import data_flow_audit, parse_spec, toposort_ids
from sdgflow.tabular import ColumnKind, ColumnSpec, Schema, make_dataset

SAMPLE_SPEC = Path(__file__).resolve().parent.parent / "sample" / "pipeline.json"


def gen_cfg(mode, n_out, **mode_params):
    return parse_generator_config({"mode": mode, "n_out": n_out, "mode_params": mode_params})


# ------------------------------------------------------- benchmark scaling ---

@pytest.fixture(scope="module")
def bench_doc(tmp_path_factory, capsysbinary=None):
    out = tmp_path_factory.mktemp("bench")
    rc = main(["bench", "--sizes", "1000,10000,100000", "--out", str(out)])
    doc = json.loads((out / "bench.json").read_text(encoding="utf-8")) if rc == 0 else None
    return rc, doc


def _wall(doc, size):
    return next(t for t in doc["per_size"] if t["size"] == size)["total_wall_seconds"]


def test_bench_total_runtime_scales_sublinearly(bench_doc):
    rc, doc = bench_doc
    assert rc == 0, "bench command did not complete"
    r_1k = _wall(doc, 100_000) / _wall(doc, 1_000)
    r_10k = _wall(doc, 100_000) / _wall(doc, 10_000)
    assert r_1k < 100.0, f"t(100K)/t(1K) = {r_1k:.1f}, expected < 100"
    assert r_10k < 10.0, f"t(100K)/t(10K) = {r_10k:.1f}, expected < 10"


def test_bench_evaluation_stages_dominate_at_100k(bench_doc):
    rc, doc = bench_doc
    assert rc == 0
    t = next(t for t in doc["per_size"] if t["size"] == 100_000)
    eval_time = t["per_stage_seconds"]["privacy"] + t["per_stage_seconds"]["quality"]
    total = t["serialized_stage_sum_seconds"]
    assert eval_time > 0.5 * total, (
        f"privacy+quality {eval_time:.2f}s is not over half of the "
        f"serialized stage sum {total:.2f}s"
    )


def test_bench_parallel_wall_beats_serialized_sum_at_100k(bench_doc):
    rc, doc = bench_doc
    assert rc == 0
    assert doc["max_parallel"] >= 3
    t = next(t for t in doc["per_size"] if t["size"] == 100_000)
    wall = t["total_wall_seconds"]
    serial = t["serialized_stage_sum_seconds"]
    assert wall < 0.9 * serial, f"wall {wall:.2f}s vs 0.9 x serialized {0.9 * serial:.2f}s"


# -------------------------------------------------- determinism and audit ---

def _run_hashes(out_dir: Path) -> dict:
    files = sorted(p for p in (out_dir / "artifacts").rglob("*") if p.is_file())
    files += [out_dir / "report.json", out_dir / "report.txt"]
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files
    }


def test_bundled_example_deterministic_across_parallelism_and_auditable(tmp_path):
    hashes = []
    dirs = []
    for i, parallel in enumerate(("1", "1", "4", "4")):
        out = tmp_path / f"run{i}"
        assert main(["run", str(SAMPLE_SPEC), "--out", str(out), "--max-parallel", parallel]) == 0
        hashes.append(_run_hashes(out))
        dirs.append(out)
    assert hashes[0] == hashes[1] == hashes[2] == hashes[3], (
        "artifact hashes differ between equal-seed runs"
    )
    assert main(["inspect", str(dirs[0])]) == 0
    victim = dirs[1] / "artifacts" / "generate" / "dataset.csv"
    victim.write_bytes(victim.read_bytes() + b"x")
    assert main(["inspect", str(dirs[1])]) == 1, "tampered artifact not caught"


# --------------------------------------------------------- pmse calibration ---

@pytest.fixture(scope="module")
def pmse_split_trials():
    """20 random half-splits of one 2000-row fixture, scored against both
    null models with B=100 refits each."""
    ds = make_bench_dataset(2000)
    t0 = time.monotonic()
    trials = []
    for seed in range(20):
        perm = np.random.default_rng(seed).permutation(2000)
        real, synth = ds.take(perm[:1000]), ds.take(perm[1000:])
        model, scores = fit_propensity(real, synth)
        obs = pmse_observed(scores, model.c).score
        null = pmse_null(real, synth, "permutation", B=100, rng=derive_stream(seed, "null"))
        analytic = pmse_null(real, synth, "analytic")
        trials.append(
            (
                pmse_standardized(obs, null).score,
                pmse_ratio(obs, null).score,
                analytic.null_mean,
                null.null_mean,
            )
        )
    return trials, time.monotonic() - t0


def test_pmse_split_half_calibration_20_seeds(pmse_split_trials):
    trials, elapsed = pmse_split_trials
    std = np.array([t[0] for t in trials])
    ratio = np.array([t[1] for t in trials])
    std_cov = float(np.mean(np.abs(std) <= 3.0))
    ratio_cov = float(np.mean((ratio >= 0.5) & (ratio <= 2.0)))
    assert std_cov >= 0.95, f"|standardized| <= 3 in only {std_cov:.0%} of 20 trials"
    assert ratio_cov >= 0.90, f"ratio in [0.5, 2] in only {ratio_cov:.0%} of 20 trials"
    assert elapsed < 120.0, f"calibration took {elapsed:.0f}s"


def test_pmse_closed_form_null_mean_within_30pct_of_permutation(pmse_split_trials):
    trials, _ = pmse_split_trials
    mean_analytic = float(np.mean([t[2] for t in trials]))
    mean_perm = float(np.mean([t[3] for t in trials]))
    ratio = mean_analytic / mean_perm
    assert 0.7 <= ratio <= 1.3, (
        f"closed-form null mean {mean_analytic:.3e} is {ratio:.2f}x the permutation "
        f"null mean {mean_perm:.3e} (B=100, 20 splits): the closed form concentrates "
        f"near (k-1)(1-c)^2 c/N while refitting on permuted labels concentrates near "
        f"k c(1-c)/N, a structural factor of about 2 at c=1/2"
    )


def test_pmse_extremes_from_injected_scores():
    c = 0.25
    flat = pmse_observed(np.full(400, c), c)
    assert flat.score == 0.0

    separated = np.concatenate([np.zeros(500), np.ones(500)])
    m = pmse_observed(separated, 0.5)
    assert abs(m.score - 0.25) <= 1e-9


# ----------------------------------------------------- privacy equivalence ---

def _rows_of(ds):
    return [tuple(col[i] for col in ds.columns) for i in range(ds.n)]


def _cap_oracle(real, synth, key_idx, sens_idx):
    rr, sr = _rows_of(real), _rows_of(synth)
    fractions = []
    for r in rr:
        matches = [s for s in sr if all(s[j] == r[j] for j in key_idx)]
        if not matches:
            continue
        fractions.append(sum(s[sens_idx] == r[sens_idx] for s in matches) / len(matches))
    if not fractions:
        return 1.0
    return 1.0 - float(np.mean(np.asarray(fractions)))


def _tcap_oracle(real, synth, key_idx, sens_idx, threshold):
    rr, sr = _rows_of(real), _rows_of(synth)
    groups = {}
    for s in sr:
        groups.setdefault(tuple(s[j] for j in key_idx), []).append(s[sens_idx])
    attackable = {}
    for key, vals in groups.items():
        counts = {}
        for v in vals:
            counts[v] = counts.get(v, 0) + 1
        top = max(counts.values())
        if top / len(vals) >= threshold:
            attackable[key] = min(v for v, c in counts.items() if c == top)
    hits, total = 0, 0
    for r in rr:
        key = tuple(r[j] for j in key_idx)
        if key in attackable:
            total += 1
            hits += r[sens_idx] == attackable[key]
    return hits / total if total else 0.0


def _random_table(rng):
    n_keys = int(rng.integers(1, 4))
    cols = [
        ColumnSpec(
            f"k{j}", ColumnKind.CATEGORICAL, categories=("a", "b", "c")[: int(rng.integers(2, 4))]
        )
        for j in range(n_keys)
    ]
    cols.append(
        ColumnSpec("s", ColumnKind.CATEGORICAL, categories=("x", "y", "z")[: int(rng.integers(2, 4))])
    )
    schema = Schema(tuple(cols))

    def draw():
        n = int(rng.integers(1, 13))
        return make_dataset(
            schema, {c.name: rng.integers(0, len(c.categories), n) for c in schema.columns}
        )

    cfg = PrivacyConfig(
        key_columns=tuple(f"k{j}" for j in range(n_keys)),
        sensitive_column="s",
        tcap_homogeneity=float(rng.choice([0.5, 0.8, 1.0])),
    )
    return draw(), draw(), cfg, tuple(range(n_keys)), n_keys


def test_privacy_oracle_equivalence_and_maximal_leakage():
    rng = np.random.default_rng(20_24)
    for _ in range(200):
        real, synth, cfg, key_idx, sens_idx = _random_table(rng)
        assert categorical_cap(key_groups(real, synth, cfg)).score == _cap_oracle(
            real, synth, key_idx, sens_idx
        )
        assert tcap(key_groups(real, synth, cfg), cfg.tcap_homogeneity).score == _tcap_oracle(
            real, synth, key_idx, sens_idx, cfg.tcap_homogeneity
        )

    # leak everything: synthetic = real, sensitive value fixed by the key
    schema = Schema(
        (
            ColumnSpec("age", ColumnKind.CONTINUOUS),
            ColumnSpec("region", ColumnKind.CATEGORICAL, categories=("north", "south", "east")),
            ColumnSpec("level", ColumnKind.CATEGORICAL, categories=("low", "high")),
        )
    )
    g = np.random.default_rng(99)
    region = g.integers(0, 3, 300)
    real = make_dataset(
        schema, {"age": g.uniform(20.0, 60.0, 300), "region": region, "level": region % 2}
    )
    copy = real.take(np.arange(real.n))
    cfg = PrivacyConfig(key_columns=("region",), sensitive_column="level")
    assert categorical_cap(key_groups(real, copy, cfg)).score == 0.0
    assert new_row_synthesis(real, copy, 1e-9).score == 0.0
    assert min_nn_distance(real, copy).score == 0.0
    assert sample_overlap(real, copy, 1.0, derive_stream(0, "ovl")).score == 1.0


# --------------------------------------------------------- generator claims ---

def test_rsd_bivariate_normal_fidelity():
    rng = np.random.default_rng(123)
    xy = rng.multivariate_normal([0.0, 0.0], [[1.0, 0.7], [0.7, 1.0]], size=10_000)
    schema = Schema(
        (ColumnSpec("x", ColumnKind.CONTINUOUS), ColumnSpec("y", ColumnKind.CONTINUOUS))
    )
    real = make_dataset(schema, {"x": xy[:, 0], "y": xy[:, 1]})
    synth = generate(gen_cfg("rsd", 10_000), derive_stream(8, "gen"), real=real)

    rho = np.corrcoef(synth.column("x"), synth.column("y"))[0, 1]
    assert abs(rho - 0.7) <= 0.1, f"synthetic correlation {rho:.3f} vs target 0.7"
    for name in ("x", "y"):
        ks = stats.ks_2samp(real.column(name), synth.column(name)).statistic
        assert ks <= 0.05, f"{name}: KS {ks:.3f} > 0.05"
    result = diagnose(real, synth)
    range_checks = [c for c in result.per_column if c.check == "range_validity"]
    assert range_checks and all(c.pass_fraction == 1.0 for c in range_checks)


def test_asd_rule_satisfaction_and_csd_slope_recovery():
    schema = Schema(
        (
            ColumnSpec("region", ColumnKind.CATEGORICAL, categories=("north", "south")),
            ColumnSpec("employment", ColumnKind.CATEGORICAL, categories=("employed", "unemployed")),
            ColumnSpec("a", ColumnKind.CONTINUOUS),
            ColumnSpec("total", ColumnKind.CONTINUOUS),
        )
    )
    models = {
        "region": {"labels": ["north", "south"], "weights": [1, 1]},
        "employment": {"labels": ["employed", "unemployed"], "weights": [3, 1]},
        "a": {"distribution": "uniform", "low": 0.0, "high": 10.0},
    }
    rules = [
        {"kind": "range_constraint", "column": "a", "min": 2.0, "max": 9.0},
        {
            "kind": "implication",
            "if_column": "region",
            "if_category": "north",
            "then_column": "employment",
            "then_categories": ["employed"],
        },
        {"kind": "derivation", "target": "total", "sources": {"a": 2.0}, "constant": 1.0},
    ]
    synth = generate(
        gen_cfg("asd", 5_000, column_models=models, rules=rules),
        derive_stream(40, "gen"),
        schema=schema,
    )
    a = synth.column("a")
    assert bool(np.all((a >= 2.0) & (a <= 9.0)))
    north = synth.column("region") == 0
    assert bool(np.all(synth.column("employment")[north] == 0))
    assert np.array_equal(synth.column("total"), 1.0 + 2.0 * a)

    impossible = gen_cfg(
        "asd",
        50,
        column_models={"a": {"distribution": "uniform", "low": 20.0, "high": 30.0}},
        rules=[{"kind": "range_constraint", "column": "a", "min": 2.0, "max": 9.0}],
        max_attempts_per_row=25,
    )
    with pytest.raises(RuleUnsatisfiable):
        generate(impossible, derive_stream(41, "gen"), schema=Schema(schema.columns[2:3]))

    csd_schema = Schema(
        (ColumnSpec("x", ColumnKind.CONTINUOUS), ColumnSpec("y", ColumnKind.CONTINUOUS))
    )
    chain = gen_cfg(
        "csd",
        50_000,
        causal_dag=[{"from": "x", "to": "y"}],
        weights=[2.0],
        noise={
            "x": {"distribution": "normal", "std": 1.0},
            "y": {"distribution": "normal", "std": 0.1},
        },
    )
    synth = generate(chain, derive_stream(42, "gen"), schema=csd_schema)
    x, y = synth.column("x"), synth.column("y")
    slope = float(np.linalg.lstsq(np.column_stack([np.ones_like(x), x]), y, rcond=None)[0][1])
    assert 1.98 <= slope <= 2.02, f"recovered slope {slope:.4f}"


# ------------------------------------------------------------ spec hygiene ---

def _minimal_doc():
    return {
        "version": "1",
        "seed": 5,
        "inputs": {"census": {"path": "d.csv", "schema": "s.json"}},
        "nodes": [
            {"id": "load", "kind": "load", "params": {"input": "census"}},
            {
                "id": "gen",
                "kind": "generate",
                "depends_on": ["load"],
                "params": {"mode": "rsd", "n_out": 10, "real": "load", "mode_params": {}},
            },
            {"id": "rep", "kind": "report", "depends_on": ["gen"], "params": {}},
        ],
        "outputs": [{"node": "gen", "artifact": "dataset"}],
    }


def test_spec_hygiene_errors_and_random_dag_toposort():
    cyclic = _minimal_doc()
    cyclic["nodes"][1]["depends_on"] = ["load", "rep"]
    with pytest.raises(CycleDetected):
        parse_spec(json.dumps(cyclic))

    dangling = _minimal_doc()
    dangling["nodes"][1]["depends_on"] = ["load", "ghost"]
    with pytest.raises(DanglingDependency):
        parse_spec(json.dumps(dangling))

    duplicated = _minimal_doc()
    duplicated["nodes"].append(dict(duplicated["nodes"][1]))
    with pytest.raises(DuplicateNodeId):
        parse_spec(json.dumps(duplicated))

    leaking = _minimal_doc()
    leaking["outputs"].append({"node": "load", "artifact": "dataset"})
    audit = data_flow_audit(parse_spec(json.dumps(leaking)))
    assert not audit.passed
    assert any(v.output == ("load", "dataset") for v in audit.violations)

    rng = np.random.default_rng(4242)
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        ids = [f"n{i}" for i in range(n)]
        deps = {}
        for j in range(n):
            if j and rng.random() < 0.7:
                k = int(rng.integers(1, min(j, 4) + 1))
                picks = rng.choice(j, size=k, replace=False)
                deps[ids[j]] = [ids[int(p)] for p in picks]
            else:
                deps[ids[j]] = []
        presented = [ids[int(i)] for i in rng.permutation(n)]
        order = toposort_ids(presented, deps)
        assert sorted(order) == sorted(ids)
        pos = {v: i for i, v in enumerate(order)}
        for node, upstream in deps.items():
            for dep in upstream:
                assert pos[dep] < pos[node], f"{dep} not before {node}"
