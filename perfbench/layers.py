"""Per-layer metrics: which program functions are traced, how each metric is
derived from one traced run, the workloads it runs on, and the end-to-end
metric it should move.

This table is the single source for the per-layer names; run.py checks that
BENCHMARK.json lists the same names and units.
"""

from __future__ import annotations

from dataclasses import dataclass

from workloads import WORKLOADS

RSD, PROX, FANOUT = "rsd-eval-100k", "proximity-10k", "rules-fanout-300k"
ALL = tuple(WORKLOADS)
if set(ALL) != {RSD, PROX, FANOUT}:
    raise ImportError(f"layers.py names workloads {RSD, PROX, FANOUT}, workloads.py has {ALL}")


def _bytes_out(args, kwargs, result):
    return {"bytes": len(result)}


def _bytes_in(args, kwargs, result):
    return {"bytes": len(args[0])}


def _rows_out(args, kwargs, result):
    return {"rows": result.n}


def _refits(args, kwargs, result):
    return {"refits": result.B}


# span name -> (module, public function, attribute recorder). Each function is
# replaced in every sdgflow module that holds a reference to it.
TRACED_FUNCTIONS = {
    "tabular.load_csv": ("sdgflow.tabular", "load_csv", None),
    "tabular.to_csv": ("sdgflow.tabular", "dataset_to_csv_bytes", _bytes_out),
    "tabular.encode": ("sdgflow.tabular", "encode", None),
    "canonical.sha256": ("sdgflow.canonical", "sha256_hex", _bytes_in),
    "generators.generate": ("sdgflow.generators", "generate", _rows_out),
    "utility.fit_propensity": ("sdgflow.evaluation.utility", "fit_propensity", None),
    "utility.pmse_null": ("sdgflow.evaluation.utility", "pmse_null", _refits),
    "utility.univariate_fidelity": ("sdgflow.evaluation.utility", "univariate_fidelity", None),
    "utility.bivariate_fidelity": ("sdgflow.evaluation.utility", "bivariate_fidelity", None),
    "privacy.min_nn_distance": ("sdgflow.evaluation.privacy", "min_nn_distance", None),
    "privacy.new_row_synthesis": ("sdgflow.evaluation.privacy", "new_row_synthesis", None),
    "privacy.categorical_cap": ("sdgflow.evaluation.privacy", "categorical_cap", None),
    "privacy.tcap": ("sdgflow.evaluation.privacy", "tcap", None),
    "privacy.inference_attack_score": ("sdgflow.evaluation.privacy", "inference_attack_score", None),
    "privacy.sample_overlap": ("sdgflow.evaluation.privacy", "sample_overlap", None),
    "diagnostic.diagnose": ("sdgflow.evaluation.diagnostic", "diagnose", None),
    "reporting.compile_report": ("sdgflow.reporting", "compile_report", None),
    "reporting.render_text": ("sdgflow.reporting", "render_text", None),
}

RUNNER_SPAN = "engine.runner"  # one span per node runner, passed via engine.run(runners=...)
RUN_SPAN = "engine.run"


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    runs_on: tuple[str, ...]  # workloads where the layer does work
    moves: str  # end-to-end metric and workloads it should move
    spans: tuple[str, ...] = ()  # summed span durations, when span-based


def _m(name, unit, better, runs_on, moves, *spans):
    return LayerMetric(name, unit, better, runs_on, moves, spans)


LAYER_METRICS = (
    _m("cli.import_s", "s", "lower", ALL, "setup_s on every workload"),
    _m("specs.parse_s", "s", "lower", ALL, "setup_s on every workload"),
    _m("tabular.load_csv_s", "s", "lower", (RSD, PROX), "run_wall_s on rsd-eval-100k", "tabular.load_csv"),
    _m("tabular.to_csv_s", "s", "lower", ALL, "run_wall_s, peak_rss_mb on rules-fanout-300k, rsd-eval-100k", "tabular.to_csv"),
    _m("tabular.to_csv_calls", "count", "lower", ALL, "run_wall_s on rules-fanout-300k, rsd-eval-100k"),
    _m("tabular.csv_mb", "MB", "lower", ALL, "run_wall_s, peak_rss_mb on rules-fanout-300k, rsd-eval-100k"),
    _m("canonical.sha256_s", "s", "lower", ALL, "run_wall_s on rules-fanout-300k, rsd-eval-100k", "canonical.sha256"),
    _m("canonical.sha256_mb", "MB", "lower", ALL, "run_wall_s on rules-fanout-300k, rsd-eval-100k"),
    _m("engine.persist_s", "s", "lower", ALL, "run_wall_s, peak_rss_mb on rules-fanout-300k, rsd-eval-100k"),
    _m("utility.fit_propensity_s", "s", "lower", (RSD,), "run_wall_s, peak_rss_mb on rsd-eval-100k", "utility.fit_propensity"),
    _m("utility.pmse_null_s", "s", "lower", (RSD,), "run_wall_s, peak_rss_mb on rsd-eval-100k", "utility.pmse_null"),
    _m("utility.refit_s", "s", "lower", (RSD,), "run_wall_s on rsd-eval-100k"),
    _m("tabular.encode_s", "s", "lower", (RSD,), "run_wall_s, peak_rss_mb on rsd-eval-100k", "tabular.encode"),
    _m("privacy.min_nn_distance_s", "s", "lower", (PROX,), "run_wall_s on proximity-10k", "privacy.min_nn_distance"),
    _m("privacy.new_row_synthesis_s", "s", "lower", (PROX,), "run_wall_s on proximity-10k", "privacy.new_row_synthesis"),
    _m(
        "privacy.key_attacks_s", "s", "lower", (RSD, PROX),
        "run_wall_s on rsd-eval-100k (off the critical path: only through GIL contention)",
        "privacy.categorical_cap", "privacy.tcap", "privacy.inference_attack_score",
    ),
    _m("privacy.sample_overlap_s", "s", "lower", (RSD, PROX), "run_wall_s on rsd-eval-100k (off the critical path)", "privacy.sample_overlap"),
    _m("generators.generate_s", "s", "lower", ALL, "run_wall_s on rules-fanout-300k", "generators.generate"),
    _m("generators.rows_out", "count", "higher", ALL, "run_wall_s on rules-fanout-300k"),
    _m("utility.fidelity_s", "s", "lower", (RSD, FANOUT), "run_wall_s on rules-fanout-300k", "utility.univariate_fidelity", "utility.bivariate_fidelity"),
    _m("diagnostic.diagnose_s", "s", "lower", ALL, "run_wall_s on rules-fanout-300k", "diagnostic.diagnose"),
    _m("reporting.compile_s", "s", "lower", ALL, "run_wall_s on rules-fanout-300k", "reporting.compile_report", "reporting.render_text"),
    _m("engine.compute_s", "s", "lower", ALL, "run_wall_s on rules-fanout-300k, rsd-eval-100k", RUNNER_SPAN),
    _m("engine.node_sum_s", "s", "lower", ALL, "run_wall_s on rules-fanout-300k, rsd-eval-100k"),
    _m("engine.critical_path_s", "s", "lower", ALL, "run_wall_s on rules-fanout-300k, rsd-eval-100k"),
    _m("engine.cpu_s", "s", "lower", ALL, "run_wall_s on rules-fanout-300k, rsd-eval-100k"),
    _m("engine.cpu_util", "ratio", "higher", ALL, "run_wall_s on rules-fanout-300k, rsd-eval-100k"),
    _m("engine.wait_s", "s", "lower", ALL, "run_wall_s on rules-fanout-300k, rsd-eval-100k"),
    _m("engine.serial_wall_s", "s", "lower", ALL, "run_wall_s on rules-fanout-300k, rsd-eval-100k"),
    _m("engine.verify_s", "s", "lower", ALL, "inspect cost on every workload"),
    _m("trace.run_wall_s", "s", "lower", ALL, "run_wall_s, traced: the base of trace.overhead_s"),
    _m("trace.overhead_s", "s", "lower", ALL, "traced minus untraced run_wall_s; not a program cost"),
)


def _critical_path(records: list[dict]) -> float:
    by_id = {r["id"]: r for r in records}
    finish: dict[str, float] = {}

    def done(nid: str) -> float:
        if nid not in finish:
            r = by_id[nid]
            finish[nid] = (r["duration_seconds"] or 0.0) + max(
                (done(d) for d in r["depends_on"]), default=0.0
            )
        return finish[nid]

    return max(done(nid) for nid in by_id)


def traced_run_values(sample: dict) -> dict[str, float]:
    """Per-layer values of one traced child run. Metrics needing other runs
    (engine.serial_wall_s, trace.overhead_s) are filled in by the caller."""
    spans = sample["spans"]
    records = sample["node_records"]

    def total(*names):
        return sum(s["end"] - s["start"] for s in spans if s["name"] in names)

    def attr_sum(name, key):
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    runners = [s for s in spans if s["name"] == RUNNER_SPAN]
    runner_by_node = {s["node"]: s["end"] - s["start"] for s in runners}
    node_sum = sum(r["duration_seconds"] or 0.0 for r in records)
    refits = attr_sum("utility.pmse_null", "refits")
    values = {
        "cli.import_s": sample["import_s"],
        "specs.parse_s": sample["parse_s"],
        "tabular.to_csv_calls": sum(1 for s in spans if s["name"] == "tabular.to_csv"),
        "tabular.csv_mb": attr_sum("tabular.to_csv", "bytes") / 1e6,
        "canonical.sha256_mb": attr_sum("canonical.sha256", "bytes") / 1e6,
        "engine.persist_s": sum(
            (r["duration_seconds"] or 0.0) - runner_by_node.get(r["id"], 0.0) for r in records
        ),
        "utility.refit_s": total("utility.pmse_null") / refits if refits else 0.0,
        "generators.rows_out": attr_sum("generators.generate", "rows"),
        "engine.node_sum_s": node_sum,
        "engine.critical_path_s": _critical_path(records),
        "engine.cpu_s": sample["cpu_s"],
        "engine.cpu_util": sample["cpu_s"] / sample["run_wall_s"],
        "engine.wait_s": sum(s["end"] - s["start"] - s["thread_cpu"] for s in runners),
        "engine.verify_s": sample["verify_s"],
        "trace.run_wall_s": sample["run_wall_s"],
    }
    for m in LAYER_METRICS:
        if m.spans:
            values[m.name] = total(*m.spans)
    return values


def missing_layers(workload: str, sample: dict) -> list[str]:
    """Span-based layers expected on this workload that recorded no call."""
    seen = {s["name"] for s in sample["spans"]}
    return [
        m.name
        for m in LAYER_METRICS
        if m.spans and workload in m.runs_on and not seen.intersection(m.spans)
    ]
