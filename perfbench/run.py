"""sdgflow benchmark: closed loop, one client, one pipeline at a time, each in a
fresh interpreter at max_parallel=2.

One workload (the form the benchmark contract uses):

    python3 perfbench/run.py --workload rsd-eval-100k --seed 1 --seconds 30 --trace 0

Every workload, untraced then traced, with a summary table:

    python3 perfbench/run.py --all --seed 1 [--seconds 30]

Each invocation first runs the pipeline once at max_parallel=1. That run's
artifact hashes are the reference: every later run of the same seed must
reproduce them byte for byte, pass verify_manifest, and produce the expected
row counts and metric names. A run that does not is a failed run, and the
command exits 1. The last line of standard output is one JSON object with
"correct", "attempted", "failed" and "metrics".

--trace 0 reports the end-to-end metrics (medians over the runs of the
window); --trace 1 alternates traced and untraced runs and reports the
per-layer metrics of layers.py, the tracing overhead, and self times.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import self_times  # noqa: E402

MAX_PARALLEL = 2  # nproc of the reference box
END_TO_END = {"setup_s": "s", "run_wall_s": "s", "peak_rss_mb": "MB"}
MIN_ROUNDS = {False: 3, True: 2}  # untraced runs, or traced/untraced pairs, per window
CHILD_TIMEOUT_S = 150


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def preflight() -> dict:
    """Check that the program and BENCHMARK.json are present and that
    BENCHMARK.json names the metrics and workloads this benchmark produces."""
    if not (ROOT / "src" / "sdgflow" / "engine.py").is_file():
        raise SetupError(f"no sdgflow sources under {ROOT / 'src'}")
    try:
        config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        raise SetupError(f"cannot read BENCHMARK.json: {e}") from None
    declared = {
        "workloads": [w["name"] for w in config["workloads"]],
        "end_to_end": [(m["name"], m["unit"]) for m in config["end_to_end"]],
        "per_layer": [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]],
    }
    produced = {
        "workloads": list(workloads.WORKLOADS),
        "end_to_end": list(END_TO_END.items()),
        "per_layer": [(m.name, m.unit, m.better) for m in layers.LAYER_METRICS],
    }
    for key in declared:
        if declared[key] != produced[key]:
            raise SetupError(f"BENCHMARK.json {key} {declared[key]} != produced {produced[key]}")
    return config


# ------------------------------------------------------------------- statistics ---

def tail(values):
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


# ---------------------------------------------------------------------- runs ---

class Session:
    """The runs of one workload and seed, with their correctness checks."""

    def __init__(self, workload: workloads.Workload, seed: int, work_dir: Path):
        self.workload = workload
        self.work_dir = work_dir
        self.inputs = workloads.prepare(workload, seed, work_dir)
        self.reference: dict | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self._count = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        # bytecode is cached next to the sources by the reference run, as an
        # installed package has it; setup_s then excludes compiling
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env.pop("PYTHONPYCACHEPREFIX", None)
        self.env = env

    def run(self, max_parallel: int, trace: bool, environment: bool = False) -> dict | None:
        """One pipeline in a fresh child process; None when the run failed."""
        self._count += 1
        self.attempted += 1
        tag = f"run{self._count}"
        out = self.work_dir / tag
        job = {
            "doc": str(self.inputs.doc_path),
            "base_dir": str(self.work_dir),
            "out": str(out),
            "max_parallel": max_parallel,
            "trace": trace,
            "environment": environment,
            "result": str(self.work_dir / f"{tag}.json"),
        }
        job_path = self.work_dir / f"{tag}.job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        try:
            spawn = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), str(job_path), repr(spawn)],
                env=self.env,
                cwd=self.work_dir,
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return self._fail(f"{tag}: child timed out after {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0:
            return self._fail(f"{tag}: child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
        problems = self._check(result, out)
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            return self._fail(f"{tag} (max_parallel={max_parallel}): " + "; ".join(problems))
        return result

    def _fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAILED {message}", file=sys.stderr)
        return None

    def _check(self, result: dict, out: Path) -> list[str]:
        problems = []
        if result["error"]:
            problems.append(result["error"])
        if not result["audit_passed"]:
            problems.append("data-flow audit failed")
        if not result["verify_passed"]:
            problems.append("verify_manifest: " + "; ".join(result["verify_failures"]))
        if "spans" in result:
            missing = layers.missing_layers(self.workload.name, result)
            if missing:
                problems.append(f"traced layers recorded no call: {missing}")
        hashes = {
            f"{r['id']}/{name}": info["sha256"]
            for r in result["node_records"]
            for name, info in r["artifacts"].items()
        }
        if self.reference is None:
            problems += self._check_content(out)
            if not problems:
                self.reference = {"hashes": hashes, "spec_digest": result["spec_digest"]}
        elif hashes != self.reference["hashes"]:
            differ = sorted(k for k in hashes.keys() | self.reference["hashes"].keys()
                            if hashes.get(k) != self.reference["hashes"].get(k))
            problems.append(f"artifact hashes differ from the max_parallel=1 reference: {differ}")
        return problems

    def _check_content(self, out: Path) -> list[str]:
        """Row counts and metric names of the reference run; later runs are
        held to its bytes."""
        problems = []
        for nid, rows in self.inputs.expected_rows.items():
            path = out / "artifacts" / nid / "dataset.csv"
            got = path.read_bytes().count(b"\n") - 1 if path.is_file() else None
            if got != rows:
                problems.append(f"{nid}: {got} dataset rows, expected {rows}")
        for nid, names in self.workload.metric_names.items():
            path = out / "artifacts" / nid / "metrics.json"
            if not path.is_file():
                problems.append(f"{nid}: no metrics.json")
                continue
            metrics = json.loads(path.read_text(encoding="utf-8"))["metrics"]
            if [m["name"] for m in metrics] != names:
                problems.append(f"{nid}: metrics {[m['name'] for m in metrics]}, expected {names}")
            bad = [m["name"] for m in metrics if not math.isfinite(m["score"])]
            if bad:
                problems.append(f"{nid}: non-finite scores {bad}")
        if not (out / "report.json").is_file():
            problems.append("no report.json")
        return problems


def _window(session: Session, seconds: float, trace: bool) -> dict[bool, list[dict]]:
    """Run rounds (one untraced run, or a traced and an untraced run) until
    the next round would end after `seconds`, with at least MIN_ROUNDS."""
    kinds = [True, False] if trace else [False]
    samples: dict[bool, list[dict]] = {k: [] for k in kinds}
    start = time.monotonic()
    rounds = 0
    while True:
        for kind in kinds:
            result = session.run(MAX_PARALLEL, kind)
            if result is not None:
                samples[kind].append(result)
        rounds += 1
        elapsed = time.monotonic() - start
        if rounds >= MIN_ROUNDS[trace] and elapsed * (rounds + 1) / rounds > seconds:
            return samples


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    work_dir = OUT_DIR / f"work-{os.getpid()}-{name}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        session = Session(workload, seed, work_dir)
        # the reference run also fills the bytecode and page caches
        serial = session.run(1, False, environment=True)
        if serial is None:
            samples = {False: [], True: []}
        else:
            samples = _window(session, seconds, trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    out = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "fixture_sha256": session.inputs.fixture_sha256,
        "document_sha256": session.inputs.doc_sha256,
        "spec_digest": session.reference["spec_digest"] if session.reference else None,
        "environment": {**serial["environment"], "max_parallel": MAX_PARALLEL} if serial else None,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "failures": session.failures,
    }
    untraced = samples[False]
    out["samples"] = {k: [s[k] for s in untraced] for k in END_TO_END}
    if not trace:
        out["metrics"] = (
            {k: median(v) for k, v in out["samples"].items()} if untraced else {}
        )
        return out

    traced = samples[True]
    per_run = [layers.traced_run_values(s) for s in traced]
    metrics = {m.name: median([v[m.name] for v in per_run]) for m in layers.LAYER_METRICS
               if per_run and m.name in per_run[0]}
    if traced and untraced:
        metrics["engine.serial_wall_s"] = serial["run_wall_s"]
        metrics["trace.overhead_s"] = metrics["trace.run_wall_s"] - median(
            [s["run_wall_s"] for s in untraced]
        )
    out["metrics"] = metrics
    out["self_times"] = [self_times(s["spans"]) for s in traced]
    out["spans"] = [s["spans"] for s in traced]
    return out


# -------------------------------------------------------------------- output ---

def _units(trace: bool) -> dict[str, str]:
    if trace:
        return {m.name: m.unit for m in layers.LAYER_METRICS}
    return END_TO_END


def print_report(result: dict) -> None:
    trace = result["trace"]
    print(f"== {result['workload']} seed={result['seed']} trace={int(trace)}")
    print(f"fixture sha256 {result['fixture_sha256']}  document sha256 {result['document_sha256']}")
    print(f"environment {json.dumps(result['environment'], sort_keys=True)}")
    print(f"runs: {result['attempted']} attempted, {result['failed']} failed")
    for message in result["failures"]:
        print(f"  failure: {message}")
    units = _units(trace)
    if not trace:
        for k, values in result["samples"].items():
            if not values:
                continue
            line = f"{k:<14} median {median(values):10.4f} {units[k]:<3} n={len(values)}"
            hi = tail(values)
            line += f"  p{hi[0]} {hi[1]:.4f}" if hi else "  (too few runs for a tail percentile)"
            print(line)
        return
    for k, v in result["metrics"].items():
        print(f"{k:<30} {v:14.6f} {units[k]}")
    if result["self_times"]:
        print("self time of the first traced run (name, calls, inclusive s, self s):")
        rows = sorted(result["self_times"][0].items(), key=lambda kv: -kv[1]["self_s"])
        for span_name, row in rows:
            print(f"  {span_name:<30} {row['calls']:5d} {row['inclusive_s']:10.4f} {row['self_s']:10.4f}")


def json_line(result: dict) -> str:
    units = _units(result["trace"])
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
        }
    )


def write_trace(result: dict) -> None:
    """Spans are kept in memory during the runs and written out here."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{result['workload']}-seed{result['seed']}.json"
    path.write_text(json.dumps(result), encoding="utf-8")
    print(f"trace written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measurement window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if bool(args.workload) == args.all:
        parser.error("give exactly one of --workload or --all")
    try:
        config = preflight()
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]

    if args.workload:
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
        print_report(result)
        if args.trace:
            write_trace(result)
        print(json_line(result))
        return 0 if result["failed"] == 0 else 1

    results = []
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, args.seed, seconds, trace)
            print_report(result)
            if trace:
                write_trace(result)
            results.append(result)
    summary = {
        f"{r['workload']}/trace{int(r['trace'])}": {
            k: r[k]
            for k in ("fixture_sha256", "document_sha256", "spec_digest", "environment",
                      "attempted", "failed", "metrics", "samples")
        }
        for r in results
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    summary_path = OUT_DIR / f"all-seed{args.seed}.json"
    summary_path.write_text(
        json.dumps({"seed": args.seed, "seconds": seconds, "results": summary}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"results written to {summary_path.relative_to(ROOT)}")
    print("\nworkload             setup_s  run_wall_s  peak_rss_mb  failed/attempted")
    for r in results:
        if not r["trace"]:
            m = r["metrics"]
            print(
                f"{r['workload']:<20} {m.get('setup_s', math.nan):7.3f} s {m.get('run_wall_s', math.nan):9.3f} s"
                f" {m.get('peak_rss_mb', math.nan):9.1f} MB  {r['failed']}/{r['attempted']}"
            )
    return 0 if all(r["failed"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
