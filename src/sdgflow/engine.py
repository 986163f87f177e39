"""In-process DAG engine: runs a validated pipeline spec with bounded
parallelism, writes every artifact plus a canonical run manifest, and can
re-verify a finished run directory.

Node bodies are pure functions of (upstream artifacts, params, per-node rng
stream), so artifact bytes do not depend on max_parallel or wall-clock
conditions.
"""

from __future__ import annotations

import graphlib
import hashlib
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path, PurePosixPath
from typing import Any, Callable, Mapping

import numpy as np

from . import __version__
from .canonical import canonical_json_bytes, sha256_hex
from .errors import (
    ConfigError,
    ManifestInvalid,
    ManifestMissing,
    MissingUpstream,
    NodeFailure,
)
from .evaluation.diagnostic import diagnose, diagnostic_metric
from .evaluation.privacy import evaluate_privacy
from .evaluation.results import metric_from_json_obj
from .evaluation.utility import (
    bivariate_fidelity,
    design_matrix,
    fit_propensity,
    pmse_null,
    pmse_observed,
    pmse_ratio,
    pmse_standardized,
    specks,
    univariate_fidelity,
)
from .generators import generate
from .jsonfields import JsonChecks, loads
from .reporting import compile_report, render_text
from .rng import RngStream, derive_stream
from .specs import (
    EVALUATE_KINDS,
    NODE_ARTIFACTS,
    NodeKind,
    PipelineNode,
    PipelineSpec,
    check_seed,
    spec_digest,
    topological_order,
)
from .tabular import (
    ColumnKind,
    Dataset,
    dataset_to_csv_bytes,
    load_csv,
    row_keys,
    read_schema,
)

ENGINE_VERSION = __version__

__all__ = [
    "RunManifest",
    "run",
    "derive_stream",
    "verify_manifest",
    "VerificationCheck",
    "VerificationReport",
]


@dataclass(frozen=True)
class NodeRecord:
    id: str
    kind: str
    status: str  # succeeded | failed | skipped
    depends_on: tuple[str, ...]
    start: str | None
    end: str | None
    duration_seconds: float | None
    artifacts: Mapping[str, Mapping[str, str]]
    error: str | None = None

    def to_json_obj(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "depends_on": list(self.depends_on),
            "start": self.start,
            "end": self.end,
            "duration_seconds": self.duration_seconds,
            "artifacts": {k: dict(v) for k, v in self.artifacts.items()},
            "error": self.error,
        }


@dataclass(frozen=True)
class RunManifest:
    spec_hash: str
    spec_canonical_bytes_len: int
    seed: int
    engine_version: str
    max_parallel: int
    started_at: str
    finished_at: str
    node_records: tuple[NodeRecord, ...]

    def record(self, node_id: str) -> NodeRecord:
        for r in self.node_records:
            if r.id == node_id:
                return r
        raise KeyError(node_id)

    @property
    def ok(self) -> bool:
        return all(r.status == "succeeded" for r in self.node_records)

    def to_json_obj(self) -> dict:
        return {
            "spec_digest": {
                "hash": self.spec_hash,
                "canonical_bytes_len": self.spec_canonical_bytes_len,
            },
            "seed": self.seed,
            "engine_version": self.engine_version,
            "max_parallel": self.max_parallel,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "node_records": [r.to_json_obj() for r in self.node_records],
        }


_check = JsonChecks(ManifestInvalid)
_MANIFEST_FIELDS = {
    "spec_digest", "seed", "engine_version", "max_parallel", "started_at", "finished_at", "node_records",
}
_DIGEST_FIELDS = {"hash", "canonical_bytes_len"}
_RECORD_FIELDS = {
    "id", "kind", "status", "depends_on", "start", "end", "duration_seconds", "artifacts",
}
_STATUSES = ("succeeded", "failed", "skipped")


def _maybe(check: Callable[[Any, str], Any], value: Any, what: str) -> Any:
    return None if value is None else check(value, what)


def _record_from_json_obj(r: Any, where: str) -> NodeRecord:
    _check.obj(r, where, _RECORD_FIELDS | {"error"}, required=_RECORD_FIELDS)
    artifacts = {}
    for name, info in _check.obj(r["artifacts"], f"{where}: artifacts").items():
        what = f"{where}: artifacts[{name!r}]"
        _check.obj(info, what, {"file", "sha256"}, required={"file", "sha256"})
        artifacts[name] = {k: _check.string(info[k], f"{what}: {k}") for k in ("file", "sha256")}
    return NodeRecord(
        id=_check.string(r["id"], f"{where}: id"),
        kind=_check.choice(r["kind"], f"{where}: kind", [k.value for k in NodeKind]),
        status=_check.choice(r["status"], f"{where}: status", _STATUSES),
        depends_on=_check.strings(r["depends_on"], f"{where}: depends_on", nonempty=False),
        start=_maybe(_check.string, r["start"], f"{where}: start"),
        end=_maybe(_check.string, r["end"], f"{where}: end"),
        duration_seconds=_maybe(_check.number, r["duration_seconds"], f"{where}: duration_seconds"),
        artifacts=artifacts,
        error=_maybe(_check.string, r.get("error"), f"{where}: error"),
    )


def manifest_from_json_obj(doc: Any) -> RunManifest:
    """Parse a manifest document; a missing, unknown or mistyped field raises
    ManifestInvalid."""
    _check.obj(doc, "manifest", _MANIFEST_FIELDS, required=_MANIFEST_FIELDS)
    digest = _check.obj(doc["spec_digest"], "spec_digest", _DIGEST_FIELDS, required=_DIGEST_FIELDS)
    records = _check.items(doc["node_records"], "node_records")
    return RunManifest(
        spec_hash=_check.string(digest["hash"], "spec_digest: hash"),
        spec_canonical_bytes_len=_check.integer(
            digest["canonical_bytes_len"], "spec_digest: canonical_bytes_len"
        ),
        seed=_check.integer(doc["seed"], "seed"),
        engine_version=_check.string(doc["engine_version"], "engine_version"),
        max_parallel=_check.integer(doc["max_parallel"], "max_parallel"),
        started_at=_check.string(doc["started_at"], "started_at"),
        finished_at=_check.string(doc["finished_at"], "finished_at"),
        node_records=tuple(_record_from_json_obj(r, f"node_records[{i}]") for i, r in enumerate(records)),
    )


# ------------------------------------------------------------- node context ---

@dataclass
class NodeContext:
    node: PipelineNode
    spec: PipelineSpec
    stream: RngStream
    base_dir: Path
    upstream: Mapping[str, Mapping[str, Any]]  # node id -> artifact name -> payload
    log: Callable[[str], None]

    def upstream_dataset(self, node_id: str) -> Dataset:
        try:
            return self.upstream[node_id]["dataset"]
        except KeyError:
            raise MissingUpstream(node_id) from None


Runner = Callable[[NodeContext], Mapping[str, Any]]


def _resolve(base: Path, path: str) -> Path:
    p = Path(path)
    return p if p.is_absolute() else base / p


def _run_load(ctx: NodeContext) -> Mapping[str, Any]:
    cfg = ctx.node.config
    src = ctx.spec.inputs[cfg.input]
    schema = read_schema(_resolve(ctx.base_dir, src.schema))
    ds = load_csv(_resolve(ctx.base_dir, src.path), schema, missing_policy=cfg.missing_policy)
    ctx.log(f"loaded {ds.n} rows from {src.path}")
    return {"dataset": ds}


def _run_preprocess(ctx: NodeContext) -> Mapping[str, Any]:
    cfg = ctx.node.config
    ds = ctx.upstream_dataset(cfg.source)
    before = ds.n
    if cfg.drop_out_of_bounds:
        keep = np.ones(ds.n, dtype=bool)
        for spec, arr in zip(ds.schema.columns, ds.columns):
            if spec.kind is ColumnKind.CONTINUOUS and spec.bounds is not None:
                keep &= (arr >= spec.bounds[0]) & (arr <= spec.bounds[1])
        ds = ds.take(np.flatnonzero(keep))
    if cfg.drop_duplicates:
        _, first = np.unique(row_keys(ds), return_index=True)
        ds = ds.take(np.sort(first))
    ctx.log(f"preprocess kept {ds.n} of {before} rows")
    return {"dataset": ds}


def _run_generate(ctx: NodeContext) -> Mapping[str, Any]:
    cfg = ctx.node.config
    real = ctx.upstream_dataset(cfg.real) if cfg.real is not None else None
    ds = generate(cfg.generator, ctx.stream, real=real, schema=cfg.schema)
    ctx.log(f"generated {ds.n} rows in mode {cfg.generator.mode}")
    return {"dataset": ds}


def _metrics_doc(node_id: str, provenance: str, metrics, extra: Mapping[str, Any] | None = None) -> dict:
    doc = {
        "node": node_id,
        "provenance": provenance,
        "metrics": [m.to_json_obj() for m in metrics],
    }
    if extra:
        doc.update(extra)
    return doc


def _run_diagnostic(ctx: NodeContext) -> Mapping[str, Any]:
    cfg = ctx.node.config
    result = diagnose(ctx.upstream_dataset(cfg.real), ctx.upstream_dataset(cfg.synthetic))
    doc = _metrics_doc(
        ctx.node.id,
        "diagnostic",
        [diagnostic_metric(result)],
        {"diagnostic": result.to_json_obj()},
    )
    ctx.log(f"diagnostic overall score {result.overall_score}")
    return {"metrics": doc}


def _run_utility(ctx: NodeContext) -> Mapping[str, Any]:
    cfg = ctx.node.config
    real = ctx.upstream_dataset(cfg.real)
    synth = ctx.upstream_dataset(cfg.synthetic)
    selected = set(cfg.metrics)
    if selected & {"pmse_observed", "pmse_standardized", "pmse_ratio", "specks"}:
        design = design_matrix(real, synth)
        model, scores = fit_propensity(real, synth, design)
        obs = pmse_observed(scores, model.c, model)
    if selected & {"pmse_standardized", "pmse_ratio"}:
        null = pmse_null(
            real,
            synth,
            kind=cfg.null_model,
            B=cfg.permutations,
            rng=ctx.stream.child("null"),
            design=design,
        )
    compute = {
        "pmse_observed": lambda: obs,
        "pmse_standardized": lambda: pmse_standardized(obs.score, null),
        "pmse_ratio": lambda: pmse_ratio(obs.score, null),
        "specks": lambda: specks(scores[: real.n], scores[real.n :]),
        "univariate_fidelity": lambda: univariate_fidelity(real, synth),
        "bivariate_fidelity": lambda: bivariate_fidelity(real, synth),
    }
    results = [compute[name]() for name in cfg.metrics]
    ctx.log(f"utility metrics: {[m.name for m in results]}")
    return {"metrics": _metrics_doc(ctx.node.id, "utility", results)}


def _run_privacy(ctx: NodeContext) -> Mapping[str, Any]:
    cfg = ctx.node.config
    results = evaluate_privacy(
        ctx.upstream_dataset(cfg.real),
        ctx.upstream_dataset(cfg.synthetic),
        cfg.privacy,
        metrics=cfg.metrics,
        rng=ctx.stream,
    )
    ctx.log(f"privacy metrics: {[m.name for m in results]}")
    return {"metrics": _metrics_doc(ctx.node.id, "privacy", results)}


def _run_report(ctx: NodeContext) -> Mapping[str, Any]:
    metrics = []
    for nid in topological_order(ctx.spec):
        if ctx.spec.node(nid).kind in EVALUATE_KINDS:
            try:
                doc = ctx.upstream[nid]["metrics"]
            except KeyError:
                raise MissingUpstream(nid) from None
            metrics.extend(metric_from_json_obj(m) for m in doc["metrics"])
    report = compile_report(
        digest=spec_digest(ctx.spec),
        seed=ctx.spec.seed,
        metrics=tuple(metrics),
        thresholds=ctx.node.config.thresholds,
    )
    ctx.log(f"report verdicts: {dict(report.verdicts)}")
    return {"report": report.to_json_obj(), "report_text": render_text(report)}


DEFAULT_RUNNERS: dict[str, Runner] = {
    NodeKind.LOAD.value: _run_load,
    NodeKind.PREPROCESS.value: _run_preprocess,
    NodeKind.GENERATE.value: _run_generate,
    NodeKind.EVALUATE_DIAGNOSTIC.value: _run_diagnostic,
    NodeKind.EVALUATE_UTILITY.value: _run_utility,
    NodeKind.EVALUATE_PRIVACY.value: _run_privacy,
    NodeKind.REPORT.value: _run_report,
}


# ------------------------------------------------------------ serialization ---

_ARTIFACT_FILES = {
    "dataset": "dataset.csv",
    "metrics": "metrics.json",
    "report": "report.json",
    "report_text": "report_text.txt",
}


def _artifact_bytes(name: str, payload: Any) -> bytes:
    if name == "dataset":
        return dataset_to_csv_bytes(payload)
    if name in ("metrics", "report"):
        return canonical_json_bytes(payload)
    if name == "report_text":
        return payload.encode("utf-8")
    raise ConfigError(f"unknown artifact name {name!r}")


# -------------------------------------------------------------------- run ---

@dataclass
class _Clock:
    """Wall-clock anchor advanced by the monotonic clock, so recorded
    timestamps order exactly as the scheduler did."""

    base_wall: datetime = field(default_factory=lambda: datetime.now(timezone.utc))
    base_mono: float = field(default_factory=time.monotonic)

    def now(self) -> tuple[str, float]:
        mono = time.monotonic()
        stamp = self.base_wall + timedelta(seconds=mono - self.base_mono)
        return stamp.isoformat(timespec="microseconds"), mono


def check_max_parallel(value: int, what: str = "max_parallel") -> None:
    if value < 1:
        raise ConfigError(f"{what} must be >= 1")


def run(
    spec: PipelineSpec,
    out_dir,
    max_parallel: int = 1,
    base_dir=None,
    runners: Mapping[str, Runner] | None = None,
    raise_on_failure: bool = True,
) -> RunManifest:
    """Execute the spec's DAG and write artifacts, logs, and the manifest.

    Relative input paths resolve against `base_dir` (default: current
    directory). `runners` swaps node implementations by kind, which tests use
    for timing stubs. A bad max_parallel or seed raises before any node
    starts. On a node failure every descendant is skipped, the
    manifest is still written, and NodeFailure (carrying the manifest) is
    raised unless raise_on_failure is false.
    """
    check_max_parallel(max_parallel)
    check_seed(spec.seed)
    out = Path(out_dir)
    (out / "artifacts").mkdir(parents=True, exist_ok=True)
    (out / "logs").mkdir(exist_ok=True)
    base = Path(base_dir) if base_dir is not None else Path.cwd()
    active_runners = dict(DEFAULT_RUNNERS)
    if runners:
        active_runners.update(runners)

    clock = _Clock()
    started_at = clock.base_wall.isoformat(timespec="microseconds")
    digest = spec_digest(spec)

    by_id = {n.id: n for n in spec.nodes}
    payloads: dict[str, Mapping[str, Any]] = {}
    records: dict[str, NodeRecord] = {}

    def finish(node: PipelineNode, lines: list[str], start=None, artifacts=None, error=None) -> NodeRecord:
        """Write the node's log and build its record: a node that never
        started was skipped, one that started failed when it has an error."""
        end = duration = None
        status = "skipped"
        if start is not None:
            end, end_mono = clock.now()
            duration = round(end_mono - start[1], 3)
            status = "succeeded" if error is None else "failed"
            lines.append(f"{end} done {node.id}" if error is None else f"{end} failed {node.id}\n{error}")
        (out / "logs" / f"{node.id}.log").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return NodeRecord(
            id=node.id,
            kind=node.kind.value,
            status=status,
            depends_on=node.depends_on,
            start=start[0] if start else None,
            end=end,
            duration_seconds=duration,
            artifacts=artifacts or {},
            error=error,
        )

    def worker(node: PipelineNode) -> NodeRecord:
        start = clock.now()
        lines = [f"{start[0]} start {node.id} ({node.kind.value})"]
        try:
            ctx = NodeContext(
                node=node,
                spec=spec,
                stream=derive_stream(spec.seed, node.id),
                base_dir=base,
                upstream=payloads,
                log=lines.append,
            )
            produced = active_runners[node.kind.value](ctx)
            artifacts = {}
            node_dir = out / "artifacts" / node.id
            node_dir.mkdir(parents=True, exist_ok=True)
            for name, payload in produced.items():
                filename = _ARTIFACT_FILES[name]
                data = _artifact_bytes(name, payload)
                (node_dir / filename).write_bytes(data)
                artifacts[name] = {
                    "file": f"artifacts/{node.id}/{filename}",
                    "sha256": sha256_hex(data),
                }
        except Exception:
            return finish(node, lines, start, error=traceback.format_exc())
        payloads[node.id] = produced  # read only by dependents, submitted after this returns
        return finish(node, lines, start, artifacts)

    graph = graphlib.TopologicalSorter(spec.dependencies)
    graph.prepare()
    with ThreadPoolExecutor(max_workers=max_parallel) as pool:
        running: set = set()
        while graph.is_active():
            for nid in sorted(graph.get_ready()):
                node = by_id[nid]
                bad = next((d for d in node.depends_on if records[d].status != "succeeded"), None)
                if bad is None:
                    running.add(pool.submit(worker, node))
                else:
                    reason = f"skipped: upstream {bad!r} did not succeed"
                    records[nid] = finish(node, [reason], error=reason)
                    graph.done(nid)
            done, running = wait(running, return_when=FIRST_COMPLETED)  # at once when empty
            for fut in done:
                rec = fut.result()
                records[rec.id] = rec
                graph.done(rec.id)

    finished_at, _ = clock.now()
    manifest = RunManifest(
        spec_hash=digest.hash,
        spec_canonical_bytes_len=digest.canonical_bytes_len,
        seed=spec.seed,
        engine_version=ENGINE_VERSION,
        max_parallel=max_parallel,
        started_at=started_at,
        finished_at=finished_at,
        node_records=tuple(records[nid] for nid in sorted(records)),
    )
    (out / "manifest.json").write_bytes(canonical_json_bytes(manifest.to_json_obj()))

    report_nodes = [n.id for n in spec.nodes if n.kind is NodeKind.REPORT]
    if report_nodes and records[report_nodes[0]].status == "succeeded":
        rid = report_nodes[0]
        (out / "report.json").write_bytes(
            (out / "artifacts" / rid / "report.json").read_bytes()
        )
        (out / "report.txt").write_bytes(
            (out / "artifacts" / rid / "report_text.txt").read_bytes()
        )

    if raise_on_failure:
        failed = [nid for nid in topological_order(spec) if records[nid].status == "failed"]
        if failed:
            raise NodeFailure(
                node_id=failed[0],
                cause=records[failed[0]].error or "unknown",
                manifest=manifest,
            )
    return manifest


# ------------------------------------------------------------ verification ---

@dataclass(frozen=True)
class VerificationCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[VerificationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_obj(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
        }


def verify_manifest(out_dir) -> VerificationReport:
    """Re-audit a finished run directory: artifact hashes, dependency-order
    timestamps, failure propagation, and artifact completeness. An artifact
    path that is absolute, holds `..` or resolves (through a symlink) outside
    the run directory fails the hash check unread; a manifest that does not
    parse raises ManifestInvalid."""
    out = Path(out_dir)
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        raise ManifestMissing(f"no manifest.json under {out}")
    manifest = manifest_from_json_obj(loads(manifest_path.read_bytes(), ManifestInvalid))
    checks: list[VerificationCheck] = []

    root = out.resolve()
    mismatches = []
    for rec in manifest.node_records:
        for name, info in rec.artifacts.items():
            rel = PurePosixPath(info["file"])
            path = out / rel
            try:  # as written, then through any symlink
                inside = (
                    not rel.is_absolute()
                    and ".." not in rel.parts
                    and path.resolve().is_relative_to(root)
                )
            except ValueError:  # a NUL in the path
                mismatches.append(f"{rec.id}/{name}: path is not a valid file name")
                continue
            if not inside:
                mismatches.append(f"{rec.id}/{name}: path leaves the run directory")
                continue
            if not path.is_file():
                mismatches.append(f"{rec.id}/{name}: file missing")
                continue
            actual = hashlib.sha256(path.read_bytes()).hexdigest()
            if actual != info["sha256"]:
                mismatches.append(f"{rec.id}/{name}: hash mismatch")
    checks.append(
        VerificationCheck(
            name="artifact_hashes",
            passed=not mismatches,
            detail="; ".join(mismatches) if mismatches else "all artifact hashes match",
        )
    )

    by_id = {r.id: r for r in manifest.node_records}
    order_violations = []
    for rec in manifest.node_records:
        if rec.status != "succeeded":
            continue
        for dep in rec.depends_on:
            up = by_id.get(dep)
            if up is None or up.end is None or rec.start is None:
                order_violations.append(f"{dep}->{rec.id}: missing timestamps")
                continue
            try:
                out_of_order = datetime.fromisoformat(up.end) > datetime.fromisoformat(rec.start)
            except (ValueError, TypeError):
                # a hand-edited manifest can hold naive or malformed stamps;
                # that is a verification failure, not a crash
                order_violations.append(f"{dep}->{rec.id}: unparseable or inconsistent timestamps")
                continue
            if out_of_order:
                order_violations.append(f"{dep}->{rec.id}: upstream ended after downstream started")
    checks.append(
        VerificationCheck(
            name="edge_ordering",
            passed=not order_violations,
            detail="; ".join(order_violations) if order_violations else "all edges ordered",
        )
    )

    propagation = []
    for rec in manifest.node_records:
        bad_dep = any(by_id[d].status != "succeeded" for d in rec.depends_on if d in by_id)
        if bad_dep and rec.status == "succeeded":
            propagation.append(f"{rec.id} succeeded despite a non-succeeded dependency")
    checks.append(
        VerificationCheck(
            name="failure_propagation",
            passed=not propagation,
            detail="; ".join(propagation) if propagation else "failures propagated to descendants",
        )
    )

    incomplete = []
    for rec in manifest.node_records:
        if rec.status != "succeeded":
            continue
        expected = set(NODE_ARTIFACTS[NodeKind(rec.kind)])
        if set(rec.artifacts) != expected:
            incomplete.append(f"{rec.id}: has {sorted(rec.artifacts)}, expected {sorted(expected)}")
    checks.append(
        VerificationCheck(
            name="artifacts_recorded",
            passed=not incomplete,
            detail="; ".join(incomplete) if incomplete else "all succeeded nodes recorded artifacts",
        )
    )
    return VerificationReport(checks=tuple(checks))
