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
from dataclasses import asdict, dataclass, field
from datetime import datetime, timedelta, timezone
from functools import partial
from pathlib import Path, PurePosixPath
from typing import Any, Callable, Iterable, Iterator, Mapping

import numpy as np

from . import __version__
from .canonical import canonical_json_bytes
from .errors import (
    ConfigError,
    ManifestInvalid,
    ManifestMissing,
    NodeFailure,
)
from .evaluation.diagnostic import evaluate_diagnostic
from .evaluation.privacy import evaluate_privacy
from .evaluation.results import MetricResult
from .evaluation.utility import evaluate_utility
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
    SpecDigest,
    check_seed,
    dependents,
    spec_digest,
    topological_order,
)
from .tabular import (
    CSV_BLOCK_ROWS,
    ColumnKind,
    Dataset,
    dataset_to_csv_bytes,
    load_csv,
    read_schema,
    row_codes,
)

ENGINE_VERSION = __version__

__all__ = [
    "RunManifest",
    "run",
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
    artifacts: Mapping[str, Mapping[str, str]]  # name -> {"file", "sha256"}
    error: str | None = None

    def to_json_obj(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RunManifest:
    spec_digest: SpecDigest
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


_check = JsonChecks(ManifestInvalid)


def _artifact(value: Any, where: str) -> dict[str, str]:
    _check.obj(value, where, {"file", "sha256"}, required={"file", "sha256"})
    return {k: _check.string(v, f"{where}: {k}") for k, v in value.items()}


_RECORD_CHECKS = {
    "id": _check.string,
    "kind": partial(_check.choice, options=[k.value for k in NodeKind]),
    "status": partial(_check.choice, options=("succeeded", "failed", "skipped")),
    "depends_on": partial(_check.strings, nonempty=False),
    "start": _check.nullable(_check.string),
    "end": _check.nullable(_check.string),
    "duration_seconds": _check.nullable(_check.number),
    "artifacts": partial(_check.each_value, _artifact),
    "error": _check.nullable(_check.string),
}
_MANIFEST_CHECKS = {
    "spec_digest": partial(
        _check.build, SpecDigest, {"hash": _check.string, "canonical_bytes_len": _check.integer}
    ),
    "seed": _check.integer,
    "engine_version": _check.string,
    "max_parallel": _check.integer,
    "started_at": _check.string,
    "finished_at": _check.string,
    "node_records": partial(_check.each, partial(_check.build, NodeRecord, _RECORD_CHECKS)),
}


def manifest_from_json_obj(doc: Any) -> RunManifest:
    """Parse a manifest document; a missing, unknown or mistyped field raises
    ManifestInvalid."""
    return _check.build(RunManifest, _MANIFEST_CHECKS, doc, "manifest")


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
        return self.upstream[node_id]["dataset"]


Runner = Callable[[NodeContext], Mapping[str, Any]]


@dataclass(frozen=True)
class MetricsArtifact:
    """An evaluate node's payload: the report reads its metrics, and its
    `asdict` is the node's metrics.json."""

    node: str
    provenance: str
    metrics: tuple[MetricResult, ...]


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
        (codes,), _ = row_codes([ds])
        _, first = np.unique(codes, return_index=True)
        ds = ds.take(np.sort(first))
    ctx.log(f"preprocess kept {ds.n} of {before} rows")
    return {"dataset": ds}


def _run_generate(ctx: NodeContext) -> Mapping[str, Any]:
    cfg = ctx.node.config
    real = ctx.upstream_dataset(cfg.real) if cfg.real is not None else None
    ds = generate(cfg.generator, ctx.stream, real=real, schema=cfg.schema)
    ctx.log(f"generated {ds.n} rows in mode {cfg.generator.mode}")
    return {"dataset": ds}


def _run_evaluate(ctx: NodeContext) -> Mapping[str, Any]:
    cfg, kind = ctx.node.config, ctx.node.kind
    real, synth = ctx.upstream_dataset(cfg.real), ctx.upstream_dataset(cfg.synthetic)
    if kind is NodeKind.EVALUATE_UTILITY:
        results = evaluate_utility(real, synth, cfg.metrics, cfg.null_model, cfg.permutations, ctx.stream)
    elif kind is NodeKind.EVALUATE_PRIVACY:
        results = evaluate_privacy(real, synth, cfg.privacy, cfg.metrics, ctx.stream)
    else:
        results = evaluate_diagnostic(real, synth)
    provenance = kind.value.removeprefix("evaluate_")
    ctx.log(f"{provenance} metrics: {[m.name for m in results]}")
    return {"metrics": MetricsArtifact(ctx.node.id, provenance, tuple(results))}


def _run_report(ctx: NodeContext) -> Mapping[str, Any]:
    metrics = []
    for nid in topological_order(ctx.spec):
        if ctx.spec.node(nid).kind in EVALUATE_KINDS:
            metrics.extend(ctx.upstream[nid]["metrics"].metrics)
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
    NodeKind.EVALUATE_DIAGNOSTIC.value: _run_evaluate,
    NodeKind.EVALUATE_UTILITY.value: _run_evaluate,
    NodeKind.EVALUATE_PRIVACY.value: _run_evaluate,
    NodeKind.REPORT.value: _run_report,
}


# ------------------------------------------------------------ serialization ---

def _dataset_chunks(ds: Dataset) -> Iterator[bytes]:
    """The dataset's CSV, CSV_BLOCK_ROWS rows a chunk; the first chunk holds
    the header, so an empty dataset is one chunk."""
    for lo in range(0, max(ds.n, 1), CSV_BLOCK_ROWS):
        yield dataset_to_csv_bytes(ds, lo, lo + CSV_BLOCK_ROWS)


# artifact name -> (its path in the run directory, `{node}` standing for the
# node id; its serializer, which yields the artifact's bytes as a sequence of
# chunks). The serializers look their functions up when called, so a
# function replaced on this module is the one that runs.
_ARTIFACTS: dict[str, tuple[str, Callable[[Any], Iterable[bytes]]]] = {
    "dataset": ("artifacts/{node}/dataset.csv", lambda ds: _dataset_chunks(ds)),
    "metrics": ("artifacts/{node}/metrics.json", lambda doc: [canonical_json_bytes(asdict(doc))]),
    "report": ("report.json", lambda doc: [canonical_json_bytes(doc)]),
    "report_text": ("report.txt", lambda text: [text.encode("utf-8")]),
}


def _write(path: Path, chunks: Iterable[bytes]) -> str:
    """Write the chunks to `path` and return their SHA-256. They go to a
    `.part` file beside it, renamed into place once all are written and
    removed on failure, so no partial file ever has the artifact's name."""
    path.parent.mkdir(parents=True, exist_ok=True)
    part = path.with_name(path.name + ".part")
    digest = hashlib.sha256()
    try:
        with open(part, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
                digest.update(chunk)
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    return digest.hexdigest()


def _file_sha256(path: Path) -> str:
    """The SHA-256 of a file, read 1 MiB at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


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
) -> RunManifest:
    """Execute the spec's DAG and write artifacts, logs, and the manifest.

    Relative input paths resolve against `base_dir` (default: current
    directory). `runners` swaps node implementations by kind, which tests use
    for timing stubs. A bad max_parallel or seed raises before any node
    starts. On a node failure every descendant is skipped, the
    manifest is still written, and NodeFailure (carrying the manifest) is
    raised.
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
    # per node, how many of its direct dependents have not finished yet
    unfinished = {nid: len(ids) for nid, ids in dependents(spec).items()}

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
            for name, payload in produced.items():
                pattern, chunks = _ARTIFACTS[name]
                rel = pattern.format(node=node.id)
                artifacts[name] = {"file": rel, "sha256": _write(out / rel, chunks(payload))}
        except Exception:
            return finish(node, lines, start, error=traceback.format_exc())
        payloads[node.id] = produced  # read only by dependents, submitted after this returns
        return finish(node, lines, start, artifacts)

    def done(nid: str) -> None:
        """Mark nid finished and drop every dataset payload that no
        unfinished node reads: a dataset is read only by its node's direct
        dependents, while the report reads every evaluate node's metrics."""
        graph.done(nid)
        deps = by_id[nid].depends_on
        for d in deps:
            unfinished[d] -= 1
        for d in (nid, *deps):
            if not unfinished[d] and "dataset" in payloads.get(d, {}):
                payloads[d] = {k: v for k, v in payloads[d].items() if k != "dataset"}

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
                    done(nid)
            finished, running = wait(running, return_when=FIRST_COMPLETED)  # at once when empty
            for fut in finished:
                rec = fut.result()
                records[rec.id] = rec
                done(rec.id)

    finished_at, _ = clock.now()
    manifest = RunManifest(
        spec_digest=digest,
        seed=spec.seed,
        engine_version=ENGINE_VERSION,
        max_parallel=max_parallel,
        started_at=started_at,
        finished_at=finished_at,
        node_records=tuple(records[nid] for nid in sorted(records)),
    )
    _write(out / "manifest.json", [canonical_json_bytes(asdict(manifest))])

    failed = [records[nid] for nid in topological_order(spec) if records[nid].status == "failed"]
    if failed:
        raise NodeFailure(node_id=failed[0].id, cause=failed[0].error, manifest=manifest)
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


def verify_manifest(out_dir) -> VerificationReport:
    """Re-audit a finished run directory: artifact hashes, dependency-order
    timestamps, failure propagation, and artifact completeness, which also
    fails on a file under artifacts/ that no node record claims. An artifact
    path that is absolute, holds `..` or resolves (through a symlink) outside
    the run directory fails the hash check unread; a manifest that does not
    parse raises ManifestInvalid."""
    out = Path(out_dir)
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        raise ManifestMissing(f"no manifest.json under {out}")
    manifest = manifest_from_json_obj(loads(manifest_path.read_bytes(), ManifestInvalid))

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
            if _file_sha256(path) != info["sha256"]:
                mismatches.append(f"{rec.id}/{name}: hash mismatch")

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

    propagation = []
    for rec in manifest.node_records:
        bad_dep = any(by_id[d].status != "succeeded" for d in rec.depends_on if d in by_id)
        if bad_dep and rec.status == "succeeded":
            propagation.append(f"{rec.id} succeeded despite a non-succeeded dependency")

    incomplete = []
    for rec in manifest.node_records:
        if rec.status != "succeeded":
            continue
        expected = set(NODE_ARTIFACTS[NodeKind(rec.kind)])
        if set(rec.artifacts) != expected:
            incomplete.append(f"{rec.id}: has {sorted(rec.artifacts)}, expected {sorted(expected)}")
    # a file under artifacts/ that no record claims: another run's, or a crash's
    claimed = {
        PurePosixPath(info["file"]) for rec in manifest.node_records for info in rec.artifacts.values()
    }
    for path in sorted((out / "artifacts").rglob("*")):
        rel = PurePosixPath(path.relative_to(out).as_posix())
        if (path.is_symlink() or not path.is_dir()) and rel not in claimed:
            incomplete.append(f"{rel}: no node record claims it")

    checks = (  # name, findings, detail when there are none
        ("artifact_hashes", mismatches, "all artifact hashes match"),
        ("edge_ordering", order_violations, "all edges ordered"),
        ("failure_propagation", propagation, "failures propagated to descendants"),
        ("artifacts_recorded", incomplete, "all succeeded nodes recorded artifacts"),
    )
    return VerificationReport(tuple(
        VerificationCheck(name, not findings, "; ".join(findings) or clean)
        for name, findings, clean in checks
    ))
