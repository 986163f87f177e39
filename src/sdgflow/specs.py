"""Pipeline specification: strict JSON parsing, graph validation, canonical
hashing, topological ordering, and the data-flow audit.

A spec is the portable, hashable artifact a data owner reviews before running
anything. Parsing is strict: unknown fields anywhere are rejected so the hash
covers exactly what was reviewed.
"""

from __future__ import annotations

import graphlib
import heapq
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import partial
from typing import TYPE_CHECKING, Any, ClassVar, Mapping, Sequence

from .canonical import canonical_json_bytes, sha256_hex
from .errors import (
    ConfigError,
    CycleDetected,
    DanglingDependency,
    DuplicateNodeId,
    InvalidSpec,
    MissingReportNode,
    SchemaError,
    SpecSyntaxError,
    UnknownField,
)
from .evaluation.diagnostic import DIAGNOSTIC_METRICS
from .evaluation.privacy import (
    KEY_BASED_PRIVACY_METRICS,
    PRIVACY_METRICS,
    PrivacyConfig,
    check_privacy_config,
)
from .evaluation.results import check_metric_names, check_threshold_names
from .evaluation.utility import (
    DEFAULT_NULL_MODEL,
    DEFAULT_PERMUTATIONS,
    UTILITY_METRICS,
    check_null_model,
)
from .jsonfields import JsonChecks, loads, required_fields
from .rng import SEED_MAX
from .tabular import DEFAULT_MISSING_POLICY, MISSING_POLICIES, Schema, schema_from_json_obj

if TYPE_CHECKING:
    from .generators import GeneratorConfig

SPEC_VERSION = "1"


class NodeKind(str, Enum):
    LOAD = "load"
    PREPROCESS = "preprocess"
    GENERATE = "generate"
    EVALUATE_DIAGNOSTIC = "evaluate_diagnostic"
    EVALUATE_UTILITY = "evaluate_utility"
    EVALUATE_PRIVACY = "evaluate_privacy"
    REPORT = "report"


EVALUATE_KINDS = (
    NodeKind.EVALUATE_DIAGNOSTIC,
    NodeKind.EVALUATE_UTILITY,
    NodeKind.EVALUATE_PRIVACY,
)
DATASET_KINDS = (NodeKind.LOAD, NodeKind.PREPROCESS, NodeKind.GENERATE)

# artifact names each node kind produces
NODE_ARTIFACTS: dict[NodeKind, tuple[str, ...]] = {
    NodeKind.LOAD: ("dataset",),
    NodeKind.PREPROCESS: ("dataset",),
    NodeKind.GENERATE: ("dataset",),
    NodeKind.EVALUATE_DIAGNOSTIC: ("metrics",),
    NodeKind.EVALUATE_UTILITY: ("metrics",),
    NodeKind.EVALUATE_PRIVACY: ("metrics",),
    NodeKind.REPORT: ("report", "report_text"),
}


@dataclass(frozen=True)
class InputSource:
    path: str
    schema: str


# ----------------------------------------------------------- node params ---
# Parsing builds one frozen params class per node kind and runners read its
# fields. Each default is set here or imported from the module that owns it.


@dataclass(frozen=True)
class LoadParams:
    input: str
    missing_policy: str = DEFAULT_MISSING_POLICY


@dataclass(frozen=True)
class PreprocessParams:
    source: str
    drop_out_of_bounds: bool = False
    drop_duplicates: bool = False


@dataclass(frozen=True)
class GenerateParams:
    generator: GeneratorConfig  # from params mode, n_out and mode_params
    real: str | None = None
    schema: Schema | None = None


@dataclass(frozen=True)
class DiagnosticParams:
    real: str
    synthetic: str
    metrics: ClassVar[tuple[str, ...]] = DIAGNOSTIC_METRICS


@dataclass(frozen=True)
class UtilityParams:
    real: str
    synthetic: str
    metrics: tuple[str, ...] = UTILITY_METRICS
    null_model: str = DEFAULT_NULL_MODEL
    permutations: int = DEFAULT_PERMUTATIONS


@dataclass(frozen=True)
class PrivacyParams:
    real: str
    synthetic: str
    metrics: tuple[str, ...] = PRIVACY_METRICS
    privacy: PrivacyConfig = PrivacyConfig()  # from the params named as its fields


@dataclass(frozen=True)
class ReportParams:
    thresholds: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class PipelineNode:
    """`params` is the mapping as written in the document, which the spec
    digest covers; `config` holds it parsed into the kind's *Params class."""

    id: str
    kind: NodeKind
    params: Mapping[str, Any]
    depends_on: tuple[str, ...]
    config: Any = field(compare=False, repr=False)


@dataclass(frozen=True)
class PipelineSpec:
    version: str
    metadata: Mapping[str, str]
    inputs: Mapping[str, InputSource]
    seed: int
    nodes: tuple[PipelineNode, ...]
    outputs: tuple[tuple[str, str], ...]  # (node id, artifact name)

    def node(self, node_id: str) -> PipelineNode:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    @property
    def dependencies(self) -> dict[str, tuple[str, ...]]:
        return {n.id: n.depends_on for n in self.nodes}


@dataclass(frozen=True)
class SpecDigest:
    hash: str
    canonical_bytes_len: int


# ------------------------------------------------------------------ parsing ---

_check = JsonChecks(InvalidSpec, unknown=UnknownField)


def check_seed(value: Any, what: str = "seed") -> int:
    """The root seed rule, shared by documents, the CLI's --seed and `engine.run`."""
    if _check.integer(value, what) < 0 or value > SEED_MAX:
        raise InvalidSpec(f"{what} must be an unsigned 64-bit integer")
    return value


# the check of each param a kind takes, None where the parser of the owning
# module checks it; the class fields without a default name the required params
_PAIR = {"real": _check.string, "synthetic": _check.string}
_PARAMS = {
    NodeKind.LOAD: (LoadParams, {
        "input": _check.string, "missing_policy": partial(_check.choice, options=MISSING_POLICIES),
    }),
    NodeKind.PREPROCESS: (PreprocessParams, {
        "source": _check.string, "drop_out_of_bounds": _check.boolean, "drop_duplicates": _check.boolean,
    }),
    NodeKind.GENERATE: (GenerateParams, {
        "mode": None, "n_out": None, "mode_params": None, "real": _check.string, "schema": None,
    }),
    NodeKind.EVALUATE_DIAGNOSTIC: (DiagnosticParams, _PAIR),
    NodeKind.EVALUATE_UTILITY: (UtilityParams, {
        **_PAIR, "metrics": _check.strings, "null_model": _check.string, "permutations": _check.integer,
    }),
    NodeKind.EVALUATE_PRIVACY: (PrivacyParams, {
        **_PAIR, "metrics": _check.strings, "key_columns": partial(_check.strings, nonempty=False),
        "sensitive_column": _check.string, "numeric_match_tolerance": _check.number,
        "tcap_homogeneity": _check.number, "overlap_sample_fraction": _check.number,
    }),
    NodeKind.REPORT: (ReportParams, {"thresholds": _check.number_map}),
}


def _parse_params(kind: NodeKind, p: Mapping[str, Any], where: str) -> Any:
    """Check one node's params on their own and build its kind's params class.
    The owning modules raise ConfigError for their rules. What the params name
    elsewhere in the spec is checked by validate_spec."""
    cls, types = _PARAMS[kind]
    if kind is NodeKind.EVALUATE_PRIVACY and "proximity_row_cap" in p:
        raise InvalidSpec(
            f"{where}: proximity_row_cap was removed; min_nn_distance and "
            "new_row_synthesis are exact at every size"
        )
    _check.obj(p, where, types, required_fields(cls) & set(types))
    t: dict[str, Any] = {}
    for key, value in p.items():
        if types[key] is not None:
            types[key](value, f"{where}: {key}")
        # as written, not as checked: the typed params keep the document's values
        t[key] = tuple(value) if isinstance(value, list) else value

    if kind is NodeKind.GENERATE:
        from .generators import check_generate_inputs, check_schema, parse_generator_config  # avoids a cycle

        t["generator"] = parse_generator_config(
            {key: t.pop(key) for key in ("mode", "n_out", "mode_params") if key in t}
        )
        if "schema" in t:
            try:
                t["schema"] = schema_from_json_obj(t["schema"])
            except SchemaError as e:
                raise InvalidSpec(f"{where}: invalid inline schema: {e}") from None
        check_generate_inputs(t["generator"], "real" in t, "schema" in t)
        if "schema" in t:
            check_schema(t["generator"], t["schema"])
    if kind is NodeKind.EVALUATE_PRIVACY:
        given = [f.name for f in fields(PrivacyConfig) if f.name in t]
        t["privacy"] = PrivacyConfig(**{key: t.pop(key) for key in given})
    out = cls(**t)

    if kind is NodeKind.EVALUATE_UTILITY:
        check_metric_names(out.metrics, UTILITY_METRICS)
        check_null_model(out.null_model, out.permutations)
    if kind is NodeKind.EVALUATE_PRIVACY:
        check_metric_names(out.metrics, PRIVACY_METRICS)
        need_keys = not set(out.metrics).isdisjoint(KEY_BASED_PRIVACY_METRICS)
        check_privacy_config(out.privacy, need_keys)
    return out


def parse_spec(data: bytes | str) -> PipelineSpec:
    """Parse and fully validate a spec document (strict mode)."""
    return spec_from_json_obj(loads(data, SpecSyntaxError))


def load_spec(path) -> PipelineSpec:
    with open(path, "rb") as fh:
        return parse_spec(fh.read())


def spec_from_json_obj(doc: Any) -> PipelineSpec:
    _check.obj(
        doc,
        "spec",
        allowed={"version", "metadata", "inputs", "seed", "nodes", "outputs"},
        required={"version", "seed", "nodes"},
    )
    if doc["version"] != SPEC_VERSION:
        raise InvalidSpec(f"unsupported version {doc['version']!r}, expected {SPEC_VERSION!r}")
    metadata = {
        k: _check.string(v, f"metadata[{k!r}]")
        for k, v in _check.obj(doc.get("metadata", {}), "metadata").items()
    }
    seed = check_seed(doc["seed"])

    inputs: dict[str, InputSource] = {}
    for name, src in _check.obj(doc.get("inputs", {}), "inputs").items():
        where = f"inputs[{name!r}]"
        _check.obj(src, where, {"path", "schema"}, required={"path", "schema"})
        inputs[name] = InputSource(
            path=_check.string(src["path"], f"{where}: path"),
            schema=_check.string(src["schema"], f"{where}: schema"),
        )

    nodes_doc = _check.items(doc["nodes"], "nodes")
    if not nodes_doc:
        raise InvalidSpec("nodes must be a non-empty list")
    nodes: list[PipelineNode] = []
    seen_ids: set[str] = set()
    for i, nd in enumerate(nodes_doc):
        where = f"nodes[{i}]"
        _check.obj(nd, where, {"id", "kind", "params", "depends_on"}, required={"id", "kind"})
        nid = _check.string(nd["id"], f"{where}: id")
        if not nid:
            raise InvalidSpec(f"{where}: id must be a non-empty string")
        if nid in seen_ids:
            raise DuplicateNodeId(f"duplicate node id {nid!r}")
        seen_ids.add(nid)
        kind = NodeKind(_check.choice(nd["kind"], f"{where}: kind", [k.value for k in NodeKind]))
        params = _check.obj(nd.get("params", {}), f"{where}: params")
        deps = _check.strings(nd.get("depends_on", []), f"{where}: depends_on", nonempty=False)
        if len(set(deps)) != len(deps):
            raise InvalidSpec(f"{where}: depends_on has duplicates")
        try:
            config = _parse_params(kind, params, f"node {nid!r}")
        except ConfigError as e:
            raise InvalidSpec(f"node {nid!r}: {e}") from None
        nodes.append(PipelineNode(nid, kind, params, deps, config))

    outputs: list[tuple[str, str]] = []
    for i, ref in enumerate(_check.items(doc.get("outputs", []), "outputs")):
        where = f"outputs[{i}]"
        _check.obj(ref, where, {"node", "artifact"}, required={"node", "artifact"})
        node = _check.string(ref["node"], f"{where}: node")
        outputs.append((node, _check.string(ref["artifact"], f"{where}: artifact")))

    spec = PipelineSpec(
        version=doc["version"],
        metadata=metadata,
        inputs=inputs,
        seed=seed,
        nodes=tuple(nodes),
        outputs=tuple(outputs),
    )
    validate_spec(spec)
    return spec


def spec_to_json_obj(spec: PipelineSpec) -> dict:
    return {
        "version": spec.version,
        "metadata": dict(spec.metadata),
        "inputs": {
            name: {"path": src.path, "schema": src.schema} for name, src in spec.inputs.items()
        },
        "seed": spec.seed,
        "nodes": [
            {
                "id": n.id,
                "kind": n.kind.value,
                "params": _plain(n.params),
                "depends_on": list(n.depends_on),
            }
            for n in spec.nodes
        ],
        "outputs": [{"node": nid, "artifact": art} for nid, art in spec.outputs],
    }


def _plain(value):
    if isinstance(value, Mapping):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def serialize_spec(spec: PipelineSpec) -> bytes:
    """Canonical bytes; parse(serialize(spec)) == spec."""
    return canonical_json_bytes(spec_to_json_obj(spec))


def spec_digest(spec: PipelineSpec) -> SpecDigest:
    data = serialize_spec(spec)
    return SpecDigest(hash=sha256_hex(data), canonical_bytes_len=len(data))


# --------------------------------------------------------- graph validation ---

def dependents(spec: PipelineSpec) -> dict[str, list[str]]:
    """Each node's direct dependents, in document order."""
    out: dict[str, list[str]] = {n.id: [] for n in spec.nodes}
    for n in spec.nodes:
        for d in n.depends_on:
            out[d].append(n.id)
    return out


def toposort_ids(ids: Sequence[str], deps: Mapping[str, Sequence[str]]) -> list[str]:
    """Topological order taking the smallest ready id first.

    Raises CycleDetected with one cycle [a, b, ..., a] in data-flow order
    (dependency -> dependent) when the graph has one.
    """
    graph = graphlib.TopologicalSorter({nid: deps.get(nid, ()) for nid in ids})
    try:
        graph.prepare()
    except graphlib.CycleError as e:
        raise CycleDetected(e.args[1]) from None  # each node precedes the next
    ready = list(graph.get_ready())
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        order.append(heapq.heappop(ready))
        graph.done(order[-1])
        for nid in graph.get_ready():
            heapq.heappush(ready, nid)
    return order


def topological_order(spec: PipelineSpec) -> list[str]:
    return toposort_ids([n.id for n in spec.nodes], spec.dependencies)


def _first_reached(starts: Sequence[str], edges: Mapping[str, Sequence[str]]) -> dict[str, str | None]:
    """Breadth-first walk from `starts` along `edges`: each reached node maps
    to the node it was first reached from, None for a start."""
    prev: dict[str, str | None] = dict.fromkeys(starts)
    queue = list(prev)
    for nid in queue:  # the loop reads what it appends, in order
        for nxt in edges[nid]:
            if nxt not in prev:
                prev[nxt] = nid
                queue.append(nxt)
    return prev


def validate_spec(spec: PipelineSpec) -> None:
    """Graph checks, then what node params refer to; raises a SpecError subclass."""
    id_set = {n.id for n in spec.nodes}
    for n in spec.nodes:
        for d in n.depends_on:
            if d not in id_set:
                raise DanglingDependency(f"node {n.id!r} depends on unknown node {d!r}")
    topological_order(spec)  # raises CycleDetected

    reports = [n for n in spec.nodes if n.kind is NodeKind.REPORT]
    if len(reports) != 1:
        raise MissingReportNode(f"expected exactly one report node, found {len(reports)}")
    feeds_report = _first_reached([reports[0].id], spec.dependencies)
    for n in spec.nodes:
        if (n.kind in EVALUATE_KINDS or n.kind is NodeKind.GENERATE) and n.id not in feeds_report:
            raise InvalidSpec(f"node {n.id!r} ({n.kind.value}) has no path to the report node")

    for nid, art in spec.outputs:
        if nid not in id_set:
            raise DanglingDependency(f"outputs reference unknown node {nid!r}")
        node = spec.node(nid)
        if art not in NODE_ARTIFACTS[node.kind]:
            raise InvalidSpec(
                f"outputs: node {nid!r} ({node.kind.value}) produces no artifact {art!r}"
            )

    by_id = {n.id: n for n in spec.nodes}
    producer: dict[str, str] = {}
    for n in spec.nodes:
        for name in n.config.metrics if n.kind in EVALUATE_KINDS else ():
            if name in producer:
                raise InvalidSpec(
                    f"node {n.id!r}: metric {name!r} is also produced by node {producer[name]!r}"
                )
            producer[name] = n.id
    for n in spec.nodes:
        where = f"node {n.id!r}"
        for key in ("source", "real", "synthetic"):
            ref = getattr(n.config, key, None)
            if ref is not None and ref not in n.depends_on:
                raise InvalidSpec(f"{where}: params.{key}={ref!r} must be in depends_on")
            if ref is not None and by_id[ref].kind not in DATASET_KINDS:
                raise InvalidSpec(f"{where}: params.{key}={ref!r} does not produce a dataset")
        if n.kind is NodeKind.LOAD and n.config.input not in spec.inputs:
            raise InvalidSpec(f"{where}: unknown input {n.config.input!r}")
        if n.kind is NodeKind.REPORT:
            try:
                check_threshold_names(n.config.thresholds, producer)
            except ConfigError as e:
                raise InvalidSpec(f"{where}: {e}") from None


# ----------------------------------------------------------- data-flow audit ---

@dataclass(frozen=True)
class AuditViolation:
    output: tuple[str, str]
    path: tuple[str, ...]  # a shortest input -> output path


@dataclass(frozen=True)
class AuditReport:
    passed: bool
    violations: tuple[AuditViolation, ...]


def data_flow_audit(spec: PipelineSpec) -> AuditReport:
    """Check that only generate/evaluate/report products leave the owner domain.

    Raw inputs surface through load nodes; a preprocess product counts as raw
    whenever the preprocess node is reachable from a load node. One
    breadth-first walk from the load nodes, in document order, decides that
    and gives each violation its shortest input -> output path.
    """
    by_id = {n.id: n for n in spec.nodes}
    prev = _first_reached([n.id for n in spec.nodes if n.kind is NodeKind.LOAD], dependents(spec))
    violations: list[AuditViolation] = []
    for nid, art in spec.outputs:
        if by_id[nid].kind in (NodeKind.LOAD, NodeKind.PREPROCESS) and nid in prev:
            path = [nid]
            while prev[path[-1]] is not None:
                path.append(prev[path[-1]])  # type: ignore[arg-type]
            source = f"input:{by_id[path[-1]].config.input}"
            violations.append(AuditViolation(output=(nid, art), path=(source, *path[::-1], "outputs")))
    return AuditReport(passed=not violations, violations=tuple(violations))
