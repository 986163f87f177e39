"""Pipeline specification: strict JSON parsing, graph validation, canonical
hashing, topological ordering, and the data-flow audit.

A spec is the portable, hashable artifact a data owner reviews before running
anything. Parsing is strict: unknown fields anywhere are rejected so the hash
covers exactly what was reviewed.
"""

from __future__ import annotations

import graphlib
import heapq
import importlib
from dataclasses import dataclass, field, replace
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
    PROXIMITY_METRICS,
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
from .jsonfields import JsonChecks, loads
from .rng import check_seed
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
    config: Any = field(compare=False, repr=False)
    params: Mapping[str, Any] = field(default_factory=dict)
    depends_on: tuple[str, ...] = ()


@dataclass(frozen=True)
class PipelineSpec:
    version: str
    seed: int
    nodes: tuple[PipelineNode, ...]
    metadata: Mapping[str, str] = field(default_factory=dict)
    inputs: Mapping[str, InputSource] = field(default_factory=dict)
    outputs: tuple[tuple[str, str], ...] = ()  # (node id, artifact name)

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


def _inline_schema(value: Any, what: str) -> Schema:
    try:
        return schema_from_json_obj(value)
    except SchemaError as e:
        raise InvalidSpec(f"{what}: {e}") from None


# the check of each param a kind takes, None where the generator or privacy
# config the kind holds reads it; the class fields name the defaults
_PAIR = {"real": _check.string, "synthetic": _check.string}
_GENERATOR_KEYS = ("mode", "n_out", "mode_params")
_PRIVACY_CHECKS = {
    "key_columns": partial(_check.strings, nonempty=False),
    "sensitive_column": _check.string,
    "numeric_match_tolerance": _check.number,
    "tcap_homogeneity": _check.number,
    "overlap_sample_fraction": _check.number,
}
_PARAMS = {
    NodeKind.LOAD: (LoadParams, {
        "input": _check.string, "missing_policy": partial(_check.choice, options=MISSING_POLICIES),
    }),
    NodeKind.PREPROCESS: (PreprocessParams, {
        "source": _check.string, "drop_out_of_bounds": _check.boolean, "drop_duplicates": _check.boolean,
    }),
    NodeKind.GENERATE: (GenerateParams, {
        **dict.fromkeys(_GENERATOR_KEYS), "real": _check.string, "schema": _inline_schema,
    }),
    NodeKind.EVALUATE_DIAGNOSTIC: (DiagnosticParams, _PAIR),
    NodeKind.EVALUATE_UTILITY: (UtilityParams, {
        **_PAIR, "metrics": _check.strings, "null_model": _check.string, "permutations": _check.integer,
    }),
    NodeKind.EVALUATE_PRIVACY: (PrivacyParams, {
        **_PAIR, "metrics": _check.strings, **dict.fromkeys(_PRIVACY_CHECKS),
    }),
    NodeKind.REPORT: (ReportParams, {"thresholds": _check.number_map}),
}


def _parse_params(kind: NodeKind, p: Mapping[str, Any], where: str) -> Any:
    """Check one node's params on their own and build its kind's params class.
    The owning modules raise ConfigError for their rules. What the params name
    elsewhere in the spec is checked by validate_spec."""
    cls, checks = _PARAMS[kind]
    if kind is NodeKind.EVALUATE_PRIVACY and "proximity_row_cap" in p:
        raise InvalidSpec(
            f"{where}: proximity_row_cap was removed; min_nn_distance and "
            "new_row_synthesis are exact at every size"
        )
    _check.obj(p, where, checks)  # an unknown key before any value the configs below read
    given = {}
    if kind is NodeKind.GENERATE:
        from .generators import check_generate_inputs, check_schema, parse_generator_config  # avoids a cycle

        given["generator"] = parse_generator_config({k: p[k] for k in _GENERATOR_KEYS if k in p})
    if kind is NodeKind.EVALUATE_PRIVACY:
        privacy = {k: v for k, v in p.items() if k in _PRIVACY_CHECKS}
        given["privacy"] = _check.build(PrivacyConfig, _PRIVACY_CHECKS, privacy, where)
    out = _check.build(cls, checks, p, where, **given)

    if kind is NodeKind.GENERATE:
        check_generate_inputs(out.generator, out.real is not None, out.schema is not None)
        if out.schema is not None:
            check_schema(out.generator, out.schema)
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


def _version(value: Any, what: str) -> str:
    if value != SPEC_VERSION:
        raise InvalidSpec(f"{what} must be {SPEC_VERSION!r}; version {value!r} is unsupported")
    return value


def _node_id(value: Any, what: str) -> str:
    """A non-empty id that is one safe path component: the engine names the
    node's artifact directory and log file after it, and its random stream
    joins ids with "/"."""
    nid = _check.string(value, what)
    if not nid or nid in (".", "..") or "/" in nid or "\0" in nid:
        raise InvalidSpec(
            f"{what} must be a non-empty string without '/' or NUL, and not '.' or '..'"
        )
    return nid


def _depends_on(value: Any, what: str) -> tuple[str, ...]:
    deps = _check.strings(value, what, nonempty=False)
    if len(set(deps)) != len(deps):
        raise InvalidSpec(f"{what} has duplicates")
    return deps


_NODE_CHECKS = {
    "id": _node_id,
    "kind": lambda value, what: NodeKind(_check.choice(value, what, [k.value for k in NodeKind])),
    "params": _check.obj,
    "depends_on": _depends_on,
}


def _nodes(value: Any, what: str) -> tuple[PipelineNode, ...]:
    if not _check.items(value, what):
        raise InvalidSpec(f"{what} must be a non-empty list")
    nodes: dict[str, PipelineNode] = {}
    for i, nd in enumerate(value):
        node = _check.build(PipelineNode, _NODE_CHECKS, nd, f"{what}[{i}]", config=None)
        if node.id in nodes:
            raise DuplicateNodeId(f"duplicate node id {node.id!r}")
        try:
            config = _parse_params(node.kind, node.params, f"node {node.id!r}")
        except ConfigError as e:
            raise InvalidSpec(f"node {node.id!r}: {e}") from None
        nodes[node.id] = replace(node, config=config)
    return tuple(nodes.values())


def _output(value: Any, what: str) -> tuple[str, str]:
    _check.obj(value, what, {"node", "artifact"}, required={"node", "artifact"})
    return tuple(_check.string(value[k], f"{what}: {k}") for k in ("node", "artifact"))


_INPUT_CHECKS = {"path": _check.string, "schema": _check.string}
_SPEC_CHECKS = {
    "version": _version,
    "seed": check_seed,
    "nodes": _nodes,
    "metadata": partial(_check.each_value, _check.string),
    "inputs": partial(_check.each_value, partial(_check.build, InputSource, _INPUT_CHECKS)),
    "outputs": partial(_check.each, _output),
}


def spec_from_json_obj(doc: Any) -> PipelineSpec:
    spec = _check.build(PipelineSpec, _SPEC_CHECKS, doc, "spec")
    validate_spec(spec)
    _import_scipy(spec)
    return spec


def _import_scipy(spec: PipelineSpec) -> None:
    """Import scipy.spatial when a privacy node selects a proximity metric,
    whose k-d tree it builds; no other kernel calls scipy. No module imports
    scipy at load, because it costs more than the rest of the package; the
    kernel imports it on first call. Importing it here puts that cost in
    parse, not in the run, and only for a document that needs it."""
    if any(
        n.kind is NodeKind.EVALUATE_PRIVACY and not set(n.config.metrics).isdisjoint(PROXIMITY_METRICS)
        for n in spec.nodes
    ):
        importlib.import_module("scipy.spatial")


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
