"""Pipeline spec parsing, validation, ordering, digests, and the data-flow audit."""
import hashlib
import heapq
import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgflow.errors import (
    CycleDetected,
    DanglingDependency,
    DuplicateNodeId,
    InvalidSpec,
    MissingReportNode,
    SpecError,
    SpecSyntaxError,
    UnknownField,
)
from sdgflow.evaluation.utility import UTILITY_METRICS
from sdgflow.evaluation.privacy import PrivacyConfig
from sdgflow.specs import (
    data_flow_audit,
    load_spec,
    parse_spec,
    serialize_spec,
    spec_digest,
    topological_order,
    toposort_ids,
    validate_spec,
)

SAMPLE = Path(__file__).resolve().parent.parent / "sample" / "pipeline.json"

# Digest of the bundled example spec, frozen at first release. Recomputed
# below with an inline canonicalizer so the constant is cross-checked, not
# self-fulfilling.
SAMPLE_DIGEST = "5fe0e5313e97da285b40b530033edf705350f6da1848add665afe0e2211804c7"
SAMPLE_CANONICAL_LEN = 1408


def minimal_doc(**overrides):
    doc = {
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
    doc.update(overrides)
    return doc


def parse(doc):
    return parse_spec(json.dumps(doc))


# ----------------------------------------------------------------- parsing ---

def test_minimal_spec_parses_and_validates():
    spec = parse(minimal_doc())
    validate_spec(spec)
    assert spec.seed == 5
    assert [n.id for n in spec.nodes] == ["load", "gen", "rep"]
    assert spec.node("gen").depends_on == ("load",)


def test_syntax_error_carries_position():
    with pytest.raises(SpecSyntaxError) as exc:
        parse_spec('{"version": "1",\n  "seed": }')
    assert "line 2" in str(exc.value)


def test_non_utf8_rejected():
    with pytest.raises(SpecSyntaxError):
        parse_spec(b"\xff\xfe{}")


def test_unknown_top_level_key():
    with pytest.raises(UnknownField):
        parse(minimal_doc(extra_knob=1))


def test_unknown_node_key():
    doc = minimal_doc()
    doc["nodes"][0]["retries"] = 3
    with pytest.raises(UnknownField):
        parse(doc)


def test_missing_required_keys():
    for key in ("version", "seed", "nodes"):
        doc = minimal_doc()
        del doc[key]
        with pytest.raises(InvalidSpec):
            parse(doc)


def test_duplicate_node_id():
    doc = minimal_doc()
    doc["nodes"].append(dict(doc["nodes"][0]))
    with pytest.raises(DuplicateNodeId):
        parse(doc)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 5000])
def test_number_beyond_a_double_is_a_syntax_error(literal):
    # a threshold takes any number, so only the parser can stop this value
    text = SAMPLE.read_text().replace('"univariate_fidelity": 0.6', f'"univariate_fidelity": {literal}')
    assert literal in text
    with pytest.raises(SpecSyntaxError, match="not a finite double"):
        parse_spec(text)


def test_deeply_nested_document_is_a_syntax_error():
    with pytest.raises(SpecSyntaxError, match="nesting too deep"):
        parse_spec("[" * 100_000)


def test_sample_params_parse_into_typed_objects():
    spec = load_spec(SAMPLE)
    quality = spec.node("quality").config
    assert (quality.null_model, quality.permutations, quality.metrics) == (
        "permutation", 30, UTILITY_METRICS
    )
    assert spec.node("privacy").config.privacy == PrivacyConfig(
        key_columns=("region", "employment"),
        sensitive_column="education",
        overlap_sample_fraction=0.5,
    )
    assert spec.node("generate").config.generator.mode_params.correlation_shrinkage == 0.05
    assert spec.node("load").config.input == "census"


def sample_with(node_id, key, value):
    doc = json.loads(SAMPLE.read_text())
    next(n for n in doc["nodes"] if n["id"] == node_id)["params"][key] = value
    return doc


@pytest.mark.parametrize(
    "node_id, key, value",
    [
        ("quality", "metrics", [["pmse_observed"]]),
        ("privacy", "metrics", [{}]),
        ("load", "input", []),
        ("privacy", "key_columns", ["region", "education"]),  # holds the sensitive column
        ("privacy", "key_columns", ["region", "region"]),
    ],
    ids=["unhashable-utility-metric", "unhashable-privacy-metric", "unhashable-input",
         "sensitive-in-keys", "duplicate-keys"],
)
def test_bad_param_value_is_invalid_spec(node_id, key, value):
    with pytest.raises(InvalidSpec, match=f"node '{node_id}'"):
        parse(sample_with(node_id, key, value))


def test_removed_proximity_row_cap_is_invalid_spec():
    with pytest.raises(InvalidSpec, match="proximity_row_cap was removed"):
        parse(sample_with("privacy", "proximity_row_cap", 5000))


def test_seed_must_be_u64():
    with pytest.raises(InvalidSpec):
        parse(minimal_doc(seed=-1))
    with pytest.raises(InvalidSpec):
        parse(minimal_doc(seed=2**64))
    with pytest.raises(InvalidSpec):
        parse(minimal_doc(seed=True))
    parse(minimal_doc(seed=2**64 - 1))  # top of the range is fine


# ------------------------------------------------------------------- cycles ---

def test_toposort_cycle_path_in_flow_order():
    # dependency map: a needs c, b needs a, c needs b -> flow a->b->c->a
    with pytest.raises(CycleDetected) as exc:
        toposort_ids(["a", "b", "c"], {"a": ["c"], "b": ["a"], "c": ["b"]})
    assert exc.value.path == ["a", "b", "c", "a"]


def test_toposort_no_cycle_on_dag():
    assert toposort_ids(["a", "b"], {"b": ["a"]}) == ["a", "b"]


def test_toposort_cycle_path_leaves_out_the_node_that_waits_on_it():
    # x is listed first and only depends on the cycle a <-> b
    with pytest.raises(CycleDetected) as exc:
        toposort_ids(["x", "a", "b"], {"x": ["a"], "a": ["b"], "b": ["a"]})
    assert exc.value.path == ["a", "b", "a"]


def test_self_dependency():
    doc = minimal_doc()
    doc["nodes"][1]["depends_on"] = ["load", "gen"]
    with pytest.raises(CycleDetected) as exc:
        validate_spec(parse(doc))
    assert exc.value.path == ["gen", "gen"]


def test_cycle_detected_in_validation():
    doc = minimal_doc()
    doc["nodes"][0]["depends_on"] = ["rep"]
    with pytest.raises(CycleDetected) as exc:
        validate_spec(parse(doc))
    p = exc.value.path
    assert p[0] == p[-1] and len(p) == 4 and set(p) == {"load", "gen", "rep"}


def test_dangling_dependency():
    doc = minimal_doc()
    doc["nodes"][1]["depends_on"] = ["load", "ghost"]
    with pytest.raises(DanglingDependency):
        validate_spec(parse(doc))


def test_dangling_dependency_reported_before_a_self_dependency():
    doc = minimal_doc()
    doc["nodes"][1]["depends_on"] = ["load", "gen"]
    doc["nodes"][2]["depends_on"] = ["gen", "ghost"]
    with pytest.raises(DanglingDependency, match="ghost"):
        parse(doc)


def test_exactly_one_report_required():
    doc = minimal_doc()
    doc["nodes"] = doc["nodes"][:2]
    doc["outputs"] = []
    with pytest.raises(MissingReportNode):
        validate_spec(parse(doc))
    doc = minimal_doc()
    doc["nodes"].append({"id": "rep2", "kind": "report", "depends_on": ["gen"], "params": {}})
    with pytest.raises(MissingReportNode):
        validate_spec(parse(doc))


def test_generate_must_feed_report():
    doc = minimal_doc()
    doc["nodes"].append(
        {
            "id": "gen2",
            "kind": "generate",
            "depends_on": ["load"],
            "params": {"mode": "rsd", "n_out": 5, "real": "load", "mode_params": {}},
        }
    )
    with pytest.raises(InvalidSpec, match="gen2"):
        validate_spec(parse(doc))


def test_output_artifact_names_checked():
    doc = minimal_doc(outputs=[{"node": "gen", "artifact": "metrics"}])
    with pytest.raises(InvalidSpec):
        validate_spec(parse(doc))


# ----------------------------------------------------------------- ordering ---

def test_toposort_chain():
    assert toposort_ids(["c", "a", "b"], {"b": ["a"], "c": ["b"]}) == ["a", "b", "c"]


def test_toposort_diamond_lexicographic_ties():
    deps = {"b": ["a"], "c": ["a"], "d": ["b", "c"]}
    assert toposort_ids(["d", "c", "b", "a"], deps) == ["a", "b", "c", "d"]


def test_toposort_raises_on_cycle():
    with pytest.raises(CycleDetected):
        toposort_ids(["a", "b"], {"a": ["b"], "b": ["a"]})


def kahn_toposort(ids, deps):
    """Oracle for toposort_ids: Kahn's algorithm taking the smallest ready id
    first. When nodes are left over, every one of them waits on a left-over
    dependency, so walking from the first through those dependencies repeats
    a node; the walk from that node back to itself, reversed, is the cycle in
    data-flow order."""
    indeg = {nid: len(deps.get(nid, ())) for nid in ids}
    children = {nid: [] for nid in ids}
    for nid in ids:
        for d in deps.get(nid, ()):
            children[d].append(nid)
    ready = [nid for nid in ids if indeg[nid] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for child in children[nid]:
            indeg[child] -= 1
            if indeg[child] == 0:
                heapq.heappush(ready, child)
    if len(order) != len(ids):
        left = set(ids) - set(order)
        step = {}  # node -> its position in the walk
        nid = next(n for n in ids if n in left)
        while nid not in step:
            step[nid] = len(step)
            nid = next(d for d in deps[nid] if d in left)
        cycle = [n for n in step if step[n] >= step[nid]] + [nid]
        raise CycleDetected(cycle[::-1])
    return order


@st.composite
def dependency_graphs(draw, acyclic):
    """(ids as presented, deps): acyclic graphs only draw dependencies among
    the ids drawn before, so the id order is one topological order."""
    ids = draw(st.lists(st.text("abcdef", min_size=1, max_size=2), min_size=1, max_size=12, unique=True))
    deps = {}
    for j, nid in enumerate(ids):
        pool = ids[:j] if acyclic else ids
        deps[nid] = draw(st.lists(st.sampled_from(pool), unique=True, max_size=3)) if pool else []
    return draw(st.permutations(ids)), deps


@settings(max_examples=300, deadline=None)
@given(graph=dependency_graphs(acyclic=True))
def test_toposort_matches_kahn_oracle_on_dags(graph):
    ids, deps = graph
    assert toposort_ids(ids, deps) == kahn_toposort(ids, deps)


@settings(max_examples=300, deadline=None)
@given(graph=dependency_graphs(acyclic=False))
def test_toposort_reports_a_flow_order_cycle_when_kahn_does(graph):
    ids, deps = graph
    try:
        expected = kahn_toposort(ids, deps)
    except CycleDetected:
        with pytest.raises(CycleDetected) as exc:
            toposort_ids(ids, deps)
        path = exc.value.path
        assert len(path) >= 2 and path[0] == path[-1]
        assert all(up in deps[down] for up, down in zip(path, path[1:]))  # each step is an edge
    else:
        assert toposort_ids(ids, deps) == expected


def test_topological_order_edge_forward():
    spec = parse(minimal_doc())
    order = topological_order(spec)
    pos = {nid: i for i, nid in enumerate(order)}
    for node in spec.nodes:
        for dep in node.depends_on:
            assert pos[dep] < pos[node.id]


# ------------------------------------------------------------------ digests ---

def test_parse_serialize_identity():
    spec = parse(minimal_doc())
    assert parse_spec(serialize_spec(spec)) == spec


def test_digest_ignores_key_order_and_whitespace():
    doc = minimal_doc()
    a = parse_spec(json.dumps(doc, indent=4))
    shuffled = json.dumps(doc, sort_keys=True)
    b = parse_spec(shuffled)
    assert spec_digest(a) == spec_digest(b)


def test_digest_changes_with_content():
    a = spec_digest(parse(minimal_doc()))
    b = spec_digest(parse(minimal_doc(seed=6)))
    assert a.hash != b.hash


def test_bundled_example_digest_frozen():
    spec = load_spec(SAMPLE)
    d = spec_digest(spec)
    assert d.hash == SAMPLE_DIGEST
    assert d.canonical_bytes_len == SAMPLE_CANONICAL_LEN


def test_bundled_example_digest_independent_recomputation():
    # Inline canonicalizer: fill structural defaults, then hash the
    # sorted-key compact JSON. Must agree with the library digest.
    doc = json.loads(SAMPLE.read_text())
    doc.setdefault("metadata", {})
    doc.setdefault("inputs", {})
    doc.setdefault("outputs", [])
    for node in doc["nodes"]:
        node.setdefault("params", {})
        node.setdefault("depends_on", [])
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode()
    assert hashlib.sha256(blob).hexdigest() == SAMPLE_DIGEST
    assert len(blob) == SAMPLE_CANONICAL_LEN


def test_bundled_example_validates():
    spec = load_spec(SAMPLE)
    validate_spec(spec)
    assert data_flow_audit(spec).passed


# -------------------------------------------------------------------- audit ---

def test_audit_flags_raw_export():
    doc = minimal_doc(
        outputs=[{"node": "load", "artifact": "dataset"}, {"node": "gen", "artifact": "dataset"}]
    )
    rep = data_flow_audit(parse(doc))
    assert not rep.passed
    assert [(v.output, v.path) for v in rep.violations] == [
        (("load", "dataset"), ("input:census", "load", "outputs"))
    ]


def test_audit_flags_preprocess_reachable_from_input():
    doc = minimal_doc()
    doc["nodes"].insert(
        1,
        {
            "id": "clean",
            "kind": "preprocess",
            "depends_on": ["load"],
            "params": {"source": "load", "drop_duplicates": True},
        },
    )
    doc["nodes"][2]["params"]["real"] = "clean"
    doc["nodes"][2]["depends_on"] = ["clean"]
    doc["outputs"] = [{"node": "clean", "artifact": "dataset"}]
    rep = data_flow_audit(parse(doc))
    assert not rep.passed
    assert rep.violations[0].output == ("clean", "dataset")
    assert rep.violations[0].path[0] == "input:census"


def test_audit_passes_on_synthetic_exports():
    rep = data_flow_audit(parse(minimal_doc()))
    assert rep.passed and rep.violations == ()


def test_audit_path_is_a_shortest_input_to_output_path():
    doc = minimal_doc()
    doc["nodes"][1:1] = [
        {"id": "long1", "kind": "preprocess", "depends_on": ["load"], "params": {"source": "load"}},
        {"id": "long2", "kind": "preprocess", "depends_on": ["long1"], "params": {"source": "long1"}},
        {"id": "join", "kind": "preprocess", "depends_on": ["long2", "short"], "params": {"source": "long2"}},
        {"id": "short", "kind": "preprocess", "depends_on": ["load"], "params": {"source": "load"}},
    ]
    doc["outputs"] = [{"node": "join", "artifact": "dataset"}]
    rep = data_flow_audit(parse(doc))
    assert [v.path for v in rep.violations] == [("input:census", "load", "short", "join", "outputs")]


def diamond_lattice_doc(diamonds):
    """load, then a chain of diamonds of 3 preprocess nodes each (two
    branches and their join), feeding the generate node: 2**diamonds simple
    paths from the input to the generate node."""
    doc = minimal_doc()
    lattice, prev = [], "load"
    for i in range(diamonds):
        left, right, join = f"l{i}", f"r{i}", f"j{i}"
        lattice += [
            {"id": left, "kind": "preprocess", "depends_on": [prev], "params": {"source": prev}},
            {"id": right, "kind": "preprocess", "depends_on": [prev], "params": {"source": prev}},
            {"id": join, "kind": "preprocess", "depends_on": [left, right], "params": {"source": left}},
        ]
        prev = join
    doc["nodes"][1:1] = lattice
    gen = next(n for n in doc["nodes"] if n["id"] == "gen")
    gen["depends_on"] = [prev]
    gen["params"]["real"] = prev
    # outputs leave out the report and the lattice's end, so no path count can stop a walk early
    doc["outputs"] = [{"node": "l0", "artifact": "dataset"}]
    return doc


def test_audit_on_a_diamond_lattice_is_not_exponential():
    text = json.dumps(diamond_lattice_doc(20))
    parse(minimal_doc())  # imports the generators module outside the timed part
    start = time.perf_counter()
    rep = data_flow_audit(parse_spec(text))
    elapsed = time.perf_counter() - start
    assert [v.path for v in rep.violations] == [("input:census", "load", "l0", "outputs")]
    assert elapsed < 1.0, f"parse plus audit of 63 nodes took {elapsed:.2f} s"


def test_audit_monotone_under_added_edge():
    # adding an output can only add violations, never remove them
    doc = minimal_doc()
    before = data_flow_audit(parse(doc))
    doc["outputs"].append({"node": "load", "artifact": "dataset"})
    after = data_flow_audit(parse(doc))
    assert set(v.output for v in before.violations) <= set(v.output for v in after.violations)
    assert not after.passed


# -------------------------------------------------------------------- fuzz ---

_SAMPLE_PARAMS = [
    (node["id"], key) for node in json.loads(SAMPLE.read_text())["nodes"] for key in node["params"]
]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(target=st.sampled_from(_SAMPLE_PARAMS), value=_JSON)
def test_parse_spec_fuzzed_param_value(target, value):
    text = json.dumps(sample_with(*target, value))  # NaN and Infinity as JSON literals
    try:
        spec = parse_spec(text)
    except SpecError:
        return
    digest = spec_digest(spec)
    assert spec_digest(parse_spec(serialize_spec(spec))) == digest


# a valid generate node for each mode, with an inline schema; the nested fuzz
# below replaces one value inside mode_params or schema
_INLINE_SCHEMA = {
    "columns": [
        {"name": "x", "kind": "continuous", "bounds": [0.0, 10.0]},
        {"name": "y", "kind": "continuous"},
        {"name": "c", "kind": "categorical", "categories": ["p", "q"]},
    ]
}
_ASD_PARAMS = {
    "column_models": {
        "x": {"distribution": "quantile_table", "quantiles": [0.0, 0.5, 1.0], "values": [0, 2, 10]},
        "c": {"labels": ["p", "q"], "weights": [1, 2]},
    },
    "rules": [
        {"kind": "range_constraint", "column": "x", "min": 0, "max": 9},
        {"kind": "implication", "if_column": "c", "if_category": "p", "then_column": "c",
         "then_categories": ["p"]},
        {"kind": "derivation", "target": "y", "sources": {"x": 2.0}, "constant": 1},
    ],
    "max_attempts_per_row": 50,
}
_CSD_PARAMS = {
    "causal_dag": [{"from": "x", "to": "y"}],
    "weights": [0.5],
    "noise": {"x": {"distribution": "normal", "std": 1.0}, "y": {"distribution": "uniform", "half_width": 2}},
    "intercepts": {"y": 1.0},
}
_GENERATE_PARAMS = {
    "rsd": {"mode": "rsd", "n_out": 40, "real": "clean", "mode_params": {"correlation_shrinkage": 0.1}},
    "asd": {"mode": "asd", "n_out": 40, "mode_params": _ASD_PARAMS},
    "csd": {"mode": "csd", "n_out": 40, "mode_params": _CSD_PARAMS},
    "hsd": {
        "mode": "hsd",
        "n_out": 40,
        "mode_params": {
            "partition": [["x", "y"], ["c"]],
            "sub_configs": [
                {"mode": "csd", "n_out": 40, "mode_params": _CSD_PARAMS},
                {"mode": "asd", "n_out": 40, "mode_params": {"column_models": {"c": _ASD_PARAMS["column_models"]["c"]}}},
            ],
            "post_rules": [{"kind": "range_constraint", "column": "x", "min": -5, "max": 5}],
        },
    },
}


# csd generates continuous columns only
_MODE_SCHEMA = {mode: _INLINE_SCHEMA for mode in _GENERATE_PARAMS}
_MODE_SCHEMA["csd"] = {"columns": _INLINE_SCHEMA["columns"][:2]}


def sample_generating(mode, path=None, value=None):
    """The sample document with its generate node in `mode` and an inline
    schema; with a `path` into the node's params, the value there replaced."""
    doc = json.loads(SAMPLE.read_text())
    node = next(n for n in doc["nodes"] if n["id"] == "generate")
    node["params"] = json.loads(json.dumps({**_GENERATE_PARAMS[mode], "schema": _MODE_SCHEMA[mode]}))
    if path:
        holder = node["params"]
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = value
    return doc


def _nested_paths(value, path=()):
    yield path
    if isinstance(value, (dict, list)):
        children = value.items() if isinstance(value, dict) else enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from _nested_paths(child, path + (key,))


_NESTED = [
    (mode, (root, *path))
    for mode in _GENERATE_PARAMS
    for root in ("mode_params", "schema")
    for path in _nested_paths({**_GENERATE_PARAMS[mode], "schema": _MODE_SCHEMA[mode]}[root])
]


@pytest.mark.parametrize("mode", sorted(_GENERATE_PARAMS))
def test_generate_node_in_each_mode_parses(mode):
    parse(sample_generating(mode))


@pytest.mark.parametrize(
    "mode, path, value, message",
    [
        ("asd", ("mode_params", "column_models", "zz"), {"labels": ["p"], "weights": [1]},
         "asd: unknown column 'zz'"),
        ("csd", ("mode_params", "intercepts"), {"zz": 1.0}, "csd intercepts: unknown column 'zz'"),
        ("hsd", ("mode_params", "partition", 1), ["c", "zz"], "hsd: partition names unknown columns"),
        ("hsd", ("mode_params", "sub_configs", 0, "mode_params", "noise", "y"), None,
         "csd: columns \\['y'\\] have no noise spec"),
    ],
    ids=["asd-model", "csd-intercept", "hsd-partition", "hsd-part"],
)
def test_generator_that_does_not_fit_its_inline_schema_is_invalid_spec(mode, path, value, message):
    doc = sample_generating(mode, path, value)
    if value is None:  # drop the key instead
        holder = next(n for n in doc["nodes"] if n["id"] == "generate")["params"]
        for key in path[:-1]:
            holder = holder[key]
        del holder[path[-1]]
    with pytest.raises(InvalidSpec, match=f"node 'generate': {message}"):
        parse(doc)


@pytest.mark.parametrize(
    "mode, path, value",
    [
        ("asd", ("mode_params", "column_models", "x", "quantiles"), ["x", 0.5, 1]),
        ("asd", ("schema", "columns", 0, "bounds"), 1),
        ("asd", ("schema", "columns", 0, "bounds"), "ab"),
        ("asd", ("schema", "columns", 2, "categories"), 5),
        ("asd", ("schema", "columns", 1, "name"), 5),
    ],
    ids=["quantile-string", "bounds-number", "bounds-string", "categories-number", "name-number"],
)
def test_bad_nested_value_is_invalid_spec(mode, path, value):
    with pytest.raises(InvalidSpec, match="node 'generate'"):
        parse(sample_generating(mode, path, value))


@settings(max_examples=400, deadline=None)
@given(target=st.sampled_from(_NESTED), value=_JSON)
def test_parse_spec_fuzzed_nested_value(target, value):
    try:
        spec = parse_spec(json.dumps(sample_generating(*target, value)))
    except SpecError:
        return
    digest = spec_digest(spec)
    assert spec_digest(parse_spec(serialize_spec(spec))) == digest
