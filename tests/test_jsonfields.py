"""The one JSON-to-dataclass reader, `JsonChecks.build`, over every class it
builds: each reads its keys and defaults from its dataclass, names an
unknown or missing key, and takes null only where its check table says so."""
import copy
import json
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Any, Callable

import pytest

from sdgflow import generators as g
from sdgflow.engine import NodeRecord, RunManifest, manifest_from_json_obj, run
from sdgflow.errors import ConfigError, InvalidSpec, ManifestInvalid, SchemaError, SdgError, UnknownField
from sdgflow.evaluation.privacy import PrivacyConfig
from sdgflow.jsonfields import loads
from sdgflow.specs import (
    DiagnosticParams,
    GenerateParams,
    InputSource,
    LoadParams,
    PipelineNode,
    PipelineSpec,
    PreprocessParams,
    PrivacyParams,
    ReportParams,
    SpecDigest,
    UtilityParams,
    load_spec,
    spec_from_json_obj,
)
from sdgflow.tabular import ColumnSpec, Schema, schema_from_json_obj

SAMPLE_DIR = Path(__file__).resolve().parent.parent / "sample"

PRIVACY_KEYS = tuple(f.name for f in fields(PrivacyConfig))

# a spec with a node of every kind, so any node's params can be swapped in
SPEC = {
    "version": "1",
    "seed": 3,
    "inputs": {"census": {"path": "d.csv", "schema": "s.json"}},
    "nodes": [
        {"id": "load", "kind": "load", "params": {"input": "census"}},
        {"id": "clean", "kind": "preprocess", "params": {"source": "load"}, "depends_on": ["load"]},
        {"id": "gen", "kind": "generate", "params": {"mode": "rsd", "n_out": 5, "real": "clean"},
         "depends_on": ["clean"]},
        {"id": "diag", "kind": "evaluate_diagnostic", "params": {"real": "clean", "synthetic": "gen"},
         "depends_on": ["clean", "gen"]},
        {"id": "util", "kind": "evaluate_utility", "params": {"real": "clean", "synthetic": "gen"},
         "depends_on": ["clean", "gen"]},
        {"id": "priv", "kind": "evaluate_privacy",
         "params": {"real": "clean", "synthetic": "gen", "metrics": ["min_nn_distance"]},
         "depends_on": ["clean", "gen"]},
        {"id": "rep", "kind": "report", "params": {}, "depends_on": ["diag", "util", "priv"]},
    ],
}
NODE = {name: i for i, name in enumerate(n["id"] for n in SPEC["nodes"])}

UNIFORM = {"distribution": "uniform", "low": 0, "high": 1}
ASD = {"mode": "asd", "n_out": 5, "mode_params": {"column_models": {"x": UNIFORM}, "rules": [None]}}
CSD = {"mode": "csd", "n_out": 5, "mode_params": {"noise": {"x": None}}}
MANIFEST = {
    "spec_digest": {"hash": "ab", "canonical_bytes_len": 2},
    "seed": 1,
    "engine_version": "0",
    "max_parallel": 1,
    "started_at": "t0",
    "finished_at": "t1",
    "node_records": [None],
}
SKIPPED = {"id": "a", "kind": "load", "status": "skipped", "depends_on": [], "start": None,
           "end": None, "duration_seconds": None, "artifacts": {}}


@dataclass
class Case:
    cls: type
    read: Callable[[Any], Any]  # a document -> its parsed form
    base: Any  # a valid document holding the object
    path: tuple  # where the object sits in `base`
    pick: Callable[[Any], Any]  # the parsed document -> the object
    minimal: dict  # the object with its required keys, and what its value rules need
    error: type
    unknown: type | None = None  # defaults to `error`
    keys: tuple | None = None  # the object's keys; defaults to its fields and its tag
    required: tuple | None = None  # defaults to the keys of the fields without a default
    tag: str | None = None
    nullable: frozenset = frozenset()

    def doc(self, obj):
        doc = copy.deepcopy(self.base)
        if not self.path:
            return obj
        holder = doc
        for key in self.path[:-1]:
            holder = holder[key]
        holder[self.path[-1]] = obj
        return doc

    def parse(self, obj):
        return self.pick(self.read(self.doc(obj)))

    def all_keys(self):
        if self.keys is not None:
            return self.keys
        return tuple(f.name for f in fields(self.cls)) + ((self.tag,) if self.tag else ())

    def required_keys(self):
        if self.required is not None:
            return self.required
        no_default = {f.name for f in fields(self.cls) if f.default is f.default_factory is MISSING}
        return tuple(k for k in self.all_keys() if k in no_default or k == self.tag)


def spec_case(cls, node, minimal, pick=lambda config: config, **kw):
    """A node's params, read through the whole spec."""
    return Case(cls, spec_from_json_obj, SPEC, ("nodes", NODE[node], "params"),
                lambda spec: pick(spec.node(node).config), minimal, InvalidSpec, UnknownField, **kw)


def config_case(cls, base, path, pick, minimal, **kw):
    return Case(cls, g.parse_generator_config, base, path, pick, minimal, ConfigError, **kw)


def rule_case(cls, minimal):
    pick = lambda c: c.mode_params.rules[0]  # noqa: E731
    return config_case(cls, ASD, ("mode_params", "rules", 0), pick, minimal, tag="kind")


def model_case(cls, minimal, tag="distribution"):
    base = {"mode": "asd", "n_out": 5, "mode_params": {"column_models": {"x": None}}}
    pick = lambda c: c.mode_params.column_models["x"]  # noqa: E731
    return config_case(cls, base, ("mode_params", "column_models", "x"), pick, minimal, tag=tag)


def noise_case(cls, minimal):
    pick = lambda c: c.mode_params.noise["x"]  # noqa: E731
    return config_case(cls, CSD, ("mode_params", "noise", "x"), pick, minimal, tag="distribution")


def manifest_case(cls, path, pick, minimal, **kw):
    base = copy.deepcopy(MANIFEST)
    base["node_records"] = [SKIPPED]
    return Case(cls, manifest_from_json_obj, base, path, pick, minimal, ManifestInvalid, **kw)


HSD_PART = {"mode": "asd", "n_out": 5, "mode_params": {"column_models": {"x": UNIFORM}}}
CASES = [
    Case(PipelineSpec, spec_from_json_obj, None, (), lambda s: s,
         {"version": "1", "seed": 0, "nodes": [{"id": "rep", "kind": "report"}]}, InvalidSpec, UnknownField),
    Case(PipelineNode, spec_from_json_obj, {"version": "1", "seed": 0, "nodes": [None]}, ("nodes", 0),
         lambda s: s.nodes[0], {"id": "rep", "kind": "report"}, InvalidSpec, UnknownField,
         keys=("id", "kind", "params", "depends_on")),
    Case(InputSource, spec_from_json_obj, SPEC, ("inputs", "census"), lambda s: s.inputs["census"],
         {"path": "d.csv", "schema": "s.json"}, InvalidSpec, UnknownField),
    spec_case(LoadParams, "load", {"input": "census"}),
    spec_case(PreprocessParams, "clean", {"source": "load"}),
    spec_case(GenerateParams, "gen", {"mode": "rsd", "n_out": 5, "real": "clean"},
              keys=("mode", "n_out", "mode_params", "real", "schema"), required=("mode", "n_out")),
    spec_case(DiagnosticParams, "diag", {"real": "clean", "synthetic": "gen"}),
    spec_case(UtilityParams, "util", {"real": "clean", "synthetic": "gen"}),
    spec_case(PrivacyParams, "priv", {"real": "clean", "synthetic": "gen", "metrics": ["min_nn_distance"]},
              keys=("real", "synthetic", "metrics", *PRIVACY_KEYS)),
    spec_case(PrivacyConfig, "priv", {"real": "clean", "synthetic": "gen", "metrics": ["min_nn_distance"]},
              pick=lambda config: config.privacy, keys=PRIVACY_KEYS, required=()),
    spec_case(ReportParams, "rep", {}),
    config_case(g.GeneratorConfig, None, (), lambda c: c, {"mode": "rsd", "n_out": 5},
                required=("mode", "n_out")),
    config_case(g.RsdParams, {"mode": "rsd", "n_out": 5}, ("mode_params",), lambda c: c.mode_params, {}),
    config_case(g.AsdParams, {"mode": "asd", "n_out": 5}, ("mode_params",), lambda c: c.mode_params,
                {"column_models": {"x": UNIFORM}}),
    config_case(g.CsdParams, {"mode": "csd", "n_out": 5}, ("mode_params",), lambda c: c.mode_params,
                {"noise": {"x": {"distribution": "normal", "std": 1}}}),
    config_case(g.HsdParams, {"mode": "hsd", "n_out": 5}, ("mode_params",), lambda c: c.mode_params,
                {"partition": [["x"]], "sub_configs": [HSD_PART]}),
    model_case(g.UniformModel, UNIFORM),
    model_case(g.NormalModel, {"distribution": "normal", "mean": 0, "std": 1}),
    model_case(g.QuantileTableModel, {"distribution": "quantile_table", "quantiles": [0, 1], "values": [0, 1]}),
    model_case(g.CategoricalModel, {"labels": ["p"], "weights": [1]}, tag=None),
    rule_case(g.ImplicationRule, {"kind": "implication", "if_column": "c", "if_category": "p",
                                  "then_column": "d", "then_categories": ["q"]}),
    rule_case(g.RangeRule, {"kind": "range_constraint", "column": "x", "min": 0, "max": 1}),
    rule_case(g.DerivationRule, {"kind": "derivation", "target": "t", "sources": {"x": 2}}),
    noise_case(g.NormalNoise, {"distribution": "normal", "std": 1}),
    noise_case(g.UniformNoise, {"distribution": "uniform", "half_width": 1}),
    Case(Schema, schema_from_json_obj, None, (), lambda s: s,
         {"columns": [{"name": "x", "kind": "continuous"}]}, SchemaError),
    Case(ColumnSpec, schema_from_json_obj, {"columns": [None]}, ("columns", 0), lambda s: s.columns[0],
         {"name": "x", "kind": "continuous"}, SchemaError, nullable=frozenset({"categories", "bounds"})),
    manifest_case(RunManifest, (), lambda m: m, {**MANIFEST, "node_records": []}),
    manifest_case(NodeRecord, ("node_records", 0), lambda m: m.node_records[0], SKIPPED,
                  nullable=frozenset({"start", "end", "duration_seconds", "error"})),
    manifest_case(SpecDigest, ("spec_digest",), lambda m: m.spec_digest, MANIFEST["spec_digest"]),
]
IDS = [c.cls.__name__ for c in CASES]


def error_of(case, obj) -> SdgError:
    with pytest.raises(SdgError) as exc:
        case.parse(obj)
    return exc.value


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_required_keys_alone_parse_to_the_dataclass_defaults(case):
    obj = case.parse(case.minimal)
    assert isinstance(obj, case.cls)
    for f in fields(case.cls):
        if f.name in case.minimal or f.default is f.default_factory is MISSING:
            continue
        default = f.default if f.default_factory is MISSING else f.default_factory()
        assert getattr(obj, f.name) == default, f.name


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_unknown_key_raises_the_readers_unknown_key_error(case):
    e = error_of(case, {**case.minimal, "bogus": 1})
    assert type(e) is (case.unknown or case.error)
    assert "unknown fields ['bogus']" in str(e)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_each_missing_required_key_raises(case):
    for key in case.required_keys():
        e = error_of(case, {k: v for k, v in case.minimal.items() if k != key})
        assert type(e) is case.error
        assert key in str(e)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_null_is_rejected_unless_the_check_table_allows_it(case):
    assert case.nullable <= set(case.all_keys())
    for key in case.all_keys():
        obj = {**case.minimal, key: None}
        if key in case.nullable:
            assert getattr(case.parse(obj), key) is None
        else:  # by the key's own check, not by a rule that reads it later
            e = error_of(case, obj)
            assert type(e) is case.error and key in str(e) and "must be" in str(e), (key, e)


def test_rsd_config_without_mode_params_takes_the_rsd_defaults():
    assert g.parse_generator_config({"mode": "rsd", "n_out": 5}).mode_params == g.RsdParams()


def test_asd_config_without_mode_params_is_missing_its_column_models():
    with pytest.raises(ConfigError, match="column_models"):
        g.parse_generator_config({"mode": "asd", "n_out": 5})


def test_numbers_keep_the_type_the_document_wrote(tmp_path):
    """An integer a document writes reaches every artifact that echoes it as
    that integer: `0`, never `0.0`."""
    run(load_spec(SAMPLE_DIR / "modes.json"), tmp_path, base_dir=SAMPLE_DIR)
    privacy = json.loads((tmp_path / "artifacts" / "privacy" / "metrics.json").read_bytes())
    details = {m["name"]: m["details"] for m in privacy["metrics"]}
    assert repr(details["new_row_synthesis"]["tolerance"]) == "0"
    assert repr(details["tcap"]["homogeneity_threshold"]) == "1"
    report = json.loads((tmp_path / "report.json").read_bytes())
    assert repr(report["thresholds"]["sample_overlap"]) == "0"
    text = (tmp_path / "report.txt").read_text(encoding="utf-8")
    assert "sample_overlap  score=0.0  direction=lower_better  threshold <= 0  PASS" in text


@pytest.mark.parametrize(
    "text",
    ['{"a": "\\udc80"}', '{"\\udfff": 1}', '[["x\\ud800y"]]', '{"a": ["\\ude00\\ud83d"]}'],
    ids=["value", "key", "nested-list", "pair-reversed"],
)
def test_loads_refuses_a_lone_surrogate_in_every_reader(text):
    for error in (InvalidSpec, ConfigError, SchemaError, ManifestInvalid):
        with pytest.raises(error, match="lone surrogate"):
            loads(text.encode(), error)


def test_loads_keeps_an_escaped_surrogate_pair():
    assert loads(b'["\\ud83d\\ude00"]', InvalidSpec) == ["\U0001F600"]
