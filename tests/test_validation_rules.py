"""One case per validation rule of the document readers: each bad value
raises its SdgError subclass, with a message that names the rule."""
import copy
import dataclasses
import json

import pytest

from sdgflow.errors import (
    ConfigError,
    DanglingDependency,
    InvalidSpec,
    RuleUnsatisfiable,
)
from sdgflow.generators import generate, parse_generator_config
from sdgflow.rng import derive_stream
from sdgflow.specs import parse_spec
from sdgflow.tabular import schema_from_json_obj

UNIFORM = {"distribution": "uniform", "low": 0, "high": 10}
LABELS = {"labels": ["p", "q"], "weights": [1, 1]}
DERIVE_Y = {"kind": "derivation", "target": "y", "sources": {"x": 2}}
NOISE = {"distribution": "normal", "std": 1}
SCHEMA = {
    "columns": [
        {"name": "x", "kind": "continuous", "bounds": [0, 10]},
        {"name": "y", "kind": "continuous"},
        {"name": "c", "kind": "categorical", "categories": ["p", "q"]},
    ]
}
ASD = {"column_models": {"x": UNIFORM, "c": LABELS}, "rules": [DERIVE_Y]}
CSD = {"causal_dag": [{"from": "x", "to": "y"}], "weights": [1], "noise": {"x": NOISE, "y": NOISE}}


def asd(**mode_params):
    return {"mode": "asd", "n_out": 5, "mode_params": {**ASD, **mode_params}}


def asd_model(name, model):
    return asd(column_models={**ASD["column_models"], name: model})


def asd_rules(*rules):
    return asd(rules=[DERIVE_Y, *rules])


def csd(**mode_params):
    return {"mode": "csd", "n_out": 5, "mode_params": {**CSD, **mode_params}}


def hsd(partition, sub_configs):
    return {"mode": "hsd", "n_out": 5, "mode_params": {"partition": partition, "sub_configs": sub_configs}}


QUANTILES = {"distribution": "quantile_table", "quantiles": [0, 0.5, 1], "values": [0, 1, 2]}
ASD_X = {"mode": "asd", "n_out": 5, "mode_params": {"column_models": {"x": UNIFORM}}}

GENERATOR_CASES = {
    "rsd-shrinkage": (
        {"mode": "rsd", "n_out": 5, "mode_params": {"correlation_shrinkage": 1.5}},
        "correlation_shrinkage must be in [0, 1], got 1.5",
    ),
    "label-duplicate": (asd_model("c", {"labels": ["p", "p"], "weights": [1, 1]}), "duplicate labels"),
    "label-weights-align": (asd_model("c", {"labels": ["p", "q"], "weights": [1]}), "weights must align with labels"),
    "label-weights-positive": (
        asd_model("c", {"labels": ["p", "q"], "weights": [1, 0]}), "weights must be positive numbers"
    ),
    "uniform-order": (asd_model("x", {**UNIFORM, "low": 11}), "low must be <= high"),
    "uniform-range-finite": (asd_model("x", {**UNIFORM, "low": -1e308, "high": 1e308}), "high - low must be finite"),
    "normal-std": (asd_model("x", {"distribution": "normal", "mean": 0, "std": -1}), "std must be >= 0"),
    "quantile-align": (asd_model("x", {**QUANTILES, "values": [0, 1]}), "quantiles and values must align"),
    "quantile-span": (
        asd_model("x", {**QUANTILES, "quantiles": [0, 0.5, 0.9]}), "quantiles must increase strictly from 0 to 1"
    ),
    "quantile-increase": (
        asd_model("x", {**QUANTILES, "quantiles": [0, 0.5, 0.5, 1], "values": [0, 1, 2, 3]}),
        "quantiles must increase strictly from 0 to 1",
    ),
    "quantile-values": (asd_model("x", {**QUANTILES, "values": [0, 2, 1]}), "values must be non-decreasing"),
    "range-order": (
        asd_rules({"kind": "range_constraint", "column": "x", "min": 5, "max": 1}), "min must be <= max"
    ),
    "derivation-sources": (
        asd(rules=[{**DERIVE_Y, "sources": {}}]), "sources must map columns to coefficients"
    ),
    "derivation-self": (
        asd(rules=[{**DERIVE_Y, "sources": {"y": 1}}]), "derivation target cannot be its own source"
    ),
    "derivation-twice": (asd_rules({**DERIVE_Y, "sources": {"x": 3}}), "multiple derivations for one target"),
    "derivation-cycle": (
        asd(rules=[{**DERIVE_Y, "sources": {"z": 1}}, {"kind": "derivation", "target": "z", "sources": {"y": 1}}]),
        "derivation rules form a cycle",
    ),
    "asd-modeled-and-derived": (asd_model("y", UNIFORM), "column 'y' is both modeled and derived"),
    "csd-self-edge": (csd(causal_dag=[{"from": "x", "to": "x"}]), "causal_dag[0]: self-edge on 'x'"),
    "csd-duplicate-edge": (
        csd(causal_dag=[{"from": "x", "to": "y"}] * 2, weights=[1, 1]), "causal_dag[1]: duplicate edge x->y"
    ),
    "csd-weights-align": (csd(weights=[]), "weights must align with causal_dag edges"),
    "csd-cycle": (
        csd(causal_dag=[{"from": "x", "to": "y"}, {"from": "y", "to": "x"}], weights=[1, 1]),
        "causal_dag has a cycle",
    ),
    "noise-normal-std": (csd(noise={"x": {"distribution": "normal", "std": -1}, "y": NOISE}), "std must be >= 0"),
    "noise-half-width": (
        csd(noise={"x": {"distribution": "uniform", "half_width": -1}, "y": NOISE}), "half_width must be >= 0"
    ),
    "noise-half-width-finite": (
        csd(noise={"x": {"distribution": "uniform", "half_width": 1e308}, "y": NOISE}),
        "half_width must be finite when doubled",
    ),
    "hsd-empty-partition": (hsd([], []), "partition must be a non-empty list of column groups"),
    "hsd-column-in-two-parts": (hsd([["x"], ["x"]], [ASD_X, ASD_X]), "partition[1]: column assigned twice: ['x']"),
    "hsd-column-twice-in-a-part": (hsd([["x", "x"]], [ASD_X]), "partition[0]: column assigned twice: ['x', 'x']"),
    "hsd-sub-configs-align": (hsd([["x"], ["y"]], [ASD_X]), "sub_configs must align with partition"),
    "hsd-sub-n-out": (hsd([["x"]], [{**ASD_X, "n_out": 6}]), "n_out 6 must equal the hybrid n_out 5"),
}


@pytest.mark.parametrize("doc, message", GENERATOR_CASES.values(), ids=GENERATOR_CASES)
def test_generator_config_rule(doc, message):
    with pytest.raises(ConfigError) as exc:
        parse_generator_config(copy.deepcopy(doc))
    assert message in str(exc.value)


def base_spec():
    return {
        "version": "1",
        "seed": 1,
        "inputs": {"census": {"path": "d.csv", "schema": "s.json"}},
        "nodes": [
            {"id": "load", "kind": "load", "params": {"input": "census"}},
            {"id": "gen", "kind": "generate", "params": {**asd(), "schema": SCHEMA}},
            {"id": "util", "kind": "evaluate_utility", "params": {"real": "load", "synthetic": "gen"},
             "depends_on": ["load", "gen"]},
            {"id": "rep", "kind": "report", "params": {}, "depends_on": ["util"]},
        ],
        "outputs": [{"node": "gen", "artifact": "dataset"}],
    }


def node(doc, node_id):
    return next(n for n in doc["nodes"] if n["id"] == node_id)


def gen_params(**params):
    """An edit that sets keys of the generate node's params."""
    return lambda doc: node(doc, "gen")["params"].update(copy.deepcopy(params))


def column(i, **keys):
    """An edit that sets keys of the generate node's schema column i."""
    def edit(doc):
        schema = node(doc, "gen")["params"]["schema"] = copy.deepcopy(SCHEMA)
        schema["columns"][i].update(keys)
    return edit


def util_params(**params):
    return lambda doc: node(doc, "util")["params"].update(params)


def point_real_at_util(doc):
    # a second utility node whose real side is the first one's metrics
    doc["nodes"].insert(3, {"id": "util2", "kind": "evaluate_utility",
                            "params": {"real": "util", "synthetic": "gen", "metrics": ["specks"]},
                            "depends_on": ["util", "gen"]})
    util_params(metrics=["pmse_observed"])(doc)
    node(doc, "rep")["depends_on"].append("util2")


SPEC_CASES = {
    # the generator against its inline schema
    "implication-if-kind": (
        gen_params(mode_params={**ASD, "rules": [DERIVE_Y, {"kind": "implication", "if_column": "x",
                   "if_category": "p", "then_column": "c", "then_categories": ["p"]}]}),
        InvalidSpec, "implication column 'x' must be categorical",
    ),
    "implication-category": (
        gen_params(mode_params={**ASD, "rules": [DERIVE_Y, {"kind": "implication", "if_column": "c",
                   "if_category": "z", "then_column": "c", "then_categories": ["p"]}]}),
        InvalidSpec, "['z'] are not categories of 'c'",
    ),
    "range-kind": (
        gen_params(mode_params={**ASD, "rules": [DERIVE_Y, {"kind": "range_constraint", "column": "c",
                   "min": 0, "max": 1}]}),
        InvalidSpec, "range_constraint column 'c' must be continuous",
    ),
    "derivation-target-kind": (
        gen_params(mode_params={"column_models": {"x": UNIFORM, "y": UNIFORM},
                                "rules": [{"kind": "derivation", "target": "c", "sources": {"x": 1}}]}),
        InvalidSpec, "derivation target 'c' must be continuous",
    ),
    "derivation-source-kind": (
        gen_params(mode_params={**ASD, "rules": [{**DERIVE_Y, "sources": {"c": 1}}]}),
        InvalidSpec, "derivation source 'c' must be continuous",
    ),
    "asd-label-model-on-continuous": (
        gen_params(mode_params={**ASD, "column_models": {"x": LABELS, "c": LABELS}}),
        InvalidSpec, "column 'x' is continuous but has a label model",
    ),
    "asd-numeric-model-on-categorical": (
        gen_params(mode_params={**ASD, "column_models": {"x": UNIFORM, "c": UNIFORM}}),
        InvalidSpec, "column 'c' is categorical but has a numeric model",
    ),
    "generate-no-schema-no-real": (
        lambda doc: node(doc, "gen")["params"].pop("schema"),
        InvalidSpec, "asd requires a schema or a real dataset",
    ),
    # the inline schema itself
    "column-name": (column(0, name=""), InvalidSpec, "column name must be non-empty"),
    "column-bounds-on-categorical": (column(2, bounds=[0, 1]), InvalidSpec, "bounds only apply to continuous"),
    "column-categories-on-continuous": (
        column(1, categories=["p"]), InvalidSpec, "categories only apply to categorical"
    ),
    "column-bounds-length": (column(0, bounds=[0, 1, 2]), InvalidSpec, "bounds must be [min, max]"),
    # the document
    "depends-on-duplicates": (
        lambda doc: node(doc, "util")["depends_on"].append("gen"), InvalidSpec, "depends_on has duplicates"
    ),
    "nodes-empty": (lambda doc: doc.update(nodes=[]), InvalidSpec, "nodes must be a non-empty list"),
    "output-unknown-node": (
        lambda doc: doc["outputs"].append({"node": "zz", "artifact": "dataset"}),
        DanglingDependency, "outputs reference unknown node 'zz'",
    ),
    "real-is-no-dataset": (point_real_at_util, InvalidSpec, "params.real='util' does not produce a dataset"),
    "unknown-input": (
        lambda doc: node(doc, "load")["params"].update(input="zz"), InvalidSpec, "unknown input 'zz'"
    ),
    "threshold-names-no-metric": (
        lambda doc: node(doc, "rep")["params"].update(thresholds={"tcap": 0.5}),
        InvalidSpec, "thresholds name metrics no evaluate node produces: ['tcap']",
    ),
    "metric-unknown": (util_params(metrics=["zz"]), InvalidSpec, "unknown metrics ['zz']"),
    "metric-repeated": (
        util_params(metrics=["specks", "specks"]), InvalidSpec, "metrics must not repeat a name"
    ),
}


def test_base_spec_parses():
    parse_spec(json.dumps(base_spec()))


@pytest.mark.parametrize("edit, error, message", SPEC_CASES.values(), ids=SPEC_CASES)
def test_spec_rule(edit, error, message):
    doc = base_spec()
    edit(doc)
    with pytest.raises(error) as exc:
        parse_spec(json.dumps(doc))
    assert message in str(exc.value)


def test_generate_rejects_a_config_built_with_no_rows():
    config = dataclasses.replace(parse_generator_config(asd()), n_out=0)
    with pytest.raises(ConfigError, match="n_out must be >= 1"):
        generate(config, derive_stream(1, "gen"), schema=schema_from_json_obj(SCHEMA))


def test_unsatisfiable_implication_is_named_in_the_error():
    config = parse_generator_config(asd(
        column_models={"x": UNIFORM, "c": {"labels": ["p"], "weights": [1]}},
        rules=[DERIVE_Y, {"kind": "implication", "if_column": "c", "if_category": "p",
                          "then_column": "c", "then_categories": ["q"]}],
        max_attempts_per_row=3,
    ))
    with pytest.raises(RuleUnsatisfiable) as exc:
        generate(config, derive_stream(1, "gen"), schema=schema_from_json_obj(SCHEMA))
    assert exc.value.attempts == 3
    assert "most violated: implication: c=p => c in ['q']" in str(exc.value)


@pytest.mark.parametrize(
    "doc",
    [
        asd_model("x", {"distribution": "normal", "mean": 1, "std": -0.0}),
        asd_model("x", {"distribution": "uniform", "low": 0, "high": -0.0}),
        csd(noise={"x": NOISE, "y": {"distribution": "normal", "std": -0.0}}),
        csd(noise={"x": NOISE, "y": {"distribution": "uniform", "half_width": -0.0}}),
    ],
    ids=["normal-std", "uniform-high", "noise-std", "noise-half-width"],
)
def test_a_spread_of_negative_zero_reads_as_zero(doc):
    # numpy rejects a scale or a width of -0.0, so parsing reads it as 0.0
    config = parse_generator_config(doc)
    columns = SCHEMA["columns"] if config.mode == "asd" else SCHEMA["columns"][:2]
    ds = generate(config, derive_stream(1, "gen"), schema=schema_from_json_obj({"columns": columns}))
    assert ds.n == 5
