"""Every document that validates either runs or fails typed: one numeric
field of sample/modes.json is set to an extreme value and the document is
run at max_parallel 1, under the suite's RuntimeWarning-as-error filter.

Size fields stay out of that test (`seed`, `n_out`, `permutations`,
`max_attempts_per_row`): a huge value would run for long or allocate much
before it could fail. Instead, each size field but the seed is drawn past its
ceiling, and the document must be refused at parse; no such value runs."""
import copy
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdgflow.engine import run
from sdgflow.errors import ConfigError, InvalidSpec, NodeFailure, NumericOverflow, SdgError, SpecError
from sdgflow.evaluation.utility import MAX_PERMUTATIONS
from sdgflow.generators import MAX_ATTEMPTS_PER_ROW, MAX_N_OUT
from sdgflow.specs import parse_spec

SAMPLE_DIR = Path(__file__).resolve().parent.parent / "sample"
MODES = json.loads((SAMPLE_DIR / "modes.json").read_text(encoding="utf-8"))
CEILINGS = {"n_out": MAX_N_OUT, "permutations": MAX_PERMUTATIONS, "max_attempts_per_row": MAX_ATTEMPTS_PER_ROW}
SIZE_FIELDS = {"seed", *CEILINGS}
EXTREMES = (1e308, -1e308, 5e-324, -5e-324, 2**53 + 1, -(2**53 + 1), 1e-300, 0, -0.0)


def numeric_fields(value, path=()):
    """The path of every number in a JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from numeric_fields(item, (*path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from numeric_fields(item, (*path, i))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path


FIELDS = tuple(path for path in numeric_fields(MODES) if path[-1] not in SIZE_FIELDS)
CEILING_FIELDS = tuple(path for path in numeric_fields(MODES) if path[-1] in CEILINGS)


def raised_class(traceback_text):
    """The exception class the last line of a formatted traceback names."""
    qualified = traceback_text.strip().splitlines()[-1].split(":", 1)[0]
    module, _, name = qualified.rpartition(".")
    return getattr(sys.modules.get(module), name, None)


def _field(node_id, *rest):
    index = next(i for i, node in enumerate(MODES["nodes"]) if node["id"] == node_id)
    return ("nodes", index, "params", *rest)


# the values that once failed with an untyped error, then a bounded sample of
# the 486 (field, value) pairs
@example(_field("asd", "mode_params", "column_models", "x", "high"), -0.0)
@example(_field("asd", "mode_params", "column_models", "y", "std"), -0.0)
@example(_field("csd", "mode_params", "noise", "u", "std"), -0.0)
@example(_field("csd", "mode_params", "noise", "v", "half_width"), -0.0)
@example(_field("csd", "mode_params", "noise", "w", "std"), -0.0)
@example(_field("csd_plain", "mode_params", "noise", "u", "half_width"), -0.0)
@example(_field("csd_plain", "mode_params", "noise", "v", "std"), -0.0)
@example(_field("privacy", "numeric_match_tolerance"), 1e308)
@settings(max_examples=100, deadline=None)
@pytest.mark.filterwarnings("ignore::sdgflow.errors.SeparationWarning")  # an extreme value may separate the sides
@given(st.sampled_from(FIELDS), st.sampled_from(EXTREMES))
def test_one_extreme_numeric_field_runs_or_fails_typed(path, value):
    doc = copy.deepcopy(MODES)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        spec = parse_spec(json.dumps(doc))
    except SpecError:
        return
    with tempfile.TemporaryDirectory() as out:
        try:
            run(spec, out, max_parallel=1, base_dir=SAMPLE_DIR)
        except NodeFailure as exc:
            failed = [r for r in exc.manifest.node_records if r.status == "failed"]
            assert failed
            for record in failed:
                cls = raised_class(record.error)
                assert isinstance(cls, type) and issubclass(cls, SdgError), (
                    f"{path} = {value!r}: node {record.id} failed untyped:\n{record.error}"
                )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CEILING_FIELDS), st.one_of(st.integers(1, 10), st.integers(1, 10**300)))
def test_a_size_field_past_its_ceiling_is_refused_at_parse(path, excess):
    doc = copy.deepcopy(MODES)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = CEILINGS[path[-1]] + excess
    with pytest.raises((InvalidSpec, ConfigError)):
        parse_spec(json.dumps(doc))


def test_every_size_field_has_a_ceiling_drawn():
    assert {path[-1] for path in CEILING_FIELDS} == set(CEILINGS)


def test_continuous_values_near_the_double_range_fail_the_utility_node_typed(tmp_path):
    # a valid CSV whose column x sums past the doubles
    x = np.random.default_rng(0).uniform(1.4e308, 1.6e308, 40).tolist()
    (tmp_path / "data.csv").write_text("x,c\n" + "".join(f"{v!r},{'ab'[i % 2]}\n" for i, v in enumerate(x)))
    schema = {"columns": [
        {"name": "x", "kind": "continuous"},
        {"name": "c", "kind": "categorical", "categories": ["a", "b"]},
    ]}
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    pair = {"real": "load", "synthetic": "load"}
    doc = {
        "version": "1",
        "seed": 1,
        "inputs": {"t": {"path": "data.csv", "schema": "schema.json"}},
        "nodes": [
            {"id": "load", "kind": "load", "params": {"input": "t"}},
            {"id": "fit", "kind": "evaluate_utility", "depends_on": ["load"],
             "params": dict(pair, metrics=["pmse_observed"])},
            {"id": "pairs", "kind": "evaluate_utility", "depends_on": ["load"],
             "params": dict(pair, metrics=["bivariate_fidelity"])},
            {"id": "rep", "kind": "report", "depends_on": ["fit", "pairs"], "params": {}},
        ],
    }
    with pytest.raises(NodeFailure) as info:
        run(parse_spec(json.dumps(doc)), tmp_path / "run", max_parallel=1, base_dir=tmp_path)
    records = {r.id: r for r in info.value.manifest.node_records}
    for nid, statistic in (("fit", "mean or standard deviation"), ("pairs", "mean or sum of squares")):
        assert raised_class(records[nid].error) is NumericOverflow
        assert f"column 'x': {statistic} is not finite" in records[nid].error
