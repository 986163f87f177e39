"""Every document that validates either runs or fails typed: one numeric
field of sample/modes.json is set to an extreme value and the document is
run at max_parallel 1, under the suite's RuntimeWarning-as-error filter.

Size fields stay out (`seed`, `n_out`, `permutations`,
`max_attempts_per_row`): `n_out` has no upper bound, so a huge value would
allocate before it could fail."""
import copy
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdgflow.engine import run
from sdgflow.errors import NodeFailure, SdgError, SpecError
from sdgflow.specs import parse_spec

SAMPLE_DIR = Path(__file__).resolve().parent.parent / "sample"
MODES = json.loads((SAMPLE_DIR / "modes.json").read_text(encoding="utf-8"))
SIZE_FIELDS = {"seed", "n_out", "permutations", "max_attempts_per_row"}
EXTREMES = (1e308, -1e308, 5e-324, -5e-324, 2**53 + 1, -(2**53 + 1), 1e-300, 0, -0.0)


def numeric_fields(value, path=()):
    """The path of every number in a JSON value, size fields left out."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key not in SIZE_FIELDS:
                yield from numeric_fields(item, (*path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from numeric_fields(item, (*path, i))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path


FIELDS = tuple(numeric_fields(MODES))


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
