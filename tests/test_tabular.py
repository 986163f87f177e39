"""Typed tabular container: schema, CSV round trip, encoding, Gower distance."""
import csv
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gower_distance, mixed_dataset, mixed_schema
from sdgflow import tabular
from sdgflow.errors import (
    CellTypeError,
    ConfigError,
    HeaderMismatch,
    MissingValue,
    SchemaError,
    SdgError,
    UnknownCategory,
)
from sdgflow.tabular import (
    ColumnKind,
    ColumnSpec,
    Schema,
    column_ranges,
    dataset_to_csv_bytes,
    encode,
    encoded_width,
    load_csv,
    make_dataset,
    read_schema,
    schema_from_json_obj,
    schema_to_json_obj,
)


def write_csv(ds, path):
    path.write_bytes(dataset_to_csv_bytes(ds))


def csv_bytes_by_row(ds):
    """The CSV writer the block writer replaced: one formatted cell and one
    `csv.writer.writerow` at a time. The oracle for dataset_to_csv_bytes."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ds.schema.names)
    cells = []
    for spec, arr in zip(ds.schema.columns, ds.columns):
        if spec.kind is ColumnKind.CONTINUOUS:
            cells.append([format(v, ".17g") for v in arr])
        else:
            cells.append([spec.categories[i] for i in arr])
    for row in zip(*cells):
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")


# ------------------------------------------------------------------ schema ---

def test_duplicate_column_names_rejected():
    with pytest.raises(SchemaError):
        Schema((ColumnSpec("x", ColumnKind.CONTINUOUS), ColumnSpec("x", ColumnKind.CONTINUOUS)))


def test_categorical_requires_categories():
    with pytest.raises(SchemaError):
        Schema((ColumnSpec("c", ColumnKind.CATEGORICAL),))


def test_duplicate_categories_rejected():
    with pytest.raises(SchemaError):
        Schema((ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("a", "a")),))


def test_bad_bounds_rejected():
    with pytest.raises(SchemaError):
        Schema((ColumnSpec("x", ColumnKind.CONTINUOUS, bounds=(2.0, 1.0)),))


def test_schema_json_round_trip():
    schema = mixed_schema()
    assert schema_from_json_obj(schema_to_json_obj(schema)) == schema


@pytest.mark.parametrize(
    "text",
    [
        '{"columns": [',
        '{"columns": [{"name": "x", "kind": "continuous", "bounds": [-Infinity, Infinity]}]}',
        b'\xff{"columns": []}',
    ],
    ids=["truncated", "infinite-bounds", "not-utf8"],
)
def test_read_schema_bad_document_is_schema_error(tmp_path, text):
    path = tmp_path / "schema.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(SchemaError):
        read_schema(path)


def test_make_dataset_checks_lengths():
    schema = Schema((ColumnSpec("x", ColumnKind.CONTINUOUS), ColumnSpec("y", ColumnKind.CONTINUOUS)))
    with pytest.raises(SchemaError):
        make_dataset(schema, {"x": [1.0, 2.0], "y": [1.0]})


def test_make_dataset_checks_category_codes():
    schema = Schema((ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("a", "b")),))
    with pytest.raises(SchemaError):
        make_dataset(schema, {"c": [0, 2]})


def test_columns_are_immutable():
    ds = mixed_dataset(5)
    with pytest.raises((ValueError, RuntimeError)):
        ds.columns[0][0] = 99.0


# --------------------------------------------------------------------- CSV ---

def test_csv_round_trip_is_bit_exact(tmp_path):
    schema = Schema(
        (
            ColumnSpec("x", ColumnKind.CONTINUOUS),
            ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("low", "high")),
        )
    )
    tricky = [0.1 + 0.2, 1.0 / 3.0, 1e-17, -1.5e300, 0.0, 49.7]
    ds = make_dataset(schema, {"x": tricky, "c": [0, 1, 0, 1, 0, 1]})
    path = tmp_path / "t.csv"
    write_csv(ds, path)
    back = load_csv(path, schema)
    assert np.array_equal(
        back.columns[0].view(np.uint64), ds.columns[0].view(np.uint64)
    ), "continuous values must round-trip to the same 64-bit pattern"
    assert np.array_equal(back.columns[1], ds.columns[1])


def test_csv_quotes_awkward_labels(tmp_path):
    schema = Schema(
        (ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("plain", "a,b", 'say "hi"')),)
    )
    ds = make_dataset(schema, {"c": [0, 1, 2, 1]})
    path = tmp_path / "q.csv"
    write_csv(ds, path)
    back = load_csv(path, schema)
    assert np.array_equal(back.columns[0], ds.columns[0])


def test_csv_header_checked(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("x,wrong\n1.0,2.0\n")
    schema = Schema((ColumnSpec("x", ColumnKind.CONTINUOUS), ColumnSpec("y", ColumnKind.CONTINUOUS)))
    with pytest.raises(HeaderMismatch):
        load_csv(path, schema)


def test_csv_bad_number(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("x\nnot-a-number\n")
    schema = Schema((ColumnSpec("x", ColumnKind.CONTINUOUS),))
    with pytest.raises(CellTypeError):
        load_csv(path, schema)


def test_csv_unknown_category(tmp_path):
    path = tmp_path / "u.csv"
    path.write_text("c\nelsewhere\n")
    schema = Schema((ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("here", "there")),))
    with pytest.raises(UnknownCategory):
        load_csv(path, schema)


def test_csv_missing_value_policies(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("x,c\n1.0,a\n,b\n3.0,a\n")
    schema = Schema(
        (
            ColumnSpec("x", ColumnKind.CONTINUOUS),
            ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("a", "b")),
        )
    )
    with pytest.raises(MissingValue):
        load_csv(path, schema, missing_policy="error")
    ds = load_csv(path, schema, missing_policy="drop_row")
    assert ds.n == 2
    assert ds.columns[0].tolist() == [1.0, 3.0]


def test_csv_bytes_deterministic():
    ds = mixed_dataset(50, seed=3)
    assert dataset_to_csv_bytes(ds) == dataset_to_csv_bytes(ds)


def test_load_csv_unknown_missing_policy_is_config_error(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("x\n1.0\n")
    with pytest.raises(ConfigError, match="missing_policy"):
        load_csv(path, Schema((ColumnSpec("x", ColumnKind.CONTINUOUS),)), missing_policy="ignore")


_FLOAT_CELLS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_LOAD_SCHEMA = Schema(
    (
        ColumnSpec("x", ColumnKind.CONTINUOUS),
        ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("a", "b,c")),
        ColumnSpec("y", ColumnKind.CONTINUOUS),
    )
)
_CELLS = st.sampled_from(
    ["", "1", "-0.0", "2.5e3", " 7", "1_0", "0x1", "nan", "inf", "1e999", "a", "b,c", "A", '"']
)
_NUMBER_CELLS = st.one_of(
    st.sampled_from(["", "1", "-0.0", "2.5e3", " 7", "1_0", "5e-324"]), _FLOAT_CELLS
)
_ROWS = st.one_of(
    st.tuples(_NUMBER_CELLS, st.sampled_from(["", "a", "b,c"]), _NUMBER_CELLS).map(list),
    st.lists(_CELLS, min_size=2, max_size=4),
)


def _load_outcome(path, policy):
    try:
        ds = load_csv(path, _LOAD_SCHEMA, missing_policy=policy)
    except Exception as e:  # the outcome compared is the exception itself
        return type(e), str(e)
    return tuple((c.dtype.str, c.tobytes()) for c in ds.columns)


@settings(max_examples=400, deadline=None)
@given(
    rows=st.lists(_ROWS, max_size=12),
    policy=st.sampled_from(tabular.MISSING_POLICIES),
    block=st.integers(1, 5),
)
def test_load_csv_equals_per_cell_loop(rows, policy, block):
    # the oracle is the per-cell loop over the whole file as one block; the
    # loader under test reads blocks of 1-5 rows, a column at a time
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([list(_LOAD_SCHEMA.names)] + rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.csv"
        path.write_text(buf.getvalue(), encoding="utf-8")
        with mock.patch.object(tabular, "_parse_columns", lambda *args: None):
            expected = _load_outcome(path, policy)
        with mock.patch.object(tabular, "CSV_BLOCK_ROWS", block):
            got = _load_outcome(path, policy)
    assert got == expected


def test_load_csv_parses_clean_blocks_without_the_per_cell_loop(tmp_path):
    # rows with a missing cell are dropped by the column parse itself
    ds = mixed_dataset(300, seed=3)
    header, *lines = dataset_to_csv_bytes(ds).decode().splitlines(keepends=True)
    blank = "," * (len(ds.schema.columns) - 1) + "\n"
    path = tmp_path / "clean.csv"
    path.write_text(header + "".join(line + blank * (i % 50 == 0) for i, line in enumerate(lines)))
    with mock.patch.object(tabular, "CSV_BLOCK_ROWS", 64):
        with mock.patch.object(tabular, "_parse_cells", side_effect=AssertionError("per-cell loop")):
            loaded = load_csv(path, ds.schema, missing_policy="drop_row")
    assert dataset_to_csv_bytes(loaded) == dataset_to_csv_bytes(ds)


@pytest.mark.parametrize(
    "data, row",
    [(b"x,c,y\n1.0,a,\xff\n", None), (b"x,c,y\n1.0,a,2.0\n" + b"3" * 140_000 + b",a,1\n", 2)],
    ids=["not-utf8", "over-field-limit"],
)
def test_load_csv_unreadable_file_is_cell_type_error(tmp_path, data, row):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(CellTypeError) as info:
        load_csv(path, _LOAD_SCHEMA)
    assert info.value.row == row


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=64), header=st.booleans(), policy=st.sampled_from(tabular.MISSING_POLICIES))
def test_load_csv_arbitrary_bytes_return_or_raise_sdg_error(data, header, policy):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.csv"
        path.write_bytes((b"x,c,y\n" if header else b"") + data)
        try:
            load_csv(path, _LOAD_SCHEMA, missing_policy=policy)
        except SdgError:
            pass


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]),
    st.integers(-(2**60), 2**60).map(float),
)
_LABELS = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "\t", "%", "a", "é"]), max_size=4)


@st.composite
def awkward_datasets(draw):
    """1-3 columns, continuous or categorical with awkward labels, and a row
    count up to a few blocks of the block size the test patches in."""
    names = draw(st.lists(_LABELS.filter(bool), min_size=1, max_size=3, unique=True))
    n = draw(st.integers(0, 13))
    columns, values = [], {}
    for name in names:
        if draw(st.booleans()):
            columns.append(ColumnSpec(name, ColumnKind.CONTINUOUS))
            values[name] = draw(st.lists(_FLOATS, min_size=n, max_size=n))
        else:
            cats = tuple(draw(st.lists(_LABELS, min_size=1, max_size=4, unique=True)))
            columns.append(ColumnSpec(name, ColumnKind.CATEGORICAL, categories=cats))
            values[name] = draw(st.lists(st.integers(0, len(cats) - 1), min_size=n, max_size=n))
    return make_dataset(Schema(tuple(columns)), values)


@settings(max_examples=400, deadline=None)
@given(ds=awkward_datasets(), block=st.integers(1, 5))
def test_csv_bytes_equal_row_by_row_writer(ds, block):
    with mock.patch.object(tabular, "CSV_BLOCK_ROWS", block):
        assert dataset_to_csv_bytes(ds) == csv_bytes_by_row(ds)


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
def test_csv_bytes_equal_row_by_row_writer_at_block_boundary(offset):
    n = tabular.CSV_BLOCK_ROWS + offset
    schema = Schema(
        (
            ColumnSpec("x", ColumnKind.CONTINUOUS),
            ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("", "a,b", 'q"', "plain")),
        )
    )
    rng = np.random.default_rng(n)
    x = rng.normal(0.0, 1e3, n)
    x[::7] = np.round(x[::7])
    x[::11] = -0.0
    ds = make_dataset(schema, {"x": x, "c": rng.integers(0, 4, n)})
    assert dataset_to_csv_bytes(ds) == csv_bytes_by_row(ds)


@pytest.mark.parametrize("alone", [True, False], ids=["one-column", "two-column"])
def test_csv_empty_label_quoted_only_when_alone(alone):
    cols = (ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("", "a")),)
    values = {"c": [0, 1, 0]}
    if not alone:
        cols += (ColumnSpec("d", ColumnKind.CATEGORICAL, categories=("",)),)
        values["d"] = [0, 0, 0]
    ds = make_dataset(Schema(cols), values)
    expected = b'c\n""\na\n""\n' if alone else b"c,d\n,\na,\n,\n"
    assert dataset_to_csv_bytes(ds) == expected == csv_bytes_by_row(ds)


def _ulp_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


class _CountingFormat:
    """Stands in for CONTINUOUS_FMT and counts the cells it formats."""

    calls = 0

    def __mod__(self, value):
        self.calls += 1
        return format(value, ".17g")


def test_csv_continuous_cells_equal_format_17g_at_arithmetic_edges():
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64)
    # random signs and mantissas, binary exponents around the fixed-notation range
    fixed_exponents = (rng.integers(1023 - 15, 1023 + 58, 50_000, dtype=np.uint64) << np.uint64(52)) | (
        rng.integers(0, 2**52, 50_000, dtype=np.uint64)
    ) | (rng.integers(0, 2, 50_000, dtype=np.uint64) << np.uint64(63))
    # i + odd / 2**q has q fraction digits, the last a 5; with 18 - q integer
    # digits it lies exactly halfway between two 17-digit decimals
    ties = [
        (int(i) * 2**q + 2 * int(n) + 1) / 2**q
        for q in range(3, 18)
        for i, n in zip(rng.integers(10 ** (17 - q), 10 ** (18 - q), 100), rng.integers(0, 2 ** (q - 1), 100))
    ]
    edges = np.concatenate(
        [
            _ulp_neighbours([1e-4, 1e17]),
            _ulp_neighbours([float(f"1e{i}") for i in range(-6, 19)]),
            _ulp_neighbours(2.0**53 + np.arange(-4.0, 5.0)),
            [1 + 2**-17, 1 + 3 * 2**-17, 0.0, 5e-324, 2.2250738585072014e-308],
            ties,
        ]
    )
    values = np.concatenate([edges, -edges, bits.view(np.float64), fixed_exponents.view(np.float64)])
    values = values[np.isfinite(values)]
    ds = make_dataset(Schema((ColumnSpec("x", ColumnKind.CONTINUOUS),)), {"x": values})
    fmt = _CountingFormat()
    with mock.patch.object(tabular, "CONTINUOUS_FMT", fmt):
        got = dataset_to_csv_bytes(ds)
    assert got == ("x\n" + "".join(format(v, ".17g") + "\n" for v in values.tolist())).encode()
    assert b"\n1.0000076293945312\n1.0000228881835938\n" in got  # ties to even
    outside = np.abs(values)
    assert fmt.calls == np.count_nonzero((outside < 1e-4) | (outside >= 1e17))


def test_csv_multibyte_labels_equal_row_by_row_writer():
    labels = ("é", "€", "😀", "a,é", '"€"', " 😀 ", "", "plain", "x\ny", "%s")
    schema = Schema(
        (
            ColumnSpec("ü", ColumnKind.CATEGORICAL, categories=labels),
            ColumnSpec("x", ColumnKind.CONTINUOUS),
            ColumnSpec("€,😀", ColumnKind.CATEGORICAL, categories=labels[::-1]),
        )
    )
    rng = np.random.default_rng(5)
    n = 500
    ds = make_dataset(
        schema,
        {"ü": rng.integers(0, 10, n), "x": rng.normal(0.0, 10.0, n), "€,😀": rng.integers(0, 10, n)},
    )
    assert dataset_to_csv_bytes(ds) == csv_bytes_by_row(ds)


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
def test_csv_block_boundary_round_trip(tmp_path, offset):
    # the writer's and the loader's blocks end at the same row; cells the
    # fixed-notation kernel formats and cells it leaves to CONTINUOUS_FMT
    # sit on both sides of that row
    n = tabular.CSV_BLOCK_ROWS + offset
    rng = np.random.default_rng(n)
    x = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-6, 19, n)
    x[tabular.CSV_BLOCK_ROWS - 3 :] = [5e-324, 123.5, -0.0, 1e17][: 3 + offset]
    ds = make_dataset(_LOAD_SCHEMA, {"x": x, "c": rng.integers(0, 2, n), "y": -x})
    data = dataset_to_csv_bytes(ds)
    assert data == csv_bytes_by_row(ds)
    path = tmp_path / "b.csv"
    path.write_bytes(data)
    assert dataset_to_csv_bytes(load_csv(path, _LOAD_SCHEMA)) == data


def test_csv_long_labels_shrink_the_block():
    schema = Schema(
        (
            ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("a", "é" * 3_000)),
            ColumnSpec("x", ColumnKind.CONTINUOUS),
        )
    )
    ds = make_dataset(schema, {"c": [0, 1, 0, 0, 1, 1, 0], "x": np.arange(7) / 3})
    with mock.patch.object(tabular, "_BLOCK_BYTES", 20_000), mock.patch.object(
        tabular, "_padded_lines", wraps=tabular._padded_lines
    ) as blocks:
        assert dataset_to_csv_bytes(ds) == csv_bytes_by_row(ds)
    assert [len(call.args[0][0]) for call in blocks.call_args_list] == [3, 3, 1]


# ------------------------------------------------------------------ encode ---

def test_encoded_width_formula():
    # one 3-level + one 4-level categorical: (3-1) + (4-1) = 5
    schema = Schema(
        (
            ColumnSpec("c3", ColumnKind.CATEGORICAL, categories=("a", "b", "c")),
            ColumnSpec("c4", ColumnKind.CATEGORICAL, categories=("p", "q", "r", "s")),
        )
    )
    assert encoded_width(schema) == 5
    assert encoded_width(mixed_schema()) == 2 + 2 + 1  # 2 continuous + (3-1) + (2-1)


def test_encode_dummy_and_standardize():
    schema = Schema(
        (
            ColumnSpec("x", ColumnKind.CONTINUOUS),
            ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("a", "b", "c")),
        )
    )
    a = make_dataset(schema, {"x": [0.0, 2.0], "c": [0, 1]})
    b = make_dataset(schema, {"x": [4.0, 6.0], "c": [2, 1]})
    m = encode(a, b)
    assert m.shape == (4, 4)
    assert m[:, 0].tolist() == [1.0] * 4  # intercept
    # x has mean 3, population sd sqrt(5) over both datasets
    sd = np.sqrt(5.0)
    assert np.allclose(m[:, 1], (np.array([0.0, 2.0, 4.0, 6.0]) - 3.0) / sd)
    assert m[:, 2].tolist() == [0.0, 1.0, 0.0, 1.0]  # indicator for "b"
    assert m[:, 3].tolist() == [0.0, 0.0, 1.0, 0.0]  # indicator for "c"


def test_encode_flags_zero_variance():
    schema = Schema((ColumnSpec("x", ColumnKind.CONTINUOUS),))
    one = make_dataset(schema, {"x": [5.0, 5.0]})
    m = encode(one, make_dataset(schema, {"x": [5.0]}))
    assert m.shape == (3, 2)
    assert np.all(m[:, 1] == 0.0)  # a constant column carries no signal


def test_encode_stacks_rows():
    a = mixed_dataset(4, seed=0)
    b = mixed_dataset(6, seed=1)
    m = encode(a, b)
    assert m.shape == (10, 1 + encoded_width(a.schema))
    income = np.concatenate([a.column("income"), b.column("income")])
    assert np.array_equal(m[:, 2], (income - income.mean()) / income.std())
    region = np.concatenate([a.column("region"), b.column("region")])
    assert np.array_equal(m[:4, 3], (a.column("region") == 1).astype(float))
    assert np.array_equal(m[4:, 4], (b.column("region") == 2).astype(float))
    assert np.array_equal(m[:, 3] + m[:, 4], (region > 0).astype(float))


def test_encode_requires_same_schema():
    a = mixed_dataset(3)
    b = make_dataset(
        Schema((ColumnSpec("x", ColumnKind.CONTINUOUS),)), {"x": [1.0]}
    )
    with pytest.raises(SchemaError):
        encode(a, b)


# ------------------------------------------------------------------- Gower ---

def test_gower_hand_case():
    # continuous differs by 5 over range 10 -> 0.5; categorical equal -> 0
    schema = Schema(
        (
            ColumnSpec("x", ColumnKind.CONTINUOUS),
            ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("a", "b")),
        )
    )
    ranges = ((0.0, 10.0), None)
    assert gower_distance([0.0, 1], [5.0, 1], schema, ranges) == pytest.approx(0.25)
    assert gower_distance([0.0, 0], [5.0, 1], schema, ranges) == pytest.approx(0.75)


def test_gower_degenerate_range_counts_zero():
    schema = Schema((ColumnSpec("x", ColumnKind.CONTINUOUS),))
    assert gower_distance([3.0], [9.0], schema, ((4.0, 4.0),)) == 0.0


def test_gower_pseudometric_properties():
    rng = np.random.default_rng(11)
    ds = mixed_dataset(30, seed=1)
    ranges = column_ranges(ds)
    rows = [tuple(col[i] for col in ds.columns) for i in range(ds.n)]
    schema = ds.schema
    for _ in range(200):
        a, b, c = (rows[i] for i in rng.integers(0, len(rows), 3))
        dab = gower_distance(a, b, schema, ranges)
        dba = gower_distance(b, a, schema, ranges)
        assert dab == pytest.approx(dba)
        assert 0.0 <= dab <= 1.0
        assert gower_distance(a, a, schema, ranges) == 0.0
        assert dab <= gower_distance(a, c, schema, ranges) + gower_distance(c, b, schema, ranges) + 1e-12


def test_column_ranges_bounds_win():
    schema = Schema(
        (
            ColumnSpec("x", ColumnKind.CONTINUOUS, bounds=(0.0, 100.0)),
            ColumnSpec("y", ColumnKind.CONTINUOUS),
            ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("a", "b")),
        )
    )
    ds = make_dataset(schema, {"x": [10.0, 20.0], "y": [1.0, 4.0], "c": [0, 1]})
    assert column_ranges(ds) == ((0.0, 100.0), (1.0, 4.0), None)
