"""Typed tabular container: schema, CSV round trip, encoding, Gower distance."""
import csv
import io
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_encode, filled, gower_distance, mixed_dataset, mixed_schema
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
    Dataset,
    Schema,
    column_ranges,
    csv_chunks,
    dataset_to_csv_bytes,
    encode,
    encoded_width,
    load_csv,
    make_dataset,
    read_schema,
    row_codes,
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


def test_constructor_and_make_dataset_copy_the_callers_arrays():
    schema = Schema(
        (ColumnSpec("x", ColumnKind.CONTINUOUS), ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("a", "b")))
    )
    x, c = np.array([1.0, 2.0, 3.0]), np.array([0, 1, 0])
    built = [Dataset(schema, (x, c)), make_dataset(schema, {"x": x, "c": c})]
    x[:] = 9.0
    c[:] = 1
    for ds in built:
        assert ds.column("x").tolist() == [1.0, 2.0, 3.0] and ds.column("c").tolist() == [0, 1, 0]
        assert x.flags.writeable and c.flags.writeable


def assert_read_only(ds):
    for name, column in zip(ds.schema.names, ds.columns):
        assert not column.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            column[:1] = column[:1]


def test_take_restrict_and_load_csv_columns_are_read_only(tmp_path):
    ds = mixed_dataset(40)
    write_csv(ds, tmp_path / "t.csv")
    loaded = load_csv(tmp_path / "t.csv", ds.schema)
    for derived in (ds.take(np.arange(0, 40, 3)), ds.restrict(ds.schema.names[1:]), loaded):
        assert_read_only(derived)


def test_adopt_checks_as_the_constructor_does():
    schema = Schema((ColumnSpec("x", ColumnKind.CONTINUOUS), ColumnSpec("y", ColumnKind.CONTINUOUS)))
    bad = [
        [np.array([1.0])],
        [np.array([1.0, np.inf]), np.array([1.0, 2.0])],
        [np.array([1.0, 2.0]), np.array([1.0])],
        [np.ones((2, 1)), np.ones((2, 1))],
    ]
    for columns in bad:
        for build in (Dataset, Dataset._adopt):
            with pytest.raises(SchemaError):
                build(schema, columns)
    fresh = [np.array([1.0, 2.0]), np.array([3, 4])]
    adopted = Dataset._adopt(schema, fresh)
    assert adopted.columns[0] is fresh[0]  # frozen in place, not copied
    assert adopted.columns[1].dtype == np.float64
    assert all(np.array_equal(a, b) for a, b in zip(adopted.columns, Dataset(schema, fresh).columns))
    assert_read_only(adopted)


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
_HUGE_NUMBER = "0." + "0" * 139_998 + "1"  # finite, and over the csv field size limit
# "\udcff" is written as the byte 0xFF, which is not UTF-8
_CELLS = st.sampled_from(
    ["", "1", "-0.0", "2.5e3", " 7", "1_0", "0x1", "nan", "inf", "1e999", "a", "b,c", "A", '"']
    + ["\udcff", _HUGE_NUMBER]
)
_NUMBER_CELLS = st.one_of(
    st.sampled_from(["", "1", "-0.0", "2.5e3", " 7", "1_0", "5e-324"]), _FLOAT_CELLS
)
_ROWS = st.one_of(
    st.tuples(_NUMBER_CELLS, st.sampled_from(["", "a", "b,c"]), _NUMBER_CELLS).map(list),
    st.lists(_CELLS, min_size=2, max_size=4),
)


def _not_plain(fh, schema, parts, drop):
    """_plain_parts of a file whose header is not plain: the csv module's
    reader reads it all."""
    return 0


def _load_outcome(path, policy, schema=_LOAD_SCHEMA):
    try:
        ds = load_csv(path, schema, missing_policy=policy)
    except Exception as e:  # the outcome compared is the exception itself
        return type(e), str(e)
    return tuple((c.dtype.str, c.tobytes()) for c in ds.columns)


@settings(max_examples=400, deadline=None)
@given(
    rows=st.lists(_ROWS, max_size=12),
    policy=st.sampled_from(tabular.MISSING_POLICIES),
    block=st.integers(1, 5),
)
def test_load_csv_outcome_does_not_depend_on_csv_block_rows(rows, policy, block):
    # the oracle is the csv module's reader with the per-cell loop over the
    # whole file as one block; read in blocks of 1-5 rows, the file must give
    # the same columns and name the same first fault, a bad byte or a cell
    # over the field size limit included
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([list(_LOAD_SCHEMA.names)] + rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.csv"
        path.write_text(buf.getvalue(), encoding="utf-8", errors="surrogateescape")
        with mock.patch.object(tabular, "_plain_parts", _not_plain):
            expected = _load_outcome(path, policy)
        with mock.patch.object(tabular, "_plain_parts", _not_plain), mock.patch.object(
            tabular, "CSV_BLOCK_ROWS", block
        ):
            got = _load_outcome(path, policy)
    assert got == expected


def test_load_csv_parses_clean_blocks_without_the_per_cell_loop(tmp_path):
    # rows with a missing cell, empty or "", are dropped by the plain path
    # itself, in CRLF and LF blocks alike
    ds = mixed_dataset(300, seed=3)
    header, *lines = dataset_to_csv_bytes(ds).decode().splitlines(keepends=True)
    gaps = {0: "," * (len(ds.schema.columns) - 1) + "\n", 25: '""' + lines[0][lines[0].index(","):]}
    text = header + "".join(line + gaps.get(i % 50, "") for i, line in enumerate(lines))
    path = tmp_path / "clean.csv"
    path.write_bytes(text.encode()[:4_000] + text.encode()[4_000:].replace(b"\n", b"\r\n"))
    with mock.patch.object(tabular, "_PLAIN_BLOCK_BYTES", 1_024):
        with mock.patch.object(tabular, "_records", side_effect=AssertionError("csv module reader")):
            loaded = load_csv(path, ds.schema, missing_policy="drop_row")
    assert dataset_to_csv_bytes(loaded) == dataset_to_csv_bytes(ds)


# Raw CSV texts for the plain path: clean rows with a few odd cells, line
# ends and headers put in, so that each check of the plain path meets a file
# it must refuse, and each shape it now takes meets a case it must still
# refuse. Labels are prefixes of each other, "abc" and "a,b" are the longest
# plain ones (cells of 4 characters and more are wider than numpy's cells),
# and categories hold what a plain cell can never be: "", a NUL ("z\x00",
# which numpy would read as "z", and "y", which "y\x00" would read as), a
# quote, U+FFFD (what a byte that is not UTF-8 decodes to when errors are
# replaced).
_PLAIN_SCHEMA = Schema(
    (
        ColumnSpec("x", ColumnKind.CONTINUOUS),
        ColumnSpec(
            "c",
            ColumnKind.CATEGORICAL,
            categories=("ab", "a", "abc", "", "é١", "nan", "z\x00", "y", '"q"', "q", "\ufffd", "a,b"),
        ),
        ColumnSpec("y", ColumnKind.CONTINUOUS),
    )
)
_COMMA_SCHEMA = Schema(_PLAIN_SCHEMA.columns[:2] + (ColumnSpec("y,z", ColumnKind.CONTINUOUS),))
_ODD_CELLS = [
    "nan", "inf", "-inf", "1e999", "0x1", "1_0", "١", "", " ", "1 2", "e", ".", "+", "-", "1e",
    _HUGE_NUMBER, "1\x00", '"1"', "1\r", "\x0b7", "7\x1c", "\x857", "\u20287", "\xa07\u3000",
    "z", "z\x00", "y\x00", "abc", "abcd", "abcé", " a", "a ", '"q"', "q", "A", "é", '"a,b"', "a,b",
    "\ufffd", "x, c", "\ufeffx", '"a"', '"1.5"', '"a,b"', '""', '"a""b"', '"a"b', ' "a"', '"a\nb"',
    '"a"\r', '"1\r"', '"',
]
_CLEAN_CELLS = (
    st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr), st.sampled_from(["1", "-0.0", " 7"])),
    st.sampled_from(["a", "ab", "abc", "é١", "nan", '"a,b"']),
    st.sampled_from(["2.5e3", "7\t", "5e-324", "+.5", "-1"]),
)
_ODD_LINE_ENDS = ["\n\n", "\r\n", "\r", "", "\n", "\r\r\n"]


@st.composite
def raw_csv_bytes(draw):
    """(schema, file bytes): clean rows with LF or CRLF line ends, then a few
    odd cells, line ends or header cells put in; now and then a byte that is
    not UTF-8."""
    schema = draw(st.sampled_from([_PLAIN_SCHEMA] * 9 + [_COMMA_SCHEMA]))
    n = draw(st.integers(0, 10))
    lines = [list(schema.names)] + [[draw(cells) for cells in _CLEAN_CELLS] for _ in range(n)]
    ends = [draw(st.sampled_from(["\n", "\r\n"]))] * len(lines)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, n))
        if draw(st.booleans()):
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(st.sampled_from(_ODD_CELLS))
        else:
            ends[i] = draw(st.sampled_from(_ODD_LINE_ENDS))
    data = "".join(",".join(line) + end for line, end in zip(lines, ends)).encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return schema, data


@settings(max_examples=600, deadline=None)
@given(
    raw=raw_csv_bytes(),
    policy=st.sampled_from(tabular.MISSING_POLICIES),
    block=st.one_of(st.integers(1, 80), st.just(tabular._PLAIN_BLOCK_BYTES)),
)
def test_load_csv_equals_csv_module_reader_on_raw_texts(raw, policy, block):
    # block cuts fall everywhere, blank lines included
    _assert_loads_as_csv_module_reader(*raw, policy, block)


_HEADER = b"x,c,y\n"
# one column, so that a quoted line break leaves every line one cell
_LINE_BREAK_SCHEMA = Schema((ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("a\nbc", "a")),))


@pytest.mark.parametrize("policy", tabular.MISSING_POLICIES)
@pytest.mark.parametrize(
    "schema, data, block",
    [
        (_PLAIN_SCHEMA, _HEADER + b'1,"q",2\n', None),
        (_PLAIN_SCHEMA, b"x,c,y\r\n1,a,2\r\n", None),
        (_PLAIN_SCHEMA, _HEADER + b"1,a\r2,3\n", None),
        (_PLAIN_SCHEMA, _HEADER + b"1,y\x00,2\n", None),
        (_PLAIN_SCHEMA, _HEADER + b"1,z,2\n", None),
        (_PLAIN_SCHEMA, _HEADER + b"1,,2\n", None),
        (_PLAIN_SCHEMA, _HEADER + b"1,abcd,2\n", None),
        (_PLAIN_SCHEMA, _HEADER + _HUGE_NUMBER.encode() + b",a,1\n", None),
        (_COMMA_SCHEMA, b"x,c,y,z\n1,a,2\n", None),
        (_PLAIN_SCHEMA, _HEADER + b"1,\xff,2\n", None),
        (_PLAIN_SCHEMA, _HEADER + b"nan,a,1\n", None),
        (_PLAIN_SCHEMA, _HEADER + b"7\x1c,a,2\n1,a,\x1f2\n", None),
        (_PLAIN_SCHEMA, _HEADER + b"1,a,2\n\n3,a,4\n", len(_HEADER + b"1,a,2\n")),
        (_LINE_BREAK_SCHEMA, b'c\n"a\nbc"\nzz\n', len(b'"a\nbc"\n')),
    ],
    ids=["quoted-label", "crlf", "cr", "nul", "nul-trimmed-label", "empty-label", "wider-than-cells",
         "over-field-limit", "comma-in-name", "not-utf8", "nan", "separator-control-bytes",
         "blank-line-at-block-cut", "quoted-line-break-in-one-column"],
)
def test_load_csv_equals_csv_module_reader_on_files_that_are_not_plain(schema, data, block, policy):
    _assert_loads_as_csv_module_reader(schema, data, policy, block or tabular._PLAIN_BLOCK_BYTES)


def _assert_loads_as_csv_module_reader(schema, data, policy, block):
    """load_csv, reading plain files in blocks of about `block` bytes, gives
    the columns, or the exception, of the csv module's reader."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw.csv"
        path.write_bytes(data)
        with mock.patch.object(tabular, "_plain_parts", _not_plain):
            expected = _load_outcome(path, policy, schema)
        with mock.patch.object(tabular, "_PLAIN_BLOCK_BYTES", block):
            got = _load_outcome(path, policy, schema)
    assert got == expected


@pytest.mark.parametrize("data", [b",a,2\n", b"1,,2\n", b"1,a,\n", b"1,a,2\n1,a,\n3,a,4\n"])
def test_load_csv_refuses_a_block_with_an_empty_cell_before_parsing_it(tmp_path, data):
    # numpy would refuse such a block only after parsing the cells before the
    # empty one; under "error" the per-cell loop names it
    path = tmp_path / "gaps.csv"
    path.write_bytes(_HEADER + data)
    with mock.patch.object(tabular, "_plain_parts", _not_plain):
        expected = _load_outcome(path, "error", _PLAIN_SCHEMA)
    with mock.patch.object(tabular, "_plain_block", side_effect=AssertionError("parsed")):
        assert _load_outcome(path, "error", _PLAIN_SCHEMA) == expected


_FIXTURE_SCHEMA = Schema(
    (
        ColumnSpec("age", ColumnKind.CONTINUOUS),
        ColumnSpec("income", ColumnKind.CONTINUOUS),
        ColumnSpec("score", ColumnKind.CONTINUOUS),
        ColumnSpec("region", ColumnKind.CATEGORICAL, categories=("north", "south", "east", "west")),
        ColumnSpec("status", ColumnKind.CATEGORICAL, categories=("single", "married", "divorced", "widowed")),
        ColumnSpec("grade", ColumnKind.CATEGORICAL, categories=tuple(f"g{i}" for i in range(1, 9))),
    )
)


def _repr_float_csv(n, seed=0):
    """A dataset and its file, formatted like the benchmark fixture: repr
    floats rounded like recorded data, short labels."""
    rng = np.random.default_rng(seed)
    continuous = [
        np.round(rng.uniform(18, 70, n), 1),
        np.round(rng.uniform(20_000, 100_000, n), 2),
        np.round(rng.normal(50, 10, n), 3),
    ]
    codes = [rng.integers(0, len(spec.categories), n) for spec in _FIXTURE_SCHEMA.columns[3:]]
    ds = Dataset(_FIXTURE_SCHEMA, continuous + codes)
    cells = [[repr(v) for v in col.tolist()] for col in continuous]
    cells += [[spec.categories[i] for i in col.tolist()] for spec, col in zip(_FIXTURE_SCHEMA.columns[3:], codes)]
    text = ",".join(_FIXTURE_SCHEMA.names) + "\n" + "".join(",".join(row) + "\n" for row in zip(*cells))
    return ds, text.encode("utf-8")


@pytest.mark.parametrize("writer", ["dataset_to_csv_bytes", "repr", "crlf-comma-label"])
def test_plain_files_load_without_the_csv_module_reader(tmp_path, writer):
    if writer == "repr":
        ds, data = _repr_float_csv(3_000)
    else:
        ds = mixed_dataset(3_000, seed=4)
        if writer == "crlf-comma-label":
            region = ColumnSpec("region", ColumnKind.CATEGORICAL, categories=("north", "south, coast", "east"))
            ds = Dataset(Schema(ds.schema.columns[:2] + (region,) + ds.schema.columns[3:]), ds.columns)
        data = dataset_to_csv_bytes(ds)
    if writer == "crlf-comma-label":
        data = data.replace(b"\n", b"\r\n")
    path = tmp_path / "plain.csv"
    path.write_bytes(data)
    with mock.patch.object(tabular, "_PLAIN_BLOCK_BYTES", 4_096), mock.patch.object(
        tabular, "_records", side_effect=AssertionError("csv module reader")
    ):
        loaded = load_csv(path, ds.schema)
    assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(loaded.columns, ds.columns))


@pytest.mark.parametrize("policy", tabular.MISSING_POLICIES)
@pytest.mark.parametrize(
    "line, plain_under",
    [
        (b"1,,2,east,single,g1\n", ("drop_row",)),
        (b'1,2,3,"east",single,g1\n', tabular.MISSING_POLICIES),
        (b"1,2,3,east,single,g1\r\n", tabular.MISSING_POLICIES),
        (b"1,2,3,east,single,g1\r", ()),
        (b'1,2,3,"ea""st",single,g1\n', ()),
        (b'1,2,3,"ea"st,single,g1\n', ()),
        (b"1,2,3,East,single,g1\n", ()),
        (b"1,2,x,east,single,g1\n", ()),
        (b"1,2,3,east,single\n", ()),
    ],
    ids=["empty-cell", "quoted-label", "crlf", "lone-cr", "doubled-quote", "quote-inside-cell", "unknown-label",
         "bad-number", "short-line"],
)
def test_load_csv_reads_from_the_first_block_that_is_not_plain(tmp_path, line, plain_under, policy):
    # a file plain but for one line near its end: numpy's reader takes the
    # blocks before that line's, and the csv module's reader only the rest;
    # a line numpy's reader takes under the policy leaves it all to numpy
    _, data = _repr_float_csv(3_000, seed=2)
    lines = data.splitlines(keepends=True)
    path = tmp_path / "late.csv"
    path.write_bytes(b"".join(lines[:2_900] + [line] + lines[2_900:]))
    with mock.patch.object(tabular, "_plain_parts", _not_plain):
        expected = _load_outcome(path, policy, _FIXTURE_SCHEMA)
    records = []
    read_records = tabular._records

    def counted_records(fh, row=0):
        for record in read_records(fh, row):
            records.append(record)
            yield record

    with mock.patch.object(tabular, "_PLAIN_BLOCK_BYTES", 4_096), mock.patch.object(
        tabular, "_records", counted_records
    ):
        got = _load_outcome(path, policy, _FIXTURE_SCHEMA)
    assert got == expected
    if policy in plain_under:
        assert records == []
    else:
        assert 0 < len(records) < 300  # of 3,002 records, the header first


# The csv module's reader peaked at 11.3 MB under tracemalloc loading the
# benchmark's 100k-row fixture, and peaks at 11.8 MB on the files below
# (Python 3.11.7, numpy 2.4.6); the plain path reads the LF file in 7.2 MB
# and its CRLF, quoted copy in 7.5 MB, for 4.8 MB of loaded columns.
_RECORD_READER_PEAK_BYTES = 11_300_000


@pytest.mark.parametrize("crlf_quoted", [False, True], ids=["lf", "crlf-quoted"])
def test_load_csv_of_a_plain_file_peaks_below_the_csv_module_reader(tmp_path, crlf_quoted):
    _, data = _repr_float_csv(100_000, seed=1)
    if crlf_quoted:  # a spreadsheet's export: CRLF line ends, labels and header quoted
        header, *rows = csv.reader(io.StringIO(data.decode()))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n", quoting=csv.QUOTE_NONNUMERIC)
        writer.writerow(header)
        writer.writerows([float(cell) for cell in row[:3]] + row[3:] for row in rows)
        data = buf.getvalue().encode()
    path = tmp_path / "plain100k.csv"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        loaded = load_csv(path, _FIXTURE_SCHEMA)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _RECORD_READER_PEAK_BYTES
    # the columns are never all held twice, as block parts and as their join
    # (2.0 times their bytes when they were): once, plus one block's parse
    assert peak <= 1.6 * sum(column.nbytes for column in loaded.columns)


@pytest.mark.parametrize(
    "data, row",
    [
        (b"x,c,y\n1.0,a,\xff\n", 1),
        (b"x,c,y\n" + b"1.0,a,2.0\n" * 2_000 + b'"1.0",a,\xff\n', 2_001),
        (b"x,c,y\n1.0,a,2.0\n" + b"3" * 140_000 + b",a,1\n", 2),
        (b"x,c,y\n" + b"1.0,a,2.0\n" * 40_000 + b"1.0,a,\xff\n", 40_001),
        (b"x,c,y\n" + b"1.0,a,2.0\n" * 40_000 + b"3" * 140_000 + b",a,1\n", 40_001),
        (b"x,c\xff,y\n1.0,a,2.0\n", 0),
    ],
    ids=["not-utf8", "not-utf8-past-8k", "over-field-limit", "not-utf8-past-a-plain-block",
         "over-field-limit-past-a-plain-block", "not-utf8-in-header"],
)
def test_load_csv_unreadable_file_is_cell_type_error(tmp_path, data, row):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(CellTypeError) as info:
        load_csv(path, _LOAD_SCHEMA)
    assert info.value.row == row


def _outcome_and_reader_starts(path, schema):
    """_load_outcome of the file, and the row at which each read of the csv
    module's reader began."""
    starts = []
    read_records = tabular._records

    def records_from(fh, row=0):
        starts.append(row)
        return read_records(fh, row)

    with mock.patch.object(tabular, "_records", records_from):
        return _load_outcome(path, "error", schema), starts


def _as_loaded(ds):
    return tuple((c.dtype.str, c.tobytes()) for c in ds.columns)


def test_load_csv_hands_a_column_of_nul_labels_to_the_csv_module_reader(tmp_path):
    # numpy drops a label's trailing NULs, so a column whose every label
    # holds one has no label to read plain, and the csv module's reader
    # reads the whole file
    schema = Schema(
        (
            ColumnSpec("x", ColumnKind.CONTINUOUS),
            ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("a\x00", "\x00b")),
        )
    )
    ds = make_dataset(schema, {"x": np.arange(5.0), "c": ["a\x00", "\x00b", "a\x00", "a\x00", "\x00b"]})
    path = tmp_path / "nul.csv"
    write_csv(ds, path)
    assert _outcome_and_reader_starts(path, schema) == (_as_loaded(ds), [0])


def test_load_csv_hands_a_line_no_block_holds_to_the_csv_module_reader(tmp_path):
    # a 300,000-byte cell runs on past a whole block beyond the field size
    # limit, so the block reader gives None for it and the csv module's
    # reader, from its row on, names it
    path = tmp_path / "huge.csv"
    path.write_bytes(b"x,c,y\n1.0,a,2.0\n" + b"3" * 300_000 + b",a,1\n")
    gave_none = []
    line_blocks = tabular._line_blocks

    def recorded_blocks(fh, limit):
        for block in line_blocks(fh, limit):
            gave_none.append(block is None)
            yield block

    with mock.patch.object(tabular, "_line_blocks", recorded_blocks):
        (error, message), starts = _outcome_and_reader_starts(path, _LOAD_SCHEMA)
    assert gave_none == [False, True]
    assert starts == [2]
    assert error is CellTypeError
    assert message == "row 2: field larger than field limit (131072)"


def test_load_csv_hands_rows_too_wide_for_a_block_to_the_csv_module_reader(tmp_path):
    # numpy's cells for a 20,000-character label take 80 kB a row, so a
    # block of short lines would pass _BLOCK_BYTES once parsed, and the
    # csv module's reader reads the file from row 1
    schema = Schema(
        (
            ColumnSpec("x", ColumnKind.CONTINUOUS),
            ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("a", "b", "L" * 20_000)),
        )
    )
    rng = np.random.default_rng(4)
    ds = make_dataset(schema, {"x": rng.standard_normal(20_000), "c": list(rng.choice(["a", "b"], 20_000))})
    path = tmp_path / "wide.csv"
    write_csv(ds, path)
    assert _outcome_and_reader_starts(path, schema) == (_as_loaded(ds), [1])


def _lines_with(n, faults):
    """A file of n rows of _LOAD_SCHEMA, with the line of each row in
    `faults` (header is row 0) replaced."""
    lines = [b"x,c,y\n"] + [b"1.0,a,2.0\n"] * n
    for row, line in faults.items():
        lines[row] = line
    return b"".join(lines)


_MISSING_THEN_BAD_BYTE = _lines_with(40_000, {30_000: b"1.0,a,\n", 33_600: b"1.0,a,\xff\n"})
_UNKNOWN_THEN_LONG_CELL = _lines_with(8_000, {100: b"1.0,zz,2.0\n", 5_000: b"3" * 140_000 + b",a,1\n"})
# the missing cell is in the first plain block, the bad byte past it
_DROPPED_THEN_BAD_BYTE = _lines_with(40_000, {100: b"1.0,a,\n", 33_600: b"1.0,a,\xff\n"})


@pytest.mark.parametrize(
    "data, policy, error, row",
    [
        (_MISSING_THEN_BAD_BYTE, "error", MissingValue, 30_000),
        (_MISSING_THEN_BAD_BYTE, "drop_row", CellTypeError, 33_600),
        (_DROPPED_THEN_BAD_BYTE, "drop_row", CellTypeError, 33_600),
        (_UNKNOWN_THEN_LONG_CELL, "error", UnknownCategory, 100),
        (_UNKNOWN_THEN_LONG_CELL, "drop_row", UnknownCategory, 100),
        (_lines_with(3, {2: b"1.0,,\xff\n"}), "drop_row", CellTypeError, 2),
        (_lines_with(3, {2: b"\xff,a,\n", 3: b"1.0,zz,2.0\n"}), "drop_row", CellTypeError, 2),
    ],
    ids=["missing-before-bad-byte", "dropped-missing-before-bad-byte", "dropped-in-a-plain-block-before-bad-byte",
         "unknown-label-before-long-cell",
         "unknown-label-before-long-cell-drop-row", "bad-byte-in-a-dropped-row",
         "bad-byte-in-a-dropped-row-before-a-fault"],
)
def test_load_csv_names_the_first_faulty_record_in_file_order(tmp_path, data, policy, error, row):
    # a byte that is not UTF-8 is a fault of its record, wherever the text
    # layer's read-ahead or the plain path's hand-over falls
    path = tmp_path / "faults.csv"
    path.write_bytes(data)
    with pytest.raises(error) as info:
        load_csv(path, _LOAD_SCHEMA, missing_policy=policy)
    assert info.value.row == row


@pytest.mark.parametrize(
    "spec",
    [
        lambda: ColumnSpec("x\udcff", ColumnKind.CONTINUOUS),
        lambda: ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("a", "\udc80")),
    ],
    ids=["name", "label"],
)
def test_names_and_labels_with_a_lone_surrogate_are_schema_errors(spec):
    # a byte that is not UTF-8 reads as a lone surrogate, so no label may equal one
    with pytest.raises(SchemaError, match="UTF-8"):
        spec()


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


def _block_datasets(n):
    rng = np.random.default_rng(n)
    two = make_dataset(
        Schema(
            (
                ColumnSpec("x", ColumnKind.CONTINUOUS),
                ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("", "a,b", 'q"')),
            )
        ),
        {"x": rng.normal(0.0, 1e3, n) * 10.0 ** rng.integers(-6, 19, n), "c": rng.integers(0, 3, n)},
    )
    alone = make_dataset(
        Schema((ColumnSpec("e", ColumnKind.CATEGORICAL, categories=("", "z")),)),
        {"e": rng.integers(0, 2, n)},
    )
    wide = make_dataset(
        Schema(
            (
                ColumnSpec("w", ColumnKind.CATEGORICAL, categories=("s", "é" * 50 + ",")),
                ColumnSpec("x", ColumnKind.CONTINUOUS),
            )
        ),
        {"w": rng.integers(0, 2, n), "x": rng.uniform(-1.0, 1.0, n)},
    )
    return {"two-column": two, "one-column-empty-label": alone, "wide-label": wide}


@pytest.mark.parametrize("n", [0, 1, 8_191, 8_192, 8_193, 20_000])
def test_csv_row_blocks_join_to_the_whole_file(n):
    assert tabular.CSV_BLOCK_ROWS == 8_192  # the sizes above sit around one block
    # the wide labels make the writer's own blocks shorter than a row block,
    # so their edges fall inside the row blocks
    with mock.patch.object(tabular, "_BLOCK_BYTES", 1 << 18), mock.patch.object(
        tabular, "_padded_lines", wraps=tabular._padded_lines
    ) as blocks:
        for name, ds in _block_datasets(n).items():
            blocks.reset_mock()
            whole = dataset_to_csv_bytes(ds)
            assert b"".join(csv_chunks(ds)) == whole == csv_bytes_by_row(ds), name
    rows = [len(call.args[0][0]) for call in blocks.call_args_list]
    assert max(rows, default=0) == min(n, 1_759)  # 2**18 // (1 + 103 + 1 + 44) bytes a row


@settings(max_examples=200, deadline=None)
@given(ds=awkward_datasets(), cut=st.integers(1, 14), block=st.integers(1, 5))
def test_csv_rows_split_anywhere_join_to_the_whole_file(ds, cut, block):
    # only the block that starts at row 0 holds the header
    with mock.patch.object(tabular, "CSV_BLOCK_ROWS", block):
        head, tail = dataset_to_csv_bytes(ds, 0, cut), dataset_to_csv_bytes(ds, cut)
        assert head + tail == dataset_to_csv_bytes(ds) == csv_bytes_by_row(ds)
    assert dataset_to_csv_bytes(ds, 0, 0) == csv_bytes_by_row(ds.take(np.arange(0)))


# --------------------------------------------------------------- row codes ---

def row_tuples(ds, names):
    """The oracle of row_codes: each row's named cells as a Python tuple,
    -0.0 mapped to 0.0."""
    cols = [ds.column(name).tolist() for name in names]
    return [tuple(0.0 if isinstance(c[i], float) and c[i] == 0.0 else c[i] for c in cols) for i in range(ds.n)]


def assert_codes_match_tuples(datasets, names=None):
    names = datasets[0].schema.names if names is None else names
    codes, n_groups = row_codes(datasets, names)
    assert [len(c) for c in codes] == [ds.n for ds in datasets]
    assert all(c.dtype == np.int64 for c in codes)
    # equal codes exactly for equal rows, dense, in the order of the tuples
    rows = [t for ds in datasets for t in row_tuples(ds, names)]
    rank = {t: i for i, t in enumerate(sorted(set(rows)))}
    assert n_groups == len(rank)
    assert np.concatenate(codes).tolist() == [rank[t] for t in rows]


@st.composite
def dataset_pairs(draw):
    """Two datasets of one mixed schema whose cells come from small pools, so
    rows repeat within and across them, with -0.0 and 0.0 both in play."""
    columns, pools = [], []
    for j in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            columns.append(ColumnSpec(f"c{j}", ColumnKind.CONTINUOUS))
            pools.append(st.sampled_from([-0.0, 0.0, 1.5, -1.5, 5e-324, -(2.0**60), 1e308]))
        else:
            k = draw(st.integers(1, 4))
            columns.append(ColumnSpec(f"c{j}", ColumnKind.CATEGORICAL, categories=tuple("pqrs"[:k])))
            pools.append(st.integers(0, k - 1))
    schema = Schema(tuple(columns))

    def dataset():
        n = draw(st.integers(0, 12))
        cells = {c.name: draw(st.lists(pool, min_size=n, max_size=n)) for c, pool in zip(columns, pools)}
        return make_dataset(schema, cells)

    return dataset(), dataset()


@settings(max_examples=300, deadline=None)
@given(pair=dataset_pairs(), data=st.data())
def test_row_codes_equal_and_order_as_the_row_tuples(pair, data):
    assert_codes_match_tuples(list(pair))
    names = data.draw(st.permutations(pair[0].schema.names))
    assert_codes_match_tuples(list(pair), names[: data.draw(st.integers(0, len(names)))])


def test_row_codes_renumber_before_a_packed_range_would_overflow():
    # 8 columns of 1,000 categories span 1000**8 packed values, past int64
    assert 1000**8 > np.iinfo(np.int64).max
    cats = tuple(f"v{i}" for i in range(1000))
    schema = Schema(tuple(ColumnSpec(f"k{j}", ColumnKind.CATEGORICAL, categories=cats) for j in range(8)))
    rng = np.random.default_rng(5)

    def dataset(n):
        cells = rng.integers(0, 1000, size=(n, 8))
        cells[n // 2 :, :3] = 999  # rows that share a prefix and sort last by it
        return make_dataset(schema, {f"k{j}": cells[:, j] for j in range(8)})

    real = dataset(300)
    copies = real.take(np.r_[np.arange(0, 300, 3), np.arange(100)])
    assert_codes_match_tuples([real, copies, dataset(200)])


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
    m = filled(encode(a, b))
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
    m = filled(encode(one, make_dataset(schema, {"x": [5.0]})))
    assert m.shape == (3, 2)
    assert np.all(m[:, 1] == 0.0)  # a constant column carries no signal


def test_encode_stacks_rows():
    a = mixed_dataset(4, seed=0)
    b = mixed_dataset(6, seed=1)
    m = filled(encode(a, b))
    assert m.shape == (10, 1 + encoded_width(a.schema))
    income = np.concatenate([a.column("income"), b.column("income")])
    assert np.array_equal(m[:, 2], (income - income.mean()) / income.std())
    region = np.concatenate([a.column("region"), b.column("region")])
    assert np.array_equal(m[:4, 3], (a.column("region") == 1).astype(float))
    assert np.array_equal(m[4:, 4], (b.column("region") == 2).astype(float))
    assert np.array_equal(m[:, 3] + m[:, 4], (region > 0).astype(float))


ENCODE_SCHEMAS = {
    "mixed": mixed_schema(),
    "all-categorical": Schema((
        ColumnSpec("c3", ColumnKind.CATEGORICAL, categories=("a", "b", "c")),
        ColumnSpec("c5", ColumnKind.CATEGORICAL, categories=tuple("pqrst")),
    )),
    "all-continuous": Schema((ColumnSpec("x", ColumnKind.CONTINUOUS), ColumnSpec("y", ColumnKind.CONTINUOUS))),
    "constant-continuous": Schema((ColumnSpec("k", ColumnKind.CONTINUOUS), ColumnSpec("x", ColumnKind.CONTINUOUS))),
    "one-level-categorical": Schema((
        ColumnSpec("one", ColumnKind.CATEGORICAL, categories=("only",)),
        ColumnSpec("x", ColumnKind.CONTINUOUS),
    )),
}


def encode_dataset(schema, n, seed):
    rng = np.random.default_rng(seed)
    values = {}
    for spec in schema.columns:
        if spec.kind is ColumnKind.CATEGORICAL:
            values[spec.name] = rng.integers(0, len(spec.categories), n)
        elif spec.name == "k":
            values[spec.name] = np.full(n, -3.5)
        else:
            values[spec.name] = rng.normal(10.0, 4.0, n)
    return make_dataset(schema, values)


@pytest.mark.parametrize("schema_name", sorted(ENCODE_SCHEMAS))
@pytest.mark.parametrize("size, n", [(s, s + d) for s in (1_024, 8_192) for d in (-1, 0, 1)])
def test_encode_fill_matches_the_dense_encoder_bit_for_bit(schema_name, size, n):
    # every block of `size` rows, the a/b boundary inside one, and the pad
    # rows of the last block zero
    schema = ENCODE_SCHEMAS[schema_name]
    a, b = encode_dataset(schema, n // 3, 1), encode_dataset(schema, n - n // 3, 2)
    want = dense_encode(a, b)
    enc = encode(a, b)
    assert (enc.n, enc.width) == want.shape
    assert filled(enc).tobytes() == want.tobytes()
    out = np.full((size, enc.width), np.nan)
    for lo in range(0, n, size):
        rows = enc.fill(lo, out)
        assert rows == min(size, n - lo)
        assert out[:rows].tobytes() == want[lo : lo + rows].tobytes()
        assert out[rows:].tobytes() == bytes(8 * (size - rows) * enc.width)


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
