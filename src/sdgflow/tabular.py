"""Immutable tabular data model: schemas, datasets, CSV I/O, encoding, Gower.

Continuous values are 64-bit floats; categorical values are stored as integer
indices into the column's ordered category list, in the narrowest unsigned
dtype that holds them (ColumnSpec.dtype). Datasets are immutable after
construction and safe to share across concurrent pipeline nodes.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    CellTypeError,
    ConfigError,
    HeaderMismatch,
    MissingValue,
    NumericOverflow,
    SchemaError,
    UnknownCategory,
)
from .jsonfields import JsonChecks, loads

CONTINUOUS_FMT = "%.17g"  # 17 significant digits: bit-exact float64 round trip
CSV_BLOCK_ROWS = 8_192  # rows parsed or formatted at once: bounds the per-block temporaries
_PACK_LIMIT = 1 << 31  # row_codes renumbers its packed codes before their range would pass this
_COUNT_BLOCK = 1 << 16  # codes category_counts counts at once: bounds np.bincount's widened copy
DEFAULT_MISSING_POLICY = "error"
MISSING_POLICIES = ("drop_row", DEFAULT_MISSING_POLICY)


class ColumnKind(str, Enum):
    CONTINUOUS = "continuous"
    CATEGORICAL = "categorical"


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: ColumnKind
    categories: tuple[str, ...] | None = None
    bounds: tuple[float, float] | None = None

    def __post_init__(self):
        _check.string(self.name, "column name")  # the schema document's rules, for API callers
        if self.categories is not None:
            _check.strings(self.categories, f"column {self.name!r}: categories", nonempty=False)
        if not self.name:
            raise SchemaError("column name must be non-empty")
        if _lone_surrogate((self.name, *(self.categories or ()))):
            raise SchemaError(f"column {self.name!r}: names and labels must be UTF-8 text")
        if self.kind is ColumnKind.CATEGORICAL:
            if not self.categories:
                raise SchemaError(f"column {self.name!r}: categorical needs categories")
            if len(set(self.categories)) != len(self.categories):
                raise SchemaError(f"column {self.name!r}: duplicate categories")
            if self.bounds is not None:
                raise SchemaError(f"column {self.name!r}: bounds only apply to continuous")
        else:
            if self.categories is not None:
                raise SchemaError(f"column {self.name!r}: categories only apply to categorical")
            if self.bounds is not None and not self.bounds[0] <= self.bounds[1]:
                raise SchemaError(f"column {self.name!r}: bounds min must be <= max")

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the column's arrays: float64, or for a categorical
        column the narrowest unsigned integer that holds every category
        index (uint8 up to 256 categories, uint16 up to 65,536). Arithmetic
        on such codes is made in their own dtype and wraps, so a reader
        widens them first."""
        if self.categories is None:
            return np.dtype(np.float64)
        return np.min_scalar_type(len(self.categories) - 1)

    def same_structure(self, other: "ColumnSpec") -> bool:
        """Equality on name, kind, and categories (bounds ignored)."""
        return self.name == other.name and self.kind == other.kind and self.categories == other.categories


@dataclass(frozen=True)
class Schema:
    columns: tuple[ColumnSpec, ...]

    def __post_init__(self):
        if not self.columns:
            raise SchemaError("schema needs at least one column")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError("column names must be distinct")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def index_of(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise SchemaError(f"no column named {name!r}")

    def column(self, name: str) -> ColumnSpec:
        return self.columns[self.index_of(name)]

    def restrict(self, names: Sequence[str]) -> "Schema":
        """Sub-schema with the given columns, kept in this schema's order."""
        wanted = set(names)
        cols = tuple(c for c in self.columns if c.name in wanted)
        if len(cols) != len(wanted):
            missing = wanted - {c.name for c in cols}
            raise SchemaError(f"unknown columns: {sorted(missing)}")
        return Schema(cols)

    def same_structure(self, other: "Schema") -> bool:
        """Equality on names, order, kinds, and categories (bounds ignored)."""
        return len(self.columns) == len(other.columns) and all(
            a.same_structure(b) for a, b in zip(self.columns, other.columns)
        )


def schema_to_json_obj(schema: Schema) -> dict:
    cols = []
    for c in schema.columns:
        obj: dict[str, Any] = {"name": c.name, "kind": c.kind.value}
        if c.categories is not None:
            obj["categories"] = list(c.categories)
        if c.bounds is not None:
            obj["bounds"] = [c.bounds[0], c.bounds[1]]
        cols.append(obj)
    return {"columns": cols}


_check = JsonChecks(SchemaError)


def _bounds(value: Any, what: str) -> tuple[float, float]:
    bounds = _check.numbers(value, what)
    if len(bounds) != 2:
        raise SchemaError(f"{what} must be [min, max]")
    return bounds


_COLUMN_CHECKS = {
    "name": _check.string,
    "kind": lambda value, what: ColumnKind(_check.choice(value, what, [k.value for k in ColumnKind])),
    "categories": _check.nullable(_check.strings),
    "bounds": _check.nullable(_bounds),
}


def schema_from_json_obj(obj: Any) -> Schema:
    column = partial(_check.build, ColumnSpec, _COLUMN_CHECKS)
    return _check.build(Schema, {"columns": partial(_check.each, column)}, obj, "schema document")


def read_schema(path) -> Schema:
    with open(path, "rb") as fh:
        return schema_from_json_obj(loads(fh.read(), SchemaError))


@dataclass(frozen=True)
class Dataset:
    """Immutable typed table: one numpy array per schema column.

    Continuous columns are float64, categorical columns are indices into the
    column's categories, of the narrow unsigned dtype ColumnSpec.dtype
    gives. The constructor copies the arrays it is given, as that dtype, so
    the caller's arrays stay the caller's; the package's own producers,
    which build their codes in that dtype and whose arrays nobody else
    holds, hand them over through `_adopt`.
    """

    schema: Schema
    columns: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "columns", _frozen_columns(self.schema, self.columns, copy=True))

    @classmethod
    def _adopt(cls, schema: Schema, columns: Sequence[np.ndarray]) -> "Dataset":
        """The Dataset of `columns` with the constructor's checks, each array
        frozen in place, not copied. Only for arrays that no one else will
        write: fresh ones, or columns of another Dataset."""
        ds = object.__new__(cls)
        object.__setattr__(ds, "schema", schema)
        object.__setattr__(ds, "columns", _frozen_columns(schema, columns, copy=False))
        return ds

    @property
    def n(self) -> int:
        return int(self.columns[0].shape[0])

    def column(self, name: str) -> np.ndarray:
        return self.columns[self.schema.index_of(name)]

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices)
        return Dataset._adopt(self.schema, [arr[idx] for arr in self.columns])

    def restrict(self, names: Sequence[str]) -> "Dataset":
        sub = self.schema.restrict(names)
        return Dataset._adopt(sub, [self.column(c.name) for c in sub.columns])


def _frozen_columns(schema: Schema, columns: Sequence, copy: bool) -> tuple[np.ndarray, ...]:
    """The columns as read-only arrays of their spec's dtype, copied when
    `copy`; raises SchemaError unless they fit the schema. Categorical
    values not already of that dtype are range-checked as int64, before
    they narrow, so that -1 or a code past the categories cannot wrap into
    range."""
    if len(columns) != len(schema.columns):
        raise SchemaError("column count does not match schema")
    n = None
    frozen = []
    for spec, arr in zip(schema.columns, columns):
        dtype = spec.dtype
        if spec.kind is ColumnKind.CATEGORICAL:
            if getattr(arr, "dtype", None) != dtype:
                arr = np.asarray(arr, dtype=np.int64)
            if arr.size and (arr.min() < 0 or arr.max() >= len(spec.categories)):
                raise SchemaError(f"column {spec.name!r}: category index out of range")
        arr = np.array(arr, dtype=dtype) if copy else np.asarray(arr, dtype=dtype)
        if spec.kind is ColumnKind.CONTINUOUS and arr.size and not np.all(np.isfinite(arr)):
            raise SchemaError(f"column {spec.name!r}: non-finite values")
        if arr.ndim != 1:
            raise SchemaError(f"column {spec.name!r}: arrays must be 1-d")
        if n is None:
            n = arr.shape[0]
        elif arr.shape[0] != n:
            raise SchemaError("all columns must have equal length")
        arr.flags.writeable = False
        frozen.append(arr)
    return tuple(frozen)


def make_dataset(schema: Schema, values: Mapping[str, Sequence]) -> Dataset:
    """Build a Dataset from per-column values; categorical cells may be labels."""
    if set(values) != set(schema.names):
        raise SchemaError("values must cover exactly the schema columns")
    cols = []
    for spec in schema.columns:
        raw = values[spec.name]
        if spec.kind is ColumnKind.CATEGORICAL and len(raw) and isinstance(raw[0], str):
            lookup = {lab: i for i, lab in enumerate(spec.categories)}
            try:
                raw = np.fromiter((lookup[v] for v in raw), spec.dtype, len(raw))
            except KeyError as e:
                raise SchemaError(f"column {spec.name!r}: unknown label {e.args[0]!r}") from None
        cols.append(np.asarray(raw))
    return Dataset(schema, tuple(cols))


def row_codes(
    datasets: Sequence[Dataset], names: Sequence[str] | None = None
) -> tuple[list[np.ndarray], int]:
    """(codes, n_groups): one int64 code per row of each dataset, in a code
    space they share, where every code in [0, n_groups) is used. Two rows get
    equal codes exactly when their named cells (all cells by default) are
    equal, with -0.0 equal to 0.0, and codes sort rows by those cells, column
    by column in the order named. The datasets must agree on the named
    columns' specs.

    Each column's values are coded in sort order, and the codes are packed
    column by column as digits of one integer, renumbered densely before
    their range would pass _PACK_LIMIT, so that packing never overflows."""
    names = datasets[0].schema.names if names is None else names
    sizes = [ds.n for ds in datasets]
    code = np.zeros(sum(sizes), dtype=np.int64)
    bound = 1
    for name in names:
        cells = np.concatenate([ds.column(name) for ds in datasets])
        categories = datasets[0].schema.column(name).categories
        if categories is None:  # np.unique compares values: -0.0 and 0.0 are one
            values, cells = np.unique(cells, return_inverse=True)
            k = len(values)
        else:
            k = len(categories)
        if bound * k > _PACK_LIMIT:
            distinct, code = np.unique(code, return_inverse=True)
            bound = len(distinct)
        code *= k
        code += cells  # in code's int64: narrow cells widen, the code does not narrow
        bound *= k
    distinct, code = np.unique(code, return_inverse=True)
    return np.split(code, np.cumsum(sizes)[:-1]), len(distinct)


def category_counts(codes: np.ndarray, k: int) -> np.ndarray:
    """The int64 count of each category index in [0, k) among `codes`.
    np.bincount reads its input as intp, so it copies narrow codes whole at
    8 bytes each; counted _COUNT_BLOCK codes at a time, that copy is one
    block long."""
    counts = np.zeros(k, dtype=np.int64)
    for lo in range(0, codes.size, _COUNT_BLOCK):
        counts += np.bincount(codes[lo : lo + _COUNT_BLOCK], minlength=k)
    return counts


# ------------------------------------------------------------------ CSV I/O ---

def load_csv(path, schema: Schema, missing_policy: str = DEFAULT_MISSING_POLICY) -> Dataset:
    """Read a typed CSV. Header must match the schema names exactly, in order.

    missing_policy: "drop_row" silently drops rows with any empty cell;
    "error" raises MissingValue at the first one.

    numpy's text reader parses the file while it is plain (see
    _plain_parts); from the first block that is not, the csv module's reader
    (_record_parts) reads the rest, which would give the same columns for
    the plain blocks and raises the typed error of the first faulty record.
    """
    if missing_policy not in MISSING_POLICIES:
        raise ConfigError(f"unknown missing_policy {missing_policy!r}")
    parts: list[list[np.ndarray]] = [[] for _ in schema.columns]
    with open(path, "rb") as fh:
        row = _plain_parts(fh, schema, parts, missing_policy == "drop_row")
        if row is not None:
            _record_parts(fh, row, schema, missing_policy, parts)
    return Dataset._adopt(schema, _joined(parts, schema))


_PLAIN_BLOCK_BYTES = 1 << 17  # bytes read at once by the plain path, cut after their last line
# bytes that make a block not plain: NUL, which the csv module reads its own
# way, and \x1c-\x1f, which numpy strips around a number and float() does not
_NOT_PLAIN_BYTES = (b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _plain_parts(fh, schema: Schema, parts: list[list[np.ndarray]], drop: bool) -> int | None:
    """Append the columns of the plain blocks of binary file fh to `parts`,
    a list per column, and return None when the whole file is plain;
    otherwise leave fh at the start of the first block that is not and
    return the row of its first line, counted from the header as row 0.

    The header is plain when _plain_text takes it and its cells are the
    schema's names. A block is plain when _plain_text takes it, every
    continuous cell left parses and is finite, and every categorical cell
    left is exactly a label. Each line numpy reads is then one csv record
    that the csv module reads alike, and numpy converts a number with the
    correctly rounded routine behind float(), after stripping the same
    whitespace, accepting a subset of what float() accepts (no "_", no
    non-ASCII digits). Rows count the lines read, dropped ones too, so the
    csv module's reader can take over at the start of any block."""
    labels = []  # per column: None, or (plain labels sorted, their category indices)
    for spec in schema.columns:
        if spec.categories is None:
            labels.append(None)
            continue
        # "" reads as a missing cell, and numpy drops a label's trailing NULs
        plain = [(lab, i) for i, lab in enumerate(spec.categories) if lab and "\x00" not in lab]
        if not plain:
            return 0
        plain.sort()
        labels.append((np.array([lab for lab, _ in plain]), np.array([i for _, i in plain], spec.dtype)))
    dtype = np.dtype(
        [
            (f"f{j}", "f8" if lab is None else f"U{lab[0].itemsize // 4 + 1}")  # longer cells truncate
            for j, lab in enumerate(labels)
        ]
    )
    limit = csv.field_size_limit()
    header = fh.readline(limit + 1)
    read = _plain_text(header, limit, len(labels), False) if header.endswith(b"\n") else None
    if read is None or next(csv.reader([read[0].decode("utf-8")])) != list(schema.names):
        fh.seek(0)
        return 0
    offset, row = len(header), 1
    for block in _line_blocks(fh, limit):
        read = None if block is None else _plain_text(block, limit, len(labels), drop)
        columns = None if read is None else _plain_block(*read, dtype, labels)
        if columns is None:
            fh.seek(offset)
            return row
        for col_parts, col in zip(parts, columns):
            col_parts.append(col)
        offset += len(block)
        row += read[1]
    return None


def _line_blocks(fh, limit: int):
    """fh's bytes from its position on, in blocks of about
    _PLAIN_BLOCK_BYTES, each cut after its last LF; a last line without one
    gets one. None in place of a block means a line longer than `limit`
    bytes that no block holds whole. Only the block is held while the
    caller parses it, not the bytes it was cut from."""
    rest = b""
    while chunk := fh.read(_PLAIN_BLOCK_BYTES):
        data, chunk = rest + chunk, None
        cut = data.rfind(b"\n") + 1
        rest = data[cut:]
        if len(rest) > limit:
            yield None
            return
        if cut:
            block, data = data[:cut], None
            yield block
    if rest:
        yield rest + b"\n"


def _plain_text(block: bytes, limit: int, width: int, drop: bool) -> tuple[bytes, int] | None:
    """The block, whole lines ending with LF, as the UTF-8 bytes numpy's
    reader takes, and its count of lines, dropped ones too: CRLF reads as LF and, under
    `drop`, lines with an empty cell (no bytes, or "") are left out. None
    unless it is UTF-8 with none of _NOT_PLAIN_BYTES, no lone CR, no blank
    line, no line over `limit` bytes (nor a cell over as many characters)
    and, unless `drop`, no empty cell.
    Cheap byte scans pass a block with no quote and no empty cell; any other
    must have `width` cells a line, and each quote must open or close a whole
    cell that holds no quote and no line end. Those checks work on the
    positions of its quotes, its commas outside quotes and its line ends."""
    if any(b in block for b in _NOT_PLAIN_BYTES):
        return None
    if b"\r" in block:
        if block.count(b"\r") != block.count(b"\r\n"):  # a lone CR ends a csv record
            return None
        block = block.replace(b"\r\n", b"\n")
    data = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    lengths = np.diff(ends, prepend=-1) - 1
    if lengths.min() == 0 or lengths.max() > limit:
        return None
    try:
        block.decode("utf-8")  # before a line is dropped: a bad byte is its row's fault
    except UnicodeDecodeError:
        return None
    if b'"' not in block and not (
        block.startswith(b",") or b",," in block or b"\n," in block or b",\n" in block
    ):
        return block, len(ends)
    quotes = np.flatnonzero(data == ord('"'))
    opens, closes = quotes[::2], quotes[1::2]
    # each pair of quotes is a whole cell of one line: a comma or LF on either
    # side (data[-1] is an LF, read before a quote at 0), none inside; an odd
    # count of quotes fails array_equal
    around = data[np.concatenate((opens - 1, closes + 1))].tobytes()
    if around.strip(b",\n") or not np.array_equal(np.searchsorted(ends, opens), np.searchsorted(ends, closes)):
        return None
    commas = np.flatnonzero(data == ord(","))
    commas = commas[np.searchsorted(quotes, commas) % 2 == 0]
    if np.any(np.diff(np.searchsorted(commas, ends), prepend=0) != width - 1):
        return None
    seps = np.sort(np.concatenate((commas, ends)))
    cells = np.diff(seps, prepend=-1) - 1
    empty = (cells == 0) | ((cells == 2) & (data[seps - 1] == ord('"')))  # no bytes, or ""
    gaps = np.searchsorted(ends, seps[empty])  # the line of each empty cell
    if len(gaps) and not drop:
        return None
    starts = np.concatenate(([0], ends + 1))  # line i is block[starts[i]:starts[i + 1]]
    # the runs of lines between gaps; a line with two gaps adds an empty run
    kept = zip(starts[np.append(0, gaps + 1)].tolist(), starts[np.append(gaps, -1)].tolist())
    return b"".join(block[lo:hi] for lo, hi in kept), len(ends)


def _plain_block(text: bytes, lines: int, dtype: np.dtype, labels) -> list[np.ndarray] | None:
    """The columns of a block of at most `lines` whole lines of a plain file,
    given as UTF-8 bytes, or None when a cell makes the block not plain, or
    when that many parsed rows would pass _BLOCK_BYTES (very long labels).
    numpy reads the lines from the bytes and decodes one at a time: a
    StringIO would hold the block again, at 4 bytes a character."""
    if lines * dtype.itemsize > _BLOCK_BYTES:
        return None
    try:
        rows = np.loadtxt(
            io.BytesIO(text), dtype=dtype, delimiter=",", comments=None, quotechar='"', ndmin=1,
            encoding="utf-8",
        ) if text else np.empty(0, dtype)
    except ValueError:  # a wrong cell count or a number that does not parse
        return None
    out = []
    for name, lab in zip(dtype.names, labels):
        cells = rows[name]
        if lab is None:
            if not np.all(np.isfinite(cells)):
                return None
            out.append(cells.copy())
            continue
        ordered, index = lab
        pos = np.minimum(np.searchsorted(ordered, cells), len(ordered) - 1)
        if not np.array_equal(ordered[pos], cells):
            return None
        out.append(index[pos])
    return out


def _record_parts(fh, row: int, schema: Schema, missing_policy: str, parts: list[list[np.ndarray]]) -> None:
    """Append to `parts` the columns of the CSV records of binary file fh
    from its position on, read by the csv module's reader; `row` is the
    first record's row, 0 when it is the header, which is then checked.
    Rows are parsed CSV_BLOCK_ROWS at a time by the per-cell loop, which
    raises the typed error for the first bad cell."""
    reader = _records(io.TextIOWrapper(fh, encoding="utf-8", errors="surrogateescape", newline=""), row)
    if row == 0:
        header = next(reader, None)
        if header is None:
            raise HeaderMismatch("file is empty, header row required")
        _check_record(header, 0)
        if tuple(header) != schema.names:
            raise HeaderMismatch(
                f"header {header!r} does not match schema columns {list(schema.names)!r}"
            )
        row = 1
    cat_lookup = [
        {lab: i for i, lab in enumerate(c.categories)} if c.categories else None
        for c in schema.columns
    ]
    while block := list(itertools.islice(reader, CSV_BLOCK_ROWS)):
        for col_parts, col in zip(parts, _parse_cells(block, row, schema, cat_lookup, missing_policy)):
            col_parts.append(col)
        row += len(block)


def _joined(blocks: list[list[np.ndarray]], schema: Schema) -> list[np.ndarray]:
    """Each column's parts, one per block, as one array of its spec's dtype;
    a column's parts are freed once it is joined, so that the columns are
    not held twice."""
    joined = []
    for parts, spec in zip(blocks, schema.columns):
        joined.append(np.concatenate(parts) if parts else np.empty(0, spec.dtype))
        parts.clear()
    return joined


def _records(fh, row: int = 0):
    """The CSV records of text file fh from its position on, the first at
    `row` (the header is row 0); a record the csv module rejects (a cell
    over its field size limit) ends them, as the CellTypeError of its row."""
    try:
        for record in csv.reader(fh):
            yield record
            row += 1
    except csv.Error as e:
        yield CellTypeError(row, None, str(e))


def _lone_surrogate(cells: Sequence[str]) -> str | None:
    """The first lone surrogate in the cells, or None: what the surrogateescape
    decode reads a byte that is not UTF-8 as, and no label (ColumnSpec) holds."""
    text = "".join(cells)
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as e:
        return text[e.start]
    return None


def _check_record(record, row: int) -> None:
    """Raise the record if it is a CellTypeError, or one at `row` for a byte not UTF-8."""
    if isinstance(record, CellTypeError):
        raise record
    if char := _lone_surrogate(record):
        raise CellTypeError(row, None, f"not UTF-8: byte {char.encode('utf-8', 'surrogateescape')!r}")


def _parse_cells(block, first_row, schema, cat_lookup, missing_policy) -> list[np.ndarray]:
    """The per-cell parse of one block of records, numbered from first_row;
    raises the typed error for the first bad cell."""
    out: list[list] = [[] for _ in schema.columns]
    for rownum, record in enumerate(block, start=first_row):
        _check_record(record, rownum)
        if len(record) != len(schema.columns):
            raise CellTypeError(
                rownum, None, f"expected {len(schema.columns)} fields, got {len(record)}"
            )
        if any(cell == "" for cell in record):
            if missing_policy == "drop_row":
                continue
            col = schema.columns[[c == "" for c in record].index(True)].name
            raise MissingValue(rownum, col)
        for j, (spec, cell) in enumerate(zip(schema.columns, record)):
            if spec.kind is ColumnKind.CONTINUOUS:
                try:
                    v = float(cell)
                except ValueError:
                    raise CellTypeError(rownum, spec.name, f"not a number: {cell!r}") from None
                if not math.isfinite(v):
                    raise CellTypeError(rownum, spec.name, f"non-finite value: {cell!r}")
                out[j].append(v)
            else:
                idx = cat_lookup[j].get(cell)  # type: ignore[union-attr]
                if idx is None:
                    raise UnknownCategory(rownum, spec.name, cell)
                out[j].append(idx)
    return [np.array(col, spec.dtype) for col, spec in zip(out, schema.columns)]


def _csv_line(cells: Sequence[str]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


# A block of rows is formatted as one uint8 matrix with a fixed number of
# bytes per cell; _PAD fills what a cell does not use, anywhere in it, and
# deleting every _PAD byte leaves the CSV text. 0xFF is never a byte of UTF-8.
_PAD = b"\xff"
_BLOCK_BYTES = 1 << 24  # cap on a block's matrix: long labels shrink a written block, and send a read one to the csv module


def _words(cells: Sequence[bytes]) -> np.ndarray:
    """Cells of at most 4 bytes as uint32 words, padded with _PAD."""
    return np.frombuffer(b"".join(c.ljust(4, _PAD) for c in cells), np.uint32)


def _group_words() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every 4-digit group as a word of its ASCII digits, indexed by the
    group, then again at 10_000 + group with padding in place of its leading
    zeros; of its leading zeros but the ones digit; of its trailing zeros."""
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    text = (digits + ord("0")).astype(np.uint8)
    leading = np.logical_and.accumulate(digits == 0, axis=1)
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    return tuple(
        np.concatenate([text, np.where(pad, _PAD[0], text)]).view(np.uint32).ravel()
        for pad in (leading, leading & [True, True, True, False], trailing)
    )


_POW5 = np.array([5**s for s in range(21)], dtype=np.uint64)
_POW10 = np.array([10**p for p in range(18)], dtype=np.uint64)
_LO32 = np.uint64(0xFFFF_FFFF)
_MANTISSA = np.uint64((1 << 52) - 1)
_HIDDEN_BIT = np.uint64(1 << 52)
_HALF = np.uint64(1 << 63)
# word 0 of a cell: PAD, PAD, the sign, the integer part's 17th digit (PAD if 0)
_HEAD = _words(
    [_PAD * 2 + sign + (str(d).encode() if d else _PAD) for sign in (_PAD, b"-") for d in range(10)]
)
_INT_GROUPS, _ONES_GROUPS, _FRAC_GROUPS = _group_words()
_LAST_DIGIT = _words([str(d).encode() if d else b"" for d in range(10)])
# word 5: the point and -k-1 zeros for k in -4..-1; nothing (4); the point (5)
_POINT = _words([b".", b".0", b".00", b".000", b"", b"."])
_FLOAT_CELL_BYTES = 44  # widest continuous cell: 11 words; CONTINUOUS_FMT writes at most 24 bytes


def _scaled(m: np.ndarray, r: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q = floor(m * 10**(16 - k) / 2**r) and whether rounding that value to
    the nearest integer, ties to even, gives q + 1.

    Exact for m < 2**61, 0 <= 16 - k <= 20, 0 < r - (16 - k) < 64 and
    q < 2**64: m * 5**(16 - k) < 2**108 is built in two uint64 halves from
    32-bit limbs, then shifted right by r - (16 - k) bits."""
    s = 16 - k
    f = _POW5[s]
    m0, m1, f0, f1 = m & _LO32, m >> 32, f & _LO32, f >> 32
    low = m0 * f0
    mid = m0 * f1 + m1 * f0
    lo = low + (mid << 32)  # wraps modulo 2**64; the carry goes to hi
    hi = m1 * f1 + (mid >> 32) + (lo < low)
    right = (r - s).astype(np.uint64)
    left = 64 - right
    q = (hi << left) | (lo >> right)
    return q, (lo << left) > _HALF - (q & 1)  # the bits shifted out, against one half


def _fixed_cells(a: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """%.17g of every ±a with 1e-4 <= a < 1e17, the range %.17g writes in
    fixed notation, as padded cells of at most _FLOAT_CELL_BYTES, a row per
    value.

    D = round(a * 10**(16 - k)), k = floor(log10(a)), is exact (see _scaled;
    Steele & White 1990); log10 only guesses k, and the guess is corrected
    until 10**16 <= floor(a * 10**(16 - k)) < 10**17. D splits into the
    integer part I and the 17-digit zero-filled fraction F, each written as
    4-digit group words whose leading (I) or trailing (F) zeros are padding.
    The words of I that are padding in every row are left out."""
    # a = m / 2**r with the 53-bit significand moved up 8 bits, so that
    # _scaled always shifts right
    bits = a.view(np.uint64)
    m = ((bits & _MANTISSA) | _HIDDEN_BIT) << 8
    r = 1083 - (bits >> 52).astype(np.int64)
    k = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int64)
    q, up = _scaled(m, r, k)
    while (off := (q >= 10**17).astype(np.int64) - (q < 10**16)).any():
        wrong = off != 0
        k[wrong] += off[wrong]
        q[wrong], up[wrong] = _scaled(m[wrong], r[wrong], k[wrong])
    d = q + up
    carry = d == 10**17  # rounding reached the next power of ten
    d[carry] = 10**16
    k[carry] += 1
    frac_digits = np.minimum(16 - k, 17)
    ip, rest = np.divmod(d, _POW10[frac_digits])
    fp = rest * _POW10[17 - frac_digits]

    i9, i8 = np.divmod(ip, 10**8)
    top, i4 = np.divmod(i9.astype(np.uint32), 10**8)
    g1, g2 = np.divmod(i4, 10**4)
    g3, g4 = np.divmod(i8.astype(np.uint32), 10**4)
    f8, f9 = np.divmod(fp, 10**9)
    f9 = f9.astype(np.uint32)
    fa, fb = np.divmod(f8.astype(np.uint32), 10**4)
    fc, f5 = np.divmod(f9, 10**5)
    fd, fe = np.divmod(f5, 10)
    largest = ip.max(initial=0)
    words = [_HEAD[negative * 10 + top]] if negative.any() or largest >= 10**16 else []
    for group, below in ((g1, 10**16), (g2, 10**12), (g3, 10**8)):
        if largest >= below // 10**4:
            words.append(_INT_GROUPS[group + 10_000 * (ip < below)])
    words += [
        _ONES_GROUPS[g4 + 10_000 * (ip < 10**4)],
        _POINT[np.where(k < 0, -1 - k, 4 + (fp != 0))],
        _FRAC_GROUPS[fa + 10_000 * ((fb == 0) & (f9 == 0))],
        _FRAC_GROUPS[fb + 10_000 * (f9 == 0)],
        _FRAC_GROUPS[fc + 10_000 * (f5 == 0)],
        _FRAC_GROUPS[fd + 10_000 * (fe == 0)],
        _LAST_DIGIT[fe],
    ]
    return np.stack(words, axis=1).view(np.uint8)


def _float_cells(x: np.ndarray) -> np.ndarray:
    """The CONTINUOUS_FMT cells of x as padded bytes, a row per value: the
    fixed-notation range by _fixed_cells, every other value (zeros,
    subnormals, exponent notation) by CONTINUOUS_FMT itself."""
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e17)
    if fixed.all():
        return _fixed_cells(a, np.signbit(x))
    cells = _fixed_cells(a[fixed], np.signbit(x[fixed]))
    text = [(CONTINUOUS_FMT % v).encode() for v in x[~fixed].tolist()]
    width = max(cells.shape[1], *map(len, text))
    out = np.full((len(x), width), _PAD[0], np.uint8)
    out[fixed, : cells.shape[1]] = cells
    out[~fixed] = np.frombuffer(b"".join(c.ljust(width, _PAD) for c in text), np.uint8).reshape(-1, width)
    return out


def _label_cells(categories: Sequence[str], alone: bool) -> np.ndarray:
    """The labels as CSV cells, UTF-8 padded to one width; row i is label i."""
    # csv.writer writes an empty cell as "" only when it is the whole row
    cells = [(_csv_line([c])[:-1] if alone else _csv_line([c, ""])[:-2]).encode("utf-8") for c in categories]
    width = max(map(len, cells))
    return np.frombuffer(b"".join(c.ljust(width, _PAD) for c in cells), np.uint8).reshape(len(cells), width)


def _padded_lines(cells: Sequence[np.ndarray]) -> np.ndarray:
    """One block's padded cells, a matrix per column, as padded CSV lines."""
    lines = np.empty((len(cells[0]), sum(c.shape[1] + 1 for c in cells)), np.uint8)
    pos = 0
    for c in cells:
        lines[:, pos : pos + c.shape[1]] = c
        pos += c.shape[1] + 1
        lines[:, pos - 1] = ord(",")
    lines[:, -1] = ord("\n")
    return lines


def dataset_to_csv_bytes(ds: Dataset, lo: int = 0, hi: int | None = None) -> bytes:
    """The CSV lines of rows [lo, hi) of the dataset (all rows by default),
    the header row first when lo is 0; the default call is the whole file.
    The file is UTF-8 CSV: the header row, then one LF-terminated line per
    row, continuous cells in CONTINUOUS_FMT and labels quoted as
    `csv.writer` quotes them (minimally). The bytes equal those of one
    `writerow` per row; here numpy lays out CSV_BLOCK_ROWS rows at a time as
    padded cells, and one pass deletes the padding."""
    hi = ds.n if hi is None else min(hi, ds.n)
    alone = len(ds.columns) == 1
    labels = [
        _label_cells(spec.categories, alone) if spec.kind is ColumnKind.CATEGORICAL else None
        for spec in ds.schema.columns
    ]
    width = sum(1 + (_FLOAT_CELL_BYTES if t is None else t.shape[1]) for t in labels)
    step = max(1, min(CSV_BLOCK_ROWS, _BLOCK_BYTES // width))
    # one buffer that grows in place, and getvalue() returns it uncopied: the
    # CSV is never held twice, as blocks and as their join
    out = io.BytesIO()
    if lo == 0:
        out.write(_csv_line(ds.schema.names).encode("utf-8"))
    for start in range(lo, hi, step):
        rows = slice(start, min(start + step, hi))
        # the cells die with the call, before the copy that translate needs
        lines = _padded_lines(
            [_float_cells(a[rows]) if t is None else t[a[rows]] for t, a in zip(labels, ds.columns)]
        )
        out.write(lines.tobytes().translate(None, _PAD))
    return out.getvalue()


def csv_chunks(ds: Dataset) -> Iterator[bytes]:
    """The dataset's CSV, CSV_BLOCK_ROWS rows a chunk, one
    dataset_to_csv_bytes call each; the first chunk holds the header, so an
    empty dataset is one chunk. The writer is looked up on this module at
    each call, so a writer replaced here is the one that runs."""
    for lo in range(0, max(ds.n, 1), CSV_BLOCK_ROWS):
        yield dataset_to_csv_bytes(ds, lo, lo + CSV_BLOCK_ROWS)


# ----------------------------------------------------------------- encoding ---

def encoded_width(schema: Schema) -> int:
    k = 0
    for c in schema.columns:
        k += (len(c.categories) - 1) if c.kind is ColumnKind.CATEGORICAL else 1
    return k


@dataclass(frozen=True, eq=False)
class Encoding:
    """The design matrix of encode(a, b), kept as its columns so that its
    memory grows with the schema's columns, not their levels. The matrix has
    n rows (a's, then b's) and `width` columns: an intercept of ones, then
    per schema column either its values standardized over both datasets
    (zeros when constant) or the indicators of all its categories but the
    first. `columns` holds (values, levels) per schema column that encodes
    to at least one matrix column: the standardized values with levels 0,
    or the category codes."""

    n: int
    width: int
    columns: tuple[tuple[np.ndarray, int], ...]

    def fill(self, lo: int, out: np.ndarray) -> int:
        """Write matrix rows [lo, lo + rows) into the first rows of `out`, a
        C-ordered float64 array of width columns, and zero its other rows;
        returns rows, the smaller of len(out) and n - lo. Each column goes
        into a contiguous row of a transposed scratch block, which one copy
        then transposes into `out`: writing columns into `out` directly
        strides every value and took three times as long."""
        size = len(out)
        rows = min(size, self.n - lo)
        block = np.empty((self.width, size))
        block[:, rows:] = 0.0
        block[0, :rows] = 1.0
        j = 1
        for values, levels in self.columns:
            part = values[lo : lo + rows]
            if levels:
                # the indicators of every level but the first, in one call
                indicators = block[j : j + levels - 1, :rows]
                np.equal(part, np.arange(1, levels, dtype=part.dtype)[:, None], out=indicators)
                j += levels - 1
            else:
                block[j, :rows] = part
                j += 1
        out[...] = block.T
        return rows


def encode(a: Dataset, b: Dataset) -> Encoding:
    """The design matrix of a's rows then b's, as its columns (Encoding)."""
    if not a.schema.same_structure(b.schema):
        raise SchemaError("cannot encode datasets with different structure")
    if a.n + b.n == 0:
        raise SchemaError("cannot encode an empty dataset")
    columns = []
    for spec, ca, cb in zip(a.schema.columns, a.columns, b.columns):
        arr = np.concatenate([ca, cb])
        if spec.kind is ColumnKind.CATEGORICAL:
            levels = len(spec.categories)
            if levels > 1:
                columns.append((arr, levels))
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(arr.mean())
            sd = float(arr.std())
        if not (math.isfinite(mean) and math.isfinite(sd)):
            raise NumericOverflow(f"column {spec.name!r}: mean or standard deviation is not finite")
        if sd > 0.0:
            arr -= mean
            arr /= sd
        else:
            arr[:] = 0.0
        columns.append((arr, 0))
    return Encoding(a.n + b.n, encoded_width(a.schema) + 1, tuple(columns))


# -------------------------------------------------------------------- Gower ---

def column_ranges(ds: Dataset) -> tuple[tuple[float, float] | None, ...]:
    """Per-column (min, max) for continuous columns; schema bounds win over
    observed values when declared. None for categorical columns."""
    out: list[tuple[float, float] | None] = []
    for spec, arr in zip(ds.schema.columns, ds.columns):
        if spec.kind is ColumnKind.CATEGORICAL:
            out.append(None)
        elif spec.bounds is not None:
            out.append(spec.bounds)
        else:
            out.append((float(arr.min()), float(arr.max())) if arr.size else (0.0, 0.0))
    return tuple(out)
