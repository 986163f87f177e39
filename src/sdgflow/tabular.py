"""Immutable tabular data model: schemas, datasets, CSV I/O, encoding, Gower.

Continuous values are 64-bit floats; categorical values are stored as integer
indices into the column's ordered category list. Datasets are immutable after
construction and safe to share across concurrent pipeline nodes.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import (
    CellTypeError,
    ConfigError,
    HeaderMismatch,
    MissingValue,
    SchemaError,
    UnknownCategory,
)
from .jsonfields import JsonChecks, loads

CONTINUOUS_FMT = "%.17g"  # 17 significant digits: bit-exact float64 round trip
CSV_BLOCK_ROWS = 8_192  # rows parsed or formatted at once: bounds the per-block temporaries
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
        if not self.name:
            raise SchemaError("column name must be non-empty")
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
        if len(self.columns) != len(other.columns):
            return False
        return all(
            a.name == b.name and a.kind == b.kind and a.categories == b.categories
            for a, b in zip(self.columns, other.columns)
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


def schema_from_json_obj(obj: Any) -> Schema:
    _check.obj(obj, "schema document", {"columns"}, required={"columns"})
    cols = []
    for i, c in enumerate(_check.items(obj["columns"], "schema document: columns")):
        where = f"columns[{i}]"
        _check.obj(c, where, {"name", "kind", "categories", "bounds"}, required={"name", "kind"})
        kind = _check.choice(c["kind"], f"{where}: kind", [k.value for k in ColumnKind])
        cats = c.get("categories")
        bounds = c.get("bounds")
        if bounds is not None:
            bounds = _check.numbers(bounds, f"{where}: bounds")
            if len(bounds) != 2:
                raise SchemaError(f"{where}: bounds must be [min, max]")
        cols.append(
            ColumnSpec(
                name=_check.string(c["name"], f"{where}: name"),
                kind=ColumnKind(kind),
                categories=_check.strings(cats, f"{where}: categories") if cats is not None else None,
                bounds=bounds,
            )
        )
    return Schema(tuple(cols))


def read_schema(path) -> Schema:
    with open(path, "rb") as fh:
        return schema_from_json_obj(loads(fh.read(), SchemaError))


@dataclass(frozen=True)
class Dataset:
    """Immutable typed table: one numpy array per schema column.

    Continuous columns are float64, categorical columns are int64 indices into
    the column's categories.
    """

    schema: Schema
    columns: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.columns) != len(self.schema.columns):
            raise SchemaError("column count does not match schema")
        n = None
        frozen = []
        for spec, arr in zip(self.schema.columns, self.columns):
            if spec.kind is ColumnKind.CONTINUOUS:
                arr = np.asarray(arr, dtype=np.float64)
                if arr.size and not np.all(np.isfinite(arr)):
                    raise SchemaError(f"column {spec.name!r}: non-finite values")
            else:
                arr = np.asarray(arr, dtype=np.int64)
                if arr.size and (arr.min() < 0 or arr.max() >= len(spec.categories)):
                    raise SchemaError(f"column {spec.name!r}: category index out of range")
            if arr.ndim != 1:
                raise SchemaError(f"column {spec.name!r}: arrays must be 1-d")
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise SchemaError("all columns must have equal length")
            arr = arr.copy()
            arr.flags.writeable = False
            frozen.append(arr)
        object.__setattr__(self, "columns", tuple(frozen))

    @property
    def n(self) -> int:
        return int(self.columns[0].shape[0])

    def column(self, name: str) -> np.ndarray:
        return self.columns[self.schema.index_of(name)]

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices)
        return Dataset(self.schema, tuple(arr[idx] for arr in self.columns))

    def restrict(self, names: Sequence[str]) -> "Dataset":
        sub = self.schema.restrict(names)
        return Dataset(sub, tuple(self.column(c.name) for c in sub.columns))


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
                raw = [lookup[v] for v in raw]
            except KeyError as e:
                raise SchemaError(f"column {spec.name!r}: unknown label {e.args[0]!r}") from None
        cols.append(np.asarray(raw))
    return Dataset(schema, tuple(cols))


def row_keys(ds: Dataset) -> np.ndarray:
    """One opaque key per row, its values packed as int64 with floats by bit
    pattern and -0.0 folded into 0.0, so keys are equal exactly when rows are."""
    packed = np.empty((ds.n, len(ds.columns)), dtype=np.int64)
    for j, arr in enumerate(ds.columns):
        packed[:, j] = (arr + 0.0).view(np.int64) if arr.dtype == np.float64 else arr
    return packed.view(np.dtype((np.void, packed.itemsize * packed.shape[1]))).ravel()


# ------------------------------------------------------------------ CSV I/O ---

def load_csv(path, schema: Schema, missing_policy: str = DEFAULT_MISSING_POLICY) -> Dataset:
    """Read a typed CSV. Header must match the schema names exactly, in order.

    missing_policy: "drop_row" silently drops rows with any empty cell;
    "error" raises MissingValue at the first one.

    Rows are parsed CSV_BLOCK_ROWS at a time, a column at a time; a block
    holding anything the column parse does not accept goes through the
    per-cell loop, which raises the typed error for its first bad cell.
    """
    if missing_policy not in MISSING_POLICIES:
        raise ConfigError(f"unknown missing_policy {missing_policy!r}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = _records(fh)
        header = next(reader, None)
        if header is None:
            raise HeaderMismatch("file is empty, header row required")
        if tuple(header) != schema.names:
            raise HeaderMismatch(
                f"header {header!r} does not match schema columns {list(schema.names)!r}"
            )
        cat_lookup = [
            {lab: i for i, lab in enumerate(c.categories)} if c.categories else None
            for c in schema.columns
        ]
        blocks: list[list] = [[] for _ in schema.columns]
        first_row = 1
        while block := list(itertools.islice(reader, CSV_BLOCK_ROWS)):
            columns = _parse_columns(block, schema, cat_lookup, missing_policy)
            if columns is None:
                columns = _parse_cells(block, first_row, schema, cat_lookup, missing_policy)
            for parts, col in zip(blocks, columns):
                parts.append(col)
            first_row += len(block)
    return Dataset(
        schema,
        tuple(np.concatenate(parts) if parts else np.empty(0) for parts in blocks),
    )


def _records(fh):
    """The CSV records of fh; a record the csv module rejects (a cell over
    its field size limit) raises CellTypeError at its row, counted from the
    header as row 0, and bytes that are not UTF-8 raise it for the file."""
    reader = csv.reader(fh)
    row = 0
    try:
        for record in reader:
            yield record
            row += 1
    except csv.Error as e:
        raise CellTypeError(row, None, str(e)) from None
    except UnicodeDecodeError as e:
        bad = e.object[e.start : e.end]
        raise CellTypeError(None, None, f"not UTF-8: {e.reason} at byte {bad!r}") from None


def _parse_columns(block, schema, cat_lookup, missing_policy) -> list[np.ndarray] | None:
    """One block of records, a column at a time; None when a record has the
    wrong field count, a cell is missing under "error", or a cell does not
    parse, so that the per-cell loop names the first such cell."""
    width = len(schema.columns)
    if any(len(record) != width for record in block):
        return None
    if missing_policy == "drop_row":
        block = [record for record in block if "" not in record]
    elif any("" in record for record in block):
        return None
    out = []
    for j, (spec, lookup) in enumerate(zip(schema.columns, cat_lookup)):
        cells = map(operator.itemgetter(j), block)
        try:
            if spec.kind is ColumnKind.CONTINUOUS:
                col = np.fromiter(map(float, cells), np.float64, len(block))
                if not np.all(np.isfinite(col)):
                    return None
            else:
                col = np.fromiter(map(lookup.__getitem__, cells), np.int64, len(block))
        except (ValueError, KeyError):
            return None
        out.append(col)
    return out


def _parse_cells(block, first_row, schema, cat_lookup, missing_policy) -> list[np.ndarray]:
    """The per-cell parse of one block of records, numbered from first_row;
    raises the typed error for the first bad cell."""
    out: list[list] = [[] for _ in schema.columns]
    for rownum, record in enumerate(block, start=first_row):
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
    return [np.asarray(col) for col in out]


def _csv_line(cells: Sequence[str]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


# A block of rows is formatted as one uint8 matrix with a fixed number of
# bytes per cell; _PAD fills what a cell does not use, anywhere in it, and
# deleting every _PAD byte leaves the CSV text. 0xFF is never a byte of UTF-8.
_PAD = b"\xff"
_BLOCK_BYTES = 1 << 24  # cap on a block's matrix, so that long labels shrink the block


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


def dataset_to_csv_bytes(ds: Dataset) -> bytes:
    """The dataset as UTF-8 CSV: the header row, then one LF-terminated line
    per row, continuous cells in CONTINUOUS_FMT and labels quoted as
    `csv.writer` quotes them (minimally). The bytes equal those of one
    `writerow` per row; here numpy lays out CSV_BLOCK_ROWS rows at a time as
    padded cells, and one pass deletes the padding."""
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
    out.write(_csv_line(ds.schema.names).encode("utf-8"))
    for lo in range(0, ds.n, step):
        rows = slice(lo, lo + step)
        # the cells die with the call, before the copy that translate needs
        lines = _padded_lines(
            [_float_cells(a[rows]) if t is None else t[a[rows]] for t, a in zip(labels, ds.columns)]
        )
        out.write(lines.tobytes().translate(None, _PAD))
    return out.getvalue()


# ----------------------------------------------------------------- encoding ---

def encoded_width(schema: Schema) -> int:
    k = 0
    for c in schema.columns:
        k += (len(c.categories) - 1) if c.kind is ColumnKind.CATEGORICAL else 1
    return k


def encode(a: Dataset, b: Dataset) -> np.ndarray:
    """Design matrix of a's rows then b's: an intercept column of ones, then
    for each column the indicators of all categories but the first, or the
    continuous values standardized over both datasets (zeros when constant)."""
    if not a.schema.same_structure(b.schema):
        raise SchemaError("cannot encode datasets with different structure")
    if a.n + b.n == 0:
        raise SchemaError("cannot encode an empty dataset")
    data = np.empty((a.n + b.n, encoded_width(a.schema) + 1), dtype=np.float64)
    data[:, 0] = 1.0
    j = 1
    for spec, ca, cb in zip(a.schema.columns, a.columns, b.columns):
        arr = np.concatenate([ca, cb])
        if spec.kind is ColumnKind.CATEGORICAL:
            for level in range(1, len(spec.categories)):
                data[:, j] = arr == level
                j += 1
        else:
            mean = float(arr.mean())
            sd = float(arr.std())
            data[:, j] = (arr - mean) / sd if sd > 0.0 else 0.0
            j += 1
    return data


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
