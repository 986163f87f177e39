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
CSV_BLOCK_ROWS = 65_536  # rows formatted at once: bounds the temporary cell lists
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
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise HeaderMismatch("file is empty, header row required") from None
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


def dataset_to_csv_bytes(ds: Dataset) -> bytes:
    """The dataset as UTF-8 CSV: the header row, then one LF-terminated line
    per row, continuous cells in CONTINUOUS_FMT and labels quoted as
    `csv.writer` quotes them (minimally). The bytes equal those of one
    `writerow` per row; here each row is one %-format, CSV_BLOCK_ROWS rows
    at a time."""
    alone = len(ds.columns) == 1
    tables = []  # per column: its labels as CSV cells, indexed by code; None if continuous
    for spec in ds.schema.columns:
        if spec.kind is ColumnKind.CATEGORICAL:
            # csv.writer writes an empty cell as "" only when it is the whole row
            cells = [_csv_line([c])[:-1] if alone else _csv_line([c, ""])[:-2] for c in spec.categories]
            tables.append(np.array(cells, dtype=object))
        else:
            tables.append(None)
    line = ",".join(CONTINUOUS_FMT if t is None else "%s" for t in tables) + "\n"
    parts = [_csv_line(ds.schema.names).encode("utf-8")]
    for lo in range(0, ds.n, CSV_BLOCK_ROWS):
        rows = slice(lo, lo + CSV_BLOCK_ROWS)
        cols = [(a[rows] if t is None else t[a[rows]]).tolist() for t, a in zip(tables, ds.columns)]
        parts.append("".join(map(line.__mod__, zip(*cols))).encode("utf-8"))
    return b"".join(parts)


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
