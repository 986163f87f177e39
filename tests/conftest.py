"""Shared builders and oracles for the test suite."""
import numpy as np

from sdgflow.tabular import ColumnKind, ColumnSpec, Schema, encoded_width, make_dataset


def gower_distance(a, b, schema, ranges) -> float:
    """Mean per-column distance between two rows: range-normalized |a-b|,
    clipped at 1, for continuous (0 when the range is degenerate), 0/1
    mismatch for categorical. The reference the proximity metrics follow."""
    total = 0.0
    for j, spec in enumerate(schema.columns):
        if spec.kind is ColumnKind.CATEGORICAL:
            total += 0.0 if a[j] == b[j] else 1.0
        else:
            lo, hi = ranges[j]
            span = hi - lo
            if span <= 0.0:
                continue
            total += min(abs(float(a[j]) - float(b[j])) / span, 1.0)
    return total / len(schema.columns)


def dense_encode(a, b) -> np.ndarray:
    """The design matrix of a's rows then b's built whole, one column at a
    time: an intercept of ones, then per column the indicators of all its
    categories but the first, or its values standardized over both datasets
    (zeros when constant). The oracle `tabular.Encoding.fill` must match
    bit for bit."""
    data = np.empty((a.n + b.n, encoded_width(a.schema) + 1))
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


def filled(encoding) -> np.ndarray:
    """An Encoding's whole matrix, from one fill over all its rows."""
    out = np.empty((encoding.n, encoding.width))
    assert encoding.fill(0, out) == encoding.n
    return out


def cont_schema(*names, bounds=None):
    return Schema(tuple(ColumnSpec(n, ColumnKind.CONTINUOUS, bounds=bounds) for n in names))


def mixed_schema():
    """Two continuous + two categorical columns, the workhorse fixture shape."""
    return Schema(
        (
            ColumnSpec("age", ColumnKind.CONTINUOUS, bounds=(0.0, 120.0)),
            ColumnSpec("income", ColumnKind.CONTINUOUS),
            ColumnSpec("region", ColumnKind.CATEGORICAL, categories=("north", "south", "east")),
            ColumnSpec("status", ColumnKind.CATEGORICAL, categories=("a", "b")),
        )
    )


def mixed_dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    schema = mixed_schema()
    return make_dataset(
        schema,
        {
            "age": np.round(rng.uniform(18, 90, n), 1),
            "income": np.round(rng.normal(50_000, 12_000, n), 2),
            "region": rng.integers(0, 3, n),
            "status": rng.integers(0, 2, n),
        },
    )
