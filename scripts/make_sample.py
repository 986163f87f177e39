"""Regenerate the bundled sample dataset. Deterministic; run from repo root:

    python3 scripts/make_sample.py
"""

import json
from pathlib import Path

import numpy as np

from sdgflow.rng import derive_stream
from sdgflow.tabular import ColumnKind, ColumnSpec, Dataset, Schema, dataset_to_csv_bytes

ROWS = 600

SCHEMA = Schema(
    (
        ColumnSpec("age", ColumnKind.CONTINUOUS, bounds=(18.0, 90.0)),
        ColumnSpec("income", ColumnKind.CONTINUOUS, bounds=(0.0, 500000.0)),
        ColumnSpec("hours", ColumnKind.CONTINUOUS, bounds=(0.0, 80.0)),
        ColumnSpec("region", ColumnKind.CATEGORICAL, categories=("north", "south", "east", "west")),
        ColumnSpec(
            "employment", ColumnKind.CATEGORICAL, categories=("employed", "self_employed", "unemployed")
        ),
        ColumnSpec(
            "education",
            ColumnKind.CATEGORICAL,
            categories=("primary", "secondary", "bachelor", "master", "doctorate"),
        ),
    )
)


def build() -> Dataset:
    g = derive_stream(99, "sample-data").generator
    latent = g.standard_normal((ROWS, 2))
    age = np.clip(np.round(18.0 + 72.0 * g.beta(2.0, 3.0, ROWS), 1), 18.0, 90.0)
    edu_score = 0.8 * latent[:, 0] + 0.2 * g.standard_normal(ROWS)
    education = np.searchsorted(np.array([-1.0, -0.2, 0.6, 1.4]), edu_score, side="right")
    income = np.clip(
        np.round(28000.0 + 22000.0 * education + 15000.0 * latent[:, 0] + 8000.0 * latent[:, 1], 2),
        0.0,
        500000.0,
    )
    employment = g.choice(3, size=ROWS, p=[0.72, 0.18, 0.10])
    hours = np.clip(
        np.round(np.where(employment == 2, 0.0, 38.0 + 7.0 * latent[:, 1]), 1), 0.0, 80.0
    )
    region = g.choice(4, size=ROWS, p=[0.4, 0.3, 0.2, 0.1])
    return Dataset(
        SCHEMA,
        (age, income, hours, region.astype(np.int64), employment.astype(np.int64), education),
    )


def main() -> None:
    out = Path(__file__).resolve().parent.parent / "sample"
    out.mkdir(exist_ok=True)
    ds = build()
    (out / "data.csv").write_bytes(dataset_to_csv_bytes(ds))
    schema_doc = {
        "columns": [
            {
                "name": c.name,
                "kind": c.kind.value,
                **({"categories": list(c.categories)} if c.categories else {}),
                **({"bounds": list(c.bounds)} if c.bounds else {}),
            }
            for c in SCHEMA.columns
        ]
    }
    (out / "schema.json").write_text(json.dumps(schema_doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {ds.n} rows to {out / 'data.csv'}")


if __name__ == "__main__":
    main()
