"""Categorical codes are stored narrow: every producer emits the dtype
`ColumnSpec.dtype` names (uint8 up to 256 categories, uint16 up to 65,536),
and every metric that does arithmetic on codes stays right across those
dtype boundaries, checked against independent oracles on columns of 2, 255,
256 and 300 categories, whose code products pass 2^8 and 2^16."""

import itertools
from collections import Counter

import numpy as np
import pytest
from scipy.stats import contingency, pearsonr

from sdgflow import tabular
from sdgflow.bench import make_bench_dataset
from sdgflow.errors import SchemaError
from sdgflow.evaluation.diagnostic import diagnose
from sdgflow.evaluation.privacy import PrivacyConfig, inference_attack_score, key_groups, tcap
from sdgflow.evaluation.utility import bivariate_fidelity, univariate_fidelity
from sdgflow.generators import generate, parse_generator_config
from sdgflow.rng import derive_stream
from sdgflow.tabular import (
    ColumnKind,
    ColumnSpec,
    Dataset,
    Schema,
    category_counts,
    dataset_to_csv_bytes,
    encode,
    load_csv,
    make_dataset,
)

LEVELS = (2, 255, 256, 300)


def labels(k):
    return tuple(f"l{i:03d}" for i in range(k))


WIDE = Schema(
    (
        ColumnSpec("x", ColumnKind.CONTINUOUS),
        *(ColumnSpec(f"c{k}", ColumnKind.CATEGORICAL, categories=labels(k)) for k in LEVELS),
        ColumnSpec("y", ColumnKind.CONTINUOUS),
    )
)


def wide_table(n, seed, skew=0.0):
    """n rows of WIDE in which every category of every column occurs, the
    codes tied to x (more so with `skew`), so that the pair statistics are
    far from 0 and differ between tables."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, n)
    rank = np.argsort(np.argsort(x)) / n
    values = {"x": x, "y": 0.5 * x + rng.normal(0.0, 1.0, n)}
    for k in LEVELS:
        spread = rng.permutation(np.arange(n) % k)
        tied = np.minimum((rank * k).astype(np.int64), k - 1)
        values[f"c{k}"] = np.where(rng.random(n) < 0.5 + skew, tied, spread)
    return make_dataset(WIDE, values)


# ------------------------------------------------------------- the dtypes ---

def test_spec_dtype_is_the_narrowest_unsigned_type_of_the_codes():
    assert [ColumnSpec("c", ColumnKind.CATEGORICAL, categories=labels(k)).dtype for k in (1, 256, 257, 65_536, 65_537)] == [
        np.uint8, np.uint8, np.uint16, np.uint16, np.uint32
    ]
    assert ColumnSpec("x", ColumnKind.CONTINUOUS).dtype == np.float64


def assert_narrow(ds):
    for spec, column in zip(ds.schema.columns, ds.columns):
        assert column.dtype == spec.dtype, spec.name
        assert not column.flags.writeable


@pytest.fixture
def adopted(monkeypatch):
    """Per Dataset._adopt call, the (spec dtype, handed dtype) of each
    column: a producer builds its codes narrow, so _adopt converts none."""
    calls = []
    adopt = Dataset._adopt.__func__

    def spy(cls, schema, columns):
        calls.append([(spec.dtype, np.asarray(c).dtype) for spec, c in zip(schema.columns, columns)])
        return adopt(cls, schema, columns)

    monkeypatch.setattr(Dataset, "_adopt", classmethod(spy))
    return calls


def assert_handed_narrow(calls):
    assert calls
    for call in calls:
        assert [want for want, _ in call] == [got for _, got in call]


def test_dataset_narrows_a_callers_codes_after_its_range_check():
    codes = np.array([0, 299, 5], dtype=np.int64)
    ds = Dataset(Schema((WIDE.column("c300"),)), (codes,))
    assert_narrow(ds)
    assert ds.columns[0].tolist() == [0, 299, 5]
    assert codes.flags.writeable  # the caller's array is copied, not frozen


@pytest.mark.parametrize("k", [255, 256, 300])
@pytest.mark.parametrize("bad", [-1, "k", "k+256", 2**16])
def test_codes_out_of_range_raise_before_they_could_wrap_into_range(k, bad):
    value = {"k": k, "k+256": k + 256}.get(bad, bad)
    schema = Schema((WIDE.column(f"c{k}"),))
    for codes in (np.array([0, value], dtype=np.int64), [0, value]):
        with pytest.raises(SchemaError, match="out of range"):
            Dataset(schema, (codes,))
        with pytest.raises(SchemaError, match="out of range"):
            Dataset._adopt(schema, (np.asarray(codes),))


def test_narrow_codes_past_the_categories_raise():
    schema = Schema((ColumnSpec("c", ColumnKind.CATEGORICAL, categories=labels(3)),))
    with pytest.raises(SchemaError, match="out of range"):
        Dataset(schema, (np.array([0, 3], dtype=np.uint8),))


def test_make_dataset_take_and_restrict_keep_narrow_codes(adopted):
    ds = wide_table(600, 1)
    assert_narrow(ds)
    by_label = make_dataset(
        WIDE,
        {spec.name: [spec.categories[i] for i in ds.column(spec.name).tolist()] if spec.categories else ds.column(spec.name)
         for spec in WIDE.columns},
    )
    assert_narrow(by_label)
    assert all(np.array_equal(a, b) for a, b in zip(ds.columns, by_label.columns))
    assert_narrow(ds.take(np.arange(0, 600, 7)))
    assert_narrow(ds.restrict(["c300", "x"]))
    assert_handed_narrow(adopted)


def test_empty_datasets_have_narrow_codes(tmp_path, adopted):
    assert_narrow(Dataset(WIDE, [[] for _ in WIDE.columns]))
    path = tmp_path / "header_only.csv"
    path.write_text(",".join(WIDE.names) + "\n", encoding="utf-8")
    assert_narrow(load_csv(path, WIDE))
    assert_handed_narrow(adopted)


@pytest.mark.parametrize("plain", [True, False], ids=["plain", "per-cell"])
def test_load_csv_parses_codes_narrow(tmp_path, monkeypatch, adopted, plain):
    ds = wide_table(3_000, 2)
    data = dataset_to_csv_bytes(ds)
    if not plain:  # float() reads "1_0" as 10.0 and numpy does not, so the csv module reads the file
        header, first, rest = data.split(b"\n", 2)
        data = b"\n".join((header, b"1_0" + first[first.index(b",") :], rest))
    path = tmp_path / "wide.csv"
    path.write_bytes(data)
    calls = []
    parse_cells = tabular._parse_cells
    monkeypatch.setattr(tabular, "_parse_cells", lambda *a: calls.append(1) or parse_cells(*a))
    loaded = load_csv(path, WIDE)
    assert bool(calls) is not plain
    assert_narrow(loaded)
    assert_handed_narrow(adopted)
    for name in WIDE.names[1:-1]:
        assert np.array_equal(loaded.column(name), ds.column(name))


def test_generators_emit_narrow_codes(adopted):
    real = wide_table(2_000, 3)
    rsd = generate(parse_generator_config({"mode": "rsd", "n_out": 900}), derive_stream(1, "rsd"), real=real)
    assert_narrow(rsd)
    models = {
        "x": {"distribution": "normal", "mean": 0, "std": 1},
        "y": {"distribution": "uniform", "low": 0, "high": 1},
        **{f"c{k}": {"labels": list(labels(k)), "weights": [1] * k} for k in LEVELS},
    }
    asd = generate(
        parse_generator_config({"mode": "asd", "n_out": 900, "mode_params": {"column_models": models}}),
        derive_stream(1, "asd"),
        schema=WIDE,
    )
    assert_narrow(asd)
    hsd_doc = {
        "mode": "hsd",
        "n_out": 900,
        "mode_params": {
            "partition": [["x", "y"], ["c2", "c255"], ["c256", "c300"]],
            "sub_configs": [
                {"mode": "csd", "n_out": 900, "mode_params": {"noise": {"x": {"distribution": "normal", "std": 1},
                                                                        "y": {"distribution": "normal", "std": 1}}}},
                {"mode": "asd", "n_out": 900, "mode_params": {"column_models": {n: models[n] for n in ("c2", "c255")}}},
                {"mode": "rsd", "n_out": 900},
            ],
            "post_rules": [{"kind": "implication", "if_column": "c2", "if_category": "l001",
                            "then_column": "c300", "then_categories": list(labels(300)[256:])}],
        },
    }
    hsd = generate(parse_generator_config(hsd_doc), derive_stream(1, "hsd"), real=real, schema=WIDE)
    assert_narrow(hsd)
    c2, c300 = hsd.column("c2"), hsd.column("c300")
    assert (c2 == 1).any() and np.all(c300[c2 == 1] >= 256)  # the rule read uint16 codes past 255
    assert hsd.column("x").dtype == np.float64
    assert_handed_narrow(adopted)


def test_bench_fixture_builds_narrow_codes(adopted):
    assert_narrow(make_bench_dataset(500))
    assert_handed_narrow(adopted)


def test_encode_takes_the_codes_as_they_are():
    a, b = wide_table(300, 4), wide_table(200, 5)
    enc = encode(a, b)
    codes = [values for values, levels in enc.columns if levels]
    assert [c.dtype for c in codes] == [np.uint8, np.uint8, np.uint8, np.uint16]


# ------------------------------------------------------------- the metrics ---

def test_category_counts_equal_a_counter():
    rng = np.random.default_rng(6)
    for k, n in ((2, 0), (256, 70_001), (300, 140_000)):
        codes = rng.integers(0, k, n).astype(np.min_scalar_type(k - 1))
        counter = Counter(codes.tolist())
        assert category_counts(codes, k).tolist() == [counter[c] for c in range(k)]


def brute_tvd(r, s, k):
    p, q = Counter(r.tolist()), Counter(s.tolist())
    return 0.5 * sum(abs(p[c] / r.size - q[c] / s.size) for c in range(k))


def brute_correlation_ratio(codes, values):
    groups = {}
    for c, v in zip(codes.tolist(), values.tolist()):
        groups.setdefault(c, []).append(v)
    grand = sum(values.tolist()) / values.size
    ssb = sum(len(g) * (sum(g) / len(g) - grand) ** 2 for g in groups.values())
    sst = sum((v - grand) ** 2 for v in values.tolist())
    return min(ssb / sst, 1.0) ** 0.5


def cramer(a, b, ka, kb):
    table = np.zeros((ka, kb), dtype=np.int64)
    np.add.at(table, (a.astype(np.intp), b.astype(np.intp)), 1)
    return contingency.association(table, method="cramer")


def test_fidelity_agrees_with_independent_oracles_across_code_dtypes():
    real, synth = wide_table(3_000, 7), wide_table(2_500, 8, skew=0.3)
    uni = univariate_fidelity(real, synth).details["per_column"]
    for k in LEVELS:
        name = f"c{k}"
        assert uni[name] == pytest.approx(1.0 - brute_tvd(real.column(name), synth.column(name), k), abs=1e-12)
    per_pair = bivariate_fidelity(real, synth).details["per_pair"]
    assert len(per_pair) == 15
    for a, b in itertools.combinations(WIDE.columns, 2):
        sides = []
        for ds in (real, synth):
            xa, xb = ds.column(a.name), ds.column(b.name)
            if a.categories and b.categories:
                sides.append(cramer(xa, xb, len(a.categories), len(b.categories)))
            elif a.categories or b.categories:
                codes, values = (xa, xb) if a.categories else (xb, xa)
                sides.append(brute_correlation_ratio(codes, values))
            else:
                sides.append(pearsonr(xa, xb).statistic / 2.0)
        assert per_pair[f"{a.name}|{b.name}"] == pytest.approx(1.0 - abs(sides[0] - sides[1]), abs=1e-9)
        assert abs(sides[0] - sides[1]) > 1e-6  # each pair tells the two tables apart


def test_diagnose_agrees_with_a_per_cell_loop():
    real, synth = wide_table(800, 9), wide_table(500, 10)
    keep = ~np.isin(real.column("c300"), np.arange(250, 290))  # categories that real then lacks
    real = real.take(np.flatnonzero(keep))
    checks = {c.column: c.pass_fraction for c in diagnose(real, synth).per_column if c.check == "category_adherence"}
    for k in LEVELS:
        present = set(real.column(f"c{k}").tolist())
        cells = synth.column(f"c{k}").tolist()
        assert checks[f"c{k}"] == sum(c in present for c in cells) / len(cells)
    assert checks["c300"] < 1.0


def test_key_attacks_agree_with_a_per_row_loop_on_wide_codes():
    real, synth = wide_table(400, 11), wide_table(400, 12, skew=0.4)
    cfg = PrivacyConfig(key_columns=("c2", "c256"), sensitive_column="c300", tcap_homogeneity=0.5)
    g = key_groups(real, synth, cfg)
    rows_r = list(zip(*(real.column(n).tolist() for n in ("c2", "c256", "c300"))))
    rows_s = list(zip(*(synth.column(n).tolist() for n in ("c2", "c256", "c300"))))
    groups = {}
    for k2, k256, s in rows_s:
        groups.setdefault((k2, k256), Counter())[s] += 1
    modal = {}
    for key, counts in groups.items():
        top = max(counts.values())
        modal[key] = (min(s for s, c in counts.items() if c == top), top / sum(counts.values()))
    attackable = [(r, modal[r[:2]][0]) for r in rows_r if r[:2] in modal and modal[r[:2]][1] >= 0.5]
    assert attackable
    assert tcap(g, 0.5).score == sum(r[2] == m for r, m in attackable) / len(attackable)
    found = [(r, modal[r[:2]][0]) for r in rows_r if r[:2] in modal]
    accuracy = sum(r[2] == m for r, m in found) / len(found)
    baseline = max(Counter(r[2] for r in rows_r).values()) / len(rows_r)
    assert inference_attack_score(g).details["accuracy"] == accuracy
    assert inference_attack_score(g).details["baseline"] == baseline
