"""Four synthesis modes: resampling, assertion-driven, causal, and hybrid."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sdgflow import generators
from sdgflow.errors import ConfigError, DegenerateMarginalWarning, RuleUnsatisfiable, TooFewRows
from sdgflow.generators import generate, generate_hsd, parse_generator_config
from sdgflow.rng import derive_stream
from sdgflow.tabular import ColumnKind, ColumnSpec, Schema, dataset_to_csv_bytes, make_dataset


def cfg(mode, n_out, **mode_params):
    return parse_generator_config({"mode": mode, "n_out": n_out, "mode_params": mode_params})


def col(ds, name):
    return ds.column(name)


# --------------------------------------------------------------- resampling ---

def bivariate_real(n=10_000, rho=0.7, seed=123):
    rng = np.random.default_rng(seed)
    cov = [[1.0, rho], [rho, 1.0]]
    xy = rng.multivariate_normal([0.0, 0.0], cov, size=n)
    schema = Schema((ColumnSpec("x", ColumnKind.CONTINUOUS), ColumnSpec("y", ColumnKind.CONTINUOUS)))
    return make_dataset(schema, {"x": xy[:, 0], "y": xy[:, 1]})


def test_rsd_recovers_correlation_and_marginals():
    real = bivariate_real()
    synth = generate(cfg("rsd", 10_000), derive_stream(1, "gen"), real=real)
    rho = np.corrcoef(col(synth, "x"), col(synth, "y"))[0, 1]
    assert abs(rho - 0.7) < 0.1
    for name in ("x", "y"):
        ks = stats.ks_2samp(col(real, name), col(synth, name)).statistic
        assert ks <= 0.05, name


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from([-1e300, -2.5, -0.0, 0.0, 1.0, 1.5, 7.0]),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        max_size=60,
    )
)
def test_average_ranks_equal_rankdata(values):
    # few distinct values, so most arrays hold long runs of ties
    arr = np.asarray(values, dtype=np.float64)
    ranks = generators._average_ranks(arr)
    assert ranks.dtype == np.float64
    assert np.array_equal(ranks, stats.rankdata(arr, method="average"))


def test_rsd_stays_within_observed_bounds():
    real = bivariate_real(n=2_000)
    synth = generate(cfg("rsd", 5_000), derive_stream(2, "gen"), real=real)
    for name in ("x", "y"):
        assert col(synth, name).min() >= col(real, name).min()
        assert col(synth, name).max() <= col(real, name).max()


def test_rsd_categorical_frequencies():
    rng = np.random.default_rng(5)
    schema = Schema(
        (
            ColumnSpec("x", ColumnKind.CONTINUOUS),
            ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("a", "b", "c")),
        )
    )
    p = np.array([0.6, 0.3, 0.1])
    real = make_dataset(
        schema, {"x": rng.normal(0, 1, 8_000), "c": rng.choice(3, 8_000, p=p)}
    )
    synth = generate(cfg("rsd", 8_000), derive_stream(3, "gen"), real=real)
    freq = np.bincount(col(synth, "c"), minlength=3) / synth.n
    real_freq = np.bincount(col(real, "c"), minlength=3) / real.n
    assert np.max(np.abs(freq - real_freq)) < 0.03


def test_rsd_constant_column_passes_through():
    schema = Schema((ColumnSpec("k", ColumnKind.CONTINUOUS), ColumnSpec("x", ColumnKind.CONTINUOUS)))
    rng = np.random.default_rng(0)
    real = make_dataset(schema, {"k": np.full(200, 5.0), "x": rng.normal(0, 1, 200)})
    with pytest.warns(DegenerateMarginalWarning):
        synth = generate(cfg("rsd", 300), derive_stream(4, "gen"), real=real)
    assert np.all(col(synth, "k") == 5.0)


def test_rsd_too_few_rows():
    schema = Schema((ColumnSpec("x", ColumnKind.CONTINUOUS),))
    real = make_dataset(schema, {"x": np.arange(9, dtype=np.float64)})
    with pytest.raises(TooFewRows):
        generate(cfg("rsd", 10), derive_stream(5, "gen"), real=real)


def test_rsd_requires_real():
    with pytest.raises(ConfigError):
        generate(cfg("rsd", 10), derive_stream(6, "gen"))


def test_rsd_single_row_output():
    real = bivariate_real(n=100)
    synth = generate(cfg("rsd", 1), derive_stream(7, "gen"), real=real)
    assert synth.n == 1


def test_rsd_full_shrinkage_kills_correlation():
    real = bivariate_real(n=6_000, rho=0.9)
    synth = generate(
        cfg("rsd", 6_000, correlation_shrinkage=1.0), derive_stream(8, "gen"), real=real
    )
    assert abs(np.corrcoef(col(synth, "x"), col(synth, "y"))[0, 1]) < 0.05


def test_rsd_deterministic():
    real = bivariate_real(n=500)
    a = generate(cfg("rsd", 500), derive_stream(9, "gen"), real=real)
    b = generate(cfg("rsd", 500), derive_stream(9, "gen"), real=real)
    assert dataset_to_csv_bytes(a) == dataset_to_csv_bytes(b)


# ---------------------------------------------------------- assertion-driven ---

ASD_SCHEMA = Schema(
    (
        ColumnSpec("region", ColumnKind.CATEGORICAL, categories=("north", "south")),
        ColumnSpec("employment", ColumnKind.CATEGORICAL, categories=("employed", "unemployed")),
        ColumnSpec("a", ColumnKind.CONTINUOUS),
        ColumnSpec("total", ColumnKind.CONTINUOUS),
    )
)

ASD_MODELS = {
    "region": {"labels": ["north", "south"], "weights": [1, 1]},
    "employment": {"labels": ["employed", "unemployed"], "weights": [3, 1]},
    "a": {"distribution": "uniform", "low": 0.0, "high": 10.0},
}


def test_asd_rules_hold_exactly():
    config = cfg(
        "asd",
        10_000,
        column_models=ASD_MODELS,
        rules=[
            {"kind": "range_constraint", "column": "a", "min": 2.0, "max": 9.0},
            {
                "kind": "implication",
                "if_column": "region",
                "if_category": "north",
                "then_column": "employment",
                "then_categories": ["employed"],
            },
            {"kind": "derivation", "target": "total", "sources": {"a": 2.0}, "constant": 1.0},
        ],
    )
    synth = generate(config, derive_stream(10, "gen"), schema=ASD_SCHEMA)
    assert synth.n == 10_000
    a = col(synth, "a")
    assert a.min() >= 2.0 and a.max() <= 9.0
    north = col(synth, "region") == 0
    assert np.all(col(synth, "employment")[north] == 0)
    assert np.array_equal(col(synth, "total"), 1.0 + 2.0 * a)
    # both sides of the implication must actually occur
    assert 0 < north.sum() < synth.n


def test_asd_quantile_table_model():
    schema = Schema((ColumnSpec("q", ColumnKind.CONTINUOUS),))
    config = cfg(
        "asd",
        20_000,
        column_models={
            "q": {
                "distribution": "quantile_table",
                "quantiles": [0.0, 0.5, 1.0],
                "values": [0.0, 1.0, 9.0],
            },
        },
    )
    synth = generate(config, derive_stream(11, "gen"), schema=schema)
    q = col(synth, "q")
    assert q.min() >= 0.0 and q.max() <= 9.0
    # median of the table is 1.0
    assert abs(np.median(q) - 1.0) < 0.15


def test_asd_normal_model_moments():
    schema = Schema((ColumnSpec("z", ColumnKind.CONTINUOUS),))
    config = cfg("asd", 30_000, column_models={"z": {"distribution": "normal", "mean": 3.0, "std": 2.0}})
    synth = generate(config, derive_stream(12, "gen"), schema=schema)
    z = col(synth, "z")
    assert abs(z.mean() - 3.0) < 0.05
    assert abs(z.std() - 2.0) < 0.05


def test_asd_unsatisfiable_rule_reports_worst_offender():
    config = cfg(
        "asd",
        100,
        column_models={
            "region": ASD_MODELS["region"],
            "employment": ASD_MODELS["employment"],
            "a": ASD_MODELS["a"],
        },
        rules=[
            {"kind": "range_constraint", "column": "a", "min": 0.0, "max": 10.0},
            {"kind": "range_constraint", "column": "a", "min": 50.0, "max": 60.0},
        ],
        max_attempts_per_row=40,
    )
    schema = Schema(ASD_SCHEMA.columns[:3])
    with pytest.raises(RuleUnsatisfiable) as exc:
        generate(config, derive_stream(13, "gen"), schema=schema)
    assert exc.value.attempts == 40
    assert "50" in exc.value.rule_description and "a" in exc.value.rule_description


def test_asd_coverage_must_be_exact():
    config = cfg("asd", 10, column_models={"a": ASD_MODELS["a"]})
    with pytest.raises(ConfigError):
        generate(config, derive_stream(14, "gen"), schema=ASD_SCHEMA)


def test_asd_derived_column_cannot_be_modeled():
    with pytest.raises(ConfigError, match="modeled and derived"):
        cfg(
            "asd",
            10,
            column_models={
                **ASD_MODELS,
                "total": {"distribution": "uniform", "low": 0.0, "high": 1.0},
            },
            rules=[{"kind": "derivation", "target": "total", "sources": {"a": 2.0}}],
        )


def test_asd_derivation_cycle_rejected_at_parse():
    with pytest.raises(ConfigError):
        cfg(
            "asd",
            10,
            column_models={},
            rules=[
                {"kind": "derivation", "target": "u", "sources": {"v": 1.0}},
                {"kind": "derivation", "target": "v", "sources": {"u": 1.0}},
            ],
        )


def test_asd_labels_must_exist_in_schema():
    config = cfg(
        "asd",
        10,
        column_models={
            **ASD_MODELS,
            "region": {"labels": ["north", "elsewhere"], "weights": [1, 1]},
        },
        rules=[{"kind": "derivation", "target": "total", "sources": {"a": 1.0}}],
    )
    with pytest.raises(ConfigError):
        generate(config, derive_stream(16, "gen"), schema=ASD_SCHEMA)


@pytest.mark.parametrize(
    "mode, mode_params, schema, where",
    [
        ("asd", {"column_models": {**ASD_MODELS, "zz": ASD_MODELS["a"]}}, ASD_SCHEMA, "asd"),
        (
            "asd",
            {
                "column_models": {"a": ASD_MODELS["a"]},
                "rules": [{"kind": "range_constraint", "column": "zz", "min": 0, "max": 1}],
            },
            Schema((ASD_SCHEMA.columns[2],)),
            "asd",
        ),
        (
            "csd",
            {"noise": {"x": {"distribution": "normal", "std": 1.0}, "zz": {"distribution": "normal", "std": 1.0}}},
            Schema((ColumnSpec("x", ColumnKind.CONTINUOUS),)),
            "csd noise",
        ),
        (
            "csd",
            {"noise": {"x": {"distribution": "normal", "std": 1.0}}, "intercepts": {"zz": 1.0}},
            Schema((ColumnSpec("x", ColumnKind.CONTINUOUS),)),
            "csd intercepts",
        ),
    ],
    ids=["asd-model", "asd-rule", "csd-noise", "csd-intercept"],
)
def test_unknown_column_is_config_error_with_context(mode, mode_params, schema, where):
    with pytest.raises(ConfigError, match=f"^{where}: unknown column 'zz'$"):
        generate(cfg(mode, 10, **mode_params), derive_stream(18, "gen"), schema=schema)


def test_asd_deterministic():
    config = cfg("asd", 200, column_models={"a": ASD_MODELS["a"]})
    schema = Schema((ASD_SCHEMA.columns[2],))
    a = generate(config, derive_stream(17, "gen"), schema=schema)
    b = generate(config, derive_stream(17, "gen"), schema=schema)
    assert dataset_to_csv_bytes(a) == dataset_to_csv_bytes(b)


# ------------------------------------------------------------------- causal ---

def csd_schema(*names):
    return Schema(tuple(ColumnSpec(n, ColumnKind.CONTINUOUS) for n in names))


def test_csd_chain_recovers_slope():
    config = cfg(
        "csd",
        50_000,
        causal_dag=[{"from": "x", "to": "y"}],
        weights=[2.0],
        noise={
            "x": {"distribution": "normal", "std": 1.0},
            "y": {"distribution": "normal", "std": 0.1},
        },
        intercepts={"y": 1.0},
    )
    synth = generate(config, derive_stream(20, "gen"), schema=csd_schema("x", "y"))
    x, y = col(synth, "x"), col(synth, "y")
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    assert 1.98 <= coef[1] <= 2.02
    assert abs(coef[0] - 1.0) < 0.02


def test_csd_no_edges_independent():
    config = cfg(
        "csd",
        50_000,
        noise={
            "x": {"distribution": "normal", "std": 1.0},
            "y": {"distribution": "uniform", "half_width": 2.0},
        },
    )
    synth = generate(config, derive_stream(21, "gen"), schema=csd_schema("x", "y"))
    assert abs(np.corrcoef(col(synth, "x"), col(synth, "y"))[0, 1]) < 0.05
    y = col(synth, "y")
    assert y.min() >= -2.0 and y.max() <= 2.0


def test_csd_zero_noise_is_deterministic_algebra():
    config = cfg(
        "csd",
        1_000,
        causal_dag=[{"from": "x", "to": "y"}, {"from": "y", "to": "z"}],
        weights=[2.0, 3.0],
        noise={
            "x": {"distribution": "normal", "std": 1.0},
            "y": {"distribution": "normal", "std": 0.0},
            "z": {"distribution": "normal", "std": 0.0},
        },
    )
    synth = generate(config, derive_stream(22, "gen"), schema=csd_schema("x", "y", "z"))
    assert np.array_equal(col(synth, "y"), 2.0 * col(synth, "x"))
    assert np.array_equal(col(synth, "z"), 3.0 * col(synth, "y"))


def test_csd_cycle_rejected_at_parse():
    with pytest.raises(ConfigError):
        cfg(
            "csd",
            10,
            causal_dag=[{"from": "x", "to": "y"}, {"from": "y", "to": "x"}],
            weights=[1.0, 1.0],
            noise={"x": {"distribution": "normal", "std": 1.0}, "y": {"distribution": "normal", "std": 1.0}},
        )


def test_csd_every_column_needs_noise():
    config = cfg(
        "csd",
        10,
        causal_dag=[{"from": "x", "to": "y"}],
        weights=[1.0],
        noise={"x": {"distribution": "normal", "std": 1.0}},
    )
    with pytest.raises(ConfigError):
        generate(config, derive_stream(23, "gen"), schema=csd_schema("x", "y"))


def test_csd_schema_must_be_continuous():
    config = cfg("csd", 10, noise={"c": {"distribution": "normal", "std": 1.0}})
    schema = Schema((ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("a", "b")),))
    with pytest.raises(ConfigError):
        generate(config, derive_stream(24, "gen"), schema=schema)


def test_csd_weights_must_align():
    with pytest.raises(ConfigError):
        cfg(
            "csd",
            10,
            causal_dag=[{"from": "x", "to": "y"}],
            weights=[1.0, 2.0],
            noise={"x": {"distribution": "normal", "std": 1.0}, "y": {"distribution": "normal", "std": 1.0}},
        )


# ------------------------------------------------------------------- hybrid ---

HSD_SCHEMA = Schema(
    (
        ColumnSpec("a", ColumnKind.CONTINUOUS),
        ColumnSpec("b", ColumnKind.CONTINUOUS),
        ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("p", "q")),
    )
)


def hsd_config(n_out, post_rules=None):
    return cfg(
        "hsd",
        n_out,
        partition=[["a", "b"], ["c"]],
        sub_configs=[
            {
                "mode": "csd",
                "n_out": n_out,
                "mode_params": {
                    "causal_dag": [{"from": "a", "to": "b"}],
                    "weights": [1.5],
                    "noise": {
                        "a": {"distribution": "normal", "std": 1.0},
                        "b": {"distribution": "normal", "std": 0.2},
                    },
                },
            },
            {
                "mode": "asd",
                "n_out": n_out,
                "mode_params": {
                    "column_models": {"c": {"labels": ["p", "q"], "weights": [3, 1]}}
                },
            },
        ],
        **({"post_rules": post_rules} if post_rules else {}),
    )


def test_hsd_joins_partitions():
    synth = generate(hsd_config(40_000), derive_stream(30, "gen"), schema=HSD_SCHEMA)
    assert synth.n == 40_000
    # part 1 keeps its causal structure
    slope = np.polyfit(col(synth, "a"), col(synth, "b"), 1)[0]
    assert abs(slope - 1.5) < 0.05
    # part 2 keeps its marginal
    assert abs(np.mean(col(synth, "c") == 0) - 0.75) < 0.02


def test_hsd_partitions_independent():
    synth = generate(hsd_config(40_000), derive_stream(31, "gen"), schema=HSD_SCHEMA)
    c = (col(synth, "c") == 0).astype(float)
    assert abs(np.corrcoef(col(synth, "a"), c)[0, 1]) < 0.03


def test_hsd_post_rules_enforced():
    post = [
        {"kind": "range_constraint", "column": "a", "min": -1.0, "max": 1.0},
        {"kind": "derivation", "target": "b", "sources": {"a": 4.0}, "constant": 0.0},
    ]
    synth = generate(hsd_config(2_000, post_rules=post), derive_stream(32, "gen"), schema=HSD_SCHEMA)
    a = col(synth, "a")
    assert a.min() >= -1.0 and a.max() <= 1.0
    assert np.array_equal(col(synth, "b"), 4.0 * a)


def test_hsd_checks_each_part_once_across_rejection_rounds(monkeypatch):
    calls = {"check": 0, "generate": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    csd = generators._MODES["csd"]
    monkeypatch.setitem(
        generators._MODES,
        "csd",
        csd._replace(check=counting("check", csd.check), generate=counting("generate", csd.generate)),
    )
    post = [{"kind": "range_constraint", "column": "a", "min": -1.0, "max": 1.0}]
    generate(hsd_config(2_000, post_rules=post), derive_stream(32, "gen"), schema=HSD_SCHEMA)
    assert calls["generate"] > 1 and calls["check"] == 1


def test_hsd_sub_n_out_must_match():
    with pytest.raises(ConfigError):
        cfg(
            "hsd",
            100,
            partition=[["a"]],
            sub_configs=[
                {
                    "mode": "asd",
                    "n_out": 99,
                    "mode_params": {"column_models": {"a": {"distribution": "uniform", "low": 0, "high": 1}}},
                }
            ],
        )


def test_hsd_cannot_nest():
    with pytest.raises(ConfigError):
        cfg(
            "hsd",
            10,
            partition=[["a"]],
            sub_configs=[{"mode": "hsd", "n_out": 10, "mode_params": {"partition": [["a"]], "sub_configs": []}}],
        )


def test_hsd_partition_must_cover_schema():
    config = cfg(
        "hsd",
        10,
        partition=[["a"]],
        sub_configs=[
            {
                "mode": "asd",
                "n_out": 10,
                "mode_params": {"column_models": {"a": {"distribution": "uniform", "low": 0, "high": 1}}},
            }
        ],
    )
    with pytest.raises(ConfigError):
        generate(config, derive_stream(33, "gen"), schema=HSD_SCHEMA)


def test_hsd_with_rsd_part_needs_real():
    config = cfg(
        "hsd",
        50,
        partition=[["x", "y"]],
        sub_configs=[{"mode": "rsd", "n_out": 50, "mode_params": {}}],
    )
    with pytest.raises(ConfigError):
        generate(config, derive_stream(34, "gen"), schema=csd_schema("x", "y"))
    real = bivariate_real(n=400)
    synth = generate(config, derive_stream(34, "gen"), real=real)
    assert synth.n == 50


def test_hsd_rsd_part_keeps_column_names_under_a_reordered_schema():
    config = cfg(
        "hsd",
        50,
        partition=[["x", "y"]],
        sub_configs=[{"mode": "rsd", "n_out": 50, "mode_params": {}}],
    )
    real = bivariate_real(n=400)
    plain = generate(config, derive_stream(34, "gen"), real=real)
    reordered = generate(config, derive_stream(34, "gen"), real=real, schema=csd_schema("y", "x"))
    assert reordered.schema.names == ("y", "x")
    for name in ("x", "y"):
        assert np.array_equal(col(reordered, name), col(plain, name))
    assert not np.array_equal(col(plain, "x"), col(plain, "y"))


def test_generate_hsd_direct_call_with_rsd_part_needs_real():
    config = cfg(
        "hsd",
        50,
        partition=[["x", "y"]],
        sub_configs=[{"mode": "rsd", "n_out": 50, "mode_params": {}}],
    )
    with pytest.raises(ConfigError, match="hsd requires a real dataset"):
        generate_hsd(config.mode_params, 50, csd_schema("x", "y"), None, derive_stream(34, "gen"))


def test_hsd_deterministic():
    a = generate(hsd_config(500), derive_stream(35, "gen"), schema=HSD_SCHEMA)
    b = generate(hsd_config(500), derive_stream(35, "gen"), schema=HSD_SCHEMA)
    assert dataset_to_csv_bytes(a) == dataset_to_csv_bytes(b)
