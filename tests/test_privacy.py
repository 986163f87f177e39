"""Disclosure-risk metrics, each pinned against a brute-force oracle."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cont_schema, gower_distance, mixed_dataset
from sdgflow.evaluation import privacy

from sdgflow.errors import ConfigError
from sdgflow.evaluation.privacy import (
    PRIVACY_METRICS,
    PrivacyConfig,
    categorical_cap,
    evaluate_privacy,
    inference_attack_score,
    key_groups,
    min_nn_distance,
    new_row_synthesis,
    sample_overlap,
    tcap,
    validate_privacy_config,
)
from sdgflow.rng import derive_stream
from sdgflow.tabular import (
    ColumnKind,
    ColumnSpec,
    Dataset,
    Schema,
    column_ranges,
    make_dataset,
    row_codes,
)

KS = Schema(
    (
        ColumnSpec("k", ColumnKind.CATEGORICAL, categories=("A", "B", "C")),
        ColumnSpec("s", ColumnKind.CATEGORICAL, categories=("x", "y")),
    )
)
CFG = PrivacyConfig(key_columns=("k",), sensitive_column="s")


def ks_ds(pairs):
    k = {"A": 0, "B": 1, "C": 2}
    s = {"x": 0, "y": 1}
    return make_dataset(KS, {"k": [k[a] for a, _ in pairs], "s": [s[b] for _, b in pairs]})


# ------------------------------------------------------------------ oracles ---

def rows_of(ds):
    return [tuple(col[i] for col in ds.columns) for i in range(ds.n)]


def cap_oracle(real, synth, key_idx, sens_idx):
    rr, sr = rows_of(real), rows_of(synth)
    fractions = []
    for r in rr:
        matches = [s for s in sr if all(s[j] == r[j] for j in key_idx)]
        if not matches:
            continue
        fractions.append(sum(s[sens_idx] == r[sens_idx] for s in matches) / len(matches))
    if not fractions:
        return 1.0
    return 1.0 - float(np.mean(np.asarray(fractions)))


def modal_per_key(sr, key_idx, sens_idx):
    groups = {}
    for s in sr:
        groups.setdefault(tuple(s[j] for j in key_idx), []).append(s[sens_idx])
    out = {}
    for key, vals in groups.items():
        counts = {}
        for v in vals:
            counts[v] = counts.get(v, 0) + 1
        top = max(counts.values())
        # ties resolve to the smallest category code
        modal = min(v for v, c in counts.items() if c == top)
        out[key] = (modal, top / len(vals))
    return out


def tcap_oracle(real, synth, key_idx, sens_idx, threshold):
    rr, sr = rows_of(real), rows_of(synth)
    modal = modal_per_key(sr, key_idx, sens_idx)
    attackable = {k: m for k, (m, prop) in modal.items() if prop >= threshold}
    hits, total = 0, 0
    for r in rr:
        key = tuple(r[j] for j in key_idx)
        if key in attackable:
            total += 1
            hits += r[sens_idx] == attackable[key]
    return hits / total if total else 0.0


def inference_oracle(real, synth, key_idx, sens_idx):
    rr, sr = rows_of(real), rows_of(synth)
    modal = {k: m for k, (m, _) in modal_per_key(sr, key_idx, sens_idx).items()}
    sens = [r[sens_idx] for r in rr]
    counts = {}
    for v in sens:
        counts[v] = counts.get(v, 0) + 1
    baseline = max(counts.values()) / len(sens)
    if baseline >= 1.0:
        return 0.0
    hits, total = 0, 0
    for r in rr:
        key = tuple(r[j] for j in key_idx)
        if key in modal:
            total += 1
            hits += r[sens_idx] == modal[key]
    if total == 0:
        return 0.0
    return max(0.0, (hits / total - baseline) / (1.0 - baseline))


# ---------------------------------------------------------------------- CAP ---

def test_cap_six_row_hand_case():
    real = ks_ds([("A", "x"), ("A", "x"), ("B", "y"), ("C", "x")])
    synth = ks_ds([("A", "x"), ("A", "x"), ("A", "y"), ("B", "y")])
    m = categorical_cap(key_groups(real, synth, CFG))
    # attributions 2/3, 2/3, 1; C unmatched -> rate 7/9, score 2/9
    assert m.score == pytest.approx(2 / 9, rel=1e-12)
    assert m.details["matched_real_rows"] == 3
    assert m.details["unmatched_real_rows"] == 1


def test_cap_exact_copy_is_zero():
    ds = ks_ds([("A", "x"), ("B", "y"), ("A", "x")])
    m = categorical_cap(key_groups(ds, ds, CFG))
    assert m.score == 0.0


def test_cap_no_key_overlap_flagged():
    real = ks_ds([("A", "x")])
    synth = ks_ds([("B", "y")])
    m = categorical_cap(key_groups(real, synth, CFG))
    assert m.score == 1.0
    assert "undefined-baseline" in m.details["flags"]


def test_cap_shuffled_sensitive_approaches_one_minus_inverse_m():
    rng = np.random.default_rng(0)
    n = 20_000
    k = rng.integers(0, 3, n)
    real = make_dataset(KS, {"k": k, "s": rng.integers(0, 2, n)})
    synth = make_dataset(KS, {"k": k, "s": rng.integers(0, 2, n)})
    m = categorical_cap(key_groups(real, synth, CFG))
    assert abs(m.score - 0.5) < 0.02  # 1 - 1/m with m = 2


# ---------------------------------------------------------------- inference ---

def test_inference_independent_sensitive_scores_zero():
    # modal attacker predicts x everywhere; real is half x: accuracy == baseline
    real = ks_ds([("A", "x"), ("A", "y"), ("B", "x"), ("B", "y")] * 2)
    synth = ks_ds([("A", "x"), ("A", "x"), ("B", "x"), ("B", "x")] * 2)
    m = inference_attack_score(key_groups(real, synth, CFG))
    assert m.score == 0.0
    assert m.details["accuracy"] == pytest.approx(m.details["baseline"])


def test_inference_total_leakage_scores_one():
    real = ks_ds([("A", "x"), ("A", "x"), ("B", "y"), ("B", "y")])
    m = inference_attack_score(key_groups(real, real, CFG))
    assert m.score == 1.0


def test_inference_constant_sensitive_flagged():
    real = ks_ds([("A", "x"), ("B", "x")])
    synth = ks_ds([("A", "x"), ("B", "x")])
    m = inference_attack_score(key_groups(real, synth, CFG))
    assert m.score == 0.0
    assert "degenerate-baseline" in m.details["flags"]


def test_inference_no_predicted_rows_flagged():
    real = ks_ds([("A", "x"), ("A", "y")])
    synth = ks_ds([("C", "x"), ("C", "y")])
    m = inference_attack_score(key_groups(real, synth, CFG))
    assert m.score == 0.0
    assert "no-predicted-rows" in m.details["flags"]


# --------------------------------------------------------------------- TCAP ---

def test_tcap_ten_row_hand_case():
    synth = ks_ds(
        [("A", "x")] * 4 + [("A", "y")]          # A: modal x at 4/5, attackable at 0.8
        + [("B", "x"), ("B", "x"), ("B", "y"), ("B", "y"), ("B", "y")]  # B: 3/5, not
    )
    real = ks_ds([("A", "x"), ("A", "x"), ("A", "y"), ("A", "x"), ("B", "y"), ("C", "x")])
    cfg = PrivacyConfig(key_columns=("k",), sensitive_column="s", tcap_homogeneity=0.8)
    m = tcap(key_groups(real, synth, cfg), cfg.tcap_homogeneity)
    assert m.score == pytest.approx(3 / 4)
    assert m.details["attackable_real_rows"] == 4
    oracle = tcap_oracle(real, synth, (0,), 1, 0.8)
    assert m.score == oracle


def test_tcap_all_groups_mixed_flagged():
    synth = ks_ds([("A", "x"), ("A", "y"), ("B", "x"), ("B", "y")])
    real = ks_ds([("A", "x"), ("B", "y")])
    m = tcap(key_groups(real, synth, CFG), CFG.tcap_homogeneity)  # homogeneity 1.0: no pure groups
    assert m.score == 0.0
    assert "no-attackable-records" in m.details["flags"]


def test_tcap_copy_with_deterministic_mapping():
    ds = ks_ds([("A", "x"), ("A", "x"), ("B", "y"), ("B", "y")])
    assert tcap(key_groups(ds, ds, CFG), CFG.tcap_homogeneity).score == 1.0


# --------------------------------------------------- random-table equivalence ---

def random_table(rng):
    n_keys = int(rng.integers(1, 4))
    cols = [
        ColumnSpec(f"k{j}", ColumnKind.CATEGORICAL, categories=("a", "b", "c")[: int(rng.integers(2, 4))])
        for j in range(n_keys)
    ]
    cols.append(ColumnSpec("s", ColumnKind.CATEGORICAL, categories=("x", "y", "z")[: int(rng.integers(2, 4))]))
    schema = Schema(tuple(cols))
    def draw():
        n = int(rng.integers(1, 13))
        return make_dataset(
            schema,
            {c.name: rng.integers(0, len(c.categories), n) for c in schema.columns},
        )
    cfg = PrivacyConfig(
        key_columns=tuple(f"k{j}" for j in range(n_keys)),
        sensitive_column="s",
        tcap_homogeneity=float(rng.choice([0.5, 0.8, 1.0])),
    )
    return draw(), draw(), cfg, tuple(range(n_keys)), n_keys


def test_cap_tcap_inference_match_oracles_on_random_tables():
    rng = np.random.default_rng(77)
    for _ in range(60):
        real, synth, cfg, key_idx, sens_idx = random_table(rng)
        assert categorical_cap(key_groups(real, synth, cfg)).score == cap_oracle(
            real, synth, key_idx, sens_idx
        )
        assert tcap(key_groups(real, synth, cfg), cfg.tcap_homogeneity).score == tcap_oracle(
            real, synth, key_idx, sens_idx, cfg.tcap_homogeneity
        )
        assert inference_attack_score(key_groups(real, synth, cfg)).score == inference_oracle(
            real, synth, key_idx, sens_idx
        )


# ---------------------------------------------------------- new row synthesis ---

NUM = Schema(
    (
        ColumnSpec("v", ColumnKind.CONTINUOUS),
        ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("a", "b")),
    )
)


def test_new_row_relative_tolerance_threshold():
    real = make_dataset(NUM, {"v": [100.0], "c": [0]})
    synth = make_dataset(NUM, {"v": [100.5], "c": [0]})
    assert new_row_synthesis(real, synth, 0.01).score == 0.0   # 0.5 <= 1.0
    assert new_row_synthesis(real, synth, 0.001).score == 1.0  # 0.5 > 0.1


def test_new_row_zero_reference_uses_absolute_tolerance():
    real = make_dataset(NUM, {"v": [0.0], "c": [0]})
    close = make_dataset(NUM, {"v": [0.005], "c": [0]})
    far = make_dataset(NUM, {"v": [0.05], "c": [0]})
    assert new_row_synthesis(real, close, 0.01).score == 0.0
    assert new_row_synthesis(real, far, 0.01).score == 1.0


def test_new_row_categorical_must_match_exactly():
    real = make_dataset(NUM, {"v": [1.0], "c": [0]})
    synth = make_dataset(NUM, {"v": [1.0], "c": [1]})
    assert new_row_synthesis(real, synth, 0.5).score == 1.0


def test_new_row_copy_and_disjoint():
    ds = make_dataset(NUM, {"v": [1.0, 2.0], "c": [0, 1]})
    assert new_row_synthesis(ds, ds, 0.01).score == 0.0
    other = make_dataset(NUM, {"v": [50.0, 60.0], "c": [0, 1]})
    assert new_row_synthesis(ds, other, 0.01).score == 1.0


def test_new_row_monotone_in_tolerance():
    rng = np.random.default_rng(1)
    real = make_dataset(NUM, {"v": rng.normal(10, 1, 40), "c": rng.integers(0, 2, 40)})
    synth = make_dataset(NUM, {"v": rng.normal(10, 1, 40), "c": rng.integers(0, 2, 40)})
    scores = [new_row_synthesis(real, synth, t).score for t in (0.001, 0.01, 0.1, 0.5)]
    assert all(a >= b for a, b in zip(scores, scores[1:]))


def test_new_row_brute_force_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n_r, n_s = rng.integers(1, 10, 2)
        real = make_dataset(NUM, {"v": rng.integers(0, 4, n_r) * 1.0, "c": rng.integers(0, 2, n_r)})
        synth = make_dataset(NUM, {"v": rng.integers(0, 4, n_s) * 1.0, "c": rng.integers(0, 2, n_s)})
        tol = float(rng.choice([0.01, 0.3]))
        expected_unmatched = 0
        for s in rows_of(synth):
            hit = any(
                s[1] == r[1] and abs(s[0] - r[0]) <= (tol * abs(r[0]) if r[0] != 0 else tol)
                for r in rows_of(real)
            )
            expected_unmatched += not hit
        assert new_row_synthesis(real, synth, tol).score == expected_unmatched / synth.n


# ------------------------------------------------------- nearest-neighbour ---

def test_min_nn_hand_case_uses_schema_bounds():
    schema = Schema((ColumnSpec("x", ColumnKind.CONTINUOUS, bounds=(0.0, 10.0)),))
    real = make_dataset(schema, {"x": [0.0]})
    synth = make_dataset(schema, {"x": [5.0]})
    assert min_nn_distance(real, synth).score == pytest.approx(0.5)


def test_min_nn_zero_on_copy():
    ds = make_dataset(NUM, {"v": [1.0, 2.0, 3.0], "c": [0, 1, 0]})
    assert min_nn_distance(ds, ds).score == 0.0


def test_min_nn_disjoint_categorical_is_one():
    schema = Schema((ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("a", "b")),))
    real = make_dataset(schema, {"c": [0, 0]})
    synth = make_dataset(schema, {"c": [1, 1]})
    assert min_nn_distance(real, synth).score == 1.0


def test_min_nn_matches_pairwise_gower_oracle():
    rng = np.random.default_rng(3)
    real = make_dataset(NUM, {"v": rng.uniform(0, 10, 15), "c": rng.integers(0, 2, 15)})
    synth = make_dataset(NUM, {"v": rng.uniform(0, 10, 12), "c": rng.integers(0, 2, 12)})
    ranges = column_ranges(real)
    expected = min(
        gower_distance(s, r, NUM, ranges)
        for s in rows_of(synth)
        for r in rows_of(real)
    )
    assert min_nn_distance(real, synth).score == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------------------ sample overlap ---

def test_overlap_copy_is_one():
    ds = make_dataset(NUM, {"v": [1.0, 2.0, 3.0], "c": [0, 1, 0]})
    m = sample_overlap(ds, ds, 1.0, derive_stream(0, "ov"))
    assert m.score == 1.0


def test_overlap_disjoint_is_zero():
    a = make_dataset(NUM, {"v": [1.0, 2.0], "c": [0, 1]})
    b = make_dataset(NUM, {"v": [9.0, 8.0], "c": [0, 1]})
    assert sample_overlap(a, b, 1.0, derive_stream(1, "ov")).score == 0.0


def test_overlap_one_of_four():
    real = make_dataset(NUM, {"v": [1.0, 2.0, 3.0, 4.0], "c": [0, 0, 1, 1]})
    synth = make_dataset(NUM, {"v": [3.0, 30.0, 40.0, 50.0], "c": [1, 0, 0, 1]})
    assert sample_overlap(real, synth, 1.0, derive_stream(2, "ov")).score == 0.25


def test_overlap_row_order_invariant():
    rng = np.random.default_rng(4)
    real = make_dataset(NUM, {"v": rng.integers(0, 5, 30) * 1.0, "c": rng.integers(0, 2, 30)})
    synth = make_dataset(NUM, {"v": rng.integers(0, 5, 30) * 1.0, "c": rng.integers(0, 2, 30)})
    perm = rng.permutation(30)
    shuffled_real = make_dataset(NUM, {n: real.column(n)[perm] for n in NUM.names})
    shuffled_synth = make_dataset(NUM, {n: synth.column(n)[perm] for n in NUM.names})
    a = sample_overlap(real, synth, 0.5, derive_stream(5, "ov")).score
    b = sample_overlap(shuffled_real, shuffled_synth, 0.5, derive_stream(5, "ov")).score
    assert a == b


def test_overlap_deterministic_given_stream():
    rng = np.random.default_rng(6)
    real = make_dataset(NUM, {"v": rng.integers(0, 3, 20) * 1.0, "c": rng.integers(0, 2, 20)})
    synth = make_dataset(NUM, {"v": rng.integers(0, 3, 20) * 1.0, "c": rng.integers(0, 2, 20)})
    a = sample_overlap(real, synth, 0.4, derive_stream(7, "ov")).score
    b = sample_overlap(real, synth, 0.4, derive_stream(7, "ov")).score
    assert a == b


# --------------------------------------------------------------- config/orch ---

def test_config_validation():
    with pytest.raises(ConfigError):
        validate_privacy_config(PrivacyConfig(key_columns=("nope",), sensitive_column="s"), KS, True)
    with pytest.raises(ConfigError):
        validate_privacy_config(PrivacyConfig(key_columns=("k",), sensitive_column="k"), KS, True)
    with pytest.raises(ConfigError):
        validate_privacy_config(PrivacyConfig(key_columns=(), sensitive_column="s"), KS, True)
    for bad in (
        PrivacyConfig(key_columns=("k",), sensitive_column="s", numeric_match_tolerance=-0.1),
        PrivacyConfig(key_columns=("k",), sensitive_column="s", tcap_homogeneity=0.0),
        PrivacyConfig(key_columns=("k",), sensitive_column="s", overlap_sample_fraction=1.5),
    ):
        with pytest.raises(ConfigError):
            validate_privacy_config(bad, KS, True)


def test_orchestrator_runs_requested_metrics_in_order():
    real = ks_ds([("A", "x"), ("B", "y"), ("A", "y"), ("C", "x")] * 3)
    synth = ks_ds([("A", "x"), ("B", "x"), ("C", "y"), ("A", "x")] * 3)
    out = evaluate_privacy(real, synth, CFG, rng=derive_stream(0, "priv"))
    assert tuple(m.name for m in out) == PRIVACY_METRICS
    subset = evaluate_privacy(
        real, synth, CFG, metrics=("tcap", "categorical_cap"), rng=derive_stream(0, "priv")
    )
    assert [m.name for m in subset] == ["tcap", "categorical_cap"]


@pytest.mark.parametrize(
    "metric",
    ["categorical_cap", "tcap", "inference_attack_score", "new_row_synthesis", "min_nn_distance", "sample_overlap"],
)
@pytest.mark.parametrize("empty_side", ["real", "synthetic"])
def test_orchestrator_rejects_empty_dataset(metric, empty_side):
    rows = ks_ds([("A", "x"), ("B", "y")])
    empty = ks_ds([])
    real, synth = (empty, rows) if empty_side == "real" else (rows, empty)
    with pytest.raises(ConfigError, match="non-empty"):
        evaluate_privacy(real, synth, CFG, metrics=(metric,), rng=derive_stream(0, "priv"))


MIXED_CFG = PrivacyConfig(key_columns=("region",), sensitive_column="status")


def call_directly(metric, real, synth, cfg):
    """The metric's own function, called as a direct API user would call it."""
    if metric == "new_row_synthesis":
        return new_row_synthesis(real, synth, cfg.numeric_match_tolerance)
    if metric == "sample_overlap":
        return sample_overlap(real, synth, cfg.overlap_sample_fraction, derive_stream(0, "ov"))
    if metric == "min_nn_distance":
        return min_nn_distance(real, synth)
    if metric == "tcap":
        return tcap(key_groups(real, synth, cfg), cfg.tcap_homogeneity)
    return getattr(privacy, metric)(key_groups(real, synth, cfg))


@pytest.mark.parametrize("via", ["direct", "evaluate_privacy"])
@pytest.mark.parametrize(
    "metric, empty_side, params",
    [(m, side, {}) for side in ("real", "synthetic") for m in PRIVACY_METRICS]
    + [
        ("sample_overlap", None, {"overlap_sample_fraction": 0.0}),
        ("sample_overlap", None, {"overlap_sample_fraction": -0.5}),
        ("sample_overlap", None, {"overlap_sample_fraction": math.nan}),
        ("new_row_synthesis", None, {"numeric_match_tolerance": -1.0}),
        ("new_row_synthesis", None, {"numeric_match_tolerance": math.nan}),
    ],
)
def test_privacy_metric_rejects_bad_input_with_config_error(metric, empty_side, params, via):
    rows, empty = mixed_dataset(30), mixed_dataset(0)
    real, synth = {"real": (empty, rows), "synthetic": (rows, empty), None: (rows, rows)}[empty_side]
    cfg = dataclasses.replace(MIXED_CFG, **params)
    with pytest.raises(ConfigError):
        if via == "direct":
            call_directly(metric, real, synth, cfg)
        else:
            evaluate_privacy(real, synth, cfg, metrics=(metric,), rng=derive_stream(0, "priv"))


def test_orchestrator_deterministic():
    rng = np.random.default_rng(9)
    real = ks_ds([("A", "x"), ("B", "y")] * 10)
    synth = ks_ds([("A", "y"), ("B", "x")] * 10)
    a = evaluate_privacy(real, synth, CFG, rng=derive_stream(2, "priv"))
    b = evaluate_privacy(real, synth, CFG, rng=derive_stream(2, "priv"))
    assert [(m.name, m.score) for m in a] == [(m.name, m.score) for m in b]


@pytest.mark.parametrize(
    "metrics", [privacy.KEY_BASED_PRIVACY_METRICS, ("tcap",), ("inference_attack_score", "categorical_cap")]
)
def test_key_attacks_share_one_key_grouping(monkeypatch, metrics):
    # the key codes and the key+sensitive codes, once per node
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return row_codes(*args, **kwargs)

    monkeypatch.setattr(privacy, "row_codes", spy)
    real = ks_ds([("A", "x"), ("B", "y"), ("A", "y"), ("C", "x")] * 3)
    synth = ks_ds([("A", "x"), ("B", "x"), ("C", "y"), ("A", "x")] * 3)
    out = evaluate_privacy(real, synth, CFG, metrics=metrics)
    assert len(calls) == 2
    groups = key_groups(real, synth, CFG)
    direct = {
        "categorical_cap": categorical_cap(groups),
        "inference_attack_score": inference_attack_score(groups),
        "tcap": tcap(groups, CFG.tcap_homogeneity),
    }
    assert out == [direct[name] for name in metrics]


@pytest.mark.parametrize("homogeneity", [0.0, -0.5, 1.5, math.nan])
def test_tcap_rejects_homogeneity_outside_unit_interval(homogeneity):
    ds = ks_ds([("A", "x"), ("B", "y")])
    with pytest.raises(ConfigError, match="tcap_homogeneity"):
        tcap(key_groups(ds, ds, CFG), homogeneity)


# ------------------------------------- proximity metrics vs brute-force scans ---
# The pairwise scans below are what min_nn_distance and new_row_synthesis
# computed before they grouped rows; the fast versions must equal them exactly.

def nn_scan(real, synth):
    ranges = column_ranges(real)
    total = np.zeros((synth.n, real.n))
    for j, spec in enumerate(real.schema.columns):
        r, s = real.columns[j][None, :], synth.columns[j][:, None]
        if spec.kind is ColumnKind.CATEGORICAL:
            total += s != r
        else:
            span = ranges[j][1] - ranges[j][0]
            if span > 0.0:
                with np.errstate(over="ignore"):  # an overflowed difference clips to 1
                    total += np.minimum(np.abs(s - r) / span, 1.0)
    return float(total.min()) / len(real.schema.columns)


def new_row_scan(real, synth, tol):
    ok = np.ones((synth.n, real.n), dtype=bool)
    for j, spec in enumerate(real.schema.columns):
        r, s = real.columns[j], synth.columns[j][:, None]
        if spec.kind is ColumnKind.CATEGORICAL:
            ok &= s == r[None, :]
        else:
            ok &= np.abs(s - r[None, :]) <= np.where(r == 0.0, tol, tol * np.abs(r))[None, :]
    matched = ok.any(axis=1)
    return float(np.mean(~matched)), int(matched.sum())


TOLERANCES = (0.0, 0.01, 0.5, 1.0, 3.0)
_CELL = st.one_of(
    st.integers(-3, 3).map(float),  # ties, duplicates, zeros
    st.sampled_from([-0.0, 1e-300, 0.1, 0.3, 12345.678, 12345.679]),
    st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False),
)


@st.composite
def mixed_pair(draw):
    """A schema of 0-3 categorical and 0-3 continuous columns (some with tight
    or zero-width declared bounds), a real table, a tolerance, and a synthetic
    table mixing fresh rows, copies and tolerance-edge perturbations of real
    rows."""
    n_cat, n_cont = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any))
    specs = [
        ColumnSpec(f"c{j}", ColumnKind.CATEGORICAL, categories=("a", "b", "c")[: draw(st.integers(1, 3))])
        for j in range(n_cat)
    ]
    for j in range(n_cont):
        bounds = draw(st.sampled_from([None, (0.0, 1.0), (-1.0, 2.0), (1.0, 1.0)]))
        specs.append(ColumnSpec(f"x{j}", ColumnKind.CONTINUOUS, bounds=bounds))
    specs = draw(st.permutations(specs))
    schema = Schema(tuple(specs))

    def fresh_row():
        return tuple(
            draw(st.integers(0, len(c.categories) - 1)) if c.kind is ColumnKind.CATEGORICAL else draw(_CELL)
            for c in specs
        )

    tol = draw(st.sampled_from(TOLERANCES))
    real_rows = [fresh_row() for _ in range(draw(st.integers(1, 8)))]
    factors = [1.0, 1.0 + tol, 1.0 - tol, 1.0 / (1.0 + tol), 1.0 + tol + 1e-15, 1.0 - 1e-15]
    if tol < 1.0:
        factors.append(1.0 / (1.0 - tol))
    synth_rows = []
    for _ in range(draw(st.integers(1, 8))):
        how = draw(st.sampled_from(["fresh", "copy", "edge"]))
        if how == "fresh":
            synth_rows.append(fresh_row())
            continue
        base = list(draw(st.sampled_from(real_rows)))
        if how == "edge":
            for j, c in enumerate(specs):
                if c.kind is ColumnKind.CONTINUOUS:
                    base[j] = tol if base[j] == 0.0 else base[j] * draw(st.sampled_from(factors))
        synth_rows.append(tuple(base))

    def table(rows):
        return make_dataset(schema, {c.name: [row[j] for row in rows] for j, c in enumerate(specs)})

    return table(real_rows), table(synth_rows), tol


@settings(max_examples=400, deadline=None)
@given(mixed_pair())
def test_min_nn_equals_pairwise_scan(case):
    real, synth, _ = case
    assert min_nn_distance(real, synth).score == nn_scan(real, synth)


@settings(max_examples=400, deadline=None)
@given(mixed_pair())
def test_new_row_equals_pairwise_scan(case):
    real, synth, tol = case
    m = new_row_synthesis(real, synth, tol)
    assert (m.score, m.details["matched_synthetic_rows"]) == new_row_scan(real, synth, tol)


def clustered_pair(n_real, n_synth, seed, shift=0.0):
    """Bench-shaped tables with 3 continuous and 2 categorical columns, many
    groups and near-duplicates; shift moves the synthetic rows away."""
    rng = np.random.default_rng(seed)
    schema = Schema(
        (
            ColumnSpec("age", ColumnKind.CONTINUOUS, bounds=(18.0, 70.0)),
            ColumnSpec("g", ColumnKind.CATEGORICAL, categories=tuple("abcdefgh")),
            ColumnSpec("income", ColumnKind.CONTINUOUS),
            ColumnSpec("h", ColumnKind.CATEGORICAL, categories=tuple("pqrst")),
            ColumnSpec("score", ColumnKind.CONTINUOUS),
        )
    )

    def draw(n, offset):
        return make_dataset(
            schema,
            {
                "age": np.round(rng.uniform(18, 70, n)) + offset * 60,
                "g": rng.integers(0, 8, n),
                "income": np.round(rng.normal(50_000, 9_000, n), -2) * (1 + offset),
                "h": rng.integers(0, 5, n),
                "score": rng.normal(50, 10, n) + offset * 100,
            },
        )

    return draw(n_real, 0.0), draw(n_synth, shift)


@pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
@pytest.mark.parametrize("shift", [0.0, 2.0])
def test_proximity_equal_scans_across_pair_chunks(monkeypatch, chunk, shift):
    # shift 2 puts every synthetic row beyond the clip, so min_nn must fall
    # back to scanning group pairs, across groups too
    monkeypatch.setattr(privacy, "_PAIR_CHUNK", chunk)
    real, synth = clustered_pair(300, 250, seed=11, shift=shift)
    assert min_nn_distance(real, synth).score == nn_scan(real, synth)
    for tol in TOLERANCES:
        m = new_row_synthesis(real, synth, tol)
        assert (m.score, m.details["matched_synthetic_rows"]) == new_row_scan(real, synth, tol)


@pytest.mark.parametrize("tol", [1e308, np.finfo(np.float64).max])
def test_new_row_with_a_tolerance_past_the_doubles_equals_the_scan(tol):
    # tol * |v| overflows: the threshold is infinite, and no warning is raised
    real, synth = clustered_pair(60, 50, seed=13, shift=2.0)
    m = new_row_synthesis(real, synth, tol)
    with np.errstate(over="ignore"):
        expected = new_row_scan(real, synth, tol)
    assert (m.score, m.details["matched_synthetic_rows"]) == expected


@pytest.mark.parametrize("tol", [1.0, 3.0, 1e308])
def test_new_row_with_differences_past_the_doubles_equals_the_scan(tol):
    # s - r overflows for cells near opposite ends of the doubles
    schema = cont_schema("v")
    real = make_dataset(schema, {"v": [1e308, 1.0, -0.0]})
    synth = make_dataset(schema, {"v": [-1e308, 2.0, 1.5e308]})
    m = new_row_synthesis(real, synth, tol)
    with np.errstate(over="ignore"):
        expected = new_row_scan(real, synth, tol)
    assert (m.score, m.details["matched_synthetic_rows"]) == expected


def test_min_nn_with_no_shared_group_uses_fewest_mismatches():
    real, synth = clustered_pair(200, 150, seed=12)
    g = real.schema.index_of("g")
    moved = list(synth.columns)
    moved[g] = np.where(synth.columns[g] < 4, synth.columns[g] + 4, synth.columns[g] - 4)
    real_low = real.take(np.flatnonzero(real.columns[g] < 4))
    synth_high = Dataset(synth.schema, tuple(moved)).take(np.flatnonzero(np.asarray(moved[g]) >= 4))
    score = min_nn_distance(real_low, synth_high).score
    assert score == nn_scan(real_low, synth_high)
    assert 1 / 5 < score < 2 / 5  # one categorical mismatch plus a small continuous gap


def test_min_nn_resolves_tree_ties_in_scan_order():
    # values near 1e4 with 0.1 steps: two real rows tie in the tree's
    # normalized coordinates, while the scan's per-pair sums differ in the
    # last bit; the smaller sum must win
    bounds = (0.0, 10000.1)
    schema = Schema(
        (
            ColumnSpec("x0", ColumnKind.CONTINUOUS, bounds=bounds),
            ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("a",)),
            ColumnSpec("x1", ColumnKind.CONTINUOUS, bounds=bounds),
        )
    )
    real = make_dataset(
        schema,
        {
            "x0": [10000.0, 10001.7, 10001.6, 10001.4, 10000.5, 10001.8, 10002.2, 10001.1, 10001.0, 10001.7],
            "c": [0] * 10,
            "x1": [10000.9, 10001.4, 10000.3, 10002.7, 10002.5, 10001.1, 10002.8, 10000.2, 10002.9, 10001.4],
        },
    )
    synth = make_dataset(
        schema, {"x0": [10001.4, 10002.8, 10011.9], "c": [0] * 3, "x1": [6.0, 11 / 3, 1.0]}
    )
    assert min_nn_distance(real, synth).score == nn_scan(real, synth)


def test_many_categorical_columns_pack_without_collisions():
    # 70 binary columns span 2**70 codes, beyond int64; rows that differ only
    # in the first column must still count as different
    names = tuple(f"k{j}" for j in range(70))
    schema = Schema(
        tuple(ColumnSpec(n, ColumnKind.CATEGORICAL, categories=("a", "b")) for n in names)
        + (ColumnSpec("s", ColumnKind.CATEGORICAL, categories=("x", "y")),)
    )
    base = np.random.default_rng(5).integers(0, 2, len(names))

    def table(first, sens):
        cells = np.tile(base, (len(first), 1))
        cells[:, 0] = first
        return make_dataset(schema, {**{n: cells[:, j] for j, n in enumerate(names)}, "s": sens})

    real, synth = table([0, 0, 1], [0, 0, 1]), table([1, 1, 0], [0, 0, 1])
    cfg = PrivacyConfig(key_columns=names, sensitive_column="s")
    key_idx = tuple(range(len(names)))
    groups = key_groups(real, synth, cfg)
    assert categorical_cap(groups).score == cap_oracle(real, synth, key_idx, len(names))
    assert tcap(groups, cfg.tcap_homogeneity).score == tcap_oracle(real, synth, key_idx, len(names), 1.0)
    assert inference_attack_score(groups).score == inference_oracle(real, synth, key_idx, len(names))
    assert new_row_synthesis(real, synth, 0.01).score == new_row_scan(real, synth, 0.01)[0] == 1.0
    assert min_nn_distance(real, synth).score == nn_scan(real, synth) == 1 / len(schema.columns)


def test_min_nn_with_coordinates_beyond_a_double():
    # a declared range of 1e-310 puts out-of-bounds values beyond float64
    # once range-normalized; the clip still makes each such column count 1
    schema = Schema(
        (
            ColumnSpec("x", ColumnKind.CONTINUOUS, bounds=(0.0, 1e-310)),
            ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("a", "b")),
        )
    )
    real = make_dataset(schema, {"x": [1.0, 5e-311], "c": [0, 1]})
    synth = make_dataset(schema, {"x": [2.0, 0.0], "c": [0, 0]})
    assert min_nn_distance(real, synth).score == nn_scan(real, synth) == 0.5


def test_new_row_searches_the_whole_ball_when_the_nearest_candidate_fails():
    # at tol 0.5 the value 1.0 matches real values in [2/3, 2]; the search
    # ball is a hair wider, and 2.0000000000002 (no match) lies nearer its
    # center than 0.6666666666666667 (a match)
    real = make_dataset(NUM, {"v": [2.0000000000002, 0.6666666666666667], "c": [0, 0]})
    synth = make_dataset(NUM, {"v": [1.0], "c": [0]})
    assert new_row_synthesis(real, synth, 0.5).score == new_row_scan(real, synth, 0.5)[0] == 0.0


def test_new_row_zero_patterns_stay_within_the_query_budget(monkeypatch):
    # 18 continuous columns of small values with real zeros in every column:
    # searching each synthetic row once per zero pattern it may match would
    # take up to 2**18 searches a row at tol 0.5
    rng = np.random.default_rng(21)
    n_cols = 18
    schema = Schema(
        tuple(ColumnSpec(f"x{j}", ColumnKind.CONTINUOUS) for j in range(n_cols))
        + (ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("a", "b")),)
    )
    real_cells = np.where(rng.random((300, n_cols)) < 0.5, 0.0, rng.uniform(0.01, 0.4, (300, n_cols)))
    synth_cells = rng.uniform(0.01, 0.4, (200, n_cols))
    # perturbed copies of real rows, their zeros replaced by small values, so
    # that some rows match only through the real zeros
    near = real_cells[:60] * rng.uniform(0.8, 1.2, (60, n_cols))
    synth_cells[:60] = np.where(near == 0.0, rng.uniform(0.01, 0.4, near.shape), near)

    def table(cells, groups):
        return make_dataset(
            schema, {**{f"x{j}": cells[:, j] for j in range(n_cols)}, "c": groups}
        )

    real = table(real_cells, rng.integers(0, 2, 300))
    synth = table(synth_cells, np.r_[real.column("c")[:60], rng.integers(0, 2, 140)])
    searched = []

    class CountingTree(privacy.cKDTree):
        def query(self, x, *args, **kwargs):
            searched.append(len(x))
            return super().query(x, *args, **kwargs)

    group_checked = []
    match_in_groups = privacy._match_in_groups

    def counting_match_in_groups(code_r, code_s, matches):
        group_checked.append(len(code_s))
        return match_in_groups(code_r, code_s, matches)

    monkeypatch.setattr(privacy, "cKDTree", CountingTree)
    monkeypatch.setattr(privacy, "_match_in_groups", counting_match_in_groups)
    for tol in (0.01, 0.5):
        searched.clear()
        m = new_row_synthesis(real, synth, tol)
        assert (m.score, m.details["matched_synthetic_rows"]) == new_row_scan(real, synth, tol)
        assert sum(searched) <= privacy._QUERIES_PER_ROW * synth.n
    assert m.details["matched_synthetic_rows"] >= 60
    assert group_checked  # rows over the budget were checked group-wide
    # without real zeros no row is searched twice or checked group-wide
    real = table(np.where(real_cells == 0.0, 0.5, real_cells), real.column("c"))
    searched.clear()
    group_checked.clear()
    m = new_row_synthesis(real, synth, 0.5)
    assert (m.score, m.details["matched_synthetic_rows"]) == new_row_scan(real, synth, 0.5)
    assert sum(searched) <= synth.n
    assert not group_checked


def test_new_row_builds_one_tree_per_shared_group_on_mixed_signs(monkeypatch):
    # normal cells take both signs in every column, with exact zeros and
    # magnitudes near the ends of a double; real rows hold groups a-d and
    # synthetic rows b-e, so three groups are shared
    rng = np.random.default_rng(5)
    n_cols = 3
    schema = Schema(
        tuple(ColumnSpec(f"x{j}", ColumnKind.CONTINUOUS) for j in range(n_cols))
        + (ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("a", "b", "c", "d", "e")),)
    )
    real_cells = rng.standard_normal((400, n_cols))
    real_cells[rng.random(real_cells.shape) < 0.1] = 0.0
    real_cells[:20] *= np.where(rng.random((20, 1)) < 0.5, 1e-300, 1e300)
    synth_cells = rng.standard_normal((300, n_cols))
    # perturbed copies of real rows, which match unless moved out of group a
    synth_cells[:150] = real_cells[:150] * rng.uniform(0.995, 1.005, (150, n_cols))
    real_groups = rng.integers(0, 4, 400)
    synth_groups = np.r_[real_groups[:150], rng.integers(1, 5, 150)]
    synth_groups[synth_groups == 0] = 4

    def table(cells, groups):
        return make_dataset(schema, {**{f"x{j}": cells[:, j] for j in range(n_cols)}, "c": groups})

    real, synth = table(real_cells, real_groups), table(synth_cells, synth_groups)
    built = []

    class CountingTree(privacy.cKDTree):
        def __init__(self, data, *args, **kwargs):
            built.append(len(data))
            super().__init__(data, *args, **kwargs)

    monkeypatch.setattr(privacy, "cKDTree", CountingTree)
    for tol in (0.01, 0.5):
        built.clear()
        m = new_row_synthesis(real, synth, tol)
        assert (m.score, m.details["matched_synthetic_rows"]) == new_row_scan(real, synth, tol)
        assert m.details["matched_synthetic_rows"] >= np.count_nonzero(real_groups[:150])
        assert sorted(built) == sorted(np.bincount(real_groups)[1:4])
