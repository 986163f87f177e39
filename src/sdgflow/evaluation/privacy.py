"""Privacy metrics: attribution risk over key columns, copy detection, and
row-proximity measures. Scores carry an explicit direction so reports can say
which way is safer without per-metric folklore."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, SchemaError
from ..rng import RngStream
from ..tabular import ColumnKind, Dataset, Schema, column_ranges, row_keys
from .names import KEY_BASED_PRIVACY_METRICS, PRIVACY_METRICS
from .results import Direction, MetricResult
from .utility import check_pair

_NN_CHUNK_CELLS = 4_000_000


@dataclass(frozen=True)
class PrivacyConfig:
    key_columns: tuple[str, ...] = ()
    sensitive_column: str | None = None
    numeric_match_tolerance: float = 0.01
    tcap_homogeneity: float = 1.0
    overlap_sample_fraction: float = 1.0


def check_privacy_config(cfg: PrivacyConfig, need_keys: bool) -> None:
    """The rules that need no schema, so spec parsing can run them before any
    data is read; raises ConfigError."""
    if need_keys:
        if not cfg.key_columns:
            raise ConfigError("key_columns must be non-empty")
        if cfg.sensitive_column is None:
            raise ConfigError("sensitive_column is required")
        if cfg.sensitive_column in cfg.key_columns:
            raise ConfigError("sensitive_column must not be a key column")
        if len(set(cfg.key_columns)) != len(cfg.key_columns):
            raise ConfigError("key_columns must be distinct")
    if cfg.numeric_match_tolerance < 0:
        raise ConfigError("numeric_match_tolerance must be >= 0")
    if not 0.0 < cfg.tcap_homogeneity <= 1.0:
        raise ConfigError("tcap_homogeneity must be in (0, 1]")
    if not 0.0 < cfg.overlap_sample_fraction <= 1.0:
        raise ConfigError("overlap_sample_fraction must be in (0, 1]")


def validate_privacy_config(cfg: PrivacyConfig, schema: Schema, need_keys: bool) -> None:
    check_privacy_config(cfg, need_keys)
    if need_keys:
        for name in cfg.key_columns:
            _require_categorical(schema, name, "key column")
        _require_categorical(schema, cfg.sensitive_column, "sensitive column")


def _require_categorical(schema: Schema, name: str, what: str) -> None:
    try:
        spec = schema.column(name)
    except SchemaError:
        raise ConfigError(f"{what} {name!r} does not exist") from None
    if spec.kind is not ColumnKind.CATEGORICAL:
        raise ConfigError(f"{what} {name!r} must be categorical")


def _key_codes(ds: Dataset, key_columns: tuple[str, ...]) -> np.ndarray:
    """Pack the key columns of each row into one integer."""
    code = np.zeros(ds.n, dtype=np.int64)
    for name in key_columns:
        k = len(ds.schema.column(name).categories)
        code = code * k + ds.column(name)
    return code


def _modal_by_key(
    key: np.ndarray, sens: np.ndarray, n_sens: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per unique key: (keys, modal sensitive code, modal count, group size).
    Ties resolve to the smallest sensitive code."""
    pair = key * n_sens + sens
    upair, pcounts = np.unique(pair, return_counts=True)
    key_of_pair = upair // n_sens
    starts = np.flatnonzero(np.r_[True, key_of_pair[1:] != key_of_pair[:-1]])
    seg_max = np.maximum.reduceat(pcounts, starts)
    seg_id = np.cumsum(np.r_[True, key_of_pair[1:] != key_of_pair[:-1]]) - 1
    candidates = np.where(pcounts == seg_max[seg_id], np.arange(len(upair)), len(upair))
    first = np.minimum.reduceat(candidates, starts)
    totals = np.add.reduceat(pcounts, starts)
    return key_of_pair[starts], upair[first] % n_sens, pcounts[first], totals


def _lookup(sorted_keys: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each query: (found mask, position into sorted_keys, garbage if absent)."""
    pos = np.searchsorted(sorted_keys, queries)
    pos_c = np.clip(pos, 0, max(len(sorted_keys) - 1, 0))
    found = (
        np.zeros(len(queries), dtype=bool)
        if len(sorted_keys) == 0
        else (pos < len(sorted_keys)) & (sorted_keys[pos_c] == queries)
    )
    return found, pos_c


def categorical_cap(real: Dataset, synth: Dataset, cfg: PrivacyConfig) -> MetricResult:
    """Correct-attribution probability: how often the synthetic rows sharing a
    real row's keys also share its sensitive value. Score is 1 minus that
    rate, so higher means safer."""
    check_pair(real, synth)
    validate_privacy_config(cfg, real.schema, need_keys=True)
    n_sens = len(real.schema.column(cfg.sensitive_column).categories)
    key_r = _key_codes(real, cfg.key_columns)
    key_s = _key_codes(synth, cfg.key_columns)
    sens_r = real.column(cfg.sensitive_column)
    sens_s = synth.column(cfg.sensitive_column)

    ukey, kcounts = np.unique(key_s, return_counts=True)
    upair, pcounts = np.unique(key_s * n_sens + sens_s, return_counts=True)
    found_k, pos_k = _lookup(ukey, key_r)
    totals = np.where(found_k, kcounts[pos_k], 0)
    found_p, pos_p = _lookup(upair, key_r * n_sens + sens_r)
    agree = np.where(found_p, pcounts[pos_p], 0)

    included = totals > 0
    flags = []
    if not included.any():
        score = 1.0
        rate = 0.0
        flags.append("undefined-baseline")
    else:
        attribution = agree[included] / totals[included]
        rate = float(np.mean(attribution))
        score = 1.0 - rate
    return MetricResult(
        name="categorical_cap",
        score=score,
        direction=Direction.HIGHER_BETTER,
        provenance="privacy",
        details={
            "attribution_rate": rate,
            "matched_real_rows": int(included.sum()),
            "unmatched_real_rows": int((~included).sum()),
            "flags": flags,
        },
    )


def new_row_synthesis(real: Dataset, synth: Dataset, tol: float) -> MetricResult:
    """Fraction of synthetic rows that match no real row. A match needs every
    categorical cell equal and every continuous cell within the relative
    tolerance (absolute when the real value is 0)."""
    check_pair(real, synth)
    n_s, n_r = synth.n, real.n
    cat = [j for j, c in enumerate(real.schema.columns) if c.kind is ColumnKind.CATEGORICAL]
    cont = [j for j, c in enumerate(real.schema.columns) if c.kind is ColumnKind.CONTINUOUS]
    thresholds = [
        np.where(real.columns[j] == 0.0, tol, tol * np.abs(real.columns[j])) for j in cont
    ]
    matched = np.zeros(n_s, dtype=bool)
    chunk = max(1, _NN_CHUNK_CELLS // max(n_r, 1))
    for lo in range(0, n_s, chunk):
        hi = min(lo + chunk, n_s)
        ok = np.ones((hi - lo, n_r), dtype=bool)
        for j in cat:
            ok &= synth.columns[j][lo:hi, None] == real.columns[j][None, :]
        for j, thr in zip(cont, thresholds):
            ok &= (
                np.abs(synth.columns[j][lo:hi, None] - real.columns[j][None, :])
                <= thr[None, :]
            )
        matched[lo:hi] = ok.any(axis=1)
    return MetricResult(
        name="new_row_synthesis",
        score=float(np.mean(~matched)),
        direction=Direction.HIGHER_BETTER,
        provenance="privacy",
        details={"matched_synthetic_rows": int(matched.sum()), "tolerance": tol},
    )


def inference_attack_score(real: Dataset, synth: Dataset, cfg: PrivacyConfig) -> MetricResult:
    """Normalized lift of a per-key modal attacker trained on the synthetic
    data over always guessing the real modal class."""
    check_pair(real, synth)
    validate_privacy_config(cfg, real.schema, need_keys=True)
    n_sens = len(real.schema.column(cfg.sensitive_column).categories)
    key_r = _key_codes(real, cfg.key_columns)
    key_s = _key_codes(synth, cfg.key_columns)
    sens_r = real.column(cfg.sensitive_column)
    sens_s = synth.column(cfg.sensitive_column)

    ukey, modal, _, _ = _modal_by_key(key_s, sens_s, n_sens)
    found, pos = _lookup(ukey, key_r)
    predicted = int(found.sum())
    baseline = float(np.bincount(sens_r, minlength=n_sens).max() / real.n)

    flags = []
    if baseline >= 1.0:
        score, accuracy = 0.0, 0.0
        flags.append("degenerate-baseline")
    elif predicted == 0:
        score, accuracy = 0.0, 0.0
        flags.append("no-predicted-rows")
    else:
        correct = int((modal[pos][found] == sens_r[found]).sum())
        accuracy = correct / predicted
        score = max(0.0, (accuracy - baseline) / (1.0 - baseline))
    return MetricResult(
        name="inference_attack_score",
        score=score,
        direction=Direction.LOWER_BETTER,
        provenance="privacy",
        details={
            "accuracy": accuracy,
            "baseline": baseline,
            "predicted_rows": predicted,
            "unpredicted_rows": int(real.n - predicted),
            "flags": flags,
        },
    )


def tcap(real: Dataset, synth: Dataset, cfg: PrivacyConfig) -> MetricResult:
    """Correct-attribution rate restricted to key groups whose synthetic
    sensitive values are homogeneous enough to attack."""
    check_pair(real, synth)
    validate_privacy_config(cfg, real.schema, need_keys=True)
    n_sens = len(real.schema.column(cfg.sensitive_column).categories)
    key_r = _key_codes(real, cfg.key_columns)
    key_s = _key_codes(synth, cfg.key_columns)
    sens_r = real.column(cfg.sensitive_column)
    sens_s = synth.column(cfg.sensitive_column)

    ukey, modal, modal_count, totals = _modal_by_key(key_s, sens_s, n_sens)
    attackable = (modal_count / totals) >= cfg.tcap_homogeneity
    found, pos = _lookup(ukey, key_r)
    in_scope = found & attackable[pos]
    n_scope = int(in_scope.sum())
    flags = []
    if n_scope == 0:
        score = 0.0
        flags.append("no-attackable-records")
    else:
        correct = int((modal[pos][in_scope] == sens_r[in_scope]).sum())
        score = correct / n_scope
    return MetricResult(
        name="tcap",
        score=score,
        direction=Direction.LOWER_BETTER,
        provenance="privacy",
        details={
            "attackable_real_rows": n_scope,
            "attackable_key_groups": int(attackable.sum()),
            "homogeneity_threshold": cfg.tcap_homogeneity,
            "flags": flags,
        },
    )


def min_nn_distance(real: Dataset, synth: Dataset) -> MetricResult:
    """Smallest Gower distance from any synthetic row to any real row, with
    continuous ranges taken from the real dataset. Exact pairwise scan."""
    check_pair(real, synth)
    if real.n == 0 or synth.n == 0:
        raise ConfigError("min_nn_distance needs non-empty datasets")
    ranges = column_ranges(real)
    d = len(real.schema.columns)
    best = math.inf
    chunk = max(1, _NN_CHUNK_CELLS // real.n)
    for lo in range(0, synth.n, chunk):
        hi = min(lo + chunk, synth.n)
        total = np.zeros((hi - lo, real.n), dtype=np.float64)
        for j, spec in enumerate(real.schema.columns):
            r = real.columns[j]
            s = synth.columns[j][lo:hi]
            if spec.kind is ColumnKind.CATEGORICAL:
                total += s[:, None] != r[None, :]
            else:
                span = ranges[j][1] - ranges[j][0]
                if span > 0.0:
                    total += np.minimum(np.abs(s[:, None] - r[None, :]) / span, 1.0)
        best = min(best, float(total.min()) / d)
        if best == 0.0:
            break
    return MetricResult(
        name="min_nn_distance",
        score=best,
        direction=Direction.HIGHER_BETTER,
        provenance="privacy",
        details={"real_rows": real.n, "synthetic_rows": synth.n},
    )


def _canonical_order(ds: Dataset) -> Dataset:
    keys = []
    for arr in reversed(ds.columns):
        keys.append(arr + 0.0 if arr.dtype == np.float64 else arr)
    return ds.take(np.lexsort(tuple(keys)))


def sample_overlap(
    real: Dataset, synth: Dataset, fraction: float, rng: RngStream
) -> MetricResult:
    """Exact-copy rate among seeded samples of both datasets. Rows are put in
    a canonical sort order before sampling so the draw does not depend on the
    incoming row order."""
    check_pair(real, synth)
    gen = rng.generator

    def pick(ds: Dataset) -> Dataset:
        m = math.ceil(fraction * ds.n)
        ordered = _canonical_order(ds)
        if m >= ds.n:
            return ordered
        return ordered.take(np.sort(gen.choice(ds.n, size=m, replace=False)))

    picked_r = pick(real)
    picked_s = pick(synth)
    found, _ = _lookup(np.unique(row_keys(picked_s)), row_keys(picked_r))
    hits = int(found.sum())
    return MetricResult(
        name="sample_overlap",
        score=hits / picked_r.n,
        direction=Direction.LOWER_BETTER,
        provenance="privacy",
        details={
            "sampled_real_rows": picked_r.n,
            "sampled_synthetic_rows": picked_s.n,
            "matched_rows": hits,
            "fraction": fraction,
        },
    )


def evaluate_privacy(
    real: Dataset,
    synth: Dataset,
    cfg: PrivacyConfig,
    metrics: tuple[str, ...] = PRIVACY_METRICS,
    rng: RngStream | None = None,
    proximity_row_cap: int | None = None,
) -> list[MetricResult]:
    """Run the selected privacy metrics.

    proximity_row_cap bounds only the quadratic proximity metrics
    (min_nn_distance, new_row_synthesis) by a seeded row subsample; the
    key-based metrics always see the full datasets.
    """
    unknown = set(metrics) - set(PRIVACY_METRICS)
    if unknown:
        raise ConfigError(f"unknown privacy metrics {sorted(unknown)}")
    need_keys = bool(set(metrics) & set(KEY_BASED_PRIVACY_METRICS))
    validate_privacy_config(cfg, real.schema, need_keys=need_keys)

    prox_real, prox_synth = real, synth
    capped = False
    if proximity_row_cap is not None and rng is not None:
        cap_gen = rng.child("proximity_cap").generator
        if real.n > proximity_row_cap:
            prox_real = real.take(
                np.sort(cap_gen.choice(real.n, size=proximity_row_cap, replace=False))
            )
            capped = True
        if synth.n > proximity_row_cap:
            prox_synth = synth.take(
                np.sort(cap_gen.choice(synth.n, size=proximity_row_cap, replace=False))
            )
            capped = True

    out = []
    for name in metrics:
        if name == "categorical_cap":
            out.append(categorical_cap(real, synth, cfg))
        elif name == "new_row_synthesis":
            m = new_row_synthesis(prox_real, prox_synth, cfg.numeric_match_tolerance)
            if capped:
                m = _with_flag(m, "row-capped")
            out.append(m)
        elif name == "inference_attack_score":
            out.append(inference_attack_score(real, synth, cfg))
        elif name == "tcap":
            out.append(tcap(real, synth, cfg))
        elif name == "min_nn_distance":
            m = min_nn_distance(prox_real, prox_synth)
            if capped:
                m = _with_flag(m, "row-capped")
            out.append(m)
        elif name == "sample_overlap":
            if rng is None:
                raise ConfigError("sample_overlap needs an rng stream")
            out.append(
                sample_overlap(real, synth, cfg.overlap_sample_fraction, rng.child("sample_overlap"))
            )
    return out


def _with_flag(m: MetricResult, flag: str) -> MetricResult:
    details = dict(m.details)
    details["flags"] = list(details.get("flags", [])) + [flag]
    return MetricResult(m.name, m.score, m.direction, m.provenance, details)
