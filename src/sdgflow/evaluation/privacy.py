"""Privacy metrics: attribution risk over key columns, copy detection, and
row-proximity measures. Scores carry an explicit direction so reports can say
which way is safer without per-metric folklore."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from ..errors import ConfigError, SchemaError
from ..rng import RngStream
from ..tabular import ColumnKind, Dataset, Schema, column_ranges, row_keys
from .results import Direction, MetricResult, check_metric_names
from .utility import check_pair

# row pairs per vectorized block of the proximity metrics, which bounds their
# temporaries to a few tens of MB at any input size
_PAIR_CHUNK = 1 << 20
# packed key codes are renumbered densely before their range would pass this
_PACK_LIMIT = 1 << 31
# relative allowance for rounding when a search bound is derived from a value
_WIDEN = 1e-9
# average k-d tree searches per synthetic row in new_row_synthesis, which
# bounds the copies made for cells that may match a real 0
_QUERIES_PER_ROW = 2


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
    _check_tolerance(cfg.numeric_match_tolerance)
    if not 0.0 < cfg.tcap_homogeneity <= 1.0:
        raise ConfigError("tcap_homogeneity must be in (0, 1]")
    _check_fraction(cfg.overlap_sample_fraction)


def _check_tolerance(tol: float) -> None:
    if not tol >= 0:  # NaN too
        raise ConfigError("numeric_match_tolerance must be >= 0")


def _check_fraction(fraction: float) -> None:
    if not 0.0 < fraction <= 1.0:
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


def _key_codes(
    real: Dataset, synth: Dataset, names: tuple[str, ...] | list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Pack the named categorical columns of each row into one integer, in a
    code space both datasets share; equal codes mean equal cells."""
    return _pack_codes(
        real.n,
        synth.n,
        [(real.column(c), synth.column(c), len(real.schema.column(c).categories)) for c in names],
    )


def _pack_codes(
    n_r: int, n_s: int, parts: list[tuple[np.ndarray, np.ndarray, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Pack per-row codes, given as (real codes, synthetic codes, number of
    values), into one integer per row of each side. Codes are renumbered
    densely before their range would pass _PACK_LIMIT, so packing many parts
    never overflows."""
    code = np.zeros(n_r + n_s, dtype=np.int64)
    bound = 1
    for codes_r, codes_s, k in parts:
        if bound * k > _PACK_LIMIT:
            distinct, code = np.unique(code, return_inverse=True)
            bound = len(distinct)
        code = code * k + np.concatenate([codes_r, codes_s])
        bound *= k
    return code[:n_r], code[n_r:]


def _check_datasets(real: Dataset, synth: Dataset, what: str) -> None:
    """Both sides share one schema and hold rows; raises a typed error."""
    check_pair(real, synth)
    if real.n == 0 or synth.n == 0:
        raise ConfigError(f"{what} needs non-empty datasets")


def _key_attack_inputs(
    real: Dataset, synth: Dataset, cfg: PrivacyConfig, what: str
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The key attacks' shared checks, then their inputs: the number of
    sensitive values, the key codes of each side and the sensitive codes of
    each side."""
    _check_datasets(real, synth, what)
    validate_privacy_config(cfg, real.schema, need_keys=True)
    key_r, key_s = _key_codes(real, synth, cfg.key_columns)
    sens = cfg.sensitive_column
    return len(real.schema.column(sens).categories), key_r, key_s, real.column(sens), synth.column(sens)


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
    n_sens, key_r, key_s, sens_r, sens_s = _key_attack_inputs(real, synth, cfg, "categorical_cap")

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
    tolerance (absolute when the real value is 0).

    Exact without comparing every pair: candidates come only from the real
    rows of the same categorical group, found by a k-d tree search (see
    _match_in_boxes) or, for a tolerance of 1 or more, group-wide."""
    _check_datasets(real, synth, "new_row_synthesis")
    _check_tolerance(tol)
    cols = real.schema.columns
    cat = [c.name for c in cols if c.kind is ColumnKind.CATEGORICAL]
    cont = [j for j, c in enumerate(cols) if c.kind is ColumnKind.CONTINUOUS]
    code_r, code_s = _key_codes(real, synth, cat)
    if cont:
        vr = np.column_stack([real.columns[j] for j in cont])
        vs = np.column_stack([synth.columns[j] for j in cont])
        thresholds = np.where(vr == 0.0, tol, tol * np.abs(vr))

        def matches(s_idx: np.ndarray, r_idx: np.ndarray) -> np.ndarray:
            """The pairwise scan's test, per candidate pair."""
            return (np.abs(vs[s_idx] - vr[r_idx]) <= thresholds[r_idx]).all(axis=1)

        t = tol * (1.0 + _WIDEN)  # allows for rounding in the scan's test
        if t < 1.0:
            matched = _match_in_boxes(vr, vs, code_r, code_s, t, matches)
        else:
            matched = _match_in_groups(code_r, code_s, matches)
    else:
        matched, _ = _lookup(np.unique(code_r), code_s)
    return MetricResult(
        name="new_row_synthesis",
        score=float(np.mean(~matched)),
        direction=Direction.HIGHER_BETTER,
        provenance="privacy",
        details={"matched_synthetic_rows": int(matched.sum()), "tolerance": tol},
    )


def _match_in_boxes(
    vr: np.ndarray,
    vs: np.ndarray,
    code_r: np.ndarray,
    code_s: np.ndarray,
    t: float,
    matches,
) -> np.ndarray:
    """Per synthetic row (continuous cells vs, group code code_s): does a real
    row pass `matches`? Needs t < 1.

    Then |s - v| <= t |v| holds only for v of the sign of s with log|v| in
    [log|s| - log1p(t), log|s| - log1p(-t)], or for v == 0 when |s| <= t. In
    coordinates (sign, log|v|), with log|0| taken as 0, the candidates of a
    row thus lie in an L-inf ball of one radius, inside one pattern of signs:
    a k-d tree per (group, sign pattern) finds them. A row whose small cells
    may also match a real 0 is searched once per such pattern, counting only
    columns where the real rows of its group hold a 0. The searches are
    capped at _QUERIES_PER_ROW per synthetic row on average; the rows with
    the most patterns are checked against their whole group instead."""
    n_cols = vr.shape[1]

    def split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sign = np.sign(v).astype(np.int8)
        with np.errstate(divide="ignore"):
            return sign, np.where(sign == 0, 0.0, np.log(np.abs(v)))

    sign_r, coord_r = split(vr)
    sign_q, coord_s = split(vs)
    radius = 0.5 * (np.log1p(t) - np.log1p(-t)) + _WIDEN
    center = np.where(sign_q == 0, 0.0, coord_s - 0.5 * (np.log1p(t) + np.log1p(-t)))

    groups_r, group_of_r = np.unique(code_r, return_inverse=True)
    zero_in_group = np.zeros((len(groups_r), n_cols), dtype=bool)
    zero_rows, zero_cols = np.nonzero(sign_r == 0)
    zero_in_group[group_of_r[zero_rows], zero_cols] = True
    in_real, pos = _lookup(groups_r, code_s)
    may_be_zero = in_real[:, None] & zero_in_group[pos] & (sign_q != 0) & (np.abs(vs) <= t)

    owner = np.arange(len(vs))
    spilled = np.zeros(len(vs), dtype=bool)
    budget = _QUERIES_PER_ROW * len(vs)
    for j in np.flatnonzero(may_be_zero.any(axis=0)):
        dual = may_be_zero[owner, j]
        zero_sign, zero_center = sign_q[dual], center[dual]
        zero_sign[:, j] = 0
        zero_center[:, j] = 0.0
        sign_q = np.concatenate([sign_q, zero_sign])
        center = np.concatenate([center, zero_center])
        owner = np.concatenate([owner, owner[dual]])
        if len(owner) > budget:
            counts = np.bincount(owner, minlength=len(vs))
            ranked = np.argsort(-counts, kind="stable")
            cut = int(np.searchsorted(np.cumsum(counts[ranked]), len(owner) - budget)) + 1
            spilled[ranked[:cut]] = True
            keep = ~spilled[owner]
            sign_q, center, owner = sign_q[keep], center[keep], owner[keep]
    key_r, key_q = _pack_codes(
        len(vr),
        len(owner),
        [(code_r, code_s[owner], int(max(code_r.max(initial=0), code_s.max(initial=0))) + 1)]
        + [(sign_r[:, j] + 1, sign_q[:, j] + 1, 3) for j in range(n_cols)],
    )

    matched = np.zeros(len(vs), dtype=bool)
    keys_r, rows_r = _groups(key_r)
    keys_q, rows_q = _groups(key_q)
    _, both_r, both_q = np.intersect1d(keys_r, keys_q, return_indices=True)
    for h, g in zip(both_r, both_q):
        rr, qq = rows_r[h], rows_q[g]
        qq = qq[~matched[owner[qq]]]
        if not len(qq):
            continue
        tree = cKDTree(coord_r[rr])
        dist, nn = tree.query(center[qq], k=1, p=np.inf, distance_upper_bound=radius)
        near = np.isfinite(dist)
        ok = matches(owner[qq[near]], rr[nn[near]])
        matched[owner[qq[near][ok]]] = True
        # the nearest can fail by rounding at the edge of the ball while
        # another point inside it passes
        doubt = qq[near][~ok]
        if len(doubt):
            balls = tree.query_ball_point(center[doubt], radius, p=np.inf, return_sorted=False)
            found = rr[np.concatenate([np.asarray(b, dtype=np.intp) for b in balls])]
            owners = np.repeat(owner[doubt], [len(b) for b in balls])
            matched[owners[matches(owners, found)]] = True
    rest = np.flatnonzero(spilled)
    if len(rest):
        matched[rest] = _match_in_groups(
            code_r, code_s[rest], lambda s_idx, r_idx: matches(rest[s_idx], r_idx)
        )
    return matched


def _match_in_groups(code_r: np.ndarray, code_s: np.ndarray, matches) -> np.ndarray:
    """Per synthetic row: does a real row of its group pass `matches`? Each
    row is checked against slices of its group of doubling width, so a row
    that matches early skips the rest of the group."""
    order = np.argsort(code_r, kind="stable")
    start = np.searchsorted(code_r[order], code_s, side="left")
    stop = np.searchsorted(code_r[order], code_s, side="right")
    matched = np.zeros(len(code_s), dtype=bool)
    pending = np.flatnonzero(stop > start)
    offset, step = 0, 8
    while pending.size:
        take = np.minimum(stop[pending] - start[pending] - offset, step)
        ends = np.cumsum(take)
        lo = 0
        while lo < len(pending):
            done = int(ends[lo - 1]) if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, done + _PAIR_CHUNK, side="right")))
            rows, c = pending[lo:hi], take[lo:hi]
            s_idx = np.repeat(rows, c)
            first = np.repeat(start[rows] + offset - (np.cumsum(c) - c), c)
            r_idx = order[first + np.arange(len(s_idx))]
            matched[s_idx[matches(s_idx, r_idx)]] = True
            lo = hi
        offset += step
        step *= 2
        pending = pending[~matched[pending] & (stop[pending] - start[pending] > offset)]
    return matched


def inference_attack_score(real: Dataset, synth: Dataset, cfg: PrivacyConfig) -> MetricResult:
    """Normalized lift of a per-key modal attacker trained on the synthetic
    data over always guessing the real modal class."""
    n_sens, key_r, key_s, sens_r, sens_s = _key_attack_inputs(real, synth, cfg, "inference_attack_score")

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
    n_sens, key_r, key_s, sens_r, sens_s = _key_attack_inputs(real, synth, cfg, "tcap")

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
    continuous ranges taken from the real dataset.

    Exact, and equal to the pairwise scan to the last bit. Rows are grouped by
    their categorical cells. For each pair of a synthetic and a real group
    with m mismatching categorical columns, a k-d tree over the real group's
    range-normalized continuous cells gives the smallest L1 distance t. The
    per-column clip of Gower's distance only binds on a difference above 1,
    so a pair totals at least m + min(t, 1) and exactly m + t when t < 1.
    Group pairs whose bound cannot beat the best total so far are skipped;
    the others are settled by summing the few nearest pairs the scan's way,
    or by scanning the group pair when t >= 1."""
    _check_datasets(real, synth, "min_nn_distance")
    ranges = column_ranges(real)
    cols = real.schema.columns
    cat = [c.name for c in cols if c.kind is ColumnKind.CATEGORICAL]
    spans = {
        j: ranges[j][1] - ranges[j][0]
        for j, c in enumerate(cols)
        if c.kind is ColumnKind.CONTINUOUS and ranges[j][1] - ranges[j][0] > 0.0
    }

    def coords(ds: Dataset) -> np.ndarray:
        if not spans:
            return np.zeros((ds.n, 1))
        with np.errstate(over="ignore"):  # see `finite`
            return np.column_stack([ds.columns[j] / span for j, span in spans.items()])

    xr, xs = coords(real), coords(synth)
    # a declared range far narrower than the values can overflow a coordinate
    finite = bool(np.isfinite(xr).all() and np.isfinite(xs).all())
    # bound on how far a tree distance and the scan's sum can differ by rounding
    scale = np.maximum(np.abs(xr).max(axis=0), np.abs(xs).max(axis=0)).sum()
    slack = 1e-13 * (len(cols) + 2) * (len(cols) + scale)

    def totals(r_idx: np.ndarray, s_idx: np.ndarray) -> np.ndarray:
        """Unnormalized Gower totals of row pairs, summed in column order
        exactly as the pairwise scan sums them."""
        total = np.zeros(len(s_idx))
        for j, c in enumerate(cols):
            r, s = real.columns[j][r_idx], synth.columns[j][s_idx]
            if c.kind is ColumnKind.CATEGORICAL:
                total += s != r
            elif j in spans:
                with np.errstate(over="ignore"):  # an overflow is clipped to 1 like any far pair
                    total += np.minimum(np.abs(s - r) / spans[j], 1.0)
        return total

    def scan(r_idx: np.ndarray, s_idx: np.ndarray) -> float:
        best = math.inf
        step = max(1, _PAIR_CHUNK // len(r_idx))
        for lo in range(0, len(s_idx), step):
            block = s_idx[lo : lo + step]
            pairs = totals(np.tile(r_idx, len(block)), np.repeat(block, len(r_idx)))
            best = min(best, float(pairs.min()))
        return best

    code_r, code_s = _key_codes(real, synth, cat)
    keys_r, rows_r = _groups(code_r)
    keys_s, rows_s = _groups(code_s)
    trees: dict[int, cKDTree] = {}

    def pair_min(g: int, h: int, m: int, best: float) -> float:
        """min(best, smallest total between synthetic group g and real group h)."""
        s_idx, r_idx = rows_s[g], rows_r[h]
        if not finite:
            return min(best, scan(r_idx, s_idx))
        if h not in trees:
            trees[h] = cKDTree(xr[r_idx])
        tree = trees[h]
        t, nn = tree.query(xs[s_idx], k=1, p=1)
        t_min = float(t.min())
        if min(m + 1.0, m + t_min - slack) >= best:
            return best
        if t_min + slack >= 1.0:
            return min(best, scan(r_idx, s_idx))
        near = t <= t_min + slack
        value = float(totals(r_idx[nn[near]], s_idx[near]).min())
        if value > m:  # pairs tied with the nearest up to rounding may sum lower
            balls = tree.query_ball_point(xs[s_idx[near]], t_min + slack, p=1, return_sorted=False)
            found = np.concatenate([np.asarray(b, dtype=np.intp) for b in balls])
            owners = np.repeat(s_idx[near], [len(b) for b in balls])
            value = min(value, float(totals(r_idx[found], owners).min()))
        return min(best, value)

    best = math.inf
    _, shared_r, shared_s = np.intersect1d(keys_r, keys_s, return_indices=True)
    for h, g in zip(shared_r, shared_s):
        best = pair_min(int(g), int(h), 0, best)
        if best == 0.0:
            break
    # a pair of different groups totals at least 1, so can only win when the
    # same-group pairs could not get below 1
    if best > 1.0 and cat:
        first_r = np.array([rows[0] for rows in rows_r])
        cat_r = np.column_stack([real.column(name)[first_r] for name in cat])
        for g, rows in enumerate(rows_s):
            cells = np.array([synth.column(name)[rows[0]] for name in cat])
            mismatches = (cat_r != cells).sum(axis=1)
            for h in np.argsort(mismatches, kind="stable"):
                m = int(mismatches[h])
                if m >= best:
                    break
                if m > 0:
                    best = pair_min(g, int(h), m, best)
    return MetricResult(
        name="min_nn_distance",
        score=best / len(cols),
        direction=Direction.HIGHER_BETTER,
        provenance="privacy",
        details={"real_rows": real.n, "synthetic_rows": synth.n},
    )


def _groups(code: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Distinct codes in ascending order and the row indices holding each."""
    order = np.argsort(code, kind="stable")
    keys, first = np.unique(code[order], return_index=True)
    return keys, np.split(order, first[1:])


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
    _check_datasets(real, synth, "sample_overlap")
    _check_fraction(fraction)
    gen = rng.generator

    def pick(ds: Dataset) -> Dataset:
        m = math.ceil(fraction * ds.n)
        if m >= ds.n:  # every row: the overlap does not depend on their order
            return ds
        return _canonical_order(ds).take(np.sort(gen.choice(ds.n, size=m, replace=False)))

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


# metric name -> its computation from (real, synth, cfg, rng). Each calls
# through the module's globals, so a function replaced on the module is the
# one called.
_COMPUTE = {
    "categorical_cap": lambda real, synth, cfg, rng: categorical_cap(real, synth, cfg),
    "new_row_synthesis": lambda real, synth, cfg, rng: new_row_synthesis(
        real, synth, cfg.numeric_match_tolerance
    ),
    "inference_attack_score": lambda real, synth, cfg, rng: inference_attack_score(real, synth, cfg),
    "tcap": lambda real, synth, cfg, rng: tcap(real, synth, cfg),
    "min_nn_distance": lambda real, synth, *_: min_nn_distance(real, synth),
    "sample_overlap": lambda real, synth, cfg, rng: sample_overlap(
        real, synth, cfg.overlap_sample_fraction, rng.child("sample_overlap")
    ),
}
PRIVACY_METRICS = tuple(_COMPUTE)
# the metrics that need key and sensitive columns
KEY_BASED_PRIVACY_METRICS = ("categorical_cap", "inference_attack_score", "tcap")


def evaluate_privacy(
    real: Dataset,
    synth: Dataset,
    cfg: PrivacyConfig,
    metrics: tuple[str, ...] = PRIVACY_METRICS,
    rng: RngStream | None = None,
) -> list[MetricResult]:
    """Run the selected privacy metrics, in the order given. The config is
    checked here once, for every metric; each metric checks its rows."""
    check_metric_names(metrics, PRIVACY_METRICS)
    need_keys = not set(metrics).isdisjoint(KEY_BASED_PRIVACY_METRICS)
    validate_privacy_config(cfg, real.schema, need_keys=need_keys)
    if rng is None and "sample_overlap" in metrics:
        raise ConfigError("sample_overlap needs an rng stream")
    return [_COMPUTE[name](real, synth, cfg, rng) for name in metrics]
