"""Privacy metrics: attribution risk over key columns, copy detection, and
row-proximity measures. Scores carry an explicit direction so reports can say
which way is safer without per-metric folklore."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.spatial import cKDTree

from ..errors import ConfigError, SchemaError
from ..rng import RngStream
from ..tabular import ColumnKind, Dataset, Schema, column_ranges, row_codes
from .results import Direction, MetricResult, check_metric_names, check_rows
from .utility import check_pair

# row pairs per vectorized block of the proximity metrics, which bounds their
# temporaries to a few tens of MB at any input size
_PAIR_CHUNK = 1 << 20
# relative allowance for rounding when a search bound is derived from a value
_WIDEN = 1e-9
# added to log|v| in new_row_synthesis's search coordinate: above the largest
# |log| of a double, so the coordinates of positive, negative and zero values
# lie more than 500 apart
_LOG_OFFSET = 1024.0
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
    _check_share(cfg.tcap_homogeneity, "tcap_homogeneity")
    _check_share(cfg.overlap_sample_fraction, "overlap_sample_fraction")


def _check_tolerance(tol: float) -> None:
    if not tol >= 0:  # NaN too
        raise ConfigError("numeric_match_tolerance must be >= 0")


def _check_share(value: float, name: str) -> None:
    if not 0.0 < value <= 1.0:
        raise ConfigError(f"{name} must be in (0, 1]")


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


def _check_datasets(real: Dataset, synth: Dataset, what: str) -> None:
    """Both sides share one schema and hold rows; raises a typed error."""
    check_pair(real, synth)
    check_rows(real, synth, what)


@dataclass(frozen=True)
class KeyGroups:
    """The key attacks' view of a pair of datasets. Rows are grouped by their
    key cells, in group codes both datasets share. Per group: its synthetic
    rows (`size`), their modal sensitive code (`modal`, ties resolved to the
    smallest code) and that code's count (`modal_count`). Per real row: its
    group (`key_r`), its sensitive code (`sens_r`) and the synthetic rows
    that share both (`agree_r`)."""

    n_sens: int
    size: np.ndarray
    modal: np.ndarray
    modal_count: np.ndarray
    key_r: np.ndarray
    sens_r: np.ndarray
    agree_r: np.ndarray


def key_groups(real: Dataset, synth: Dataset, cfg: PrivacyConfig) -> KeyGroups:
    """The key attacks' shared checks, then their groups."""
    _check_datasets(real, synth, "key_groups")
    validate_privacy_config(cfg, real.schema, need_keys=True)
    sens = cfg.sensitive_column
    n_sens = len(real.schema.column(sens).categories)
    (key_r, key_s), n_keys = row_codes([real, synth], cfg.key_columns)
    (pair_r, pair_s), n_pairs = row_codes([real, synth], (*cfg.key_columns, sens))
    pair_count = np.bincount(pair_s, minlength=n_pairs)
    agree_s = pair_count[pair_s]
    modal_count = np.zeros(n_keys, dtype=np.int64)
    np.maximum.at(modal_count, key_s, agree_s)
    at_mode = agree_s == modal_count[key_s]
    sens_s = synth.column(sens)
    modal = np.full(n_keys, n_sens, dtype=np.int64)  # n_sens stays where no synthetic row is
    np.minimum.at(modal, key_s[at_mode], sens_s[at_mode])
    return KeyGroups(
        n_sens=n_sens,
        size=np.bincount(key_s, minlength=n_keys),
        modal=modal,
        modal_count=modal_count,
        key_r=key_r,
        sens_r=real.column(sens),
        agree_r=pair_count[pair_r],
    )


def categorical_cap(g: KeyGroups) -> MetricResult:
    """Correct-attribution probability: how often the synthetic rows sharing a
    real row's keys also share its sensitive value. Score is 1 minus that
    rate, so higher means safer."""
    totals = g.size[g.key_r]
    included = totals > 0
    flags = []
    if not included.any():
        score = 1.0
        rate = 0.0
        flags.append("undefined-baseline")
    else:
        attribution = g.agree_r[included] / totals[included]
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
    (code_r, code_s), n_groups = row_codes([real, synth], cat)
    if cont:
        vr = np.column_stack([real.columns[j] for j in cont])
        vs = np.column_stack([synth.columns[j] for j in cont])
        with np.errstate(over="ignore"):  # a threshold past the doubles is rightly infinite
            thresholds = np.where(vr == 0.0, tol, tol * np.abs(vr))
            t = tol * (1.0 + _WIDEN)  # allows for rounding in the scan's test

        def matches(s_idx: np.ndarray, r_idx: np.ndarray) -> np.ndarray:
            """The pairwise scan's test, per candidate pair; a difference past
            the doubles is infinite, as in the scan."""
            with np.errstate(over="ignore"):
                return (np.abs(vs[s_idx] - vr[r_idx]) <= thresholds[r_idx]).all(axis=1)

        if t < 1.0:
            matched = _match_in_boxes(vr, vs, code_r, code_s, n_groups, t, matches)
        else:
            matched = _match_in_groups(code_r, code_s, matches)
    else:
        matched = np.bincount(code_r, minlength=n_groups)[code_s] > 0
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
    n_groups: int,
    t: float,
    matches,
) -> np.ndarray:
    """Per synthetic row (continuous cells vs, group code code_s, one of the
    n_groups codes it shares with code_r): does a real row pass `matches`?
    Needs t < 1.

    Then |s - v| <= t |v| holds only for v of the sign of s with log|v| in
    [log|s| - log1p(t), log|s| - log1p(-t)], or for v == 0 when |s| <= t. In
    the coordinate sign(v) * (_LOG_OFFSET + log|v|), 0 for v == 0, the
    candidates of a row thus lie in an L-inf ball of one radius, which is far
    narrower than the gap between values of different signs: a k-d tree per
    group finds them. A row whose small cells may also match a real 0 is
    searched again with those cells at coordinate 0, counting only columns
    where the real rows of its group hold a 0. The searches are capped at
    _QUERIES_PER_ROW per synthetic row on average; the rows with the most
    copies are checked against their whole group instead."""
    n_cols = vr.shape[1]
    mid = 0.5 * (np.log1p(t) + np.log1p(-t))

    def coordinate(v: np.ndarray, shift: float) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.where(v == 0.0, 0.0, np.copysign(_LOG_OFFSET + np.log(np.abs(v)) - shift, v))

    coord_r, center = coordinate(vr, 0.0), coordinate(vs, mid)
    radius = 0.5 * (np.log1p(t) - np.log1p(-t)) + _WIDEN

    zero_in_group = np.zeros((n_groups, n_cols), dtype=bool)
    zero_rows, zero_cols = np.nonzero(vr == 0.0)
    zero_in_group[code_r[zero_rows], zero_cols] = True
    may_be_zero = zero_in_group[code_s] & (vs != 0.0) & (np.abs(vs) <= t)

    owner = np.arange(len(vs))
    spilled = np.zeros(len(vs), dtype=bool)
    budget = _QUERIES_PER_ROW * len(vs)
    for j in np.flatnonzero(may_be_zero.any(axis=0)):
        dual = may_be_zero[owner, j]
        zero_center = center[dual]
        zero_center[:, j] = 0.0
        center = np.concatenate([center, zero_center])
        owner = np.concatenate([owner, owner[dual]])
        if len(owner) > budget:
            counts = np.bincount(owner, minlength=len(vs))
            ranked = np.argsort(-counts, kind="stable")
            cut = int(np.searchsorted(np.cumsum(counts[ranked]), len(owner) - budget)) + 1
            spilled[ranked[:cut]] = True
            keep = ~spilled[owner]
            center, owner = center[keep], owner[keep]

    matched = np.zeros(len(vs), dtype=bool)
    for rr, qq in zip(_groups(code_r, n_groups), _groups(code_s[owner], n_groups)):
        qq = qq[~matched[owner[qq]]]
        if not (len(rr) and len(qq)):
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


def inference_attack_score(g: KeyGroups) -> MetricResult:
    """Normalized lift of a per-key modal attacker trained on the synthetic
    data over always guessing the real modal class."""
    found = g.size[g.key_r] > 0
    predicted = int(found.sum())
    baseline = float(np.bincount(g.sens_r, minlength=g.n_sens).max() / g.key_r.size)

    flags = []
    if baseline >= 1.0:
        score, accuracy = 0.0, 0.0
        flags.append("degenerate-baseline")
    elif predicted == 0:
        score, accuracy = 0.0, 0.0
        flags.append("no-predicted-rows")
    else:
        correct = int((g.modal[g.key_r][found] == g.sens_r[found]).sum())
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
            "unpredicted_rows": g.key_r.size - predicted,
            "flags": flags,
        },
    )


def tcap(g: KeyGroups, homogeneity: float) -> MetricResult:
    """Correct-attribution rate restricted to key groups whose synthetic
    sensitive values are homogeneous enough (`homogeneity`) to attack."""
    _check_share(homogeneity, "tcap_homogeneity")
    seen = g.size > 0  # the key groups of the synthetic rows
    attackable = np.zeros(len(g.size), dtype=bool)
    attackable[seen] = g.modal_count[seen] / g.size[seen] >= homogeneity
    in_scope = attackable[g.key_r]
    n_scope = int(in_scope.sum())
    flags = []
    if n_scope == 0:
        score = 0.0
        flags.append("no-attackable-records")
    else:
        correct = int((g.modal[g.key_r][in_scope] == g.sens_r[in_scope]).sum())
        score = correct / n_scope
    return MetricResult(
        name="tcap",
        score=score,
        direction=Direction.LOWER_BETTER,
        provenance="privacy",
        details={
            "attackable_real_rows": n_scope,
            "attackable_key_groups": int(attackable.sum()),
            "homogeneity_threshold": homogeneity,
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

    (code_r, code_s), n_groups = row_codes([real, synth], cat)
    rows_r, rows_s = _groups(code_r, n_groups), _groups(code_s, n_groups)
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
    for g in range(n_groups):
        if len(rows_r[g]) and len(rows_s[g]):
            best = pair_min(g, g, 0, best)
            if best == 0.0:
                break
    # a pair of different groups totals at least 1, so can only win when the
    # same-group pairs could not get below 1
    if best > 1.0 and cat:
        groups_r = [h for h, rows in enumerate(rows_r) if len(rows)]
        first_r = np.array([rows_r[h][0] for h in groups_r])
        cat_r = np.column_stack([real.column(name)[first_r] for name in cat])
        for g, rows in enumerate(rows_s):
            if not len(rows):
                continue
            cells = np.array([synth.column(name)[rows[0]] for name in cat])
            mismatches = (cat_r != cells).sum(axis=1)
            for i in np.argsort(mismatches, kind="stable"):
                m = int(mismatches[i])
                if m >= best:
                    break
                if m > 0:
                    best = pair_min(g, groups_r[i], m, best)
    return MetricResult(
        name="min_nn_distance",
        score=best / len(cols),
        direction=Direction.HIGHER_BETTER,
        provenance="privacy",
        details={"real_rows": real.n, "synthetic_rows": synth.n},
    )


def _groups(code: np.ndarray, n_groups: int) -> list[np.ndarray]:
    """The row indices holding each code in [0, n_groups), in ascending order;
    empty for a code that no row holds."""
    order = np.argsort(code, kind="stable")
    return np.split(order, np.cumsum(np.bincount(code, minlength=n_groups))[:-1])


def sample_overlap(
    real: Dataset, synth: Dataset, fraction: float, rng: RngStream
) -> MetricResult:
    """Exact-copy rate among seeded samples of both datasets. Rows are put in
    a canonical sort order, by their cells, before sampling so the draw does
    not depend on the incoming row order."""
    _check_datasets(real, synth, "sample_overlap")
    _check_share(fraction, "overlap_sample_fraction")
    gen = rng.generator
    (code_r, code_s), n_groups = row_codes([real, synth])

    def pick(code: np.ndarray) -> np.ndarray:
        """The codes of the sampled rows; sorted codes are the rows' codes in
        canonical order."""
        m = math.ceil(fraction * len(code))
        if m >= len(code):  # every row: the overlap does not depend on their order
            return code
        return np.sort(code)[np.sort(gen.choice(len(code), size=m, replace=False))]

    picked_r = pick(code_r)
    picked_s = pick(code_s)
    hits = int((np.bincount(picked_s, minlength=n_groups)[picked_r] > 0).sum())
    return MetricResult(
        name="sample_overlap",
        score=hits / len(picked_r),
        direction=Direction.LOWER_BETTER,
        provenance="privacy",
        details={
            "sampled_real_rows": len(picked_r),
            "sampled_synthetic_rows": len(picked_s),
            "matched_rows": hits,
            "fraction": fraction,
        },
    )


# metric name -> its computation from (real, synth, cfg, rng, groups), with
# `groups()` the pair's KeyGroups. Each calls through the module's globals, so
# a function replaced on the module is the one called.
_COMPUTE = {
    "categorical_cap": lambda real, synth, cfg, rng, groups: categorical_cap(groups()),
    "new_row_synthesis": lambda real, synth, cfg, rng, groups: new_row_synthesis(
        real, synth, cfg.numeric_match_tolerance
    ),
    "inference_attack_score": lambda real, synth, cfg, rng, groups: inference_attack_score(groups()),
    "tcap": lambda real, synth, cfg, rng, groups: tcap(groups(), cfg.tcap_homogeneity),
    "min_nn_distance": lambda real, synth, *_: min_nn_distance(real, synth),
    "sample_overlap": lambda real, synth, cfg, rng, groups: sample_overlap(
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
    """Run the selected privacy metrics, in the order given, with the config
    checked once; the key attacks share one KeyGroups, built on first use."""
    check_metric_names(metrics, PRIVACY_METRICS)
    need_keys = not set(metrics).isdisjoint(KEY_BASED_PRIVACY_METRICS)
    validate_privacy_config(cfg, real.schema, need_keys=need_keys)
    if rng is None and "sample_overlap" in metrics:
        raise ConfigError("sample_overlap needs an rng stream")
    groups = cache(lambda: key_groups(real, synth, cfg))
    return [_COMPUTE[name](real, synth, cfg, rng, groups) for name in metrics]
