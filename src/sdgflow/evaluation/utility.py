"""Utility metrics: propensity-score pMSE family plus distributional fidelity.

The propensity model is a ridge-regularized logistic regression (IRLS) that
tries to tell real rows from synthetic ones; the less separable they are, the
closer observed pMSE sits to its null value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from ..errors import ConfigError, DegenerateNull, NumericOverflow, SeparationWarning, TooFewRows
from ..rng import RngStream
from ..special import expit
from ..tabular import ColumnKind, Dataset, Encoding, category_counts, encode, encoded_width
from .results import (
    Direction,
    MetricResult,
    check_metric_names,
    check_pair,
    compute_metrics,
)

RIDGE = 1e-6
MAX_ITER = 100
COEF_TOL = 1e-8
BLOCK_MAX_ITER = 30
MIN_ROW_BLOCK, ROW_BLOCK = 1_024, 8_192  # the range of rows per product (_block_rows)
NULL_BLOCK_CELLS = 1 << 22  # refits x block rows per refit group: caps its scores at 32 MB
_SEPARATION_COEF = 25.0
DEFAULT_NULL_MODEL = "permutation"
NULL_MODELS = (DEFAULT_NULL_MODEL, "analytic")
DEFAULT_PERMUTATIONS = 50
MIN_PERMUTATIONS = 20
MAX_PERMUTATIONS = 10_000  # ceiling on the null's refits, which bounds its run time


@dataclass(frozen=True)
class PropensityModel:
    coefficients: tuple[float, ...]  # intercept first, then k predictors
    c: float
    k: int
    converged: bool
    iterations: int


@dataclass(frozen=True)
class NullModel:
    kind: str  # permutation | analytic
    B: int
    null_mean: float
    null_sd: float
    samples: tuple[float, ...] = field(default_factory=tuple)
    block_iterations: int = 0  # steps of the fixed-Hessian block (permutation kind)
    newton_refits: tuple[int, ...] = ()  # refits the block left to _irls
    unconverged_refits: int = 0  # of those, refits _irls left unconverged


def check_null_model(kind: str, B: int) -> None:
    """The null-model rules pmse_null and spec parsing share; raises ConfigError."""
    if kind not in NULL_MODELS:
        raise ConfigError(f"null model kind must be {'|'.join(NULL_MODELS)}, got {kind!r}")
    if not MIN_PERMUTATIONS <= B <= MAX_PERMUTATIONS:
        raise ConfigError(f"permutations must be in [{MIN_PERMUTATIONS}, {MAX_PERMUTATIONS}], got {B}")


def _design(real: Dataset, synth: Dataset) -> tuple[Encoding, np.ndarray]:
    """The propensity model's inputs: the N x (k+1) design matrix (intercept
    column first) as its columns, and the labels (0 real, 1 synthetic);
    its callers have checked the pair."""
    if real.n < 2 or synth.n < 2:
        raise TooFewRows("propensity fit needs at least 2 rows on each side")
    x = encode(real, synth)
    z = np.zeros(x.n, dtype=np.float64)
    z[real.n:] = 1.0
    return x, z


def _block_rows(n: int) -> int:
    """Rows per block of a design of n rows: the smallest power of two at or
    above n, within [MIN_ROW_BLOCK, ROW_BLOCK]. n alone fixes it, so each
    product over rows has one shape for a given table, and a small table is
    not padded to ROW_BLOCK rows."""
    return min(ROW_BLOCK, max(MIN_ROW_BLOCK, 1 << (n - 1).bit_length()))


def _row_blocks(x: Encoding, *arrays: np.ndarray):
    """Yield (rows, (xb, *blocks)) for each _block_rows(x.n) rows of the
    design x and of `arrays`, which hold their x.n rows on axis 0: each
    block is that long and its first `rows` are data. xb is one buffer that
    x.fill rewrites for each block, so a block must be used up before the
    next is asked for; of `arrays`, whole blocks are views and the last,
    partial block is a zero-padded copy. Every product over rows is summed
    block by block, in block order, so no temporary grows with n and each
    product has one shape whatever n is, which keeps its rounding
    independent of the BLAS thread count. A pad row of x is zero and adds
    nothing to a product with x; any other use of a block drops its pad
    rows."""
    size = _block_rows(x.n)
    xb = np.empty((size, x.width))
    for lo in range(0, x.n, size):
        rows = x.fill(lo, xb)
        if rows == size:
            yield rows, (xb, *(a[lo : lo + rows] for a in arrays))
            continue
        padded = tuple(np.zeros((size, *a.shape[1:]), dtype=a.dtype) for a in arrays)
        for block, a in zip(padded, arrays):
            block[:rows] = a[lo:]
        yield rows, (xb, *padded)


def _block_scores(x: Encoding, beta: np.ndarray):
    """Yield (rows, xb, expit(beta @ xb.T)) for each row block xb of x, one
    row of scores per row of beta, all in one buffer that each block
    overwrites; the scores of pad rows are expit(0)."""
    prob = np.empty((len(beta), _block_rows(x.n)))
    for rows, (xb,) in _row_blocks(x):
        yield rows, xb, expit(np.matmul(beta, xb.T, out=prob), out=prob)


def _pmse_rows(x: Encoding, beta: np.ndarray, c: float) -> np.ndarray:
    """The pMSE of each row of beta: the mean over the rows of x of
    (expit(x beta) - c)^2."""
    total = np.zeros(len(beta))
    for rows, _, prob in _block_scores(x, beta):
        prob -= c
        np.square(prob, out=prob)
        total += prob[:, :rows].sum(axis=1)
    return total / x.n


def _ridge(p: int) -> np.ndarray:
    """The ridge of each of p coefficients: RIDGE, and none on the intercept."""
    ridge = np.full(p, RIDGE)
    ridge[0] = 0.0
    return ridge


def _irls(x: Encoding, z: np.ndarray, warn: bool = True) -> tuple[np.ndarray, bool, int]:
    """Ridge logistic fit; returns (beta, converged, iterations).

    The ridge excludes the intercept, which keeps mean(p) equal to mean(z) at
    the optimum up to the tolerance. `warn=False` reports drift toward
    separation only through `converged`, without a SeparationWarning.
    """
    p = x.width
    ridge = _ridge(p)
    beta = np.zeros(p)
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        grad = np.zeros(p)
        hess = np.zeros((p, p))
        for _, (xb, zb) in _row_blocks(x, z):
            prob = xb @ beta
            expit(prob, out=prob)
            w = np.clip(prob * (1.0 - prob), 1e-12, None)
            grad += xb.T @ (zb - prob)
            hess += xb.T @ (xb * w[:, None])
        grad -= ridge * beta
        hess[np.diag_indices_from(hess)] += ridge
        step = np.linalg.solve(hess, grad)
        beta = beta + step
        if np.max(np.abs(step)) < COEF_TOL:
            converged = True
            break
    if np.max(np.abs(beta)) > _SEPARATION_COEF:
        if warn:
            warnings.warn(
                "propensity fit drifted toward perfect separation",
                SeparationWarning,
                stacklevel=3,
            )
        converged = False
    return beta, converged, iterations


def fit_propensity(real: Dataset, synth: Dataset) -> tuple[PropensityModel, np.ndarray]:
    """Fit the real-vs-synthetic classifier; the fit is deterministic."""
    check_pair(real, synth, "fit_propensity")
    x, z = _design(real, synth)
    beta, converged, iterations = _irls(x, z)
    scores = np.empty(x.n)
    lo = 0
    for rows, _, prob in _block_scores(x, beta[None]):
        scores[lo : lo + rows] = prob[0, :rows]  # prob is overwritten by the next block
        lo += rows
    model = PropensityModel(
        coefficients=tuple(float(b) for b in beta),
        c=synth.n / x.n,
        k=x.width - 1,
        converged=converged,
        iterations=iterations,
    )
    return model, scores


def pmse_observed(
    scores: np.ndarray, c: float, fit: PropensityModel | None = None
) -> MetricResult:
    """Mean squared distance of the propensity scores from c; `fit`, the model
    that produced them, adds its convergence to the details."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ConfigError("pmse_observed needs at least one score")
    value = float(np.mean((scores - c) ** 2))
    details: dict = {"n": int(scores.size), "c": c}
    if fit is not None:
        details.update(converged=fit.converged, iterations=fit.iterations)
    return MetricResult(
        name="pmse_observed",
        score=value,
        direction=Direction.LOWER_BETTER,
        provenance="utility",
        details=details,
    )


def _block_refits(
    x: Encoding, xtz: np.ndarray, c: float, h0_inv: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Fit every row of `xtz` (X'z_b, one row per permuted label vector) at
    once; returns (beta, converged, iterations), beta one row per refit.

    Every refit starts at the intercept-only fit (logit c, 0, ..., 0), where
    the Hessian is exactly H0 = c(1-c) X'X + ridge, and keeps that matrix
    fixed, given as its inverse `h0_inv`: beta += H0^-1 (X'z - X'expit(X
    beta) - ridge beta) (Bohning & Lindsay 1988). Permuted labels carry no
    signal, so each fit stays near the start and the iteration contracts
    fast. A refit leaves the block on the rule _irls uses (largest step
    below COEF_TOL); the block stops after BLOCK_MAX_ITER steps."""
    n_refits, p = xtz.shape
    ridge = _ridge(p)
    beta = np.zeros((n_refits, p))
    beta[:, 0] = math.log(c / (1.0 - c))
    converged = np.zeros(n_refits, dtype=bool)
    active = np.arange(n_refits)
    iterations = 0
    while active.size and iterations < BLOCK_MAX_ITER:
        iterations += 1
        b = beta[active]
        fitted = sum(prob @ xb for _, xb, prob in _block_scores(x, b))  # X' expit(X b)
        step = (xtz[active] - fitted - ridge * b) @ h0_inv
        beta[active] = b + step
        done = np.max(np.abs(step), axis=1) < COEF_TOL
        converged[active[done]] = True
        active = active[~done]
    return beta, converged, iterations


def _null_sums(x: Encoding, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(X'z_b for each row z_b of labels, X'X), summed block by block in one
    pass over the row blocks of x."""
    xtz = xtx = 0
    for _, (xb, lb) in _row_blocks(x, labels.T):
        xtz = xtz + lb.T.astype(np.float64) @ xb
        xtx = xtx + xb.T @ xb
    return xtz, xtx


def _h0_inverse(xtx: np.ndarray, c: float) -> np.ndarray:
    """The inverse of H0 = c(1-c) X'X + ridge, the Hessian at the null fit,
    which every refit of _block_refits keeps."""
    h0 = c * (1.0 - c) * xtx
    h0[np.diag_indices_from(h0)] += _ridge(len(h0))
    return np.linalg.inv(h0)


def pmse_null(
    real: Dataset,
    synth: Dataset,
    kind: str = DEFAULT_NULL_MODEL,
    B: int = DEFAULT_PERMUTATIONS,
    rng: RngStream | None = None,
) -> NullModel:
    """Null distribution of observed pMSE under "synthetic label carries no
    signal". Permutation kind refits the model on shuffled labels; analytic
    kind evaluates the closed forms for this model family:

        null_mean = k c (1 - c) / N,    null_sd = sqrt(2 k) c (1 - c) / N,

    with k the number of encoded predictors (no intercept) and N = n_real +
    n_synth. To first order around the null fit (intercept logit c),
    p_hat - c ~ H (z - c) with H the rank-k hat matrix of the centred
    predictors and Var(z) = c (1 - c), so N pMSE is a quadratic form with
    mean tr(H) c (1 - c) and variance 2 tr(H^2) c^2 (1 - c)^2.

    The B permutation refits run together, in groups of NULL_BLOCK_CELLS //
    _block_rows(N), with the Hessian frozen at the null fit (_block_refits); any
    refit that has not converged there is refit from zero by _irls, as a
    lone refit would be, and `unconverged_refits` counts those _irls left
    unconverged (separation guard or MAX_ITER)."""
    check_pair(real, synth, "pmse_null")
    check_null_model(kind, B)
    n = real.n + synth.n
    c = synth.n / n
    if kind == "analytic":
        k = encoded_width(real.schema)
        mean = k * c * (1.0 - c) / n
        sd = math.sqrt(2.0 * k) * c * (1.0 - c) / n
        return NullModel(kind="analytic", B=0, null_mean=mean, null_sd=sd)
    if rng is None:
        raise ConfigError("permutation null needs an rng stream")
    x, z = _design(real, synth)
    gen = rng.generator
    labels = np.empty((B, n), dtype=np.int8)
    for b in range(B):
        labels[b] = gen.permutation(z)
    xtz, xtx = _null_sums(x, labels)
    h0_inv = _h0_inverse(xtx, c)
    samples = np.empty(B)
    converged = np.zeros(B, dtype=bool)
    iterations = 0
    width = NULL_BLOCK_CELLS // _block_rows(n)
    for lo in range(0, B, width):
        part = slice(lo, lo + width)
        beta, done, steps = _block_refits(x, xtz[part], c, h0_inv)
        iterations = max(iterations, steps)
        samples[part][done] = _pmse_rows(x, beta[done], c)
        converged[part] = done
    newton = np.flatnonzero(~converged)
    unconverged = 0
    for b in newton:
        beta, ok, _ = _irls(x, labels[b].astype(np.float64), warn=False)
        samples[b] = _pmse_rows(x, beta[None], c)[0]
        unconverged += not ok
    return NullModel(
        kind="permutation",
        B=B,
        null_mean=float(samples.mean()),
        null_sd=float(samples.std(ddof=1)),
        samples=tuple(float(s) for s in samples),
        block_iterations=iterations,
        newton_refits=tuple(int(b) for b in newton),
        unconverged_refits=unconverged,
    )


def _null_fit_details(null: NullModel) -> dict:
    if null.kind != "permutation":
        return {}
    return {
        "null_block_iterations": null.block_iterations,
        "null_newton_refits": len(null.newton_refits),
        "null_unconverged_refits": null.unconverged_refits,
    }


def pmse_standardized(observed: float, null: NullModel) -> MetricResult:
    if null.null_sd <= 0.0:
        raise DegenerateNull("null standard deviation is zero")
    return MetricResult(
        name="pmse_standardized",
        score=(observed - null.null_mean) / null.null_sd,
        direction=Direction.CENTERED_ZERO,
        provenance="utility",
        details={
            "null_mean": null.null_mean,
            "null_sd": null.null_sd,
            "null_kind": null.kind,
            **_null_fit_details(null),
        },
    )


def pmse_ratio(observed: float, null: NullModel) -> MetricResult:
    if null.null_mean <= 0.0:
        raise DegenerateNull("null mean is zero")
    return MetricResult(
        name="pmse_ratio",
        score=observed / null.null_mean,
        direction=Direction.CENTERED_ONE,
        provenance="utility",
        details={"null_mean": null.null_mean, "null_kind": null.kind, **_null_fit_details(null)},
    )


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Exact two-sample Kolmogorov-Smirnov statistic: the largest gap between
    the two empirical CDFs over the pooled values. Each sorted sample is
    walked ROW_BLOCK values at a time: at the last of each run of equal
    values, the count at or below it is its position in its own sample and
    a right searchsorted in the other, so the temporaries stay one block
    long."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    return _ks_of_sorted(a, b)


def _ks_of_sorted(a: np.ndarray, b: np.ndarray) -> float:
    """ks_statistic of two float64 samples already sorted ascending."""
    if a.size == 0 or b.size == 0:
        raise ConfigError("ks_statistic needs non-empty samples")
    gap = 0.0
    # |p - q| rounds to the same double as |q - p|, so the order of the
    # samples in the difference does not matter
    for x, y in ((a, b), (b, a)):
        for lo in range(0, x.size, ROW_BLOCK):
            hi = min(lo + ROW_BLOCK, x.size)
            last = np.ones(hi - lo, dtype=bool)  # x[hi - 1] ends a run when hi == x.size
            nxt = x[lo + 1 : hi + 1]
            np.not_equal(x[lo : lo + nxt.size], nxt, out=last[: nxt.size])
            ends = np.flatnonzero(last) + lo
            in_y = np.searchsorted(y, x[ends], side="right")
            gap = max(gap, float(np.max(np.abs((ends + 1) / x.size - in_y / y.size), initial=0.0)))
    return gap


def _copied_into(row: np.ndarray, values, dtype=np.float64) -> np.ndarray:
    """A writable copy of the values as dtype (8 bytes wide), in the front of
    the float64 row: the codes of a categorical column, widened there to
    int64 before any arithmetic, or continuous values to sort in place."""
    out = row[: np.size(values)].view(dtype)
    out[...] = values
    return out


def _scratch_rows(real: Dataset, synth: Dataset) -> np.ndarray:
    """Two float64 rows as long as the longer dataset: each fidelity metric
    sorts, counts and multiplies in them, for every column or pair of both
    datasets, not in a full-length temporary per column or per pair.

    They earn their code. On perfbench's rules-fanout-300k pair, read back
    with load_csv and scored in a worker thread (2-vCPU Xeon), a version
    making a new array for each intermediate took 97-135 ms and 34,200
    minor page faults a call, against 34-47 ms and no faults after the
    first call with these rows: each 2.4 MB temporary was mapped afresh."""
    return np.empty((2, max(real.n, synth.n)))


def specks(scores_real: np.ndarray, scores_synth: np.ndarray) -> MetricResult:
    """KS distance between the propensity-score distributions of the two sides."""
    value = ks_statistic(scores_real, scores_synth)
    return MetricResult(
        name="specks",
        score=value,
        direction=Direction.LOWER_BETTER,
        provenance="utility",
        details={"n_real": int(np.size(scores_real)), "n_synth": int(np.size(scores_synth))},
    )


def _tvd(real_codes: np.ndarray, synth_codes: np.ndarray, n_categories: int) -> float:
    p = category_counts(real_codes, n_categories) / real_codes.size
    q = category_counts(synth_codes, n_categories) / synth_codes.size
    return 0.5 * float(np.abs(p - q).sum())


def univariate_fidelity(real: Dataset, synth: Dataset) -> MetricResult:
    """Mean per-column marginal agreement: 1-KS for continuous columns,
    1-TVD for categorical columns. The continuous samples are sorted in one
    set of _scratch_rows."""
    check_pair(real, synth, "univariate_fidelity")
    rows = _scratch_rows(real, synth)
    per_column = {}
    for spec, r, s in zip(real.schema.columns, real.columns, synth.columns):
        if spec.kind is ColumnKind.CONTINUOUS:
            a, b = _copied_into(rows[0], r), _copied_into(rows[1], s)
            a.sort()
            b.sort()
            per_column[spec.name] = 1.0 - _ks_of_sorted(a, b)
        else:
            per_column[spec.name] = 1.0 - _tvd(r, s, len(spec.categories))
    return MetricResult(
        name="univariate_fidelity",
        score=float(np.mean(list(per_column.values()))),
        direction=Direction.HIGHER_BETTER,
        provenance="utility",
        details={"per_column": per_column},
    )


def _column_stats(ds: Dataset, row: np.ndarray) -> list:
    """Per column, what the pair statistics read of it alone: a continuous
    column's (mean, std, SST), SST being its sum of squared deviations from
    the mean, and a categorical column's category counts as floats. The
    deviations are squared in `row`; std is sqrt(SST / n), the sum np.std
    makes. A mean or SST past the doubles raises NumericOverflow."""
    stats = []
    for spec, x in zip(ds.schema.columns, ds.columns):
        if spec.kind is ColumnKind.CATEGORICAL:
            stats.append(category_counts(x, len(spec.categories)).astype(np.float64))
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            mean = x.mean()
            dev = np.subtract(x, mean, out=row[: x.size])
            sst = float(np.multiply(dev, dev, out=dev).sum())
        if not (math.isfinite(mean) and math.isfinite(sst)):
            raise NumericOverflow(f"column {spec.name!r}: mean or sum of squares is not finite")
        stats.append((mean, math.sqrt(sst / x.size), sst))
    return stats


def _pearson(x: np.ndarray, y: np.ndarray, x_stats, y_stats, rows: np.ndarray) -> tuple[float, bool]:
    (mx, sx, _), (my, sy, _) = x_stats, y_stats
    if sx < 1e-12 or sy < 1e-12:
        return 0.0, True
    dx = np.subtract(x, mx, out=rows[0, : x.size])
    dy = np.subtract(y, my, out=rows[1, : y.size])
    r = float(np.mean(np.multiply(dx, dy, out=dx)) / (sx * sy))
    return min(max(r, -1.0), 1.0), False  # a NaN r passes the clamp


def _cramers_v(a: np.ndarray, b: np.ndarray, ka: int, kb: int, row: np.ndarray) -> tuple[float, bool]:
    low = min(ka - 1, kb - 1)
    if low == 0:
        return 0.0, True
    n = a.size
    # the codes widen before the product: made in their narrow dtype, a * kb would wrap
    cells = _copied_into(row, a, np.int64)
    cells *= kb
    cells += b
    table = np.bincount(cells, minlength=ka * kb).reshape(ka, kb).astype(np.float64)
    row_sums = table.sum(axis=1, keepdims=True)
    col_sums = table.sum(axis=0, keepdims=True)
    expected = row_sums @ col_sums / n
    mask = expected > 0
    chi2 = float((((table - expected) ** 2)[mask] / expected[mask]).sum())
    return math.sqrt(chi2 / (n * low)), False


def _correlation_ratio(
    codes: np.ndarray, values: np.ndarray, counts: np.ndarray, values_stats, rows: np.ndarray
) -> tuple[float, bool]:
    grand, _, sst = values_stats
    if sst <= 0.0:
        return 0.0, True
    codes, values = _copied_into(rows[0], codes, np.int64), _copied_into(rows[1], values)
    sums = np.bincount(codes, weights=values, minlength=counts.size)
    nonzero = counts > 0
    ssb = float((counts[nonzero] * (sums[nonzero] / counts[nonzero] - grand) ** 2).sum())
    return math.sqrt(min(ssb / sst, 1.0)), False


def bivariate_fidelity(real: Dataset, synth: Dataset) -> MetricResult:
    """Mean pairwise-association agreement over all column pairs.

    Pearson for continuous pairs, Cramer's V for categorical pairs, the
    correlation ratio for mixed pairs. Degenerate inputs (constant column,
    single category, zero variance) contribute an association of 0 and are
    flagged in the details. Each column's own statistics are made once per
    dataset; the pair products are made in one set of _scratch_rows.
    """
    check_pair(real, synth, "bivariate_fidelity")
    schema = real.schema
    if len(schema.columns) < 2:
        raise ConfigError("bivariate_fidelity needs at least 2 columns")
    rows = _scratch_rows(real, synth)
    sides = [(ds.columns, _column_stats(ds, rows[0])) for ds in (real, synth)]
    per_pair = {}
    flags = []
    for i in range(len(schema.columns)):
        for j in range(i + 1, len(schema.columns)):
            a, b = schema.columns[i], schema.columns[j]
            pair = f"{a.name}|{b.name}"
            stats = []
            for columns, col_stats in sides:
                xa, xb, sa, sb = columns[i], columns[j], col_stats[i], col_stats[j]
                if a.kind is ColumnKind.CONTINUOUS and b.kind is ColumnKind.CONTINUOUS:
                    v, degen = _pearson(xa, xb, sa, sb, rows)
                    scale = 2.0
                elif a.kind is ColumnKind.CATEGORICAL and b.kind is ColumnKind.CATEGORICAL:
                    v, degen = _cramers_v(xa, xb, len(a.categories), len(b.categories), rows[0])
                    scale = 1.0
                elif a.kind is ColumnKind.CATEGORICAL:
                    v, degen = _correlation_ratio(xa, xb, sa, sb, rows)
                    scale = 1.0
                else:
                    v, degen = _correlation_ratio(xb, xa, sb, sa, rows)
                    scale = 1.0
                if not math.isfinite(v):
                    raise NumericOverflow(f"columns {a.name!r} and {b.name!r}: association is not finite")
                stats.append(v)
                if degen:
                    flags.append(pair)
            per_pair[pair] = 1.0 - abs(stats[0] - stats[1]) / scale
    return MetricResult(
        name="bivariate_fidelity",
        score=float(np.mean(list(per_pair.values()))),
        direction=Direction.HIGHER_BETTER,
        provenance="utility",
        details={"per_pair": per_pair, "degenerate_pairs": sorted(set(flags))},
    )


# metric name -> its computation, whose parameters name what it reads of
# evaluate_utility's inputs: the datasets `real` and `synth`, and the thunks
# `fit()`, `observed()` and `null()`. Each calls through the module's
# globals, so a function replaced on the module is the one called.
_COMPUTE = {
    "pmse_observed": lambda observed: observed(),
    "pmse_standardized": lambda observed, null: pmse_standardized(observed().score, null()),
    "pmse_ratio": lambda observed, null: pmse_ratio(observed().score, null()),
    "specks": lambda real, fit: specks(*np.split(fit()[1], [real.n])),
    "univariate_fidelity": lambda real, synth: univariate_fidelity(real, synth),
    "bivariate_fidelity": lambda real, synth: bivariate_fidelity(real, synth),
}
UTILITY_METRICS = tuple(_COMPUTE)


def evaluate_utility(
    real: Dataset,
    synth: Dataset,
    metrics: tuple[str, ...],
    null_model: str,
    permutations: int,
    rng: RngStream,
) -> list[MetricResult]:
    """Run the selected metrics, in the order given. What they share is made
    once, when a metric first needs it; the null model draws from `rng`'s
    child "null", so the order it is made in changes nothing."""
    check_metric_names(metrics, UTILITY_METRICS)
    fit = cache(lambda: fit_propensity(real, synth))
    null = cache(lambda: pmse_null(real, synth, null_model, permutations, rng.child("null")))

    @cache
    def observed() -> MetricResult:
        model, scores = fit()
        return pmse_observed(scores, model.c, model)

    inputs = {
        "real": real,
        "synth": synth,
        "fit": fit,
        "observed": observed,
        "null": null,
    }
    return compute_metrics(_COMPUTE, metrics, inputs)
