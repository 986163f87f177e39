"""Utility metrics: propensity-score pMSE family plus distributional fidelity.

The propensity model is a ridge-regularized logistic regression (IRLS) that
tries to tell real rows from synthetic ones; the less separable they are, the
closer observed pMSE sits to its null value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import expit

from ..errors import ConfigError, DegenerateNull, SchemaMismatch, SeparationWarning, TooFewRows
from ..rng import RngStream
from ..tabular import ColumnKind, Dataset, encode, encoded_width
from .results import Direction, MetricResult

RIDGE = 1e-6
MAX_ITER = 100
COEF_TOL = 1e-8
BLOCK_MAX_ITER = 30
NULL_BLOCK_CELLS = 1 << 22  # refits x rows per block: caps its score matrix at 32 MB
_SEPARATION_COEF = 25.0
DEFAULT_NULL_MODEL = "permutation"
NULL_MODELS = (DEFAULT_NULL_MODEL, "analytic")
DEFAULT_PERMUTATIONS = 50
MIN_PERMUTATIONS = 20


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


def check_pair(real: Dataset, synth: Dataset) -> None:
    if not real.schema.same_structure(synth.schema):
        raise SchemaMismatch("real and synthetic schemas differ")


def check_null_model(kind: str, B: int) -> None:
    """The null-model rules pmse_null and spec parsing share; raises ConfigError."""
    if kind not in NULL_MODELS:
        raise ConfigError(f"null model kind must be {'|'.join(NULL_MODELS)}, got {kind!r}")
    if B < MIN_PERMUTATIONS:
        raise ConfigError(f"permutations must be >= {MIN_PERMUTATIONS}, got {B}")


class Design(NamedTuple):
    """The propensity model's inputs: the N x (k+1) design matrix (intercept
    column first), the labels (0 real, 1 synthetic) and k."""

    x: np.ndarray
    z: np.ndarray
    k: int


def design_matrix(real: Dataset, synth: Dataset) -> Design:
    """Build the design once per pair; fit_propensity and pmse_null both take it."""
    check_pair(real, synth)
    if real.n < 2 or synth.n < 2:
        raise TooFewRows("propensity fit needs at least 2 rows on each side")
    x = encode(real, synth)
    z = np.zeros(len(x), dtype=np.float64)
    z[real.n:] = 1.0
    return Design(x, z, x.shape[1] - 1)


def _design_for(real: Dataset, synth: Dataset, design: Design | None) -> Design:
    if design is None:
        return design_matrix(real, synth)
    if design.x.shape[0] != real.n + synth.n:
        raise ConfigError("design matrix rows do not match the datasets")
    return design


def _irls(
    x: np.ndarray, z: np.ndarray, warn: bool = True
) -> tuple[np.ndarray, np.ndarray, bool, int]:
    """Ridge logistic fit; returns (beta, scores, converged, iterations).

    The ridge excludes the intercept, which keeps mean(p) equal to mean(z) at
    the optimum up to the tolerance. `warn=False` reports drift toward
    separation only through `converged`, without a SeparationWarning.
    """
    n, p = x.shape
    ridge = np.full(p, RIDGE)
    ridge[0] = 0.0
    beta = np.zeros(p)
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        eta = x @ beta
        prob = expit(eta)
        w = np.clip(prob * (1.0 - prob), 1e-12, None)
        grad = x.T @ (z - prob) - ridge * beta
        xw = x * w[:, None]
        hess = x.T @ xw
        hess[np.diag_indices_from(hess)] += ridge
        step = np.linalg.solve(hess, grad)
        beta = beta + step
        if np.max(np.abs(step)) < COEF_TOL:
            converged = True
            break
    scores = expit(x @ beta)
    if np.max(np.abs(beta)) > _SEPARATION_COEF:
        if warn:
            warnings.warn(
                "propensity fit drifted toward perfect separation",
                SeparationWarning,
                stacklevel=3,
            )
        converged = False
    return beta, scores, converged, iterations


def fit_propensity(
    real: Dataset, synth: Dataset, design: Design | None = None
) -> tuple[PropensityModel, np.ndarray]:
    """Fit the real-vs-synthetic classifier; the fit is deterministic. `design`
    is `design_matrix(real, synth)` when the caller already built it."""
    x, z, k = _design_for(real, synth, design)
    beta, scores, converged, iterations = _irls(x, z)
    model = PropensityModel(
        coefficients=tuple(float(b) for b in beta),
        c=synth.n / (real.n + synth.n),
        k=k,
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


def _block_refits(x: np.ndarray, xtz: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Fit every row of `xtz` (X'z_b, one row per permuted label vector) at
    once; returns (beta, converged, iterations), beta one row per refit.

    Every refit starts at the intercept-only fit (logit c, 0, ..., 0), where
    the Hessian is exactly c(1-c) X'X + ridge, and keeps that matrix fixed:
    beta += H0^-1 (X'z - X'expit(X beta) - ridge beta) (Bohning & Lindsay
    1988). Permuted labels carry no signal, so each fit stays near the start
    and the iteration contracts fast. A refit leaves the block on the rule
    _irls uses (largest step below COEF_TOL); the block stops after
    BLOCK_MAX_ITER steps."""
    n_refits, p = xtz.shape
    ridge = np.full(p, RIDGE)
    ridge[0] = 0.0
    h0 = c * (1.0 - c) * (x.T @ x)
    h0[np.diag_indices_from(h0)] += ridge
    h0_inv = np.linalg.inv(h0)
    beta = np.zeros((n_refits, p))
    beta[:, 0] = math.log(c / (1.0 - c))
    converged = np.zeros(n_refits, dtype=bool)
    active = np.arange(n_refits)
    iterations = 0
    while active.size and iterations < BLOCK_MAX_ITER:
        iterations += 1
        b = beta[active]
        prob = b @ x.T
        expit(prob, out=prob)
        step = (xtz[active] - prob @ x - ridge * b) @ h0_inv
        beta[active] = b + step
        done = np.max(np.abs(step), axis=1) < COEF_TOL
        converged[active[done]] = True
        active = active[~done]
    return beta, converged, iterations


def pmse_null(
    real: Dataset,
    synth: Dataset,
    kind: str = DEFAULT_NULL_MODEL,
    B: int = DEFAULT_PERMUTATIONS,
    rng: RngStream | None = None,
    design: Design | None = None,
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

    The B permutation refits run together, NULL_BLOCK_CELLS scores at a
    time, with the Hessian frozen at the null fit (_block_refits); any refit
    that has not converged there is refit from zero by _irls, as a lone
    refit would be."""
    check_pair(real, synth)
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
    x, z, _ = _design_for(real, synth, design)
    gen = rng.generator
    labels = np.empty((B, n), dtype=np.int8)
    xtz = np.empty((B, x.shape[1]))
    for b in range(B):
        zb = gen.permutation(z)
        labels[b] = zb
        xtz[b] = zb @ x
    samples = np.empty(B)
    converged = np.zeros(B, dtype=bool)
    iterations = 0
    width = max(1, NULL_BLOCK_CELLS // n)
    for lo in range(0, B, width):
        part = slice(lo, lo + width)
        beta, done, steps = _block_refits(x, xtz[part], c)
        iterations = max(iterations, steps)
        prob = beta[done] @ x.T
        expit(prob, out=prob)
        prob -= c
        np.square(prob, out=prob)
        samples[part][done] = prob.mean(axis=1)
        converged[part] = done
    newton = np.flatnonzero(~converged)
    for b in newton:
        _, scores, _, _ = _irls(x, labels[b].astype(np.float64), warn=False)
        samples[b] = np.mean((scores - c) ** 2)
    return NullModel(
        kind="permutation",
        B=B,
        null_mean=float(samples.mean()),
        null_sd=float(samples.std(ddof=1)),
        samples=tuple(float(s) for s in samples),
        block_iterations=iterations,
        newton_refits=tuple(int(b) for b in newton),
    )


def _null_fit_details(null: NullModel) -> dict:
    if null.kind != "permutation":
        return {}
    return {
        "null_block_iterations": null.block_iterations,
        "null_newton_refits": len(null.newton_refits),
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
    """Exact two-sample Kolmogorov-Smirnov statistic."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ConfigError("ks_statistic needs non-empty samples")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


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
    p = np.bincount(real_codes, minlength=n_categories) / real_codes.size
    q = np.bincount(synth_codes, minlength=n_categories) / synth_codes.size
    return 0.5 * float(np.abs(p - q).sum())


def univariate_fidelity(real: Dataset, synth: Dataset) -> MetricResult:
    """Mean per-column marginal agreement: 1-KS for continuous columns,
    1-TVD for categorical columns."""
    check_pair(real, synth)
    per_column = {}
    for spec in real.schema.columns:
        r, s = real.column(spec.name), synth.column(spec.name)
        if spec.kind is ColumnKind.CONTINUOUS:
            per_column[spec.name] = 1.0 - ks_statistic(r, s)
        else:
            per_column[spec.name] = 1.0 - _tvd(r, s, len(spec.categories))
    return MetricResult(
        name="univariate_fidelity",
        score=float(np.mean(list(per_column.values()))),
        direction=Direction.HIGHER_BETTER,
        provenance="utility",
        details={"per_column": per_column},
    )


def _pearson(x: np.ndarray, y: np.ndarray) -> tuple[float, bool]:
    sx, sy = x.std(), y.std()
    if sx < 1e-12 or sy < 1e-12:
        return 0.0, True
    r = float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))
    return max(-1.0, min(1.0, r)), False


def _cramers_v(a: np.ndarray, b: np.ndarray, ka: int, kb: int) -> tuple[float, bool]:
    low = min(ka - 1, kb - 1)
    if low == 0:
        return 0.0, True
    n = a.size
    table = np.bincount(a * kb + b, minlength=ka * kb).reshape(ka, kb).astype(np.float64)
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    expected = row @ col / n
    mask = expected > 0
    chi2 = float((((table - expected) ** 2)[mask] / expected[mask]).sum())
    return math.sqrt(chi2 / (n * low)), False


def _correlation_ratio(codes: np.ndarray, values: np.ndarray, k: int) -> tuple[float, bool]:
    grand = values.mean()
    sst = float(((values - grand) ** 2).sum())
    if sst <= 0.0:
        return 0.0, True
    counts = np.bincount(codes, minlength=k).astype(np.float64)
    sums = np.bincount(codes, weights=values, minlength=k)
    nonzero = counts > 0
    ssb = float((counts[nonzero] * (sums[nonzero] / counts[nonzero] - grand) ** 2).sum())
    return math.sqrt(min(ssb / sst, 1.0)), False


def bivariate_fidelity(real: Dataset, synth: Dataset) -> MetricResult:
    """Mean pairwise-association agreement over all column pairs.

    Pearson for continuous pairs, Cramer's V for categorical pairs, the
    correlation ratio for mixed pairs. Degenerate inputs (constant column,
    single category, zero variance) contribute an association of 0 and are
    flagged in the details.
    """
    check_pair(real, synth)
    schema = real.schema
    if len(schema.columns) < 2:
        raise ConfigError("bivariate_fidelity needs at least 2 columns")
    per_pair = {}
    flags = []
    for i in range(len(schema.columns)):
        for j in range(i + 1, len(schema.columns)):
            a, b = schema.columns[i], schema.columns[j]
            pair = f"{a.name}|{b.name}"
            stats = []
            for ds in (real, synth):
                xa, xb = ds.column(a.name), ds.column(b.name)
                if a.kind is ColumnKind.CONTINUOUS and b.kind is ColumnKind.CONTINUOUS:
                    v, degen = _pearson(xa, xb)
                    scale = 2.0
                elif a.kind is ColumnKind.CATEGORICAL and b.kind is ColumnKind.CATEGORICAL:
                    v, degen = _cramers_v(xa, xb, len(a.categories), len(b.categories))
                    scale = 1.0
                elif a.kind is ColumnKind.CATEGORICAL:
                    v, degen = _correlation_ratio(xa, xb, len(a.categories))
                    scale = 1.0
                else:
                    v, degen = _correlation_ratio(xb, xa, len(b.categories))
                    scale = 1.0
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
