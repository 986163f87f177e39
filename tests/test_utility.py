"""Propensity-based utility metrics and distribution fidelity scores."""
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from conftest import filled, mixed_dataset
from sdgflow.bench import make_bench_dataset
from sdgflow.errors import (
    ConfigError,
    DegenerateNull,
    NumericOverflow,
    SchemaMismatch,
    SeparationWarning,
    TooFewRows,
)
from sdgflow.evaluation import privacy, utility
from sdgflow.evaluation.results import Direction
from sdgflow.evaluation.utility import (
    BLOCK_MAX_ITER,
    COEF_TOL,
    RIDGE,
    NullModel,
    _block_refits,
    _irls,
    bivariate_fidelity,
    fit_propensity,
    ks_statistic,
    pmse_null,
    pmse_observed,
    pmse_ratio,
    pmse_standardized,
    specks,
    univariate_fidelity,
)
from sdgflow.rng import derive_stream
from sdgflow.special import expit
from sdgflow.tabular import ColumnKind, ColumnSpec, Schema, encode, encoded_width, make_dataset


def cont_ds(n, seed=0, shift=0.0, names=("x", "y")):
    rng = np.random.default_rng(seed)
    schema = Schema(tuple(ColumnSpec(m, ColumnKind.CONTINUOUS) for m in names))
    return make_dataset(schema, {m: rng.normal(shift, 1.0, n) for m in names})


# ----------------------------------------------------------------- observed ---

def test_pmse_observed_hand_value():
    # mean of (0.5-0.5)^2 and (0.7-0.5)^2 = 0.02
    m = pmse_observed(np.array([0.5, 0.7]), 0.5)
    assert m.score == pytest.approx(0.02, abs=1e-15)
    assert m.name == "pmse_observed"
    assert m.direction is Direction.LOWER_BETTER


def test_pmse_observed_zero_iff_constant_c():
    assert pmse_observed(np.full(64, 0.25), 0.25).score == 0.0
    assert pmse_observed(np.array([0.25, 0.250001]), 0.25).score > 0.0


def test_pmse_observed_perfect_separation_quarter():
    # equal halves, scores at the class labels
    scores = np.array([0.0] * 50 + [1.0] * 50)
    assert pmse_observed(scores, 0.5).score == pytest.approx(0.25, abs=1e-12)


# ---------------------------------------------------------------- propensity ---

def test_fit_propensity_orders_real_then_synth():
    real, synth = cont_ds(40, 1), cont_ds(60, 2)
    model, scores = fit_propensity(real, synth)
    assert scores.shape == (100,)
    assert model.c == pytest.approx(0.6)
    assert np.all((scores > 0) & (scores < 1))


def test_fit_propensity_gradient_stationarity():
    # at the optimum the ridge-penalized score equations hold
    real, synth = cont_ds(300, 3), cont_ds(300, 4, shift=0.4)
    model, scores = fit_propensity(real, synth)
    assert model.converged
    x, z = utility._design(real, synth)
    x = filled(x)
    beta = np.asarray(model.coefficients)
    grad = x.T @ (z - scores)
    grad[1:] -= 1e-6 * beta[1:]  # intercept unpenalized
    assert np.max(np.abs(grad)) < 1e-6


def test_fit_propensity_separable_data_warns():
    # perfectly separable with a hairline margin: the ridge optimum sits at
    # huge coefficients, which is what the separation heuristic looks for
    schema = Schema((ColumnSpec("x", ColumnKind.CONTINUOUS),))
    rng = np.random.default_rng(0)
    real = make_dataset(schema, {"x": rng.uniform(0.0, 1.0, 200)})
    synth = make_dataset(schema, {"x": rng.uniform(1.0 + 1e-7, 2.0, 200)})
    with pytest.warns(SeparationWarning):
        model, _ = fit_propensity(real, synth)
    assert not model.converged


def test_fit_propensity_detects_shift():
    real = cont_ds(500, 5)
    good = cont_ds(500, 6)
    bad = cont_ds(500, 7, shift=3.0)
    _, s_good = fit_propensity(real, good)
    _, s_bad = fit_propensity(real, bad)
    assert pmse_observed(s_bad, 0.5).score > 10 * pmse_observed(s_good, 0.5).score


def test_fit_propensity_needs_rows():
    schema = Schema((ColumnSpec("x", ColumnKind.CONTINUOUS),))
    one = make_dataset(schema, {"x": [1.0]})
    with pytest.raises(TooFewRows):
        fit_propensity(one, cont_ds(10, names=("x",)))


def test_fit_propensity_schema_mismatch():
    with pytest.raises(SchemaMismatch):
        fit_propensity(cont_ds(20), cont_ds(20, names=("x", "z")))


_KEYS = privacy.PrivacyConfig(key_columns=("region",), sensitive_column="status")
# every utility and privacy function that reads a pair of datasets, under
# the name its error gives
PAIR_READERS = {
    "fit_propensity": fit_propensity,
    "pmse_null": lambda real, synth: pmse_null(real, synth, "analytic"),
    "pmse_null/permutation": lambda real, synth: pmse_null(real, synth, rng=derive_stream(1, "null")),
    "univariate_fidelity": univariate_fidelity,
    "bivariate_fidelity": bivariate_fidelity,
    "key_groups": lambda real, synth: privacy.key_groups(real, synth, _KEYS),
    "new_row_synthesis": lambda real, synth: privacy.new_row_synthesis(real, synth, 0.01),
    "min_nn_distance": privacy.min_nn_distance,
    "sample_overlap": lambda real, synth: privacy.sample_overlap(real, synth, 1.0, derive_stream(1, "o")),
}


@pytest.mark.parametrize("name", PAIR_READERS)
@pytest.mark.parametrize("case", ["real empty", "synthetic empty", "both empty", "structures differ"])
def test_every_metric_applies_the_one_pair_rule(name, case):
    rows, empty = mixed_dataset(30), mixed_dataset(0)
    if case == "structures differ":
        with pytest.raises(SchemaMismatch, match="schemas differ"):
            PAIR_READERS[name](rows, rows.restrict(["age", "income", "region"]))
        return
    sides = {"real empty": (empty, rows), "synthetic empty": (rows, empty), "both empty": (empty, empty)}
    real, synth = sides[case]
    with pytest.raises(ConfigError, match=f"^{name.split('/')[0]} needs non-empty datasets$"):
        PAIR_READERS[name](real, synth)


def test_pmse_null_needs_two_rows_a_side():
    one = make_dataset(Schema((ColumnSpec("x", ColumnKind.CONTINUOUS),)), {"x": [1.0]})
    with pytest.raises(TooFewRows):
        pmse_null(one, cont_ds(10, names=("x",)), rng=derive_stream(1, "null"))


def huge_ds(n, seed=0):
    """x near the top of the doubles (its sum overflows), y ordinary."""
    rng = np.random.default_rng(seed)
    return make_dataset(
        Schema((ColumnSpec("x", ColumnKind.CONTINUOUS), ColumnSpec("y", ColumnKind.CONTINUOUS))),
        {"x": rng.uniform(1.4e308, 1.6e308, n), "y": rng.normal(0.0, 1.0, n)},
    )


def test_values_near_the_double_range_raise_numeric_overflow_naming_the_column():
    real, synth = huge_ds(40), huge_ds(40, seed=1)
    with pytest.raises(NumericOverflow, match="column 'x': mean or standard deviation"):
        encode(real, synth)
    with pytest.raises(NumericOverflow, match="column 'x'"):
        fit_propensity(real, synth)
    with pytest.raises(NumericOverflow, match="column 'x': mean or sum of squares"):
        bivariate_fidelity(real, synth)


def test_a_table_against_itself_scaled_near_the_double_range_raises_numeric_overflow():
    # the mean stays finite and the sum of squares does not, which makes
    # Pearson's r NaN: a clamp that read it as 1.0 gave per_pair 0.077
    ds = cont_ds(200)
    big = make_dataset(ds.schema, {name: ds.column(name) * 1e307 for name in ds.schema.names})
    with pytest.raises(NumericOverflow, match="column 'x': mean or sum of squares"):
        bivariate_fidelity(big, big)
    assert bivariate_fidelity(ds, ds).details["per_pair"] == {"x|y": 1.0}


def test_pearson_clamp_lets_a_nan_r_through():
    x = np.array([1e308, -1e308])
    unbounded = (0.0, math.inf, math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        r, degenerate = utility._pearson(x, x, unbounded, unbounded, np.empty((2, 2)))
    assert math.isnan(r) and not degenerate


def test_a_pair_whose_association_is_not_finite_raises_numeric_overflow(monkeypatch):
    monkeypatch.setattr(utility, "_pearson", lambda *args: (float("nan"), False))
    with pytest.raises(NumericOverflow, match="columns 'x' and 'y': association is not finite"):
        bivariate_fidelity(cont_ds(20), cont_ds(20, seed=1))


def test_in_distribution_scores_hover_near_c():
    real, synth = cont_ds(1_000, 8), cont_ds(1_000, 9)
    _, scores = fit_propensity(real, synth)
    assert np.mean(np.abs(scores - 0.5) < 0.05) > 0.95


# -------------------------------------------------------------------- nulls ---

def test_analytic_null_exact_values():
    # k counts encoded predictors: three continuous columns -> k = 3;
    # N = 1000, c = 0.5, c(1-c) = 0.25 gives mean 3*0.25/1000 = 7.5e-4
    # and sd sqrt(2*3)*0.25/1000
    real = cont_ds(500, 10, names=("x", "y", "w"))
    synth = cont_ds(500, 11, names=("x", "y", "w"))
    null = pmse_null(real, synth, kind="analytic")
    assert null.null_mean == pytest.approx(7.5e-4, rel=1e-12)
    assert null.null_sd == pytest.approx(np.sqrt(6) * 0.25 / 1000, rel=1e-12)
    assert null.B == 0 and null.kind == "analytic"


@pytest.mark.parametrize("c", [0.25, 0.75])
def test_analytic_null_tracks_permutation_off_half(c):
    # the c = 1/2 acceptance check cannot tell k c(1-c)/N from a rescaled
    # (1-c)^2 c form; unbalanced splits can (they differ by ~2x at c = 3/4)
    ds = make_bench_dataset(2000)
    n_synth = int(2000 * c)
    analytic, perm = [], []
    for seed in range(3):
        order = np.random.default_rng(seed).permutation(2000)
        real, synth = ds.take(order[n_synth:]), ds.take(order[:n_synth])
        analytic.append(pmse_null(real, synth, kind="analytic"))
        perm.append(pmse_null(real, synth, kind="permutation", B=100, rng=derive_stream(seed, "null")))
    mean_ratio = np.mean([a.null_mean for a in analytic]) / np.mean([p.null_mean for p in perm])
    sd_ratio = np.mean([a.null_sd for a in analytic]) / np.mean([p.null_sd for p in perm])
    assert 0.7 <= mean_ratio <= 1.3, f"c={c}: closed-form mean is {mean_ratio:.2f}x permutation"
    assert 0.7 <= sd_ratio <= 1.3, f"c={c}: closed-form sd is {sd_ratio:.2f}x permutation"


def test_permutation_null_identity_anchor():
    # refitting with the unpermuted labels is exactly the observed pMSE
    real, synth = cont_ds(100, 12), cont_ds(100, 13)
    model, scores = fit_propensity(real, synth)
    observed = pmse_observed(scores, model.c).score
    x, z = utility._design(real, synth)
    beta, _, _ = _irls(x, z)
    assert utility._pmse_rows(x, beta[None], model.c)[0] == pytest.approx(observed, rel=1e-12)


def test_permutation_null_needs_twenty():
    real, synth = cont_ds(50, 14), cont_ds(50, 15)
    with pytest.raises(ConfigError):
        pmse_null(real, synth, kind="permutation", B=19, rng=derive_stream(0, "null"))
    null = pmse_null(real, synth, kind="permutation", B=20, rng=derive_stream(0, "null"))
    assert null.B == 20 and len(null.samples) == 20
    assert null.null_mean > 0


def test_permutation_null_deterministic():
    real, synth = cont_ds(80, 16), cont_ds(80, 17)
    a = pmse_null(real, synth, B=20, rng=derive_stream(3, "null"))
    b = pmse_null(real, synth, B=20, rng=derive_stream(3, "null"))
    assert a.samples == b.samples


def test_permutation_null_refits_neither_warn_nor_touch_filters():
    # 8 rows and 5 predictors: many label permutations are separable
    real, synth = cont_ds(4, 30, names=tuple("abcde")), cont_ds(4, 31, names=tuple("abcde"))
    x, z = utility._design(real, synth)
    gen = np.random.default_rng(0)
    with warnings.catch_warnings(record=True) as direct:
        warnings.simplefilter("always")
        for _ in range(20):
            _irls(x, gen.permutation(z))
    assert any(issubclass(w.category, SeparationWarning) for w in direct)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        before = list(warnings.filters)
        pmse_null(real, synth, B=20, rng=derive_stream(5, "null"))
        assert warnings.filters == before
    assert not any(issubclass(w.category, SeparationWarning) for w in caught)


def bench_split(n, c, seed=0):
    ds = make_bench_dataset(n)
    order = np.random.default_rng(seed).permutation(n)
    n_synth = int(round(n * c))
    return ds.take(order[n_synth:]), ds.take(order[:n_synth])


def newton_null(x, z, seed, B):
    """The Newton oracle: each permuted label vector refit alone by _irls,
    drawn from the stream pmse_null uses; returns (labels, fits), each fit
    (beta, scores, converged, iterations) with the scores of the whole
    design at beta, through the expit the null calls."""
    gen = derive_stream(seed, "null").generator
    labels = [gen.permutation(z) for _ in range(B)]
    dense = filled(x)
    fits = []
    for zb in labels:
        beta, converged, iterations = _irls(x, zb, warn=False)
        fits.append((beta, expit(dense @ beta), converged, iterations))
    return labels, fits


@pytest.mark.parametrize("n, c", [(6000, 0.05), (6000, 0.17), (6000, 0.5), (360, 60 / 360)])
def test_block_null_matches_newton_refits(n, c):
    real, synth = bench_split(n, c)
    encoding, z = utility._design(real, synth)
    x = filled(encoding)
    c = synth.n / (real.n + synth.n)
    null = pmse_null(real, synth, B=20, rng=derive_stream(2, "null"))
    labels, fits = newton_null(encoding, z, 2, 20)
    h0_inv = utility._h0_inverse(sum(xb.T @ xb for _, (xb,) in utility._row_blocks(encoding)), c)
    beta, converged, _ = _block_refits(encoding, np.array([zb @ x for zb in labels]), c, h0_inv)
    assert null.newton_refits == tuple(np.flatnonzero(~converged))
    ridge = np.full(x.shape[1], RIDGE)
    ridge[0] = 0.0
    h0 = c * (1.0 - c) * (x.T @ x) + np.diag(ridge)
    for b, (beta_newton, scores, _, _) in enumerate(fits):
        newton_sample = float(np.mean((scores - c) ** 2))
        if not converged[b]:
            # refit by _irls from zero, as the oracle was
            assert null.samples[b] == newton_sample
            continue
        # Tolerance from COEF_TOL. Both fits stop once their largest step is
        # below COEF_TOL. Newton's error there is below that step. The frozen
        # Hessian iteration contracts, to first order, by rho = max|1 - eig(
        # H0^-1 H*)| with H* the Hessian at the optimum, so its error is at
        # most rho / (1 - rho) times its last step. Together the two fits
        # differ by at most COEF_TOL / (1 - rho) per coefficient.
        w = scores * (1.0 - scores)
        h_star = x.T @ (x * w[:, None]) + np.diag(ridge)
        rho = np.max(np.abs(1.0 - np.linalg.eigvals(np.linalg.solve(h0, h_star)).real))
        assert rho < 1.0
        coef_tol = COEF_TOL / (1.0 - rho)
        assert np.max(np.abs(beta[b] - beta_newton)) <= coef_tol
        # expit' <= 1/4, so each score moves by at most |x_i|_1 coef_tol / 4,
        # and mean((p - c)^2) by at most 2 mean|p - c| times that
        sample_tol = 0.5 * np.mean(np.abs(scores - c)) * np.abs(x).sum(axis=1).max() * coef_tol
        assert abs(null.samples[b] - newton_sample) <= sample_tol


def test_block_null_finishes_small_unbalanced_pair_with_newton():
    # 300 real vs 60 synthetic rows: too few rows for the frozen Hessian to
    # settle most refits within BLOCK_MAX_ITER steps
    real, synth = bench_split(360, 60 / 360)
    null = pmse_null(real, synth, B=20, rng=derive_stream(2, "null"))
    assert null.block_iterations == BLOCK_MAX_ITER
    assert 0 < len(null.newton_refits) < 20


@pytest.mark.parametrize("n", [2000, 20_000])
def test_block_null_with_no_steps_is_the_newton_null(monkeypatch, n):
    # 2,000 rows fill one row block, where the null's block sums round as the
    # oracle's one mean does; 20,000 rows span three blocks
    real, synth = bench_split(n, 0.3)
    x, z = utility._design(real, synth)
    c = synth.n / (real.n + synth.n)
    monkeypatch.setattr(utility, "BLOCK_MAX_ITER", 0)
    null = pmse_null(real, synth, B=20, rng=derive_stream(6, "null"))
    _, fits = newton_null(x, z, 6, 20)
    oracle = tuple(float(np.mean((s - c) ** 2)) for _, s, _, _ in fits)
    if n <= utility.ROW_BLOCK:
        assert null.samples == oracle
    else:
        assert null.samples == pytest.approx(oracle, rel=1e-12)
    assert null.newton_refits == tuple(range(20)) and null.block_iterations == 0


def test_block_null_splits_refits_to_bound_its_score_matrix(monkeypatch):
    real, synth = bench_split(2000, 0.3)
    whole = pmse_null(real, synth, B=20, rng=derive_stream(6, "null"))
    widths = []
    block_refits = utility._block_refits

    def spy(x, xtz, c, h0_inv):
        widths.append(xtz.shape[0])
        return block_refits(x, xtz, c, h0_inv)

    monkeypatch.setattr(utility, "_block_refits", spy)
    monkeypatch.setattr(utility, "NULL_BLOCK_CELLS", 3 * utility._block_rows(real.n + synth.n) + 1)
    split = pmse_null(real, synth, B=20, rng=derive_stream(6, "null"))
    assert widths == [3] * 6 + [2]
    assert split.newton_refits == whole.newton_refits
    # the same iteration on the same data; blocks of another width round
    # differently inside BLAS, which moves a sample by ~1e-12 relative
    assert split.samples == pytest.approx(whole.samples, rel=1e-10)


def test_null_makes_h0_once_and_each_group_refits_as_it_did_alone(monkeypatch):
    # B = 20 refits in groups of 16 and 4: each group's samples are, bit for
    # bit, those _block_refits gives it with H0 from an X'X pass of its own
    real, synth = bench_split(2000, 0.3)
    x, z = utility._design(real, synth)
    n = real.n + synth.n
    c = synth.n / n
    monkeypatch.setattr(utility, "NULL_BLOCK_CELLS", 16 * utility._block_rows(n))
    null = pmse_null(real, synth, B=20, rng=derive_stream(6, "null"))
    gen = derive_stream(6, "null").generator
    labels = np.empty((20, n), dtype=np.int8)
    for b in range(20):
        labels[b] = gen.permutation(z)
    xtz = sum(lb.T.astype(np.float64) @ xb for _, (xb, lb) in utility._row_blocks(x, labels.T))
    samples = np.asarray(null.samples)
    for part in (slice(0, 16), slice(16, 20)):
        xtx = sum(xb.T @ xb for _, (xb,) in utility._row_blocks(x))
        beta, done, _ = _block_refits(x, xtz[part], c, utility._h0_inverse(xtx, c))
        assert done.any()
        assert samples[part][done].tolist() == utility._pmse_rows(x, beta[done], c).tolist()


def test_fit_decisions_recorded_in_details():
    real, synth = cont_ds(200, 44), cont_ds(200, 45)
    model, scores = fit_propensity(real, synth)
    details = pmse_observed(scores, model.c, model).details
    assert details["converged"] is True and details["iterations"] == model.iterations
    assert "converged" not in pmse_observed(scores, model.c).details
    null = pmse_null(real, synth, B=20, rng=derive_stream(1, "null"))
    for metric in (pmse_standardized(1e-3, null), pmse_ratio(1e-3, null)):
        assert metric.details["null_block_iterations"] == null.block_iterations > 0
        assert metric.details["null_newton_refits"] == len(null.newton_refits)
    analytic = pmse_null(real, synth, kind="analytic")
    assert "null_block_iterations" not in pmse_standardized(1e-3, analytic).details


def test_null_counts_newton_refits_left_unconverged():
    # 8 rows and 5 predictors: many permuted labels are separable, so _irls
    # stops at the separation guard on some of the refits the block left it
    real, synth = cont_ds(4, 30, names=tuple("abcde")), cont_ds(4, 31, names=tuple("abcde"))
    x, z = utility._design(real, synth)
    null = pmse_null(real, synth, B=20, rng=derive_stream(5, "null"))
    _, fits = newton_null(x, z, 5, 20)
    unconverged = sum(not fits[b][2] for b in null.newton_refits)
    assert unconverged > 0
    assert null.unconverged_refits == unconverged
    for metric in (pmse_standardized(1e-3, null), pmse_ratio(1e-3, null)):
        assert metric.details["null_unconverged_refits"] == unconverged


@pytest.mark.parametrize("n", [utility.ROW_BLOCK - 1, utility.ROW_BLOCK, utility.ROW_BLOCK + 1])
def test_row_block_edges_match_one_shot_fit_and_newton_oracle(n):
    # one row short of a block, a whole block, and a block plus one padded
    # row: pad rows must reach neither the fit, its scores nor the null
    real, synth = bench_split(n, 0.3)
    x, z = utility._design(real, synth)
    x = filled(x)
    model, scores = fit_propensity(real, synth)
    beta = np.asarray(model.coefficients)
    assert model.converged and scores.shape == (n,)
    np.testing.assert_allclose(scores, stats.logistic.cdf(x @ beta), rtol=1e-12)
    ridge = np.full(x.shape[1], RIDGE)
    ridge[0] = 0.0
    assert np.max(np.abs(x.T @ (z - scores) - ridge * beta)) < 1e-6
    test_block_null_matches_newton_refits(n, 0.3)


def test_fit_and_null_peaks_stay_below_the_design_matrix():
    # tracemalloc sees numpy's buffers; each call encodes its own design as
    # its columns, and past those, the scores and the int8 labels, no
    # temporary grows with the rows
    real, synth = bench_split(60_000, 0.5)
    dense_bytes = (real.n + synth.n) * (1 + encoded_width(real.schema)) * 8
    runs = {
        "fit_propensity": lambda: fit_propensity(real, synth),
        "pmse_null": lambda: pmse_null(real, synth, B=20, rng=derive_stream(1, "null")),
    }
    tracemalloc.start()
    try:
        for name, run in runs.items():
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run()
            peak = tracemalloc.get_traced_memory()[1] - entry
            assert peak < dense_bytes, f"{name} peaked {peak} bytes above entry"
    finally:
        tracemalloc.stop()


def test_quality_node_peaks_below_the_dense_design():
    # the whole utility evaluation, design included, stays below the size
    # of the dense N x (k+1) design it no longer builds
    real, synth = bench_split(60_000, 0.5)
    dense_bytes = (real.n + synth.n) * (1 + encoded_width(real.schema)) * 8
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        utility.evaluate_utility(real, synth, utility.UTILITY_METRICS, "permutation", 20, derive_stream(1, "q"))
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes, f"peaked {peak} bytes above entry, dense design {dense_bytes}"


_QUALITY_RUN = """
import sys
from sdgflow.bench import bench_one_size
bench_one_size(int(sys.argv[2]), sys.argv[1], 1)
"""


def test_quality_metrics_do_not_depend_on_blas_thread_count(tmp_path):
    # bench size 3000: 3,000 rows a side in 8,192-row blocks; size 200: 200
    # rows a side in 1,024-row blocks; each with a permutation null of 20 refits
    src = str(Path(utility.__file__).resolve().parents[2])
    for size, counts in ((3000, ("1", "2")), (200, ("1", "2", "3"))):
        written = []
        for threads in counts:
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            out = tmp_path / f"size-{size}-threads-{threads}"
            subprocess.run(
                [sys.executable, "-c", _QUALITY_RUN, str(out), str(size)], env=env, check=True, timeout=120
            )
            written.append((out / "run" / "artifacts" / "quality" / "metrics.json").read_bytes())
        assert written == written[:1] * len(counts), f"size {size}"


def test_unknown_null_kind():
    real, synth = cont_ds(30, 18), cont_ds(30, 19)
    with pytest.raises(ConfigError):
        pmse_null(real, synth, kind="bootstrap")


def test_standardized_and_ratio_trivial_points():
    null = NullModel(kind="permutation", B=20, null_mean=2e-4, null_sd=5e-5)
    assert pmse_standardized(2e-4, null).score == 0.0
    assert pmse_standardized(2e-4 + 2 * 5e-5, null).score == pytest.approx(2.0)
    assert pmse_standardized(0.0, null).direction is Direction.CENTERED_ZERO
    assert pmse_ratio(2e-4, null).score == pytest.approx(1.0)
    assert pmse_ratio(4e-4, null).direction is Direction.CENTERED_ONE


def test_degenerate_null_raises():
    flat = NullModel(kind="permutation", B=20, null_mean=0.0, null_sd=0.0)
    with pytest.raises(DegenerateNull):
        pmse_standardized(1e-4, flat)
    with pytest.raises(DegenerateNull):
        pmse_ratio(1e-4, flat)


def test_noise_vs_structure_ratio_blows_up():
    real = cont_ds(400, 20)
    noise = cont_ds(400, 21, shift=4.0)
    with warnings.catch_warnings():
        # a 4-sigma shift is close to separable; that is the point here
        warnings.simplefilter("ignore", SeparationWarning)
        model, scores = fit_propensity(real, noise)
    observed = pmse_observed(scores, model.c).score
    null = pmse_null(real, noise, B=20, rng=derive_stream(4, "null"))
    assert pmse_ratio(observed, null).score > 3.0


# ----------------------------------------------------------------------- KS ---

def brute_force_ks(a, b):
    grid = np.concatenate([a, b])
    best = 0.0
    for t in grid:
        fa = np.mean(a <= t)
        fb = np.mean(b <= t)
        best = max(best, abs(fa - fb))
    return best


def searchsorted_ks(a, b):
    """The KS statistic from two searchsorted calls over the pooled values:
    the counts ks_statistic reads block by block, divided the same way, so
    the two must agree exactly."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


KS_CASES = [
    ([1.0, 2.0, 2.0, 3.0], [2.0, 2.0, 2.0, 5.0]),  # ties across the samples
    ([-0.0, 0.0, 1.0], [0.0, 0.0, -0.0, 2.0]),  # -0.0 equals 0.0
    ([0.5], [0.5]),
    ([0.5], [0.25]),
    ([7.0], [1.0, 7.0, 9.0]),
    ([3.0] * 5, [3.0] * 2),  # all equal
    ([3.0] * 5, [4.0] * 2),
    ([4.0, 1.0, 3.0], [2.0, 2.0]),  # unsorted input
]


@pytest.mark.parametrize("a, b", KS_CASES)
def test_ks_merge_equals_searchsorted_oracle_exactly(a, b):
    a, b = np.array(a), np.array(b)
    assert ks_statistic(a, b) == searchsorted_ks(a, b)
    assert ks_statistic(b, a) == searchsorted_ks(b, a)


def test_ks_merge_equals_searchsorted_oracle_on_tie_heavy_samples():
    rng = np.random.default_rng(31)
    for _ in range(500):
        levels = rng.integers(1, 12)
        a = rng.integers(0, levels, rng.integers(1, 60)) * 0.5 - 1.0
        b = rng.integers(0, levels, rng.integers(1, 60)) * 0.5 - 1.0
        assert ks_statistic(a, b) == searchsorted_ks(a, b)
        assert ks_statistic(a, b) == pytest.approx(brute_force_ks(a, b), abs=1e-12)


# tie runs of -0.0 and 0.0, and of plain values, that span blocks of 1-3 rows
KS_BLOCK_EDGE_CASES = [
    ([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0], [1.0, 1.0, 1.0, 1.0, 3.0]),
    ([-0.0, 0.0, -0.0, 0.0, 0.0, 1.0, 1.0], [0.0, -0.0, -0.0, 1.0, 1.0, 1.0, 1.0]),
    ([-1.0, -0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 5.0], [0.0, 0.0, 0.0, -0.0]),
    ([2.0] * 7, [2.0] * 3 + [4.0] * 4),
]


@pytest.mark.parametrize("block", [1, 2, 3])
def test_ks_blocks_equal_searchsorted_oracle_exactly(monkeypatch, block):
    monkeypatch.setattr(utility, "ROW_BLOCK", block)
    for a, b in KS_CASES + KS_BLOCK_EDGE_CASES:
        a, b = np.array(a), np.array(b)
        assert ks_statistic(a, b) == searchsorted_ks(a, b)
        assert ks_statistic(b, a) == searchsorted_ks(b, a)
    rng = np.random.default_rng(block)

    def ties(levels):
        # a few levels around zero, each zero of either sign
        x = rng.integers(-2, levels, rng.integers(1, 30)) * 0.5
        zero = x == 0.0
        x[zero] *= rng.choice([-1.0, 1.0], np.count_nonzero(zero))
        return x

    for _ in range(200):
        levels = rng.integers(1, 6)
        a, b = ties(levels), ties(levels)
        assert ks_statistic(a, b) == searchsorted_ks(a, b)


def test_ks_peak_stays_a_few_blocks_above_its_inputs():
    # the two sorted copies (4.8 MB) and block temporaries; merging the
    # pooled samples whole peaked at 43 MB
    rng = np.random.default_rng(3)
    a, b = rng.normal(0.0, 1.0, 300_000), np.round(rng.normal(0.1, 1.0, 300_000), 2)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        value = ks_statistic(a, b)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000, peak
    assert value == searchsorted_ks(a, b)


def test_ks_hand_case():
    assert ks_statistic(np.array([0.1, 0.4, 0.6]), np.array([0.2, 0.5, 0.9])) == pytest.approx(1 / 3)


def test_ks_matches_brute_force_and_scipy():
    rng = np.random.default_rng(22)
    for _ in range(25):
        a = rng.normal(0, 1, rng.integers(3, 40))
        b = rng.normal(0.3, 1.2, rng.integers(3, 40))
        got = ks_statistic(a, b)
        assert got == pytest.approx(brute_force_ks(a, b), abs=1e-12)
        assert got == pytest.approx(stats.ks_2samp(a, b).statistic, abs=1e-12)


def test_ks_bounds():
    a = np.array([1.0, 2.0, 3.0])
    assert ks_statistic(a, a) == 0.0
    assert ks_statistic(a, a + 10.0) == 1.0


def test_specks_wraps_ks():
    m = specks(np.array([0.1, 0.4, 0.6]), np.array([0.2, 0.5, 0.9]))
    assert m.score == pytest.approx(1 / 3)
    assert m.name == "specks" and m.direction is Direction.LOWER_BETTER
    sym = specks(np.array([0.2, 0.5, 0.9]), np.array([0.1, 0.4, 0.6]))
    assert sym.score == m.score


# ------------------------------------------------------------------ fidelity ---

def test_univariate_identical_is_one():
    ds = cont_ds(200, 23)
    assert univariate_fidelity(ds, ds).score == 1.0


def test_univariate_tvd_hand_case():
    schema = Schema((ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("a", "b")),))
    real = make_dataset(schema, {"c": [0, 0, 1, 1]})
    synth = make_dataset(schema, {"c": [0, 0, 0, 0]})
    m = univariate_fidelity(real, synth)
    assert m.score == pytest.approx(0.5)
    assert m.details["per_column"]["c"] == pytest.approx(0.5)


def test_univariate_disjoint_support_is_zero():
    schema = Schema((ColumnSpec("x", ColumnKind.CONTINUOUS),))
    real = make_dataset(schema, {"x": [1.0, 2.0, 3.0]})
    synth = make_dataset(schema, {"x": [10.0, 11.0, 12.0]})
    assert univariate_fidelity(real, synth).score == 0.0


def test_univariate_mixes_column_kinds():
    schema = Schema(
        (
            ColumnSpec("x", ColumnKind.CONTINUOUS),
            ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("a", "b")),
        )
    )
    real = make_dataset(schema, {"x": [1.0, 2.0], "c": [0, 1]})
    synth = make_dataset(schema, {"x": [1.0, 2.0], "c": [0, 0]})
    # x agrees (1.0), c has TVD 0.5 (0.5) -> mean 0.75
    assert univariate_fidelity(real, synth).score == pytest.approx(0.75)


@pytest.mark.parametrize("metric", [univariate_fidelity, bivariate_fidelity])
@pytest.mark.parametrize("side", ["real", "synth"])
def test_fidelity_on_an_empty_side_raises_config_error(metric, side):
    # a categorical first column: its TVD would divide by zero
    schema = Schema((
        ColumnSpec("c", ColumnKind.CATEGORICAL, categories=("a", "b")),
        ColumnSpec("x", ColumnKind.CONTINUOUS),
    ))
    ds = make_dataset(schema, {"c": [0, 1, 1], "x": [1.0, 2.0, 4.0]})
    pair = (ds.take(np.arange(0)), ds) if side == "real" else (ds, ds.take(np.arange(0)))
    with pytest.raises(ConfigError, match="non-empty"):
        metric(*pair)


def test_bivariate_identical_is_one():
    ds = cont_ds(100, 24)
    assert bivariate_fidelity(ds, ds).score == pytest.approx(1.0)


def test_bivariate_opposite_correlation():
    schema = Schema((ColumnSpec("x", ColumnKind.CONTINUOUS), ColumnSpec("y", ColumnKind.CONTINUOUS)))
    x = np.array([0.0, 1.0, 2.0, 3.0])
    real = make_dataset(schema, {"x": x, "y": x.copy()})       # rho = 1
    synth = make_dataset(schema, {"x": x, "y": -x})            # rho = -1
    assert bivariate_fidelity(real, synth).score == pytest.approx(0.0, abs=1e-12)


def test_bivariate_cramers_v_hand_case():
    schema = Schema(
        (
            ColumnSpec("u", ColumnKind.CATEGORICAL, categories=("a", "b")),
            ColumnSpec("v", ColumnKind.CATEGORICAL, categories=("x", "y")),
        )
    )
    real = make_dataset(schema, {"u": [0, 0, 1, 1], "v": [0, 0, 1, 1]})   # V = 1
    synth = make_dataset(schema, {"u": [0, 0, 1, 1], "v": [0, 1, 0, 1]})  # V = 0
    assert bivariate_fidelity(real, synth).score == pytest.approx(0.0, abs=1e-12)


def test_bivariate_correlation_ratio_hand_case():
    schema = Schema(
        (
            ColumnSpec("g", ColumnKind.CATEGORICAL, categories=("a", "b")),
            ColumnSpec("x", ColumnKind.CONTINUOUS),
        )
    )
    real = make_dataset(schema, {"g": [0, 0, 1, 1], "x": [0.0, 0.0, 1.0, 1.0]})   # eta = 1
    synth = make_dataset(schema, {"g": [0, 0, 1, 1], "x": [0.0, 1.0, 0.0, 1.0]})  # eta = 0
    assert bivariate_fidelity(real, synth).score == pytest.approx(0.0, abs=1e-12)


def test_bivariate_constant_column_flagged():
    schema = Schema((ColumnSpec("x", ColumnKind.CONTINUOUS), ColumnSpec("y", ColumnKind.CONTINUOUS)))
    real = make_dataset(schema, {"x": [1.0, 2.0, 3.0], "y": [2.0, 4.0, 6.0]})
    synth = make_dataset(schema, {"x": [1.0, 1.0, 1.0], "y": [2.0, 4.0, 6.0]})
    m = bivariate_fidelity(real, synth)
    assert "x|y" in m.details["degenerate_pairs"]
    # real rho 1 vs synth rho defined 0: pair score 1 - 1/2
    assert m.score == pytest.approx(0.5)


def test_bivariate_needs_two_columns():
    ds = cont_ds(10, names=("x",))
    with pytest.raises(ConfigError):
        bivariate_fidelity(ds, ds)


def test_fidelity_row_order_invariant():
    rng = np.random.default_rng(25)
    real, synth = cont_ds(60, 26), cont_ds(60, 27)
    perm = rng.permutation(60)
    shuffled = make_dataset(
        synth.schema, {n: synth.column(n)[perm] for n in synth.schema.names}
    )
    assert univariate_fidelity(real, synth).score == univariate_fidelity(real, shuffled).score
    # bivariate sums float moments in row order, so equal up to rounding only
    assert bivariate_fidelity(real, synth).score == pytest.approx(
        bivariate_fidelity(real, shuffled).score, rel=1e-12
    )


def per_pair_associations(ds):
    """The pair associations as computed before the scratch rows: each pair
    from its two columns, with fresh temporaries. The oracle, bit for bit,
    for bivariate_fidelity's per-dataset statistics and scratch products."""
    out = {}
    cols = ds.schema.columns
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            a, b = cols[i], cols[j]
            xa, xb = ds.column(a.name), ds.column(b.name)
            if a.kind is ColumnKind.CONTINUOUS and b.kind is ColumnKind.CONTINUOUS:
                sx, sy = xa.std(), xb.std()
                v = 0.0 if sx < 1e-12 or sy < 1e-12 else float(
                    np.mean((xa - xa.mean()) * (xb - xb.mean())) / (sx * sy)
                )
                v = max(-1.0, min(1.0, v))
            elif a.kind is ColumnKind.CATEGORICAL and b.kind is ColumnKind.CATEGORICAL:
                ka, kb = len(a.categories), len(b.categories)
                if min(ka, kb) == 1:
                    v = 0.0
                else:
                    cells = xa.astype(np.int64) * kb + xb  # codes widen first: narrow, the product wraps
                    table = np.bincount(cells, minlength=ka * kb).reshape(ka, kb).astype(np.float64)
                    expected = table.sum(axis=1, keepdims=True) @ table.sum(axis=0, keepdims=True) / xa.size
                    mask = expected > 0
                    chi2 = float((((table - expected) ** 2)[mask] / expected[mask]).sum())
                    v = np.sqrt(chi2 / (xa.size * (min(ka, kb) - 1)))
            else:
                (codes, spec), values = ((xa, a), xb) if a.kind is ColumnKind.CATEGORICAL else ((xb, b), xa)
                grand = values.mean()
                sst = float(((values - grand) ** 2).sum())
                k = len(spec.categories)
                counts = np.bincount(codes, minlength=k).astype(np.float64)
                sums = np.bincount(codes, weights=values, minlength=k)
                nz = counts > 0
                ssb = float((counts[nz] * (sums[nz] / counts[nz] - grand) ** 2).sum())
                v = 0.0 if sst <= 0.0 else float(np.sqrt(min(ssb / sst, 1.0)))
            out[f"{a.name}|{b.name}"] = (v, 2.0 if a.kind is b.kind is ColumnKind.CONTINUOUS else 1.0)
    return out


@pytest.mark.parametrize("n_real, n_synth", [(1, 1), (500, 333), (2_000, 9_001)])
def test_fidelity_equals_the_per_pair_reference_bit_for_bit(n_real, n_synth):
    schema = Schema(
        (
            ColumnSpec("x", ColumnKind.CONTINUOUS),
            ColumnSpec("g", ColumnKind.CATEGORICAL, categories=("a", "b", "c")),
            ColumnSpec("y", ColumnKind.CONTINUOUS),
            ColumnSpec("one", ColumnKind.CATEGORICAL, categories=("only",)),
            ColumnSpec("z", ColumnKind.CONTINUOUS),
            ColumnSpec("h", ColumnKind.CATEGORICAL, categories=("p", "q")),
        )
    )

    def table(n, seed, constant_z):
        rng = np.random.default_rng(seed)
        x = np.round(rng.normal(1e4, 3e3, n), 2)
        return make_dataset(
            schema,
            {
                "x": x,
                "g": rng.integers(0, 3, n),
                "y": 0.3 * x + rng.standard_normal(n),
                "one": np.zeros(n, dtype=np.int64),
                "z": np.full(n, 2.5) if constant_z else rng.uniform(-1.0, 1.0, n),
                "h": (x > 1e4).astype(np.int64),
            },
        )

    real, synth = table(n_real, 1, False), table(n_synth, 2, True)
    ref_r, ref_s = per_pair_associations(real), per_pair_associations(synth)
    expected = {p: 1.0 - abs(ref_r[p][0] - ref_s[p][0]) / ref_r[p][1] for p in ref_r}
    biv = bivariate_fidelity(real, synth)
    assert biv.details["per_pair"] == expected
    assert biv.score == float(np.mean(list(expected.values())))
    uni = univariate_fidelity(real, synth)
    for name in ("x", "y", "z"):
        assert uni.details["per_column"][name] == 1.0 - ks_statistic(real.column(name), synth.column(name))


# ------------------------------------------------------------ shared inputs ---

@pytest.mark.parametrize(
    "metrics, fits, nulls",
    [
        (("specks",), 1, 0),
        (("univariate_fidelity", "bivariate_fidelity"), 0, 0),
        (("pmse_ratio", "specks", "pmse_observed", "pmse_standardized"), 1, 1),
        (utility.UTILITY_METRICS, 1, 1),
    ],
)
def test_evaluate_utility_builds_each_shared_input_once(monkeypatch, metrics, fits, nulls):
    calls = {"fit_propensity": 0, "pmse_null": 0}
    for name in calls:
        def spy(*args, _real=getattr(utility, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(utility, name, spy)
    real, synth = cont_ds(80, 1), cont_ds(80, 2, shift=0.3)
    out = utility.evaluate_utility(real, synth, metrics, "permutation", 20, derive_stream(3, "q"))
    assert [m.name for m in out] == list(metrics)
    assert calls == {"fit_propensity": fits, "pmse_null": nulls}


def test_evaluate_utility_results_do_not_depend_on_metric_order():
    real, synth = cont_ds(80, 1), cont_ds(80, 2, shift=0.3)

    def scores(metrics):
        out = utility.evaluate_utility(real, synth, metrics, "permutation", 20, derive_stream(3, "q"))
        return {m.name: (m.score, m.details) for m in out}

    assert scores(utility.UTILITY_METRICS) == scores(tuple(reversed(utility.UTILITY_METRICS)))
    assert scores(("pmse_ratio",))["pmse_ratio"] == scores(utility.UTILITY_METRICS)["pmse_ratio"]
