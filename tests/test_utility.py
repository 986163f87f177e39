"""Propensity-based utility metrics and distribution fidelity scores."""
import warnings

import numpy as np
import pytest
from scipy import stats

from sdgflow.bench import make_bench_dataset
from sdgflow.errors import ConfigError, DegenerateNull, SchemaMismatch, SeparationWarning, TooFewRows
from sdgflow.evaluation import utility
from sdgflow.evaluation.results import Direction
from sdgflow.evaluation.utility import (
    BLOCK_MAX_ITER,
    COEF_TOL,
    RIDGE,
    NullModel,
    _block_refits,
    _irls,
    bivariate_fidelity,
    design_matrix,
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
from sdgflow.tabular import ColumnKind, ColumnSpec, Schema, make_dataset


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
    x, z, k = design_matrix(real, synth)
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
    x, z, _ = design_matrix(real, synth)
    _, refit_scores, _, _ = _irls(x, z)
    assert float(np.mean((refit_scores - model.c) ** 2)) == pytest.approx(observed, rel=1e-12)


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
    x, z, _ = design_matrix(real, synth)
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
    drawn from the stream pmse_null uses; returns (labels, fits)."""
    gen = derive_stream(seed, "null").generator
    labels = [gen.permutation(z) for _ in range(B)]
    return labels, [_irls(x, zb, warn=False) for zb in labels]


@pytest.mark.parametrize("n, c", [(6000, 0.05), (6000, 0.17), (6000, 0.5), (360, 60 / 360)])
def test_block_null_matches_newton_refits(n, c):
    real, synth = bench_split(n, c)
    x, z, _ = design_matrix(real, synth)
    c = synth.n / (real.n + synth.n)
    null = pmse_null(real, synth, B=20, rng=derive_stream(2, "null"))
    labels, fits = newton_null(x, z, 2, 20)
    beta, converged, _ = _block_refits(x, np.array([zb @ x for zb in labels]), c)
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


def test_block_null_with_no_steps_is_the_newton_null(monkeypatch):
    real, synth = bench_split(2000, 0.3)
    x, z, _ = design_matrix(real, synth)
    c = synth.n / (real.n + synth.n)
    monkeypatch.setattr(utility, "BLOCK_MAX_ITER", 0)
    null = pmse_null(real, synth, B=20, rng=derive_stream(6, "null"))
    _, fits = newton_null(x, z, 6, 20)
    assert null.samples == tuple(float(np.mean((s - c) ** 2)) for _, s, _, _ in fits)
    assert null.newton_refits == tuple(range(20)) and null.block_iterations == 0


def test_block_null_splits_refits_to_bound_its_score_matrix(monkeypatch):
    real, synth = bench_split(2000, 0.3)
    whole = pmse_null(real, synth, B=20, rng=derive_stream(6, "null"))
    widths = []
    block_refits = utility._block_refits

    def spy(x, xtz, c):
        widths.append(xtz.shape[0])
        return block_refits(x, xtz, c)

    monkeypatch.setattr(utility, "_block_refits", spy)
    monkeypatch.setattr(utility, "NULL_BLOCK_CELLS", 3 * 2000 + 1)
    split = pmse_null(real, synth, B=20, rng=derive_stream(6, "null"))
    assert widths == [3] * 6 + [2]
    assert split.newton_refits == whole.newton_refits
    # the same iteration on the same data; blocks of another width round
    # differently inside BLAS, which moves a sample by ~1e-12 relative
    assert split.samples == pytest.approx(whole.samples, rel=1e-10)


def test_shared_design_matrix_gives_the_same_results():
    real, synth = cont_ds(200, 42), cont_ds(150, 43, shift=0.2)
    design = design_matrix(real, synth)
    assert fit_propensity(real, synth, design)[0] == fit_propensity(real, synth)[0]
    shared = pmse_null(real, synth, B=20, rng=derive_stream(1, "null"), design=design)
    alone = pmse_null(real, synth, B=20, rng=derive_stream(1, "null"))
    assert shared == alone
    with pytest.raises(ConfigError):
        pmse_null(real, synth, B=20, rng=derive_stream(1, "null"), design=design_matrix(real, real))


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
