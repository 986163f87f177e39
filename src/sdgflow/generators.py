"""Synthetic dataset generators.

Four modes share one config surface:

  rsd  fit a Gaussian copula to a real dataset and resample it
  asd  sample declared per-column distributions under rules, no real data
  csd  linear structural-equation model over a user-supplied causal DAG
  hsd  column partition, one non-hybrid sub-generator per part, joined

Every generator is a pure function of (inputs, params, stream) so reruns and
concurrent execution cannot change outputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    ConfigError,
    CycleDetected,
    DegenerateMarginalWarning,
    RuleUnsatisfiable,
    SchemaError,
    TooFewRows,
)
from .jsonfields import JsonChecks
from .rng import RngStream
from .special import ndtr, ndtri
from .specs import toposort_ids
from .tabular import ColumnKind, Dataset, Schema, category_counts

MIN_FIT_ROWS = 10
DEFAULT_MAX_ATTEMPTS = 1000  # rejection rounds: asd's default cap, hsd's cap
MAX_ATTEMPTS_PER_ROW = 10_000  # ceiling on asd's cap, which bounds its run time
MAX_N_OUT = 10_000_000  # ceiling on a generate node's rows, which bounds their memory
_EIG_FLOOR = 1e-8


# ----------------------------------------------------------------- configs ---

@dataclass(frozen=True)
class UniformModel:
    low: float
    high: float


@dataclass(frozen=True)
class NormalModel:
    mean: float
    std: float


@dataclass(frozen=True)
class QuantileTableModel:
    quantiles: tuple[float, ...]
    values: tuple[float, ...]


@dataclass(frozen=True)
class CategoricalModel:
    labels: tuple[str, ...]
    weights: tuple[float, ...]  # normalized at parse time


ColumnModel = UniformModel | NormalModel | QuantileTableModel | CategoricalModel


@dataclass(frozen=True)
class ImplicationRule:
    if_column: str
    if_category: str
    then_column: str
    then_categories: tuple[str, ...]

    def describe(self) -> str:
        return (
            f"implication: {self.if_column}={self.if_category} => "
            f"{self.then_column} in {list(self.then_categories)}"
        )


@dataclass(frozen=True)
class RangeRule:
    column: str
    min: float
    max: float

    def describe(self) -> str:
        return f"range_constraint: {self.column} in [{self.min}, {self.max}]"


@dataclass(frozen=True)
class DerivationRule:
    target: str
    sources: Mapping[str, float]
    constant: float = 0.0


Rule = ImplicationRule | RangeRule | DerivationRule


@dataclass(frozen=True)
class RsdParams:
    correlation_shrinkage: float = 0.0


@dataclass(frozen=True)
class AsdParams:
    column_models: Mapping[str, ColumnModel]
    rules: tuple[Rule, ...] = ()
    max_attempts_per_row: int = DEFAULT_MAX_ATTEMPTS


@dataclass(frozen=True)
class NormalNoise:
    std: float


@dataclass(frozen=True)
class UniformNoise:
    half_width: float


NoiseSpec = NormalNoise | UniformNoise


@dataclass(frozen=True)
class CsdParams:
    noise: Mapping[str, NoiseSpec]
    causal_dag: tuple[tuple[str, str], ...] = ()  # (from, to) edges
    weights: tuple[float, ...] = ()  # one per edge
    intercepts: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class HsdParams:
    partition: tuple[tuple[str, ...], ...]
    sub_configs: tuple["GeneratorConfig", ...]
    post_rules: tuple[Rule, ...] = ()

    def needs_real(self) -> bool:
        return any(c.mode == "rsd" for c in self.sub_configs)


@dataclass(frozen=True)
class GeneratorConfig:
    mode: str
    n_out: int
    mode_params: RsdParams | AsdParams | CsdParams | HsdParams

    def needs_real(self) -> bool:
        """rsd, and hsd with an rsd part, fit a real dataset."""
        return self.mode == "rsd" or (self.mode == "hsd" and self.mode_params.needs_real())


# ------------------------------------------------------------ config parse ---
# Each parser builds its class through `JsonChecks.build`, which takes the
# keys and their defaults from the class, then applies the rules on values.

_check = JsonChecks(ConfigError)


def parse_generator_config(obj: Any) -> GeneratorConfig:
    """Validate a generator config document; raises ConfigError."""
    config = _config(obj, "generator config", _CONFIGS)
    for i, sub in enumerate(config.mode_params.sub_configs if config.mode == "hsd" else ()):
        if sub.n_out != config.n_out:
            raise ConfigError(
                f"hsd sub_configs[{i}]: n_out {sub.n_out} must equal the hybrid n_out {config.n_out}"
            )
    return config


def _config(value: Any, where: str, configs: Mapping[str, tuple]) -> GeneratorConfig:
    """A config in one of the modes of `configs`. One without mode_params
    gives its mode's params their defaults."""
    return _check.tagged(configs, "mode", {"mode_params": {}, **_check.obj(value, where)}, where)


def _unsigned_zero(value: Any, what: str) -> float:
    """A number with -0.0 read as 0.0, an int kept an int: numpy rejects a
    spread of -0.0 (a normal scale, or a uniform whose high - low is -0.0)."""
    return _check.number(value, what) + 0


def _nonnegative(value: Any, what: str) -> float:
    if (value := _unsigned_zero(value, what)) < 0:
        raise ConfigError(f"{what} must be >= 0")
    return value


def _parse_rsd(mp: Any, where: str) -> RsdParams:
    params = _check.build(RsdParams, {"correlation_shrinkage": _check.number}, mp, where)
    lam = params.correlation_shrinkage
    if not 0.0 <= lam <= 1.0:
        raise ConfigError(f"{where}: correlation_shrinkage must be in [0, 1], got {lam}")
    return params


# distribution -> the model class and the checks of its keys
_MODELS = {
    "uniform": (UniformModel, {"low": _unsigned_zero, "high": _unsigned_zero}),
    "normal": (NormalModel, {"mean": _check.number, "std": _nonnegative}),
    "quantile_table": (QuantileTableModel, {"quantiles": _check.numbers, "values": _check.numbers}),
}
_LABEL_CHECKS = {"labels": _check.strings, "weights": _check.numbers}


def _parse_column_model(doc: Any, where: str) -> ColumnModel:
    """A label model when the object has labels or weights, else the model
    its distribution names."""
    if "labels" in _check.obj(doc, where) or "weights" in doc:
        model = _check.build(CategoricalModel, _LABEL_CHECKS, doc, where)
        labels, weights = model.labels, model.weights
        if len(set(labels)) != len(labels):
            raise ConfigError(f"{where}: duplicate labels")
        if len(weights) != len(labels):
            raise ConfigError(f"{where}: weights must align with labels")
        if any(w <= 0 for w in weights):
            raise ConfigError(f"{where}: weights must be positive numbers")
        total = sum(weights)
        return CategoricalModel(labels=labels, weights=tuple(w / total for w in weights))
    model = _check.tagged(_MODELS, "distribution", doc, where)
    if isinstance(model, UniformModel):
        if model.low > model.high:
            raise ConfigError(f"{where}: low must be <= high")
        if not math.isfinite(float(model.high) - float(model.low)):  # numpy draws over high - low
            raise ConfigError(f"{where}: high - low must be finite")
    if isinstance(model, QuantileTableModel):
        qs, vs = model.quantiles, model.values
        if len(qs) != len(vs) or len(qs) < 2:
            raise ConfigError(f"{where}: quantiles and values must align, length >= 2")
        if qs[0] != 0.0 or qs[-1] != 1.0 or any(a >= b for a, b in zip(qs, qs[1:])):
            raise ConfigError(f"{where}: quantiles must increase strictly from 0 to 1")
        if any(a > b for a, b in zip(vs, vs[1:])):
            raise ConfigError(f"{where}: values must be non-decreasing")
    return model


# rule kind -> the rule class and the checks of its keys
_RULES = {
    "implication": (ImplicationRule, {
        "if_column": _check.string, "if_category": _check.string,
        "then_column": _check.string, "then_categories": _check.strings,
    }),
    "range_constraint": (RangeRule, {"column": _check.string, "min": _check.number, "max": _check.number}),
    "derivation": (DerivationRule, {
        "target": _check.string, "sources": _check.number_map, "constant": _check.number,
    }),
}


def _parse_rule(doc: Any, where: str) -> Rule:
    rule = _check.tagged(_RULES, "kind", doc, where)
    if isinstance(rule, RangeRule) and rule.min > rule.max:
        raise ConfigError(f"{where}: min must be <= max")
    if isinstance(rule, DerivationRule):
        if not rule.sources:
            raise ConfigError(f"{where}: sources must map columns to coefficients")
        if rule.target in rule.sources:
            raise ConfigError(f"{where}: derivation target cannot be its own source")
    return rule


def _parse_rules(docs: Any, where: str) -> tuple[Rule, ...]:
    rules = _check.each(_parse_rule, docs, where)
    targets = [r.target for r in rules if isinstance(r, DerivationRule)]
    if len(set(targets)) != len(targets):
        raise ConfigError(f"{where}: multiple derivations for one target")
    try:
        _derivation_order(rules)
    except CycleDetected:
        raise ConfigError(f"{where}: derivation rules form a cycle") from None
    return rules


_ASD_CHECKS = {
    "column_models": partial(_check.each_value, _parse_column_model, nonempty=True),
    "rules": _parse_rules,
    "max_attempts_per_row": partial(_check.integer, minimum=1, maximum=MAX_ATTEMPTS_PER_ROW),
}


def _parse_asd(mp: Any, where: str) -> AsdParams:
    params = _check.build(AsdParams, _ASD_CHECKS, mp, where)
    for r in params.rules:
        if isinstance(r, DerivationRule) and r.target in params.column_models:
            raise ConfigError(f"{where}: column {r.target!r} is both modeled and derived")
    return params


def _half_width(value: Any, what: str) -> float:
    """A uniform noise's half width w: numpy draws over [-w, w], whose width
    2w must be finite."""
    if not math.isfinite(2.0 * (value := _nonnegative(value, what))):
        raise ConfigError(f"{what} must be finite when doubled")
    return value


# noise distribution -> the noise class and the check of its one key
_NOISE = {
    "normal": (NormalNoise, {"std": _nonnegative}),
    "uniform": (UniformNoise, {"half_width": _half_width}),
}


def _edge(value: Any, where: str) -> tuple[str, str]:
    _check.obj(value, where, {"from", "to"}, required={"from", "to"})
    return tuple(_check.string(value[k], f"{where}: {k}") for k in ("from", "to"))


_CSD_CHECKS = {
    "causal_dag": partial(_check.each, _edge),
    "weights": _check.numbers,
    "noise": partial(_check.each_value, partial(_check.tagged, _NOISE, "distribution"), nonempty=True),
    "intercepts": _check.number_map,
}


def _parse_csd(mp: Any, where: str) -> CsdParams:
    params = _check.build(CsdParams, _CSD_CHECKS, mp, where)
    edges = params.causal_dag
    for i, (u, v) in enumerate(edges):
        if u == v:
            raise ConfigError(f"{where}: causal_dag[{i}]: self-edge on {u!r}")
        if (u, v) in edges[:i]:
            raise ConfigError(f"{where}: causal_dag[{i}]: duplicate edge {u}->{v}")
    if len(params.weights) != len(edges):
        raise ConfigError(f"{where}: weights must align with causal_dag edges")
    nodes = sorted({u for u, _ in edges} | {v for _, v in edges})
    deps = {n: [u for u, v in edges if v == n] for n in nodes}
    try:
        toposort_ids(nodes, deps)
    except CycleDetected:
        raise ConfigError(f"{where}: causal_dag has a cycle") from None
    return params


_HSD_CHECKS = {
    "partition": partial(_check.each, _check.strings),
    "sub_configs": partial(_check.each, lambda value, where: _config(value, where, _SUB_CONFIGS)),
    "post_rules": _parse_rules,
}


def _parse_hsd(mp: Any, where: str) -> HsdParams:
    params = _check.build(HsdParams, _HSD_CHECKS, mp, where)
    if not params.partition:
        raise ConfigError(f"{where}: partition must be a non-empty list of column groups")
    seen: set[str] = set()
    for i, group in enumerate(params.partition):
        overlap = seen & set(group)
        if overlap or len(set(group)) != len(group):
            raise ConfigError(
                f"{where}: partition[{i}]: column assigned twice: {sorted(overlap) or list(group)}"
            )
        seen.update(group)
    if len(params.sub_configs) != len(params.partition):
        raise ConfigError(f"{where}: sub_configs must align with partition")
    return params


# --------------------------------------------------- schema-level validation ---

def _check_rules_against_schema(rules: Sequence[Rule], schema: Schema, where: str) -> None:
    for r in rules:
        if isinstance(r, ImplicationRule):
            for col, labels in ((r.if_column, (r.if_category,)), (r.then_column, r.then_categories)):
                spec = _col(schema, col, where)
                if spec.kind is not ColumnKind.CATEGORICAL:
                    raise ConfigError(f"{where}: implication column {col!r} must be categorical")
                bad = set(labels) - set(spec.categories)
                if bad:
                    raise ConfigError(f"{where}: {sorted(bad)} are not categories of {col!r}")
        elif isinstance(r, RangeRule):
            if _col(schema, r.column, where).kind is not ColumnKind.CONTINUOUS:
                raise ConfigError(f"{where}: range_constraint column {r.column!r} must be continuous")
        else:
            if _col(schema, r.target, where).kind is not ColumnKind.CONTINUOUS:
                raise ConfigError(f"{where}: derivation target {r.target!r} must be continuous")
            for s in r.sources:
                if _col(schema, s, where).kind is not ColumnKind.CONTINUOUS:
                    raise ConfigError(f"{where}: derivation source {s!r} must be continuous")


def _col(schema: Schema, name: str, where: str):
    try:
        return schema.column(name)
    except SchemaError:
        raise ConfigError(f"{where}: unknown column {name!r}") from None


def _check_asd_schema(params: AsdParams, schema: Schema) -> None:
    targets = {r.target for r in params.rules if isinstance(r, DerivationRule)}
    for name, model in params.column_models.items():
        spec = _col(schema, name, "asd")
        if isinstance(model, CategoricalModel):
            if spec.kind is not ColumnKind.CATEGORICAL:
                raise ConfigError(f"asd: column {name!r} is continuous but has a label model")
            bad = set(model.labels) - set(spec.categories)
            if bad:
                raise ConfigError(f"asd: labels {sorted(bad)} are not categories of {name!r}")
        elif spec.kind is not ColumnKind.CONTINUOUS:
            raise ConfigError(f"asd: column {name!r} is categorical but has a numeric model")
    covered = set(params.column_models) | targets
    missing = set(schema.names) - covered
    if missing:
        raise ConfigError(f"asd: columns {sorted(missing)} are neither modeled nor derived")
    _check_rules_against_schema(params.rules, schema, "asd")


def _check_csd_schema(params: CsdParams, schema: Schema) -> None:
    for spec in schema.columns:
        if spec.kind is not ColumnKind.CONTINUOUS:
            raise ConfigError(f"csd: column {spec.name!r} is categorical; csd handles continuous only")
    for u, v in params.causal_dag:
        _col(schema, u, "csd")
        _col(schema, v, "csd")
    missing = set(schema.names) - set(params.noise)
    if missing:
        raise ConfigError(f"csd: columns {sorted(missing)} have no noise spec")
    for col in params.noise:
        _col(schema, col, "csd noise")
    for col in params.intercepts:
        _col(schema, col, "csd intercepts")


# --------------------------------------------------------------- rsd (copula) ---

def _rank_runs(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, ranks, counts): arr[order] is arr sorted, in runs of equal
    values, and ranks and counts give each run's 1-based average rank and
    its length. Repeated by counts and put back through order, the ranks
    are scipy.stats.rankdata(arr, method="average"), bit for bit, since
    each is an integer or half-integer. Every rank of a run is its mean, so
    the order within a run does not matter, and the sort need not be
    stable."""
    order = np.argsort(arr)
    ordered = arr[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], arr.size)  # one past each run's last rank
    return order, (starts + 1 + ends) / 2.0, ends - starts


def _category_counts(ds: Dataset) -> list[np.ndarray | None]:
    """Each categorical column's count of rows per category, as float64;
    None for a continuous column."""
    return [
        None if spec.categories is None
        else category_counts(arr, len(spec.categories)).astype(np.float64)
        for spec, arr in zip(ds.schema.columns, ds.columns)
    ]


def _normal_score(u: np.ndarray) -> np.ndarray:
    """The standard-normal quantile of each share in u, kept 1e-12 from 0
    and 1."""
    return ndtri(np.clip(u, 1e-12, 1 - 1e-12))


def _normal_scores(
    ds: Dataset, counts: Sequence[np.ndarray | None]
) -> tuple[np.ndarray, list[int]]:
    """Map each column to standard-normal scores; returns an (n, d) matrix
    plus the indices of degenerate (constant) columns. `counts` are the
    columns' _category_counts. Rows of equal value share a score, so each
    run of equal values (each category) is scored once."""
    n = ds.n
    cols = []
    degenerate = []
    for j, (spec, arr) in enumerate(zip(ds.schema.columns, ds.columns)):
        if spec.kind is ColumnKind.CONTINUOUS:
            order, ranks, run_rows = _rank_runs(arr)
            z = np.empty(n)
            z[order] = np.repeat(_normal_score((ranks - 0.5) / n), run_rows)
        else:
            p = counts[j] / n
            z = _normal_score(np.concatenate([[0.0], np.cumsum(p)[:-1]]) + p / 2.0)[arr]
        if np.std(z) < 1e-12:
            degenerate.append(j)
        cols.append(z)
    return np.column_stack(cols), degenerate


def _correlation(z: np.ndarray, degenerate: Sequence[int]) -> np.ndarray:
    d = z.shape[1]
    sd = z.std(axis=0)
    safe = sd.copy()
    safe[safe < 1e-12] = 1.0
    zc = (z - z.mean(axis=0)) / safe
    corr = (zc.T @ zc) / z.shape[0]
    corr = np.clip(corr, -1.0, 1.0)
    for j in degenerate:
        corr[j, :] = 0.0
        corr[:, j] = 0.0
        corr[j, j] = 1.0
    np.fill_diagonal(corr, 1.0)
    return corr


def _nearest_psd(corr: np.ndarray) -> np.ndarray:
    """Eigenvalue floor then diagonal renormalization back to a correlation."""
    vals, vecs = np.linalg.eigh(corr)
    vals = np.clip(vals, _EIG_FLOOR, None)
    fixed = (vecs * vals) @ vecs.T
    scale = np.sqrt(np.diag(fixed))
    fixed = fixed / np.outer(scale, scale)
    np.fill_diagonal(fixed, 1.0)
    return fixed


def _cholesky_with_jitter(corr: np.ndarray) -> np.ndarray:
    jitter = 0.0
    for _ in range(6):
        try:
            return np.linalg.cholesky(corr + jitter * np.eye(corr.shape[0]))
        except np.linalg.LinAlgError:
            jitter = max(jitter * 10.0, 1e-10)
    raise np.linalg.LinAlgError("correlation matrix not decomposable after jitter")


def _interp_sorted_queries(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """np.interp(x, xp, fp), run on x in sorted order and scattered back.
    np.interp computes each value from its own query alone, so the bits are
    those of the unsorted call; sorted queries walk xp in order, which is
    faster on long xp."""
    order = np.argsort(x)
    out = np.empty(x.shape)
    out[order] = np.interp(x[order], xp, fp)
    return out


def generate_rsd(
    params: RsdParams, n_out: int, schema: Schema, real: Dataset, rng: RngStream
) -> Dataset:
    """Gaussian-copula resampling of a real dataset, in the real dataset's
    schema.

    Fits per-column marginals plus a normal-score correlation matrix, samples
    a multivariate normal, and back-transforms through the inverse marginals.
    Continuous outputs stay within each real column's observed [min, max].
    """
    if real.n < MIN_FIT_ROWS:
        raise TooFewRows(f"rsd needs at least {MIN_FIT_ROWS} rows, got {real.n}")

    counts = _category_counts(real)
    z, degenerate = _normal_scores(real, counts)
    for j in degenerate:
        warnings.warn(
            f"column {real.schema.columns[j].name!r} is constant; "
            "synthetic output will repeat that value",
            DegenerateMarginalWarning,
            stacklevel=2,
        )
    corr = _correlation(z, degenerate)
    lam = params.correlation_shrinkage
    if lam > 0.0:
        corr = (1.0 - lam) * corr + lam * np.eye(corr.shape[0])
    corr = _nearest_psd(corr)
    chol = _cholesky_with_jitter(corr)

    z_syn = rng.generator.standard_normal((n_out, corr.shape[0])) @ chol.T

    out_cols = []
    n = real.n
    grid = (np.arange(n) + 0.5) / n
    for j, (spec, arr) in enumerate(zip(real.schema.columns, real.columns)):
        z = z_syn[:, j]
        if spec.kind is ColumnKind.CONTINUOUS:
            ordered = np.sort(arr)
            vals = _interp_sorted_queries(ndtr(z), grid, ordered)
            out_cols.append(np.clip(vals, ordered[0], ordered[-1]))
        else:
            # the first category whose cumulative share exceeds ndtr(z), found
            # as the first whose normal quantile exceeds z: k values through
            # ndtri, not n_out through ndtr
            k = len(spec.categories)
            cuts = ndtri(np.cumsum(counts[j] / n))
            idx = np.searchsorted(cuts, z, side="right")
            out_cols.append(np.minimum(idx, k - 1, out=idx).astype(spec.dtype))
    return Dataset._adopt(real.schema, out_cols)


# ------------------------------------------------------------------ asd ---

def _sample_asd_batch(
    params: AsdParams, schema: Schema, size: int, gen: np.random.Generator
) -> dict[str, np.ndarray]:
    """One batch of `size` rows of the modeled columns. A column's draws
    (the uniforms of a quantile table, the int64 picks of a label model) are
    not named, so they die with their column's step, before the next
    column draws."""
    cols: dict[str, np.ndarray] = {}
    for spec in schema.columns:
        model = params.column_models.get(spec.name)
        if model is None:
            continue  # derivation target, filled below
        if isinstance(model, UniformModel):
            cols[spec.name] = gen.uniform(model.low, model.high, size)
        elif isinstance(model, NormalModel):
            cols[spec.name] = gen.normal(model.mean, model.std, size)
        elif isinstance(model, QuantileTableModel):
            # an int a document writes beyond int64 would make an object array
            cols[spec.name] = np.interp(gen.random(size), model.quantiles, np.asarray(model.values, np.float64))
        else:
            label_idx = np.array([spec.categories.index(l) for l in model.labels], dtype=spec.dtype)
            cols[spec.name] = label_idx[gen.choice(len(model.labels), size=size, p=np.asarray(model.weights))]
    return cols


def _derivation_order(rules: Sequence[Rule]) -> list[DerivationRule]:
    derivs = {r.target: r for r in rules if isinstance(r, DerivationRule)}
    deps = {t: [s for s in r.sources if s in derivs] for t, r in derivs.items()}
    return [derivs[t] for t in toposort_ids(list(derivs), deps)]


def _apply_derivations(cols: dict[str, np.ndarray], order: Sequence[DerivationRule]) -> None:
    for rule in order:
        total = np.full_like(next(iter(cols.values())), rule.constant, dtype=np.float64)
        for src, coef in rule.sources.items():
            total += coef * cols[src]
        cols[rule.target] = total


def _rule_violations(
    cols: Mapping[str, np.ndarray], rules: Sequence[Rule], schema: Schema
) -> tuple[np.ndarray, list[int]]:
    """Per-row bad mask plus per-rule violation counts (derivations never violate)."""
    size = next(iter(cols.values())).shape[0]
    bad = np.zeros(size, dtype=bool)
    counts = []
    for rule in rules:
        if isinstance(rule, RangeRule):
            v = cols[rule.column]
            viol = (v < rule.min) | (v > rule.max)
        elif isinstance(rule, ImplicationRule):
            if_code = schema.column(rule.if_column).categories.index(rule.if_category)
            then_categories = schema.column(rule.then_column).categories
            allowed = np.zeros(len(then_categories), dtype=bool)  # looked up by the then-codes
            allowed[[then_categories.index(c) for c in rule.then_categories]] = True
            viol = (cols[rule.if_column] == if_code) & ~allowed[cols[rule.then_column]]
        else:
            counts.append(0)
            continue
        counts.append(int(viol.sum()))
        bad |= viol
    return bad, counts


def _most_violated(rules: Sequence[Rule], counts: Sequence[int]) -> str:
    """The worst rule's description. A derivation never violates, and the
    rules rejected rows in every round, so the worst is never a derivation."""
    worst = max(range(len(rules)), key=lambda i: counts[i])
    return rules[worst].describe()


def _reject(
    draw: Callable[[int, int], dict[str, np.ndarray]],
    rules: Sequence[Rule],
    schema: Schema,
    n_out: int,
    max_rounds: int,
) -> Dataset:
    """Rejection sampling shared by asd and hsd: each round draws the rows
    still missing with draw(round, rows) and applies the derivations. The
    first round's columns become the output: the rows no rule rejects move
    to their front, in place, and each later round copies its kept rows
    into the next free rows. A column that arrives frozen (an hsd part) is
    copied once, when it must be written. Past max_rounds rounds it raises
    RuleUnsatisfiable naming the most violated rule."""
    order = _derivation_order(rules)
    out: list[np.ndarray] = []
    filled = 0
    total_counts = [0] * len(rules)
    for round_ in range(max_rounds):
        cols = draw(round_, n_out - filled)
        _apply_derivations(cols, order)
        bad, counts = _rule_violations(cols, rules, schema)
        total_counts = [a + b for a, b in zip(total_counts, counts)]
        keep = np.logical_not(bad, out=bad)  # a mask, not int64 row numbers
        kept = int(np.count_nonzero(keep))
        if not out:
            out = [cols[name] for name in schema.names]
        if filled or kept < n_out:  # else the first round kept every row as drawn
            for i, name in enumerate(schema.names):
                if not out[i].flags.writeable:
                    out[i] = out[i].copy()
                out[i][filled : filled + kept] = cols[name][keep]
        filled += kept
        if filled == n_out:
            return Dataset._adopt(schema, out)
    raise RuleUnsatisfiable(_most_violated(rules, total_counts), attempts=max_rounds)


def generate_asd(
    params: AsdParams, n_out: int, schema: Schema, real: Dataset | None, rng: RngStream
) -> Dataset:
    """Rule-constrained sampling from declared column distributions.

    Derivations are applied after each batch is drawn; implication and range
    rules are enforced by rejection. A row slot that stays unsatisfied past
    max_attempts_per_row raises RuleUnsatisfiable naming the worst rule.
    """
    gen = rng.generator
    return _reject(
        lambda round_, rows: _sample_asd_batch(params, schema, rows, gen),
        params.rules,
        schema,
        n_out,
        params.max_attempts_per_row,
    )


# ------------------------------------------------------------------ csd ---

def generate_csd(
    params: CsdParams, n_out: int, schema: Schema, real: Dataset | None, rng: RngStream
) -> Dataset:
    """Linear structural-equation sampling over the configured causal DAG.

    Noise is drawn per column in schema order (so the draw sequence does not
    depend on the DAG), then columns are assembled parents-first.
    """
    gen = rng.generator

    eps: dict[str, np.ndarray] = {}
    for spec in schema.columns:
        nd = params.noise[spec.name]
        if isinstance(nd, NormalNoise):
            eps[spec.name] = gen.normal(0.0, nd.std, n_out)
        else:
            eps[spec.name] = gen.uniform(-nd.half_width, nd.half_width, n_out)

    parents: dict[str, list[tuple[str, float]]] = {name: [] for name in schema.names}
    for (u, v), w in zip(params.causal_dag, params.weights):
        parents[v].append((u, w))

    deps = {name: [u for u, _ in parents[name]] for name in schema.names}
    values: dict[str, np.ndarray] = {}
    for name in toposort_ids(list(schema.names), deps):
        x = np.full(n_out, params.intercepts.get(name, 0.0), dtype=np.float64)
        for parent, w in parents[name]:
            x += w * values[parent]
        x += eps.pop(name)  # each noise column dies once added
        values[name] = x
    return Dataset._adopt(schema, [values[name] for name in schema.names])


# ------------------------------------------------------------------ hsd ---

def _check_hsd_schema(params: HsdParams, schema: Schema) -> None:
    assigned = [c for group in params.partition for c in group]
    missing = set(schema.names) - set(assigned)
    extra = set(assigned) - set(schema.names)
    if missing:
        raise ConfigError(f"hsd: columns {sorted(missing)} are not assigned to any part")
    if extra:
        raise ConfigError(f"hsd: partition names unknown columns {sorted(extra)}")
    _check_rules_against_schema(params.post_rules, schema, "hsd post_rules")
    for group, sub in zip(params.partition, params.sub_configs):
        check_schema(sub, schema.restrict(group))


def generate_hsd(
    params: HsdParams, n_out: int, schema: Schema, real: Dataset | None, rng: RngStream
) -> Dataset:
    """Column-partitioned generation: each part runs its own sub-generator on
    an independent derived stream, outputs are joined column-wise, and any
    post_rules are enforced by whole-row rejection."""
    if real is None and params.needs_real():
        raise ConfigError("hsd requires a real dataset")
    # only an rsd part reads the real dataset, restricted to the part's columns
    parts = [
        (sub, schema.restrict(group), real.restrict(group) if sub.mode == "rsd" else None)
        for group, sub in zip(params.partition, params.sub_configs)
    ]

    def draw(round_: int, rows: int) -> dict[str, np.ndarray]:
        suffix = f"/retry{round_}" if round_ else ""
        cols: dict[str, np.ndarray] = {}
        for i, (sub, part_schema, part_real) in enumerate(parts):
            stream = rng.child(f"part{i}{suffix}")
            part = _MODES[sub.mode].generate(sub.mode_params, rows, part_schema, part_real, stream)
            # an rsd part comes back in the real dataset's column order
            cols.update(zip(part.schema.names, part.columns))
        return cols

    return _reject(draw, params.post_rules, schema, n_out, DEFAULT_MAX_ATTEMPTS)


# -------------------------------------------------------------- dispatcher ---

class _Mode(NamedTuple):
    parse: Callable[[Any, str], Any]  # (mode_params document, its label) -> params
    check: Callable[[Any, Schema], None]  # (params, schema); raises ConfigError
    generate: Callable[..., Dataset]  # (params, n_out, schema, real, rng) -> Dataset


_MODES = {
    "rsd": _Mode(_parse_rsd, lambda params, schema: None, generate_rsd),  # the real data's schema
    "asd": _Mode(_parse_asd, _check_asd_schema, generate_asd),
    "csd": _Mode(_parse_csd, _check_csd_schema, generate_csd),
    "hsd": _Mode(_parse_hsd, _check_hsd_schema, generate_hsd),
}
_CONFIG_CHECKS = {"mode": _check.string, "n_out": partial(_check.integer, minimum=1, maximum=MAX_N_OUT)}
_CONFIGS = {  # mode -> the config class and the checks of its keys
    mode: (GeneratorConfig, {**_CONFIG_CHECKS, "mode_params": m.parse}) for mode, m in _MODES.items()
}
_SUB_CONFIGS = {mode: c for mode, c in _CONFIGS.items() if mode != "hsd"}  # hsd configs cannot nest


def check_schema(config: GeneratorConfig, schema: Schema) -> None:
    """Raise ConfigError unless the config's column models and rules fit the
    schema it generates in; `generate` runs this once, spec parsing runs it
    for an inline schema."""
    _MODES[config.mode].check(config.mode_params, schema)


def check_generate_inputs(config: GeneratorConfig, has_real: bool, has_schema: bool) -> None:
    """A config that needs_real needs a real dataset, and rsd takes no
    schema: it writes the real dataset's. asd/csd need a schema, taken from
    the real dataset when none is given."""
    if config.needs_real() and not has_real:
        raise ConfigError(f"{config.mode} requires a real dataset")
    if config.mode == "rsd" and has_schema:
        raise ConfigError("rsd takes no schema: it writes the real dataset's")
    if not has_real and not has_schema:
        raise ConfigError(f"{config.mode} requires a schema or a real dataset")


def generate(
    config: GeneratorConfig,
    rng: RngStream,
    real: Dataset | None = None,
    schema: Schema | None = None,
) -> Dataset:
    """Run the generator a config describes; see check_generate_inputs. A
    finite coefficient whose products overflow float64 raises ConfigError
    naming the mode and the column; values that a rule rejects may overflow."""
    check_generate_inputs(config, real is not None, schema is not None)
    _CONFIG_CHECKS["n_out"](config.n_out, "n_out")  # a config built without parsing
    effective = schema if schema is not None else real.schema
    check_schema(config, effective)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return _MODES[config.mode].generate(config.mode_params, config.n_out, effective, real, rng)
        except SchemaError as exc:  # of the output's checks, only finiteness can fail here
            raise ConfigError(f"{config.mode} config: {exc}: its numbers overflow float64") from None
