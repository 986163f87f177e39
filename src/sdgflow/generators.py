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

import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

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
from .specs import toposort_ids
from .tabular import ColumnKind, Dataset, Schema

MIN_FIT_ROWS = 10
DEFAULT_MAX_ATTEMPTS = 1000  # rejection rounds: asd's default cap, hsd's cap
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
    low: float
    high: float

    def describe(self) -> str:
        return f"range_constraint: {self.column} in [{self.low}, {self.high}]"


@dataclass(frozen=True)
class DerivationRule:
    target: str
    sources: Mapping[str, float]
    constant: float

    def describe(self) -> str:
        terms = " + ".join(f"{c}*{self.sources[c]}" for c in self.sources)
        return f"derivation: {self.target} = {terms} + {self.constant}"


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
    causal_dag: tuple[tuple[str, str], ...]
    weights: tuple[float, ...]
    noise: Mapping[str, NoiseSpec]
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


# ------------------------------------------------------------ config parse ---

_check = JsonChecks(ConfigError)


def parse_generator_config(obj: Any, nested: bool = False) -> GeneratorConfig:
    """Validate a generator config document; raises ConfigError."""
    _check.obj(obj, "generator config", {"mode", "n_out", "mode_params"})
    mode = _check.choice(obj.get("mode"), "mode", _MODES)
    if nested and mode == "hsd":
        raise ConfigError("hsd configs cannot nest")
    n_out = _check.integer(obj.get("n_out"), "n_out", minimum=1)
    params = _MODES[mode].parse(obj.get("mode_params", {}), n_out)
    return GeneratorConfig(mode=mode, n_out=n_out, mode_params=params)


def _parse_rsd(mp: Any, n_out: int) -> RsdParams:
    _check.obj(mp, "rsd params", {"correlation_shrinkage"})
    lam = _check.number(mp.get("correlation_shrinkage", 0.0), "rsd params: correlation_shrinkage")
    if not 0.0 <= lam <= 1.0:
        raise ConfigError(f"correlation_shrinkage must be in [0, 1], got {lam}")
    return RsdParams(correlation_shrinkage=lam)


_MODEL_DISTRIBUTIONS = ("uniform", "normal", "quantile_table")


def _parse_column_model(name: str, doc: Any) -> ColumnModel:
    where = f"column_models[{name!r}]"
    _check.obj(doc, where)
    if "labels" in doc or "weights" in doc:
        _check.obj(doc, where, {"labels", "weights"}, required={"labels", "weights"})
        labels = _check.strings(doc["labels"], f"{where}: labels")
        if len(set(labels)) != len(labels):
            raise ConfigError(f"{where}: duplicate labels")
        weights = _check.numbers(doc["weights"], f"{where}: weights")
        if len(weights) != len(labels):
            raise ConfigError(f"{where}: weights must align with labels")
        if any(w <= 0 for w in weights):
            raise ConfigError(f"{where}: weights must be positive numbers")
        total = sum(weights)
        return CategoricalModel(labels=labels, weights=tuple(w / total for w in weights))
    dist = _check.choice(doc.get("distribution"), f"{where}: distribution", _MODEL_DISTRIBUTIONS)
    if dist == "uniform":
        _check.obj(doc, where, {"distribution", "low", "high"}, required={"low", "high"})
        low = _check.number(doc["low"], f"{where}: low")
        high = _check.number(doc["high"], f"{where}: high")
        if low > high:
            raise ConfigError(f"{where}: low must be <= high")
        return UniformModel(low=low, high=high)
    if dist == "normal":
        _check.obj(doc, where, {"distribution", "mean", "std"}, required={"mean", "std"})
        std = _check.number(doc["std"], f"{where}: std")
        if std < 0:
            raise ConfigError(f"{where}: std must be >= 0")
        return NormalModel(mean=_check.number(doc["mean"], f"{where}: mean"), std=std)
    # quantile_table
    _check.obj(doc, where, {"distribution", "quantiles", "values"}, required={"quantiles", "values"})
    qs = _check.numbers(doc["quantiles"], f"{where}: quantiles")
    vs = _check.numbers(doc["values"], f"{where}: values")
    if len(qs) != len(vs) or len(qs) < 2:
        raise ConfigError(f"{where}: quantiles and values must align, length >= 2")
    if qs[0] != 0.0 or qs[-1] != 1.0 or any(a >= b for a, b in zip(qs, qs[1:])):
        raise ConfigError(f"{where}: quantiles must increase strictly from 0 to 1")
    if any(a > b for a, b in zip(vs, vs[1:])):
        raise ConfigError(f"{where}: values must be non-decreasing")
    return QuantileTableModel(quantiles=qs, values=vs)


# rule kind -> its fields besides "kind"; all required but a derivation's constant
_RULE_FIELDS = {
    "implication": {"if_column", "if_category", "then_column", "then_categories"},
    "range_constraint": {"column", "min", "max"},
    "derivation": {"target", "sources", "constant"},
}


def _parse_rule(doc: Any, where: str) -> Rule:
    kind = _check.choice(_check.obj(doc, where).get("kind"), f"{where}: kind", _RULE_FIELDS)
    keys = _RULE_FIELDS[kind]
    _check.obj(doc, where, keys | {"kind"}, required=keys - {"constant"})
    if kind == "implication":
        if_column, if_category, then_column = (
            _check.string(doc[k], f"{where}: {k}") for k in ("if_column", "if_category", "then_column")
        )
        then_categories = _check.strings(doc["then_categories"], f"{where}: then_categories")
        return ImplicationRule(if_column, if_category, then_column, then_categories)
    if kind == "range_constraint":
        column = _check.string(doc["column"], f"{where}: column")
        low = _check.number(doc["min"], f"{where}: min")
        high = _check.number(doc["max"], f"{where}: max")
        if low > high:
            raise ConfigError(f"{where}: min must be <= max")
        return RangeRule(column=column, low=low, high=high)
    target = _check.string(doc["target"], f"{where}: target")
    sources = _check.number_map(doc["sources"], f"{where}: sources")
    if not sources:
        raise ConfigError(f"{where}: sources must map columns to coefficients")
    if target in sources:
        raise ConfigError(f"{where}: derivation target cannot be its own source")
    constant = _check.number(doc.get("constant", 0.0), f"{where}: constant")
    return DerivationRule(target=target, sources=sources, constant=constant)


def _parse_rules(docs: Any, where: str) -> tuple[Rule, ...]:
    rules = tuple(
        _parse_rule(d, f"{where}[{i}]") for i, d in enumerate(_check.items(docs, where))
    )
    _check_derivation_cycles(rules, where)
    return rules


def _check_derivation_cycles(rules: Sequence[Rule], where: str) -> None:
    derivs = [r for r in rules if isinstance(r, DerivationRule)]
    targets = [r.target for r in derivs]
    if len(set(targets)) != len(targets):
        raise ConfigError(f"{where}: multiple derivations for one target")
    deps = {r.target: [s for s in r.sources if s in set(targets)] for r in derivs}
    try:
        toposort_ids(list(deps), deps)
    except CycleDetected:
        raise ConfigError(f"{where}: derivation rules form a cycle") from None


def _parse_asd(mp: Any, n_out: int) -> AsdParams:
    _check.obj(
        mp, "asd params", {"column_models", "rules", "max_attempts_per_row"}, required={"column_models"}
    )
    models_doc = _check.obj(mp["column_models"], "asd params: column_models")
    if not models_doc:
        raise ConfigError("asd params: column_models must be a non-empty object")
    models = {name: _parse_column_model(name, doc) for name, doc in models_doc.items()}
    rules = _parse_rules(mp.get("rules", []), "asd rules")
    cap = _check.integer(
        mp.get("max_attempts_per_row", DEFAULT_MAX_ATTEMPTS),
        "asd params: max_attempts_per_row",
        minimum=1,
    )
    for r in rules:
        if isinstance(r, DerivationRule) and r.target in models:
            raise ConfigError(
                f"asd params: column {r.target!r} is both modeled and derived"
            )
    return AsdParams(column_models=models, rules=rules, max_attempts_per_row=cap)


# noise distribution -> (its one field, spec class)
_NOISE = {"normal": ("std", NormalNoise), "uniform": ("half_width", UniformNoise)}


def _parse_noise(doc: Any, where: str) -> NoiseSpec:
    dist = _check.choice(_check.obj(doc, where).get("distribution"), f"{where}: distribution", _NOISE)
    key, cls = _NOISE[dist]
    _check.obj(doc, where, {"distribution", key}, required={key})
    value = _check.number(doc[key], f"{where}: {key}")
    if value < 0:
        raise ConfigError(f"{where}: {key} must be >= 0")
    return cls(value)


def _parse_csd(mp: Any, n_out: int) -> CsdParams:
    _check.obj(mp, "csd params", {"causal_dag", "weights", "noise", "intercepts"}, required={"noise"})
    edges: list[tuple[str, str]] = []
    for i, e in enumerate(_check.items(mp.get("causal_dag", []), "csd params: causal_dag")):
        where = f"csd causal_dag[{i}]"
        _check.obj(e, where, {"from", "to"}, required={"from", "to"})
        u, v = _check.string(e["from"], f"{where}: from"), _check.string(e["to"], f"{where}: to")
        if u == v:
            raise ConfigError(f"{where}: self-edge on {u!r}")
        if (u, v) in edges:
            raise ConfigError(f"{where}: duplicate edge {u}->{v}")
        edges.append((u, v))

    weights = _check.numbers(mp.get("weights", []), "csd params: weights")
    if len(weights) != len(edges):
        raise ConfigError("csd params: weights must align with causal_dag edges")
    noise_doc = _check.obj(mp["noise"], "csd params: noise")
    if not noise_doc:
        raise ConfigError("csd params: noise must map every column to a noise spec")
    noise = {col: _parse_noise(nd, f"csd noise[{col!r}]") for col, nd in noise_doc.items()}
    intercepts = _check.number_map(mp.get("intercepts", {}), "csd params: intercepts")

    nodes = sorted({u for u, _ in edges} | {v for _, v in edges})
    deps = {n: [u for u, v in edges if v == n] for n in nodes}
    try:
        toposort_ids(nodes, deps)
    except CycleDetected:
        raise ConfigError("csd params: causal_dag has a cycle") from None
    return CsdParams(causal_dag=tuple(edges), weights=weights, noise=noise, intercepts=intercepts)


def _parse_hsd(mp: Any, n_out: int) -> HsdParams:
    _check.obj(
        mp, "hsd params", {"partition", "sub_configs", "post_rules"}, required={"partition", "sub_configs"}
    )
    groups = _check.items(mp["partition"], "hsd params: partition")
    if not groups:
        raise ConfigError("hsd params: partition must be a non-empty list of column groups")
    partition: list[tuple[str, ...]] = []
    seen: set[str] = set()
    for i, group in enumerate(groups):
        group = _check.strings(group, f"hsd partition[{i}]")
        overlap = seen & set(group)
        if overlap or len(set(group)) != len(group):
            raise ConfigError(
                f"hsd partition[{i}]: column assigned twice: {sorted(overlap) or list(group)}"
            )
        seen.update(group)
        partition.append(group)

    subs_doc = _check.items(mp["sub_configs"], "hsd params: sub_configs")
    if len(subs_doc) != len(partition):
        raise ConfigError("hsd params: sub_configs must align with partition")
    subs = []
    for i, sd in enumerate(subs_doc):
        try:
            sub = parse_generator_config(sd, nested=True)
        except ConfigError as e:
            raise ConfigError(f"hsd sub_configs[{i}]: {e}") from None
        if sub.n_out != n_out:
            raise ConfigError(
                f"hsd sub_configs[{i}]: n_out {sub.n_out} must equal the hybrid n_out {n_out}"
            )
        subs.append(sub)
    post = _parse_rules(mp.get("post_rules", []), "hsd post_rules")
    return HsdParams(partition=tuple(partition), sub_configs=tuple(subs), post_rules=post)


# --------------------------------------------------- schema-level validation ---

def _check_rules_against_schema(rules: Sequence[Rule], schema: Schema, where: str) -> None:
    for r in rules:
        if isinstance(r, ImplicationRule):
            for col, lab in ((r.if_column, r.if_category),):
                spec = _col(schema, col, where)
                if spec.kind is not ColumnKind.CATEGORICAL:
                    raise ConfigError(f"{where}: implication column {col!r} must be categorical")
                if lab not in spec.categories:
                    raise ConfigError(f"{where}: {lab!r} is not a category of {col!r}")
            spec = _col(schema, r.then_column, where)
            if spec.kind is not ColumnKind.CATEGORICAL:
                raise ConfigError(f"{where}: implication column {r.then_column!r} must be categorical")
            bad = set(r.then_categories) - set(spec.categories)
            if bad:
                raise ConfigError(f"{where}: {sorted(bad)} are not categories of {r.then_column!r}")
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

def _average_ranks(arr: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of their ranks: the values of
    scipy.stats.rankdata(arr, method="average"), bit for bit, since each is
    an integer or half-integer."""
    order = np.argsort(arr, kind="stable")
    ordered = arr[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], arr.size)  # one past each tie run's last rank
    ranks = np.empty(arr.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def _normal_scores(ds: Dataset) -> tuple[np.ndarray, list[int]]:
    """Map each column to standard-normal scores; returns an (n, d) matrix
    plus the indices of degenerate (constant) columns."""
    n = ds.n
    cols = []
    degenerate = []
    for j, (spec, arr) in enumerate(zip(ds.schema.columns, ds.columns)):
        if spec.kind is ColumnKind.CONTINUOUS:
            ranks = _average_ranks(arr)
            u = (ranks - 0.5) / n
        else:
            k = len(spec.categories)
            counts = np.bincount(arr, minlength=k).astype(np.float64)
            p = counts / n
            cum = np.concatenate([[0.0], np.cumsum(p)])
            u = cum[arr] + p[arr] / 2.0
        z = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
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

    z, degenerate = _normal_scores(real)
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
    u_syn = ndtr(z_syn)

    out_cols = []
    n = real.n
    grid = (np.arange(n) + 0.5) / n
    for j, (spec, arr) in enumerate(zip(real.schema.columns, real.columns)):
        u = u_syn[:, j]
        if spec.kind is ColumnKind.CONTINUOUS:
            ordered = np.sort(arr)
            vals = np.interp(u, grid, ordered)
            out_cols.append(np.clip(vals, ordered[0], ordered[-1]))
        else:
            k = len(spec.categories)
            counts = np.bincount(arr, minlength=k).astype(np.float64)
            cum = np.cumsum(counts / n)
            idx = np.searchsorted(cum, u, side="right")
            out_cols.append(np.clip(idx, 0, k - 1).astype(np.int64))
    return Dataset(real.schema, tuple(out_cols))


# ------------------------------------------------------------------ asd ---

def _sample_asd_batch(
    params: AsdParams, schema: Schema, size: int, gen: np.random.Generator
) -> dict[str, np.ndarray]:
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
            u = gen.random(size)
            cols[spec.name] = np.interp(u, model.quantiles, model.values)
        else:
            label_idx = np.array([spec.categories.index(l) for l in model.labels], dtype=np.int64)
            picks = gen.choice(len(model.labels), size=size, p=np.asarray(model.weights))
            cols[spec.name] = label_idx[picks]
    return cols


def _derivation_order(rules: Sequence[Rule]) -> list[DerivationRule]:
    derivs = {r.target: r for r in rules if isinstance(r, DerivationRule)}
    deps = {t: [s for s in r.sources if s in derivs] for t, r in derivs.items()}
    return [derivs[t] for t in toposort_ids(list(derivs), deps)]


def _apply_derivations(cols: dict[str, np.ndarray], order: Sequence[DerivationRule]) -> None:
    for rule in order:
        total = np.full_like(next(iter(cols.values())), rule.constant, dtype=np.float64)
        for src, coef in rule.sources.items():
            total = total + coef * cols[src]
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
            viol = (v < rule.low) | (v > rule.high)
        elif isinstance(rule, ImplicationRule):
            if_spec = schema.column(rule.if_column)
            then_spec = schema.column(rule.then_column)
            if_code = if_spec.categories.index(rule.if_category)
            ok_codes = np.array(
                [then_spec.categories.index(c) for c in rule.then_categories], dtype=np.int64
            )
            viol = (cols[rule.if_column] == if_code) & ~np.isin(cols[rule.then_column], ok_codes)
        else:
            counts.append(0)
            continue
        counts.append(int(viol.sum()))
        bad |= viol
    return bad, counts


def _most_violated(rules: Sequence[Rule], counts: Sequence[int]) -> str:
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
    still missing with draw(round, rows), applies the derivations, and keeps
    the rows no rule rejects. Past max_rounds rounds it raises
    RuleUnsatisfiable naming the most violated rule."""
    order = _derivation_order(rules)
    accepted: dict[str, list[np.ndarray]] = {name: [] for name in schema.names}
    remaining = n_out
    total_counts = [0] * len(rules)
    for round_ in range(max_rounds):
        cols = draw(round_, remaining)
        _apply_derivations(cols, order)
        bad, counts = _rule_violations(cols, rules, schema)
        total_counts = [a + b for a, b in zip(total_counts, counts)]
        keep = ~bad
        if keep.any():
            for name in schema.names:
                accepted[name].append(cols[name][keep])
            remaining -= int(keep.sum())
        if remaining <= 0:
            out = tuple(np.concatenate(accepted[name])[:n_out] for name in schema.names)
            return Dataset(schema, out)
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
            x = x + w * values[parent]
        values[name] = x + eps[name]
    return Dataset(schema, tuple(values[name] for name in schema.names))


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

    if not params.post_rules:
        cols = draw(0, n_out)
        return Dataset(schema, tuple(cols[name] for name in schema.names))
    return _reject(draw, params.post_rules, schema, n_out, DEFAULT_MAX_ATTEMPTS)


# -------------------------------------------------------------- dispatcher ---

class _Mode(NamedTuple):
    parse: Callable[[Any, int], Any]  # (mode_params document, n_out) -> params
    check: Callable[[Any, Schema], None]  # (params, schema); raises ConfigError
    generate: Callable[..., Dataset]  # (params, n_out, schema, real, rng) -> Dataset


_MODES = {
    "rsd": _Mode(_parse_rsd, lambda params, schema: None, generate_rsd),  # the real data's schema
    "asd": _Mode(_parse_asd, _check_asd_schema, generate_asd),
    "csd": _Mode(_parse_csd, _check_csd_schema, generate_csd),
    "hsd": _Mode(_parse_hsd, _check_hsd_schema, generate_hsd),
}


def check_schema(config: GeneratorConfig, schema: Schema) -> None:
    """Raise ConfigError unless the config's column models and rules fit the
    schema it generates in; `generate` runs this once, spec parsing runs it
    for an inline schema."""
    _MODES[config.mode].check(config.mode_params, schema)


def check_generate_inputs(config: GeneratorConfig, has_real: bool, has_schema: bool) -> None:
    """rsd (and hsd with an rsd part) needs a real dataset; asd/csd need a
    schema, taken from the real dataset when none is given."""
    needs_real = config.mode == "rsd" or (config.mode == "hsd" and config.mode_params.needs_real())
    if needs_real and not has_real:
        raise ConfigError(f"{config.mode} requires a real dataset")
    if not has_real and not has_schema:
        raise ConfigError(f"{config.mode} requires a schema or a real dataset")


def generate(
    config: GeneratorConfig,
    rng: RngStream,
    real: Dataset | None = None,
    schema: Schema | None = None,
) -> Dataset:
    """Run the generator a config describes; see check_generate_inputs."""
    check_generate_inputs(config, real is not None, schema is not None)
    if config.n_out < 1:
        raise ConfigError("n_out must be >= 1")
    effective = schema if schema is not None else real.schema
    check_schema(config, effective)
    return _MODES[config.mode].generate(config.mode_params, config.n_out, effective, real, rng)
