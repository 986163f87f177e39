"""Error taxonomy shared across the package."""

from __future__ import annotations


class SdgError(Exception):
    """Base class for all package errors."""


# ---------------------------------------------------------------- tabular ---

class SchemaError(SdgError):
    """Invalid schema or column definition."""


class HeaderMismatch(SdgError):
    """CSV header does not match the schema's column names in order."""


class CellTypeError(SdgError):
    """A cell could not be parsed for its column kind; column is None, and
    the message names the row alone, when the fault is the whole record's."""

    def __init__(self, row: int, column: str | None, detail: str):
        self.row = row
        self.column = column
        where = f"row {row}" if column is None else f"row {row}, column {column!r}"
        super().__init__(f"{where}: {detail}")


class UnknownCategory(SdgError):
    """A categorical cell holds a label the schema does not list."""

    def __init__(self, row: int, column: str, label: str):
        self.row = row
        self.column = column
        self.label = label
        super().__init__(f"row {row}, column {column!r}: unknown category {label!r}")


class MissingValue(SdgError):
    """A cell is empty and the missing policy is 'error'."""

    def __init__(self, row: int, column: str):
        self.row = row
        self.column = column
        super().__init__(f"row {row}, column {column!r}: missing value")


# ----------------------------------------------------------- pipeline spec ---

class SpecError(SdgError):
    """Base class for pipeline-spec validation findings."""


class SpecSyntaxError(SpecError):
    """Document is not well-formed JSON/UTF-8; carries position info."""


class UnknownField(SpecError):
    """Strict parsing rejected a field the format does not define."""


class DuplicateNodeId(SpecError):
    pass


class DanglingDependency(SpecError):
    pass


class CycleDetected(SpecError):
    def __init__(self, path: list[str]):
        self.path = list(path)
        super().__init__("cycle: " + " -> ".join(self.path))


class MissingReportNode(SpecError):
    pass


class InvalidSpec(SpecError):
    """Structural violation not covered by a more specific finding."""


# ------------------------------------------------------------------ engine ---

class NodeFailure(SdgError):
    """A pipeline node raised; descendants were skipped. `cause` is the
    node's traceback text; `manifest` is the run's manifest, written before
    the raise."""

    def __init__(self, node_id: str, cause: str, manifest):
        self.node_id = node_id
        self.cause = cause
        self.manifest = manifest
        super().__init__(f"node {node_id!r} failed: {cause}")


class RunDirNotEmpty(SdgError):
    """The output directory of a run already holds files: a run directory
    holds one run."""


class ManifestMissing(SdgError):
    pass


class ManifestInvalid(SdgError):
    """manifest.json is not a run manifest: bad JSON, or a field of the wrong
    type or value."""


# -------------------------------------------------------------- generators ---

class TooFewRows(SdgError):
    pass


class ConfigError(SdgError):
    """Generator or metric configuration invalid for the given schema."""


class RuleUnsatisfiable(SdgError):
    """Rejection sampling hit the per-row attempt cap."""

    def __init__(self, rule_description: str, attempts: int):
        self.rule_description = rule_description
        self.attempts = attempts
        super().__init__(
            f"rule unsatisfiable after {attempts} attempts per row; "
            f"most violated: {rule_description}"
        )


# -------------------------------------------------------------- evaluation ---

class SchemaMismatch(SdgError):
    pass


class NumericOverflow(SdgError):
    """A statistic a metric makes of a continuous column (its mean, spread or
    sum of squares), or of a pair of columns (their association), is not a
    finite double: the values lie too near the double range."""


class DegenerateNull(SdgError):
    """Null model has zero mean or spread; derived scores undefined."""


class DuplicateMetric(SdgError):
    pass


# ---------------------------------------------------------------- warnings ---

class SeparationWarning(UserWarning):
    """Propensity classes are perfectly separable; fit capped."""


class DegenerateMarginalWarning(UserWarning):
    """A generator marginal had no spread; the column is emitted constant."""
