"""Offline synthetic-data-generation workflow engine.

Validates declarative pipeline specs, executes them as local DAGs with bounded
parallelism, generates synthetic tabular data (statistical, rule-based, causal,
hybrid), and evaluates the result with diagnostic, utility, and privacy metrics.
"""

__version__ = "0.1.0"

from .tabular import ColumnKind, ColumnSpec, Dataset, Schema
from .specs import PipelineSpec, parse_spec, spec_digest, topological_order

__all__ = [
    "__version__",
    "ColumnKind",
    "ColumnSpec",
    "Dataset",
    "Schema",
    "PipelineSpec",
    "parse_spec",
    "spec_digest",
    "topological_order",
]
