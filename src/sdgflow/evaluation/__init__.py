from .diagnostic import DIAGNOSTIC_METRICS
from .privacy import PRIVACY_METRICS
from .results import Direction, MetricResult
from .utility import UTILITY_METRICS

__all__ = [
    "Direction",
    "MetricResult",
    "DIAGNOSTIC_METRICS",
    "PRIVACY_METRICS",
    "UTILITY_METRICS",
]
