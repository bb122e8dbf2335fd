"""Unified observability: metrics registry + span tracer.

See :mod:`repro.obs.metrics` for the registry (counters, gauges,
fixed-bucket histograms, Prometheus/JSON exposition) and
:mod:`repro.obs.trace` for span trees with cross-thread propagation.
"""

from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    CounterSet,
    Gauge,
    Histogram,
    MetricsRegistry,
    Sample,
    get_registry,
    set_registry,
)
from .trace import (
    NOOP_SPAN,
    Span,
    Tracer,
    current_span,
    get_tracer,
    set_tracer,
    span,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "CounterSet",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "Sample",
    "Span",
    "Tracer",
    "current_span",
    "get_registry",
    "get_tracer",
    "set_registry",
    "set_tracer",
    "span",
]
