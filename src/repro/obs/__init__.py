"""Observability: tracing, metrics, exporters.

One small layer federating what PRs 1-8 left fragmented:

* :mod:`repro.obs.trace` — span tracer with explicit trace/span IDs
  that propagate across the fleet's worker pipes (off by default,
  near-zero cost when off);
* :mod:`repro.obs.metrics` — process-wide registry of counters /
  gauges / latency histograms plus a bounded event ring, federated
  with the tiling-cache and native-build stats behind the
  ``repro-stats/1`` snapshot schema;
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto) and
  Prometheus text exposition.

Traced ``exec.step`` spans feed the measured columns of the per-layer
report (:mod:`repro.eval.layer_report`).

CLI surface: ``repro trace``, ``repro stats``, ``repro serve
--metrics``. See ``docs/OBSERVABILITY.md``.
"""

from .export import to_chrome_trace, to_prometheus, write_chrome_trace
from .metrics import (
    Counter, Gauge, Histogram, MetricsRegistry, get_registry,
    merged_snapshot, set_registry,
)
from .trace import (
    Span, TraceContext, Tracer, collect, disable_tracing, enable_tracing,
    get_tracer, now_ns, trace_span,
)

__all__ = [
    "Span", "TraceContext", "Tracer",
    "collect", "disable_tracing", "enable_tracing", "get_tracer",
    "now_ns", "trace_span",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "get_registry", "set_registry", "merged_snapshot",
    "to_chrome_trace", "write_chrome_trace", "to_prometheus",
]
