"""Metrics registry: counters, gauges, and bucketed latency histograms.

One process-wide default registry (:func:`get_registry`) federates the
runtime counters of every subsystem — the batcher, server, fleet,
circuit breakers, tiling cache, and native build cache — behind a
single snapshot schema (``repro-stats/1``):

* **counters** — monotonic totals, named Prometheus-style
  (``fleet_completed_total{deployment="resnet8"}``);
* **gauges** — last-written values;
* **histograms** — bucketed distributions with cumulative counts, from
  which any percentile (p50/p99/...) is derivable without storing
  samples;
* **events** — a bounded ring of discrete occurrences (circuit-breaker
  transitions, worker restarts, exec-mode fallbacks) with timestamps;
* **subsystems** — stats pulled from components that keep their own
  counters (:func:`merged_snapshot` collects the tiling cache and the
  native build cache so one call sees everything).

All instruments are thread-safe; publishing is a dict update under one
lock per instrument, cheap enough for per-request (not per-sample)
rates. Unlike tracing there is no off switch — the registry is always
on, and the serving paths only touch it at request granularity.
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "get_registry", "set_registry", "merged_snapshot",
    "DEFAULT_LATENCY_BUCKETS_MS",
]

#: default histogram bucket upper bounds, tuned for request latencies
#: in milliseconds (the +inf bucket is implicit).
DEFAULT_LATENCY_BUCKETS_MS = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1000.0, 2500.0, 5000.0,
)

_EVENT_RING_CAP = 512


def _metric_key(name: str, labels: Dict[str, str]) -> str:
    """Canonical instrument identity: ``name{k="v",...}`` with sorted
    labels (Prometheus exposition syntax, reused verbatim by the
    exporter)."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonic counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """Last-written value."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Bucketed distribution with cumulative-count semantics.

    ``bounds`` are upper bucket edges; an observation lands in the
    first bucket whose bound is ``>= value`` (Prometheus ``le``
    semantics — a value exactly on an edge counts into that edge's
    bucket). Values above the last bound land in the implicit ``+Inf``
    bucket. Percentiles interpolate linearly inside the chosen bucket,
    so p50/p99 are estimates with bucket-width resolution — enough for
    latency SLOs without retaining samples.
    """

    __slots__ = ("bounds", "_lock", "_counts", "_sum", "_count",
                 "_min", "_max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS):
        clean = tuple(float(b) for b in bounds)
        if not clean:
            raise ValueError("histogram needs at least one bucket bound")
        if list(clean) != sorted(clean) or len(set(clean)) != len(clean):
            raise ValueError(f"bucket bounds must be strictly increasing, "
                             f"got {clean}")
        self.bounds = clean
        self._lock = threading.Lock()
        self._counts = [0] * (len(clean) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        idx = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, q: float) -> float:
        """Estimated q-th percentile (q in [0, 100]); 0.0 when empty.

        Linear interpolation within the selected bucket; the +Inf
        bucket reports the largest observed value (the honest upper
        bound we know).
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = q / 100.0 * self._count
            cum = 0
            for i, n in enumerate(self._counts):
                prev_cum = cum
                cum += n
                if cum >= rank and n > 0:
                    if i == len(self.bounds):  # +Inf bucket
                        return float(self._max)
                    lo = self.bounds[i - 1] if i > 0 else min(
                        0.0, self._min if self._min is not None else 0.0)
                    hi = self.bounds[i]
                    frac = (rank - prev_cum) / n if n else 1.0
                    return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
            return float(self._max)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            cum = 0
            buckets = []
            for bound, n in zip(self.bounds, self._counts):
                cum += n
                buckets.append({"le": bound, "count": cum})
            buckets.append({"le": "+Inf", "count": self._count})
            snap = {
                "buckets": buckets,
                "count": self._count,
                "sum": round(self._sum, 6),
                "min": self._min,
                "max": self._max,
            }
        snap["p50"] = round(self.percentile(50), 6)
        snap["p95"] = round(self.percentile(95), 6)
        snap["p99"] = round(self.percentile(99), 6)
        return snap


class MetricsRegistry:
    """Get-or-create instrument store + event ring (thread-safe)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._events: List[Dict[str, Any]] = []
        self._event_seq = 0
        self._collectors: Dict[str, Callable[[], Dict[str, Any]]] = {}

    # -- instruments ---------------------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        key = _metric_key(name, labels)
        with self._lock:
            inst = self._counters.get(key)
            if inst is None:
                inst = self._counters[key] = Counter()
        return inst

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = _metric_key(name, labels)
        with self._lock:
            inst = self._gauges.get(key)
            if inst is None:
                inst = self._gauges[key] = Gauge()
        return inst

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
                  **labels: str) -> Histogram:
        key = _metric_key(name, labels)
        with self._lock:
            inst = self._histograms.get(key)
            if inst is None:
                inst = self._histograms[key] = Histogram(buckets)
        return inst

    # -- events --------------------------------------------------------------

    def event(self, name: str, **attrs: Any) -> Dict[str, Any]:
        """Record one discrete occurrence (bounded ring, newest kept)."""
        with self._lock:
            self._event_seq += 1
            ev = {"seq": self._event_seq, "t_ns": time.monotonic_ns(),
                  "name": name, **attrs}
            self._events.append(ev)
            if len(self._events) > _EVENT_RING_CAP:
                del self._events[:len(self._events) - _EVENT_RING_CAP]
        return ev

    def events(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        with self._lock:
            evs = list(self._events)
        if name is not None:
            evs = [e for e in evs if e["name"] == name]
        return evs

    # -- collectors ----------------------------------------------------------

    def register_collector(self, key: str,
                           fn: Callable[[], Dict[str, Any]]) -> None:
        """Attach a pull-style stats source, sampled at snapshot time
        (for components that keep their own counters)."""
        with self._lock:
            self._collectors[key] = fn

    # -- snapshot ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """One consistent-enough view of everything (``repro-stats/1``).

        Instruments are sampled individually — the snapshot is not a
        cross-instrument atomic cut, which monitoring never needs.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            events = list(self._events)
            collectors = dict(self._collectors)
        subsystems: Dict[str, Any] = {}
        for key, fn in sorted(collectors.items()):
            try:
                subsystems[key] = fn()
            except Exception as exc:  # noqa: BLE001 — a broken stats
                # source must never take the snapshot down with it
                subsystems[key] = {"error": f"{type(exc).__name__}: {exc}"}
        return {
            "schema": "repro-stats/1",
            "counters": {k: c.value for k, c in sorted(counters.items())},
            "gauges": {k: g.value for k, g in sorted(gauges.items())},
            "histograms": {k: h.snapshot()
                           for k, h in sorted(histograms.items())},
            "events": events,
            "subsystems": subsystems,
        }


# -- process-wide default -----------------------------------------------------

_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every subsystem publishes into."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (tests use this for isolation);
    returns the new one."""
    global _registry
    _registry = registry
    return _registry


def merged_snapshot(
        extra: Optional[Dict[str, Dict[str, Any]]] = None) -> Dict[str, Any]:
    """The federated ``repro-stats/1`` snapshot ``repro stats`` prints.

    On top of the registry's own instruments this pulls the subsystems
    that keep private counters — the process-wide tiling cache and the
    native build cache — and merges any caller-provided ``extra``
    sections (e.g. a live server's or fleet's ``stats()``).
    """
    snap = get_registry().snapshot()
    from ..codegen.build import build_stats
    from ..core.cache import get_default_cache

    cache = get_default_cache()
    snap["subsystems"].setdefault(
        "tiling_cache", cache.stats() if cache is not None else None)
    snap["subsystems"].setdefault("native_build", build_stats())
    if extra:
        snap["subsystems"].update(extra)
    return snap
