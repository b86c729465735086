"""Closed-loop load generation against either serving tier.

Drives an :class:`~repro.serve.server.InferenceServer` or a
:class:`~repro.serve.fleet.ServingFleet` — both take
``submit(key, feeds)`` and return the same
:class:`~repro.serve.batcher.InferenceFuture` — with N concurrent
client threads, each issuing requests back-to-back (closed loop: a
client waits for its response — or typed rejection — before sending
the next). Every outcome is accounted: the report distinguishes
completions from each rejection/failure class by its stable ``S-*``
code, so chaos benchmarks can assert *zero lost requests* — accepted
work either completed or failed with a typed serving error — and
``issued == completed + rejected + unavailable + timeouts + failed +
lost`` always holds. Each completed output is also digested, so a
caller can byte-check the responses against a reference.

Used by ``repro serve --requests N`` on both tiers and the
kill-a-worker scenario in ``benchmarks/bench_fleet.py``; see
``docs/RESILIENCE.md`` for the chaos matrix that scenario runs under.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set

import numpy as np

from ..errors import (
    ServingError, ServingOverloadError, ServingTimeoutError,
    ServingUnavailableError,
)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 on empty input."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def output_digest(output) -> str:
    """Short content hash of one response (dtype, shape and bytes)."""
    arr = np.ascontiguousarray(output)
    head = f"{arr.dtype.str}{arr.shape}".encode()
    return hashlib.sha256(head + arr.tobytes()).hexdigest()[:16]


@dataclass
class LoadReport:
    """Outcome of one load-generation run (all latencies in ms)."""

    clients: int = 0
    duration_s: float = 0.0
    issued: int = 0          #: submit attempts
    completed: int = 0       #: futures resolved with an output
    rejected: int = 0        #: fast-failed at admission (overload/shed)
    unavailable: int = 0     #: breaker open / terminal deployment
    timeouts: int = 0        #: deadline or wait timeouts
    failed: int = 0          #: other typed serving errors, at submit or result
    lost: int = 0            #: accepted but never resolved — must be 0
    errors_by_code: Dict[str, int] = field(default_factory=dict)
    #: first few client-visible request ids per error code (capped at
    #: :data:`LEDGER_CAP` each) — the handle for chasing one failure
    #: through logs and traces
    request_ids_by_code: Dict[str, List[str]] = field(default_factory=dict)
    latencies_ms: List[float] = field(default_factory=list)
    #: :func:`output_digest` of every completed response; one feeds
    #: dict per run, so a correct tier yields exactly one
    digests: Set[str] = field(default_factory=set)

    @property
    def accepted(self) -> int:
        return self.issued - self.rejected - self.unavailable

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.duration_s if self.duration_s else 0.0

    def latency_summary(self) -> Dict[str, float]:
        lat = self.latencies_ms
        return {
            "p50_ms": round(percentile(lat, 50), 3),
            "p95_ms": round(percentile(lat, 95), 3),
            "p99_ms": round(percentile(lat, 99), 3),
            "max_ms": round(max(lat), 3) if lat else 0.0,
            "mean_ms": round(sum(lat) / len(lat), 3) if lat else 0.0,
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "clients": self.clients,
            "duration_s": round(self.duration_s, 3),
            "issued": self.issued,
            "completed": self.completed,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "unavailable": self.unavailable,
            "timeouts": self.timeouts,
            "failed": self.failed,
            "lost": self.lost,
            "throughput_rps": round(self.throughput_rps, 2),
            "errors_by_code": dict(sorted(self.errors_by_code.items())),
            "request_ids_by_code": {
                k: list(v)
                for k, v in sorted(self.request_ids_by_code.items())},
            **self.latency_summary(),
        }


def run_load(tier, key: str, feeds: Dict[str, Any], *, clients: int = 4,
             requests_per_client: int = 25,
             deadline_s: Optional[float] = None,
             result_timeout_s: float = 60.0,
             think_time_s: float = 0.0,
             priority: int = 0,
             backoff_on_reject_s: float = 0.005) -> LoadReport:
    """Closed-loop load: ``clients`` threads x ``requests_per_client``.

    A rejected submit (overload / breaker open) is *counted*, not
    retried against the budget — each client still issues exactly
    ``requests_per_client`` attempts, so acceptance under pressure is
    visible in the report; any other serving error at submit (unknown
    key, malformed feeds, shut down) counts as ``failed``. ``lost``
    counts accepted requests whose future neither resolved nor failed
    within ``result_timeout_s``; both tiers' contract is that this is
    always zero.

    ``priority`` and ``deadline_s`` are fleet admission knobs, passed
    to ``submit`` only when set (the in-process tier has neither);
    ``deadline_s=None`` leaves the fleet's configured default.
    """
    report = LoadReport(clients=clients)
    lock = threading.Lock()
    admission: Dict[str, Any] = {}
    if priority:
        admission["priority"] = priority
    if deadline_s is not None:
        admission["deadline_s"] = deadline_s

    def _client(idx: int) -> None:
        for _ in range(requests_per_client):
            with lock:
                report.issued += 1
            t0 = time.monotonic()
            try:
                fut = tier.submit(key, feeds, **admission)
            except ServingOverloadError as exc:
                with lock:
                    report.rejected += 1
                    _count(report, exc)
                if exc.retry_after:
                    time.sleep(min(exc.retry_after, backoff_on_reject_s))
                continue
            except ServingUnavailableError as exc:
                with lock:
                    report.unavailable += 1
                    _count(report, exc)
                time.sleep(backoff_on_reject_s)
                continue
            except ServingError as exc:
                with lock:
                    report.failed += 1
                    _count(report, exc)
                continue
            try:
                out = fut.result(timeout=result_timeout_s)
                latency_ms = 1e3 * (time.monotonic() - t0)
                digest = output_digest(out)
                with lock:
                    report.completed += 1
                    report.latencies_ms.append(latency_ms)
                    report.digests.add(digest)
            except ServingTimeoutError as exc:
                with lock:
                    if fut.done():
                        report.timeouts += 1
                        _count(report, exc)
                    else:
                        # wait timeout with the future still pending:
                        # the request is unaccounted — a lost request
                        report.lost += 1
                        _ledger(report, "LOST", fut.request_id)
            except ServingError as exc:
                with lock:
                    report.failed += 1
                    _count(report, exc)
            if think_time_s:
                time.sleep(think_time_s)

    threads = [threading.Thread(target=_client, args=(i,), daemon=True)
               for i in range(clients)]
    t_start = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    report.duration_s = time.monotonic() - t_start
    return report


#: request ids kept per error code in the report's ledger.
LEDGER_CAP = 8


def _count(report: LoadReport, exc: ServingError) -> None:
    code = getattr(exc, "code", "S-GENERIC")
    report.errors_by_code[code] = report.errors_by_code.get(code, 0) + 1
    _ledger(report, code, getattr(exc, "request_id", None))


def _ledger(report: LoadReport, code: str,
            request_id: Optional[str]) -> None:
    if not request_id:
        return
    ids = report.request_ids_by_code.setdefault(code, [])
    if len(ids) < LEDGER_CAP:
        ids.append(request_id)


def format_load_report(report: LoadReport) -> str:
    """One-paragraph human summary for the CLI."""
    lat = report.latency_summary()
    lines = [
        f"clients={report.clients} issued={report.issued} "
        f"completed={report.completed} rejected={report.rejected} "
        f"unavailable={report.unavailable} timeouts={report.timeouts} "
        f"failed={report.failed} lost={report.lost}",
        f"throughput={report.throughput_rps:.1f} req/s over "
        f"{report.duration_s:.2f}s",
        f"latency p50={lat['p50_ms']:.1f}ms p95={lat['p95_ms']:.1f}ms "
        f"p99={lat['p99_ms']:.1f}ms max={lat['max_ms']:.1f}ms",
    ]
    if report.errors_by_code:
        pairs = ", ".join(f"{k}={v}" for k, v in
                          sorted(report.errors_by_code.items()))
        lines.append(f"error codes: {pairs}")
    for code, ids in sorted(report.request_ids_by_code.items()):
        shown = ", ".join(ids[:4])
        more = f" (+{len(ids) - 4} more)" if len(ids) > 4 else ""
        lines.append(f"  {code}: {shown}{more}")
    return "\n".join(lines)
