"""Dynamic request batching for one served model.

The simulator's fast executor evaluates a batch of N samples in one
vectorized pass at far below N times the single-sample wall-clock
(``runtime.batch_gain`` in ``BENCHMARK.json``), but requests arrive one
at a time. A :class:`DynamicBatcher` closes that gap the way production
inference servers do: requests queue per model, a worker thread coalesces
whatever is waiting — up to ``max_batch_size`` requests or
``max_wait_ms`` of linger after the first one — and executes the
coalesced batch through :meth:`~repro.runtime.Executor.run_batch`.
Under load, batches fill and throughput approaches the vectorized
limit; a lone request pays at most the linger.

Batching never changes results: ``run_batch`` is byte-identical per
sample to N single runs, and modeled cycles are per-inference (DIANA
processes samples sequentially), so latency/energy accounting is
unaffected by how requests were coalesced.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..errors import ServingError, ServingTimeoutError
from ..numerics import cast_exact
from ..obs.metrics import get_registry
from ..obs.trace import trace_span

#: sentinel enqueued by :meth:`DynamicBatcher.stop`.
_STOP = object()


def normalize_feeds(compiled, feeds: Dict[str, np.ndarray],
                    name: Optional[str] = None) -> Dict[str, np.ndarray]:
    """Validate one single-sample request against a compiled model.

    Arrays without the leading batch dimension are accepted and
    reshaped to ``(1, ...)``; missing inputs, shape mismatches and
    values the input buffer's dtype cannot hold (out of range,
    fractional) raise :class:`ServingError`. Shared by the in-process
    batcher and the fleet workers so both front doors reject malformed
    requests the same way.
    """
    label = name or compiled.name
    normalized = {}
    for in_name in compiled.input_names:
        if in_name not in feeds:
            raise ServingError(f"{label}: missing input {in_name!r}",
                               code="S-INPUT")
        ttype = compiled.buffers[in_name].ttype
        arr = cast_exact(feeds[in_name], ttype.dtype.to_numpy())
        if arr is None:
            raise ServingError(
                f"{label}: input {in_name!r} values of dtype "
                f"{np.asarray(feeds[in_name]).dtype} do not fit "
                f"{ttype.dtype}", code="S-INPUT")
        expected = tuple(ttype.shape)
        if arr.shape == expected[1:]:
            arr = arr[None, ...]
        if arr.shape != (1,) + expected[1:]:
            raise ServingError(
                f"{label}: input {in_name!r} expected "
                f"{(1,) + expected[1:]}, got {arr.shape}", code="S-INPUT")
        normalized[in_name] = arr
    return normalized


class InferenceFuture:
    """Handle to one accepted request, the same type on both tiers.

    Settled exactly once — by a :class:`DynamicBatcher` worker or the
    :class:`~repro.serve.fleet.ServingFleet` pump — with the output
    array or a typed :class:`~repro.errors.ServingError`; a second
    settlement is a bug and asserts. ``add_done_callback`` callbacks
    run on the settling thread (or immediately if already done); they
    power the fleet's asyncio bridge.
    """

    def __init__(self, model: str):
        self._event = threading.Event()
        self._output: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None
        self._callbacks: List[Callable[["InferenceFuture"], None]] = []
        self._cb_lock = threading.Lock()
        self._t_create = time.monotonic()
        #: model key / deployment this request was admitted for
        self.model = model
        #: client-visible request identifier (``<model>#<seq>``); the
        #: same id appears in error messages, trace spans, and
        #: loadgen's per-code ledger
        self.request_id = ""
        #: wall seconds from admission to settlement
        self.wall_s: Optional[float] = None
        #: modeled cycles of the inference (input-independent)
        self.cycles: Optional[float] = None
        #: executions consumed (>1 means the fleet retried the request)
        self.attempts = 0
        #: size of the batch the request executed in (1 on the fleet)
        self.batch_size: Optional[int] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block until settled; re-raises the serving-side error.

        A wait timeout raises :class:`~repro.errors.ServingTimeoutError`
        naming the model and the elapsed wall-clock; it does *not*
        cancel the request, which may still settle.
        """
        if not self._event.wait(timeout):
            elapsed = time.monotonic() - self._t_create
            raise ServingTimeoutError(
                f"inference timed out after {elapsed:.3f}s waiting on "
                f"{self.model}", model=self.model, elapsed_s=elapsed)
        if self._error is not None:
            raise self._error
        return self._output

    def add_done_callback(
            self, fn: Callable[["InferenceFuture"], None]) -> None:
        with self._cb_lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    def _settle(self, output: Optional[np.ndarray],
                error: Optional[BaseException]) -> None:
        with self._cb_lock:
            if self._event.is_set():
                raise AssertionError(
                    f"future for {self.model} resolved twice")
            self._output, self._error = output, error
            self.wall_s = time.monotonic() - self._t_create
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


@dataclass
class _Request:
    feeds: Dict[str, np.ndarray]
    future: InferenceFuture


@dataclass
class BatcherStats:
    """Running counters of one model's batcher (thread-safe snapshot
    via :meth:`DynamicBatcher.stats`)."""

    requests: int = 0
    batches: int = 0
    errors: int = 0
    wall_s_total: float = 0.0          #: sum of per-request wall latency
    wall_s_max: float = 0.0
    exec_s_total: float = 0.0          #: worker time inside run_batch
    cycles_per_inference: Optional[float] = None
    batch_size_counts: Dict[int, int] = field(default_factory=dict)

    @property
    def mean_batch_size(self) -> float:
        return self.requests / self.batches if self.batches else 0.0

    @property
    def mean_wall_ms(self) -> float:
        return 1e3 * self.wall_s_total / self.requests if self.requests \
            else 0.0


@dataclass
class DrainReport:
    """What happened to in-flight requests during a batcher drain.

    ``pending_at_stop`` requests were accepted but unresolved when
    :meth:`DynamicBatcher.stop` took effect; each then either
    ``drained`` (executed and resolved), ``failed`` (resolved with an
    error), or — only if the drain timed out — is still ``unresolved``.
    """

    pending_at_stop: int = 0
    drained: int = 0
    failed: int = 0
    unresolved: int = 0

    def __str__(self) -> str:
        return (f"{self.drained} drained, {self.failed} failed, "
                f"{self.unresolved} unresolved "
                f"(of {self.pending_at_stop} pending at stop)")


class DynamicBatcher:
    """Queue + worker thread coalescing requests for one compiled model.

    Args:
        compiled: the deployment to serve.
        executor: a :class:`~repro.runtime.Executor` bound to the
            artifact's SoC (``"fast"`` mode for throughput serving).
        max_batch_size: upper bound on coalesced batch size (>= 1).
        max_wait_ms: how long the worker lingers for companions after
            the first request of a batch arrives. ``0`` disables
            lingering — each batch is whatever is already queued.
    """

    def __init__(self, compiled, executor, max_batch_size: int = 8,
                 max_wait_ms: float = 2.0, name: Optional[str] = None):
        if max_batch_size < 1:
            raise ServingError(f"max_batch_size must be >= 1, "
                               f"got {max_batch_size}")
        self.compiled = compiled
        self.executor = executor
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self.name = name or compiled.name
        # SimpleQueue: C-implemented put/get, no task-tracking locks —
        # the queue is traversed twice per request on the serving path
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._rid_seq = itertools.count(1)
        self._stats = BatcherStats()
        self._stats_lock = threading.Lock()
        # serializes the stopping-flag check against the enqueue: a
        # submit that passed the check cannot land behind the _STOP
        # sentinel (it would be silently dropped and its future would
        # hang forever), and a post-stop submit always raises.
        self._submit_lock = threading.Lock()
        self._stopping = False
        self._pending = 0  #: submitted but not yet resolved requests
        self._pending_at_stop = 0  #: snapshot when stop() took effect
        self._drain_ok = 0         #: resolved OK after stop() began
        self._drain_err = 0        #: resolved with error after stop()
        self._thread = threading.Thread(
            target=self._loop, name=f"batcher-{self.name}", daemon=True)
        self._thread.start()

    # -- client side ---------------------------------------------------------

    def submit(self, feeds: Dict[str, np.ndarray]) -> InferenceFuture:
        """Enqueue one single-sample request (leading batch dim 1).

        Arrays without the batch dimension are accepted and reshaped.
        Raises :class:`ServingError` once :meth:`stop` has begun — the
        check and the enqueue are atomic w.r.t. the stop sentinel, so
        an accepted request is always ahead of it and gets drained.
        """
        rid = f"{self.name}#{next(self._rid_seq):06d}"
        try:
            normalized = normalize_feeds(self.compiled, feeds, self.name)
        except ServingError as exc:
            raise ServingError(f"{exc} [request {rid}]", code=exc.code,
                               request_id=rid) from None
        fut = InferenceFuture(self.name)
        fut.request_id = rid
        with self._submit_lock:
            if self._stopping:
                raise ServingError(
                    f"{self.name}: batcher is shut down [request {rid}]",
                    code="S-SHUTDOWN", request_id=rid)
            self._pending += 1
            self._queue.put(_Request(normalized, fut))
        return fut

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    @property
    def pending(self) -> int:
        """Requests accepted but not yet resolved (queued or in the
        batch currently executing) — the in-flight count the server's
        LRU eviction pins on."""
        with self._submit_lock:
            return self._pending

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` ran and the worker thread exited."""
        with self._submit_lock:
            return self._stopping and not self._thread.is_alive()

    def stats(self) -> BatcherStats:
        """A consistent copy of the running counters."""
        with self._stats_lock:
            snap = BatcherStats(**{
                f.name: getattr(self._stats, f.name)
                for f in self._stats.__dataclass_fields__.values()})
            snap.batch_size_counts = dict(self._stats.batch_size_counts)
        return snap

    def stop(self, wait: bool = True, timeout: float = 30.0) -> DrainReport:
        """Graceful shutdown: drain queued requests, then exit.

        New submissions are rejected immediately; requests already
        accepted are still executed (in maximal batches) before the
        worker exits, so every returned future resolves exactly once.
        Returns a :class:`DrainReport` saying how many of the requests
        pending at stop time drained cleanly vs. failed; with
        ``wait=False`` the report is a point-in-time snapshot (the
        worker keeps draining in the background and ``unresolved``
        counts the remainder).
        """
        with self._submit_lock:
            if not self._stopping:
                self._stopping = True
                self._pending_at_stop = self._pending
                self._queue.put(_STOP)
        if wait:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise ServingError(
                    f"{self.name}: batcher failed to drain within "
                    f"{timeout}s ({self.drain_report()})")
        return self.drain_report()

    def drain_report(self) -> DrainReport:
        """Snapshot of the drain bookkeeping (see :meth:`stop`).

        Invariant (all four fields move under the submit lock):
        ``pending_at_stop == drained + failed + unresolved``.
        """
        with self._submit_lock:
            return DrainReport(pending_at_stop=self._pending_at_stop,
                               drained=self._drain_ok,
                               failed=self._drain_err,
                               unresolved=self._pending)

    # -- worker side ---------------------------------------------------------

    def _loop(self):
        stop_seen = False
        while not stop_seen:
            head = self._queue.get()
            if head is _STOP:
                break
            batch = [head]
            deadline = time.monotonic() + self.max_wait_ms / 1e3
            while len(batch) < self.max_batch_size:
                remaining = deadline - time.monotonic()
                try:
                    nxt = (self._queue.get_nowait() if remaining <= 0
                           else self._queue.get(timeout=remaining))
                except queue.Empty:
                    break
                if nxt is _STOP:
                    stop_seen = True
                    break
                batch.append(nxt)
            self._run_batch(batch)
        # safety net: the submit lock guarantees nothing lands behind
        # the sentinel, but drain defensively anyway — a dropped
        # request would be a future that hangs forever
        leftovers: List[_Request] = []
        while True:
            try:
                req = self._queue.get_nowait()
            except queue.Empty:
                break
            if req is not _STOP:
                leftovers.append(req)
        for i in range(0, len(leftovers), self.max_batch_size):
            self._run_batch(leftovers[i:i + self.max_batch_size])

    def _run_batch(self, batch: List[_Request]):
        reg = get_registry()
        t0 = time.monotonic()
        try:
            feeds = {
                name: np.concatenate([r.feeds[name] for r in batch], axis=0)
                for name in self.compiled.input_names
            }
            with trace_span("batch.execute", category="serve",
                            model=self.name, batch_size=len(batch)):
                result = self.executor.run_batch(self.compiled, feeds)
        except BaseException as exc:  # resolve futures, keep serving
            with self._stats_lock:
                self._stats.errors += len(batch)
                self._stats.batches += 1
            reg.counter("batcher_errors_total", model=self.name).inc(
                len(batch))
            reg.counter("batcher_batches_total", model=self.name).inc()
            for r in batch:
                r.future._settle(None, exc)
            with self._submit_lock:
                self._pending -= len(batch)
                if self._stopping:
                    self._drain_err += len(batch)
            return
        t1 = time.monotonic()
        cycles = result.perf.total_cycles
        walls = [t1 - r.future._t_create for r in batch]
        with self._stats_lock:
            s = self._stats
            s.requests += len(batch)
            s.batches += 1
            s.exec_s_total += t1 - t0
            s.cycles_per_inference = cycles
            s.batch_size_counts[len(batch)] = \
                s.batch_size_counts.get(len(batch), 0) + 1
            s.wall_s_total += sum(walls)
            s.wall_s_max = max(s.wall_s_max, *walls)
        reg.counter("batcher_requests_total", model=self.name).inc(
            len(batch))
        reg.counter("batcher_batches_total", model=self.name).inc()
        hist = reg.histogram("batcher_wall_ms", model=self.name)
        for wall in walls:
            hist.observe(wall * 1e3)
        for i, r in enumerate(batch):
            r.future.cycles = cycles
            r.future.attempts = 1
            r.future.batch_size = len(batch)
            r.future._settle(result.outputs[i:i + 1], None)
        with self._submit_lock:
            self._pending -= len(batch)
            if self._stopping:
                self._drain_ok += len(batch)
