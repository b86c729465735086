"""Fault-tolerant multi-process serving: :class:`ServingFleet`.

The in-process :class:`~repro.serve.server.InferenceServer` coalesces
requests into batches but lives or dies as one process: a wedged or
crashed execution takes every hosted model down with it. The fleet is
the deployment-grade front door built robustness-first:

* **supervised worker pool** — each deployment is served by N worker
  *processes*; workers receive only the artifact *path* and load the
  ``.dna`` themselves via ``load_artifact(verify=True)``, so a corrupt
  file is caught by the integrity gate inside the expendable worker,
  never the front door. A supervisor restarts dead workers with
  crash-loop backoff and kills workers that hang past a deadline.
* **admission control** — accepted work is bounded per deployment:
  beyond ``queue_limit`` the submit fast-fails with
  :class:`~repro.errors.ServingOverloadError` carrying a
  ``retry_after`` hint, and above ``shed_watermark`` low-priority
  requests are shed first (graceful degradation). An accepted request
  is never silently dropped: every future resolves or fails with a
  typed serving error, including across worker crashes and shutdown.
* **deadlines** — per-request deadlines propagate to workers (the
  remaining budget rides along with the request); overdue queued
  requests are expired cheaply in the front door, and a worker still
  holding a request past its deadline is declared hung and replaced.
* **retries** — a request whose worker died is retried with
  exponential backoff + jitter while its deadline and attempt budget
  allow (:class:`~repro.serve.resilience.RetryPolicy`).
* **circuit breaker** — per deployment
  (:class:`~repro.serve.resilience.CircuitBreaker`): repeated failures
  trip it open and admission fast-fails with
  :class:`~repro.errors.ServingUnavailableError` until a half-open
  probe succeeds.
* **OOM fallback** — repeated out-of-memory worker deaths optionally
  restart the deployment's workers in an exec mode with a smaller
  working set (``fallback_exec_mode``, e.g. ``"tiled"``).

Control is deliberately single-threaded: one *pump* thread owns all
worker I/O, health checks, retries and dispatch; client threads only
touch the admission path under one lock. The asyncio front door
(:meth:`ServingFleet.asubmit` / :meth:`ServingFleet.ainfer`) bridges
the pump-resolved futures onto an event loop, so ``await
fleet.ainfer(...)`` composes with any async application.

Every failure mode above is injectable via
:class:`~repro.serve.faults.FaultPlan` and asserted in
``tests/test_fleet_resilience.py``; see ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import heapq
import itertools
import os
import random
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import wait as _mp_wait
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import (
    OutOfMemoryError, ServingError, ServingExecutionError,
    ServingOverloadError, ServingTimeoutError, ServingUnavailableError,
    WorkerCrashError,
)
from ..obs.metrics import get_registry
from ..obs.trace import Span, collect, get_tracer
from .batcher import InferenceFuture
from .faults import FaultInjector, FaultPlan
from .resilience import CircuitBreaker, CrashLoopBackoff, RetryPolicy

__all__ = ["FleetConfig", "ServingFleet"]

#: exit code a worker uses to report an out-of-memory death.
OOM_EXIT_CODE = 42

#: worker replies that blame the request, not the worker's health.
CLIENT_ERROR_CODES = frozenset({"S-INPUT"})
#: above ``FleetConfig.shed_watermark``, requests with a priority below
#: this are shed.
SHED_PRIORITY_FLOOR = 0


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------

def _worker_main(conn, key: str, worker_index: int, gen: int,
                 artifact_path: str, exec_mode: str,
                 plan: Optional[FaultPlan]) -> None:
    """Entry point of one fleet worker process.

    Loads the deployment once from ``artifact_path`` (the integrity
    gate runs here, inside the expendable process), then serves
    single-sample requests off its pipe until told to stop or the
    parent disappears. All injected faults fire from here; ``os._exit``
    models a hard crash (no cleanup, like a segfault or OOM kill).
    """
    faults = (plan.for_worker(key, worker_index, gen) if plan is not None
              else FaultInjector.none())
    rule = faults.fires("slow_start")
    if rule is not None:
        time.sleep(rule.param if rule.param is not None else 1.0)
    if faults.fires("crash_start") is not None:
        os._exit(3)
    degraded: Optional[str] = None
    try:
        from ..runtime import Executor
        from .artifact import load_artifact
        art = load_artifact(artifact_path, verify=True)
        effective_mode = exec_mode
        if exec_mode == "native":
            # build-or-load the cached shared library next to the .dna
            # at deployment time, so "ready" implies the warm path; a
            # worker without a toolchain (or with a failing build)
            # degrades to the bit-identical fast interpreter and says so
            from ..codegen.build import (
                find_c_compiler, load_native_module, native_cache_dir,
            )
            cache = native_cache_dir(artifact_path)
            if find_c_compiler() is None:
                effective_mode = "fast"
                degraded = "no C toolchain on worker host"
            elif load_native_module(art.model, cache) is None:
                effective_mode = "fast"
                degraded = "native library build failed"
        executor = Executor(art.soc, exec_mode=effective_mode,
                            native_cache_dir=(
                                cache if exec_mode == "native" else None))
    except BaseException as exc:  # noqa: B036, BLE001 — reported, then exit
        try:
            conn.send(("load_error",
                       f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass
        os._exit(1)
    from .batcher import normalize_feeds

    if degraded is not None:
        conn.send(("degraded", "S-NATIVE",
                   f"{degraded}; serving via exec_mode='fast'"))
    conn.send(("ready", effective_mode))
    n_requests = 0
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # parent went away
            return
        kind = msg[0]
        if kind == "stop":
            return
        if kind == "ping":
            conn.send(("pong", msg[1]))
            continue
        if kind != "req":
            continue
        # ctx is the front door's TraceContext (or None when tracing
        # is off): the worker parents its execution spans under it and
        # ships them back in the reply, so one request id stitches
        # admission, queue wait, and in-worker execution into one tree
        _, req_id, feeds, budget_s, ctx = msg
        n_requests += 1
        if faults.fires("oom_crash") is not None:
            os._exit(OOM_EXIT_CODE)
        if faults.fires("crash") is not None:
            os._exit(9)
        rule = faults.fires("hang")
        if rule is not None:
            time.sleep(rule.param if rule.param is not None else 60.0)
        if budget_s is not None and budget_s <= 0:
            conn.send(("err", req_id, "S-TIMEOUT",
                       "deadline expired before execution", []))
            continue
        spans: list = []
        try:
            if faults.fires("exec_error") is not None:
                raise ServingExecutionError("injected execution fault",
                                            model=key)
            if ctx is None:
                normalized = normalize_feeds(art.model, feeds, name=key)
                t0 = time.monotonic()
                result = executor.run(art.model, normalized)
                exec_s = time.monotonic() - t0
            else:
                # fresh per-request tracer: the executor's per-step
                # spans land here, parented under the caller's context
                with collect(ctx) as wtracer:
                    try:
                        with wtracer.span(
                                "worker.execute", category="serve",
                                request_id=ctx.request_id,
                                deployment=key, worker=worker_index,
                                gen=gen, exec_mode=executor.exec_mode):
                            normalized = normalize_feeds(art.model, feeds,
                                                         name=key)
                            t0 = time.monotonic()
                            result = executor.run(art.model, normalized)
                            exec_s = time.monotonic() - t0
                    finally:
                        spans = wtracer.drain()
            conn.send(("ok", req_id, result.output,
                       float(result.perf.total_cycles), exec_s, spans))
        except (MemoryError, OutOfMemoryError) as exc:
            # report, then die the OOM death so the supervisor can
            # count it toward the exec-mode fallback
            try:
                conn.send(("err", req_id, "S-OOM",
                           f"{type(exc).__name__}: {exc}", spans))
            finally:
                os._exit(OOM_EXIT_CODE)
        except BaseException as exc:  # noqa: B036, BLE001 — typed to parent
            code = getattr(exc, "code", None) or "S-EXEC"
            conn.send(("err", req_id, code,
                       f"{type(exc).__name__}: {exc}", spans))


# ---------------------------------------------------------------------------
# front-door data types
# ---------------------------------------------------------------------------

@dataclass
class FleetConfig:
    """Knobs of the serving fleet (one shared config, per-deployment
    state). See ``docs/RESILIENCE.md`` for how the robustness
    parameters interact."""

    workers: int = 2                 #: worker processes per deployment
    exec_mode: str = "fast"          #: executor mode workers start in
    queue_limit: int = 64            #: hard admission bound (per deployment)
    shed_watermark: Optional[int] = None  #: default queue_limit // 2
    default_deadline_s: Optional[float] = 30.0
    hang_grace_s: float = 0.25       #: past deadline before a kill
    hang_timeout_s: Optional[float] = None  #: absolute in-flight cap
    tick_s: float = 0.02             #: pump wakeup period
    worker_start_timeout_s: float = 60.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_failures: int = 5
    breaker_recovery_s: float = 1.0
    restart_base_s: float = 0.05     #: crash-loop backoff base
    max_restarts: Optional[int] = None   #: per worker slot; None = unbounded
    oom_fallback_after: int = 2      #: OOM deaths before exec-mode fallback
    fallback_exec_mode: Optional[str] = None  #: e.g. "tiled"
    faults: Optional[FaultPlan] = None

    def __post_init__(self):
        if self.workers < 0:
            raise ServingError(f"workers must be >= 0, got {self.workers}")
        if self.queue_limit < 1:
            raise ServingError(
                f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.shed_watermark is None:
            self.shed_watermark = max(self.queue_limit // 2, 1)


@dataclass
class _Request:
    req_id: int
    request_id: str              #: client-visible "<deployment>#<seq>"
    feeds: Dict[str, Any]
    future: InferenceFuture
    priority: int
    deadline: Optional[float]    #: absolute time.monotonic()
    t_submit: float
    attempts: int = 0
    #: root span (tracing enabled only); its context crosses the pipe
    span: Optional[Span] = None


#: one terminal outcome queued by ``ServingFleet._finish``
_Settled = Tuple[_Request, Optional[np.ndarray], Optional[ServingError]]


class _WorkerHandle:
    """Parent-side state of one worker slot (survives restarts)."""

    __slots__ = ("index", "gen", "proc", "conn", "state", "inflight",
                 "dispatched_at", "spawned_at", "restarts", "backoff",
                 "next_start_at", "exec_mode")

    def __init__(self, index: int, backoff: CrashLoopBackoff):
        self.index = index
        self.gen = -1            #: restart generation (0 = first start)
        self.proc = None
        self.conn = None
        self.state = "down"      #: down|starting|ready|busy|dead|failed_load
        self.exec_mode: Optional[str] = None  #: mode reported at "ready"
        self.inflight: Optional[_Request] = None
        self.dispatched_at = 0.0
        self.spawned_at = 0.0
        self.restarts = 0        #: completed restarts (first start excluded)
        self.backoff = backoff
        self.next_start_at = 0.0


class _Deployment:
    """Parent-side state of one served artifact."""

    def __init__(self, key: str, path: str, cfg: FleetConfig,
                 n_workers: int):
        self.key = key
        self.path = path
        self.exec_mode = cfg.exec_mode
        self.workers = [
            _WorkerHandle(i, CrashLoopBackoff(base_s=cfg.restart_base_s))
            for i in range(n_workers)]
        self.breaker = CircuitBreaker(
            failure_threshold=cfg.breaker_failures,
            recovery_s=cfg.breaker_recovery_s, name=key,
            on_transition=self._on_breaker_transition)
        self.pending: List[Tuple[int, int, _Request]] = []  # (-prio, seq, r)
        self.delayed: List[Tuple[float, _Request]] = []     # (due, r)
        self.seq = itertools.count()
        self.admitted = 0        #: accepted and not yet resolved
        self.failed: Optional[str] = None  #: terminal (artifact) failure
        self.oom_deaths = 0
        self.ema_exec_s = 0.05   #: service-time estimate for retry_after
        self.admission_faults: Optional[FaultInjector] = (
            cfg.faults.for_admission(key) if cfg.faults is not None else None)
        self.counters: Dict[str, int] = {
            "accepted": 0, "completed": 0, "failed": 0, "retried": 0,
            "rejected": 0, "shed": 0, "expired": 0, "timeouts": 0,
            "restarts": 0, "fallbacks": 0, "degraded": 0,
        }

    def bump(self, name: str, n: int = 1) -> None:
        """Increment a local counter and its metrics-registry twin
        (``fleet_<name>_total{deployment=...}``), so ``repro stats``
        and a Prometheus scrape see the same numbers as
        :meth:`ServingFleet.stats`."""
        self.counters[name] += n
        get_registry().counter(f"fleet_{name}_total",
                               deployment=self.key).inc(n)

    def _on_breaker_transition(self, frm: str, to: str) -> None:
        # fires under the breaker lock — publish and return, no
        # re-entry into the breaker
        reg = get_registry()
        reg.counter("fleet_breaker_transitions_total",
                    deployment=self.key).inc()
        reg.event("breaker_transition", deployment=self.key,
                  frm=frm, to=to)


def _tag(error: ServingError, request_id: str) -> ServingError:
    """Stamp the client-visible request id onto a serving error."""
    error.request_id = request_id
    return error


# ---------------------------------------------------------------------------
# the fleet
# ---------------------------------------------------------------------------

class ServingFleet:
    """Supervised multi-process serving front door.

    Usable as a context manager; entering starts the pump and worker
    pool, exiting drains and stops everything::

        with ServingFleet(workers=2) as fleet:
            key = fleet.add_deployment("resnet8.dna", key="resnet8")
            out = fleet.infer(key, feeds, timeout=30)

    Async front door::

        async def handler(feeds):
            return await fleet.ainfer("resnet8", feeds)

    Thread-safe: any thread may submit; one internal pump thread owns
    all worker I/O and supervision.
    """

    def __init__(self, config: Optional[FleetConfig] = None, **overrides):
        if config is None:
            config = FleetConfig(**overrides)
        elif overrides:
            raise ServingError("pass either a FleetConfig or keyword "
                               "overrides, not both")
        self.config = config
        self._ctx = get_context("fork")
        self._lock = threading.RLock()
        self._deployments: Dict[str, _Deployment] = {}
        self._req_seq = itertools.count(1)
        self._rng = random.Random(0)  # seeded: tests replay the jitter
        self._started = False
        self._shutdown = False
        self._pump_stop = threading.Event()
        self._pump_thread: Optional[threading.Thread] = None
        # self-pipe waker: submits nudge the pump out of its mp_wait
        self._waker_r, self._waker_w = os.pipe()
        os.set_blocking(self._waker_r, False)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServingFleet":
        with self._lock:
            if self._shutdown:
                raise ServingError("fleet is shut down", code="S-SHUTDOWN")
            if self._started:
                return self
            self._started = True
            self._pump_thread = threading.Thread(
                target=self._pump, name="fleet-pump", daemon=True)
            self._pump_thread.start()
        self._wake()
        return self

    def __enter__(self) -> "ServingFleet":
        return self.start()

    def __exit__(self, *exc_info):
        self.shutdown(wait=True)
        return False

    def add_deployment(self, artifact_path: str, key: Optional[str] = None,
                       workers: Optional[int] = None) -> str:
        """Register one packed ``.dna`` for serving; returns its key.

        Only the *path* is recorded here — each worker process loads
        (and integrity-verifies) the artifact itself, so the front door
        never holds model weights and a corrupt file degrades exactly
        one deployment.
        """
        if key is None:
            key = os.path.basename(artifact_path)
            key = key[:-4] if key.endswith(".dna") else key
        with self._lock:
            if self._shutdown:
                raise ServingError("fleet is shut down", code="S-SHUTDOWN")
            if key in self._deployments:
                raise ServingError(f"deployment {key!r} already registered")
            n = self.config.workers if workers is None else workers
            self._deployments[key] = _Deployment(
                key, artifact_path, self.config, n)
        self._wake()
        return key

    def wait_ready(self, key: str, timeout: float = 30.0) -> bool:
        """Block until ``key`` has a ready worker (True) or failed
        terminally / timed out (False). Purely a convenience — submits
        queue fine before workers finish loading."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                dep = self._deployments.get(key)
                if dep is None:
                    raise ServingError(f"unknown deployment {key!r}")
                if dep.failed is not None:
                    return False
                if any(w.state in ("ready", "busy") for w in dep.workers):
                    return True
            time.sleep(0.01)
        return False

    # -- admission (client side) --------------------------------------------

    def submit(self, key: str, feeds: Dict[str, Any], *, priority: int = 0,
               deadline_s: Optional[float] = -1.0) -> InferenceFuture:
        """Admit one request; returns an
        :class:`~repro.serve.batcher.InferenceFuture`.

        ``deadline_s`` is the request's end-to-end budget (default: the
        config's ``default_deadline_s``; pass ``None`` for no
        deadline). Raises typed serving errors instead of queueing
        unboundedly — see the module docstring.
        """
        cfg = self.config
        now = time.monotonic()
        with self._lock:
            if self._shutdown:
                raise ServingError("fleet is shut down", code="S-SHUTDOWN")
            if not self._started:
                raise ServingError("fleet is not started (call start() or "
                                   "use it as a context manager)")
            dep = self._deployments.get(key)
            if dep is None:
                raise ServingError(
                    f"unknown deployment {key!r}; registered: "
                    f"{sorted(self._deployments) or 'none'}")
            # the id is minted before admission checks so even a
            # rejected request is traceable by its client-visible id
            req_id = next(self._req_seq)
            rid = f"{dep.key}#{req_id:06d}"
            if dep.failed is not None:
                raise _tag(ServingUnavailableError(
                    f"{key}: deployment failed terminally: {dep.failed} "
                    f"[request {rid}]", model=key, terminal=True), rid)
            if dep.admission_faults is not None \
                    and dep.admission_faults.fires("queue_full") is not None:
                dep.bump("rejected")
                raise _tag(ServingOverloadError(
                    f"{key}: queue full (injected fault) [request {rid}]",
                    retry_after=self._retry_after_hint(dep), model=key), rid)
            if dep.breaker.blocked():
                raise _tag(ServingUnavailableError(
                    f"{key}: circuit breaker open [request {rid}]",
                    retry_after=dep.breaker.retry_after(), model=key), rid)
            if dep.admitted >= cfg.queue_limit:
                dep.bump("rejected")
                raise _tag(ServingOverloadError(
                    f"{key}: queue depth {dep.admitted} at limit "
                    f"{cfg.queue_limit} [request {rid}]",
                    retry_after=self._retry_after_hint(dep), model=key), rid)
            if (dep.admitted >= cfg.shed_watermark
                    and priority < SHED_PRIORITY_FLOOR):
                dep.bump("shed")
                raise _tag(ServingOverloadError(
                    f"{key}: shedding priority {priority} request at "
                    f"depth {dep.admitted} (watermark "
                    f"{cfg.shed_watermark}) [request {rid}]",
                    retry_after=self._retry_after_hint(dep), model=key,
                    shed=True), rid)
            if deadline_s == -1.0:
                deadline_s = cfg.default_deadline_s
            fut = InferenceFuture(dep.key)
            fut.request_id = rid
            span = None
            tracer = get_tracer()
            if tracer is not None:
                # root of the request's tree; finished by the pump when
                # the future settles (possibly on another thread, hence
                # begin() rather than the stacking context manager)
                span = tracer.begin(
                    "fleet.request", category="serve", request_id=rid,
                    deployment=dep.key, priority=priority)
            req = _Request(
                req_id=req_id, request_id=rid, feeds=feeds,
                future=fut, priority=priority,
                deadline=None if deadline_s is None else now + deadline_s,
                t_submit=now, span=span)
            dep.admitted += 1
            dep.bump("accepted")
            heapq.heappush(dep.pending, (-priority, next(dep.seq), req))
        self._wake()
        return fut

    def infer(self, key: str, feeds: Dict[str, Any],
              timeout: Optional[float] = 60.0, **kw) -> np.ndarray:
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(key, feeds, **kw).result(timeout)

    async def asubmit(self, key: str, feeds: Dict[str, Any], **kw):
        """Asyncio front door: admit and await resolution.

        Returns the asyncio future's result; typed serving errors
        propagate as exceptions. Admission errors (overload, breaker
        open) raise immediately without suspending.
        """
        import asyncio

        loop = asyncio.get_running_loop()
        afut = loop.create_future()
        fut = self.submit(key, feeds, **kw)

        def _bridge(f: InferenceFuture):
            def _apply():
                if afut.cancelled():
                    return
                if f._error is not None:
                    afut.set_exception(f._error)
                else:
                    afut.set_result(f._output)
            loop.call_soon_threadsafe(_apply)

        fut.add_done_callback(_bridge)
        return await afut

    async def ainfer(self, key: str, feeds: Dict[str, Any],
                     **kw) -> np.ndarray:
        return await self.asubmit(key, feeds, **kw)

    def _retry_after_hint(self, dep: _Deployment) -> float:
        """Backpressure hint: current depth over estimated drain rate."""
        alive = sum(1 for w in dep.workers
                    if w.state in ("ready", "busy", "starting")) or 1
        return round(max(dep.admitted, 1) * dep.ema_exec_s / alive + 0.01, 3)

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-deployment serving/robustness counters (see tests)."""
        with self._lock:
            out: Dict[str, Dict[str, Any]] = {}
            for key, dep in self._deployments.items():
                out[key] = {
                    **dep.counters,
                    "queue_depth": len(dep.pending) + len(dep.delayed),
                    "inflight": sum(1 for w in dep.workers
                                    if w.inflight is not None),
                    "admitted": dep.admitted,
                    "exec_mode": dep.exec_mode,
                    "oom_deaths": dep.oom_deaths,
                    "failed_reason": dep.failed,
                    "breaker_state": dep.breaker.state,
                    "breaker_transitions": list(dep.breaker.transitions),
                    "breaker_trips": sum(
                        1 for _, to in dep.breaker.transitions
                        if to == "open"),
                    "workers": [
                        {"index": w.index, "state": w.state, "gen": w.gen,
                         "restarts": w.restarts, "exec_mode": w.exec_mode,
                         "backoff_streak": w.backoff.streak}
                        for w in dep.workers],
                }
            return out

    def format_stats(self) -> str:
        """The per-deployment table the CLI prints."""
        from ..mapping import format_columns

        headers = ["deployment", "acc", "done", "fail", "retry", "shed+rej",
                   "queue", "workers", "restarts", "breaker", "trips",
                   "mode"]
        rows = []
        for key, s in self.stats().items():
            alive = sum(1 for w in s["workers"]
                        if w["state"] in ("ready", "busy"))
            rows.append([
                key, str(s["accepted"]), str(s["completed"]),
                str(s["failed"]), str(s["retried"]),
                f"{s['shed']}+{s['rejected']}", str(s["queue_depth"]),
                f"{alive}/{len(s['workers'])}", str(s["restarts"]),
                s["breaker_state"], str(s["breaker_trips"]),
                s["exec_mode"],
            ])
        return format_columns(headers, rows)

    # -- pump (single control thread) ---------------------------------------

    def _wake(self):
        try:
            os.write(self._waker_w, b"w")
        except OSError:
            pass

    def _pump(self):
        while not self._pump_stop.is_set():
            with self._lock:
                conn_map = {
                    w.conn: (dep, w)
                    for dep in self._deployments.values()
                    for w in dep.workers
                    if w.conn is not None
                    and w.state in ("starting", "ready", "busy")}
            try:
                ready = _mp_wait(list(conn_map) + [self._waker_r],
                                 timeout=self.config.tick_s)
            except OSError:
                ready = []
            if self._waker_r in ready:
                try:
                    os.read(self._waker_r, 4096)
                except OSError:
                    pass
            settled: List[_Settled] = []
            with self._lock:
                now = time.monotonic()
                for conn in ready:
                    if conn not in conn_map:
                        continue
                    dep, worker = conn_map[conn]
                    self._drain_conn(dep, worker, now, settled)
                now = time.monotonic()
                self._check_liveness(now, settled)
                self._check_hangs(now, settled)
                self._expire_pending(now, settled)
                self._release_retries(now)
                self._start_due_workers(now)
                self._dispatch(now)
            self._settle_all(settled)
        # pump exits only at shutdown; remaining state is handled there

    def _settle_all(self, settled: List[_Settled]) -> None:
        """Metrics, root-span close, then the future itself, for each
        request :meth:`_finish` queued (off the fleet lock)."""
        tracer = get_tracer()
        for req, output, error in settled:
            get_registry().histogram(
                "fleet_request_ms", deployment=req.future.model,
                outcome="ok" if error is None else "error",
            ).observe((time.monotonic() - req.t_submit) * 1e3)
            if req.span is not None and tracer is not None:
                status = ("ok" if error is None
                          else getattr(error, "code", None) or "error")
                tracer.finish(req.span, status=status, attempts=req.attempts)
            req.future._settle(output, error)

    # every helper below runs on the pump thread with self._lock held;
    # futures are settled after the lock drops (via the `settled` list)

    def _finish(self, dep: _Deployment, req: _Request, settled: List,
                output: Optional[np.ndarray] = None,
                error: Optional[ServingError] = None) -> None:
        """The one terminal path of an admitted request: release its
        admission slot, count the outcome, tag the error with the
        request id, and queue the future for :meth:`_settle_all`."""
        dep.admitted -= 1
        req.future.attempts = req.attempts
        if error is None:
            dep.bump("completed")
        else:
            dep.bump("failed")
            if isinstance(error, ServingTimeoutError):
                dep.bump("timeouts")
            if error.request_id is None:
                _tag(error, req.request_id)
        settled.append((req, output, error))

    def _drain_conn(self, dep: _Deployment, worker: _WorkerHandle,
                    now: float, settled: List) -> None:
        while True:
            try:
                if not worker.conn.poll():
                    return
                msg = worker.conn.recv()
            except (EOFError, OSError):
                # death: leave it to the liveness check (exitcode there)
                return
            kind = msg[0]
            if kind == "ready":
                if worker.state == "starting":
                    worker.state = "ready"
                if len(msg) > 1:
                    worker.exec_mode = msg[1]
            elif kind == "degraded":
                # worker-side graceful degradation (e.g. S-NATIVE: no
                # toolchain); the worker still serves, just not natively
                dep.bump("degraded")
                get_registry().event("worker_degraded", deployment=dep.key,
                                     worker=worker.index, code=msg[1],
                                     reason=msg[2])
            elif kind == "pong":
                pass
            elif kind == "load_error":
                self._on_load_error(dep, worker, msg[1], settled)
                return
            elif kind in ("ok", "err"):
                req = worker.inflight
                if req is None or req.req_id != msg[1]:
                    continue  # stale reply from a superseded dispatch
                worker.inflight = None
                if worker.state == "busy":
                    worker.state = "ready"
                # spans the worker collected while executing (empty
                # when tracing was off at dispatch) rejoin the front
                # door's trace here
                spans = msg[-1]
                tracer = get_tracer()
                if tracer is not None and spans:
                    tracer.adopt(spans)
                if kind == "ok":
                    _, _, output, cycles, exec_s, _ = msg
                    dep.breaker.record_success()
                    dep.ema_exec_s = 0.8 * dep.ema_exec_s + 0.2 * exec_s
                    req.future.cycles = cycles
                    req.future.batch_size = 1
                    self._finish(dep, req, settled, output=output)
                else:
                    _, _, code, text, _ = msg
                    if code in CLIENT_ERROR_CODES:
                        # the worker answered; a half-open probe resolves
                        dep.breaker.record_success()
                    else:
                        dep.breaker.record_failure()
                    error = self._error_from_code(dep, code, text,
                                                  req.request_id)
                    self._retry_or_fail(dep, req, error, now, settled)

    def _error_from_code(self, dep: _Deployment, code: str, text: str,
                         rid: str) -> ServingError:
        if code == "S-TIMEOUT":
            return _tag(ServingTimeoutError(
                f"{dep.key}: {text} [request {rid}]", model=dep.key), rid)
        if code == "S-OOM":
            exc = WorkerCrashError(f"{dep.key}: worker out of memory: "
                                   f"{text} [request {rid}]", model=dep.key)
            exc.code = "S-OOM"
            return _tag(exc, rid)
        return _tag(ServingExecutionError(
            f"{dep.key}: {text} [request {rid}]", model=dep.key,
            code=code), rid)

    def _on_load_error(self, dep: _Deployment, worker: _WorkerHandle,
                       reason: str, settled: List) -> None:
        worker.state = "failed_load"
        self._close_worker(worker)
        if all(w.state == "failed_load" for w in dep.workers):
            dep.failed = reason
            get_registry().event("deployment_failed", deployment=dep.key,
                                 reason=reason)

            def make_error(rid: str) -> ServingError:
                return _tag(ServingUnavailableError(
                    f"{dep.key}: deployment failed terminally: {reason} "
                    f"[request {rid}]", model=dep.key, terminal=True), rid)

            self._fail_all_queued(dep, make_error, settled)

    def _fail_all_queued(self, dep: _Deployment,
                         make_error: Callable[[str], ServingError],
                         settled: List) -> None:
        """Fail every queued request, each with its own error instance
        so the per-request id survives into the message the client
        sees."""
        queued = [req for _, _, req in dep.pending] \
            + [req for _, req in dep.delayed]
        dep.pending.clear()
        dep.delayed.clear()
        for req in queued:
            self._finish(dep, req, settled,
                         error=make_error(req.request_id))

    def _check_liveness(self, now: float, settled: List) -> None:
        for dep in self._deployments.values():
            for worker in dep.workers:
                if worker.state not in ("starting", "ready", "busy"):
                    continue
                if worker.proc is not None and worker.proc.is_alive():
                    if (worker.state == "starting"
                            and now - worker.spawned_at
                            > self.config.worker_start_timeout_s):
                        worker.proc.kill()
                        self._on_worker_death(dep, worker, now, settled,
                                              reason="start timeout")
                    continue
                self._on_worker_death(dep, worker, now, settled,
                                      reason="process died")

    def _on_worker_death(self, dep: _Deployment, worker: _WorkerHandle,
                         now: float, settled: List, reason: str) -> None:
        exitcode = worker.proc.exitcode if worker.proc is not None else None
        if exitcode == OOM_EXIT_CODE:
            dep.oom_deaths += 1
            self._maybe_fallback(dep)
        req, worker.inflight = worker.inflight, None
        if req is not None:
            dep.breaker.record_failure()
            error = _tag(WorkerCrashError(
                f"{dep.key}: worker {worker.index} died "
                f"({reason}, exit code {exitcode}) holding request "
                f"{req.request_id}",
                model=dep.key, worker=worker.index), req.request_id)
            if exitcode == OOM_EXIT_CODE:
                error.code = "S-OOM"
            self._retry_or_fail(dep, req, error, now, settled)
        self._close_worker(worker)
        cfg = self.config
        if self._shutdown or (cfg.max_restarts is not None
                              and worker.restarts >= cfg.max_restarts):
            worker.state = "dead"
            return
        worker.state = "down"
        worker.next_start_at = now + worker.backoff.next_delay_s()

    def _maybe_fallback(self, dep: _Deployment) -> None:
        cfg = self.config
        if (cfg.fallback_exec_mode
                and dep.exec_mode != cfg.fallback_exec_mode
                and dep.oom_deaths >= cfg.oom_fallback_after):
            prev_mode = dep.exec_mode
            dep.exec_mode = cfg.fallback_exec_mode
            dep.bump("fallbacks")
            get_registry().event("exec_mode_fallback", deployment=dep.key,
                                 frm=prev_mode, to=dep.exec_mode,
                                 oom_deaths=dep.oom_deaths)
            # restart the survivors into the smaller-arena mode too:
            # they would otherwise keep OOMing on the old mode
            for w in dep.workers:
                if w.state in ("ready",) and w.inflight is None \
                        and w.proc is not None:
                    try:
                        w.conn.send(("stop",))
                    except OSError:
                        pass

    def _check_hangs(self, now: float, settled: List) -> None:
        cfg = self.config
        for dep in self._deployments.values():
            for worker in dep.workers:
                req = worker.inflight
                if worker.state != "busy" or req is None:
                    continue
                limits = []
                if req.deadline is not None:
                    limits.append(req.deadline + cfg.hang_grace_s)
                if cfg.hang_timeout_s is not None:
                    limits.append(worker.dispatched_at + cfg.hang_timeout_s)
                if not limits or now <= min(limits):
                    continue
                # hung: kill the worker; fail or retry the request
                worker.proc.kill()
                worker.inflight = None
                dep.breaker.record_failure()
                if req.deadline is not None and now >= req.deadline:
                    elapsed = now - req.t_submit
                    self._finish(dep, req, settled, error=ServingTimeoutError(
                        f"{dep.key}: request {req.request_id} missed its "
                        f"deadline after {elapsed:.3f}s (worker "
                        f"{worker.index} hung and was killed)",
                        model=dep.key, elapsed_s=elapsed))
                else:
                    self._retry_or_fail(dep, req, WorkerCrashError(
                        f"{dep.key}: worker {worker.index} hung past "
                        f"hang_timeout and was killed holding request "
                        f"{req.request_id}", model=dep.key,
                        worker=worker.index), now, settled)
                self._close_worker(worker)
                worker.state = "down"
                worker.next_start_at = now + worker.backoff.next_delay_s()

    def _expire_pending(self, now: float, settled: List) -> None:
        """Deadline storms die cheaply in the queue, not on a worker."""
        for dep in self._deployments.values():
            if not any(req.deadline is not None and now >= req.deadline
                       for _, _, req in dep.pending):
                continue
            keep = []
            for entry in dep.pending:
                req = entry[2]
                if req.deadline is not None and now >= req.deadline:
                    dep.bump("expired")
                    elapsed = now - req.t_submit
                    self._finish(dep, req, settled, error=ServingTimeoutError(
                        f"{dep.key}: request {req.request_id} expired in "
                        f"queue after {elapsed:.3f}s", model=dep.key,
                        elapsed_s=elapsed))
                else:
                    keep.append(entry)
            if len(keep) != len(dep.pending):
                dep.pending = keep
                heapq.heapify(dep.pending)

    def _release_retries(self, now: float) -> None:
        for dep in self._deployments.values():
            if not dep.delayed:
                continue
            due = [req for t, req in dep.delayed if t <= now]
            dep.delayed = [(t, req) for t, req in dep.delayed if t > now]
            for req in due:
                heapq.heappush(dep.pending,
                               (-req.priority, next(dep.seq), req))

    def _retry_or_fail(self, dep: _Deployment, req: _Request,
                       error: ServingError, now: float,
                       settled: List) -> None:
        cfg = self.config
        retryable = getattr(error, "retryable", False)
        if retryable and cfg.retry.allows(req.attempts):
            delay = cfg.retry.delay_s(req.attempts, self._rng)
            if req.deadline is None or now + delay < req.deadline:
                dep.bump("retried")
                dep.delayed.append((now + delay, req))
                return
        self._finish(dep, req, settled, error=error)

    def _start_due_workers(self, now: float) -> None:
        if self._shutdown:
            return
        for dep in self._deployments.values():
            if dep.failed is not None:
                continue
            for worker in dep.workers:
                if worker.state != "down" or now < worker.next_start_at:
                    continue
                worker.gen += 1
                if worker.gen > 0:
                    worker.restarts += 1
                    dep.bump("restarts")
                    get_registry().event(
                        "worker_restart", deployment=dep.key,
                        worker=worker.index, gen=worker.gen,
                        backoff_streak=worker.backoff.streak)
                parent_conn, child_conn = self._ctx.Pipe()
                proc = self._ctx.Process(
                    target=_worker_main,
                    args=(child_conn, dep.key, worker.index, worker.gen,
                          dep.path, dep.exec_mode, self.config.faults),
                    name=f"fleet-{dep.key}-w{worker.index}", daemon=True)
                proc.start()
                child_conn.close()
                worker.proc, worker.conn = proc, parent_conn
                worker.state = "starting"
                worker.spawned_at = now

    def _dispatch(self, now: float) -> None:
        for dep in self._deployments.values():
            if dep.failed is not None or not dep.pending:
                continue
            idle = [w for w in dep.workers if w.state == "ready"]
            while idle and dep.pending:
                if not dep.breaker.allow():
                    break
                _, _, req = heapq.heappop(dep.pending)
                worker = idle.pop()
                req.attempts += 1
                worker.inflight = req
                worker.dispatched_at = now
                worker.state = "busy"
                budget = (None if req.deadline is None
                          else req.deadline - now)
                ctx = None
                if req.span is not None:
                    tracer = get_tracer()
                    if tracer is not None:
                        if req.attempts == 1:
                            # admission -> first dispatch, as a closed
                            # interval under the request's root span
                            # (t_submit is time.monotonic() seconds —
                            # the same clock now_ns() reads)
                            tracer.record(
                                "fleet.queue_wait",
                                int(req.t_submit * 1e9), category="serve",
                                parent=req.span,
                                request_id=req.request_id,
                                deployment=dep.key)
                        ctx = req.span.context()
                try:
                    worker.conn.send(
                        ("req", req.req_id, req.feeds, budget, ctx))
                except (OSError, ValueError):
                    # dead pipe: the liveness check will retry/fail the
                    # in-flight request and schedule the restart
                    continue

    def _close_worker(self, worker: _WorkerHandle) -> None:
        if worker.conn is not None:
            try:
                worker.conn.close()
            except OSError:
                pass
        worker.conn = None
        if worker.proc is not None:
            worker.proc.join(timeout=0.1)
        worker.proc = None

    # -- shutdown ------------------------------------------------------------

    def shutdown(self, wait: bool = True,
                 timeout: float = 30.0) -> Dict[str, Dict[str, int]]:
        """Drain and stop the fleet (idempotent).

        With ``wait=True`` the pump keeps serving until every admitted
        request resolved or ``timeout`` elapsed; anything still
        unresolved then fails with a typed ``S-SHUTDOWN`` error —
        an accepted future never hangs across shutdown. Returns the
        final per-deployment counters.
        """
        with self._lock:
            already = self._shutdown
            self._shutdown = True
        if already:
            return {}
        deadline = time.monotonic() + timeout
        if wait and self._started:
            while time.monotonic() < deadline:
                with self._lock:
                    # a deployment with no worker slots can never make
                    # progress — don't hold the drain for it
                    if all(dep.admitted == 0 or not dep.workers
                           for dep in self._deployments.values()):
                        break
                time.sleep(min(self.config.tick_s, 0.02))
        self._pump_stop.set()
        self._wake()
        if self._pump_thread is not None:
            self._pump_thread.join(timeout=10.0)
        settled: List = []
        with self._lock:
            for dep in self._deployments.values():
                def make_error(rid: str,
                               _key: str = dep.key) -> ServingError:
                    return _tag(ServingError(
                        f"{_key}: fleet shut down before request {rid} "
                        f"resolved", code="S-SHUTDOWN"), rid)

                self._fail_all_queued(dep, make_error, settled)
                for worker in dep.workers:
                    req, worker.inflight = worker.inflight, None
                    if req is not None:
                        self._finish(dep, req, settled,
                                     error=make_error(req.request_id))
                    if worker.conn is not None:
                        try:
                            worker.conn.send(("stop",))
                        except OSError:
                            pass
            procs = [(w.proc, w) for dep in self._deployments.values()
                     for w in dep.workers if w.proc is not None]
        self._settle_all(settled)
        for proc, worker in procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)
            worker.state = "dead"
            self._close_worker(worker)
        try:
            os.close(self._waker_r)
            os.close(self._waker_w)
        except OSError:
            pass
        return {key: dict(dep.counters)
                for key, dep in self._deployments.items()}
