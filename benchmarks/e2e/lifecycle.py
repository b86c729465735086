"""The deployment lifecycle, phase by phase, timed from outside.

``setup`` takes one workload from nothing to a warm serving tier (what
``setup_s`` measures); ``measure_end_to_end`` then times every public
phase a user of the system sees. Every output that leaves the program
is compared byte for byte with the independent reference interpreter
and every modeled cycle count with the deployment's own; a mismatch,
an exception or a refused request is a failed operation.
"""

import gc
import itertools
import math
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

import api
from workloads import (
    BATCH, DSE_BUDGETS_KB, DSE_OBJECTIVES, N_FEEDS, Workload,
)

DSE_CELLS = len(DSE_BUDGETS_KB) * len(DSE_OBJECTIVES)

clock = time.perf_counter

#: rounds of one run: every phase is measured in this many slices, and
#: a serving number is the median over this many windows
ROUNDS = 5
#: share of ``--seconds`` spent on served traffic and on the phase
#: behind each direct end-to-end metric
E2E_SHARES = {
    "serve": 0.46, "infer_ms": 0.10, "batch_sps": 0.08,
    "compile_cold_ms": 0.09, "compile_warm_ms": 0.07, "load_ms": 0.06,
    "verify_ms": 0.06, "dse_cells_per_s": 0.08,
}
#: no timing is reported from fewer calls than this
MIN_CALLS = 5
REQUEST_TIMEOUT_S = 30.0


class Ops:
    """Operations attempted / failed over a whole run (thread-safe)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []   #: first few reasons, for the report

    def record(self, ok: bool, what: str = "") -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.failures) < 8:
                    self.failures.append(what)

    def guard(self, what: str, fn: Callable, *args):
        """Run ``fn``; an exception is a failed operation, not a crash."""
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 — counted and reported
            self.record(False, f"{what}: {type(exc).__name__}: {exc}")
            return None


def timed_calls(fn: Callable, budget_s: float,
                prepare: Optional[Callable] = None,
                check: Optional[Callable] = None,
                min_calls: int = MIN_CALLS) -> List[float]:
    """Call ``fn`` back to back for ``budget_s``; per-call times in ms.

    ``prepare`` (untimed) builds the argument of each call; ``check``
    (untimed) receives each result together with that argument.
    """
    samples: List[float] = []
    gc.collect()  # every phase starts from the same collector state
    t_end = clock() + budget_s
    while len(samples) < min_calls or clock() < t_end:
        arg = prepare() if prepare is not None else None
        t0 = clock()
        out = fn(arg) if prepare is not None else fn()
        samples.append((clock() - t0) * 1e3)
        if check is not None:
            check(out, arg)
    return samples


def nearest_rank(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)), 1) - 1]


# ---------------------------------------------------------------------------
# the two serving tiers behind one submit()
# ---------------------------------------------------------------------------

class Tier:
    """The workload's serving tier, started and ready.

    Both tiers expose ``submit(key, feeds) -> future`` with
    ``result(timeout)``, ``cycles`` and ``request_id``; this wrapper
    only hides which constructor and which stats table belong to which.
    """

    def __init__(self, w: Workload, artifact, path: str, native_dir: str):
        self.kind = w.tier
        self.key = ""
        if w.tier == "fleet":
            self.handle = api.ServingFleet(api.FleetConfig(
                workers=2, exec_mode=w.exec_mode)).start()
        else:
            self.handle = api.InferenceServer(
                max_batch_size=w.max_batch_size, max_wait_ms=w.max_wait_ms,
                exec_mode=w.exec_mode, native_cache_dir=native_dir)
        try:
            if w.tier == "fleet":
                self.key = self.handle.add_deployment(path, key=w.name)
                self._wait_all_ready()
            else:
                self.key = self.handle.register_artifact(
                    artifact, native_cache_dir=native_dir)
        except BaseException:
            self.stop()
            raise

    def _wait_all_ready(self, timeout: float = 60.0) -> None:
        # wait_ready() returns at the first ready worker; the deployed
        # state the benchmark measures has every worker loaded
        deadline = time.monotonic() + timeout
        if not self.handle.wait_ready(self.key, timeout=timeout):
            raise RuntimeError(f"{self.key}: no fleet worker became ready")
        while time.monotonic() < deadline:
            workers = self.handle.stats()[self.key]["workers"]
            if all(wk["state"] in ("ready", "busy") for wk in workers):
                return
            time.sleep(0.005)
        raise RuntimeError(f"{self.key}: fleet workers not ready in time")

    def submit(self, feeds):
        return self.handle.submit(self.key, feeds)

    def counters(self) -> Dict[str, float]:
        """The tier's own public counters, one shape for both tiers."""
        if self.kind == "fleet":
            s = self.handle.stats()[self.key]
            return {"requests": s["completed"], "batches": s["completed"],
                    "retries": s["retried"], "restarts": s["restarts"],
                    "rejected": s["rejected"] + s["shed"],
                    "errors": s["failed"]}
        s = self.handle.stats(self.key)[self.key]
        return {"requests": s["requests"], "batches": s["batches"],
                "retries": 0, "restarts": 0, "rejected": 0,
                "errors": s["errors"]}

    def stop(self) -> None:
        self.handle.shutdown(wait=True)


# ---------------------------------------------------------------------------
# set-up: nothing -> first correct served reply
# ---------------------------------------------------------------------------

@dataclass
class Deployment:
    workload: Workload
    seed: int
    graph: object
    soc: object
    config: object
    model: object            #: the loaded (served) CompiledModel
    path: str
    native_dir: str
    feeds: List[Dict[str, np.ndarray]]
    refs: List[np.ndarray]
    cycles: float            #: modeled cycles of one inference
    tier: Optional[Tier]
    stages_s: Dict[str, float] = field(default_factory=dict)


def make_graph(w: Workload, seed: int):
    return api.MLPERF_TINY[w.model](precision=w.precision, seed=seed)


def make_config(w: Workload):
    return api.HTVM.with_overrides(platform=w.platform, **w.overrides)


def make_feeds(graph, seed: int, i: int):
    return api.random_inputs(graph, seed=1000 * seed + i)


def setup(w: Workload, seed: int, tmpdir: str, ops: Ops,
          t_start: Optional[float] = None) -> Tuple[Deployment, float]:
    """Deploy ``w`` and serve one correct reply; returns the deployment
    (tier running) and the seconds from ``t_start`` to that reply.

    ``t_start`` is the stamp taken on the first line of ``run.py``, so
    the imports are in; without it only the stages here are.
    """
    if t_start is None:
        t_start = clock()
    stages: Dict[str, float] = {"imports": clock() - t_start}
    mark = [clock()]

    def lap(name: str) -> None:
        now = clock()
        stages[name] = now - mark[0]
        mark[0] = now

    path = os.path.join(tmpdir, f"{w.name}.dna")
    native_dir = os.path.join(tmpdir, "native")
    graph = make_graph(w, seed)
    lap("build_graph")
    soc = api.get_platform(w.platform)
    config = make_config(w)
    # pack_model compiles through the process-wide tiling memo: start it
    # empty so the compile is cold however this process was used before
    api.set_default_cache(api.TilingCache())
    api.pack_model(graph, soc, config, path, validate_runs=1)
    lap("pack")             # cold compile + validate + save + load-back
    artifact = api.load_artifact(path, verify=True)
    lap("load_verified")    # what every worker (re)start pays
    model, soc = artifact.model, artifact.soc
    if w.exec_mode == "native":
        ok = api.load_native_module(model, native_dir) is not None
        ops.record(ok, "native library did not build")
    lap("native_build")
    tier = Tier(w, artifact, path, native_dir)
    lap("tier_start")
    try:
        feeds0 = make_feeds(graph, seed, 0)
        ref0 = np.asarray(api.run_reference(graph, feeds0))
        fut = tier.submit(feeds0)
        out = fut.result(REQUEST_TIMEOUT_S)
        ops.record(np.array_equal(out, ref0), "first served reply differs "
                   "from the reference interpreter")
        lap("first_reply")
        setup_s = clock() - t_start

        feeds = [feeds0] + [make_feeds(graph, seed, i)
                            for i in range(1, N_FEEDS)]
        refs = [ref0] + [np.asarray(api.run_reference(graph, f))
                         for f in feeds[1:]]
    except BaseException:
        tier.stop()
        raise
    dep = Deployment(workload=w, seed=seed, graph=graph, soc=soc,
                     config=config, model=model, path=path, native_dir=native_dir, feeds=feeds,
                     refs=refs, cycles=float(fut.cycles), tier=tier,
                     stages_s=stages)
    return dep, setup_s


# ---------------------------------------------------------------------------
# served closed-loop traffic
# ---------------------------------------------------------------------------

class Reply(NamedTuple):
    latency_ms: float   #: client side: submit() called -> result() returned
    ok: bool            #: bytes equal to the reference, cycles to the model


def serve_load(dep: Deployment, duration_s: float, ops: Ops,
               clients: Optional[int] = None, burst: Optional[int] = None,
               on_reply: Optional[Callable] = None) -> List[Reply]:
    """Closed loop: each client keeps ``burst`` requests outstanding
    and sends the next burst only when every reply is in (defaults:
    the workload's traffic).

    Requests are stamped on the tracer's clock (``monotonic_ns``), so
    ``on_reply(t_submit_ns, future)``, called the moment a reply is in,
    lets the traced run record a harness-side span per request.
    """
    w, tier = dep.workload, dep.tier
    clients = w.clients if clients is None else clients
    burst = w.burst if burst is None else burst
    replies: List[List[Reply]] = [[] for _ in range(clients)]
    now_ns = time.monotonic_ns
    t_end = now_ns() + int(duration_s * 1e9)

    def client(ci: int) -> None:
        k = ci * 3  # clients start on different feeds
        mine = replies[ci]
        while now_ns() < t_end:
            sent = []
            for _ in range(burst):
                idx = k % N_FEEDS
                k += 1
                t0 = now_ns()
                try:
                    sent.append((idx, t0, tier.submit(dep.feeds[idx])))
                except Exception as exc:  # noqa: BLE001 — a refusal fails
                    ops.record(False, f"submit: {type(exc).__name__}: {exc}")
            for idx, t0, fut in sent:
                try:
                    out = fut.result(REQUEST_TIMEOUT_S)
                except Exception as exc:  # noqa: BLE001
                    ops.record(False, f"reply: {type(exc).__name__}: {exc}")
                    continue
                latency_ms = (now_ns() - t0) / 1e6
                if on_reply is not None:
                    on_reply(t0, fut)
                ok = (np.array_equal(out, dep.refs[idx])
                      and fut.cycles == dep.cycles)
                ops.record(ok, "served reply differs from the reference "
                           "or its cycle count from the direct run")
                mine.append(Reply(latency_ms, ok))

    threads = [threading.Thread(target=client, args=(ci,),
                                name=f"bench-client-{ci}")
               for ci in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [r for per_client in replies for r in per_client]


def window_stats(replies: List[Reply], duration_s: float) -> Dict[str, float]:
    """Median latency and throughput of one window's correct replies."""
    lat = [r.latency_ms for r in replies if r.ok]
    if not lat:
        raise RuntimeError("a serving window completed no correct request")
    return {"p50_ms": statistics.median(lat), "rps": len(lat) / duration_s,
            "n": len(lat)}


def warm_tier(dep: Deployment, ops: Ops) -> None:
    """Every feed through every worker once before anything is timed."""
    serve_load(dep, 0.25, ops)


# ---------------------------------------------------------------------------
# the end-to-end phases
# ---------------------------------------------------------------------------

def feed_rotation() -> Callable[[], int]:
    """Index of the next of the run's feeds, round and round."""
    calls = itertools.count()
    return lambda: next(calls) % N_FEEDS


def executor_for(dep: Deployment, mode: Optional[str] = None):
    return api.Executor(dep.soc, exec_mode=mode or dep.workload.exec_mode,
                        native_cache_dir=dep.native_dir)


def stacked_feeds(dep: Deployment) -> Dict[str, np.ndarray]:
    return {name: np.concatenate([f[name] for f in dep.feeds[:BATCH]], axis=0)
            for name in dep.feeds[0]}


def same_program(a, b) -> bool:
    """Two compiles of one deployment must agree on what Table I reports."""
    return (a.binary_size_bytes == b.binary_size_bytes
            and len(a.steps) == len(b.steps)
            and a.memory_plan.arena_bytes == b.memory_plan.arena_bytes)


@dataclass
class Phase:
    """One timed public call: ``prepare`` (untimed) makes its argument,
    ``check`` (untimed) counts the result as an operation. Measured in
    slices; its time is the median over slices of each slice's median,
    which a slow stretch of the host moves less than a pooled median."""

    call: Callable
    prepare: Optional[Callable] = None
    check: Optional[Callable] = None
    slices: List[List[float]] = field(default_factory=list)

    def run(self, budget_s: float, min_calls: int = MIN_CALLS) -> "Phase":
        self.slices.append(timed_calls(self.call, budget_s, self.prepare,
                                       self.check, min_calls))
        return self

    @property
    def calls(self) -> int:
        return sum(len(s) for s in self.slices)

    @property
    def median_ms(self) -> float:
        return statistics.median(statistics.median(s) for s in self.slices)


def compile_phase(dep: Deployment, ops: Ops, cache=None) -> Phase:
    """``compile_model`` on a fresh graph; cold when ``cache`` is None
    (a fresh ``TilingCache`` per call), warm with a shared one."""
    w = dep.workload

    def prepare():
        return (make_graph(w, dep.seed),
                cache if cache is not None else api.TilingCache())

    def compile_once(arg):
        graph, memo = arg
        return ops.guard("compile", api.compile_model, graph, dep.soc,
                         dep.config, memo)

    def check(model, _arg):
        ops.record(model is not None and same_program(model, dep.model),
                   "recompile produced a different program")

    return Phase(compile_once, prepare, check)


def dse_phase(dep: Deployment, ops: Ops,
              cache_factory=api.TilingCache) -> Phase:
    """``sweep_grid`` over this workload's platform x model x budgets x
    objectives, ``dp`` mapping, one job."""
    w = dep.workload

    def sweep(cache):
        return ops.guard(
            "dse", api.sweep_grid, [w.platform], [w.model],
            list(DSE_BUDGETS_KB), list(DSE_OBJECTIVES), "dp", 1, cache)

    def check(points, _cache):
        ops.record(points is not None and len(points) == DSE_CELLS
                   and all(p.feasible for p in points),
                   "DSE sweep failed or priced an infeasible cell")

    return Phase(sweep, cache_factory, check)


def direct_phases(dep: Deployment, ops: Ops) -> Dict[str, Phase]:
    """The public call behind each direct end-to-end metric, warmed."""
    w = dep.workload
    ex = executor_for(dep)
    ex.run(dep.model, dep.feeds[0])  # native load, cost memos
    rotate = feed_rotation()

    def check_run(res, idx):
        ops.record(res is not None
                   and np.array_equal(res.output, dep.refs[idx])
                   and res.total_cycles == dep.cycles,
                   "direct inference differs from the reference or in cycles")

    batch = stacked_feeds(dep)
    want = np.concatenate(dep.refs[:BATCH], axis=0)
    ex.run_batch(dep.model, batch)

    def check_batch(res, _arg):
        ops.record(res is not None and np.array_equal(res.outputs, want)
                   and res.perf.total_cycles == dep.cycles,
                   "batched inference differs from the reference or in cycles")

    warm = api.TilingCache()
    api.compile_model(make_graph(w, dep.seed), dep.soc, dep.config, warm)

    def check_load(art, _arg):
        ops.record(art is not None and same_program(art.model, dep.model),
                   "artifact loaded back as a different program")

    def check_verdict(report, _arg):
        ops.record(report is not None and report.passed
                   and report.cycles == dep.cycles,
                   "validate_deployment verdict was not bit-exact")

    return {
        "infer_ms": Phase(lambda idx: ops.guard("infer", ex.run, dep.model,
                                             dep.feeds[idx]),
                       rotate, check_run),
        "batch_sps": Phase(lambda: ops.guard("batch", ex.run_batch, dep.model,
                                         batch), check=check_batch),
        "compile_cold_ms": compile_phase(dep, ops),
        "compile_warm_ms": compile_phase(dep, ops, cache=warm),
        "load_ms": Phase(lambda: ops.guard("load", api.load_artifact, dep.path,
                                        True), check=check_load),
        "verify_ms": Phase(lambda: ops.guard("verify", api.validate_deployment,
                                          dep.model, dep.soc, 1),
                        check=check_verdict),
        "dse_cells_per_s": dse_phase(dep, ops),
    }


def measure_end_to_end(dep: Deployment, seconds: float, ops: Ops,
                       rounds: int = ROUNDS
                       ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Every end-to-end metric but ``setup_s`` and ``peak_rss_MB``;
    also returns how many samples stand behind each.

    The phases take turns in ``rounds`` rounds, one serving window and
    one slice of every direct phase each, so that every metric samples
    the whole run: this host drifts by several percent for seconds at a
    time, and a phase measured in one stretch would see only one state.
    """
    slice_s = {k: v * seconds / rounds for k, v in E2E_SHARES.items()}
    phases = direct_phases(dep, ops)
    warm_tier(dep, ops)
    windows = []
    for _ in range(rounds):
        t0 = clock()
        replies = serve_load(dep, slice_s["serve"], ops)
        windows.append(window_stats(replies, clock() - t0))
        for name, phase in phases.items():
            phase.run(slice_s[name], min_calls=2)
    dep.tier.stop()
    dep.tier = None

    out = {name: phase.median_ms for name, phase in phases.items()}
    out["batch_sps"] = BATCH / (out["batch_sps"] / 1e3)
    out["dse_cells_per_s"] = DSE_CELLS / (out["dse_cells_per_s"] / 1e3)
    out["serve_p50_ms"] = statistics.median(w["p50_ms"] for w in windows)
    out["serve_rps"] = statistics.median(w["rps"] for w in windows)
    # exact, simulated numbers (Table I columns)
    out["modeled_cycles"] = dep.cycles
    out["binary_kB"] = dep.model.binary_size_bytes / 1024
    n = {name: phase.calls for name, phase in phases.items()}
    n["serve_requests"] = sum(w["n"] for w in windows)
    n["serve_min_window_requests"] = min(w["n"] for w in windows)
    return out, n


def peak_rss_mb() -> float:
    """Peak resident set of the harness plus its largest reaped child
    (fleet workers, native ``cc`` builds, set-up repeats), in MB."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024
