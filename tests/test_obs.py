"""Observability suite: tracing, metrics, exporters, and propagation.

Covers the contracts ``docs/OBSERVABILITY.md`` promises:

* tracer unit behavior — nesting, explicit parents, hot-path
  ``record``, drain, the disabled no-op path, and ``collect``'s
  install/restore;
* histogram bucket edge cases (Prometheus ``le`` semantics: a value
  exactly on an edge counts into that edge's bucket) and percentile
  estimation including the +Inf bucket;
* registry thread-safety under a concurrent publish hammer;
* exporter schemas — Chrome trace-event JSON and Prometheus text;
* compile-pipeline and executor instrumentation producing spans;
* the disabled-tracing guard costing <= 2% of a fast-mode inference;
* **trace-context propagation across the fleet worker pipe**: the
  parent ids assigned in the front door survive pickling, and the
  spans shipped back from the worker process reconstruct one tree per
  request id;
* request ids threaded into serving errors and loadgen's ledger;
* circuit-breaker transitions and restart counts surfacing as metrics
  events and fleet stats.
"""

import json
import math
import threading
import time

import pytest

from repro.core import CompilerConfig, compile_model
from repro.errors import ServingError, ServingOverloadError
from repro.eval.harness import CONFIGS
from repro.frontend.modelzoo import MLPERF_TINY
from repro.obs import (
    MetricsRegistry, Tracer, collect, disable_tracing, enable_tracing,
    get_registry, get_tracer, merged_snapshot, now_ns, set_registry,
    to_prometheus, trace_span, write_chrome_trace,
)
from repro.obs.metrics import Histogram
from repro.runtime import Executor, random_inputs
from repro.serve import FaultPlan, FaultRule, FleetConfig, ServingFleet
from repro.serve.resilience import CircuitBreaker, RetryPolicy
from repro.soc import get_platform

from helpers import build_small_cnn


@pytest.fixture(autouse=True)
def _isolated_obs():
    """Fresh registry + disabled tracer around every test."""
    prev_tracer = disable_tracing()
    prev_registry = get_registry()
    set_registry(MetricsRegistry())
    yield
    disable_tracing()
    set_registry(prev_registry)
    if prev_tracer is not None:
        enable_tracing(prev_tracer)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

class TestTracer:
    def test_nested_spans_parent_implicitly(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        spans = tracer.drain()
        assert [s.name for s in spans] == ["inner", "outer"]  # finish order
        assert outer.parent_id is None  # trace root

    def test_record_hot_path_form(self):
        tracer = Tracer()
        with tracer.span("run") as run:
            t0 = now_ns()
            tracer.record("step", t0, category="exec", step="s0")
        step = next(s for s in tracer.drain() if s.name == "step")
        assert step.parent_id == run.span_id
        assert step.t_end_ns >= step.t_start_ns == t0
        assert step.attrs["step"] == "s0"

    def test_begin_finish_cross_thread_root(self):
        tracer = Tracer()
        root = tracer.begin("request", request_id="m#1")
        done = threading.Event()

        def finisher():
            tracer.finish(root, status="ok")
            done.set()

        threading.Thread(target=finisher).start()
        assert done.wait(5)
        (span,) = tracer.drain()
        assert span.attrs == {"request_id": "m#1", "status": "ok"}
        assert span.duration_ns >= 0

    def test_span_records_error_attr(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (span,) = tracer.drain()
        assert span.attrs["error"] == "ValueError: nope"

    def test_trace_span_is_noop_when_disabled(self):
        assert get_tracer() is None
        with trace_span("anything") as sp:
            assert sp is None  # no tracer, no span, no error

    def test_enable_disable_round_trip(self):
        tracer = enable_tracing()
        assert get_tracer() is tracer
        with trace_span("x"):
            pass
        assert disable_tracing() is tracer
        assert get_tracer() is None
        assert [s.name for s in tracer.drain()] == ["x"]

    def test_collect_installs_and_restores(self):
        outer = enable_tracing()
        ctx_parent = None
        with collect(ctx_parent) as inner:
            assert get_tracer() is inner
            with trace_span("inside"):
                pass
        assert get_tracer() is outer
        assert [s.name for s in inner.drain()] == ["inside"]
        assert outer.drain() == []

    def test_collect_parents_under_remote_context(self):
        tracer = Tracer()
        root = tracer.begin("request", request_id="m#7")
        with collect(root.context()) as worker_tracer:
            with worker_tracer.span("work"):
                pass
        (work,) = worker_tracer.drain()
        assert work.trace_id == root.trace_id
        assert work.parent_id == root.span_id


# ---------------------------------------------------------------------------
# histogram edge cases + registry thread safety
# ---------------------------------------------------------------------------

class TestHistogram:
    def test_value_on_edge_counts_into_that_bucket(self):
        h = Histogram(bounds=(1.0, 10.0))
        h.observe(1.0)   # exactly on the first edge -> le="1.0" bucket
        h.observe(10.0)  # exactly on the second edge
        snap = h.snapshot()
        by_le = {b["le"]: b["count"] for b in snap["buckets"]}
        assert by_le[1.0] == 1         # cumulative counts
        assert by_le[10.0] == 2
        assert by_le["+Inf"] == 2

    def test_overflow_lands_in_inf_bucket(self):
        h = Histogram(bounds=(1.0,))
        h.observe(5.0)
        snap = h.snapshot()
        assert snap["buckets"][0]["count"] == 0
        assert snap["buckets"][-1] == {"le": "+Inf", "count": 1}
        assert h.percentile(99) == 5.0  # +Inf bucket reports observed max

    def test_percentile_interpolates_within_bucket(self):
        h = Histogram(bounds=(0.0, 100.0))
        for _ in range(100):
            h.observe(50.0)
        assert 0.0 < h.percentile(50) <= 100.0
        assert h.percentile(0) == 0.0 or h.percentile(0) <= 100.0

    def test_empty_and_invalid(self):
        h = Histogram(bounds=(1.0, 2.0))
        assert h.percentile(50) == 0.0
        with pytest.raises(ValueError):
            h.percentile(101)
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))  # not increasing
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0))  # not strict
        with pytest.raises(ValueError):
            Histogram(bounds=())

    def test_counter_rejects_negative(self):
        reg = get_registry()
        with pytest.raises(ValueError):
            reg.counter("x_total").inc(-1)

    def test_registry_thread_safety_hammer(self):
        reg = get_registry()
        threads_n, per_thread = 8, 500

        def worker(i: int):
            for k in range(per_thread):
                reg.counter("hammer_total", shard=str(i % 2)).inc()
                reg.gauge("hammer_gauge").set(k)
                reg.histogram("hammer_ms").observe(float(k % 7))
                if k % 100 == 0:
                    reg.event("hammer_event", thread=i)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = reg.snapshot()
        total = sum(v for k, v in snap["counters"].items()
                    if k.startswith("hammer_total"))
        assert total == threads_n * per_thread  # no lost increments
        assert snap["histograms"]["hammer_ms"]["count"] == \
            threads_n * per_thread
        assert len(reg.events("hammer_event")) == threads_n * \
            (per_thread // 100)

    def test_snapshot_survives_broken_collector(self):
        reg = get_registry()
        reg.register_collector("good", lambda: {"a": 1})
        reg.register_collector("bad", lambda: 1 / 0)
        snap = reg.snapshot()
        assert snap["subsystems"]["good"] == {"a": 1}
        assert "ZeroDivisionError" in snap["subsystems"]["bad"]["error"]

    def test_merged_snapshot_federates_subsystems(self):
        snap = merged_snapshot(extra={"custom": {"n": 3}})
        assert snap["schema"] == "repro-stats/1"
        assert "tiling_cache" in snap["subsystems"]
        assert "native_build" in snap["subsystems"]
        assert snap["subsystems"]["custom"] == {"n": 3}


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------

class TestExporters:
    def _spans(self):
        tracer = Tracer()
        with tracer.span("outer", category="test", model="m"):
            with tracer.span("inner", category="test"):
                pass
        return tracer.drain()

    def test_chrome_trace_schema(self, tmp_path):
        spans = self._spans()
        path = str(tmp_path / "trace.json")
        assert write_chrome_trace(path, spans, metadata={"k": "v"}) == 2
        doc = json.loads(open(path).read())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(complete) == 2 and len(meta) >= 1
        for e in complete:
            assert {"name", "cat", "ts", "dur", "pid", "tid",
                    "args"} <= set(e)
        inner = next(e for e in complete if e["name"] == "inner")
        outer = next(e for e in complete if e["name"] == "outer")
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]
        assert doc["otherData"] == {"k": "v"}

    def test_prometheus_exposition(self):
        reg = get_registry()
        reg.counter("c_total", model="m").inc(3)
        reg.gauge("g").set(1.5)
        h = reg.histogram("h_ms", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(20.0)
        text = to_prometheus(merged_snapshot())
        assert '# TYPE c_total counter' in text
        assert 'c_total{model="m"} 3' in text
        assert "g 1.5" in text
        assert '# TYPE h_ms histogram' in text
        assert 'h_ms_bucket{le="1.0"} 1' in text
        assert 'h_ms_bucket{le="+Inf"} 2' in text
        assert "h_ms_sum 20.5" in text and "h_ms_count 2" in text
        assert "repro_subsystem_native_build_builds" in text
        # every non-comment line is "name{labels} value"
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            float(value)
            assert name


# ---------------------------------------------------------------------------
# compile + executor instrumentation
# ---------------------------------------------------------------------------

class TestInstrumentation:
    def test_compile_and_exec_spans(self):
        graph = build_small_cnn(hw=8, channels=8)
        soc = get_platform("diana", enable_analog=False)
        tracer = enable_tracing()
        model = compile_model(graph, soc, CompilerConfig())
        Executor(soc, exec_mode="fast").run(
            model, random_inputs(graph, seed=0))
        spans = disable_tracing().drain()
        names = {s.name for s in spans}
        assert "compile.model" in names
        assert "compile.tiler_solve" in names
        assert "compile.mapping" in names
        assert any(n.startswith("transform.") for n in names)
        steps = [s for s in spans if s.name == "exec.step"]
        assert len(steps) == len(model.steps)
        for s in steps:
            assert s.attrs["modeled_cycles"] > 0
            assert s.attrs["exec_mode"] == "fast"
        # everything in the compile belongs to one trace
        compile_root = next(s for s in spans if s.name == "compile.model")
        tiler = [s for s in spans if s.name == "compile.tiler_solve"]
        assert all(s.trace_id == compile_root.trace_id for s in tiler)
        assert tracer.drain() == []  # disable returned the same tracer

    def test_disabled_tracing_still_executes(self):
        graph = build_small_cnn(hw=8, channels=8)
        soc = get_platform("diana", enable_analog=False)
        model = compile_model(graph, soc, CompilerConfig())
        result = Executor(soc, exec_mode="fast").run(
            model, random_inputs(graph, seed=0))
        assert result.output is not None
        assert get_tracer() is None


# ---------------------------------------------------------------------------
# disabled-overhead gate
# ---------------------------------------------------------------------------

GATE_PCT = 2.0  #: max disabled-tracing overhead on the fast path


def _best_of(fn, reps):
    """Minimum wall-clock of ``reps`` calls to ``fn`` (seconds)."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _guard_cost_ns(iters=200_000):
    """Per-step cost of the disabled-tracing guard, in nanoseconds.

    Times exactly what the executor adds per step when tracing is off:
    a ``get_tracer()`` module-global read plus an ``is not None``
    branch, against a calibration loop without them.
    """
    assert get_tracer() is None
    acc = 0

    def with_guard():
        nonlocal acc
        for _ in range(iters):
            tracer = get_tracer()
            if tracer is not None:  # pragma: no cover - tracing is off
                acc += 1

    def bare_loop():
        nonlocal acc
        for _ in range(iters):
            tracer = None
            if tracer is not None:  # pragma: no cover
                acc += 1

    return max(_best_of(with_guard, 5) - _best_of(bare_loop, 5),
               0.0) * 1e9 / iters


def test_disabled_overhead_gate():
    """``guard_ns * steps / fast_ns <= 2%`` on every zoo model.

    Machine-portable (both sides scale with the host) and deliberately
    pessimistic: the full microbenchmarked guard cost is charged to
    every step of the fastest observed run. The *enabled* cost is not
    gated here; it is ``obs.enabled_overhead_pct`` in BENCHMARK.json.
    """
    guard_ns = _guard_cost_ns()
    precision, soc_kwargs, cfg = CONFIGS["digital"]
    soc = get_platform("diana", **soc_kwargs)
    executor = Executor(soc, exec_mode="fast")
    for model in sorted(MLPERF_TINY):
        graph = MLPERF_TINY[model](precision=precision)
        compiled = compile_model(graph, soc, cfg)
        feeds = random_inputs(graph, seed=1)
        executor.run(compiled, feeds)  # warm caches
        fast_s = _best_of(lambda: executor.run(compiled, feeds), 3)
        steps = len(compiled.steps)
        overhead_pct = 100.0 * guard_ns * steps / (fast_s * 1e9)
        assert overhead_pct <= GATE_PCT, (
            f"{model}: projected disabled-tracing overhead "
            f"{overhead_pct:.3f}% exceeds the {GATE_PCT}% gate "
            f"(guard {guard_ns:.1f} ns x {steps} steps over "
            f"{fast_s * 1e3:.3f} ms)")


# ---------------------------------------------------------------------------
# fleet propagation (real worker processes)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def obs_artifact(tmp_path_factory):
    from repro.serve import pack_model

    graph = build_small_cnn(hw=8, channels=8)
    soc = get_platform("diana", enable_analog=False)
    path = tmp_path_factory.mktemp("obs") / "small.dna"
    pack_model(graph, soc, CompilerConfig(), str(path))
    return str(path), random_inputs(graph, seed=0)


def _fleet_cfg(**kw) -> FleetConfig:
    kw.setdefault("workers", 1)
    kw.setdefault("tick_s", 0.005)
    kw.setdefault("restart_base_s", 0.01)
    return FleetConfig(**kw)


class TestFleetPropagation:
    def test_request_ids_and_span_tree_across_pipe(self, obs_artifact):
        path, feeds = obs_artifact
        tracer = enable_tracing()
        with ServingFleet(_fleet_cfg()) as fleet:
            key = fleet.add_deployment(path, key="m")
            assert fleet.wait_ready(key, timeout=60)
            futs = [fleet.submit(key, feeds) for _ in range(3)]
            for fut in futs:
                fut.result(30)
        spans = disable_tracing().drain()
        assert [f.request_id for f in futs] == \
            ["m#000001", "m#000002", "m#000003"]
        roots = {s.attrs["request_id"]: s for s in spans
                 if s.name == "fleet.request"}
        assert set(roots) == {f.request_id for f in futs}
        by_id = {s.span_id: s for s in spans}
        parent_pid = roots["m#000001"].pid
        for rid, root in roots.items():
            tree = [s for s in spans
                    if s.trace_id == root.trace_id and s is not root]
            names = {s.name for s in tree}
            assert {"fleet.queue_wait", "worker.execute",
                    "exec.step"} <= names
            # worker spans really crossed a process boundary
            worker_exec = next(s for s in tree
                               if s.name == "worker.execute")
            assert worker_exec.pid != parent_pid
            assert worker_exec.attrs["request_id"] == rid
            # every span walks up to this request's root (parent ids
            # survived the pickle round trip)
            for s in tree:
                node = s
                while node.parent_id is not None:
                    node = by_id[node.parent_id]
                assert node is root
            assert root.attrs["status"] == "ok"

    def test_untraced_fleet_sends_no_spans(self, obs_artifact):
        path, feeds = obs_artifact
        assert get_tracer() is None
        with ServingFleet(_fleet_cfg()) as fleet:
            key = fleet.add_deployment(path, key="m")
            assert fleet.wait_ready(key, timeout=60)
            out = fleet.infer(key, feeds, timeout=30)
        assert out is not None

    def test_rejection_carries_request_id(self, obs_artifact):
        path, feeds = obs_artifact
        plan = FaultPlan(rules=(FaultRule(kind="queue_full", rate=1.0),))
        with ServingFleet(_fleet_cfg(faults=plan)) as fleet:
            key = fleet.add_deployment(path, key="m")
            with pytest.raises(ServingOverloadError) as exc_info:
                fleet.submit(key, feeds)
        exc = exc_info.value
        assert exc.request_id == "m#000001"
        assert "[request m#000001]" in str(exc)

    def test_worker_error_carries_request_id(self, obs_artifact):
        path, feeds = obs_artifact
        plan = FaultPlan(rules=(FaultRule(kind="exec_error", rate=1.0),))
        cfg = _fleet_cfg(faults=plan, retry=RetryPolicy(max_attempts=1))
        with ServingFleet(cfg) as fleet:
            key = fleet.add_deployment(path, key="m")
            assert fleet.wait_ready(key, timeout=60)
            fut = fleet.submit(key, feeds)
            with pytest.raises(ServingError) as exc_info:
                fut.result(30)
        exc = exc_info.value
        assert exc.request_id == fut.request_id
        assert f"[request {fut.request_id}]" in str(exc)

    def test_fleet_metrics_published(self, obs_artifact):
        path, feeds = obs_artifact
        with ServingFleet(_fleet_cfg()) as fleet:
            key = fleet.add_deployment(path, key="m")
            assert fleet.wait_ready(key, timeout=60)
            fleet.infer(key, feeds, timeout=30)
        snap = get_registry().snapshot()
        assert snap["counters"]['fleet_accepted_total{deployment="m"}'] == 1
        assert snap["counters"]['fleet_completed_total{deployment="m"}'] == 1
        hist = snap["histograms"][
            'fleet_request_ms{deployment="m",outcome="ok"}']
        assert hist["count"] == 1 and hist["sum"] > 0

    def test_breaker_transitions_surface_everywhere(self):
        reg = get_registry()
        events_seen = []
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_s=60.0, name="m",
            on_transition=lambda frm, to: events_seen.append((frm, to)))
        breaker.record_failure()
        assert events_seen == [("closed", "open")]
        assert breaker.transitions == [("closed", "open")]
        # and via the fleet's wiring the same callback publishes events
        from repro.serve.fleet import _Deployment
        dep = _Deployment("m", "/nope", FleetConfig(workers=0), 0)
        for _ in range(FleetConfig().breaker_failures):
            dep.breaker.record_failure()
        assert dep.breaker.state == "open"
        evs = reg.events("breaker_transition")
        assert evs and evs[-1]["frm"] == "closed" and \
            evs[-1]["to"] == "open"
        assert reg.counter("fleet_breaker_transitions_total",
                           deployment="m").value == 1

    def test_stats_surface_backoff_and_trips(self, obs_artifact):
        path, feeds = obs_artifact
        with ServingFleet(_fleet_cfg()) as fleet:
            key = fleet.add_deployment(path, key="m")
            assert fleet.wait_ready(key, timeout=60)
            stats = fleet.stats()[key]
            assert stats["breaker_trips"] == 0
            assert all("backoff_streak" in w for w in stats["workers"])
            table = fleet.format_stats()
        assert "trips" in table


# ---------------------------------------------------------------------------
# batcher/server metrics + loadgen ledger
# ---------------------------------------------------------------------------

class TestServingMetrics:
    def test_batcher_publishes_metrics_and_request_ids(self):
        from repro.serve import InferenceServer

        graph = build_small_cnn(hw=8, channels=8)
        soc = get_platform("diana", enable_analog=False)
        model = compile_model(graph, soc, CompilerConfig())
        feeds = random_inputs(graph, seed=0)
        with InferenceServer(max_wait_ms=0.0) as server:
            key = server.register_model(model, soc)
            fut = server.submit(key, feeds)
            fut.result(30)
            assert fut.request_id == f"{key}#000001"
            with pytest.raises(ServingError) as exc_info:
                server.submit(key, {})  # missing input
        assert exc_info.value.code == "S-INPUT"
        assert exc_info.value.request_id == f"{key}#000002"
        assert f"[request {key}#000002]" in str(exc_info.value)
        snap = get_registry().snapshot()
        assert snap["counters"][
            f'batcher_requests_total{{model="{key}"}}'] == 1
        assert snap["counters"]["server_models_registered_total"] == 1
        assert snap["histograms"][
            f'batcher_wall_ms{{model="{key}"}}']["count"] == 1
        assert any(e["name"] == "model_registered"
                   for e in snap["events"])

    def test_loadgen_ledger(self):
        from repro.eval.loadgen import (
            LEDGER_CAP, LoadReport, _count, format_load_report,
        )

        report = LoadReport()
        for i in range(LEDGER_CAP + 3):
            _count(report, ServingError(
                f"boom [request m#{i:06d}]", code="S-EXEC",
                request_id=f"m#{i:06d}"))
        _count(report, ServingError("no id attached", code="S-CRASH"))
        assert report.errors_by_code == {"S-EXEC": LEDGER_CAP + 3,
                                         "S-CRASH": 1}
        assert len(report.request_ids_by_code["S-EXEC"]) == LEDGER_CAP
        assert "S-CRASH" not in report.request_ids_by_code  # no id, no entry
        d = report.to_dict()
        assert d["request_ids_by_code"]["S-EXEC"][0] == "m#000000"
        text = format_load_report(report)
        assert "S-EXEC: m#000000" in text and "more)" in text

    @pytest.mark.parametrize("n", [4, 10, 20, 30, 100])
    @pytest.mark.parametrize("q", [50, 95, 99])
    def test_loadgen_percentile_is_nearest_rank(self, n, q):
        """rank = ceil(q/100 * n): p50 of 10 is the 5th sample, p95 of
        20 the 19th, p99 of 100 the 99th — never banker's-rounded up
        to the maximum."""
        from repro.eval.loadgen import percentile

        samples = [float(v) for v in range(n, 0, -1)]  # unsorted 1..n
        assert percentile(samples, q) == float(math.ceil(q / 100 * n))


class TestCLI:
    def test_trace_and_stats_commands(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "t.json")
        assert main(["trace", "dscnn", "--exec-mode", "fast",
                     "-o", out]) == 0
        printed = capsys.readouterr().out
        assert "per-layer report" in printed and "host share" in printed
        doc = json.loads(open(out).read())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "compile.model" in names and "exec.step" in names
        assert main(["stats", "--json"]) == 0
        assert main(["stats", "--prom"]) == 0
        assert main(["stats"]) == 0
