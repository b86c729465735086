"""Serving-lifecycle bug sweep: stop/submit races, LRU pinning,
shutdown ordering.

Regression tests for the PR-4 lifecycle edge cases:

* a ``DynamicBatcher.submit`` racing ``stop()`` must either be rejected
  with :class:`ServingError` or execute — never be dropped behind the
  stop sentinel with its future hanging forever;
* LRU eviction must pin deployments with in-flight requests instead of
  draining their batcher against an unregistered model;
* ``InferenceServer.shutdown()`` while a load generator is mid-flight
  must drain: every accepted future resolves exactly once.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import CompilerConfig, compile_model
from repro.errors import ServingError
from repro.runtime import Executor, random_inputs, run_reference
from repro.serve import InferenceServer
from repro.serve.batcher import DynamicBatcher, InferenceFuture
from repro.soc import get_platform

from helpers import build_small_cnn


@pytest.fixture(scope="module")
def small_deployment():
    graph = build_small_cnn(hw=8, channels=8)
    soc = get_platform("diana", enable_analog=False)
    compiled = compile_model(graph, soc, CompilerConfig())
    feeds = random_inputs(graph, seed=0)
    golden = np.asarray(run_reference(graph, feeds))
    return compiled, soc, feeds, golden


class TestBatcherStopRace:
    def test_post_stop_submit_rejected(self, small_deployment):
        compiled, soc, feeds, _ = small_deployment
        b = DynamicBatcher(compiled, Executor(soc, exec_mode="fast"))
        b.stop(wait=True)
        with pytest.raises(ServingError, match="shut down"):
            b.submit(feeds)

    def test_racing_submitter_never_hangs(self, small_deployment):
        """Hammer submit from several threads while stop() lands in the
        middle: every accepted future must resolve (the old code could
        enqueue a request behind the _STOP sentinel and drop it)."""
        compiled, soc, feeds, golden = small_deployment
        for round_ in range(5):
            b = DynamicBatcher(compiled, Executor(soc, exec_mode="fast"),
                               max_batch_size=4, max_wait_ms=0.5)
            accepted: list = []
            accepted_lock = threading.Lock()
            go = threading.Event()

            def submitter():
                go.wait()
                while True:
                    try:
                        fut = b.submit(feeds)
                    except ServingError:
                        return
                    with accepted_lock:
                        accepted.append(fut)

            threads = [threading.Thread(target=submitter)
                       for _ in range(4)]
            for t in threads:
                t.start()
            go.set()
            time.sleep(0.02 + 0.01 * round_)  # let the race develop
            b.stop(wait=True, timeout=60)
            for t in threads:
                t.join(30)
            assert accepted, "race test submitted nothing"
            for fut in accepted:
                # a dropped request would block forever; the bound is
                # generous because the batch may still be executing
                out = fut.result(timeout=30)
                assert np.array_equal(out, golden)
            assert b.pending == 0
            assert b.stats().requests == len(accepted)

    def test_stop_idempotent_and_concurrent(self, small_deployment):
        compiled, soc, feeds, _ = small_deployment
        b = DynamicBatcher(compiled, Executor(soc, exec_mode="fast"))
        fut = b.submit(feeds)
        threads = [threading.Thread(target=b.stop) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        b.stop(wait=True)
        assert fut.result(10) is not None


class TestLruPinning:
    def _server(self, **kw):
        return InferenceServer(capacity=1, max_batch_size=8, **kw)

    def test_busy_deployment_is_pinned(self, small_deployment):
        """Registering past capacity while the LRU model has queued
        requests must NOT evict it: the registry temporarily exceeds
        capacity and reaps once the queue drains."""
        compiled, soc, feeds, golden = small_deployment
        other = compile_model(build_small_cnn(seed=7, hw=8, channels=4),
                              soc, CompilerConfig())
        # a long linger keeps the first request in-flight while we
        # register over capacity
        with self._server(max_wait_ms=400.0) as srv:
            k1 = srv.register_model(compiled, soc)
            fut = srv.submit(k1, feeds)
            assert srv._lookup(k1, touch=False).batcher.pending == 1
            k2 = srv.register_model(other, soc)
            # over capacity, but the busy model survived
            assert set(srv.models()) == {k1, k2}
            assert np.array_equal(fut.result(30), golden)
            # once drained, the next submit reaps the idle overflow
            deadline = time.monotonic() + 10
            while (srv._lookup(k1, touch=False).batcher.pending
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            srv.submit(k2, random_inputs(other.graph, seed=1)).result(30)
            assert srv.models() == [k2]

    def test_idle_lru_still_evicted(self, small_deployment):
        compiled, soc, feeds, _ = small_deployment
        other = compile_model(build_small_cnn(seed=7, hw=8, channels=4),
                              soc, CompilerConfig())
        with self._server(max_wait_ms=0.0) as srv:
            k1 = srv.register_model(compiled, soc)
            fut = srv.submit(k1, feeds)
            fut.result(30)  # drain: k1 now idle
            deadline = time.monotonic() + 10
            while (srv._lookup(k1, touch=False).batcher.pending
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            k2 = srv.register_model(other, soc)
            assert srv.models() == [k2]
            with pytest.raises(ServingError, match="evicted"):
                srv.submit(k1, feeds)


class TestShutdownOrdering:
    def test_shutdown_mid_flight_drains_exactly_once(
            self, small_deployment, monkeypatch):
        """Clients submit in a loop while the server shuts down: every
        accepted future resolves exactly once (no losses, no double
        resolution), and post-shutdown submits raise."""
        compiled, soc, feeds, golden = small_deployment

        resolutions: dict = {}
        res_lock = threading.Lock()
        orig_settle = InferenceFuture._settle

        def counting_settle(self, output, error):
            with res_lock:
                resolutions[id(self)] = resolutions.get(id(self), 0) + 1
            orig_settle(self, output, error)

        monkeypatch.setattr(InferenceFuture, "_settle", counting_settle)

        srv = InferenceServer(max_batch_size=4, max_wait_ms=1.0)
        key = srv.register_model(compiled, soc)
        accepted: list = []
        accepted_lock = threading.Lock()
        rejected = threading.Event()

        def client():
            while True:
                try:
                    fut = srv.submit(key, feeds)
                except ServingError:
                    rejected.set()
                    return
                with accepted_lock:
                    accepted.append(fut)

        threads = [threading.Thread(target=client) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.05)
        srv.shutdown(wait=True)
        for t in threads:
            t.join(30)

        assert accepted and rejected.is_set()
        for fut in accepted:
            assert np.array_equal(fut.result(timeout=30), golden)
        counts = [resolutions.get(id(f), 0) for f in accepted]
        assert counts == [1] * len(accepted), "lost/double-resolved future"
        with pytest.raises(ServingError, match="shut down"):
            srv.submit(key, feeds)

    def test_shutdown_races_register_and_submit(self, small_deployment):
        """Shutdown lands while several threads register new models and
        several submit: no deployment leaks past shutdown (the registry
        empties, every batcher stops) and every accepted future
        resolves or fails with a ServingError — none hangs."""
        compiled, soc, feeds, golden = small_deployment
        variants = [compile_model(
            build_small_cnn(seed=10 + i, hw=8, channels=4), soc,
            CompilerConfig()) for i in range(3)]

        for round_ in range(3):
            srv = InferenceServer(capacity=8, max_batch_size=4,
                                  max_wait_ms=1.0)
            key = srv.register_model(compiled, soc)
            accepted: list = []
            lock = threading.Lock()
            batchers: list = []
            go = threading.Event()

            def registrar(idx: int):
                go.wait()
                while True:
                    try:
                        k = srv.register_model(variants[idx], soc,
                                               fingerprint=f"r{round_}")
                        with lock:
                            served = srv._lookup(k, touch=False)
                            batchers.append(served.batcher)
                    except ServingError:
                        return

            def submitter():
                go.wait()
                while True:
                    try:
                        fut = srv.submit(key, feeds)
                    except ServingError:
                        return
                    with lock:
                        accepted.append(fut)

            threads = ([threading.Thread(target=registrar, args=(i,))
                        for i in range(len(variants))]
                       + [threading.Thread(target=submitter)
                          for _ in range(3)])
            for t in threads:
                t.start()
            go.set()
            time.sleep(0.02 + 0.01 * round_)
            reports = srv.shutdown(wait=True)
            for t in threads:
                t.join(30)
            assert not any(t.is_alive() for t in threads)
            # no deployment leaks: registry empty, every batcher the
            # registrars ever created is stopped (drained or evicted)
            assert srv.models() == []
            deadline = time.monotonic() + 30
            with lock:
                snapshot = list(batchers)
            for b in snapshot:
                while not b.stopped and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert b.stopped
                assert b.pending == 0
            # every accepted future resolved: output or serving error
            assert accepted, "race test submitted nothing"
            for fut in accepted:
                try:
                    out = fut.result(timeout=30)
                except ServingError:
                    continue
                assert np.array_equal(out, golden)
            # shutdown accounted its drains exactly
            for report in reports.values():
                assert report.unresolved == 0
                assert (report.drained + report.failed
                        == report.pending_at_stop)


class TestDrainReportAndTimeouts:
    def test_result_wait_timeout_is_typed(self, small_deployment):
        """InferenceFuture.result(timeout=) on a still-pending future
        raises ServingTimeoutError carrying the model key and elapsed
        wall time — not a bare queue.Empty or generic error."""
        from repro.errors import ServingTimeoutError

        compiled, soc, feeds, _ = small_deployment
        # a huge linger guarantees the batch has not executed yet
        b = DynamicBatcher(compiled, Executor(soc, exec_mode="fast"),
                           max_batch_size=64, max_wait_ms=10_000.0,
                           name="slowpoke")
        try:
            fut = b.submit(feeds)
            with pytest.raises(ServingTimeoutError) as info:
                fut.result(timeout=0.05)
            assert info.value.model == "slowpoke"
            assert info.value.elapsed_s >= 0.05
            assert info.value.code == "S-TIMEOUT"
        finally:
            b.stop(wait=True)

    def test_stop_reports_drained_requests(self, small_deployment):
        compiled, soc, feeds, _ = small_deployment
        b = DynamicBatcher(compiled, Executor(soc, exec_mode="fast"),
                           max_batch_size=4, max_wait_ms=50.0)
        futs = [b.submit(feeds) for _ in range(5)]
        report = b.stop(wait=True, timeout=60)
        assert report.pending_at_stop == 5
        assert report.drained == 5
        assert report.failed == 0
        assert report.unresolved == 0
        assert "drained" in str(report)
        for fut in futs:
            assert fut.result(timeout=0) is not None

    def test_server_shutdown_returns_reports(self, small_deployment):
        compiled, soc, feeds, _ = small_deployment
        with InferenceServer(max_batch_size=4, max_wait_ms=50.0) as srv:
            key = srv.register_model(compiled, soc)
            futs = [srv.submit(key, feeds) for _ in range(3)]
            reports = srv.shutdown(wait=True)
            assert set(reports) == {key}
            assert reports[key].pending_at_stop == 3
            assert reports[key].drained == 3
            for fut in futs:
                assert fut.result(timeout=0) is not None
            assert srv.shutdown() == {}  # idempotent, second call empty
