"""Chaos suite for the multi-process serving fleet.

Every recovery path of :class:`~repro.serve.ServingFleet` is driven by
a *deterministic* fault plan (:mod:`repro.serve.faults`) and asserted
exactly: no accepted request is ever lost or resolved twice, the
circuit breaker walks its closed → open → half-open → closed path on
schedule, dead workers restart with backoff, a corrupt artifact fails
terminally inside the worker, and repeated OOM deaths fall back to a
smaller-arena execution mode. The resilience primitives
(:mod:`repro.serve.resilience`) are unit-tested first with injected
clocks — no sleeping, no processes.

See ``docs/RESILIENCE.md`` for the fault-kind → recovery-path matrix
this suite implements.
"""

import asyncio
import random
import threading
import time

import numpy as np
import pytest

from repro.core import CompilerConfig
from repro.errors import (
    ReproError, ServingError, ServingExecutionError, ServingOverloadError,
    ServingTimeoutError, ServingUnavailableError, WorkerCrashError,
)
from repro.runtime import random_inputs, run_reference
from repro.serve import (
    FaultInjector, FaultPlan, FaultRule, FleetConfig, ServingFleet,
    corrupt_artifact, pack_model,
)
from repro.serve.resilience import (
    BREAKER_CLOSED, BREAKER_HALF_OPEN, BREAKER_OPEN, CircuitBreaker,
    CrashLoopBackoff, RetryPolicy,
)
from repro.soc import get_platform

from helpers import build_small_cnn


# ---------------------------------------------------------------------------
# resilience primitives (no processes, injected clocks)
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_delay_sequence_deterministic(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=1.0,
                             multiplier=2.0, jitter=0.5)
        a = [policy.delay_s(k, random.Random(42)) for k in (1, 2, 3)]
        b = [policy.delay_s(k, random.Random(42)) for k in (1, 2, 3)]
        assert a == b  # same seed, same jittered delays

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=0.35,
                             multiplier=2.0, jitter=0.0)
        rng = random.Random(0)
        assert policy.delay_s(1, rng) == pytest.approx(0.1)
        assert policy.delay_s(2, rng) == pytest.approx(0.2)
        assert policy.delay_s(3, rng) == pytest.approx(0.35)  # capped
        assert policy.delay_s(9, rng) == pytest.approx(0.35)

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_delay_s=1.0, jitter=0.5, multiplier=1.0)
        rng = random.Random(7)
        for _ in range(100):
            d = policy.delay_s(1, rng)
            assert 0.5 <= d <= 1.0  # [raw * (1 - jitter), raw]

    def test_attempt_budget(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.allows(2)
        assert not policy.allows(3)
        assert not RetryPolicy(max_attempts=1).allows(1)  # retries off

    def test_validation(self):
        with pytest.raises(ServingError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ServingError):
            RetryPolicy(jitter=1.5)


class TestCircuitBreaker:
    def _breaker(self, **kw):
        clock = [0.0]
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("recovery_s", 10.0)
        breaker = CircuitBreaker(clock=lambda: clock[0], **kw)
        return breaker, clock

    def test_trips_open_on_consecutive_failures(self):
        breaker, _ = self._breaker()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_success()  # resets the streak
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert breaker.blocked()
        assert breaker.retry_after() == pytest.approx(10.0)

    def test_full_recovery_path(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()       # open, recovery not elapsed
        clock[0] = 11.0
        assert not breaker.blocked()     # admission may pass again
        assert breaker.allow()           # dispatch consumes the probe
        assert breaker.state == BREAKER_HALF_OPEN
        assert not breaker.allow()       # probe budget exhausted
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.transitions == [
            (BREAKER_CLOSED, BREAKER_OPEN),
            (BREAKER_OPEN, BREAKER_HALF_OPEN),
            (BREAKER_HALF_OPEN, BREAKER_CLOSED),
        ]

    def test_probe_failure_reopens(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock[0] = 11.0
        assert breaker.allow()
        breaker.record_failure()         # the probe failed
        assert breaker.state == BREAKER_OPEN
        assert breaker.blocked()         # recovery clock restarted
        assert breaker.retry_after() == pytest.approx(10.0)


class TestCrashLoopBackoff:
    def test_exponential_with_cap_and_reset(self):
        clock = [0.0]
        backoff = CrashLoopBackoff(base_s=0.1, max_s=0.5, multiplier=2.0,
                                   reset_after_s=30.0,
                                   clock=lambda: clock[0])
        assert backoff.next_delay_s() == pytest.approx(0.1)
        assert backoff.next_delay_s() == pytest.approx(0.2)
        assert backoff.next_delay_s() == pytest.approx(0.4)
        assert backoff.next_delay_s() == pytest.approx(0.5)  # capped
        assert backoff.streak == 4
        clock[0] = 100.0  # quiet period forgives the streak
        assert backoff.next_delay_s() == pytest.approx(0.1)
        assert backoff.streak == 1


class TestFaultPlan:
    def test_rule_validation(self):
        with pytest.raises(ServingError):
            FaultRule(kind="nope", nth=(1,))
        with pytest.raises(ServingError):
            FaultRule(kind="crash")  # needs nth or rate
        with pytest.raises(ServingError):
            FaultRule(kind="crash", nth=(1,), rate=0.5)  # not both

    def test_nth_schedule_is_exact(self):
        plan = FaultPlan(rules=(FaultRule(kind="crash", nth=(2, 4)),))
        inj = plan.for_worker("m", 0, 0)
        fired = [inj.fires("crash") is not None for _ in range(5)]
        assert fired == [False, True, False, True, False]

    def test_rate_is_deterministic_per_scope(self):
        plan = FaultPlan(seed=3, rules=(FaultRule(kind="crash", rate=0.5),))
        a = [plan.for_worker("m", 0, 0).fires("crash") is not None
             for _ in range(20)]
        b = [plan.for_worker("m", 0, 0).fires("crash") is not None
             for _ in range(20)]
        assert a == b
        # a different scope draws a different stream
        c = [plan.for_worker("m", 1, 0).fires("crash") is not None
             for _ in range(20)]
        assert a != c

    def test_scope_filtering(self):
        plan = FaultPlan(rules=(
            FaultRule(kind="crash", worker=1, nth=(1,)),
            FaultRule(kind="queue_full", key="m", nth=(1,)),
        ))
        assert plan.for_worker("m", 0, 0).fires("crash") is None
        assert plan.for_worker("m", 1, 0).fires("crash") is not None
        # queue_full never reaches workers; crash never reaches admission
        assert plan.for_worker("m", 1, 0).fires("queue_full") is None
        assert plan.for_admission("m").fires("queue_full") is not None
        assert plan.for_admission("other").fires("queue_full") is None

    def test_none_injector_never_fires(self):
        inj = FaultInjector.none()
        assert all(inj.fires(k) is None for k in ("crash", "hang"))


# ---------------------------------------------------------------------------
# fleet integration (real worker processes)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    """One packed small-CNN deployment shared by the whole module."""
    graph = build_small_cnn(hw=8, channels=8)
    soc = get_platform("diana", enable_analog=False)
    path = tmp_path_factory.mktemp("fleet") / "small.dna"
    pack_model(graph, soc, CompilerConfig(), str(path))
    feeds = random_inputs(graph, seed=0)
    golden = np.asarray(run_reference(graph, feeds))
    return str(path), feeds, golden


def _config(**kw) -> FleetConfig:
    """Test tuning: tight ticks and backoffs so recovery is fast."""
    kw.setdefault("workers", 1)
    kw.setdefault("tick_s", 0.005)
    kw.setdefault("restart_base_s", 0.01)
    kw.setdefault("retry", RetryPolicy(max_attempts=3, base_delay_s=0.01,
                                       max_delay_s=0.1))
    kw.setdefault("worker_start_timeout_s", 120.0)
    return FleetConfig(**kw)


def _fleet(artifact_path, **kw):
    fleet = ServingFleet(_config(**kw)).start()
    key = fleet.add_deployment(artifact_path, key="m")
    return fleet, key


class TestFleetServing:
    def test_serves_correct_outputs(self, artifact):
        path, feeds, golden = artifact
        with ServingFleet(_config(workers=2)) as fleet:
            key = fleet.add_deployment(path, key="m")
            assert fleet.wait_ready(key, timeout=60)
            futs = [fleet.submit(key, feeds) for _ in range(8)]
            for fut in futs:
                assert np.array_equal(fut.result(timeout=60), golden)
            stats = fleet.stats()[key]
            assert stats["completed"] == 8
            assert stats["failed"] == 0
            assert stats["breaker_state"] == BREAKER_CLOSED

    def test_async_front_door(self, artifact):
        path, feeds, golden = artifact

        async def drive(fleet, key):
            outs = await asyncio.gather(
                *(fleet.ainfer(key, feeds) for _ in range(4)))
            return outs

        with ServingFleet(_config()) as fleet:
            key = fleet.add_deployment(path, key="m")
            assert fleet.wait_ready(key, timeout=60)
            for out in asyncio.run(drive(fleet, key)):
                assert np.array_equal(out, golden)

    def test_unknown_deployment_and_double_register(self, artifact):
        path, feeds, _ = artifact
        with ServingFleet(_config(workers=0)) as fleet:
            fleet.add_deployment(path, key="m")
            with pytest.raises(ServingError, match="unknown deployment"):
                fleet.submit("nope", feeds)
            with pytest.raises(ServingError, match="already registered"):
                fleet.add_deployment(path, key="m")


class TestWorkerCrashRecovery:
    def test_crash_is_retried_transparently(self, artifact):
        """Worker dies holding request 2; the fleet restarts it and the
        retried request completes — the caller never sees the crash."""
        path, feeds, golden = artifact
        plan = FaultPlan(rules=(
            FaultRule(kind="crash", worker=0, gen=0, nth=(2,)),))
        with ServingFleet(_config(faults=plan)) as fleet:
            key = fleet.add_deployment(path, key="m")
            assert fleet.wait_ready(key, timeout=60)
            for _ in range(4):
                out = fleet.infer(key, feeds, timeout=60)
                assert np.array_equal(out, golden)
            stats = fleet.stats()[key]
            assert stats["restarts"] == 1
            assert stats["retried"] == 1
            assert stats["completed"] == 4
            assert stats["failed"] == 0

    def test_crash_without_retry_budget_fails_typed(self, artifact):
        path, feeds, _ = artifact
        plan = FaultPlan(rules=(
            FaultRule(kind="crash", worker=0, nth=(1,)),))  # every gen
        with ServingFleet(_config(
                faults=plan, retry=RetryPolicy(max_attempts=1))) as fleet:
            key = fleet.add_deployment(path, key="m")
            assert fleet.wait_ready(key, timeout=60)
            fut = fleet.submit(key, feeds)
            with pytest.raises(WorkerCrashError) as info:
                fut.result(timeout=60)
            assert info.value.retryable
            assert info.value.code == "S-CRASH"
            assert fut.attempts == 1

    def test_crash_loop_backs_off_then_recovers(self, artifact):
        """Two consecutive incarnations die on arrival; the third one
        comes up and serves. Restart pacing grows with the streak."""
        path, feeds, golden = artifact
        plan = FaultPlan(rules=(
            FaultRule(kind="crash_start", worker=0, gen=0, nth=(1,)),
            FaultRule(kind="crash_start", worker=0, gen=1, nth=(1,)),))
        with ServingFleet(_config(faults=plan)) as fleet:
            key = fleet.add_deployment(path, key="m")
            assert fleet.wait_ready(key, timeout=60)
            out = fleet.infer(key, feeds, timeout=60)
            assert np.array_equal(out, golden)
            workers = fleet.stats()[key]["workers"]
            assert workers[0]["gen"] == 2
            assert workers[0]["restarts"] == 2

    def test_max_restarts_pins_worker_dead(self, artifact):
        path, feeds, _ = artifact
        plan = FaultPlan(rules=(
            FaultRule(kind="crash_start", worker=0, nth=(1,)),))
        with ServingFleet(_config(faults=plan, max_restarts=2)) as fleet:
            key = fleet.add_deployment(path, key="m")
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                workers = fleet.stats()[key]["workers"]
                if workers[0]["state"] == "dead":
                    break
                time.sleep(0.02)
            assert fleet.stats()[key]["workers"][0]["state"] == "dead"
            assert fleet.stats()[key]["restarts"] == 2


class TestDeadlines:
    def test_hung_worker_is_killed_and_caller_gets_timeout(self, artifact):
        path, feeds, golden = artifact
        plan = FaultPlan(rules=(
            FaultRule(kind="hang", worker=0, gen=0, nth=(1,), param=30.0),))
        with ServingFleet(_config(faults=plan,
                                  hang_grace_s=0.05)) as fleet:
            key = fleet.add_deployment(path, key="m")
            assert fleet.wait_ready(key, timeout=60)
            fut = fleet.submit(key, feeds, deadline_s=0.3)
            with pytest.raises(ServingTimeoutError) as info:
                fut.result(timeout=60)
            assert info.value.elapsed_s >= 0.3
            # the replacement worker serves the next request fine
            out = fleet.infer(key, feeds, timeout=60, deadline_s=30.0)
            assert np.array_equal(out, golden)
            stats = fleet.stats()[key]
            assert stats["timeouts"] == 1
            assert stats["restarts"] == 1

    def test_hang_timeout_retries_within_deadline(self, artifact):
        """A hang bounded by hang_timeout_s (deadline still open) is a
        crash-equivalent: kill, restart, retry, succeed."""
        path, feeds, golden = artifact
        plan = FaultPlan(rules=(
            FaultRule(kind="hang", worker=0, gen=0, nth=(1,), param=30.0),))
        with ServingFleet(_config(faults=plan,
                                  hang_timeout_s=0.15)) as fleet:
            key = fleet.add_deployment(path, key="m")
            assert fleet.wait_ready(key, timeout=60)
            out = fleet.infer(key, feeds, timeout=60, deadline_s=30.0)
            assert np.array_equal(out, golden)
            stats = fleet.stats()[key]
            assert stats["retried"] == 1
            assert stats["completed"] == 1

    def test_deadline_storm_expires_in_queue(self, artifact):
        """Requests whose deadline passes while queued die cheaply in
        the front door (workers=0: nothing ever dispatches)."""
        path, feeds, _ = artifact
        with ServingFleet(_config(workers=0)) as fleet:
            key = fleet.add_deployment(path, key="m")
            futs = [fleet.submit(key, feeds, deadline_s=0.05)
                    for _ in range(6)]
            for fut in futs:
                with pytest.raises(ServingTimeoutError):
                    fut.result(timeout=30)
            stats = fleet.stats()[key]
            assert stats["expired"] == 6
            assert stats["admitted"] == 0


class TestAdmissionControl:
    def test_queue_limit_fast_fails_with_hint(self, artifact):
        path, feeds, _ = artifact
        with ServingFleet(_config(workers=0, queue_limit=4,
                                  shed_watermark=4)) as fleet:
            key = fleet.add_deployment(path, key="m")
            for _ in range(4):
                fleet.submit(key, feeds)
            with pytest.raises(ServingOverloadError) as info:
                fleet.submit(key, feeds)
            assert info.value.code == "S-OVERLOAD"
            assert info.value.retryable
            assert info.value.retry_after > 0
            assert not info.value.shed
            assert fleet.stats()[key]["rejected"] == 1

    def test_low_priority_shed_first(self, artifact):
        """Above the watermark low-priority requests are shed while
        high-priority ones are still admitted — graceful degradation."""
        path, feeds, _ = artifact
        with ServingFleet(_config(workers=0, queue_limit=8,
                                  shed_watermark=2)) as fleet:
            key = fleet.add_deployment(path, key="m")
            fleet.submit(key, feeds)
            fleet.submit(key, feeds)
            with pytest.raises(ServingOverloadError) as info:
                fleet.submit(key, feeds, priority=-1)
            assert info.value.code == "S-OVERLOAD"
            assert info.value.shed
            fleet.submit(key, feeds, priority=0)  # still admitted
            assert fleet.stats()[key]["shed"] == 1
            assert fleet.stats()[key]["accepted"] == 3

    def test_injected_queue_full(self, artifact):
        path, feeds, _ = artifact
        plan = FaultPlan(rules=(
            FaultRule(kind="queue_full", nth=(1,)),))
        with ServingFleet(_config(workers=0, faults=plan)) as fleet:
            key = fleet.add_deployment(path, key="m")
            with pytest.raises(ServingOverloadError, match="injected"):
                fleet.submit(key, feeds)
            fleet.submit(key, feeds)  # second attempt is admitted


class TestCircuitBreakerIntegration:
    def test_breaker_opens_blocks_then_recovers(self, artifact):
        """Three deterministic execution failures trip the breaker;
        admission fast-fails while open; after recovery_s the probe
        succeeds and the breaker closes — the full transition path."""
        path, feeds, golden = artifact
        plan = FaultPlan(rules=(
            FaultRule(kind="exec_error", worker=0, gen=0, nth=(1, 2, 3)),))
        with ServingFleet(_config(faults=plan, breaker_failures=3,
                                  breaker_recovery_s=0.3)) as fleet:
            key = fleet.add_deployment(path, key="m")
            assert fleet.wait_ready(key, timeout=60)
            for _ in range(3):
                with pytest.raises(ServingExecutionError):
                    fleet.infer(key, feeds, timeout=60)
            assert fleet.stats()[key]["breaker_state"] == BREAKER_OPEN
            with pytest.raises(ServingUnavailableError) as info:
                fleet.submit(key, feeds)
            assert info.value.code == "S-UNAVAILABLE"
            assert info.value.retry_after is not None
            time.sleep(0.4)  # recovery window elapses
            out = fleet.infer(key, feeds, timeout=60)  # the probe
            assert np.array_equal(out, golden)
            stats = fleet.stats()[key]
            assert stats["breaker_state"] == BREAKER_CLOSED
            assert stats["breaker_transitions"] == [
                (BREAKER_CLOSED, BREAKER_OPEN),
                (BREAKER_OPEN, BREAKER_HALF_OPEN),
                (BREAKER_HALF_OPEN, BREAKER_CLOSED),
            ]


    def test_client_input_errors_leave_the_breaker_closed(self, artifact):
        """Malformed requests are the client's fault: each fails with
        S-INPUT, the breaker stays closed and valid traffic flows."""
        path, feeds, golden = artifact
        with ServingFleet(_config(breaker_failures=3)) as fleet:
            key = fleet.add_deployment(path, key="m")
            assert fleet.wait_ready(key, timeout=60)
            for _ in range(5):
                with pytest.raises(ServingError) as info:
                    fleet.infer(key, {"bogus": [1]}, timeout=60)
                assert info.value.code == "S-INPUT"
            assert fleet.stats()[key]["breaker_state"] == BREAKER_CLOSED
            assert np.array_equal(fleet.infer(key, feeds, timeout=60),
                                  golden)


class TestArtifactCorruption:
    def test_corrupt_artifact_fails_terminally(self, artifact, tmp_path):
        """Workers hit the load_artifact(verify=True) gate on a corrupt
        .dna; the deployment is marked terminally failed and admission
        reports a non-retryable unavailability."""
        path, feeds, _ = artifact
        bad = tmp_path / "corrupt.dna"
        bad.write_bytes(open(path, "rb").read())
        corrupt_artifact(str(bad), seed=1)
        with ServingFleet(_config(workers=2)) as fleet:
            key = fleet.add_deployment(str(bad), key="bad")
            assert not fleet.wait_ready(key, timeout=60)
            with pytest.raises(ServingUnavailableError) as info:
                fleet.submit(key, feeds)
            assert not info.value.retryable
            assert "terminally" in str(info.value)

    def test_corrupt_artifact_fails_queued_requests(self, artifact,
                                                    tmp_path):
        path, feeds, _ = artifact
        bad = tmp_path / "corrupt2.dna"
        bad.write_bytes(open(path, "rb").read())
        corrupt_artifact(str(bad), seed=2)
        with ServingFleet(_config()) as fleet:
            key = fleet.add_deployment(str(bad), key="bad")
            fut = fleet.submit(key, feeds)  # admitted before load fails
            with pytest.raises(ServingUnavailableError):
                fut.result(timeout=60)

    def test_corrupting_actually_breaks_the_load(self, artifact, tmp_path):
        from repro.serve import load_artifact

        path, _, _ = artifact
        bad = tmp_path / "corrupt3.dna"
        bad.write_bytes(open(path, "rb").read())
        corrupt_artifact(str(bad), seed=3)
        with pytest.raises((ReproError, OSError, ValueError, EOFError)):
            load_artifact(str(bad), verify=True)


class TestOomFallback:
    def test_repeated_oom_switches_exec_mode(self, artifact):
        """Two OOM deaths flip the deployment to the fallback exec
        mode; restarted workers serve bit-identical outputs (tiled and
        fast executors agree by construction)."""
        path, feeds, golden = artifact
        plan = FaultPlan(rules=(
            FaultRule(kind="oom_crash", worker=0, gen=0, nth=(1,)),
            FaultRule(kind="oom_crash", worker=0, gen=1, nth=(1,)),))
        with ServingFleet(_config(
                faults=plan, oom_fallback_after=2,
                fallback_exec_mode="tiled",
                retry=RetryPolicy(max_attempts=4, base_delay_s=0.01,
                                  max_delay_s=0.1))) as fleet:
            key = fleet.add_deployment(path, key="m")
            assert fleet.wait_ready(key, timeout=60)
            out = fleet.infer(key, feeds, timeout=60)
            assert np.array_equal(out, golden)
            stats = fleet.stats()[key]
            assert stats["exec_mode"] == "tiled"
            assert stats["oom_deaths"] == 2
            assert stats["fallbacks"] == 1
            assert stats["completed"] == 1

    def test_oom_without_retry_budget_fails_coded(self, artifact):
        """With no retry budget the OOM death reaches the caller as a
        coded, request-tagged error instead of being retried away."""
        path, feeds, _ = artifact
        plan = FaultPlan(rules=(
            FaultRule(kind="oom_crash", worker=0, gen=0, nth=(1,)),))
        with ServingFleet(_config(
                faults=plan, retry=RetryPolicy(max_attempts=1))) as fleet:
            key = fleet.add_deployment(path, key="m")
            assert fleet.wait_ready(key, timeout=60)
            fut = fleet.submit(key, feeds)
            with pytest.raises(WorkerCrashError) as info:
                fut.result(timeout=60)
            assert info.value.code == "S-OOM"
            assert info.value.request_id == fut.request_id
            assert fleet.stats()[key]["oom_deaths"] == 1


class TestShutdown:
    def test_shutdown_fails_leftover_futures(self, artifact):
        """shutdown(wait=False) with queued work: every accepted future
        fails with the typed S-SHUTDOWN error — none hangs."""
        path, feeds, _ = artifact
        fleet, key = _fleet(path, workers=0)
        futs = [fleet.submit(key, feeds) for _ in range(5)]
        counters = fleet.shutdown(wait=False, timeout=5.0)
        assert counters[key]["failed"] == 5
        for fut in futs:
            assert fut.done()
            with pytest.raises(ServingError) as info:
                fut.result(timeout=0)
            assert info.value.code == "S-SHUTDOWN"

    def test_shutdown_is_idempotent_and_drains(self, artifact):
        path, feeds, golden = artifact
        fleet, key = _fleet(path, workers=1)
        assert fleet.wait_ready(key, timeout=60)
        futs = [fleet.submit(key, feeds) for _ in range(4)]
        counters = fleet.shutdown(wait=True, timeout=60.0)
        assert counters[key]["completed"] == 4
        assert fleet.shutdown() == {}  # second call is a no-op
        for fut in futs:
            assert np.array_equal(fut.result(timeout=0), golden)
        with pytest.raises(ServingError, match="shut down"):
            fleet.submit(key, feeds)


class TestChaosMix:
    def test_zero_lost_under_chaos(self, artifact):
        """The flagship invariant: under a seeded mix of crashes,
        hangs, OOM deaths, exec faults and queue-full rejections, with
        concurrent closed-loop clients, every accepted request either
        completes or fails with a typed serving error — zero lost,
        zero double-resolved (InferenceFuture asserts single settlement)."""
        from repro.eval.loadgen import run_load

        path, feeds, _ = artifact
        plan = FaultPlan(seed=11, rules=(
            FaultRule(kind="crash", rate=0.04),
            FaultRule(kind="oom_crash", rate=0.01),
            FaultRule(kind="hang", rate=0.02, param=0.3),
            FaultRule(kind="exec_error", rate=0.03),
            FaultRule(kind="queue_full", rate=0.03),
        ))
        with ServingFleet(_config(workers=2, faults=plan,
                                  queue_limit=64)) as fleet:
            key = fleet.add_deployment(path, key="m")
            assert fleet.wait_ready(key, timeout=60)
            report = run_load(fleet, key, feeds, clients=4,
                              requests_per_client=20, deadline_s=30.0,
                              result_timeout_s=120.0)
            stats = fleet.stats()[key]
        assert report.lost == 0
        assert report.issued == 80
        assert report.completed + report.failed + report.timeouts \
            == report.accepted
        assert report.completed > 0
        # fleet-side ledger agrees with the client-side one
        assert stats["admitted"] == 0
        assert stats["completed"] == report.completed
        for code in report.errors_by_code:
            assert code.startswith("S-")

    def test_concurrent_submitters_during_worker_kill(self, artifact):
        """Kill a worker (externally, not via the fault plan) while
        multiple threads submit: nothing is lost."""
        path, feeds, golden = artifact
        with ServingFleet(_config(workers=2)) as fleet:
            key = fleet.add_deployment(path, key="m")
            assert fleet.wait_ready(key, timeout=60)
            results: list = []
            lock = threading.Lock()

            def client():
                for _ in range(10):
                    try:
                        out = fleet.infer(key, feeds, timeout=60,
                                          deadline_s=30.0)
                        with lock:
                            results.append(np.array_equal(out, golden))
                    except ServingError as exc:
                        with lock:
                            results.append(exc.code)

            threads = [threading.Thread(target=client) for _ in range(3)]
            for t in threads:
                t.start()
            time.sleep(0.05)
            with fleet._lock:  # pick a live victim under the lock
                victims = [w.proc for w
                           in fleet._deployments[key].workers
                           if w.proc is not None and w.proc.is_alive()]
            if victims:
                victims[0].kill()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        assert len(results) == 30
        assert all(r is True or (isinstance(r, str) and r.startswith("S-"))
                   for r in results)
        assert sum(1 for r in results if r is True) > 0
