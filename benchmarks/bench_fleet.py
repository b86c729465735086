"""Fleet kill-a-worker scenario: tail latency when a worker dies mid-load.

Runs the supervised multi-process :class:`~repro.serve.ServingFleet`
on resnet8 (fast execution mode, 16 kB L1, 2 workers) under 4
closed-loop clients, twice: fault-free, then with a deterministic
fault plan that kills worker 0 mid-run. The fleet must retry the
orphaned request, restart the worker, lose nothing, and keep the p99
within ``MAX_P99_INFLATION`` (2x) of the fault-free run.

Latency and throughput under fault-free load are ``serve_p50_ms``,
``serve_rps`` and ``serve.p99_ms`` of the ``resnet8-digital-fleet``
workload in ``BENCHMARK.json``; this scenario is the one the e2e
harness does not have yet.

Runs standalone (``python benchmarks/bench_fleet.py``, exit 1 on a
broken bound) and under pytest (quick sizes, accounting invariants
only — a 48-request p99 ratio is noise).
"""

import argparse
import pathlib
import sys
import tempfile

from repro.eval.harness import CONFIGS
from repro.eval.loadgen import run_load
from repro.frontend.modelzoo import MLPERF_TINY
from repro.runtime import random_inputs
from repro.serve import FaultPlan, FaultRule, FleetConfig, ServingFleet, \
    pack_model
from repro.serve.resilience import RetryPolicy
from repro.soc import get_platform

MODEL = "resnet"
CONFIG = "digital"
L1_BUDGET = 16 * 1024  # genuinely tiled schedules
WORKERS = 2
CLIENTS = 4
REQUESTS_PER_CLIENT = 150
MAX_P99_INFLATION = 2.0


class FleetBenchError(AssertionError):
    """A fleet invariant (zero lost, bounded p99) did not hold."""


def _fleet_config(faults=None) -> FleetConfig:
    """Fast-recovery tuning: crash detection and retry backoff well
    under one p99 so a worker kill stays inside the latency budget."""
    return FleetConfig(
        workers=WORKERS, exec_mode="fast", tick_s=0.005,
        restart_base_s=0.02,
        retry=RetryPolicy(max_attempts=4, base_delay_s=0.02,
                          max_delay_s=0.5),
        queue_limit=256, shed_watermark=256, faults=faults)


def _kill_one_worker_plan(nth: int) -> FaultPlan:
    """Deterministic chaos: worker 0's first incarnation dies on its
    ``nth`` request (SIGKILL-like, request in hand)."""
    return FaultPlan(seed=7, rules=(
        FaultRule(kind="crash", worker=0, gen=0, nth=(nth,)),))


def _run_load(path, feeds, requests_per_client, faults=None):
    with ServingFleet(_fleet_config(faults)) as fleet:
        key = fleet.add_deployment(str(path), key="bench")
        if not fleet.wait_ready(key, timeout=120):
            raise FleetBenchError("fleet worker(s) failed to become ready")
        fleet.infer(key, feeds, timeout=60)  # warm both workers
        fleet.infer(key, feeds, timeout=60)
        load = run_load(fleet, key, feeds, clients=CLIENTS,
                        requests_per_client=requests_per_client,
                        deadline_s=60.0)
        stats = fleet.stats()[key]
    if load.lost:
        raise FleetBenchError(f"{load.lost} lost request(s)")
    if load.completed + load.failed != load.accepted:
        raise FleetBenchError("accepted requests not fully accounted")
    return load, stats


def run_scenario(requests_per_client=REQUESTS_PER_CLIENT) -> dict:
    precision, soc_kwargs, cfg = CONFIGS[CONFIG]
    graph = MLPERF_TINY[MODEL](precision=precision)
    soc = get_platform("diana", **soc_kwargs)
    feeds = random_inputs(graph, seed=0)
    nth = max(requests_per_client * CLIENTS // (2 * WORKERS), 2)

    with tempfile.TemporaryDirectory(prefix="bench-fleet-") as tmp:
        path = pathlib.Path(tmp) / "bench.dna"
        pack_model(graph, soc, cfg.with_overrides(l1_budget=L1_BUDGET),
                   str(path), validate_runs=1)
        base_load, _ = _run_load(path, feeds, requests_per_client)
        chaos_load, chaos_stats = _run_load(
            path, feeds, requests_per_client,
            faults=_kill_one_worker_plan(nth))
    if chaos_stats["restarts"] < 1:
        raise FleetBenchError("chaos run killed no worker")

    base = base_load.latency_summary()
    chaos = chaos_load.latency_summary()
    return {
        "fault": f"kill worker 0 on request {nth}",
        "requests": chaos_load.issued,
        "completed": chaos_load.completed,
        "failed": chaos_load.failed,
        "lost": chaos_load.lost,
        "retried": chaos_stats["retried"],
        "restarts": chaos_stats["restarts"],
        "base_p50_ms": base["p50_ms"],
        "base_p99_ms": base["p99_ms"],
        "p50_ms": chaos["p50_ms"],
        "p99_ms": chaos["p99_ms"],
        "p99_inflation": round(
            chaos["p99_ms"] / max(base["p99_ms"], 1e-9), 3),
    }


def _format(r: dict) -> str:
    return "\n".join([
        f"fleet kill-a-worker ({MODEL}8 {CONFIG}, {WORKERS} workers, "
        f"{CLIENTS} clients, fast mode):",
        f"  fault-free: p50 {r['base_p50_ms']:.2f} ms  "
        f"p99 {r['base_p99_ms']:.2f} ms",
        f"  {r['fault']}: p50 {r['p50_ms']:.2f} ms  "
        f"p99 {r['p99_ms']:.2f} ms  lost {r['lost']}  "
        f"retried {r['retried']}  restarts {r['restarts']}",
        f"  p99 inflation: {r['p99_inflation']:.2f}x "
        f"(budget {MAX_P99_INFLATION:.1f}x)",
    ])


def test_fleet_latency(report):
    record = run_scenario(requests_per_client=12)
    assert record["lost"] == 0
    assert record["restarts"] >= 1
    report(_format(record))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests-per-client", type=int,
                        default=REQUESTS_PER_CLIENT)
    args = parser.parse_args(argv)
    try:
        record = run_scenario(args.requests_per_client)
        if record["p99_inflation"] > MAX_P99_INFLATION:
            raise FleetBenchError(
                f"p99 inflated {record['p99_inflation']:.2f}x under a "
                f"worker kill (budget {MAX_P99_INFLATION}x)")
    except FleetBenchError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print(_format(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
