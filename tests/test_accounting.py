"""The accounting pass runs once per (model, platform), not per inference."""

import dataclasses

import numpy as np
import pytest

from repro.core import CompilerConfig, compile_model
from repro.core.program import AccelStep
from repro.errors import OutOfMemoryError
from repro.frontend.modelzoo import MLPERF_TINY
from repro.runtime import Executor, accounting, executor, random_inputs
from repro.soc import DEFAULT_PARAMS, Platform, get_platform


@pytest.fixture
def calls(monkeypatch):
    """Count entries into the cost model and the L2 walk."""
    counts = {"accel_cost": 0, "fresh_l2": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(accounting, "accumulate_accel_cost", counted(
        "accel_cost", accounting.accumulate_accel_cost))
    monkeypatch.setattr(Platform, "fresh_l2", counted(
        "fresh_l2", Platform.fresh_l2))
    return counts


def test_accounting_computed_once_per_model_and_platform(calls):
    graph = MLPERF_TINY["resnet"](precision="int8")
    soc = get_platform("diana", enable_analog=False)
    model = compile_model(graph, soc, CompilerConfig())
    accel_steps = sum(isinstance(s, AccelStep) for s in model.steps)
    feeds = random_inputs(graph, seed=0)
    pair = {n: np.concatenate([a, a], axis=0) for n, a in feeds.items()}
    assert calls == {"accel_cost": 0, "fresh_l2": 0}  # not at compile time

    ex = Executor(soc, exec_mode="fast")
    runs = [ex.run(model, feeds) for _ in range(3)]
    batched = ex.run_batch(model, pair)
    assert calls == {"accel_cost": accel_steps, "fresh_l2": 1}
    # ...and shared by reference, across executors and modes
    tiled = Executor(soc, exec_mode="tiled").run(model, feeds)
    assert all(r.perf is runs[0].perf for r in runs + [batched, tiled])
    assert calls == {"accel_cost": accel_steps, "fresh_l2": 1}

    # a second platform object recomputes (same numbers, new object)
    other = Executor(get_platform("diana", enable_analog=False),
                     exec_mode="fast").run(model, feeds)
    assert calls == {"accel_cost": 2 * accel_steps, "fresh_l2": 2}
    assert other.perf is not runs[0].perf
    assert other.total_cycles == runs[0].total_cycles
    assert other.l2_peak_bytes == runs[0].l2_peak_bytes


def test_over_capacity_plan_raises_before_any_kernel(monkeypatch):
    graph = MLPERF_TINY["resnet"](precision="int8")
    soc = get_platform("diana", enable_analog=False)
    model = compile_model(graph, soc, CompilerConfig())
    tight = get_platform("diana", enable_analog=False, params=dataclasses.replace(
        DEFAULT_PARAMS, l2_bytes=model.l2_required_bytes - 1))

    def no_kernel(*args, **kwargs):
        raise AssertionError("a kernel ran before the capacity check")

    monkeypatch.setattr(executor, "execute_layer_fast", no_kernel)
    ex = Executor(tight, exec_mode="fast")
    for _ in range(2):  # a failed pass memoizes nothing
        with pytest.raises(OutOfMemoryError, match="exceeds capacity"):
            ex.run(model, random_inputs(graph, seed=0))
