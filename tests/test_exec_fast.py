"""Fast-vs-tiled execution equivalence — the engine's core contract.

Fast mode must be byte-identical to tiled mode (the verification path)
and must charge exactly the same cycles, across layer geometries,
precision variants and random whole-network topologies; batched runs
must match per-sample loops sample by sample.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compiler import compile_model
from repro.core.config import HTVM
from repro.errors import SimulationError, TilingError
from repro.frontend.modelzoo.random_net import RandomNetConfig, random_cnn
from repro.ir import GraphBuilder
from repro.runtime import (
    Executor, random_inputs, random_inputs_batched, run_reference,
    run_reference_batched,
)
from repro.runtime.reference import compile_plan
from repro.soc import get_platform


def _records_equal(a, b):
    """Per-kernel cycle breakdowns are exactly equal (not approximately)."""
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.name == rb.name and ra.target == rb.target
        assert ra.cycles == rb.cycles
        assert ra.num_tiles == rb.num_tiles
        assert ra.macs == rb.macs


def _assert_modes_equal(graph, soc, cfg, seed=0):
    model = compile_model(graph, soc, cfg)
    feeds = random_inputs(graph, seed=seed)
    tiled = Executor(soc, exec_mode="tiled").run(model, feeds)
    fast = Executor(soc, exec_mode="fast").run(model, feeds)
    np.testing.assert_array_equal(tiled.output, fast.output)
    assert tiled.total_cycles == fast.total_cycles
    assert tiled.peak_cycles == fast.peak_cycles
    assert tiled.l2_peak_bytes == fast.l2_peak_bytes
    _records_equal(tiled.perf, fast.perf)
    return model, feeds, fast


class TestSingleLayerEquivalence:
    """Strides / pads / groups / precision sweeps on one conv layer."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("depthwise", [False, True])
    def test_conv_variants(self, stride, pad, depthwise):
        b = GraphBuilder(seed=stride * 4 + pad * 2 + depthwise)
        x = b.input("x", (1, 12, 15, 15), "int8")
        if depthwise:
            y = b.dwconv2d_requant(x, kernel=3, strides=stride, padding=pad)
        else:
            y = b.conv2d_requant(x, 20, kernel=3, strides=stride, padding=pad)
        graph = b.finish(y)
        soc = get_platform("diana", enable_analog=False)
        cfg = HTVM.with_overrides(l1_budget=2048, check_l2=False)
        _assert_modes_equal(graph, soc, cfg)

    def test_analog_precision_variant(self):
        # ternary weights / int7 activations on the AiMC core
        b = GraphBuilder(seed=5)
        x = b.input("x", (1, 24, 12, 12), "int7")
        y = b.conv2d_requant(x, 16, kernel=3, padding=(1, 1),
                             weight_dtype="ternary", shift=4,
                             out_dtype="int7")
        graph = b.finish(y)
        soc = get_platform("diana", enable_digital=False)
        cfg = HTVM.with_overrides(l1_budget=4096, check_l2=False)
        _assert_modes_equal(graph, soc, cfg)

    def test_dense_and_add(self):
        b = GraphBuilder(seed=7)
        x = b.input("x", (1, 8, 6, 6), "int8")
        y = b.conv2d_requant(x, 8, kernel=3, padding=(1, 1), relu=False)
        z = b.add_requant(x, y, shift=1)
        z = b.flatten(z)
        z = b.dense_requant(z, 10)
        graph = b.finish(z)
        soc = get_platform("diana", enable_analog=False)
        cfg = HTVM.with_overrides(l1_budget=1024, check_l2=False)
        _assert_modes_equal(graph, soc, cfg)


conv_cases = st.tuples(
    st.integers(1, 24),                  # C
    st.integers(1, 24),                  # K
    st.sampled_from([5, 8, 11, 16]),     # spatial
    st.sampled_from([1, 3]),             # filter
    st.sampled_from([1, 2]),             # stride
    st.booleans(),                       # depthwise
    st.integers(0, 2 ** 30),             # seed
)


class TestPropertyEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(conv_cases, st.sampled_from([1536, 4096, 16384]))
    def test_random_conv_fast_equals_tiled(self, case, budget):
        c, k, hw, f, stride, depthwise, seed = case
        b = GraphBuilder(seed=seed)
        x = b.input("x", (1, c, hw, hw), "int8")
        pad = 1 if f == 3 else 0
        if depthwise:
            y = b.dwconv2d_requant(x, kernel=f, strides=stride, padding=pad)
        else:
            y = b.conv2d_requant(x, k, kernel=f, strides=stride, padding=pad,
                                 relu=bool(seed % 2))
        graph = b.finish(y)
        soc = get_platform("diana", enable_analog=False)
        cfg = HTVM.with_overrides(l1_budget=budget, check_l2=False)
        try:
            _assert_modes_equal(graph, soc, cfg, seed=seed + 1)
        except TilingError:
            pass

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 30))
    def test_random_network_fast_equals_tiled(self, seed):
        graph = random_cnn(seed, RandomNetConfig(max_stages=4))
        soc = get_platform("diana", enable_analog=False)
        cfg = HTVM.with_overrides(l1_budget=8 * 1024, check_l2=False)
        try:
            model, feeds, fast = _assert_modes_equal(graph, soc, cfg,
                                                     seed=seed + 1)
        except TilingError:
            return
        # and both equal the golden interpreter
        np.testing.assert_array_equal(
            fast.output, run_reference(model.graph, feeds))


class TestBatchedExecution:
    @pytest.fixture
    def deployment(self):
        graph = random_cnn(3, RandomNetConfig(max_stages=4))
        soc = get_platform("diana", enable_analog=False)
        model = compile_model(
            graph, soc, HTVM.with_overrides(l1_budget=8 * 1024,
                                            check_l2=False))
        return graph, soc, model

    @pytest.mark.parametrize("exec_mode", ["tiled", "fast"])
    def test_batch_equals_per_sample_loop(self, deployment, exec_mode):
        graph, soc, model = deployment
        batch = 5
        feeds = random_inputs_batched(graph, batch, seed=11)
        ex = Executor(soc, exec_mode=exec_mode)
        res = ex.run_batch(model, feeds)
        assert res.batch == batch
        assert res.outputs.shape[0] == batch
        for i in range(batch):
            sample = {k: v[i:i + 1] for k, v in feeds.items()}
            single = ex.run(model, sample)
            np.testing.assert_array_equal(res.outputs[i:i + 1], single.output)
            # cycle cost is input-independent: per-inference counters match
            assert res.perf.total_cycles == single.total_cycles
        assert res.total_cycles == batch * res.perf.total_cycles

    def test_batch_modes_agree(self, deployment):
        graph, soc, model = deployment
        feeds = random_inputs_batched(graph, 3, seed=2)
        fast = Executor(soc, exec_mode="fast").run_batch(model, feeds)
        tiled = Executor(soc, exec_mode="tiled").run_batch(model, feeds)
        np.testing.assert_array_equal(fast.outputs, tiled.outputs)
        assert fast.total_cycles == tiled.total_cycles

    def test_reference_batched_equals_loop(self, deployment):
        graph, _, _ = deployment
        feeds = random_inputs_batched(graph, 4, seed=9)
        batched = run_reference_batched(graph, feeds)
        for i in range(4):
            sample = {k: v[i:i + 1] for k, v in feeds.items()}
            np.testing.assert_array_equal(
                batched[i:i + 1], run_reference(graph, sample))

    def test_inconsistent_batch_raises(self):
        b = GraphBuilder(seed=0)
        x = b.input("x", (1, 4, 6, 6), "int8")
        y = b.input("y", (1, 4, 6, 6), "int8")
        graph = b.finish(b.add_requant(x, y, shift=1))
        soc = get_platform("diana", enable_analog=False)
        model = compile_model(graph, soc, HTVM.with_overrides(check_l2=False))
        feeds = random_inputs_batched(graph, 3, seed=0)
        feeds["y"] = feeds["y"][:1]  # mismatched batch dims
        with pytest.raises(SimulationError, match="batch"):
            Executor(soc, exec_mode="fast").run_batch(model, feeds)


class TestPlanCompiler:
    def test_plan_cached_on_graph(self):
        graph = random_cnn(1, RandomNetConfig(max_stages=3))
        plan = compile_plan(graph)
        assert compile_plan(graph) is plan  # memoized per instance

    def test_rewritten_graph_gets_fresh_plan(self):
        graph = random_cnn(1, RandomNetConfig(max_stages=3))
        plan = compile_plan(graph)
        rewritten = graph.rewrite(lambda node, new_inputs: None)
        assert compile_plan(rewritten) is not plan

    def test_constant_shift_prebound(self):
        # right_shift against a Constant must drop to a 1-input instr
        b = GraphBuilder(seed=0)
        x = b.input("x", (1, 4, 8, 8), "int8")
        graph = b.finish(b.conv2d_requant(x, 4, kernel=3, padding=(1, 1)))
        plan = compile_plan(graph)

        def shift_instrs(p):
            out = []
            for fn, arg_slots, _ in p.instrs:
                closure = getattr(fn, "__self__", None)
                if closure is not None:  # composite body: recurse
                    out.extend(shift_instrs(closure))
                    continue
                vars_ = getattr(fn, "__code__", None)
                if vars_ is not None and "shift" in fn.__code__.co_freevars:
                    out.append((fn, arg_slots))
            return out

        assert any(len(slots) == 1 for _, slots in shift_instrs(plan))

    def test_run_args_binds_declared_input_order(self):
        # output consumes y before x; positional binding must still
        # follow the declared input order [x, y]
        b = GraphBuilder(seed=0)
        x = b.input("x", (1, 2, 4, 4), "int8")
        y = b.input("y", (1, 2, 4, 4), "int8")
        graph = b.finish(b.call("concatenate", [y, x], axis=1))
        plan = compile_plan(graph)
        xa = np.zeros((1, 2, 4, 4), np.int8)
        ya = np.ones((1, 2, 4, 4), np.int8)
        np.testing.assert_array_equal(
            plan.run_args(xa, ya), plan.run({"x": xa, "y": ya}))

    def test_unknown_exec_mode_raises(self):
        with pytest.raises(SimulationError, match="exec_mode"):
            Executor(get_platform("diana"), exec_mode="warp")
