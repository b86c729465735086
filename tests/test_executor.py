"""Executor tests — the core bit-exactness guarantee.

The flagship property: for random layer geometries and L1 budgets, the
*tiled* accelerator execution (halos, edge padding, C-blocks with int32
partial sums, K blocks) is byte-identical to the reference interpreter.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compiler import compile_model
from repro.core.config import HTVM, TVM_CPU
from repro.dory import TileConfig, TilingSolution, macro_rows
from repro.dory.layer_spec import make_conv_spec
from repro.errors import SimulationError
from repro.frontend.modelzoo import resnet8
from repro.ir import GraphBuilder
from repro.runtime import (
    Executor, execute_layer_fast, execute_layer_tiled, random_inputs,
    run_reference,
)
from repro.runtime.cost import price
from repro.soc import DianaParams, get_platform
from helpers import assert_compiled_matches_reference, build_small_cnn


class TestSmallGraphs:
    def test_small_cnn_htvm(self, soc, small_cnn):
        assert_compiled_matches_reference(small_cnn, soc)

    def test_small_cnn_cpu_baseline(self, cpu_soc, small_cnn):
        assert_compiled_matches_reference(small_cnn, cpu_soc, TVM_CPU)

    def test_missing_feed_raises(self, soc, small_cnn):
        model = compile_model(small_cnn, soc, HTVM)
        with pytest.raises(SimulationError, match="missing input"):
            Executor(soc).run(model, {})

    def test_wrong_shape_raises(self, soc, small_cnn):
        model = compile_model(small_cnn, soc, HTVM)
        with pytest.raises(SimulationError, match="expected"):
            Executor(soc).run(model, {"data": np.zeros((1, 3, 4, 4), np.int8)})

    @pytest.mark.parametrize("mode", ["tiled", "fast"])
    def test_lossy_feed_dtype_raises(self, soc, small_cnn, mode):
        """An int64 feed of x + 256 or a float32 feed of x + 0.9 used to
        be wrapped / truncated to x and served without an error."""
        model = compile_model(small_cnn, soc, HTVM)
        x = random_inputs(small_cnn, seed=0)["data"]
        ex = Executor(soc, exec_mode=mode)
        good = ex.run(model, {"data": x}).output
        for bad in (x.astype(np.int64) + 256,
                    np.abs(x).astype(np.float32) + 0.9):
            with pytest.raises(SimulationError, match="do not fit"):
                ex.run(model, {"data": bad})
            with pytest.raises(SimulationError, match="do not fit"):
                ex.run_batch(model, {"data": bad})
        # a value-preserving cast is still accepted
        for same in (x.astype(np.int64), x.astype(np.float32), x.tolist()):
            assert np.array_equal(ex.run(model, {"data": same}).output, good)

    def test_counters_populated(self, soc, small_cnn):
        model, result = assert_compiled_matches_reference(small_cnn, soc)
        assert result.total_cycles > 0
        assert result.peak_cycles <= result.total_cycles
        assert len(result.perf.records) == len(model.steps)

    def test_accel_cycles_dominate_for_cnn(self, digital_soc, small_cnn):
        _, result = assert_compiled_matches_reference(small_cnn, digital_soc)
        by_target = result.perf.cycles_by_target()
        assert "soc.digital" in by_target

    def test_deterministic_cycles(self, soc, small_cnn):
        model = compile_model(small_cnn, soc, HTVM)
        feeds = random_inputs(small_cnn, seed=0)
        ex = Executor(soc)
        a = ex.run(model, feeds).total_cycles
        b = ex.run(model, feeds).total_cycles
        assert a == b


def _single_conv_graph(c, k, hw, f, stride, pad, depthwise, seed):
    b = GraphBuilder(seed=seed)
    x = b.input("x", (1, c, hw, hw), "int8")
    if depthwise:
        y = b.dwconv2d_requant(x, kernel=f, strides=stride, padding=pad)
    else:
        y = b.conv2d_requant(x, k, kernel=f, strides=stride, padding=pad,
                             relu=bool(seed % 2))
    return b.finish(y)


conv_cases = st.tuples(
    st.integers(1, 24),                  # C
    st.integers(1, 24),                  # K
    st.sampled_from([5, 8, 11, 16]),     # spatial
    st.sampled_from([1, 3]),             # filter
    st.sampled_from([1, 2]),             # stride
    st.booleans(),                       # depthwise
    st.integers(0, 2 ** 30),             # seed
)


class TestTiledExecutionProperty:
    @settings(max_examples=50, deadline=None)
    @given(conv_cases, st.sampled_from([1536, 4096, 16384, 256 * 1024]))
    def test_tiled_conv_bit_exact(self, case, budget):
        c, k, hw, f, stride, depthwise, seed = case
        pad = 1 if f == 3 else 0
        graph = _single_conv_graph(c, k, hw, f, stride, pad, depthwise, seed)
        params = DianaParams()
        soc = get_platform("diana", params=params, enable_analog=False)
        cfg = HTVM.with_overrides(l1_budget=budget, check_l2=False)
        from repro.errors import TilingError
        try:
            model = compile_model(graph, soc, cfg)
        except TilingError:
            return
        feeds = random_inputs(graph, seed=seed + 1)
        result = Executor(soc).run(model, feeds)
        np.testing.assert_array_equal(
            result.output, run_reference(model.graph, feeds))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 640), st.integers(1, 300), st.integers(0, 2 ** 30))
    def test_tiled_dense_bit_exact(self, c, k, seed):
        b = GraphBuilder(seed=seed)
        x = b.input("x", (1, c), "int8")
        graph = b.finish(b.dense_requant(x, k, relu=bool(seed % 2)))
        soc = get_platform("diana", enable_analog=False)
        model = compile_model(graph, soc, HTVM.with_overrides(check_l2=False))
        feeds = random_inputs(graph, seed=seed)
        result = Executor(soc).run(model, feeds)
        np.testing.assert_array_equal(
            result.output, run_reference(model.graph, feeds))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 32), st.sampled_from([4, 8, 12]),
           st.integers(0, 2 ** 30))
    def test_tiled_add_bit_exact(self, c, hw, seed):
        b = GraphBuilder(seed=seed)
        x = b.input("x", (1, c, hw, hw), "int8")
        y = b.input("y", (1, c, hw, hw), "int8")
        graph = b.finish(b.add_requant(x, y, shift=1))
        soc = get_platform("diana", enable_analog=False)
        cfg = HTVM.with_overrides(l1_budget=1024, check_l2=False)
        from repro.errors import TilingError
        try:
            model = compile_model(graph, soc, cfg)
        except TilingError:
            return
        feeds = random_inputs(graph, seed=seed)
        result = Executor(soc).run(model, feeds)
        np.testing.assert_array_equal(
            result.output, run_reference(model.graph, feeds))


def _hand_tiled_layer(kind, c, k, iy, ix, f, stride, pad, seed):
    """A conv layer with random payloads for ``kind`` in ``conv``,
    ``dwconv`` (digital int8) or ``analog`` (int7 x ternary)."""
    rng = np.random.default_rng(seed)
    analog = kind == "analog"
    spec = make_conv_spec("hand", c, k, iy, ix, fy=f, fx=f,
                          strides=(stride, stride), padding=(pad, pad),
                          depthwise=kind == "dwconv",
                          weight_dtype="ternary" if analog else "int8",
                          shift=int(rng.integers(0, 10)),
                          relu=bool(seed % 2))
    cg = 1 if kind == "dwconv" else c
    lo, hi = (-1, 2) if analog else (-128, 128)
    spec.weight = rng.integers(lo, hi, (spec.out_channels, cg, f, f)
                               ).astype(np.int8)
    spec.bias = rng.integers(-2000, 2000, spec.out_channels).astype(np.int32)
    lo, hi = (-64, 64) if analog else (-128, 128)
    x = rng.integers(lo, hi, (1, c, iy, ix)).astype(np.int8)
    soc = get_platform("diana")
    accel = soc.accelerator("soc.analog" if analog else "soc.digital")
    return accel, spec, x


def _hand_solution(spec, cfg):
    return TilingSolution(spec=spec, cfg=cfg, target="hand", l1_in_bytes=0,
                          l1_out_bytes=0, l1_weight_bytes=0, objective=0.0,
                          needs_tiling=True)


class TestHandBuiltTilings:
    """The tiled schedule on tilings the tiler never proposes.

    The tiler keeps full-width rows (``ox_t = ox``), so compiled models
    never run width blocks or left/right edge pads; these tests build
    the ``TileConfig`` by hand and compare ``execute_layer_tiled`` with
    the one-call ``execute_layer_fast`` byte for byte.
    """

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["conv", "dwconv", "analog"]),
           st.integers(1, 12), st.integers(1, 12),
           st.integers(3, 13), st.integers(3, 13),
           st.sampled_from([1, 2, 3, 5]), st.sampled_from([1, 2, 3]),
           st.integers(0, 3), st.integers(0, 2 ** 30), st.data())
    def test_tiled_equals_fast(self, kind, c, k, iy, ix, f, stride, pad,
                               seed, data):
        if f > min(iy, ix) + 2 * pad:
            return
        accel, spec, x = _hand_tiled_layer(kind, c, k, iy, ix, f, stride,
                                           pad, seed)
        cfg = TileConfig(
            c_t=data.draw(st.integers(1, spec.in_channels), "c_t"),
            k_t=data.draw(st.integers(1, spec.out_channels), "k_t"),
            oy_t=data.draw(st.integers(1, spec.oy), "oy_t"),
            ox_t=data.draw(st.integers(1, spec.ox), "ox_t"))
        got = execute_layer_tiled(accel, spec, _hand_solution(spec, cfg), x)
        want = execute_layer_fast(accel, spec, x)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["conv", "dwconv", "analog"])
    def test_width_blocks_with_edge_pads(self, kind):
        """Pinned: width, row, K and C blocks together, with all four
        edge pads and an odd stride."""
        accel, spec, x = _hand_tiled_layer(kind, 6, 5, 11, 13, 5, 3, 2,
                                           seed=3)
        cfg = TileConfig(c_t=4, k_t=3, oy_t=2, ox_t=2)
        tiles = _hand_solution(spec, cfg).tiles()
        assert any(t.pad_left for t in tiles)
        assert any(t.pad_right for t in tiles)
        assert any(0 < t.ox0 and t.ox1 < spec.ox for t in tiles)
        got = execute_layer_tiled(accel, spec, _hand_solution(spec, cfg), x)
        assert got.tobytes() == execute_layer_fast(accel, spec, x).tobytes()

    @pytest.mark.parametrize("kind", ["conv", "dwconv", "analog"])
    @pytest.mark.parametrize("pad", [1, 2])
    def test_tile_wholly_in_border(self, kind, pad):
        """pad >= f: the edge tiles read an empty slab and are all zero
        border (tiles_of used to slice a negative range for pad > f;
        the analog range check must accept an empty slab)."""
        accel, spec, x = _hand_tiled_layer(kind, 3, 2, 4, 5, 1, 1, pad,
                                           seed=5)
        sol = _hand_solution(spec, TileConfig(c_t=2, k_t=1, oy_t=1,
                                               ox_t=1))
        assert any(t.iy0 == t.iy1 for t in sol.tiles())
        assert all(0 <= t.iy0 <= t.iy1 <= spec.iy for t in sol.tiles())
        got = execute_layer_tiled(accel, spec, sol, x)
        assert got.tobytes() == execute_layer_fast(accel, spec, x).tobytes()

    def test_batched_input_refused(self):
        """The tiled kernel runs one sample; a batch used to come back
        as sample 0 alone."""
        soc = get_platform("diana", enable_analog=False)
        model = compile_model(resnet8(seed=0), soc, HTVM)
        step = next(s for s in model.steps
                    if getattr(s, "spec", None) is not None
                    and s.spec.kind == "conv2d")
        spec = step.spec
        x = np.zeros((3, spec.in_channels, spec.iy, spec.ix), np.int8)
        accel = soc.accelerator(step.accel_target)
        with pytest.raises(SimulationError, match="batch of 3"):
            execute_layer_tiled(accel, spec, step.tiling, x)
        one = execute_layer_tiled(accel, spec, step.tiling, x[:1])
        assert one.shape == (1, spec.out_channels, spec.oy, spec.ox)

    def test_tile_list_built_once(self):
        spec = make_conv_spec("t", 4, 4, 8, 8, padding=(1, 1))
        sol = _hand_solution(spec, TileConfig(c_t=2, k_t=2, oy_t=3, ox_t=8))
        assert sol.tiles() is sol.tiles()
        assert len(sol.tiles()) == sol.num_tiles
        # the memo is sound only because the geometry cannot change
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.cfg = TileConfig(c_t=4, k_t=4, oy_t=8, ox_t=8)


class TestAnalogExecution:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 160), st.integers(1, 48),
           st.sampled_from([4, 8, 12]), st.integers(0, 2 ** 30))
    def test_analog_conv_bit_exact(self, c, k, hw, seed):
        # large C exercises the >1152-row macro block path
        b = GraphBuilder(seed=seed)
        x = b.input("x", (1, c, hw, hw), "int7")
        y = b.conv2d_requant(x, k, kernel=3, padding=(1, 1),
                             weight_dtype="ternary", shift=4,
                             out_dtype="int7")
        graph = b.finish(y)
        soc = get_platform("diana", enable_digital=False)
        model = compile_model(graph, soc, HTVM.with_overrides(check_l2=False))
        comp_targets = [s.target for s in model.steps]
        assert "soc.analog" in comp_targets
        feeds = random_inputs(graph, seed=seed + 7)
        result = Executor(soc).run(model, feeds)
        np.testing.assert_array_equal(
            result.output, run_reference(model.graph, feeds))

    def test_analog_weight_load_charged_once(self):
        b = GraphBuilder(seed=0)
        x = b.input("x", (1, 16, 24, 24), "int7")
        graph = b.finish(b.conv2d_requant(
            x, 16, kernel=3, padding=(1, 1), weight_dtype="ternary",
            shift=4, out_dtype="int7"))
        soc = get_platform("diana", enable_digital=False)
        # force row tiling with a small L1 budget
        model = compile_model(graph, soc, HTVM.with_overrides(
            l1_budget=8 * 1024, check_l2=False))
        result = Executor(soc).run(model, random_inputs(graph, seed=1))
        rec = [r for r in result.perf.records if r.target == "soc.analog"][0]
        assert rec.num_tiles > 1
        accel = soc.accelerator("soc.analog")
        spec = model.steps[0].spec
        rows = macro_rows(spec, 16) * accel.col_blocks(16)
        assert rec.counts["macro_row"] == rows
        expected = price({"macro_row": rows}, soc.params)["weight_dma"]
        assert rec.cycles["weight_dma"] == pytest.approx(expected)
