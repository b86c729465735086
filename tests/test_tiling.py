"""Tiling solver + tile enumeration tests, incl. coverage properties."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dory import (
    DoryTiler, TileConfig, digital_heuristics, make_conv_spec,
    make_dense_spec, no_heuristics, tiles_of,
)
from repro.errors import TilingError
from repro.soc import DEFAULT_PARAMS


def tiler(target="soc.digital", heuristics=None, budget=None):
    return DoryTiler(target, DEFAULT_PARAMS,
                     digital_heuristics() if heuristics is None else heuristics,
                     l1_budget=budget)


class TestSolve:
    def test_no_tiling_when_layer_fits(self):
        spec = make_conv_spec("c", 16, 16, 16, 16, padding=(1, 1))
        sol = tiler().solve(spec)
        assert not sol.needs_tiling
        assert sol.num_tiles == 1
        assert sol.cfg.k_t == 16 and sol.cfg.oy_t == 16

    def test_eq2_constraint_always_satisfied(self):
        spec = make_conv_spec("c", 64, 128, 32, 32, padding=(1, 1))
        for budget in (128 * 1024, 32 * 1024, 8 * 1024, 4 * 1024):
            sol = tiler(budget=budget).solve(spec)
            assert sol.l1_total_bytes <= budget

    def test_weight_memory_constraint(self):
        # 640*640 dense weights = 400 kB > 64 kB weight memory
        spec = make_dense_spec("fc", 640, 640)
        sol = tiler().solve(spec)
        assert sol.cfg.k_t * 640 <= DEFAULT_PARAMS.dig_weight_bytes

    def test_infeasible_raises(self):
        spec = make_conv_spec("c", 64, 64, 32, 32, padding=(1, 1))
        with pytest.raises(TilingError):
            tiler(budget=64).solve(spec)

    def test_baseline_vs_heuristics_objective(self):
        spec = make_conv_spec("c", 32, 32, 32, 32, padding=(1, 1))
        base = tiler(heuristics=no_heuristics(), budget=32 * 1024).solve(spec)
        full = tiler(budget=32 * 1024).solve(spec)
        assert base.l1_total_bytes <= 32 * 1024
        assert full.l1_total_bytes <= 32 * 1024

    def test_analog_only_tiles_rows(self):
        spec = make_conv_spec("c", 64, 64, 96, 96, padding=(1, 1),
                              weight_dtype="ternary")
        sol = tiler("soc.analog").solve(spec)
        assert sol.cfg.k_t == 64
        assert sol.cfg.c_t == 64
        assert sol.cfg.ox_t == 96

    def test_analog_weight_not_counted_in_l1(self):
        spec = make_conv_spec("c", 64, 64, 16, 16, padding=(1, 1),
                              weight_dtype="ternary")
        sol = tiler("soc.analog").solve(spec)
        assert sol.l1_weight_bytes == 0

    def test_width_never_tiled(self):
        spec = make_conv_spec("c", 64, 128, 48, 48, padding=(1, 1))
        sol = tiler(budget=16 * 1024).solve(spec)
        assert sol.cfg.ox_t == spec.ox

    @pytest.mark.parametrize("kind", ["conv2d", "dwconv2d"])
    def test_chunked_grid_picks_the_same_tile(self, kind, monkeypatch):
        import repro.dory.tiler as tiler_mod
        spec = make_conv_spec("c", 48, 48, 24, 24, padding=(1, 1),
                              depthwise=kind == "dwconv2d")
        whole = tiler(budget=4 * 1024).solve(spec)
        monkeypatch.setattr(tiler_mod, "_GRID_CELLS", 7)
        assert tiler(budget=4 * 1024).solve(spec) == whole


class TestInputHygiene:
    """Bad solver knobs fail at construction, naming field and value,
    instead of surfacing as a false infeasibility or a silent clamp."""

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match=f"alpha.*{alpha!r}"):
            DoryTiler("soc.digital", DEFAULT_PARAMS, digital_heuristics(),
                      alpha=alpha)

    @pytest.mark.parametrize("budget", [True, False, 16896.0, "16384", 0, -1])
    def test_bad_l1_budget_rejected(self, budget):
        with pytest.raises(ValueError,
                           match=f"l1_budget.*{re.escape(repr(budget))}"):
            tiler(budget=budget)

    def test_integral_budgets_accepted(self):
        assert tiler(budget=np.int64(16384)).l1_budget == 16384
        assert tiler().l1_budget == DEFAULT_PARAMS.l1_bytes

    def test_nan_alpha_through_compile_model(self):
        """Was a false 'no feasible tiling ... within L1 budget 16384 B'."""
        from repro.core import HTVM, TilingCache, compile_model
        from repro.frontend.modelzoo import resnet8
        from repro.soc import get_platform
        cfg = HTVM.with_overrides(alpha=float("nan"), l1_budget=16 * 1024)
        with pytest.raises(ValueError, match="alpha"):
            compile_model(resnet8(precision="int8"),
                          get_platform("diana", enable_analog=False), cfg,
                          cache=TilingCache())


conv_geom = st.tuples(
    st.integers(1, 32),       # C
    st.integers(1, 32),       # K
    st.sampled_from([4, 7, 8, 12, 16]),  # spatial
    st.sampled_from([1, 3]),  # filter
    st.sampled_from([1, 2]),  # stride
)


class TestTileCoverageProperty:
    @settings(max_examples=60, deadline=None)
    @given(conv_geom, st.sampled_from([2048, 4096, 16384, 262144]))
    def test_tiles_cover_output_exactly_once(self, geom, budget):
        c, k, hw, f, s = geom
        pad = 1 if f == 3 else 0
        if (hw + 2 * pad - f) < 0:
            return
        spec = make_conv_spec("p", c, k, hw, hw, fy=f, fx=f,
                              strides=(s, s), padding=(pad, pad))
        try:
            sol = tiler(budget=budget).solve(spec)
        except TilingError:
            return
        coverage = np.zeros((spec.out_channels, spec.oy, spec.ox), dtype=int)
        for t in sol.tiles():
            if t.last_reduction:
                coverage[t.k0:t.k1, t.oy0:t.oy1, t.ox0:t.ox1] += 1
        assert (coverage == 1).all()

    @settings(max_examples=60, deadline=None)
    @given(conv_geom, st.sampled_from([2048, 16384, 262144]))
    def test_input_slabs_within_bounds(self, geom, budget):
        c, k, hw, f, s = geom
        pad = 1 if f == 3 else 0
        if (hw + 2 * pad - f) < 0:
            return
        spec = make_conv_spec("p", c, k, hw, hw, fy=f, fx=f,
                              strides=(s, s), padding=(pad, pad))
        try:
            sol = tiler(budget=budget).solve(spec)
        except TilingError:
            return
        for t in sol.tiles():
            assert 0 <= t.iy0 <= t.iy1 <= spec.iy
            assert 0 <= t.ix0 <= t.ix1 <= spec.ix
            # padded slab height must match the conv arithmetic
            iy_needed = (t.oy1 - 1 - t.oy0) * s + f
            assert (t.iy1 - t.iy0) + t.pad_top + t.pad_bottom == iy_needed

    @settings(max_examples=30, deadline=None)
    @given(conv_geom)
    def test_reduction_blocks_partition_channels(self, geom):
        c, k, hw, f, s = geom
        pad = 1 if f == 3 else 0
        if (hw + 2 * pad - f) < 0:
            return
        spec = make_conv_spec("p", c, k, hw, hw, fy=f, fx=f,
                              strides=(s, s), padding=(pad, pad))
        cfg = TileConfig(c_t=max(1, c // 2), k_t=k, oy_t=spec.oy,
                         ox_t=spec.ox)
        seen = {}
        for t in tiles_of(spec, cfg):
            key = (t.k0, t.oy0, t.ox0)
            seen.setdefault(key, []).append((t.c0, t.c1, t.last_reduction))
        for blocks in seen.values():
            covered = sorted((c0, c1) for c0, c1, _ in blocks)
            assert covered[0][0] == 0 and covered[-1][1] == c
            for (a0, a1), (b0, b1) in zip(covered, covered[1:]):
                assert a1 == b0
            assert blocks[-1][2] is True  # last block flagged


class TestDenseTiling:
    def test_dense_tiles_k_only(self):
        spec = make_dense_spec("fc", 640, 128)
        sol = tiler().solve(spec)
        assert sol.cfg.c_t == 640
        total_k = sum(t.k1 - t.k0 for t in sol.tiles())
        assert total_k == 128

    def test_num_tiles_matches_enumeration(self):
        spec = make_conv_spec("c", 32, 64, 32, 32, padding=(1, 1))
        sol = tiler(budget=16 * 1024).solve(spec)
        assert sol.num_tiles == len(sol.tiles())
