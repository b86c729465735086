"""Depth-first execution analysis tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dory import make_conv_spec
from repro.errors import UnsupportedError
from repro.extensions import (
    analyze_depth_first, chain_runs_from_steps, layer_by_layer_span_bytes,
)

from helpers import mobilenet_head_chain


def simple_chain(n=3, c=8, hw=32):
    chain = []
    for i in range(n):
        chain.append(make_conv_spec(f"c{i}", c, c, hw, hw, padding=(1, 1)))
    return chain


class TestChainValidation:
    def test_empty_rejected(self):
        with pytest.raises(UnsupportedError):
            layer_by_layer_span_bytes([])

    def test_channel_mismatch_rejected(self):
        a = make_conv_spec("a", 8, 8, 16, 16, padding=(1, 1))
        b = make_conv_spec("b", 4, 4, 16, 16, padding=(1, 1))
        with pytest.raises(UnsupportedError, match="mismatch"):
            layer_by_layer_span_bytes([a, b])

    def test_spatial_mismatch_rejected(self):
        a = make_conv_spec("a", 8, 8, 16, 16, padding=(1, 1))
        b = make_conv_spec("b", 8, 8, 8, 8, padding=(1, 1))
        with pytest.raises(UnsupportedError, match="mismatch"):
            layer_by_layer_span_bytes([a, b])


class TestAnalysis:
    def test_single_patch_equals_nominal(self):
        chain = simple_chain()
        plan = analyze_depth_first(chain, (1, 1))
        assert plan.recompute_factor == pytest.approx(1.0)
        assert plan.total_macs == plan.nominal_macs

    def test_patching_reduces_intermediate_memory(self):
        chain = simple_chain(n=4, c=16, hw=64)
        whole = analyze_depth_first(chain, (1, 1))
        patched = analyze_depth_first(chain, (4, 4))
        assert patched.patch_buffer_bytes < whole.patch_buffer_bytes / 4

    def test_recompute_grows_with_patches(self):
        chain = simple_chain(n=4, c=8, hw=32)
        f2 = analyze_depth_first(chain, (2, 2)).recompute_factor
        f8 = analyze_depth_first(chain, (8, 8)).recompute_factor
        assert 1.0 < f2 < f8

    def test_recompute_never_below_one(self):
        chain = simple_chain(n=2)
        for grid in ((1, 1), (2, 2), (5, 3)):
            assert analyze_depth_first(chain, grid).recompute_factor >= 1.0

    def test_strided_chain(self):
        c0 = make_conv_spec("c0", 8, 16, 32, 32, strides=(2, 2),
                            padding=(1, 1))
        c1 = make_conv_spec("c1", 16, 16, 16, 16, padding=(1, 1))
        plan = analyze_depth_first([c0, c1], (2, 2))
        assert plan.num_patches == 4
        assert plan.recompute_factor > 1.0

    def test_depthwise_chain_macs(self):
        dw = make_conv_spec("dw", 8, 8, 16, 16, padding=(1, 1),
                            depthwise=True)
        plan = analyze_depth_first([dw], (1, 1))
        assert plan.nominal_macs == dw.macs()
        assert plan.total_macs == dw.macs()

    def test_invalid_grid(self):
        with pytest.raises(UnsupportedError):
            analyze_depth_first(simple_chain(), (0, 1))
        with pytest.raises(UnsupportedError):
            analyze_depth_first(simple_chain(n=1, hw=8), (100, 1))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.sampled_from([8, 16, 24]),
           st.integers(1, 4), st.integers(1, 4))
    def test_property_macs_partition(self, n, hw, py, px):
        """With 3x3/pad-1 layers, per-patch output regions partition the
        feature map, so single-patch totals must equal nominal MACs."""
        chain = simple_chain(n=n, c=4, hw=hw)
        plan = analyze_depth_first(chain, (1, 1))
        assert plan.total_macs == plan.nominal_macs
        grid = (min(py, hw), min(px, hw))
        patched = analyze_depth_first(chain, grid)
        # the final layer's MACs are never recomputed (patches tile it)
        last = chain[-1]
        assert patched.total_macs >= plan.total_macs
        assert patched.peak_bytes > 0


class TestChainExtraction:
    def test_mobilenet_prefix(self):
        chain = mobilenet_head_chain(5)
        assert len(chain) == 5
        assert chain[0].in_channels == 3

    def test_depth_first_wins_on_mobilenet_head(self):
        """The motivating case of MCUNetV2: early high-resolution
        stages dominate peak memory; patching trades a small recompute
        overhead for a large memory cut."""
        chain = mobilenet_head_chain(3)
        baseline = layer_by_layer_span_bytes(chain)
        plan = analyze_depth_first(chain, (4, 4))
        assert plan.patch_buffer_bytes < baseline
        assert plan.recompute_factor < 2.0

    def test_no_chain_in_a_dense_model(self, digital_soc):
        from repro.core import compile_model
        from repro.ir import GraphBuilder
        b = GraphBuilder(seed=0)
        x = b.input("x", (1, 8), "int8")
        model = compile_model(b.finish(b.dense_requant(x, 4)), digital_soc)
        assert chain_runs_from_steps(model.steps, model.output_name) == []
