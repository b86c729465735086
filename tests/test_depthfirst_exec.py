"""Functional depth-first execution — bit-exactness property tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dory import make_conv_spec
from repro.errors import SimulationError
from repro.runtime import execute_chain_depth_first, execute_layer_fast
from repro.soc import get_platform

ACCEL = get_platform("diana").accelerator("soc.digital")


def run_chain_layer_by_layer(chain, x):
    """Golden: full feature maps between layers."""
    for spec in chain:
        x = execute_layer_fast(ACCEL, spec, x)
    return x


def run_chain_depth_first(chain, x, patch_grid):
    return execute_chain_depth_first([ACCEL] * len(chain), chain, x,
                                     patch_grid)


def build_chain(seed, stages, input_hw=16, input_c=3, depthwise_mask=0):
    """A random weighted conv chain."""
    rng = np.random.default_rng(seed)
    chain = []
    c, hw_y, hw_x = input_c, input_hw, input_hw
    for i in range(stages):
        depthwise = bool((depthwise_mask >> i) & 1)
        k = c if depthwise else int(rng.integers(1, 12))
        stride = int(rng.choice([1, 2])) if hw_y >= 6 else 1
        spec = make_conv_spec(
            f"c{i}", c, k, hw_y, hw_x, strides=(stride, stride),
            padding=(1, 1), depthwise=depthwise)
        cg = 1 if depthwise else c
        spec.weight = rng.integers(-128, 128, (k, cg, 3, 3)).astype(np.int8)
        spec.bias = rng.integers(-400, 400, k).astype(np.int32)
        spec.shift = int(rng.integers(4, 9))
        spec.relu = bool(rng.integers(0, 2))
        chain.append(spec)
        c, hw_y, hw_x = k, spec.oy, spec.ox
    return chain


class TestBitExactness:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 30), st.integers(1, 4),
           st.integers(1, 4), st.integers(1, 4), st.integers(0, 7))
    def test_property_depth_first_equals_layerwise(self, seed, stages,
                                                   py, px, dw_mask):
        chain = build_chain(seed, stages, depthwise_mask=dw_mask)
        final = chain[-1]
        grid = (min(py, final.oy), min(px, final.ox))
        rng = np.random.default_rng(seed + 1)
        x = rng.integers(-128, 128,
                         (1, chain[0].in_channels, 16, 16)).astype(np.int8)
        a = run_chain_layer_by_layer(chain, x)
        b = run_chain_depth_first(chain, x, grid)
        np.testing.assert_array_equal(a, b)

    def test_single_patch_trivially_equal(self):
        chain = build_chain(7, 3)
        rng = np.random.default_rng(0)
        x = rng.integers(-128, 128, (1, 3, 16, 16)).astype(np.int8)
        np.testing.assert_array_equal(
            run_chain_layer_by_layer(chain, x),
            run_chain_depth_first(chain, x, (1, 1)))

    def test_max_patching(self):
        chain = build_chain(11, 2)
        final = chain[-1]
        rng = np.random.default_rng(1)
        x = rng.integers(-128, 128, (1, 3, 16, 16)).astype(np.int8)
        np.testing.assert_array_equal(
            run_chain_layer_by_layer(chain, x),
            run_chain_depth_first(chain, x, (final.oy, final.ox)))


class TestErrors:
    def test_bad_grid(self):
        chain = build_chain(0, 1)
        x = np.zeros((1, 3, 16, 16), np.int8)
        with pytest.raises(SimulationError, match="patch grid"):
            run_chain_depth_first(chain, x, (0, 1))
