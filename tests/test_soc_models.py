"""Accelerator / CPU / DMA / memory cost-model tests."""

import numpy as np
import pytest

from repro import numerics as K
from repro.dory import make_conv_spec, make_dense_spec
from repro.dory.tiling_types import TileConfig, tiles_of
from repro.errors import OutOfMemoryError, SimulationError
from repro.ir import GraphBuilder
from repro.runtime.cost import price
from repro.soc.cpu import kernel_counts
from repro.soc import (
    AnalogAccelerator, DEFAULT_PARAMS, DianaParams, DigitalAccelerator,
    MemoryRegion, contiguous_chunks, get_platform, latency_ms,
    tile_transfer_counts,
)


@pytest.fixture
def digital():
    return DigitalAccelerator(DEFAULT_PARAMS)


@pytest.fixture
def analog():
    return AnalogAccelerator(DEFAULT_PARAMS)


def busy_cycles(accel, spec, c_t, k_t, oy_t, ox_t):
    """Priced busy time of one tile (no job overhead)."""
    counts = {accel.pass_events[spec.kind]:
              accel.passes(spec, c_t, k_t, oy_t, ox_t)}
    return price(counts, DEFAULT_PARAMS)["accel_compute"]


def cycles(counts):
    """Total priced cycles of some event counts."""
    return sum(price(counts, DEFAULT_PARAMS).values())


class TestDigitalCycles:
    def test_conv_peak_256_macs_per_cycle(self, digital):
        # pointwise conv, C and ox multiples of 16 -> full PE array
        spec = make_conv_spec("pw", 32, 32, 16, 16, fy=1, fx=1)
        busy = busy_cycles(digital, spec, 32, 32, 16, 16)
        assert spec.macs() / busy == pytest.approx(256.0)

    def test_conv_partial_channels_waste_rows(self, digital):
        spec = make_conv_spec("c", 3, 16, 16, 16, fy=1, fx=1)
        busy = busy_cycles(digital, spec, 3, 16, 16, 16)
        assert spec.macs() / busy == pytest.approx(256.0 * 3 / 16)

    def test_dw_peak_throughput(self, digital):
        # paper Sec. IV-B: depthwise peak 3.75 MACs/cycle
        spec = make_conv_spec("dw", 64, 64, 16, 16, padding=(1, 1),
                              depthwise=True)
        busy = busy_cycles(digital, spec, 64, 64, 16, 16)
        assert spec.macs() / busy == pytest.approx(3.75)

    def test_fc_cycles(self, digital):
        spec = make_dense_spec("fc", 64, 32)
        assert busy_cycles(digital, spec, 64, 32, 1, 1) == 4 * 2

    def test_supports_rules(self, digital):
        ok, _ = digital.supports(make_conv_spec("c", 8, 8, 8, 8, padding=(1, 1)))
        assert ok
        bad, reason = digital.supports(
            make_conv_spec("c", 8, 8, 8, 8, padding=(1, 1),
                           weight_dtype="ternary"))
        assert not bad and "ternary" in reason
        big_kernel = make_conv_spec("c", 4, 4, 40, 40, fy=3, fx=3)
        big_kernel.fy = 32
        bad2, reason2 = digital.supports(big_kernel)
        assert not bad2 and "kernel" in reason2

    def test_weight_tile_bytes(self, digital):
        spec = make_conv_spec("c", 16, 32, 8, 8, padding=(1, 1))
        tiles = list(tiles_of(spec, TileConfig(16, 32, 8, 8)))
        assert digital.layer_counts(spec, tiles)["weight_byte"] == 32 * 16 * 9
        dw = make_conv_spec("dw", 16, 16, 8, 8, padding=(1, 1), depthwise=True)
        tiles = list(tiles_of(dw, TileConfig(16, 16, 8, 8)))
        assert digital.layer_counts(dw, tiles)["weight_byte"] == 16 * 9


class TestDigitalFunctional:
    def test_execute_matches_numerics(self, digital):
        rng = np.random.default_rng(0)
        spec = make_conv_spec("c", 4, 8, 8, 8, padding=(1, 1), shift=6,
                              relu=True)
        x = rng.integers(-128, 128, (1, 4, 8, 8)).astype(np.int8)
        w = rng.integers(-128, 128, (8, 4, 3, 3)).astype(np.int8)
        bias = rng.integers(-1000, 1000, 8).astype(np.int32)
        got = digital.execute(spec, x, w, bias)
        acc = K.bias_add(K.conv2d(x, w, (1, 1), (1, 1)), bias)
        want = K.requantize(acc, 6, True)
        np.testing.assert_array_equal(got, want)

    def test_partial_accumulation_equals_full(self, digital):
        rng = np.random.default_rng(1)
        spec = make_conv_spec("c", 8, 4, 6, 6, padding=(1, 1), shift=5)
        x = rng.integers(-128, 128, (1, 8, 6, 6)).astype(np.int8)
        w = rng.integers(-128, 128, (4, 8, 3, 3)).astype(np.int8)
        bias = rng.integers(-100, 100, 4).astype(np.int32)
        full = digital.execute(spec, x, w, bias)
        acc = (digital.accumulate(spec, x[:, :4], w[:, :4])
               + digital.accumulate(spec, x[:, 4:], w[:, 4:]))
        split = digital.finalize(spec, acc, bias)
        np.testing.assert_array_equal(full, split)


class TestAnalog:
    def test_mapping(self, analog):
        spec = make_conv_spec("c", 64, 64, 16, 16, padding=(1, 1),
                              weight_dtype="ternary")
        assert analog.mapped_rows(spec, 64) == 64 * 9
        assert analog.row_blocks(spec, 64) == 1
        assert analog.col_blocks(600) == 2

    def test_row_overflow_needs_blocks(self, analog):
        spec = make_conv_spec("c", 256, 64, 8, 8, padding=(1, 1),
                              weight_dtype="ternary")
        assert analog.row_blocks(spec, 256) == 2

    def test_supports_rejects_dw_and_int8(self, analog):
        dw = make_conv_spec("dw", 8, 8, 8, 8, padding=(1, 1), depthwise=True)
        ok, reason = analog.supports(dw)
        assert not ok and "dwconv2d" in reason
        int8conv = make_conv_spec("c", 8, 8, 8, 8, padding=(1, 1))
        ok2, reason2 = analog.supports(int8conv)
        assert not ok2

    def test_execute_checks_7bit_inputs(self, analog):
        spec = make_conv_spec("c", 2, 2, 4, 4, fy=1, fx=1,
                              weight_dtype="ternary")
        x = np.full((1, 2, 4, 4), 100, dtype=np.int8)
        w = np.ones((2, 2, 1, 1), dtype=np.int8)
        with pytest.raises(SimulationError, match="7-bit"):
            analog.execute(spec, x, w, None)

    def test_execute_checks_ternary_weights(self, analog):
        spec = make_conv_spec("c", 2, 2, 4, 4, fy=1, fx=1,
                              weight_dtype="ternary")
        x = np.zeros((1, 2, 4, 4), dtype=np.int8)
        w = np.full((2, 2, 1, 1), 3, dtype=np.int8)
        with pytest.raises(SimulationError, match="ternary"):
            analog.execute(spec, x, w, None)

    def test_weight_storage_padding(self, analog):
        # 3x3 conv rows pad to the full macro height
        spec = make_conv_spec("c", 16, 16, 8, 8, padding=(1, 1),
                              weight_dtype="ternary")
        assert analog.weight_storage_bytes(spec) == 1152 * 16 * 2 // 8
        # pointwise pads to 288 rows
        pw = make_conv_spec("pw", 16, 16, 8, 8, fy=1, fx=1,
                            weight_dtype="ternary")
        assert analog.weight_storage_bytes(pw) == 288 * 16 * 2 // 8

    def test_noise_injection_changes_results(self, analog):
        rng = np.random.default_rng(0)
        spec = make_conv_spec("c", 16, 16, 8, 8, padding=(1, 1),
                              weight_dtype="ternary", shift=2)
        x = rng.integers(-64, 64, (1, 16, 8, 8)).astype(np.int8)
        w = rng.integers(-1, 2, (16, 16, 3, 3)).astype(np.int8)
        clean = analog.execute(spec, x, w, None)
        noisy = analog.execute_noisy(spec, x, w, None, noise_sigma=5.0,
                                     rng=np.random.default_rng(1))
        assert clean.shape == noisy.shape
        assert not np.array_equal(clean, noisy)

    def test_zero_noise_matches_clean(self, analog):
        rng = np.random.default_rng(0)
        spec = make_conv_spec("c", 4, 4, 6, 6, padding=(1, 1),
                              weight_dtype="ternary", shift=2)
        x = rng.integers(-64, 64, (1, 4, 6, 6)).astype(np.int8)
        w = rng.integers(-1, 2, (4, 4, 3, 3)).astype(np.int8)
        clean = analog.execute(spec, x, w, None)
        noisy = analog.execute_noisy(spec, x, w, None, 0.0,
                                     np.random.default_rng(2))
        np.testing.assert_array_equal(clean, noisy)


class TestDma:
    def test_contiguous_chunks_full_tensor(self):
        assert contiguous_chunks((16, 32, 32), (16, 32, 32)) == 1

    def test_channel_slice_contiguous(self):
        assert contiguous_chunks((16, 32, 32), (8, 32, 32)) == 1

    def test_row_slice_per_channel(self):
        assert contiguous_chunks((16, 32, 32), (16, 8, 32)) == 16

    def test_column_slice_per_row(self):
        assert contiguous_chunks((16, 32, 32), (16, 32, 8)) == 16 * 32

    def test_tile_too_big_rejected(self):
        with pytest.raises(ValueError):
            contiguous_chunks((4, 4), (8, 4))

    def test_transfer_cycles_scale_with_bytes(self):
        a = cycles({"weight_job": 1, "weight_byte": 1024})
        b = cycles({"weight_job": 1, "weight_byte": 2048})
        assert b > a

    def test_zero_bytes_free(self):
        assert tile_transfer_counts((16, 16, 16), (0, 16, 16)) == (0, 0, 0)

    def test_activation_bandwidth_faster_than_weight(self):
        jobs, chunks, nbytes = tile_transfer_counts((16, 16, 16),
                                                    (16, 16, 16))
        act = cycles({"act_job": jobs, "act_chunk": chunks,
                      "act_byte": nbytes})
        w = cycles({"weight_job": 1, "weight_byte": 16 * 16 * 16})
        assert act < w


class TestMemoryRegion:
    def test_alloc_and_free(self):
        m = MemoryRegion("L2", 1024)
        m.alloc("a", 512)
        m.alloc("b", 512)
        assert m.used == 1024
        m.free("a")
        assert m.used == 512

    def test_no_reuse_high_water(self):
        # the naive allocator never reuses freed space
        m = MemoryRegion("L2", 1024)
        m.alloc("a", 512)
        m.free("a")
        m.alloc("b", 400)  # lands at 512: the bump pointer never rewinds
        assert m.allocations["b"].offset == 512
        with pytest.raises(OutOfMemoryError):
            m.alloc("c", 200)

    def test_place_out_of_bounds(self):
        m = MemoryRegion("L2", 100)
        with pytest.raises(OutOfMemoryError):
            m.place("x", 90, 20)

    def test_reset(self):
        m = MemoryRegion("L2", 100)
        m.alloc("x", 50)
        m.reset()
        assert m.used == 0


class TestCpuModel:
    def test_conv_rate(self):
        b = GraphBuilder(seed=0)
        x = b.input("x", (1, 16, 16, 16), "int8")
        g = b.finish(b.conv2d_requant(x, 16, kernel=3, padding=(1, 1)))
        soc = get_platform("diana")
        busy = price(kernel_counts(g), soc.params)["cpu_compute"]
        macs = g.total_macs()
        assert busy > macs * DEFAULT_PARAMS.cpu_cycles_per_mac_conv

    def test_dwconv_slower_per_mac(self):
        soc = get_platform("diana")
        b1 = GraphBuilder(seed=0)
        x = b1.input("x", (1, 32, 16, 16), "int8")
        conv = b1.finish(b1.conv2d_requant(x, 32, kernel=3, padding=(1, 1)))
        b2 = GraphBuilder(seed=0)
        x2 = b2.input("x", (1, 32, 16, 16), "int8")
        dw = b2.finish(b2.dwconv2d_requant(x2, kernel=3, padding=(1, 1)))
        conv_rate = conv.total_macs() / price(
            kernel_counts(conv), soc.params)["cpu_compute"]
        dw_rate = dw.total_macs() / price(
            kernel_counts(dw), soc.params)["cpu_compute"]
        assert dw_rate < conv_rate


class TestPlatform:
    def test_latency_conversion(self):
        assert latency_ms(260000.0) == pytest.approx(1.0)

    def test_accelerator_lookup(self):
        soc = get_platform("diana")
        assert soc.accelerator("soc.digital").name == "soc.digital"
        from repro.errors import DispatchError
        with pytest.raises(DispatchError):
            soc.accelerator("soc.npu")

    def test_param_overrides(self):
        p = DEFAULT_PARAMS.with_overrides(l1_bytes=1024)
        assert p.l1_bytes == 1024
        assert DEFAULT_PARAMS.l1_bytes == 256 * 1024
