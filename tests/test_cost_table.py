"""The one price table against the per-tile cycle loops it replaced.

``oracle_layer_cycles`` and ``oracle_cpu_cycles`` below are the
previous cost model — per-core cycle formulas charged tile by tile and
call by call — kept as test oracles. :func:`repro.runtime.cost.price`
over the emitted event counts must agree with them for any tiling and
any calibration in [0.5x, 2x] of ``DEFAULT_PARAMS``; and no module
outside the table may read a latency constant.
"""

from __future__ import annotations

import ast
import functools
import math
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TVM_CPU, compile_model
from repro.core.program import CpuKernelStep
from repro.dory import make_conv_spec, make_dense_spec
from repro.dory.layer_spec import LayerSpec
from repro.dory.tiling_types import TileConfig, TilingSolution
from repro.errors import PlatformError
from repro.frontend.modelzoo import MLPERF_TINY
from repro.mapping import transfer_penalty
from repro.runtime.cost import cost_layer, price
from repro.soc import DEFAULT_PARAMS, PlatformSpec, get_platform
from repro.soc.cpu import kernel_counts
from repro.soc.params import CYCLE_FIELDS, RATE_FIELDS, DianaParams

LATENCY_FIELDS = RATE_FIELDS + CYCLE_FIELDS


# -- the oracle: the per-tile cycle loop, as it was --------------------------

def _dig_compute(spec, c_t, k_t, oy_t, ox_t, p):
    if spec.kind == "conv2d":
        ix_t = min((ox_t - 1) * spec.strides[1] + spec.fx, spec.ix)
        return (k_t * oy_t * spec.fy * spec.fx
                * math.ceil(c_t / p.dig_pe_rows)
                * math.ceil(ix_t / p.dig_pe_cols))
    if spec.kind == "dwconv2d":
        ix_t = min((ox_t - 1) * spec.strides[1] + spec.fx, spec.ix)
        row_cycles = (c_t * oy_t * spec.fy * spec.fx
                      * math.ceil(ix_t / p.dig_pe_cols))
        return row_cycles * (p.dig_pe_cols / p.dig_dw_macs_per_cycle)
    if spec.kind == "dense":
        return math.ceil(c_t / p.dig_pe_rows) * math.ceil(k_t / p.dig_pe_cols)
    return c_t * oy_t * ox_t / p.dig_simd_elems_per_cycle


def _dig_weight_bytes(spec, c_t, k_t):
    if spec.kind == "dense":
        return k_t * c_t
    if spec.kind == "dwconv2d":
        return c_t * spec.fy * spec.fx
    return k_t * c_t * spec.fy * spec.fx


def _ana_rows(spec, c_t):
    return c_t if spec.kind == "dense" else c_t * spec.fy * spec.fx


def _ana_compute(spec, c_t, k_t, oy_t, ox_t, p):
    if spec.kind == "add":
        return c_t * oy_t * ox_t / 16.0
    blocks = (math.ceil(_ana_rows(spec, c_t) / p.ana_rows)
              * math.ceil(k_t / p.ana_cols))
    pixels = oy_t * ox_t if spec.kind == "conv2d" else 1
    return pixels * blocks * p.ana_pixel_cycles


def _transfer(num_bytes, chunks, p, bandwidth):
    if num_bytes <= 0:
        return 0.0
    return (p.dma_setup_cycles + chunks * p.dma_chunk_cycles
            + num_bytes / bandwidth)


def _chunks(tensor_shape, tile_shape):
    chunks, merged = 1, True
    for full, tile in zip(reversed(tensor_shape), reversed(tile_shape)):
        if merged:
            merged = tile == full
            continue
        chunks *= tile
    return chunks


def _tile_transfer(tensor_shape, tile_shape, p):
    return _transfer(math.prod(tile_shape), _chunks(tensor_shape, tile_shape),
                     p, p.dma_act_bytes_per_cycle)


def oracle_layer_cycles(target, spec, sol, p):
    """Cycles per category of one tiled layer, charged tile by tile."""
    cycles = {}

    def add(cat, c):
        cycles[cat] = cycles.get(cat, 0.0) + c

    digital = target == "soc.digital"
    add("runtime", p.runtime_call_overhead)
    if not digital and spec.kind != "add":
        rows = _ana_rows(spec, spec.in_channels)
        add("weight_dma", rows * math.ceil(spec.out_channels / p.ana_cols)
            * p.ana_row_write_cycles)
    in_shape = (spec.in_channels, spec.iy, spec.ix)
    out_shape = (spec.out_channels, spec.oy, spec.ox)
    block, in_dma, out_dma, compute = None, [], [], []
    for tile in sol.tiles():
        k_t, oy_t, ox_t = tile.out_shape
        c_t = tile.c1 - tile.c0
        if digital and spec.kind != "add" and (tile.k0, tile.c0) != block:
            block = (tile.k0, tile.c0)
            add("weight_dma", p.dma_setup_cycles
                + _dig_weight_bytes(spec, c_t, k_t) / p.dma_bytes_per_cycle)
        operands = 2 if spec.kind == "add" else 1
        in_dma.append(operands * _tile_transfer(in_shape, tile.in_shape, p))
        out_dma.append(_tile_transfer(out_shape, tile.out_shape, p)
                       if tile.last_reduction else 0.0)
        if digital:
            compute.append(_dig_compute(spec, c_t, k_t, oy_t, ox_t, p)
                           + p.dig_job_overhead)
        else:
            compute.append(_ana_compute(spec, c_t, k_t, oy_t, ox_t, p)
                           + p.ana_job_overhead)
        add("tile_loop", p.tile_loop_overhead)
    add("accel_compute", sum(compute))
    streamed = sum(in_dma) + sum(out_dma) - in_dma[0] - out_dma[-1]
    add("act_dma", in_dma[0] + out_dma[-1]
        + max(0.0, streamed - sum(compute)))
    return cycles


def oracle_cpu_cycles(body, p):
    """Cycles of one fused CPU kernel, charged call by call."""
    total = 0.0
    for call in body.calls():
        op, out = call.op, call.ttype.num_elements
        if op == "nn.conv2d":
            groups = call.attrs["groups"]
            dw = groups > 1 and groups == call.inputs[0].shape[1]
            total += call.macs() * (p.cpu_cycles_per_mac_dwconv if dw
                                    else p.cpu_cycles_per_mac_conv)
        elif op == "nn.dense":
            total += call.macs() * p.cpu_cycles_per_mac_dense
        elif op in ("nn.avg_pool2d", "nn.max_pool2d", "nn.global_avg_pool2d"):
            if op == "nn.global_avg_pool2d":
                window = call.inputs[0].shape[2] * call.inputs[0].shape[3]
            else:
                pool = call.attrs["pool_size"]
                window = pool[0] * pool[1]
            total += out * window * p.cpu_cycles_per_elem_pool / 4.0
        elif op == "nn.softmax":
            total += out * p.cpu_cycles_per_elem_softmax
        elif op in ("reshape", "nn.batch_flatten", "nn.pad", "concatenate"):
            total += out * p.cpu_cycles_per_elem_copy
        else:
            total += out * p.cpu_cycles_per_elem_simple
    return {"cpu_compute": total, "runtime": float(p.runtime_call_overhead)}


# -- strategies --------------------------------------------------------------

@st.composite
def calibrations(draw):
    """Every latency constant scaled independently into [0.5x, 2x]."""
    scale = st.floats(0.5, 2.0, allow_nan=False)
    return DEFAULT_PARAMS.with_overrides(**{
        name: getattr(DEFAULT_PARAMS, name) * draw(scale)
        for name in LATENCY_FIELDS})


@st.composite
def tiled_layers(draw):
    """(target, spec, tiling) with a random, possibly ragged TileConfig."""
    target = draw(st.sampled_from(["soc.digital", "soc.analog"]))
    kinds = (["conv2d", "dwconv2d", "dense", "add"]
             if target == "soc.digital" else ["conv2d", "dense", "add"])
    kind = draw(st.sampled_from(kinds))
    wdt = "int8" if target == "soc.digital" else "ternary"
    c = draw(st.integers(1, 300 if target == "soc.analog" else 64))
    k = c if kind in ("dwconv2d", "add") else draw(st.integers(1, 700))
    hw = draw(st.integers(1, 20))
    if kind == "dense":
        spec = make_dense_spec("fc", c, k, weight_dtype=wdt)
    elif kind == "add":
        spec = LayerSpec(name="add", kind="add", in_channels=c,
                         out_channels=c, iy=hw, ix=hw, oy=hw, ox=hw)
    else:
        f = draw(st.sampled_from([1, 3]))
        stride = draw(st.sampled_from([1, 2]))
        spec = make_conv_spec("c", c, k, hw, hw, fy=f, fx=f,
                              strides=(stride, stride),
                              padding=(f // 2, f // 2),
                              depthwise=kind == "dwconv2d",
                              weight_dtype=wdt)
    cfg = TileConfig(
        c_t=draw(st.integers(max(1, c // 3), c)),
        k_t=draw(st.integers(max(1, spec.out_channels // 3),
                             spec.out_channels)),
        oy_t=draw(st.integers(max(1, spec.oy // 3), spec.oy)),
        ox_t=draw(st.integers(max(1, spec.ox // 3), spec.ox)))
    sol = TilingSolution(spec, cfg, target, 0, 0, 0, 0.0, True)
    return target, spec, sol


def _assert_close(got, want):
    assert got.keys() == want.keys()
    for cat, value in want.items():
        assert got[cat] == pytest.approx(value, rel=1e-9, abs=1e-9), cat


@settings(max_examples=300, deadline=None)
@given(tiled_layers(), calibrations())
def test_layer_price_matches_per_tile_oracle(layer, params):
    target, spec, sol = layer
    soc = get_platform("diana", params=params)
    rec = cost_layer(spec, sol, soc.accelerator(target), params)
    _assert_close(rec.cycles, oracle_layer_cycles(target, spec, sol, params))
    assert all(isinstance(n, int) for n in rec.counts.values())


def test_default_params_reproduce_the_oracle_exactly():
    spec = make_conv_spec("c", 32, 64, 16, 16, padding=(1, 1))
    sol = TilingSolution(spec, TileConfig(16, 24, 5, 16), "soc.digital",
                         0, 0, 0, 0.0, True)
    soc = get_platform("diana")
    rec = cost_layer(spec, sol, soc.accelerator("soc.digital"), soc.params)
    assert rec.cycles == oracle_layer_cycles("soc.digital", spec, sol,
                                             DEFAULT_PARAMS)


@functools.lru_cache(maxsize=None)
def _cpu_bodies():
    """Every fused CPU kernel of the zoo under plain TVM."""
    soc = get_platform("diana", enable_digital=False, enable_analog=False)
    config = TVM_CPU.with_overrides(check_l2=False)
    return [step.body for name in MLPERF_TINY
            for step in compile_model(MLPERF_TINY[name](precision="int8"),
                                      soc, config).steps
            if isinstance(step, CpuKernelStep)]


@settings(max_examples=25, deadline=None)
@given(calibrations())
def test_cpu_price_matches_per_call_oracle(params):
    for body in _cpu_bodies():
        _assert_close(price(kernel_counts(body), params),
                      oracle_cpu_cycles(body, params))


@settings(max_examples=50, deadline=None)
@given(calibrations(), st.integers(0, 1 << 20),
       st.sampled_from(["cpu", "soc.digital", "soc.analog"]),
       st.sampled_from(["cpu", "soc.digital", "soc.analog"]))
def test_transfer_penalty_matches_formula(params, nbytes, src, dst):
    legs = 0 if src == dst else (1 if "cpu" in (src, dst) else 2)
    want = 0.0
    if legs and nbytes:
        want = (legs * (params.dma_setup_cycles
                        + nbytes / params.dma_act_bytes_per_cycle)
                + nbytes * params.cpu_cycles_per_elem_copy)
    cycles, _ = transfer_penalty(src, dst, nbytes, params)
    assert cycles == pytest.approx(want, rel=1e-9)


# -- the table is the only reader of the latency constants -------------------

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
PRICING_MODULES = {"runtime/cost.py", "soc/params.py"}
#: the energy model converts DMA cycles back to bytes at the weight rate
ALLOWED_READS = {("soc/energy.py", "dma_bytes_per_cycle")}


def test_only_the_price_table_reads_latency_constants():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel in PRICING_MODULES:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and node.attr in LATENCY_FIELDS
                    and (rel, node.attr) not in ALLOWED_READS):
                offenders.append(f"{rel}:{node.lineno} .{node.attr}")
    assert not offenders, offenders


def test_nineteen_latency_constants():
    assert len(set(LATENCY_FIELDS)) == 19
    assert all(hasattr(DEFAULT_PARAMS, name) for name in LATENCY_FIELDS)


# -- input hygiene -----------------------------------------------------------

@pytest.mark.parametrize("field,value", [
    ("dma_bytes_per_cycle", 0), ("dma_act_bytes_per_cycle", -16),
    ("dig_dw_macs_per_cycle", float("inf")), ("tile_loop_overhead", -500),
    ("ana_pixel_cycles", float("nan")), ("runtime_call_overhead", None),
])
def test_bad_latency_constant_raises_naming_the_field(field, value):
    with pytest.raises(PlatformError, match=field):
        DEFAULT_PARAMS.with_overrides(**{field: value})
    with pytest.raises(PlatformError, match=field):
        PlatformSpec(name="bad", params=DianaParams(**{field: value}))


def test_zero_overheads_are_valid():
    params = DEFAULT_PARAMS.with_overrides(
        **{name: 0 for name in CYCLE_FIELDS})
    assert params.tile_loop_overhead == 0
