"""Graph runtime: executes a compiled model on the simulated DIANA SoC.

An inference has two products, computed in two places:

* the *functional* result (bit-exact integer numpy computation) comes
  from the step loop in this module — ``for step: values[out] =
  kernel(step, args)``;
* the *cycle cost* and L2 high-water mark (DMA + compute + overheads,
  per the cost models in :mod:`repro.soc`) are analytic in the compiled
  program, never in activation values, so they are computed once per
  (model, platform) by :func:`repro.runtime.accounting.account_model`
  and every result carries that object by reference.

``exec_mode`` therefore only selects the kernel that computes an
accelerator layer's bytes:

* ``"tiled"`` (default, verification mode) — actually iterate the DORY
  tiling: slicing halos, accumulating int32 partial sums across C
  blocks, writing back output tiles. An edge tile's residual zero
  border is not materialized here: the unpadded slab goes to the
  kernel with its ``((pt, pb), (pl, pr))`` pads, and the kernel pads
  and casts it in one pass. Any tiling bug shows up as a numerical
  mismatch against the reference interpreter.
* ``"fast"`` — one full-layer kernel call per layer. Outputs are
  byte-identical (int32 accumulation is order-independent) at a
  fraction of the simulation wall-clock, and the whole batch of a
  ``run_batch`` is evaluated in one vectorized pass (DIANA processes
  samples sequentially; batching is a simulator-side vectorization).
* ``"native"`` — the compiled per-artifact shared library, falling
  back per step to the ``fast`` kernel for anything it does not cover.

Fused :class:`~repro.core.program.DepthFirstChain` schedules execute
patch by patch with halo recompute in *every* mode — they are part of
the compiled program (the memory plan reserves only patch-sized
interior slabs, so layer-by-layer execution of a fused model would be
unfaithful to its plan). Outputs stay byte-identical to layer-by-layer
execution of the same graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional

import numpy as np

from ..core.program import CompiledModel, CpuKernelStep, DepthFirstChain
from ..dory.layer_spec import LayerSpec
from ..dory.tiling_types import Tile, TilingSolution
from ..errors import SimulationError
from ..extensions.depthfirst import _backward_ranges, _needed_input_range
from ..obs.trace import get_tracer, now_ns
from .. import numerics as K
from .accounting import ModelAccounting, account_model
from .reference import compile_plan

if TYPE_CHECKING:  # avoid a circular import at runtime
    from ..soc.platform import Platform

@dataclass
class ExecutionResult:
    """Output value + performance counters of one inference."""

    output: np.ndarray
    perf: ModelAccounting  #: shared per (model, platform); read-only

    @property
    def l2_peak_bytes(self) -> int:
        return self.perf.l2_peak_bytes

    @property
    def total_cycles(self) -> float:
        return self.perf.total_cycles

    @property
    def peak_cycles(self) -> float:
        return self.perf.peak_cycles


@dataclass
class BatchExecutionResult:
    """Outputs + per-inference counters of one batched (N > 1) run.

    ``perf`` holds the counters of a *single* inference — cycle cost is
    input-independent, so every sample costs the same; the SoC runs
    samples back to back and totals scale linearly with ``batch``.
    """

    outputs: np.ndarray
    perf: ModelAccounting  #: shared per (model, platform); read-only
    batch: int

    @property
    def l2_peak_bytes(self) -> int:
        return self.perf.l2_peak_bytes

    @property
    def total_cycles(self) -> float:
        return self.batch * self.perf.total_cycles

    @property
    def peak_cycles(self) -> float:
        return self.batch * self.perf.peak_cycles


def _as_chw(arr: np.ndarray) -> np.ndarray:
    """Drop the batch dim: executor tiles operate on (C, H, W) views."""
    if arr.ndim == 4:
        return arr[0]
    if arr.ndim == 2:
        return arr[0][:, None, None]
    raise SimulationError(f"unsupported activation rank {arr.ndim}")


def _tile_input(x_chw: np.ndarray, tile: Tile):
    """The unpadded input slab one tile reads (NCHW view, N=1) and the
    ``((pt, pb), (pl, pr))`` zero border its edge still needs — the
    kernel pads and casts the slab in one pass."""
    slab = x_chw[None, tile.c0:tile.c1, tile.iy0:tile.iy1, tile.ix0:tile.ix1]
    return slab, ((tile.pad_top, tile.pad_bottom),
                  (tile.pad_left, tile.pad_right))


def _alloc_output(spec: LayerSpec, batch: int = 1) -> np.ndarray:
    if spec.kind == "dense":
        return np.zeros((batch, spec.out_channels), dtype=np.int8)
    return np.zeros((batch, spec.out_channels, spec.oy, spec.ox),
                    dtype=np.int8)


def _compute_tile(accel, spec: LayerSpec, tile: Tile,
                  x_chw: np.ndarray, y_chw: Optional[np.ndarray],
                  out_chw: np.ndarray, pending: Dict[tuple, np.ndarray]):
    bias = spec.bias[tile.k0:tile.k1] if spec.bias is not None else None
    if spec.kind == "dense":
        w = spec.weight[tile.k0:tile.k1]
        res = accel.execute(spec, x_chw[:, 0, 0][None, ...], w, bias)
        out_chw[tile.k0:tile.k1, 0, 0] = res[0]
        return
    if spec.kind == "add":
        xa = x_chw[tile.c0:tile.c1, tile.oy0:tile.oy1,
                   tile.ox0:tile.ox1][None, ...]
        yb = y_chw[tile.c0:tile.c1, tile.oy0:tile.oy1,
                   tile.ox0:tile.ox1][None, ...]
        res = accel.execute(spec, xa, None, bias, y=yb)
        out_chw[tile.c0:tile.c1, tile.oy0:tile.oy1,
                tile.ox0:tile.ox1] = res[0]
        return
    xin, pads = _tile_input(x_chw, tile)
    if spec.is_depthwise:
        w = spec.weight[tile.k0:tile.k1]
        res = accel.execute(spec, xin, w, bias, padding=pads)
        out_chw[tile.k0:tile.k1, tile.oy0:tile.oy1,
                tile.ox0:tile.ox1] = res[0]
        return
    # conv2d: accumulate int32 partial sums across C blocks, then
    # requantize once — exactly what the generated tile loop does.
    w = spec.weight[tile.k0:tile.k1, tile.c0:tile.c1]
    acc = accel.accumulate(spec, xin, w, padding=pads)
    key = (tile.k0, tile.oy0, tile.ox0)
    if key in pending:
        acc = pending.pop(key) + acc
    if not tile.last_reduction:
        pending[key] = acc
        return
    res = accel.finalize(spec, acc, bias)
    out_chw[tile.k0:tile.k1, tile.oy0:tile.oy1, tile.ox0:tile.ox1] = res[0]


def execute_layer_tiled(accel, spec: LayerSpec, sol: TilingSolution,
                        x: np.ndarray,
                        y: Optional[np.ndarray] = None) -> np.ndarray:
    """Tile-by-tile functional execution of one accelerator layer (N=1).

    Exercises the full DORY schedule: halo slicing, edge-tile padding,
    K/C/row blocking and int32 partial-sum accumulation. DIANA runs one
    sample at a time, and so does this function: a batched input is
    refused (:meth:`Executor.run_batch` loops tiled mode per sample).
    """
    batch = x.shape[0] if y is None else max(x.shape[0], y.shape[0])
    if batch != 1:
        raise SimulationError(
            f"{spec.name}: tiled execution runs one sample, got a batch "
            f"of {batch}; run the samples one at a time")
    x_chw = _as_chw(x)
    y_chw = _as_chw(y) if y is not None else None
    out = _alloc_output(spec)
    out_chw = _as_chw(out)
    pending: Dict[tuple, np.ndarray] = {}  # int32 partial sums in L1
    for tile in sol.tiles():
        _compute_tile(accel, spec, tile, x_chw, y_chw, out_chw, pending)
    if pending:
        raise SimulationError(
            f"{spec.name}: {len(pending)} unfinished partial sums")
    return out


def execute_layer_fast(accel, spec: LayerSpec, x: np.ndarray,
                       y: Optional[np.ndarray] = None) -> np.ndarray:
    """Full-layer functional execution of one accelerator layer.

    One kernel call over the whole (possibly batched) input; bit-exact
    vs. :func:`execute_layer_tiled` because int32 accumulation is
    order-independent.
    """
    if spec.kind == "add":
        return accel.execute(spec, x, None, spec.bias, y=y)
    return accel.execute(spec, x, spec.weight, spec.bias)


def execute_chain_depth_first(accels, specs: List[LayerSpec], x: np.ndarray,
                              patch_grid,
                              skips: Optional[List[Optional[np.ndarray]]]
                              = None) -> np.ndarray:
    """Patch-based execution of one fused conv chain.

    For every output patch of the last layer, the required input window
    is traced back through the chain (exact halo propagation with
    boundary clipping), sliced, and the sub-pyramid recomputed with the
    *same* accelerator kernels layer-by-layer execution uses — so the
    result is byte-identical to running each layer in full. Residual
    zero padding is passed to each layer's kernel, which pads while
    casting: whatever part of a patch's halo falls outside the tensor
    is the convolution's own zero border.

    ``skips`` carries, per layer, the resident second operand of a
    residual ``add`` link (``None`` for conv layers): adds have
    identity geometry, so the skip is simply read at the patch's own
    region. Batch-covariant (the batch dimension rides through the
    kernels).
    """
    final = specs[-1]
    py, px = patch_grid
    if py < 1 or px < 1 or py > final.oy or px > final.ox:
        raise SimulationError(f"invalid patch grid {tuple(patch_grid)}")
    skips = skips or [None] * len(specs)
    out = np.zeros((x.shape[0], final.out_channels, final.oy, final.ox),
                   dtype=np.int8)
    for iy in range(py):
        y0, y1 = (final.oy * iy) // py, (final.oy * (iy + 1)) // py
        for ix in range(px):
            x0, x1 = (final.ox * ix) // px, (final.ox * (ix + 1)) // px
            if y0 == y1 or x0 == x1:
                continue
            ranges = _backward_ranges(specs, (y0, y1), (x0, x1))
            first = specs[0]
            in_y = _needed_input_range(
                ranges[0][0][0], ranges[0][0][1], first.strides[0],
                first.fy, first.padding[0], first.iy)
            in_x = _needed_input_range(
                ranges[0][1][0], ranges[0][1][1], first.strides[1],
                first.fx, first.padding[1], first.ix)
            patch = x[:, :, in_y[0]:in_y[1], in_x[0]:in_x[1]]
            for accel, spec, skip, ((ry0, ry1), (rx0, rx1)) in zip(
                    accels, specs, skips, ranges):
                if spec.kind == "add":
                    ywin = skip[:, :, ry0:ry1, rx0:rx1]
                    patch = accel.execute(spec, patch, None, spec.bias,
                                          y=ywin)
                    continue
                pt = max(0, -(ry0 * spec.strides[0] - spec.padding[0]))
                pb = max(0, (ry1 - 1) * spec.strides[0] + spec.fy
                         - spec.padding[0] - spec.iy)
                pl = max(0, -(rx0 * spec.strides[1] - spec.padding[1]))
                pr = max(0, (rx1 - 1) * spec.strides[1] + spec.fx
                         - spec.padding[1] - spec.ix)
                patch = accel.execute(spec, patch, spec.weight, spec.bias,
                                      padding=((pt, pb), (pl, pr)))
            out[:, :, y0:y1, x0:x1] = patch
    return out


def _accel_tiled(accel, native, idx, step, x, y):
    return execute_layer_tiled(accel, step.spec, step.tiling, x, y)


def _accel_fast(accel, native, idx, step, x, y):
    return execute_layer_fast(accel, step.spec, x, y)


def _accel_native(accel, native, idx, step, x, y):
    if native is not None:
        out = native.run_step(idx, step.spec, x, y)
        if out is not None:
            return out
    # no toolchain / uncovered kind / geometry surprise: fast interpreter
    return execute_layer_fast(accel, step.spec, x, y)


class _Mode(NamedTuple):
    """Everything that depends on ``exec_mode``."""

    accel_kernel: Callable  #: (accel, native, idx, step, x, y) -> ndarray
    native: bool            #: build / load the model's shared library
    batched: bool           #: kernels evaluate a whole batch in one pass


_MODES = {
    "tiled": _Mode(_accel_tiled, native=False, batched=False),
    "fast": _Mode(_accel_fast, native=False, batched=True),
    "native": _Mode(_accel_native, native=True, batched=True),
}

#: the functional execution modes of accelerator layers.
EXEC_MODES = tuple(_MODES)


class Executor:
    """Runs compiled models on a :class:`~repro.soc.platform.Platform`.

    ``exec_mode`` selects the kernel that computes accelerator layers:
    ``"tiled"`` (default) executes every DORY tile and is the
    verification mode; ``"fast"`` computes each layer in one full-layer
    kernel call; ``"native"`` runs the compiled per-artifact shared
    library (see :mod:`repro.codegen.build`) and falls back per step to
    the ``fast`` kernel for anything the library does not cover — CPU
    kernels, fused chains, or a host without a C toolchain. A model's
    :class:`~repro.core.program.DepthFirstChain` schedules execute
    patch by patch in every mode — they are part of the program, and
    their memory plan only holds patch-sized interior slabs.

    Outputs are byte-identical across modes, and so is the accounting:
    ``perf`` / ``l2_peak_bytes`` of every result are the
    :class:`~repro.runtime.accounting.ModelAccounting` of the (model,
    platform) pair, computed on first use and shared by reference.
    ``native_cache_dir`` overrides where the shared library is cached
    (default: ``$REPRO_NATIVE_CACHE`` or ``~/.cache/repro/native``; the
    serving layer passes the artifact's own directory).
    """

    def __init__(self, soc: "Platform", exec_mode: str = "tiled",
                 native_cache_dir: Optional[str] = None):
        if exec_mode not in _MODES:
            raise SimulationError(
                f"unknown exec_mode {exec_mode!r}; expected one of {EXEC_MODES}")
        self.soc = soc
        self.exec_mode = exec_mode
        self.native_cache_dir = native_cache_dir
        self._mode = _MODES[exec_mode]

    # -- public API -----------------------------------------------------------

    def run(self, model: CompiledModel,
            feeds: Dict[str, np.ndarray]) -> ExecutionResult:
        """Execute one inference; returns output + cycle accounting.

        Raises :class:`~repro.errors.OutOfMemoryError` before any kernel
        runs when the model's memory plan does not fit the platform's L2.
        """
        output, acct = self._execute(model, feeds, batch=None)
        return ExecutionResult(output=output, perf=acct)

    def run_batch(self, model: CompiledModel,
                  feeds: Dict[str, np.ndarray]) -> BatchExecutionResult:
        """Execute a batch of N samples (feeds carry a leading batch dim).

        Sample ``i`` of the result is byte-identical to ``run`` on
        sample ``i`` alone. Fast and native kernels evaluate the batch
        in one vectorized pass (chains included); tiled mode loops
        sample by sample (every tile of every sample is executed).
        """
        batch = self._batch_size(model, feeds)
        if self._mode.batched:
            outputs, acct = self._execute(model, feeds, batch=batch)
        else:
            runs = [self._execute(
                model, {name: np.asarray(arr)[i:i + 1]
                        for name, arr in feeds.items()}, batch=None)
                for i in range(batch)]
            outputs = np.concatenate([out for out, _ in runs], axis=0)
            acct = runs[0][1]
        return BatchExecutionResult(outputs=outputs, perf=acct, batch=batch)

    # -- main loop -----------------------------------------------------------

    def _execute(self, model: CompiledModel, feeds: Dict[str, np.ndarray],
                 batch: Optional[int]):
        # the whole per-step tracing cost when disabled is this one
        # global read plus one `is not None` branch per step — the
        # guard tests/test_obs.py::test_disabled_overhead_gate holds at
        # <= 2% of fast-mode inference wall-clock
        tracer = get_tracer()
        values = self._bind_feeds(model, feeds, batch)
        # everything modeled — cycles, L2 occupancy, the capacity check
        # — is a property of (model, soc), not of this inference
        acct = account_model(model, self.soc)
        records = acct.records
        # fused chains are part of the compiled *program*, not a
        # simulation knob: their memory plan reserves only patch-slab
        # interiors, so they run patch-wise in every mode; exec_mode
        # selects how everything else runs.
        chains: Dict[int, DepthFirstChain] = {
            c.start: c for c in model.depthfirst_chains}

        native = self._native_module(model) if self._mode.native else None
        if native is not None and native.has_full_run and not chains:
            t0 = now_ns() if tracer is not None else 0
            full = self._native_full(model, values, batch, native)
            if full is not None:
                if tracer is not None:
                    tracer.record(
                        "exec.native_full", t0, category="exec",
                        model=model.name, exec_mode=self.exec_mode,
                        steps=len(model.steps),
                        modeled_cycles=acct.total_cycles)
                return full, acct

        accel_kernel = self._mode.accel_kernel
        accelerator = self.soc.accelerator
        steps = model.steps
        idx = 0
        while idx < len(steps):
            step = steps[idx]
            t0 = now_ns() if tracer is not None else 0
            chain = chains.get(idx)
            if chain is not None:
                values[steps[chain.stop - 1].output_name] = self._run_chain(
                    steps[chain.start:chain.stop], chain, values)
                if tracer is not None:
                    tracer.record(
                        "exec.chain", t0, category="exec",
                        start=chain.start, length=chain.length,
                        exec_mode=self.exec_mode,
                        modeled_cycles=sum(
                            r.total_cycles
                            for r in records[chain.start:chain.stop]))
                idx = chain.stop
                continue
            args = [values[n] for n in step.input_names]
            if isinstance(step, CpuKernelStep):
                out = compile_plan(step.body).run_args(*args)
            else:
                out = accel_kernel(
                    accelerator(step.accel_target), native, idx, step,
                    args[0], args[1] if step.spec.kind == "add" else None)
            values[step.output_name] = out
            if tracer is not None:
                tracer.record(
                    "exec.step", t0, category="exec", step=step.name,
                    target=records[idx].target, exec_mode=self.exec_mode,
                    modeled_cycles=records[idx].total_cycles)
            idx += 1

        return values[model.output_name], acct

    # -- helpers -----------------------------------------------------------------

    def _bind_feeds(self, model: CompiledModel,
                    feeds: Dict[str, np.ndarray],
                    batch: Optional[int]) -> Dict[str, np.ndarray]:
        """The model's inputs as arrays of the input buffers' dtype.

        A feed of another dtype is accepted only when casting it
        preserves every value — an out-of-range or fractional feed
        would otherwise be wrapped / truncated into a different,
        silently served input.
        """
        values: Dict[str, np.ndarray] = {}
        for name in model.input_names:
            if name not in feeds:
                raise SimulationError(f"missing input {name!r}")
            ttype = model.buffers[name].ttype
            arr = K.cast_exact(feeds[name], ttype.dtype.to_numpy())
            if arr is None:
                raise SimulationError(
                    f"input {name!r}: values of dtype "
                    f"{np.asarray(feeds[name]).dtype} do not fit "
                    f"{ttype.dtype}")
            expected = (tuple(ttype.shape) if batch is None
                        else (batch,) + tuple(ttype.shape)[1:])
            if arr.shape != expected:
                raise SimulationError(
                    f"input {name!r}: expected {expected}, "
                    f"got {arr.shape}")
            values[name] = arr
        return values

    def _batch_size(self, model: CompiledModel,
                    feeds: Dict[str, np.ndarray]) -> int:
        batch = None
        for name in model.input_names:
            if name not in feeds:
                raise SimulationError(f"missing input {name!r}")
            arr = np.asarray(feeds[name])
            shape = tuple(model.buffers[name].ttype.shape)
            if arr.ndim != len(shape) or arr.shape[1:] != shape[1:]:
                raise SimulationError(
                    f"input {name!r}: expected (N,) + {shape[1:]}, "
                    f"got {arr.shape}")
            if batch is None:
                batch = arr.shape[0]
            elif arr.shape[0] != batch:
                raise SimulationError(
                    f"input {name!r}: inconsistent batch "
                    f"({arr.shape[0]} vs {batch})")
        if not batch:
            raise SimulationError("empty batch")
        return batch

    def _native_module(self, model: CompiledModel):
        """Build-or-load the model's native library, memoized on the
        model object (``None`` — no toolchain / nothing to cover — is
        memoized too, so a host without a compiler pays the probe
        once, not per inference)."""
        cached = getattr(model, "_native_mod_cache", None)
        if cached is not None and cached[0] == self.native_cache_dir:
            return cached[1]
        from ..codegen.build import load_native_module

        mod = load_native_module(model, self.native_cache_dir)
        model._native_mod_cache = (self.native_cache_dir, mod)
        return mod

    def _native_full(self, model: CompiledModel, values,
                     batch: Optional[int], native):
        """Whole-network native execution (one C call over the planned
        arena); returns the reshaped output or ``None`` to fall back to
        the step loop."""
        n = 1 if batch is None else batch
        ins = []
        for name in model.input_names:
            arr = values[name]
            if arr.dtype != np.int8:
                return None
            ins.append(arr)
        out_t = model.buffers[model.output_name].ttype
        flat = native.run_full(ins, out_t.num_elements, n)
        if flat is None:
            return None
        shape = (tuple(out_t.shape) if batch is None
                 else (batch,) + tuple(out_t.shape)[1:])
        return flat.reshape(shape)

    def _run_chain(self, steps, chain: DepthFirstChain,
                   values) -> np.ndarray:
        """Execute one fused depth-first chain patch by patch."""
        skips: List[Optional[np.ndarray]] = []
        for j, step in enumerate(steps):
            if step.spec.kind != "add":
                skips.append(None)
                continue
            tail = steps[j - 1].output_name
            ins = step.input_names
            skips.append(values[ins[0] if ins[1] == tail else ins[1]])
        return execute_chain_depth_first(
            [self.soc.accelerator(s.accel_target) for s in steps],
            [s.spec for s in steps], values[steps[0].input_names[0]],
            chain.patch_grid, skips=skips)
