"""Depth-first (patch-based) execution: analysis and schedule planning.

The paper's related work (Sec. II-B) discusses MCUNetV2 [11], which
"executes layers in a depth-first fashion [12] to reduce peak memory
consumption": instead of materializing every intermediate feature map
in L2, a *chain* of convolution layers is evaluated patch by patch, so
only patch-sized intermediates exist at any time — at the price of
recomputing the halo overlap between patches.

HTVM executes layer-by-layer; this module both quantifies what
depth-first buys on the same workloads and plans *executable* schedules
for the runtime (:func:`~repro.runtime.executor.execute_chain_depth_first`):

* :func:`layer_by_layer_span_bytes` — HTVM's L2 activation residency
  for a chain run layer by layer,
* :func:`analyze_depth_first` — peak memory and recompute overhead of
  patch-based execution with a py x px output patch grid,
* :func:`chain_runs_from_steps` — the fusable runs of a compiled step
  list,
* :func:`plan_chain_grid` — size a chain's patch grid against an L2
  activation budget (minimal recompute subject to the budget),
* :func:`plan_depthfirst_steps` — turn a compiled step list into
  :class:`~repro.core.program.DepthFirstChain` schedule records, the
  compilation product ``CompilerConfig.depthfirst`` threads through the
  compiler, executor, artifact store and benchmarks. It is the one
  place chains are found, segmented and priced; ``repro df`` reports
  what it adopted.

The analysis is exact: patch halos are propagated backwards through
strides/kernels layer by layer (with boundary clipping), and the
recompute factor is the true ratio of patched MACs over nominal MACs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..dory.layer_spec import LayerSpec
from ..errors import UnsupportedError

#: layer kinds a depth-first chain may contain (pixel-local MAC ops).
CHAIN_KINDS = ("conv2d", "dwconv2d")
#: ``depthfirst="auto"`` refuses chains costlier than this recompute
#: factor — beyond it the cycle overhead outweighs the memory win.
AUTO_MAX_RECOMPUTE = 1.5
#: ``depthfirst="on"`` still refuses pathological halo blow-ups.
ON_MAX_RECOMPUTE = 2.5
#: patch grids the planner explores (clipped to the output geometry).
GRID_CANDIDATES = ((1, 2), (2, 1), (2, 2), (2, 4), (4, 2), (3, 3),
                   (4, 4), (6, 6), (8, 8), (6, 1), (1, 6), (8, 1), (1, 8))
#: longest fused sub-chain: halos grow with depth, so very long chains
#: recompute almost the whole input per patch.
MAX_CHAIN_LEN = 6


@dataclass
class DepthFirstPlan:
    """Outcome of analyzing one patch grid for a conv chain."""

    num_patches: int
    patch_grid: Tuple[int, int]
    peak_bytes: int                 #: chain input + output + patch buffers
    patch_buffer_bytes: int         #: largest per-patch intermediate pair
    total_macs: int                 #: including halo recompute
    nominal_macs: int
    #: exact per-layer worst-case patch rows/cols over *all* patches
    #: (boundary patches of strided layers need more halo than the
    #: first patch — see the regression oracle in tests).
    per_layer_patch_rows: List[int] = field(default_factory=list)
    per_layer_patch_cols: List[int] = field(default_factory=list)
    #: per-layer output patch-slab bytes (K * rows * cols, int8).
    per_layer_patch_bytes: List[int] = field(default_factory=list)
    #: per-layer patched/nominal MAC ratio (halo recompute share).
    per_layer_recompute: List[float] = field(default_factory=list)

    @property
    def recompute_factor(self) -> float:
        return self.total_macs / self.nominal_macs if self.nominal_macs else 1.0


def _check_chain(chain: List[LayerSpec]):
    if not chain:
        raise UnsupportedError("empty layer chain")
    for a, b in zip(chain, chain[1:]):
        if a.out_channels != b.in_channels:
            raise UnsupportedError(
                f"chain mismatch: {a.name} K={a.out_channels} feeds "
                f"{b.name} C={b.in_channels}")
        if (a.oy, a.ox) != (b.iy, b.ix):
            raise UnsupportedError(
                f"chain mismatch: {a.name} {a.oy}x{a.ox} feeds "
                f"{b.name} {b.iy}x{b.ix}")


def layer_by_layer_span_bytes(chain: List[LayerSpec],
                              input_held: bool = False) -> int:
    """Exact L2 activation residency of running the chain layer by layer.

    ``input_held`` marks a chain input with consumers beyond the chain
    (a residual skip, a branch): it then stays resident for the whole
    span instead of dying after the first layer — which is what makes
    fusing short chains inside residual blocks profitable.
    """
    _check_chain(chain)
    in_full = chain[0].input_elements()
    prev = in_full
    worst = 0
    for j, s in enumerate(chain):
        out = s.output_elements()
        held = in_full if (input_held and j > 0) else 0
        worst = max(worst, held + prev + out)
        prev = out
    return worst


def _needed_input_range(lo: int, hi: int, stride: int, f: int, pad: int,
                        in_dim: int) -> Tuple[int, int]:
    """Input interval a layer reads to produce outputs [lo, hi), clipped."""
    ilo = max(0, lo * stride - pad)
    ihi = min(in_dim, (hi - 1) * stride + f - pad)
    return ilo, ihi


def _backward_ranges(chain: List[LayerSpec],
                     oy: Tuple[int, int], ox: Tuple[int, int]):
    """Per-layer *output* ranges needed to produce the final patch.

    Returns a list aligned with ``chain``: entry i is the
    ((y0, y1), (x0, x1)) output region layer i must compute.
    """
    ranges = [None] * len(chain)
    ranges[-1] = (oy, ox)
    cur_y, cur_x = oy, ox
    for i in range(len(chain) - 1, 0, -1):
        spec = chain[i]
        cur_y = _needed_input_range(cur_y[0], cur_y[1], spec.strides[0],
                                    spec.fy, spec.padding[0], spec.iy)
        cur_x = _needed_input_range(cur_x[0], cur_x[1], spec.strides[1],
                                    spec.fx, spec.padding[1], spec.ix)
        ranges[i - 1] = (cur_y, cur_x)
    return ranges


def analyze_depth_first(chain: List[LayerSpec],
                        patch_grid: Tuple[int, int]) -> DepthFirstPlan:
    """Analyze patch-based execution of a conv chain.

    Args:
        chain: shape-compatible pixel-local layers — conv2d / dwconv2d,
            plus residual ``add`` links (identity geometry: patches
            propagate through them unchanged, and their second operand
            is read from its resident L2 buffer).
        patch_grid: (rows, cols) of output patches.

    The chain's *input* and *output* tensors live in L2 in full (they
    interface with the rest of the network); every intermediate exists
    only at patch granularity. The first layer reads its windows
    directly from the resident input and the last layer writes its
    patches directly into the resident output, so the extra residency
    is the *interior* slabs only — at any instant one produced slab
    plus the one being produced (``patch_buffer_bytes`` is that worst
    pair). Halo regions are recomputed per patch (MCUNetV2's approach,
    no line-buffer caching), and the analysis is exact: every patch's
    region is propagated backwards with boundary clipping, so both the
    recompute factor and the peak buffers are true values, not
    estimates.
    """
    _check_chain(chain)
    last = chain[-1]
    py, px = patch_grid
    if py < 1 or px < 1 or py > last.oy or px > last.ox:
        raise UnsupportedError(f"invalid patch grid {patch_grid}")

    nominal = sum(s.macs() for s in chain)
    in_full = chain[0].input_elements()
    out_full = last.output_elements()

    total_macs = 0
    worst_pair = 0
    layer_macs = [0] * len(chain)
    layer_area = [0] * len(chain)
    layer_rows = [0] * len(chain)
    layer_cols = [0] * len(chain)
    for iy in range(py):
        y0, y1 = (last.oy * iy) // py, (last.oy * (iy + 1)) // py
        for ix in range(px):
            x0, x1 = (last.ox * ix) // px, (last.ox * (ix + 1)) // px
            if y0 == y1 or x0 == x1:
                continue
            ranges = _backward_ranges(chain, (y0, y1), (x0, x1))
            prev_elems = 0  # layer 0 reads the resident input directly
            for j, (spec, ((ry0, ry1), (rx0, rx1))) in enumerate(
                    zip(chain, ranges)):
                out_rows = ry1 - ry0
                out_cols = rx1 - rx0
                # the last layer writes into the resident output; only
                # interior slabs add L2 residency
                out_elems = (spec.out_channels * out_rows * out_cols
                             if j < len(chain) - 1 else 0)
                cg = spec.in_channels // spec.groups
                macs = (0 if spec.kind == "add" else
                        spec.out_channels * cg * spec.fy * spec.fx
                        * out_rows * out_cols)
                total_macs += macs
                layer_macs[j] += macs
                layer_area[j] += out_rows * out_cols
                # the true per-layer worst case is the max over *all*
                # patches: for strided layers whose output patch does
                # not divide the output height, boundary patches need
                # one halo row more than the first patch does.
                layer_rows[j] = max(layer_rows[j], out_rows)
                layer_cols[j] = max(layer_cols[j], out_cols)
                worst_pair = max(worst_pair, prev_elems + out_elems)
                prev_elems = out_elems

    return DepthFirstPlan(
        num_patches=py * px,
        patch_grid=(py, px),
        peak_bytes=in_full + out_full + worst_pair,
        patch_buffer_bytes=worst_pair,
        total_macs=total_macs,
        nominal_macs=nominal,
        per_layer_patch_rows=layer_rows,
        per_layer_patch_cols=layer_cols,
        per_layer_patch_bytes=[
            s.out_channels * r * c
            for s, r, c in zip(chain, layer_rows, layer_cols)],
        per_layer_recompute=[
            # area ratio == MAC ratio for MAC layers, and still prices
            # the DMA/SIMD overlap of MAC-free layers (residual adds)
            a / (s.oy * s.ox) if s.oy * s.ox else 1.0
            for a, s in zip(layer_area, chain)],
    )


def _links(prev: LayerSpec, spec: LayerSpec) -> bool:
    """True when ``prev`` can feed ``spec`` inside one fused chain."""
    return (prev.out_channels == spec.in_channels
            and (prev.oy, prev.ox) == (spec.iy, spec.ix))


def chain_savings(chain: List[LayerSpec], plan: DepthFirstPlan) -> int:
    """L2 bytes the plan saves on the chain's *interior* buffers.

    The chain input/output stay resident either way (they interface
    with the rest of the network — e.g. a residual skip keeps the input
    alive regardless), so the genuine win of depth-first is replacing
    each full interior feature map with a patch slab.
    """
    return sum(max(0, s.output_elements() - slab)
               for s, slab in zip(chain[:-1], plan.per_layer_patch_bytes))


def plan_chain_grid(chain: List[LayerSpec], budget_bytes: int,
                    mode: str = "auto",
                    input_held: bool = False) -> Optional[DepthFirstPlan]:
    """Pick the patch grid for one chain against an L2 budget.

    Explores :data:`GRID_CANDIDATES` (clipped to the chain's output
    geometry), keeping only grids that beat the chain's true
    layer-by-layer residency (:func:`layer_by_layer_span_bytes` with
    ``input_held``) and whose recompute factor stays under the mode's
    gate (:data:`AUTO_MAX_RECOMPUTE` / :data:`ON_MAX_RECOMPUTE`).
    Among grids whose :attr:`DepthFirstPlan.peak_bytes` fits
    ``budget_bytes``, the one with minimal recompute wins (fewest
    patches as tie-break); when nothing fits, ``mode="on"`` falls back
    to the minimal-peak grid (best effort) while ``mode="auto"``
    returns ``None`` — auto is an out-of-memory rescue, a chain that
    cannot fit does not help.
    """
    _check_chain(chain)
    last = chain[-1]
    gate = AUTO_MAX_RECOMPUTE if mode == "auto" else ON_MAX_RECOMPUTE
    span = layer_by_layer_span_bytes(chain, input_held=input_held)
    grids = sorted({(min(py, last.oy), min(px, last.ox))
                    for py, px in GRID_CANDIDATES})
    best_fit: Optional[DepthFirstPlan] = None
    best_any: Optional[DepthFirstPlan] = None
    for grid in grids:
        if grid[0] * grid[1] <= 1:
            continue
        plan = analyze_depth_first(chain, grid)
        if (plan.recompute_factor > gate or plan.peak_bytes >= span
                or chain_savings(chain, plan) <= 0):
            continue
        if plan.peak_bytes <= budget_bytes and (
                best_fit is None
                or (plan.recompute_factor, plan.num_patches)
                < (best_fit.recompute_factor, best_fit.num_patches)):
            best_fit = plan
        if best_any is None or (
                (plan.peak_bytes, plan.recompute_factor)
                < (best_any.peak_bytes, best_any.recompute_factor)):
            best_any = plan
    if best_fit is None and mode == "on":
        best_fit = best_any
    return best_fit


def chain_runs_from_steps(steps, output_name: str) -> List[List[int]]:
    """Maximal fusable runs of consecutive accelerator steps.

    A run [i, i+1, ..] qualifies when every step is an
    :class:`~repro.core.program.AccelStep` of a pixel-local kind, each
    interior output feeds *only* the next step (checked against every
    step's inputs and the network output), and geometries link up.
    Besides conv2d/dwconv2d layers a run may flow through residual
    ``add`` steps whose *other* operand was produced before the run
    started (or is a graph input): that operand is resident in L2
    either way and is read patch-wise — which is what lets depth-first
    fuse whole residual blocks instead of stopping at the skip.
    """
    from ..core.program import AccelStep

    consumers: dict = {}
    for step in steps:
        for name in step.input_names:
            consumers[name] = consumers.get(name, 0) + 1
    born = {step.output_name: idx for idx, step in enumerate(steps)}

    def conv_ok(step) -> bool:
        return (isinstance(step, AccelStep)
                and step.spec is not None
                and step.spec.kind in CHAIN_KINDS
                and step.spec.weight is not None)

    def add_extends(step, prev, start_idx: int) -> bool:
        if not (isinstance(step, AccelStep) and step.spec is not None
                and step.spec.kind == "add"):
            return False
        ins = step.input_names
        if len(ins) != 2 or ins.count(prev.output_name) != 1:
            return False
        skip = ins[0] if ins[1] == prev.output_name else ins[1]
        return born.get(skip, -1) < start_idx

    runs: List[List[int]] = []
    cur: List[int] = []
    for idx, step in enumerate(steps):
        if cur:
            prev = steps[cur[-1]]
            chained = (idx == cur[-1] + 1
                       and consumers.get(prev.output_name, 0) == 1
                       and prev.output_name != output_name
                       and isinstance(step, AccelStep)
                       and step.spec is not None
                       and _links(prev.spec, step.spec)
                       and ((conv_ok(step)
                             and step.input_names == [prev.output_name])
                            or add_extends(step, prev, cur[0])))
            if chained:
                cur.append(idx)
                continue
            if len(cur) >= 2:
                runs.append(cur)
            cur = []
        if conv_ok(step):
            cur = [idx]
    if len(cur) >= 2:
        runs.append(cur)
    return runs


def plan_depthfirst_steps(steps, output_name: str, budget_bytes: int,
                          mode: str = "auto",
                          arena_bytes: Optional[int] = None,
                          max_len: int = MAX_CHAIN_LEN) -> list:
    """Plan executable depth-first schedules over a compiled step list.

    Returns :class:`~repro.core.program.DepthFirstChain` records (empty
    when nothing qualifies). ``mode="auto"`` only engages when the
    layer-by-layer activation arena (``arena_bytes``) exceeds the
    budget — depth-first as an out-of-memory rescue; ``mode="on"``
    fuses every eligible chain (benchmark/DSE mode).

    Long fusable runs (MobileNet is one end-to-end run) are split
    greedily into sub-chains of at most ``max_len`` layers: at each
    position the longest admissible sub-chain wins, since halos — and
    with them the recompute factor — grow with chain depth.
    """
    from ..core.program import DepthFirstChain

    if mode not in ("auto", "on"):
        raise UnsupportedError(
            f"depthfirst mode {mode!r}; expected 'auto', 'on' or 'off'")
    if (mode == "auto" and arena_bytes is not None
            and arena_bytes <= budget_bytes):
        return []

    consumers: dict = {}
    for step in steps:
        for name in step.input_names:
            consumers[name] = consumers.get(name, 0) + 1

    chains = []
    for run in chain_runs_from_steps(steps, output_name):
        i = 0
        while i < len(run) - 1:
            if steps[run[i]].spec.kind == "add":
                i += 1  # a sub-chain must start with a conv layer
                continue
            # a chain input with other consumers (residual skip) stays
            # in L2 regardless, which changes the profitability math
            held = consumers.get(steps[run[i]].input_names[0], 0) > 1
            adopted = None
            for length in range(min(len(run) - i, max_len), 1, -1):
                specs = [steps[j].spec for j in run[i:i + length]]
                plan = plan_chain_grid(specs, budget_bytes, mode=mode,
                                       input_held=held)
                if plan is not None:
                    adopted = (length, plan)
                    break
            if adopted is None:
                i += 1
                continue
            length, plan = adopted
            chains.append(DepthFirstChain(
                start=run[i], length=length,
                patch_grid=tuple(plan.patch_grid),
                num_patches=plan.num_patches,
                peak_bytes=plan.peak_bytes,
                patch_buffer_bytes=plan.patch_buffer_bytes,
                per_layer_patch_bytes=list(plan.per_layer_patch_bytes),
                recompute_factor=plan.recompute_factor,
                per_layer_recompute=list(plan.per_layer_recompute),
            ))
            i += length
    return chains
