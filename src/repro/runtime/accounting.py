"""Modeled cost of a compiled model on a platform, computed once.

HTVM's latency and memory numbers are compile-time products: DORY's
tiling solution fixes every DMA/compute cycle and the memory plan fixes
L2 residency. The cost model is analytic in (step, platform) and never
looks at activation values, so it is computed in one pass per
(compiled model, platform) — :func:`account_model` — and every
inference of that pair, in any exec mode, returns the same
:class:`ModelAccounting` object.

This is the single place where the executor's modeled cycles and L2
occupancy come from; the steps' event counts are priced by
:mod:`repro.runtime.cost`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from ..core.program import AccelStep, CompiledModel, CpuKernelStep
from ..errors import SimulationError
from ..soc.cpu import kernel_counts
from ..soc.perf import PerfCounters
from .cost import accumulate_accel_cost, charge

if TYPE_CHECKING:  # avoid a circular import at runtime
    from ..soc.platform import Platform


class ModelAccounting(PerfCounters):
    """Per-inference counters of one (model, platform) pair.

    ``records[i]`` is the :class:`~repro.soc.perf.KernelRecord` of
    ``model.steps[i]``; ``l2_peak_bytes`` is the high-water mark of the
    static image plus the planned activation arena over one inference.
    Shared by reference between results — treat it as read-only.
    """

    def __init__(self, l2_peak_bytes: int):
        super().__init__()
        self.l2_peak_bytes = l2_peak_bytes


def account_model(model: CompiledModel, soc: "Platform") -> ModelAccounting:
    """The modeled cost of one inference of ``model`` on ``soc``.

    Memoized on the model, keyed by the identity of the platform
    objects the cost model reads (params and accelerator models; the
    memo holds them, so an id is never recycled): running the same
    model on a platform built from other objects recomputes. Raises
    :class:`~repro.errors.OutOfMemoryError` when the memory plan does
    not fit the platform's L2 (nothing is memoized then). Threads that
    race on the first use may each compute the (equal) accounting.
    """
    key = (soc.params, *soc.accelerators.values())
    memo = getattr(model, "_accounting", None)
    if (memo is not None and len(memo[0]) == len(key)
            and all(a is b for a, b in zip(memo[0], key))):
        return memo[1]
    acct = ModelAccounting(_l2_peak(model, soc))
    _charge_steps(acct, model, soc)
    model._accounting = (key, acct)
    return acct


def _l2_peak(model: CompiledModel, soc: "Platform") -> int:
    """Walk the memory plan in step order on a fresh L2 region.

    Buffers are placed at their planned offsets when produced and freed
    after their last consumer; ``MemoryRegion.place`` enforces the
    capacity. Steps outside fused chains materialize full tensors. A
    chain holds its input and (plan-sized) output for the whole chain
    while its interior patch slabs ping-pong — slab j coexists only
    with slab j-1, exactly the co-residency the compile-time plan
    packed.
    """
    l2 = soc.fresh_l2()
    plan = model.memory_plan
    base = model.size.total
    l2.place("static_image", 0, min(base, l2.capacity))

    def place(name: str, plan_sized: bool = False):
        offset = plan.offsets.get(name)
        if offset is None:
            return
        size = plan.sizes.get(name) if plan_sized else None
        if size is None:
            size = model.buffers[name].size_bytes
        l2.place(name, base + offset, size)

    steps = model.steps
    last_use = {name: idx for idx, step in enumerate(steps)
                for name in step.input_names}
    chains = {c.start: c for c in model.depthfirst_chains}
    for name in model.input_names:
        place(name)
    peak = base
    idx = 0
    while idx < len(steps):
        chain = chains.get(idx)
        stop = idx + 1 if chain is None else chain.stop
        span = steps[idx:stop]
        place(span[-1].output_name, plan_sized=chain is not None)
        peak = max(peak, l2.high_water)
        for j, step in enumerate(span[:-1]):
            place(step.output_name, plan_sized=True)
            peak = max(peak, l2.high_water)
            if j:
                l2.free(span[j - 1].output_name)
        for step in span:
            for name in step.input_names:
                if last_use[name] < stop and name != model.output_name:
                    l2.free(name)
        idx = stop
    return peak


def _charge_steps(acct: ModelAccounting, model: CompiledModel,
                  soc: "Platform"):
    """One :class:`KernelRecord` per step, in step order."""
    params = soc.params
    fused: Dict[int, Tuple[float, int]] = {
        chain.start + j: (ratio, chain.num_patches)
        for chain in model.depthfirst_chains
        for j, ratio in enumerate(chain.per_layer_recompute)}
    for idx, step in enumerate(model.steps):
        if isinstance(step, AccelStep):
            rec = acct.start_kernel(step.name, step.accel_target,
                                    macs=step.spec.macs())
            accumulate_accel_cost(rec, soc.accelerator(step.accel_target),
                                  step.spec, step.tiling, params,
                                  *fused.get(idx, ()))
        elif idx in fused:
            raise SimulationError(
                f"{step.name}: depth-first chain over a non-"
                "accelerator step")
        elif isinstance(step, CpuKernelStep):
            rec = acct.start_kernel(step.name, "cpu",
                                    macs=step.body.total_macs())
            charge(rec, kernel_counts(step.body), params)
        else:
            raise SimulationError(f"unknown step {step!r}")
