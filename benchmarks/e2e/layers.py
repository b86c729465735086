"""Per-layer metrics (layer = ``src/repro`` module) and the traced run.

Everything here is measured from outside: public-function timings,
public ``stats()`` counters and ``PerfCounters``. ``compile_model``'s
stages and the executor's step loop are replayed one public call at a
time; the only in-program spans read are the ones ``repro.obs`` already
emits. README.md says which end-to-end metric each number should move.
"""

import bisect
import collections
import os
import pickle
import statistics
from typing import Dict, List, Tuple

import numpy as np

import api
import lifecycle
from lifecycle import Deployment, Ops, clock, timed_calls
from workloads import BATCH, N_FEEDS

median = statistics.median

#: share of ``--seconds`` each per-layer phase measures for
SHARES = {
    "stages": 0.12, "compile_cold": 0.05, "artifact": 0.06,
    "modes": 0.15, "kernels": 0.07, "reference": 0.03, "batch": 0.04,
    "obs_direct": 0.08, "dse": 0.08, "infer1": 0.06, "loaded": 0.10,
    "traced": 0.10, "pickle": 0.06,
}
#: a Perfetto file holds at most this many spans (the first ones)
TRACE_SPAN_CAP = 40000
KIND_OF = {"conv2d": "conv", "dwconv2d": "dwconv", "dense": "dense",
           "add": "add"}
EXEC_SPANS = ("exec.step", "exec.chain", "exec.native_full")


def ms_since(t0: float) -> float:
    return (clock() - t0) * 1e3


# ---------------------------------------------------------------------------
# compile: frontend / transforms / patterns / mapping / dory / core / codegen
# ---------------------------------------------------------------------------

def compile_stages(dep: Deployment, budget_s: float) -> Dict[str, float]:
    """``compile_model``'s stages, one public call each, on fresh
    graphs with one fresh ``TilingCache`` per replay (so the tiler
    sees the cache exactly as a cold compile leaves it)."""
    w, soc, cfg = dep.workload, dep.soc, dep.config
    t: Dict[str, List[float]] = collections.defaultdict(list)
    accel_steps = [s for s in dep.model.steps if s.target != "cpu"]
    t_end = clock() + budget_s
    while len(t["frontend.build_ms"]) < 3 or clock() < t_end:
        t0 = clock()
        graph = lifecycle.make_graph(w, dep.seed)
        t["frontend.build_ms"].append(ms_since(t0))

        t0 = clock()
        g1 = api.PassManager([
            api.Pass("canonicalize", api.canonicalize),
            api.Pass("fold_constants", api.fold_constants),
            api.Pass("dead_code", api.eliminate_dead_code),
        ]).run(graph)
        t["transforms.frontend_ms"].append(ms_since(t0))

        t0 = clock()
        g2 = api.partition(g1, api.default_specs())
        t["patterns.partition_ms"].append(ms_since(t0))

        cache = api.TilingCache()
        t0 = clock()
        g3, _ = api.plan_mapping(g2, soc, cfg, cache=cache)
        t["mapping.plan_ms"].append(ms_since(t0))

        t0 = clock()
        g4 = api.fuse_cpu_ops(g3)
        t["transforms.fuse_cpu_ms"].append(ms_since(t0))

        t0 = clock()
        for step in accel_steps:
            tiler = api.DoryTiler(
                step.accel_target, soc.params,
                api.heuristic_set_for(cfg.heuristics, step.accel_target),
                alpha=cfg.alpha, l1_budget=cfg.l1_budget)
            cache.solve(tiler, step.spec)
        t["dory.tiler_cold_ms"].append(ms_since(t0))

        t0 = clock()
        api.plan_mapping(g2, soc, cfg, cache=cache)
        t["mapping.plan_warm_ms"].append(ms_since(t0))

    # the back half works on a finished compile's public fields
    fresh = api.compile_model(lifecycle.make_graph(w, dep.seed), soc, cfg,
                              api.TilingCache())
    steps = fresh.steps
    step_io = [(s.input_names, s.output_name) for s in steps]
    sizes = {name: buf.size_bytes for name, buf in fresh.buffers.items()}
    kernel_names = {i: s.name.split("_", 1)[1] for i, s in enumerate(steps)}
    composites = fresh.graph.composites()
    plan_holder = []

    def plan_l2():
        lifetimes = api.lifetimes_from_steps(
            step_io, sizes, fresh.input_names, fresh.output_name)
        plan_holder[:] = [api.plan_memory(lifetimes,
                                          reuse=cfg.buffer_reuse)]

    def emit_dory():
        for i, s in enumerate(steps):
            if s.target != "cpu":
                api.emit_accel_layer(kernel_names[i], s.tiling, soc.params)

    def emit_codegen():
        seen = set()
        for i, s in enumerate(steps):
            if s.target == "cpu" and s.signature not in seen:
                seen.add(s.signature)
                api.emit_cpu_kernel(s.signature, composites[i])
        api.emit_runtime_header()
        api.emit_network(fresh.name, steps, kernel_names, plan_holder[0],
                         fresh.input_names, fresh.output_name)

    small = budget_s / 12
    t["dory.plan_memory_ms"] = timed_calls(plan_l2, small)
    t["dory.emit_ms"] = timed_calls(emit_dory, small)
    t["codegen.emit_ms"] = timed_calls(emit_codegen, small)
    if plan_holder[0].arena_bytes != fresh.memory_plan.arena_bytes:
        raise RuntimeError("replayed L2 plan differs from compile_model's")

    out = {name: median(v) for name, v in t.items()}
    out["frontend.nodes"] = len(graph.nodes())
    out["transforms.nodes_out"] = len(g4.nodes())
    out["patterns.composites"] = len(g2.composites())
    out["dory.layers"] = sum(1 for s in steps if s.target != "cpu")
    out["dory.tiles"] = sum(s.tiling.num_tiles for s in steps
                            if s.target != "cpu")
    out["dory.arena_bytes"] = fresh.memory_plan.arena_bytes
    out["codegen.c_bytes"] = sum(len(src) for src in fresh.c_sources.values())

    # what the mapping engine looked at (counted once, not timed)
    plan = api.analyze_mapping(api.partition(g1, api.default_specs()), soc,
                               cfg, cache=api.TilingCache())
    out["mapping.sites"] = len(plan.sites)
    out["mapping.candidates"] = sum(len(s.candidates) for s in plan.sites)
    out["mapping.offload_share"] = out["dory.layers"] / len(steps)

    # the memo over one cold + one warm compile
    cache = api.TilingCache()
    for _ in range(2):
        api.compile_model(lifecycle.make_graph(w, dep.seed), soc, cfg, cache)
    stats = cache.stats()
    out["core.cache_hits"] = stats["hits"]
    out["core.cache_misses"] = stats["misses"]
    out["core.cache_hit_ratio"] = stats["hits"] / max(
        stats["hits"] + stats["misses"], 1)
    return out


#: the stages whose sum, plus ``core.compile_glue_ms``, is one cold compile
COMPILE_STAGES = (
    "transforms.frontend_ms", "patterns.partition_ms", "mapping.plan_ms",
    "transforms.fuse_cpu_ms", "dory.tiler_cold_ms", "dory.plan_memory_ms",
    "dory.emit_ms", "codegen.emit_ms",
)


def native_codegen(dep: Deployment, ops: Ops) -> Dict[str, float]:
    """Emit, build and load the model's native library once, cold: in
    the deployment's still-empty cache directory, or in a second one
    when the native workload's set-up has already built there."""
    model = dep.model
    cache_dir = dep.native_dir
    if os.path.isdir(cache_dir):
        cache_dir += "-cold"
    t0 = clock()
    api.emit_native_sources(model)
    emit_ms = ms_since(t0)
    t0 = clock()
    lib = api.build_native_library(model, cache_dir)
    build_s = clock() - t0
    ops.record(lib is not None, "native library did not build")
    t0 = clock()
    mod = api.load_native_module(model, cache_dir)
    load_ms = ms_since(t0)
    native = api.native_step_indices(model)
    return {
        "codegen.native_emit_ms": emit_ms,
        "codegen.native_build_s": build_s,
        "codegen.native_load_ms": load_ms,
        "codegen.native_steps": len(native),
        "codegen.native_fallback_steps": len(model.steps) - len(native),
        "codegen.native_full_run": float(
            mod is not None and mod.has_full_run
            and api.full_run_eligible(model, native)),
    }


def artifact_and_verify(dep: Deployment, tmpdir: str,
                        budget_s: float) -> Dict[str, float]:
    path = os.path.join(tmpdir, "resave.dna")
    each = budget_s / 4
    out = {
        "serve.artifact_save_ms": median(timed_calls(
            lambda: api.save_artifact(path, dep.model, dep.soc, dep.config),
            each)),
        "serve.artifact_load_ms": median(timed_calls(
            lambda: api.load_artifact(dep.path, False), each)),
        "verify.model_ms": median(timed_calls(
            lambda: api.verify_model(dep.model, dep.soc, dep.config), each)),
        "verify.artifact_ms": median(timed_calls(
            lambda: api.verify_artifact(dep.path), each)),
        "serve.artifact_bytes": os.path.getsize(dep.path),
    }
    out["verify.diagnostics"] = (
        len(api.verify_model(dep.model, dep.soc, dep.config).diagnostics)
        + len(api.verify_artifact(dep.path).diagnostics))
    return out


# ---------------------------------------------------------------------------
# runtime / numerics / soc
# ---------------------------------------------------------------------------

def run_mode(dep: Deployment, mode: str, budget_s: float,
             ops: Ops) -> Tuple[float, object]:
    """Median ``Executor.run`` ms in ``mode`` over rotating feeds, every
    output and cycle count checked; also returns the last result."""
    ex = lifecycle.executor_for(dep, mode)
    last = [ex.run(dep.model, dep.feeds[0])]

    def check(res, idx):
        ops.record(np.array_equal(res.output, dep.refs[idx])
                   and res.total_cycles == dep.cycles,
                   f"{mode} run differs from the reference or in cycles")
        last[0] = res

    samples = timed_calls(lambda idx: ex.run(dep.model, dep.feeds[idx]),
                          budget_s, lifecycle.feed_rotation(), check)
    return median(samples), last[0]


def kernel_replay(dep: Deployment, budget_s: float,
                  ops: Ops) -> Dict[str, List[float]]:
    """The executor's step loop with nothing but the bare step kernels
    (``execute_layer_fast`` / ``execute_layer_tiled`` / the native
    module's ``run_step`` / ``compile_plan(body).run_args``), timed per
    layer kind on the same feeds. Returns per-pass ms by kind."""
    model, soc, mode = dep.model, dep.soc, dep.workload.exec_mode
    native = (api.load_native_module(model, dep.native_dir)
              if mode == "native" else None)
    if native is not None and native.has_full_run:
        raise RuntimeError("kernel replay is per step; a workload served "
                           "by the one-call native run needs its own replay")
    by_kind: Dict[str, List[float]] = {k: [] for k in
                                       ("conv", "dwconv", "dense", "add",
                                        "cpu")}
    plans = [api.compile_plan(s.body) if s.target == "cpu" else None
             for s in model.steps]
    t_end = clock() + budget_s
    i = 0
    while i < lifecycle.MIN_CALLS or clock() < t_end:
        values = dict(dep.feeds[i % N_FEEDS])
        spent = dict.fromkeys(by_kind, 0.0)
        for idx, step in enumerate(model.steps):
            args = [values[n] for n in step.input_names]
            if step.target == "cpu":
                kind = "cpu"
                t0 = clock()
                out = plans[idx].run_args(*args)
            else:
                spec = step.spec
                kind = KIND_OF[spec.kind]
                accel = soc.accelerator(step.accel_target)
                x, y = args[0], (args[1] if spec.kind == "add" else None)
                t0 = clock()
                out = (native.run_step(idx, spec, x, y)
                       if native is not None else None)
                if out is None and mode == "tiled":
                    out = api.execute_layer_tiled(accel, spec, step.tiling,
                                                  x, y)
                elif out is None:
                    out = api.execute_layer_fast(accel, spec, x, y)
            spent[kind] += ms_since(t0)
            values[step.output_name] = out
        ops.record(np.array_equal(values[model.output_name],
                                  dep.refs[i % N_FEEDS]),
                   "kernel replay differs from the reference")
        for kind, ms in spent.items():
            by_kind[kind].append(ms)
        i += 1
    return by_kind


def bytes_moved(model) -> int:
    """Computed from tensor sizes, not measured: every step reads its
    inputs and parameters once and writes its output once."""
    total = 0
    for step in model.steps:
        total += sum(model.buffers[n].size_bytes for n in step.input_names)
        total += model.buffers[step.output_name].size_bytes
        if step.target == "cpu":
            total += step.body.weight_bytes()
        else:
            for arr in (step.spec.weight, step.spec.bias):
                total += 0 if arr is None else np.asarray(arr).nbytes
    return total


def tvm_speedup(dep: Deployment) -> float:
    """Plain-TVM (CPU-only, no planning) cycles over this deployment's:
    the paper's headline ratio. 0 when the TVM deployment is
    out-of-memory, as MobileNet is in Table I."""
    w = dep.workload
    graph = api.MLPERF_TINY[w.model](precision="int8", seed=dep.seed)
    soc = api.get_platform("diana-cpu")
    cfg = api.TVM_CPU.with_overrides(platform="diana-cpu")
    try:
        model = api.compile_model(graph, soc, cfg, api.TilingCache())
    except api.OutOfMemoryError:
        return 0.0
    res = api.Executor(soc, exec_mode="fast").run(
        model, api.random_inputs(graph, seed=dep.seed))
    return res.total_cycles / dep.cycles


def runtime_layers(dep: Deployment, budgets: Dict[str, float],
                   ops: Ops) -> Tuple[Dict[str, float], float]:
    """runtime.*, numerics.*, soc.*; also returns the workload-mode
    ``infer_ms`` the glue and serving overheads are taken against."""
    model = dep.model
    out: Dict[str, float] = {}
    results = {}
    for mode in ("tiled", "fast", "native"):
        out[f"runtime.{mode}_ms"], results[mode] = run_mode(
            dep, mode, budgets["modes"] / 3, ops)
    infer_ms = out[f"runtime.{dep.workload.exec_mode}_ms"]
    res = results[dep.workload.exec_mode]
    perf = res.perf

    by_kind = kernel_replay(dep, budgets["kernels"], ops)
    for kind, samples in by_kind.items():
        out[f"numerics.{kind}_ms"] = median(samples)
    kernel_ms = sum(out[f"numerics.{kind}_ms"] for kind in by_kind)
    out["runtime.kernel_ms"] = kernel_ms
    out["runtime.glue_ms"] = infer_ms - kernel_ms
    out["runtime.glue_share"] = (infer_ms - kernel_ms) / infer_ms
    out["runtime.steps"] = len(model.steps)
    out["runtime.cpu_steps"] = sum(1 for s in model.steps
                                   if s.target == "cpu")
    out["runtime.accel_steps"] = len(model.steps) - out["runtime.cpu_steps"]
    out["runtime.tiles_executed"] = sum(r.num_tiles for r in perf.records)
    out["runtime.sim_mcycles_per_host_s"] = dep.cycles / infer_ms / 1e3

    out["runtime.reference_ms"] = median(timed_calls(
        lambda idx: api.run_reference(dep.graph, dep.feeds[idx]),
        budgets["reference"], lifecycle.feed_rotation()))

    ex = lifecycle.executor_for(dep)
    batch = lifecycle.stacked_feeds(dep)
    want = np.concatenate(dep.refs[:BATCH], axis=0)
    out["runtime.batch8_ms"] = median(timed_calls(
        lambda: ex.run_batch(dep.model, batch), budgets["batch"],
        check=lambda r, _arg: ops.record(np.array_equal(r.outputs, want),
                                         "batched run differs")))
    out["runtime.batch_gain"] = BATCH * infer_ms / out["runtime.batch8_ms"]

    macs = sum(r.macs for r in perf.records)
    accel_macs = sum(r.macs for r in perf.records if r.target != "cpu")
    out["numerics.macs"] = macs
    out["numerics.bytes_moved"] = bytes_moved(model)
    out["numerics.gmacs_per_s"] = macs / kernel_ms / 1e6
    out["mapping.macs_offload_share"] = accel_macs / max(macs, 1)

    by_target = perf.cycles_by_target()
    by_cat = perf.cycles_by_category()
    out["soc.cycles_total"] = perf.total_cycles
    out["soc.cycles_cpu"] = by_target.get("cpu", 0.0)
    out["soc.cycles_digital"] = by_target.get("soc.digital", 0.0)
    out["soc.cycles_analog"] = by_target.get("soc.analog", 0.0)
    out["soc.cycles_dma"] = (by_cat.get("act_dma", 0.0)
                             + by_cat.get("weight_dma", 0.0))
    out["soc.cycles_runtime"] = (by_cat.get("runtime", 0.0)
                                 + by_cat.get("tile_loop", 0.0))
    out["soc.peak_cycles"] = perf.peak_cycles
    out["soc.energy_uj"] = api.execution_energy_uj(perf, dep.soc.params)
    out["soc.l2_peak_bytes"] = res.l2_peak_bytes
    out["soc.tvm_speedup"] = tvm_speedup(dep)
    for mode, other in results.items():
        ops.record(other.total_cycles == res.total_cycles
                   and other.l2_peak_bytes == res.l2_peak_bytes,
                   f"{mode} mode models different cycles or L2 peak")
    return out, infer_ms


def obs_direct(dep: Deployment, budget_s: float) -> float:
    """Enabled-tracing overhead on ``Executor.run``, in percent, from
    alternating untraced / traced blocks."""
    ex = lifecycle.executor_for(dep)
    rotate = lifecycle.feed_rotation()

    def run():
        return ex.run(dep.model, dep.feeds[rotate()])

    plain: List[float] = []
    traced: List[float] = []
    for _ in range(2):
        plain += timed_calls(run, budget_s / 4)
        tracer = api.enable_tracing(api.Tracer())
        try:
            traced += timed_calls(run, budget_s / 4)
        finally:
            api.disable_tracing()
            tracer.drain()
    return 100.0 * (median(traced) - median(plain)) / median(plain)


# ---------------------------------------------------------------------------
# eval / host
# ---------------------------------------------------------------------------

def eval_layers(dep: Deployment, budget_s: float, ops: Ops) -> Dict[str, float]:
    cold = lifecycle.dse_phase(dep, ops).run(budget_s / 2)
    shared = api.TilingCache()
    warm = lifecycle.dse_phase(dep, ops, lambda: shared)
    warm.call(shared)  # fills the cache; not one of the warm samples
    warm.run(budget_s / 2)
    cells = lifecycle.DSE_CELLS
    return {"eval.dse_cells": cells,
            "eval.dse_cell_ms": cold.median_ms / cells,
            "eval.dse_warm_cells_per_s": cells / (warm.median_ms / 1e3)}


def host_layers() -> Dict[str, float]:
    """Not the program: a fixed NumPy integer GEMM loop, so machine
    drift between two sets of runs is visible next to the metrics."""
    rng = np.random.default_rng(0)
    a = rng.integers(-128, 128, size=(192, 192)).astype(np.int32)
    return {"host.calib_ms": median(timed_calls(lambda: a @ a, 0.2)),
            "host.nproc": os.cpu_count() or 0,
            "host.load1": os.getloadavg()[0]}


# ---------------------------------------------------------------------------
# serve, untraced and traced
# ---------------------------------------------------------------------------

def pickle_costs(dep: Deployment, budget_s: float) -> Dict[str, float]:
    """What crossing a worker pipe costs per request: pickling the
    feeds one way and the reply the other (round trip, dumps + loads)."""
    feeds, reply = dep.feeds[0], dep.refs[0]

    def round_trip():
        pickle.loads(pickle.dumps(feeds, pickle.HIGHEST_PROTOCOL))
        pickle.loads(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))

    return {
        "serve.pickle_ms": median(timed_calls(round_trip, budget_s / 2)),
        "serve.normalize_ms": median(timed_calls(
            lambda: api.normalize_feeds(dep.model, feeds), budget_s / 2)),
        "serve.request_bytes": len(pickle.dumps(
            feeds, pickle.HIGHEST_PROTOCOL)),
        "serve.reply_bytes": len(pickle.dumps(
            reply, pickle.HIGHEST_PROTOCOL)),
    }


def waterfall(spans, tier_kind: str) -> List[Dict[str, float]]:
    """One row of stage self times (ms) per traced request.

    The harness span ``bench.request`` wraps submit -> reply. In the
    fleet it is joined by request id to the program's ``fleet.request``
    tree (``fleet.queue_wait``, ``worker.execute``, ``exec.step``); in
    the in-process server the batcher thread's ``batch.execute`` span
    that resolved the request is found by time. Stages partition the
    harness span, so each row sums to its ``total``.
    """
    bench = [s for s in spans if s.name == "bench.request"]
    children = collections.defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append(s)

    def exec_ms(parent) -> float:
        return sum(c.duration_ms for c in children[parent.span_id]
                   if c.name in EXEC_SPANS)

    rows = []
    if tier_kind == "fleet":
        roots = {s.attrs.get("request_id"): s for s in spans
                 if s.name == "fleet.request"}
        for b in bench:
            root = roots.get(b.attrs.get("request_id"))
            if root is None:
                continue
            kids = children[root.span_id]
            queue = sum(c.duration_ms for c in kids
                        if c.name == "fleet.queue_wait")
            workers = [c for c in kids if c.name == "worker.execute"]
            work = sum(c.duration_ms for c in workers)
            steps = sum(exec_ms(c) for c in workers)
            rows.append({
                "admission": (root.t_start_ns - b.t_start_ns) / 1e6,
                "fleet.queue_wait": queue,
                "pipe + pump": root.duration_ms - queue - work,
                "worker.execute (self)": work - steps,
                "exec.step (sum)": steps,
                "settle": (b.t_end_ns - root.t_end_ns) / 1e6,
                "root": root.duration_ms, "queue": queue, "work": work,
                "total": b.duration_ms,
            })
        return rows
    batches = sorted((s for s in spans if s.name == "batch.execute"),
                     key=lambda s: s.t_end_ns)
    ends = [s.t_end_ns for s in batches]
    for b in bench:
        i = bisect.bisect_right(ends, b.t_end_ns) - 1
        if i < 0 or batches[i].t_end_ns < b.t_start_ns:
            continue
        batch = batches[i]
        steps = exec_ms(batch)
        queue = (batch.t_start_ns - b.t_start_ns) / 1e6
        rows.append({
            "queue wait + linger": queue,
            "batch.execute (self)": batch.duration_ms - steps,
            "exec.step (sum)": steps,
            "settle": (b.t_end_ns - batch.t_end_ns) / 1e6,
            "root": b.duration_ms, "queue": queue,
            "work": batch.duration_ms, "total": b.duration_ms,
        })
    return rows


def typical(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """Mean of every column over the requests between the first and
    third quartile of total latency: robust like a median, but the
    stage means still add up to the mean total."""
    ordered = sorted(rows, key=lambda r: r["total"])
    mid = ordered[len(ordered) // 4:max(3 * len(ordered) // 4, 1)]
    return {k: statistics.fmean(r[k] for r in mid) for k in mid[0]}


def format_waterfall(rows: List[Dict[str, float]], root_name: str) -> str:
    row = typical(rows)
    stages = [k for k in row if k not in ("root", "queue", "work", "total")]
    lines = [f"  request waterfall ({len(rows)} traced requests; self time "
             f"per stage, mean over the interquartile requests):"]
    for name in stages:
        lines.append(f"    {name:<24} {row[name]:>9.4f} ms  "
                     f"{row[name] / row['total']:>6.1%}")
    lines.append(f"    {'sum of stages':<24} "
                 f"{sum(row[k] for k in stages):>9.4f} ms")
    lines.append(f"    {'bench.request':<24} {row['total']:>9.4f} ms")
    if root_name != "bench.request":
        lines.append(f"    {root_name:<24} {row['root']:>9.4f} ms  "
                     "(= the stages between admission and settle)")
    return "\n".join(lines)


def serve_layers(dep: Deployment, budgets: Dict[str, float], ops: Ops,
                 out_dir) -> Tuple[Dict[str, float], Dict]:
    """serve.* and obs.serve_*: the warm tier with one uncontended
    client, then the workload's traffic untraced and traced in
    alternating blocks."""
    w, tier = dep.workload, dep.tier
    out: Dict[str, float] = {"serve.start_ms": 1e3 * dep.stages_s["tier_start"]}
    lifecycle.warm_tier(dep, ops)

    solo = lifecycle.serve_load(dep, budgets["infer1"], ops, clients=1,
                                burst=1)
    out["serve.infer1_ms"] = median(r.latency_ms for r in solo)

    walls: List[float] = []
    tally: Dict[str, float] = collections.Counter()
    plain: List[lifecycle.Reply] = []
    traced: List[lifecycle.Reply] = []
    spans = []
    tracer = api.Tracer()

    def on_plain(_t0_ns, fut):
        walls.append(fut.wall_s)

    def on_traced(t0_ns, fut):
        tracer.record("bench.request", t0_ns, category="bench",
                      request_id=fut.request_id)

    for _ in range(2):
        before = tier.counters()
        plain += lifecycle.serve_load(dep, budgets["loaded"] / 2, ops,
                                      on_reply=on_plain)
        for k, v in tier.counters().items():
            tally[k] += v - before[k]
        api.enable_tracing(tracer)
        try:
            traced += lifecycle.serve_load(dep, budgets["traced"] / 2, ops,
                                           on_reply=on_traced)
        finally:
            api.disable_tracing()
        spans += tracer.drain()

    lat = [r.latency_ms for r in plain]
    out["serve.p95_ms"] = lifecycle.nearest_rank(lat, 95)
    out["serve.p99_ms"] = lifecycle.nearest_rank(lat, 99)
    out["serve.max_ms"] = max(lat)
    out["serve.exec_wall_ms"] = 1e3 * statistics.fmean(walls)
    out["serve.batches"] = tally["batches"]
    out["serve.mean_batch"] = tally["requests"] / max(tally["batches"], 1)
    for k in ("retries", "restarts", "rejected"):
        out[f"serve.{k}"] = tally[k]

    rows = waterfall(spans, w.tier)
    if not rows:
        raise RuntimeError("the traced run matched no request to its spans")
    row = typical(rows)
    out["serve.queue_wait_ms"] = row["queue"]
    out["serve.worker_exec_ms"] = row["work"]
    out["serve.pipe_ms"] = row["root"] - row["queue"] - row["work"]
    plain_p50 = median(lat)
    out["obs.serve_overhead_pct"] = 100.0 * (
        median(r.latency_ms for r in traced) - plain_p50) / plain_p50
    out["obs.spans_per_request"] = len(spans) / max(len(traced), 1)

    trace_path = os.path.join(
        out_dir, f"trace-{w.name}-seed{dep.seed}.json")
    api.write_chrome_trace(
        trace_path, spans[:TRACE_SPAN_CAP],
        metadata={"workload": w.name, "seed": dep.seed,
                  "spans_total": len(spans)})
    root_name = "fleet.request" if w.tier == "fleet" else "bench.request"
    extra = {"waterfall": format_waterfall(rows, root_name),
             "trace_file": os.path.relpath(trace_path, api.ROOT),
             "reference": {"serve_p50_ms": plain_p50,
                           "traced_requests": len(rows)}}
    return out, extra


# ---------------------------------------------------------------------------
# the whole per-layer run
# ---------------------------------------------------------------------------

def measure_per_layer(dep: Deployment, seconds: float, ops: Ops,
                      out_dir) -> Tuple[Dict[str, float], Dict]:
    budgets = {k: v * seconds for k, v in SHARES.items()}
    tmpdir = os.path.dirname(dep.path)
    out: Dict[str, float] = {}

    # served traffic first, as in the end-to-end run: on the 2-core
    # host OpenBLAS's threaded sgemm is slow by a factor of 20 in a
    # fresh process and stays fast once the batcher thread has served
    # batches, so run_batch must be measured in the same state there
    # and here. The cold native build precedes the native exec mode.
    serve, extra = serve_layers(dep, budgets, ops, out_dir)
    dep.tier.stop()
    dep.tier = None
    out.update(native_codegen(dep, ops))
    runtime, infer_ms = runtime_layers(dep, budgets, ops)
    serve["serve.overhead_ms"] = serve["serve.infer1_ms"] - infer_ms
    serve["serve.overhead_share"] = (serve["serve.overhead_ms"]
                                     / serve["serve.infer1_ms"])
    out.update(runtime)
    out.update(serve)
    out.update(pickle_costs(dep, budgets["pickle"]))
    out["obs.enabled_overhead_pct"] = obs_direct(dep, budgets["obs_direct"])

    out.update(compile_stages(dep, budgets["stages"]))
    cold = lifecycle.compile_phase(dep, ops).run(
        budgets["compile_cold"]).median_ms
    out["core.compile_glue_ms"] = cold - sum(out[k] for k in COMPILE_STAGES)
    out.update(artifact_and_verify(dep, tmpdir, budgets["artifact"]))
    out.update(eval_layers(dep, budgets["dse"], ops))
    out.update(host_layers())
    extra["reference"].update(compile_cold_ms=cold, infer_ms=infer_ms)
    return out, extra
