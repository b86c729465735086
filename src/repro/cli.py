"""Command-line interface: ``python -m repro.cli COMMAND`` (``repro`` below).

Paper artifacts and single deployments::

    repro models                                  # the MLPerf Tiny zoo
    repro compile resnet --config digital --out-dir build/
    repro run dscnn --config mixed --layers       # + per-layer report
    repro map resnet --config mixed --mapping dp  # mapping decision table
    repro map --pareto                            # writes MAPPING_DSE.json
    repro dse --check                             # DSE_GRID.json drift gate
    repro df resnet --l2-kb 64                    # depth-first report
    repro table1 --jobs 4 ; repro table2 ; repro fig4 ; repro fig5
    repro sweep l1_bytes 262144 65536 16384 --mapping dp

Serving (docs/SERVING.md), observability (docs/OBSERVABILITY.md) and
static checks (docs/CHECKS.md)::

    repro pack resnet --config digital --out resnet.dna
    repro load resnet.dna --check                 # bit-exact, no compile
    repro serve resnet.dna dscnn --requests 64 --clients 4
    repro trace resnet8 --fleet -o trace.json     # spans + per-layer report
    repro stats --json
    repro check --grid --json

Model arguments accept a zoo name (``resnet``, ``dscnn``,
``mobilenet``, ``toyadmos``, or the paper's spellings) or a path to a
JSON graph written by :func:`repro.ir.save_graph`. Every shared option
(``--config``, ``--mapping``, ``--depthfirst``, ``--platform``,
``--exec-mode``, ``--jobs``, ``--seed``, ``--models``) means the same
on every command that takes it; ``repro COMMAND --help`` lists them. A
deployment that does not fit L2 (the paper's MobileNet on plain TVM)
prints ``OUT OF MEMORY`` and exits 2 from every command.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, NamedTuple, Tuple

from . import eval as evaluation
from .core import compile_model, get_default_cache
from .errors import OutOfMemoryError, ReproError
from .eval.harness import CONFIGS, resolve_config
from .frontend.modelzoo import MLPERF_TINY
from .ir import load_graph
from .mapping import STRATEGIES
from .runtime import (
    EXEC_MODES, Executor, random_inputs, random_inputs_batched,
    run_reference, run_reference_batched,
)
from .soc import get_platform, get_platform_spec, latency_ms, platform_names
from .soc.energy import energy_by_target_uj, execution_energy_uj


#: paper-style spellings accepted anywhere a zoo name is (the paper
#: calls the MLPerf Tiny networks ResNet8 / DS-CNN / MobileNetV1).
_MODEL_ALIASES = {"resnet8": "resnet", "ds-cnn": "dscnn",
                  "mobilenetv1": "mobilenet"}


def _load_model(name: str, precision: str):
    name = _MODEL_ALIASES.get(name.lower(), name)
    if name in MLPERF_TINY:
        return MLPERF_TINY[name](precision=precision)
    if os.path.exists(name):
        return load_graph(name)
    raise SystemExit(
        f"unknown model {name!r}: not a zoo name {sorted(MLPERF_TINY)} "
        f"and not a file")


def _deployment(args, model: str):
    """``(graph, soc, cfg)`` of one model argument under the shared
    ``--config`` / ``--platform`` / ``--mapping`` / ``--depthfirst``."""
    precision, soc, cfg = resolve_config(
        args.config, platform=getattr(args, "platform", None),
        mapping=args.mapping, depthfirst=getattr(args, "depthfirst", None))
    return _load_model(model, precision), soc, cfg


def _print_cache_stats():
    cache = get_default_cache()
    if cache is not None:
        s = cache.stats()
        print(f"tiling cache: {s['hits']} hits / {s['misses']} misses "
              f"({s['entries']} entries)")


def _parameter_count(graph) -> int:
    """Total scalar parameters (weights, biases, requant constants)."""
    from .ir import Composite, Constant

    total = 0
    for node in graph.topo_order():
        if isinstance(node, Constant):
            total += int(node.value.data.size)
        elif isinstance(node, Composite):
            total += _parameter_count(node.body)
    return total


def _rules_target_summary(graph) -> str:
    """Where the default weight-dtype rules put each layer, condensed."""
    from .mapping import assign_targets
    from .patterns import default_specs, partition

    partitioned = partition(graph, default_specs())
    _, decisions = assign_targets(partitioned, get_platform())
    counts: dict = {}
    for d in decisions:
        counts[d.target] = counts.get(d.target, 0) + 1
    return " ".join(f"{t}x{n}" for t, n in
                    sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


def _write_json(path: str, record) -> None:
    import json

    with open(path, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    print(f"wrote {path}")


def cmd_models(args) -> int:
    from .mapping import format_columns

    headers = ["model", "MMACs", "params", "weights kB",
               "default-rule targets (mixed)"]
    rows = []
    for name, fn in sorted(MLPERF_TINY.items()):
        graph = fn(precision="mixed")
        rows.append([
            name,
            f"{graph.total_macs() / 1e6:.2f}",
            f"{_parameter_count(graph):,}",
            f"{graph.weight_bytes() / 1024:.1f}",
            _rules_target_summary(graph),
        ])
    print("model zoo (MLPerf Tiny v1.0):")
    print(format_columns(headers, rows))
    print(f"configurations: {', '.join(CONFIGS)}")
    return 0


def cmd_platforms(args) -> int:
    """List every registered platform (built-ins + loaded plugins)."""
    from .mapping import format_columns

    rows = []
    for name in platform_names():
        spec = get_platform_spec(name)
        rows.append([
            name,
            ",".join(spec.accelerators) or "(cpu only)",
            spec.model_precision,
            f"{spec.params.l1_bytes // 1024}/{spec.params.l2_bytes // 1024}",
            spec.description,
        ])
    print(format_columns(
        ["platform", "accelerators", "zoo precision", "L1/L2 kB",
         "description"], rows))
    print("plugins: import a module calling repro.soc.register_platform, "
          "or set REPRO_PLATFORMS=module[,module...]")
    return 0


def cmd_compile(args) -> int:
    model = compile_model(*_deployment(args, args.model))
    print(model.summary())
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for fname, source in model.c_sources.items():
            with open(os.path.join(args.out_dir, fname), "w") as f:
                f.write(source)
        with open(os.path.join(args.out_dir, "memory_plan.txt"), "w") as f:
            f.write(model.memory_plan.report())
        print(f"wrote {len(model.c_sources) + 1} files to {args.out_dir}")
    if args.dot:
        from .ir.dot import save_dot
        save_dot(model.graph, args.dot)
        print(f"wrote {args.dot}")
    return 0


def cmd_run(args) -> int:
    import numpy as np

    graph, soc, cfg = _deployment(args, args.model)
    model = compile_model(graph, soc, cfg)
    executor = Executor(soc, exec_mode=args.exec_mode)
    if args.batch > 1:
        feeds = random_inputs_batched(graph, args.batch, seed=args.seed)
        result = executor.run_batch(model, feeds)
        exact = np.array_equal(
            np.asarray(result.outputs),
            np.asarray(run_reference_batched(model.graph, feeds)))
    else:
        feeds = random_inputs(graph, seed=args.seed)
        result = executor.run(model, feeds)
        exact = np.array_equal(np.asarray(result.output),
                               np.asarray(run_reference(model.graph, feeds)))
    print(model.summary())
    per_inference = result.perf.total_cycles
    print(f"latency : {latency_ms(per_inference):.3f} ms "
          f"(peak {latency_ms(result.perf.peak_cycles):.3f} ms)"
          + (f"; batch of {args.batch}: "
             f"{latency_ms(result.total_cycles):.3f} ms total"
             if args.batch > 1 else ""))
    energy = execution_energy_uj(result.perf, soc.params)
    split = ", ".join(f"{k}: {v:.1f} uJ" for k, v in
                      energy_by_target_uj(result.perf, soc.params).items())
    print(f"energy  : {energy:.1f} uJ ({split})")
    print(f"bit-exact vs reference: {exact}")
    if args.layers:
        from .eval.layer_report import format_layer_report, layer_report
        print()
        print(format_layer_report(
            layer_report(model, result.perf, soc.params)))
    return 0 if exact else 1


def cmd_map(args) -> int:
    from .mapping import analyze_mapping, format_plan, make_objective, prepare_graph

    if args.pareto:
        from .eval.mapping_dse import (
            artifact_record, format_mapping_dse, pareto_sweep,
        )
        points = pareto_sweep(models=args.models, config=args.config)
        print(format_mapping_dse(points))
        if args.out:
            _write_json(args.out, artifact_record(points, config=args.config))
        _print_cache_stats()
        return 0

    if not args.model:
        print("error: map needs a MODEL (or --pareto)", file=sys.stderr)
        return 2
    graph, soc, cfg = _deployment(args, args.model)
    plan = analyze_mapping(
        prepare_graph(graph), soc, cfg,
        objective=make_objective(args.objective, args.weight))
    print(format_plan(plan))
    _print_cache_stats()
    return 0


def cmd_dse(args) -> int:
    from .eval.dse import (
        artifact_record, diff_records, format_dse, sweep_grid,
        validate_record,
    )

    points = sweep_grid(platforms=args.platforms, models=args.models,
                        budgets_kb=args.budgets_kb,
                        objectives=args.objectives,
                        strategy=args.mapping, jobs=args.jobs)
    print(format_dse(points))
    record = artifact_record(points, strategy=args.mapping, jobs=args.jobs)

    if args.check:
        import json
        try:
            with open(args.out) as f:
                committed = json.load(f)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read committed grid {args.out}: {exc}",
                  file=sys.stderr)
            return 2
        problems = validate_record(committed) + diff_records(committed,
                                                             record)
        if problems:
            print(f"\n{args.out} drifted from a fresh sweep:",
                  file=sys.stderr)
            for p in problems:
                print(f"  - {p}", file=sys.stderr)
            return 1
        print(f"\n{args.out}: committed grid reproduces "
              f"({len(record['grid'])} cells re-priced)")
    elif args.out:
        _write_json(args.out, record)
    _print_cache_stats()
    return 0


def cmd_df(args) -> int:
    from .eval.depthfirst import (
        format_depthfirst_reports, run_depthfirst_reports,
    )

    for m in args.models:
        if m not in MLPERF_TINY:
            print(f"error: unknown model {m!r}; have {sorted(MLPERF_TINY)}",
                  file=sys.stderr)
            return 2
    reports = run_depthfirst_reports(
        models=args.models or None, config=args.config,
        mode=args.depthfirst,
        l1_budget=args.l1_kb * 1024 if args.l1_kb else None,
        l2_bytes=args.l2_kb * 1024 if args.l2_kb else None)
    print(format_depthfirst_reports(reports))
    _print_cache_stats()
    return 0 if all(r.bit_exact for r in reports) else 1


def cmd_sweep(args) -> int:
    from .eval.sweep import format_sweep, sweep_param

    points = sweep_param(args.param, args.values,
                         model=args.model, config=args.config,
                         jobs=args.jobs, mapping=args.mapping)
    print(format_sweep(points))
    _print_cache_stats()
    return 0


def cmd_check(args) -> int:
    import json

    from .verify import grid_report, verify_artifact, verify_grid, verify_model

    if args.grid:
        results = verify_grid(models=args.models,
                              artifacts=not args.no_artifacts)
    elif not args.target:
        print("error: check needs a TARGET (or --grid)", file=sys.stderr)
        return 2
    elif args.target.endswith(".dna"):
        results = [verify_artifact(args.target, deep=True)]
    else:
        graph, soc, cfg = _deployment(args, args.target)
        result = verify_model(compile_model(graph, soc, cfg), soc=soc,
                              config=cfg)
        result.target = f"{args.target}/{args.config}"
        results = [result]

    if args.json:
        print(json.dumps(grid_report(results), indent=2))
    else:
        for r in results:
            print(r.render())
        bad = sum(1 for r in results if not r.ok)
        print(f"{'FAIL' if bad else 'OK'}: {len(results) - bad}/"
              f"{len(results)} targets clean")
    return 0 if all(r.ok for r in results) else 1


def cmd_pack(args) -> int:
    from .serve import pack_model

    graph, soc, cfg = _deployment(args, args.model)
    precision = resolve_config(args.config, platform=args.platform)[0]
    out = args.out or f"{graph.name}-{args.config}.dna"
    art = pack_model(graph, soc, cfg, out,
                     validate_runs=args.validate_runs,
                     meta={"model": args.model, "config": args.config,
                           "precision": precision, "seed": 0})
    print(art.model.summary())
    print(f"packed {out} ({os.path.getsize(out)} B gzip)")
    print(f"config fingerprint : {art.config_fingerprint[:16]}")
    print(f"content fingerprint: {art.fingerprint[:16]}")
    if art.validation:
        print(f"validated: {art.validation['exact_runs']}/"
              f"{art.validation['runs']} bit-exact runs at pack time")
    if args.prebuild:
        import time

        from .codegen.build import (build_native_library, find_c_compiler,
                                    native_cache_dir)

        compiler = find_c_compiler()
        if compiler is None:
            print("prebuild skipped: no C compiler on PATH "
                  "(serving will fall back to exec_mode='fast')")
        else:
            cache = native_cache_dir(out)
            t0 = time.perf_counter()
            lib = build_native_library(art.model, cache_dir=cache,
                                       fingerprint=art.fingerprint)
            dt_ms = (time.perf_counter() - t0) * 1e3
            if lib is None:
                print("prebuild FAILED (see warning above); "
                      "serving will fall back to exec_mode='fast'")
                return 1
            print(f"prebuilt {lib} ({os.path.getsize(lib)} B, "
                  f"{compiler}, {dt_ms:.0f} ms cold build)")
    return 0


def cmd_load(args) -> int:
    import time

    from .serve import load_artifact

    t0 = time.perf_counter()
    art = load_artifact(args.artifact, expected_platform=args.platform)
    t1 = time.perf_counter()
    print(art.model.summary())
    print(f"loaded in {(t1 - t0) * 1e3:.1f} ms — no compilation "
          f"(config fp {art.config_fingerprint[:16]}, "
          f"content fp {art.fingerprint[:16]})")
    if art.validation:
        print(f"pack-time validation: {art.validation['exact_runs']}/"
              f"{art.validation['runs']} bit-exact")
    if not args.check:
        return 0

    # --check: recompile from provenance and prove the artifact equal
    import numpy as np

    meta = art.meta or {}
    if meta.get("precision") is None or (
            meta.get("model") not in MLPERF_TINY
            and not (meta.get("model") and os.path.exists(meta["model"]))):
        print("check: artifact has no usable provenance; validating "
              "against the reference interpreter instead")
        from .runtime import validate_deployment
        report = validate_deployment(art.model, art.soc, runs=3)
        print(f"check: {report}")
        return 0 if report.passed else 1
    graph = _load_model(meta["model"], meta["precision"])
    fresh = compile_model(graph, art.soc, art.config)
    if fresh.fingerprint() != art.fingerprint:
        print("check: FAIL — fresh compile fingerprint differs "
              f"({fresh.fingerprint()[:16]} vs {art.fingerprint[:16]})")
        return 1
    feeds = random_inputs(graph, seed=1)
    a = Executor(art.soc, exec_mode="fast").run(art.model, feeds)
    b = Executor(art.soc, exec_mode="fast").run(fresh, feeds)
    bit_exact = np.array_equal(np.asarray(a.output), np.asarray(b.output))
    cycles_equal = a.total_cycles == b.total_cycles
    print(f"check: bit-exact vs fresh compile: {bit_exact}; "
          f"cycles equal: {cycles_equal} ({a.total_cycles:.0f})")
    return 0 if (bit_exact and cycles_equal) else 1


def _serve_register(tier, spec: str, args, tmpdir: str):
    """Register one ``repro serve`` positional — artifact path or zoo
    name — on either tier; returns ``(key, CompiledModel, soc)``.

    The fleet hands workers an artifact *path*, so there zoo names are
    compiled and packed to a ``.dna`` under ``tmpdir`` first; the
    in-process server hosts the compiled model directly.
    """
    from .serve import ServingFleet, load_artifact, pack_model

    fleet = isinstance(tier, ServingFleet)
    if os.path.exists(spec) or spec.endswith(".dna"):
        art = load_artifact(spec)
        key = (tier.add_deployment(spec, key=art.key) if fleet
               else tier.register_artifact(art))
        return key, art.model, art.soc
    graph, soc, cfg = _deployment(args, spec)
    if fleet:
        path = os.path.join(tmpdir, f"{graph.name}.dna")
        art = pack_model(graph, soc, cfg, path)
        return tier.add_deployment(path, key=spec), art.model, art.soc
    compiled = compile_model(graph, soc, cfg)
    return tier.register_model(compiled, soc), compiled, soc


def _serve_load(tier, served, args) -> int:
    """``--requests N``: closed-loop load on each hosted model; with
    ``--verify`` every response must digest to the reference output."""
    from .eval.loadgen import format_load_report, output_digest, run_load

    per_client = max(args.requests // args.clients, 1)
    failures = []
    completed = 0
    for key, model in served.items():
        feeds = random_inputs(model.graph, seed=args.seed)
        report = run_load(tier, key, feeds, clients=args.clients,
                          requests_per_client=per_client)
        print(f"\n{key}:")
        print(format_load_report(report))
        completed += report.completed
        if report.lost or (not args.chaos
                           and report.completed < report.issued):
            failures.append(f"{key}: lost or failed requests (see above)")
        if args.verify and report.completed:
            ref = output_digest(run_reference(model.graph, feeds))
            if report.digests != {ref}:
                failures.append(
                    f"{key}: response digests {sorted(report.digests)} "
                    f"!= reference {ref}")
    print()
    print(tier.format_stats())
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"OK: {completed} requests across {len(served)} model(s), "
          f"{args.clients} client(s)"
          + (", every response matches the reference" if args.verify
             else ""))
    return 0


def _serve_interactive(tier, served, args) -> int:
    """Local request loop: one 'MODEL [SEED]' request per stdin line."""
    import numpy as np

    print("serving; enter 'MODEL [SEED]' per line (empty line or EOF "
          "to stop):")
    for line in sys.stdin:
        line = line.strip()
        if not line or line in ("quit", "exit"):
            break
        name, *rest = line.split()
        match = next((k for k in served
                      if k == name or k.split("@", 1)[0] == name), None)
        if match is None:
            print(f"  error: unknown model {name!r}; have {sorted(served)}")
            continue
        try:
            seed = int(rest[0]) if rest else 0
            feeds = random_inputs(served[match].graph, seed=seed)
            fut = tier.submit(match, feeds)
            out = fut.result(timeout=60)
        except Exception as exc:  # noqa: BLE001 — a bad request is not fatal
            print(f"  error: {exc}")
            continue
        digest = int(np.int64(np.asarray(out).astype(np.int64).sum()))
        print(f"  {match}: seed={seed} output_sum={digest} "
              f"wall={fut.wall_s * 1e3:.2f} ms batch={fut.batch_size} "
              f"modeled={latency_ms(fut.cycles):.3f} ms")
    print(tier.format_stats())
    return 0


def _chaos_plan(seed: int):
    """The canned ``--chaos`` mix: every runtime fault kind at a low,
    seeded rate (see docs/RESILIENCE.md for the matrix)."""
    from .serve import FaultPlan, FaultRule

    return FaultPlan(seed=seed, rules=(
        FaultRule(kind="crash", rate=0.03),
        FaultRule(kind="oom_crash", rate=0.01),
        FaultRule(kind="hang", rate=0.02, param=0.4),
        FaultRule(kind="exec_error", rate=0.02),
        FaultRule(kind="queue_full", rate=0.02),
    ))


def cmd_serve(args) -> int:
    import tempfile

    from .serve import FleetConfig, InferenceServer, ServingFleet

    if args.chaos and not args.fleet:
        print("repro serve: error: --chaos needs --fleet", file=sys.stderr)
        return 2
    if args.fleet:
        tier = ServingFleet(FleetConfig(
            workers=args.workers, exec_mode=args.exec_mode,
            default_deadline_s=(args.deadline_ms / 1e3
                                if args.deadline_ms else None),
            faults=_chaos_plan(args.chaos_seed) if args.chaos else None,
            fallback_exec_mode=("tiled" if args.exec_mode != "tiled"
                                else None)))
    else:
        tier = InferenceServer(
            capacity=args.capacity, max_batch_size=args.max_batch_size,
            max_wait_ms=args.max_wait_ms, exec_mode=args.exec_mode)
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmpdir, \
            tier:
        served = {}
        for spec in args.models:
            key, model, _ = _serve_register(tier, spec, args, tmpdir)
            print(f"deployment {key}: {model.name}, "
                  f"{len(model.steps)} kernels, exec_mode={args.exec_mode}"
                  + (f", {args.workers} worker(s)" if args.fleet else "")
                  + (" [chaos]" if args.chaos else ""))
            served[key] = model
        for key in served:
            if args.fleet and not tier.wait_ready(key, timeout=120):
                print(f"error: deployment {key} failed to become ready",
                      file=sys.stderr)
                return 1
        rc = (_serve_load if args.requests else _serve_interactive)(
            tier, served, args)
        if args.metrics:
            _emit_metrics(args.metrics, lambda: {
                "fleet" if args.fleet else "server": tier.stats()})
        return rc


def cmd_trace(args) -> int:
    """``repro trace``: record one traced compile + inference."""
    from .eval.layer_report import (
        format_layer_report, layer_report, measured_step_ms,
    )
    from .obs import (
        disable_tracing, enable_tracing, trace_span, write_chrome_trace,
    )
    from .runtime.accounting import account_model

    enable_tracing()
    try:
        if args.fleet:
            # pack + serve through real worker processes so the trace
            # shows request spans crossing the worker-pipe boundary
            import tempfile

            from .serve import FleetConfig, ServingFleet
            fleet_cfg = FleetConfig(workers=args.workers,
                                    exec_mode=args.exec_mode)
            with tempfile.TemporaryDirectory(prefix="repro-trace-") as tmp, \
                    ServingFleet(fleet_cfg) as fleet:
                key, model, soc = _serve_register(fleet, args.model, args,
                                                  tmp)
                if not fleet.wait_ready(key, timeout=120):
                    print("error: fleet failed to become ready",
                          file=sys.stderr)
                    return 1
                feeds = random_inputs(model.graph, seed=args.seed)
                futs = [fleet.submit(key, feeds)
                        for _ in range(args.requests)]
                for fut in futs:
                    fut.result(timeout=120)
        else:
            graph, soc, cfg = _deployment(args, args.model)
            model = compile_model(graph, soc, cfg)
            executor = Executor(soc, exec_mode=args.exec_mode)
            feeds = random_inputs(graph, seed=args.seed)
            for i in range(args.requests):
                with trace_span("exec.run", category="exec",
                                model=model.name, run=i,
                                exec_mode=args.exec_mode):
                    executor.run(model, feeds)
    finally:
        tracer = disable_tracing()
    spans = tracer.drain() if tracer is not None else []
    write_chrome_trace(args.out, spans, metadata={
        "model": model.name, "config": args.config,
        "exec_mode": args.exec_mode, "fleet": bool(args.fleet)})
    by_cat: dict = {}
    for s in spans:
        by_cat[s.category or "other"] = by_cat.get(s.category or "other",
                                                   0) + 1
    cats = ", ".join(f"{k}={v}" for k, v in sorted(by_cat.items()))
    print(f"wrote {args.out}: {len(spans)} spans ({cats})")
    # host ms only from steps executed in the requested mode: with
    # --fleet the trace also holds pack-time validation runs (tiled)
    measured = measured_step_ms(spans, exec_mode=args.exec_mode)
    print()
    print(format_layer_report(layer_report(
        model, account_model(model, soc), soc.params, measured)))
    return 0


def _format_stats_snapshot(snap) -> str:
    """Human rendering of a ``repro-stats/1`` snapshot."""
    from .mapping import format_columns

    lines = []
    if snap["counters"]:
        rows = [[k, str(int(v))]
                for k, v in sorted(snap["counters"].items())]
        lines += ["counters:", format_columns(["name", "value"], rows)]
    if snap["gauges"]:
        rows = [[k, f"{v:g}"] for k, v in sorted(snap["gauges"].items())]
        lines += ["gauges:", format_columns(["name", "value"], rows)]
    if snap["histograms"]:
        rows = [[k, str(h["count"]), f"{h.get('p50', 0):.3f}",
                 f"{h.get('p99', 0):.3f}", f"{h.get('max', 0):.3f}"]
                for k, h in sorted(snap["histograms"].items())]
        lines += ["histograms (ms):",
                  format_columns(["name", "n", "p50", "p99", "max"], rows)]
    for section, stats in sorted((snap.get("subsystems") or {}).items()):
        if isinstance(stats, dict):
            pairs = ", ".join(f"{k}={v}" for k, v in stats.items()
                              if not isinstance(v, (dict, list)))
            lines.append(f"{section}: {pairs}")
    if snap.get("events"):
        lines.append(f"events: {len(snap['events'])} recorded "
                     f"(latest: {snap['events'][-1]['name']})")
    return "\n".join(lines) if lines else "no metrics recorded"


def cmd_stats(args) -> int:
    """``repro stats``: the merged cross-subsystem snapshot."""
    import json

    from .obs import merged_snapshot, to_prometheus

    snap = merged_snapshot()
    if args.json:
        print(json.dumps(snap, indent=2, default=str))
    elif args.prom:
        print(to_prometheus(snap), end="")
    else:
        print(_format_stats_snapshot(snap))
    return 0


def _emit_metrics(dest: str, extra_fn=None) -> None:
    """``serve --metrics``: all digits = HTTP port to scrape, anything
    else = file to write one Prometheus text dump to."""
    from .obs import merged_snapshot, to_prometheus

    def _text() -> str:
        extra = extra_fn() if extra_fn is not None else None
        return to_prometheus(merged_snapshot(extra=extra))

    if dest.isdigit():
        from http.server import BaseHTTPRequestHandler, HTTPServer

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                body = _text().encode()
                self.send_response(200)
                self.send_header("Content-Type",
                                 "text/plain; version=0.0.4")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *a):
                pass

        httpd = HTTPServer(("127.0.0.1", int(dest)), _Handler)
        print(f"metrics: scrape http://127.0.0.1:{dest}/metrics "
              f"(ctrl-c to stop)")
        try:
            httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            httpd.server_close()
    else:
        with open(dest, "w") as fh:
            fh.write(_text())
        print(f"metrics: wrote {dest}")


def cmd_table1(args) -> int:
    results = evaluation.run_table1(jobs=args.jobs, exec_mode=args.exec_mode,
                                    mapping=args.mapping)
    print(evaluation.format_table1(results))
    claims = evaluation.summarize_claims(results)
    for key, value in claims.items():
        print(f"  {key}: {value:.2f}")
    _print_cache_stats()
    return 0


def cmd_table2(args) -> int:
    from .eval.sota import format_table2, run_table2
    print(format_table2(run_table2()))
    return 0


def cmd_fig4(args) -> int:
    if args.exec_mode is None:
        # --verify defaults to the schedule-exercising mode: a fast-mode
        # check compares the full-layer kernel against itself
        args.exec_mode = "tiled" if args.verify else "fast"
    points = evaluation.fig4.sweep(jobs=args.jobs, verify=args.verify,
                                   exec_mode=args.exec_mode)
    print(evaluation.fig4.format_fig4(points))
    print(f"max heuristic speed-up: "
          f"{evaluation.fig4.max_heuristic_speedup(points):.2f}x")
    if args.verify:
        checked = [p for p in points if p.verified is not None]
        bad = [p for p in checked if not p.verified]
        print(f"functional check ({args.exec_mode}): "
              f"{len(checked) - len(bad)}/{len(checked)} points bit-exact")
        if bad:
            return 1
    _print_cache_stats()
    return 0


def cmd_fig5(args) -> int:
    points = evaluation.fig5.characterize()
    print(evaluation.fig5.format_fig5(points))
    return 0


# -- the command table ------------------------------------------------------


def _number(text: str):
    """argparse type for sweep values: int when possible, else float."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _int_at_least(low: int, name: str):
    """argparse type: an int >= ``low``, a usage error (exit 2) else."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be >= {low}, got {value}")
        return value
    parse.__name__ = name
    return parse


POSITIVE_INT = _int_at_least(1, "positive_int")
COUNT = _int_at_least(0, "count")

Arg = Tuple[tuple, dict]


def _arg(*flags, **kwargs) -> Arg:
    return flags, kwargs


#: shared options, each declared once; a command row names the ones it
#: takes, optionally as ``(name, default)`` or ``(name, {overrides})``
OPTIONS = {
    "config": _arg(
        "--config", choices=list(CONFIGS), default="mixed",
        help="Table I configuration: model precision, enabled "
             "accelerators and compiler flow (default: %(default)s)"),
    "mapping": _arg(
        "--mapping", choices=list(STRATEGIES), default=None,
        help="target-selection strategy: 'rules' (weight-dtype policy), "
             "'greedy' (cheapest candidate per layer) or 'dp' (global "
             "cost-driven search)"),
    "depthfirst": _arg(
        "--depthfirst", choices=["auto", "on", "off"], default=None,
        help="fused depth-first (patch-based) conv-chain schedules: "
             "'auto' engages only when the activation arena exceeds the "
             "L2 budget, 'on' fuses every eligible chain "
             "(see docs/DEPTHFIRST.md)"),
    "platform": _arg(
        "--platform", default=None,
        help="registered platform to compile for ('repro platforms' "
             "lists them; plugins register via REPRO_PLATFORMS or "
             "repro.soc.register_platform). Off the default 'diana', the "
             "platform's spec picks the zoo precision and --config only "
             "supplies the compiler knobs"),
    "exec_mode": _arg(
        "--exec-mode", choices=list(EXEC_MODES), default="tiled",
        help="accelerator simulation path: 'tiled' executes every DORY "
             "tile (verification mode), 'fast' computes full layers with "
             "identical outputs and cycle counts, 'native' executes the "
             "generated C via a cached shared library "
             "(default: %(default)s)"),
    "jobs": _arg(
        "--jobs", type=POSITIVE_INT, default=1,
        help="evaluate independent cells/points on this many threads "
             "(default: %(default)s)"),
    "seed": _arg("--seed", type=COUNT, default=0,
                 help="input seed (default: %(default)s)"),
    "models": _arg(
        "--models", nargs="+", choices=sorted(MLPERF_TINY),
        help="restrict the sweep to these zoo models (default: all)"),
}


class Command(NamedTuple):
    """One subcommand: handler, help, own arguments, shared options."""

    fn: Callable
    help: str
    args: Tuple[Arg, ...] = ()
    options: tuple = ()


_COMPILE_OPTS = ("config", "mapping", "depthfirst", "platform")

COMMANDS = {
    "models": Command(cmd_models, "list the model zoo"),
    "platforms": Command(
        cmd_platforms, "list registered platforms (built-ins + plugins)"),
    "compile": Command(cmd_compile, "compile a model for a platform", (
        _arg("model"),
        _arg("--out-dir", help="write generated C sources here"),
        _arg("--dot", help="write a Graphviz rendering here"),
    ), _COMPILE_OPTS),
    "df": Command(cmd_df, "depth-first (patch-based) schedule report", (
        _arg("models", nargs="*",
             help="zoo models (default: the whole zoo)"),
        _arg("--l1-kb", type=POSITIVE_INT, default=None,
             help="Eq. 2 tiling budget override in kB"),
        _arg("--l2-kb", type=POSITIVE_INT, default=None,
             help="shrink the platform L2 to this many kB "
                  "(exercises the memory-constrained scenario)"),
    ), (("config", "digital"),
        ("depthfirst", {"choices": ["auto", "on"], "default": "on",
                        "help": "planning mode to report "
                                "(default: %(default)s)"}))),
    "map": Command(
        cmd_map, "print the mapping decision table / Pareto sweep", (
            _arg("model", nargs="?",
                 help="zoo model or graph JSON (omit with --pareto)"),
            _arg("--objective", choices=["latency", "energy", "weighted"],
                 default="latency",
                 help="what cost-driven strategies minimize"),
            _arg("--weight", type=float, default=0.5,
                 help="latency/energy trade-off of --objective weighted "
                      "(0 = latency, 1 = energy)"),
            _arg("--pareto", action="store_true",
                 help="sweep the weighted objective across the zoo and "
                      "write the MAPPING_DSE.json artifact"),
            _arg("--out", default="MAPPING_DSE.json",
                 help="artifact path for --pareto (default: %(default)s)"),
        ), ("config", ("mapping", "dp"), "platform", "models")),
    "dse": Command(
        cmd_dse, "platform x model x budget x objective DSE grid", (
            _arg("--platforms", nargs="+", metavar="NAME",
                 help="registered platforms to sweep (default: diana, "
                      "diana-noanalog, diana-nodig; see `repro "
                      "platforms`)"),
            _arg("--budgets-kb", nargs="+", type=POSITIVE_INT,
                 metavar="KB",
                 help="L1 tiling budgets in kB (default: 64 256)"),
            _arg("--objectives", nargs="+", choices=["latency", "energy"],
                 help="mapping objectives to sweep (default: both)"),
            _arg("--out", default="DSE_GRID.json",
                 help="grid artifact path (default: %(default)s)"),
            _arg("--check", action="store_true",
                 help="re-price the grid and fail if --out drifted "
                      "(tier-1 runs the same gate on the default grid)"),
        ), ("models", "jobs", ("mapping", "dp"))),
    "sweep": Command(
        cmd_sweep, "sweep one platform parameter (recompile + simulate)", (
            _arg("param", help="a DianaParams field, e.g. l1_bytes"),
            _arg("values", nargs="+", type=_number,
                 help="parameter values to sweep"),
            _arg("--model", default="resnet"),
        ), (("config", "digital"), "jobs", "mapping")),
    "run": Command(cmd_run, "compile + simulate one inference", (
        _arg("model"),
        _arg("--batch", type=POSITIVE_INT, default=1,
             help="simulate a batch of N inferences (N > 1 uses the "
                  "batched runtime; verified per sample)"),
        _arg("--layers", action="store_true",
             help="print the per-layer report: cycles by phase, share, "
                  "MAC/cycle, energy"),
    ), _COMPILE_OPTS + ("seed", "exec_mode")),
    "check": Command(
        cmd_check,
        "statically verify a compile or a .dna artifact "
        "(see docs/CHECKS.md)", (
            _arg("target", nargs="?",
                 help="zoo model / graph JSON (compiled, then checked) "
                      "or a .dna artifact path (checked without "
                      "executing); omit with --grid"),
            _arg("--grid", action="store_true",
                 help="sweep every zoo model x Table I config, checking "
                      "both the fresh compile and a packed artifact"),
            _arg("--no-artifacts", action="store_true",
                 help="skip the pack + artifact-check half of --grid"),
            _arg("--json", action="store_true",
                 help="emit the machine-readable repro-check/1 document"),
        ), _COMPILE_OPTS + ("models",)),
    "pack": Command(
        cmd_pack, "compile a model into a .dna serving artifact", (
            _arg("model"),
            _arg("--out", help="artifact path "
                               "(default: <model>-<config>.dna)"),
            _arg("--validate-runs", type=COUNT, default=1,
                 help="bit-exact validation runs recorded at pack "
                      "time (0 skips; default: %(default)s)"),
            _arg("--prebuild", action="store_true",
                 help="also compile the native shared library next to "
                      "the artifact (exec-mode native loads it without a "
                      "toolchain on the serving host)"),
        ), _COMPILE_OPTS),
    "load": Command(
        cmd_load, "load a .dna artifact (no compilation) and inspect it", (
            _arg("artifact"),
            _arg("--check", action="store_true",
                 help="recompile from the artifact's provenance and "
                      "assert byte-identical outputs + equal cycles"),
        ), (("platform", {"help": "reject the artifact unless it was "
                                  "packed for this registered platform "
                                  "(V-ART-012)"}),)),
    "serve": Command(
        cmd_serve, "host models/artifacts behind the batching server", (
            _arg("models", nargs="+",
                 help="any mix of .dna artifact paths and zoo names "
                      "(zoo names are compiled with --config first)"),
            _arg("--capacity", type=POSITIVE_INT, default=8,
                 help="LRU registry bound (default: %(default)s)"),
            _arg("--max-batch-size", type=POSITIVE_INT, default=8,
                 help="dynamic-batch upper bound (default: %(default)s)"),
            _arg("--max-wait-ms", type=float, default=2.0,
                 help="batch linger after the first queued request "
                      "(default: %(default)s)"),
            _arg("--requests", type=COUNT, default=0,
                 help="load-generation mode: submit N requests and "
                      "exit (0 = interactive stdin loop)"),
            _arg("--clients", type=POSITIVE_INT, default=4,
                 help="concurrent client threads in load mode "
                      "(default: %(default)s)"),
            _arg("--verify", action="store_true",
                 help="byte-compare every load-mode response against "
                      "the reference interpreter"),
            _arg("--fleet", action="store_true",
                 help="serve through the supervised multi-process "
                      "fleet instead of the in-process server"),
            _arg("--workers", type=POSITIVE_INT, default=2,
                 help="fleet worker processes per deployment "
                      "(default: %(default)s)"),
            _arg("--deadline-ms", type=float, default=30000.0,
                 help="fleet per-request deadline in ms, 0 = none "
                      "(default: %(default)s)"),
            _arg("--chaos", action="store_true",
                 help="fleet mode: inject the canned seeded fault mix "
                      "(crashes, hangs, OOM, queue-full)"),
            _arg("--chaos-seed", type=COUNT, default=0,
                 help="seed for --chaos fault injection "
                      "(default: %(default)s)"),
            _arg("--metrics",
                 help="expose the merged metrics snapshot as Prometheus "
                      "text: all digits = HTTP port to serve /metrics "
                      "on, anything else = file to write one dump to "
                      "after serving"),
        ), _COMPILE_OPTS + ("seed", ("exec_mode", "fast"))),
    "trace": Command(
        cmd_trace,
        "record a traced compile + inference as Perfetto-loadable JSON "
        "and print the per-layer report (see docs/OBSERVABILITY.md)", (
            _arg("model"),
            _arg("-o", "--out", default="trace.json",
                 help="trace-event JSON output path "
                      "(default: %(default)s)"),
            _arg("--requests", type=POSITIVE_INT, default=1,
                 help="inferences to trace (default: %(default)s)"),
            _arg("--fleet", action="store_true",
                 help="route the requests through the multi-process "
                      "fleet so the trace shows request spans crossing "
                      "the worker-pipe boundary"),
            _arg("--workers", type=POSITIVE_INT, default=1,
                 help="fleet workers with --fleet (default: %(default)s)"),
        ), ("config", "mapping", "depthfirst", "seed",
            ("exec_mode", "fast"))),
    "stats": Command(
        cmd_stats,
        "merged observability snapshot: counters, gauges, histograms, "
        "and subsystem stats in one schema", (
            _arg("--json", action="store_true",
                 help="emit the machine-readable repro-stats/1 JSON"),
            _arg("--prom", action="store_true",
                 help="emit Prometheus text exposition instead"),
        )),
    "table1": Command(cmd_table1, "regenerate the paper's table1",
                      options=("jobs", "exec_mode", "mapping")),
    "table2": Command(cmd_table2, "regenerate the paper's table2"),
    "fig4": Command(cmd_fig4, "regenerate the paper's fig4", (
        _arg("--verify", action="store_true",
             help="execute every swept tiling functionally in "
                  "--exec-mode (default: tiled, the schedule-exercising "
                  "mode) and byte-compare against the golden kernels"),
    ), ("jobs", ("exec_mode", None))),
    "fig5": Command(cmd_fig5, "regenerate the paper's fig5"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flags, kwargs in command.args:
            p.add_argument(*flags, **kwargs)
        for entry in command.options:
            key, over = entry if isinstance(entry, tuple) else (entry, {})
            flags, kwargs = OPTIONS[key]
            if not isinstance(over, dict):
                over = {"default": over}
            p.add_argument(*flags, **{**kwargs, **over})
        p.set_defaults(fn=command.fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OutOfMemoryError as exc:
        print(f"OUT OF MEMORY: {exc}")
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
