"""Every ``repro`` name the deployment-lifecycle benchmark calls.

This is the only file under ``benchmarks/e2e/`` that imports ``repro``.
The harness measures each layer *from outside*, by timing calls into
the public functions listed here, so an API consolidation in ``src/``
needs a follow-up in this one file and nowhere else.

Importing it puts ``<repo>/src`` on ``sys.path`` (the benchmark command
names no path outside ``benchmarks/e2e``), so it fails with
``ModuleNotFoundError`` in a directory that has no ``src/repro``.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

# -- core: compile driver, configs, tiling memo ------------------------------
from repro import (  # noqa: E402
    HTVM, TVM_CPU, OutOfMemoryError, TilingCache, compile_model,
    set_default_cache,
)
# -- frontend / transforms / patterns / mapping / dory / codegen:
#    compile_model's stages, replayed one public call at a time -------------
from repro.frontend.modelzoo import MLPERF_TINY  # noqa: E402
from repro.transforms import (  # noqa: E402
    Pass, PassManager, canonicalize, eliminate_dead_code, fold_constants,
    fuse_cpu_ops,
)
from repro.patterns import default_specs, partition  # noqa: E402
from repro.mapping import analyze_mapping, plan_mapping  # noqa: E402
from repro.dory import (  # noqa: E402
    DoryTiler, emit_accel_layer, lifetimes_from_steps, plan_memory,
)
from repro.dory.heuristics import heuristic_set_for  # noqa: E402
from repro.codegen import (  # noqa: E402
    build_native_library, emit_cpu_kernel, emit_native_sources,
    emit_network, emit_runtime_header, find_c_compiler, full_run_eligible,
    load_native_module, native_step_indices,
)
# -- runtime / numerics: executor, bare step kernels, reference ---------------
from repro.runtime import (  # noqa: E402
    Executor, compile_plan, execute_layer_fast, execute_layer_tiled,
    random_inputs, run_reference, validate_deployment,
)
# -- soc: simulated platform, clock, energy model -----------------------------
from repro.soc import (  # noqa: E402
    execution_energy_uj, get_platform, latency_ms,
)
# -- verify / serve -------------------------------------------------------------
from repro.verify import verify_artifact, verify_model  # noqa: E402
from repro.serve import (  # noqa: E402
    FleetConfig, InferenceServer, ServingFleet, load_artifact, pack_model,
    save_artifact,
)
from repro.serve.batcher import normalize_feeds  # noqa: E402
# -- eval: the DSE sweep (compile layer used as a sweep) ------------------------
from repro.eval.dse import sweep_grid  # noqa: E402
# -- obs: the tracer the traced run reuses ---------------------------------------
from repro.obs import (  # noqa: E402
    Tracer, disable_tracing, enable_tracing, write_chrome_trace,
)

__all__ = [
    "ROOT",
    "HTVM", "TVM_CPU", "OutOfMemoryError", "TilingCache", "compile_model",
    "set_default_cache",
    "MLPERF_TINY",
    "Pass", "PassManager", "canonicalize", "eliminate_dead_code",
    "fold_constants", "fuse_cpu_ops",
    "default_specs", "partition",
    "analyze_mapping", "plan_mapping",
    "DoryTiler", "emit_accel_layer", "heuristic_set_for",
    "lifetimes_from_steps", "plan_memory",
    "build_native_library", "emit_cpu_kernel", "emit_native_sources",
    "emit_network", "emit_runtime_header", "find_c_compiler",
    "full_run_eligible", "load_native_module", "native_step_indices",
    "Executor", "compile_plan", "execute_layer_fast", "execute_layer_tiled",
    "random_inputs", "run_reference", "validate_deployment",
    "execution_energy_uj", "get_platform", "latency_ms",
    "verify_artifact", "verify_model",
    "FleetConfig", "InferenceServer", "ServingFleet", "load_artifact",
    "pack_model", "save_artifact", "normalize_feeds",
    "sweep_grid",
    "Tracer", "disable_tracing", "enable_tracing", "write_chrome_trace",
]
