"""repro — reproduction of HTVM (Van Delm et al., DAC 2023).

HTVM merges a TVM-style graph compiler with the DORY memory-planning
backend to deploy quantized DNNs on heterogeneous TinyML SoCs. This
package reproduces the full system in pure Python: the compiler flow
(IR, pattern matching, dispatching, DORY tiling, memory planning,
C code generation) and a cycle-level, bit-exact simulator of the DIANA
SoC it is evaluated on.

Quickstart::

    from repro import compile_model, get_platform, HTVM, Executor
    from repro.frontend.modelzoo import resnet8
    from repro.runtime import random_inputs

    graph = resnet8(precision="int8")
    soc = get_platform("diana")
    model = compile_model(graph, soc, HTVM)
    result = Executor(soc).run(model, random_inputs(graph))
    print(model.summary(), result.total_cycles)

Platforms beyond the stock DIANA register declaratively — see
:mod:`repro.soc.registry` and docs/PLATFORMS.md.
"""

from . import baselines, codegen, core, dory, eval, extensions, frontend
from . import ir, mapping, numerics, patterns, runtime, serve, soc, transforms
from .core import (
    CompilerConfig, CompiledModel, HTVM, HTVM_NAIVE_TILING, TVM_CPU,
    TilingCache, compile_model, get_default_cache, set_default_cache,
)
from .errors import (
    CodegenError, DispatchError, IRError, MemoryPlanError, OutOfMemoryError,
    PatternError, PlatformError, ReproError, ShapeError, SimulationError,
    TilingError, UnsupportedError,
)
from .runtime import (
    BatchExecutionResult, ExecutionResult, Executor, random_inputs,
    random_inputs_batched, run_reference, run_reference_batched,
)
from .soc import (
    DEFAULT_PARAMS, DianaParams, Platform, PlatformSpec, get_platform,
    latency_ms, platform_names, register_platform,
)

__version__ = "1.0.0"

__all__ = [
    "baselines", "codegen", "core", "dory", "eval", "extensions", "frontend",
    "ir", "mapping", "numerics", "patterns", "runtime", "serve", "soc",
    "transforms",
    "CompilerConfig", "CompiledModel", "HTVM", "HTVM_NAIVE_TILING",
    "TVM_CPU", "TilingCache", "compile_model", "get_default_cache",
    "set_default_cache",
    "CodegenError", "DispatchError", "IRError", "MemoryPlanError",
    "OutOfMemoryError", "PatternError", "PlatformError", "ReproError",
    "ShapeError", "SimulationError", "TilingError", "UnsupportedError",
    "BatchExecutionResult", "ExecutionResult", "Executor",
    "random_inputs", "random_inputs_batched",
    "run_reference", "run_reference_batched",
    "DEFAULT_PARAMS", "DianaParams", "Platform",
    "PlatformSpec", "get_platform", "latency_ms", "platform_names",
    "register_platform",
    "__version__",
]
