"""Runtime: reference interpreter, numeric kernels, SoC executor."""

from .cost import accumulate_accel_cost, cost_layer
from .executor import (
    EXEC_MODES, BatchExecutionResult, ExecutionResult, Executor,
    execute_chain_depth_first, execute_layer_fast, execute_layer_tiled,
)
from .reference import (
    CompiledPlan, compile_plan, random_inputs, random_inputs_batched,
    run_reference, run_reference_batched,
)
from .validate import ValidationReport, validate_deployment

__all__ = [
    "EXEC_MODES", "BatchExecutionResult", "ExecutionResult", "Executor",
    "accumulate_accel_cost", "cost_layer",
    "execute_chain_depth_first", "execute_layer_fast", "execute_layer_tiled",
    "CompiledPlan", "compile_plan",
    "random_inputs", "random_inputs_batched",
    "run_reference", "run_reference_batched",
    "ValidationReport", "validate_deployment",
]
