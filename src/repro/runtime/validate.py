"""Deployment validation utilities.

Wraps the "compile, execute on the simulator, compare to the golden
interpreter" loop used throughout the tests/benchmarks into one call,
with multiple random stimuli — the software analogue of the paper's
on-device validation runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.program import CompiledModel
from .executor import ExecutionResult, Executor
from .reference import random_inputs, run_reference


@dataclass
class ValidationReport:
    """Outcome of validating one compiled deployment."""

    model_name: str
    runs: int = 0
    exact_runs: int = 0
    mismatched_seeds: List[int] = field(default_factory=list)
    max_abs_error: float = 0.0
    cycles: Optional[float] = None

    @property
    def passed(self) -> bool:
        return self.runs > 0 and self.exact_runs == self.runs

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.model_name}: {self.exact_runs}/{self.runs}"
                f" bit-exact runs"
                + (f", max |err| {self.max_abs_error}" if not self.passed
                   else ""))


def validate_deployment(model: CompiledModel, soc, runs: int = 3,
                        seed: int = 0) -> ValidationReport:
    """Execute ``runs`` random stimuli and compare against the reference.

    Returns a report; does not raise on mismatch (callers decide).
    """
    report = ValidationReport(model_name=model.name)
    executor = Executor(soc)
    for i in range(runs):
        feeds = random_inputs(model.graph, seed=seed + i)
        result: ExecutionResult = executor.run(model, feeds)
        reference = run_reference(model.graph, feeds)
        report.runs += 1
        got = np.asarray(result.output, dtype=np.float64)
        want = np.asarray(reference, dtype=np.float64)
        if np.array_equal(got, want):
            report.exact_runs += 1
        else:
            report.mismatched_seeds.append(seed + i)
            # an output of the wrong shape has no elementwise error
            err = (float(np.abs(got - want).max())
                   if got.shape == want.shape else float("inf"))
            report.max_abs_error = max(report.max_abs_error, err)
        report.cycles = result.total_cycles
    return report
