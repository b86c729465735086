"""Baselines the paper compares against."""

from .tvm_cpu import compile_tvm_cpu, cpu_only_soc

__all__ = [
    "compile_tvm_cpu", "cpu_only_soc",
]
