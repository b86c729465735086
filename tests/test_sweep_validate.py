"""Design-space sweep + deployment-validation utility tests."""

import pytest

from repro.core import HTVM, compile_model
from repro.errors import ReproError
from repro.eval.sweep import (
    format_sweep, l1_size_sweep, sweep_param, weight_memory_sweep,
)
from repro.frontend.modelzoo import resnet8
from repro.runtime import validate_deployment
from repro.soc import get_platform
from helpers import build_small_cnn


class TestSweep:
    def test_l1_sweep_monotone(self):
        points = l1_size_sweep("resnet", sizes_kb=(256, 16, 4))
        lats = [p.latency_ms for p in points if p.latency_ms is not None]
        assert len(lats) == 3
        assert lats == sorted(lats)  # smaller L1 never helps

    def test_weight_memory_sweep(self):
        points = weight_memory_sweep("toyadmos", sizes_kb=(64, 8))
        assert points[0].latency_ms < points[1].latency_ms

    def test_infeasible_values_reported(self):
        points = sweep_param("l1_bytes", [256 * 1024, 64],
                             model="resnet", config="digital")
        assert points[0].latency_ms is not None
        assert points[1].oom or points[1].latency_ms is None

    def test_unknown_param_rejected(self):
        with pytest.raises(ReproError, match="unknown platform parameter"):
            sweep_param("pe_count", [1], model="resnet")

    def test_format(self):
        points = l1_size_sweep("resnet", sizes_kb=(256,))
        text = format_sweep(points)
        assert "l1_bytes" in text and "resnet" in text

    def test_format_empty(self):
        assert "empty" in format_sweep([])


class TestValidateDeployment:
    def test_pass_report(self):
        graph = build_small_cnn()
        soc = get_platform("diana", enable_analog=False)
        model = compile_model(graph, soc, HTVM)
        report = validate_deployment(model, soc, runs=3)
        assert report.passed
        assert report.runs == 3 and report.exact_runs == 3
        assert "PASS" in str(report)
        assert report.cycles > 0

    def test_detects_broken_executor(self, monkeypatch):
        graph = build_small_cnn()
        soc = get_platform("diana", enable_analog=False)
        model = compile_model(graph, soc, HTVM)

        from repro.runtime import validate as v
        real = v.run_reference

        def corrupted(g, feeds):
            out = real(g, feeds)
            return out + 1.0  # poison the golden output

        monkeypatch.setattr(v, "run_reference", corrupted)
        report = validate_deployment(model, soc, runs=2)
        assert not report.passed
        assert report.mismatched_seeds == [0, 1]
        assert report.max_abs_error >= 1.0
        assert "FAIL" in str(report)

    def test_output_shape_mismatch_is_reported(self, monkeypatch):
        """A reference of another shape is a mismatch with infinite
        error, not a broadcasting crash."""
        from repro.frontend.modelzoo import toyadmos_dae
        from repro.runtime import validate as v

        graph = toyadmos_dae(seed=0)
        soc = get_platform("diana", enable_analog=False)
        model = compile_model(graph, soc, HTVM)
        real = v.run_reference
        monkeypatch.setattr(v, "run_reference",
                            lambda g, feeds: real(g, feeds)[:, :-1])
        report = validate_deployment(model, soc, runs=2, seed=5)
        assert not report.passed
        assert report.runs == 2 and report.exact_runs == 0
        assert report.mismatched_seeds == [5, 6]
        assert report.max_abs_error == float("inf")
        assert report.cycles > 0
        assert "FAIL" in str(report)
