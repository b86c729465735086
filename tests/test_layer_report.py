"""Per-layer report tests."""

import pytest

from repro.core import HTVM, compile_model
from repro.eval.layer_report import (
    PHASES, format_layer_report, layer_report, measured_step_ms,
)
from repro.frontend.modelzoo import resnet8
from repro.obs import Span
from repro.runtime import Executor, random_inputs
from repro.soc import get_platform


@pytest.fixture(scope="module")
def reported():
    soc = get_platform("diana", enable_analog=False)
    graph = resnet8()
    model = compile_model(graph, soc, HTVM)
    result = Executor(soc).run(model, random_inputs(graph, seed=0))
    return model, result, layer_report(model, result.perf, soc.params)


def _step_span(step, ms, exec_mode="fast"):
    return Span(name="exec.step", category="exec", trace_id="t",
                span_id=f"{step}-{ms}", parent_id=None, t_start_ns=0,
                t_end_ns=int(ms * 1e6),
                attrs={"step": step, "target": "cpu",
                       "exec_mode": exec_mode, "modeled_cycles": 1.0})


class TestLayerReport:
    def test_one_row_per_step(self, reported):
        model, _, rows = reported
        assert len(rows) == len(model.steps)

    def test_cycles_sum_to_total(self, reported):
        _, result, rows = reported
        assert sum(r.cycles for r in rows) == result.perf.total_cycles

    def test_phases_sum_to_cycles(self, reported):
        _, _, rows = reported
        known = {c for c, _ in PHASES}
        for r in rows:
            assert set(r.phases) <= known
            assert sum(r.phases.values()) == pytest.approx(r.cycles)

    def test_geometry_strings(self, reported):
        _, _, rows = reported
        geoms = [r.geometry for r in rows]
        assert any(g.startswith("conv 3->16") for g in geoms)
        assert any(g.startswith("dense 64->10") for g in geoms)
        assert any(g.startswith("add ") for g in geoms)

    def test_energy_positive(self, reported):
        _, _, rows = reported
        assert all(r.energy_uj > 0 for r in rows)

    def test_format_full(self, reported):
        _, _, rows = reported
        text = format_layer_report(rows)
        assert "per-layer report" in text
        assert "MAC/cy" in text and "W-DMA" in text and "tile loop" in text
        assert "host ms" not in text  # nothing measured
        assert len(text.splitlines()) == len(rows) + 3

    def test_format_top(self, reported):
        _, _, rows = reported
        text = format_layer_report(rows, top=3)
        assert "top 3" in text
        assert len(text.splitlines()) == 3 + 3

    def test_format_empty(self):
        text = format_layer_report([])
        assert text.splitlines()[0] == "per-layer report"
        assert len(text.splitlines()) == 3

    def test_shares_sum_to_100(self, reported):
        _, _, rows = reported
        total = sum(r.cycles for r in rows)
        shares = [r.cycles / total for r in rows]
        assert sum(shares) == pytest.approx(1.0)


class TestMeasured:
    def test_min_over_runs(self):
        spans = [_step_span("s0", 2.0), _step_span("s0", 1.0),
                 _step_span("s0", 3.0)]
        assert measured_step_ms(spans) == {"s0": 1.0}

    def test_other_exec_modes_ignored(self):
        spans = [_step_span("s0", 0.5, exec_mode="tiled"),
                 _step_span("s0", 3.0, exec_mode="fast")]
        assert measured_step_ms(spans, exec_mode="fast") == {"s0": 3.0}
        assert measured_step_ms(spans) == {"s0": 0.5}

    def test_measured_columns(self, reported):
        model, result, _ = reported
        soc = get_platform("diana", enable_analog=False)
        first, second = model.steps[0].name, model.steps[1].name
        rows = layer_report(model, result.perf, soc.params,
                            measured={first: 3.0, second: 1.0})
        assert rows[0].measured_ms == 3.0 and rows[2].measured_ms is None
        text = format_layer_report(rows)
        assert "host ms" in text and "host share" in text
        assert "75.0%" in text.splitlines()[3]  # 3 ms of 4 measured
