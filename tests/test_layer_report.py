"""Per-layer report tests."""

import pytest

from repro.core import HTVM, compile_model
from repro.eval.layer_report import format_layer_report, layer_report
from repro.frontend.modelzoo import resnet8
from repro.runtime import Executor, random_inputs
from repro.soc import get_platform


@pytest.fixture(scope="module")
def reported():
    soc = get_platform("diana", enable_analog=False)
    graph = resnet8()
    model = compile_model(graph, soc, HTVM)
    result = Executor(soc).run(model, random_inputs(graph, seed=0))
    return model, result, layer_report(model, result, soc.params)


class TestLayerReport:
    def test_one_row_per_step(self, reported):
        model, _, rows = reported
        assert len(rows) == len(model.steps)

    def test_cycles_sum_to_total(self, reported):
        _, result, rows = reported
        assert sum(r.cycles for r in rows) == pytest.approx(
            result.total_cycles)

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
        assert "MAC/cy" in text
        assert len(text.splitlines()) == len(rows) + 3

    def test_format_top(self, reported):
        _, _, rows = reported
        text = format_layer_report(rows, top=3)
        assert "top 3" in text
        assert len(text.splitlines()) == 3 + 3

    def test_shares_sum_to_100(self, reported):
        _, _, rows = reported
        total = sum(r.cycles for r in rows)
        shares = [r.cycles / total for r in rows]
        assert sum(shares) == pytest.approx(1.0)
