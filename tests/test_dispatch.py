"""Dispatcher tests: rules, selection, mixed policy via dtypes."""

import pytest

from repro.mapping import assign_targets, dispatch_summary, eligible_targets
from repro.dory import make_conv_spec, make_dense_spec
from repro.frontend.modelzoo import dscnn, resnet8
from repro.patterns import default_specs, partition
from repro.soc import get_platform


def dispatched(graph, soc):
    pg = partition(graph, default_specs())
    return assign_targets(pg, soc)


class TestEligibility:
    def test_int8_conv_digital_only(self):
        soc = get_platform("diana")
        spec = make_conv_spec("c", 8, 8, 8, 8, padding=(1, 1))
        elig = eligible_targets(spec, soc)
        assert elig["soc.digital"] == ""
        assert elig["soc.analog"] != ""

    def test_ternary_conv_analog_only(self):
        soc = get_platform("diana")
        spec = make_conv_spec("c", 8, 8, 8, 8, padding=(1, 1),
                              weight_dtype="ternary")
        elig = eligible_targets(spec, soc)
        assert elig["soc.analog"] == ""
        assert elig["soc.digital"] != ""

    def test_add_supported_by_both(self):
        soc = get_platform("diana")
        from repro.dory.layer_spec import LayerSpec
        spec = LayerSpec(name="add", kind="add", in_channels=8,
                         out_channels=8, iy=4, ix=4, oy=4, ox=4)
        elig = eligible_targets(spec, soc)
        assert elig["soc.digital"] == "" and elig["soc.analog"] == ""


class TestAssignTargets:
    def test_int8_model_goes_digital(self):
        soc = get_platform("diana")
        g, decisions = dispatched(resnet8(precision="int8"), soc)
        targets = {c.target for c in g.composites()}
        assert targets == {"soc.digital"}

    def test_ternary_model_dw_falls_back_to_cpu(self):
        soc = get_platform("diana", enable_digital=False)
        g, decisions = dispatched(dscnn(precision="ternary"), soc)
        by_target = {}
        for c in g.composites():
            by_target.setdefault(c.target, 0)
            by_target[c.target] += 1
        assert by_target.get("cpu", 0) == 4      # the 4 DW layers
        assert by_target["soc.analog"] >= 6

    def test_mixed_model_splits(self):
        soc = get_platform("diana")
        g, _ = dispatched(resnet8(precision="mixed"), soc)
        targets = [c.target for c in g.composites()
                   if c.pattern_name == "htvm.qconv2d"]
        assert "soc.digital" in targets and "soc.analog" in targets
        # first eligible conv layer is digital (mixed policy)
        assert targets[0] == "soc.digital"

    def test_no_accelerators_all_cpu(self):
        soc = get_platform("diana", enable_digital=False, enable_analog=False)
        g, decisions = dispatched(resnet8(), soc)
        assert all(c.target == "cpu" for c in g.composites())

    def test_decisions_record_rejections(self):
        soc = get_platform("diana")
        _, decisions = dispatched(dscnn(precision="ternary"), soc)
        dw = [d for d in decisions
              if d.rejections.get("soc.analog", "").startswith("kind dwconv2d")]
        assert len(dw) == 4, "expected 4 DW rejection records"

    def test_summary_format(self):
        soc = get_platform("diana")
        _, decisions = dispatched(resnet8(), soc)
        text = dispatch_summary(decisions)
        assert "soc.digital" in text
        assert "layer" in text

    def test_custom_prefer_override(self):
        soc = get_platform("diana")
        pg = partition(resnet8(), default_specs())
        g, _ = assign_targets(pg, soc, prefer=lambda spec, ok: "cpu"
                              if spec.kind == "add" else ok[0])
        adds = [c for c in g.composites() if c.pattern_name == "htvm.qadd"]
        assert all(c.target == "cpu" for c in adds)

    def test_dispatch_preserves_semantics(self):
        import numpy as np
        from repro.runtime import random_inputs, run_reference
        soc = get_platform("diana")
        g0 = resnet8(precision="mixed")
        g, _ = dispatched(g0, soc)
        feeds = random_inputs(g0, seed=1)
        np.testing.assert_array_equal(
            run_reference(g0, feeds), run_reference(g, feeds))
