"""Mutation-based tests for the static verifier framework.

Every fault class named in the verifier design doc is *seeded* into an
otherwise-clean compile, and the test asserts that the matching checker
flags it with its specific diagnostic code — not merely that "something
failed".  A clean-pass sweep over the model zoo x Table I grid proves
the checkers are quiet on healthy deployments.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import subprocess
import sys

import pytest

from repro.core.compiler import compile_model
from repro.core.program import AccelStep
from repro.errors import ArtifactError, VerificationError
from repro.eval.harness import CONFIGS
from repro.frontend.modelzoo import MLPERF_TINY
from repro.ir import Call, Constant, TensorType, Var
from repro.serve.artifact import (
    artifact_to_dict, load_artifact, save_artifact,
)
from repro.soc import get_platform
from repro.verify import (
    CHECK_SCHEMA, CODES, CheckResult, Diagnostic, Severity, assert_valid,
    check_artifact_dict, check_artifact_file, check_compiled_plan,
    check_graph, check_memory_plan, grid_report, verify_graph, verify_grid,
    verify_model,
)

from helpers import build_small_cnn


def _compile_cell(model: str, config: str):
    """Fresh (compiled, soc, cfg) for one zoo x Table I cell."""
    precision, soc_kwargs, cfg = CONFIGS[config]
    graph = MLPERF_TINY[model](precision=precision)
    soc = get_platform("diana", **soc_kwargs)
    return compile_model(graph, soc, cfg), soc, cfg


# ---------------------------------------------------------------------------
# diagnostic vocabulary
# ---------------------------------------------------------------------------

class TestDiagnostics:
    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic("V-BOGUS-999", Severity.ERROR, "graph", "nope")

    def test_warning_does_not_fail_result(self):
        r = CheckResult(target="t")
        r.add([Diagnostic("V-GRAPH-003", Severity.WARNING, "graph", "m")],
              "graph")
        assert r.ok
        assert r.codes() == ["V-GRAPH-003"]
        assert "PASS" in r.render()

    def test_error_fails_result_and_assert_valid_raises(self):
        r = CheckResult(target="t")
        r.add([Diagnostic("V-MEM-002", Severity.ERROR, "memory", "overlap")],
              "memory")
        assert not r.ok
        with pytest.raises(VerificationError, match="V-MEM-002"):
            assert_valid(r)

    def test_to_dict_shape(self):
        d = Diagnostic("V-ART-001", Severity.ERROR, "artifact", "bad", "x.dna")
        dd = d.to_dict()
        assert dd["code"] == "V-ART-001"
        assert dd["severity"] == "error"
        assert dd["stage"] == "artifact"
        assert dd["location"] == "x.dna"


# ---------------------------------------------------------------------------
# graph checker
# ---------------------------------------------------------------------------

class TestGraphChecks:
    def test_clean_graph_passes(self):
        assert check_graph(build_small_cnn()) == []

    def test_dangling_input_warns(self):
        g = build_small_cnn()
        g.inputs.append(Var("unused", TensorType((1, 1), "int8")))
        result = verify_graph(g)
        assert result.ok  # warning only
        assert "V-GRAPH-003" in result.codes()

    def test_free_var_is_error(self):
        g = build_small_cnn()
        call = next(n for n in g.topo_order() if isinstance(n, Call))
        call._inputs[0] = Var("ghost", call.inputs[0].ttype)
        codes = [d.code for d in check_graph(g)]
        assert "V-GRAPH-002" in codes

    def test_cycle_detected(self):
        g = build_small_cnn()
        calls = [n for n in g.topo_order() if isinstance(n, Call)]
        # point an early call's input at the graph output: back edge
        calls[0]._inputs[0] = g.output
        codes = [d.code for d in check_graph(g)]
        assert codes == ["V-GRAPH-001"]  # cycle short-circuits the rest

    def test_type_disagreement(self):
        g = build_small_cnn()
        call = next(n for n in g.topo_order() if isinstance(n, Call))
        call.ttype = TensorType((1, 2, 3), "int8")
        codes = [d.code for d in check_graph(g)]
        assert "V-GRAPH-005" in codes

    def test_illegal_requant_shift(self):
        g = build_small_cnn()
        shift = next(n for n in g.topo_order()
                     if isinstance(n, Call) and n.op == "right_shift")
        const = shift.inputs[1]
        assert isinstance(const, Constant)
        const.value.data[...] = 40  # > 31: shifts out every bit
        codes = [d.code for d in check_graph(g)]
        assert "V-GRAPH-007" in codes


# ---------------------------------------------------------------------------
# memory-plan checker
# ---------------------------------------------------------------------------

class TestMemoryChecks:
    def test_clean_plan_passes(self):
        compiled, soc, cfg = _compile_cell("resnet", "digital")
        assert check_memory_plan(compiled,
                                 l2_bytes=soc.params.l2_bytes) == []

    def test_swapped_steps_break_liveness(self):
        compiled, soc, cfg = _compile_cell("resnet", "digital")
        compiled.steps[0], compiled.steps[1] = (
            compiled.steps[1], compiled.steps[0])
        result = verify_model(compiled, soc=soc, config=cfg)
        assert "V-MEM-005" in result.codes()
        assert "V-PLAN-001" in result.codes()  # consume-before-produce too

    def test_overlapping_l2_buffers(self):
        compiled, soc, cfg = _compile_cell("resnet", "digital")
        plan = compiled.memory_plan
        lives = plan.lifetimes
        names = sorted(lives)
        overlap = next(
            (a, b) for i, a in enumerate(names) for b in names[i + 1:]
            if lives[a].start <= lives[b].end
            and lives[b].start <= lives[a].end
            and plan.sizes[a] and plan.sizes[b])
        a, b = overlap
        plan.offsets[b] = plan.offsets[a]
        codes = [d.code for d in check_memory_plan(compiled)]
        assert "V-MEM-002" in codes

    def test_arena_over_l2_budget(self):
        compiled, soc, cfg = _compile_cell("resnet", "digital")
        codes = [d.code for d in check_memory_plan(compiled, l2_bytes=1)]
        assert "V-MEM-004" in codes

    def test_depthfirst_slab_too_small(self):
        precision, soc_kwargs, cfg = CONFIGS["digital"]
        cfg = dataclasses.replace(cfg, depthfirst="on")
        graph = MLPERF_TINY["mobilenet"](precision=precision)
        soc = get_platform("diana", **soc_kwargs)
        compiled = compile_model(graph, soc, cfg)
        assert compiled.depthfirst_chains, "expected a fused chain"
        ch = compiled.depthfirst_chains[0]
        interior = compiled.steps[ch.start].output_name
        compiled.memory_plan.sizes[interior] //= 2
        codes = [d.code for d in check_memory_plan(compiled)]
        assert "V-MEM-006" in codes


# ---------------------------------------------------------------------------
# compiled-plan / tiling checker
# ---------------------------------------------------------------------------

class TestPlanChecks:
    def test_clean_plan_passes(self):
        compiled, soc, cfg = _compile_cell("resnet", "digital")
        assert check_compiled_plan(
            compiled, params=soc.params,
            accelerators=list(soc.accelerators)) == []

    def test_off_by_one_tile_grid(self):
        compiled, soc, cfg = _compile_cell("resnet", "digital")
        step = next(s for s in compiled.steps
                    if isinstance(s, AccelStep) and s.spec.kind == "conv2d"
                    and s.spec.strides == (1, 1))
        step.spec.iy += 1
        step.spec.oy += 1  # keeps LayerSpec.validate() happy
        codes = [d.code for d in check_compiled_plan(compiled)]
        assert "V-PLAN-004" in codes  # tile grid no longer covers output
        assert "V-PLAN-008" in codes  # buffer geometry disagrees too

    def test_l1_budget_violation(self):
        compiled, soc, cfg = _compile_cell("resnet", "digital")
        codes = [d.code for d in check_compiled_plan(
            compiled, params=soc.params, l1_budget=1)]
        assert "V-PLAN-005" in codes

    def test_recorded_weight_tile_disagrees(self):
        compiled, soc, cfg = _compile_cell("resnet", "digital")
        step = next(s for s in compiled.steps
                    if isinstance(s, AccelStep) and s.spec.kind == "conv2d")
        # a copy: tiling solutions are shared through the tiling cache
        step.tiling = dataclasses.replace(
            step.tiling, l1_weight_bytes=step.tiling.l1_weight_bytes + 1)
        codes = [d.code for d in check_compiled_plan(compiled,
                                                     params=soc.params)]
        assert codes == ["V-PLAN-006"]

    def test_weight_tile_exceeds_weight_memory(self):
        compiled, soc, cfg = _compile_cell("resnet", "digital")
        # one byte below layer_10's 36,864-byte weight tile
        params = soc.params.with_overrides(dig_weight_bytes=36863)
        diags = check_compiled_plan(compiled, params=params)
        assert [(d.code, d.location) for d in diags] == [
            ("V-PLAN-007", "step10_dory_layer_10")]

    def test_unknown_accelerator_target(self):
        compiled, soc, cfg = _compile_cell("resnet", "digital")
        codes = [d.code for d in check_compiled_plan(compiled,
                                                     accelerators=[])]
        assert "V-PLAN-009" in codes


# ---------------------------------------------------------------------------
# artifact checker
# ---------------------------------------------------------------------------

def _artifact_dict(model="resnet", config="digital"):
    compiled, soc, cfg = _compile_cell(model, config)
    return artifact_to_dict(compiled, soc, cfg)


class TestArtifactChecks:
    def test_clean_artifact_passes(self, tmp_path):
        compiled, soc, cfg = _compile_cell("resnet", "digital")
        path = str(tmp_path / "m.dna")
        save_artifact(path, compiled, soc, cfg)
        assert check_artifact_file(path, deep=True) == []

    def test_truncated_file(self, tmp_path):
        compiled, soc, cfg = _compile_cell("resnet", "digital")
        path = str(tmp_path / "m.dna")
        save_artifact(path, compiled, soc, cfg)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:len(raw) // 2])
        codes = [d.code for d in check_artifact_file(path)]
        assert codes == ["V-ART-001"]

    def test_bad_magic(self):
        obj = _artifact_dict()
        obj["format"] = "zip"
        codes = [d.code for d in check_artifact_dict(obj)]
        assert codes == ["V-ART-001"]

    def test_unknown_version(self):
        obj = _artifact_dict()
        obj["version"] = 99
        codes = [d.code for d in check_artifact_dict(obj)]
        assert codes == ["V-ART-002"]

    def test_missing_section(self):
        obj = _artifact_dict()
        del obj["memory_plan"]
        codes = [d.code for d in check_artifact_dict(obj)]
        assert "V-ART-003" in codes

    def test_stale_config_fingerprint(self):
        obj = _artifact_dict()
        obj["config_fingerprint"] = "0" * 64
        codes = [d.code for d in check_artifact_dict(obj, deep=False)]
        assert "V-ART-004" in codes

    def test_stale_model_fingerprint(self):
        obj = _artifact_dict()
        obj["fingerprint"] = "0" * 64
        codes = [d.code for d in check_artifact_dict(obj, deep=True)]
        assert "V-ART-005" in codes

    def test_mapping_decision_inconsistent(self):
        obj = _artifact_dict("resnet", "digital")  # analog disabled
        obj["decisions"][0]["target"] = "soc.analog"
        codes = [d.code for d in check_artifact_dict(obj, deep=False)]
        assert "V-ART-006" in codes

    def test_load_artifact_verify_gates_tampered_plan(self, tmp_path):
        compiled, soc, cfg = _compile_cell("resnet", "digital")
        plan = compiled.memory_plan
        lives = plan.lifetimes
        names = sorted(lives)
        a, b = next(
            (x, y) for i, x in enumerate(names) for y in names[i + 1:]
            if lives[x].start <= lives[y].end
            and lives[y].start <= lives[x].end
            and plan.sizes[x] and plan.sizes[y])
        plan.offsets[b] = plan.offsets[a]
        path = str(tmp_path / "tampered.dna")
        save_artifact(path, compiled, soc, cfg)
        load_artifact(path)  # without verify, the overlap loads fine
        with pytest.raises(ArtifactError, match="V-MEM-002"):
            load_artifact(path, verify=True)


# ---------------------------------------------------------------------------
# compiler integration (verify_passes)
# ---------------------------------------------------------------------------

class TestCompilerIntegration:
    def test_verify_passes_clean_compile(self):
        precision, soc_kwargs, cfg = CONFIGS["mixed"]
        checked = dataclasses.replace(cfg, verify_passes=True)
        graph = MLPERF_TINY["resnet"](precision=precision)
        soc = get_platform("diana", **soc_kwargs)
        a = compile_model(graph, soc, cfg)
        graph2 = MLPERF_TINY["resnet"](precision=precision)
        b = compile_model(graph2, soc, checked)
        assert a.fingerprint() == b.fingerprint()

    def test_verify_passes_is_non_semantic(self):
        _, _, cfg = CONFIGS["digital"]
        checked = dataclasses.replace(cfg, verify_passes=True)
        assert cfg.fingerprint() == checked.fingerprint()

    def test_broken_graph_names_transform_stage(self):
        precision, soc_kwargs, cfg = CONFIGS["digital"]
        checked = dataclasses.replace(cfg, verify_passes=True)
        graph = MLPERF_TINY["resnet"](precision=precision)
        shift = next(n for n in graph.topo_order()
                     if isinstance(n, Call) and n.op == "right_shift")
        shift.inputs[1].value.data[...] = 40
        with pytest.raises(VerificationError, match="transform:"):
            compile_model(graph, get_platform("diana", **soc_kwargs), checked)


# ---------------------------------------------------------------------------
# clean-pass grid + JSON report
# ---------------------------------------------------------------------------

class TestCleanGrid:
    def test_full_zoo_table1_grid(self):
        results = verify_grid()
        assert results, "grid produced no targets"
        assert all(r.ok for r in results)
        # the paper's MobileNet-on-plain-TVM cell OoMs: recorded as an
        # INFO skip, not silently dropped and not a failure
        oom = [r for r in results if "V-RUN-001" in r.codes()]
        assert [r.target for r in oom] == ["mobilenet/cpu-tvm"]
        # every non-OoM cell is verified twice: fresh and packed .dna
        fresh = [r for r in results if not r.target.endswith(".dna")]
        packed = [r for r in results if r.target.endswith(".dna")]
        assert len(packed) == len(fresh) - len(oom)

    def test_grid_report_schema(self):
        results = verify_grid(models=["dscnn"], configs=["digital"],
                              artifacts=False)
        report = grid_report(results)
        assert report["schema"] == CHECK_SCHEMA == "repro-check/1"
        assert report["ok"] is True
        assert [t["target"] for t in report["targets"]] == ["dscnn/digital"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCheckCli:
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "repro.cli", *args],
                              capture_output=True, text=True, timeout=600)

    def test_single_target_pass(self):
        proc = self.run_cli("check", "resnet", "--config", "digital")
        assert proc.returncode == 0, proc.stderr
        assert "PASS" in proc.stdout

    def test_missing_target_is_usage_error(self):
        proc = self.run_cli("check")
        assert proc.returncode == 2

    def test_json_round_trip(self):
        proc = self.run_cli("check", "--grid", "--models", "resnet",
                            "--json")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["schema"] == "repro-check/1"
        assert report["ok"] is True
        assert len(report["targets"]) == 2 * len(CONFIGS)  # fresh + .dna
        for t in report["targets"]:
            assert set(t) >= {"target", "ok", "diagnostics"}

    def test_artifact_target(self, tmp_path):
        compiled, soc, cfg = _compile_cell("dscnn", "digital")
        path = str(tmp_path / "dscnn.dna")
        save_artifact(path, compiled, soc, cfg)
        proc = self.run_cli("check", path)
        assert proc.returncode == 0, proc.stderr
        assert "PASS" in proc.stdout


# ---------------------------------------------------------------------------
# documentation stays in sync with the code catalog
# ---------------------------------------------------------------------------

class TestDocs:
    def test_every_code_documented(self):
        import pathlib
        doc = (pathlib.Path(__file__).resolve().parent.parent
               / "docs" / "CHECKS.md").read_text()
        missing = [code for code in CODES if code not in doc]
        assert not missing, f"docs/CHECKS.md missing codes: {missing}"
