"""Mapping engine tests: strategies, objectives, DP/beam search, CLI.

Covers the acceptance contract of the cost-driven mapping refactor:

* every strategy assigns each composite either ``"cpu"`` or a
  rule-accepted target (property, all strategies x configs),
* ``"rules"`` reproduces the seed weight-dtype selector bit-exactly on
  all four Table I resnet configurations,
* ``"dp"`` achieves modeled total latency <= ``"rules"`` on every
  MLPerf Tiny model,
* cost-driven compiles stay bit-exact against the reference
  interpreter,
* the satellite fixes: recorded spec-extraction failure reasons and
  dynamic decision-table column widths.
"""

import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro import HTVM, compile_model
from repro.core.cache import TilingCache
from repro.eval.harness import CONFIGS, deploy, format_table1, run_table1
from repro.eval.mapping_dse import pareto_sweep, sweep_model
from repro.frontend.modelzoo import MLPERF_TINY, resnet8
from repro.mapping import (
    DispatchDecision, analyze_mapping, assign_targets, dispatch_summary,
    enumerate_sites, layer_spec_or_reason, make_objective, plan_mapping,
    prepare_graph,
)
from repro.mapping.engine import _is_linear, _site_edges
from repro.runtime import Executor, random_inputs, run_reference
from repro.soc import get_platform

ROOT = pathlib.Path(__file__).resolve().parent.parent
STRATEGIES = ("rules", "greedy", "dp")
ACCEL_CONFIGS = ("digital", "analog", "mixed")


def _setup(config):
    precision, soc_kwargs, cfg = CONFIGS[config]
    return precision, get_platform("diana", **soc_kwargs), cfg


def _partitioned(model, config):
    precision, soc, cfg = _setup(config)
    return prepare_graph(MLPERF_TINY[model](precision=precision)), soc, cfg


# the seed dispatcher's preference policy, replicated verbatim from the
# pre-refactor repro.dispatch.selector so the equivalence test cannot
# drift with the implementation under test
def _seed_prefer(spec, accepted):
    if spec.kind != "add":
        if spec.weight_dtype == "ternary" and "soc.analog" in accepted:
            return "soc.analog"
        if spec.weight_dtype == "int8" and "soc.digital" in accepted:
            return "soc.digital"
    for name in ("soc.digital", "soc.analog"):
        if name in accepted:
            return name
    return accepted[0]


class TestRulesMatchSeedSelector:
    @pytest.mark.parametrize("config", list(CONFIGS))
    @pytest.mark.parametrize("model", sorted(MLPERF_TINY))
    def test_all_models_all_table1_configs(self, model, config):
        """`"rules"` targets == the seed selector on every zoo model in
        every Table I configuration (resnet covers the 4 required
        configs; the rest guard the drift gate's blind spots)."""
        graph, soc, cfg = _partitioned(model, config)
        mapped, decisions = plan_mapping(graph, soc, cfg)
        sites = enumerate_sites(graph, soc, cfg, cache=TilingCache())
        expected = []
        for site in sites:
            accepted = site.accepted_targets
            if site.spec is None or not accepted:
                expected.append("cpu")
            else:
                expected.append(_seed_prefer(site.spec, accepted))
        got = [c.target for c in mapped.composites()
               if not c.pattern_name.startswith("cpu.")]
        assert got == expected
        assert [d.target for d in decisions] == expected

    @pytest.mark.parametrize("model", sorted(MLPERF_TINY))
    def test_rules_strategy_is_the_default_path(self, model):
        """Explicit `mapping_strategy="rules"` equals the default compile:
        same targets, same modeled cycles, same outputs."""
        precision, soc, cfg = _setup("mixed")
        graph = MLPERF_TINY[model](precision=precision)
        base = compile_model(graph, soc, cfg)
        explicit = compile_model(
            graph, soc, cfg.with_overrides(mapping_strategy="rules"))
        assert ([getattr(s, "accel_target", "cpu") for s in base.steps]
                == [getattr(s, "accel_target", "cpu") for s in explicit.steps])
        feeds = random_inputs(graph, seed=5)
        ex = Executor(soc, exec_mode="fast")
        r0, r1 = ex.run(base, feeds), ex.run(explicit, feeds)
        assert np.array_equal(r0.output, r1.output)
        assert r0.total_cycles == r1.total_cycles


class TestTargetValidityProperty:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("config", ACCEL_CONFIGS)
    def test_assigned_target_is_cpu_or_accepted(self, strategy, config):
        for model in sorted(MLPERF_TINY):
            graph, soc, cfg = _partitioned(model, config)
            plan = analyze_mapping(graph, soc, cfg, strategy=strategy,
                                   cache=TilingCache())
            for site, target in zip(plan.sites, plan.assignment):
                assert target == "cpu" or target in site.accepted_targets, (
                    f"{model}/{config}/{strategy}: {site.layer_name} "
                    f"-> {target} not in {site.accepted_targets}")

    def test_every_site_has_cpu_candidate(self):
        graph, soc, cfg = _partitioned("dscnn", "analog")
        for site in enumerate_sites(graph, soc, cfg, cache=TilingCache()):
            assert "cpu" in site.candidates
            assert site.candidates["cpu"].feasible
            assert site.candidates["cpu"].latency_cycles > 0


class TestDpBeatsRules:
    @pytest.mark.parametrize("model", sorted(MLPERF_TINY))
    def test_dp_latency_not_worse_on_every_model(self, model):
        """Acceptance: dp modeled latency <= rules on every zoo model."""
        for config in ACCEL_CONFIGS:
            graph, soc, cfg = _partitioned(model, config)
            plan = analyze_mapping(graph, soc, cfg, strategy="dp",
                                   objective=make_objective("latency"))
            assert plan.total_cycles <= plan.baseline_cycles, (
                f"{model}/{config}: dp {plan.total_cycles} > "
                f"rules {plan.baseline_cycles}")

    def test_dp_energy_not_worse(self):
        graph, soc, cfg = _partitioned("resnet", "mixed")
        plan = analyze_mapping(graph, soc, cfg, strategy="dp",
                               objective=make_objective("energy"))
        assert plan.total_energy_pj <= plan.baseline_energy_pj

    def test_dp_improves_mixed_resnet(self):
        """The heart of the feature: on the mixed deployment the global
        search finds a strictly better-modeled mapping than the rules."""
        graph, soc, cfg = _partitioned("resnet", "mixed")
        plan = analyze_mapping(graph, soc, cfg, strategy="dp")
        assert plan.total_cycles < plan.baseline_cycles
        assert plan.assignment != plan.baseline_assignment

    def test_resnet_branches_dscnn_chains(self):
        """The search picks exact DP for chains, beam for residual nets."""
        chain, soc, cfg = _partitioned("dscnn", "mixed")
        plan = analyze_mapping(chain, soc, cfg, strategy="dp")
        assert _is_linear(plan.sites, _site_edges(plan.edges))
        branchy, soc, cfg = _partitioned("resnet", "mixed")
        plan = analyze_mapping(branchy, soc, cfg, strategy="dp")
        assert not _is_linear(plan.sites, _site_edges(plan.edges))


class TestCostDrivenCompile:
    @pytest.mark.parametrize("strategy", ("greedy", "dp"))
    def test_compiled_dp_model_is_bit_exact(self, strategy):
        precision, soc, cfg = _setup("mixed")
        graph = resnet8(precision=precision)
        model = compile_model(
            graph, soc, cfg.with_overrides(mapping_strategy=strategy))
        feeds = random_inputs(graph, seed=7)
        result = Executor(soc, exec_mode="fast").run(model, feeds)
        assert np.array_equal(
            np.asarray(run_reference(model.graph, feeds)),
            np.asarray(result.output))

    def test_dp_decisions_carry_costs(self):
        precision, soc, cfg = _setup("mixed")
        model = compile_model(
            resnet8(precision=precision), soc,
            cfg.with_overrides(mapping_strategy="dp"))
        assert model.dispatch_decisions
        for d in model.dispatch_decisions:
            assert d.costs, f"{d.layer_name} has no candidate costs"
            assert d.chosen_cost is not None

    def test_deploy_mapping_override_and_table_column(self):
        r = deploy("dscnn", "mixed", verify=True, exec_mode="fast",
                   mapping="dp")
        assert r.mapping == "dp"
        assert r.verified
        table = format_table1([r])
        assert "mapping" in table and "dp" in table
        # default path keeps the historical rendering
        r0 = deploy("dscnn", "mixed", verify=False, exec_mode="fast")
        assert "mapping" not in format_table1([r0])

    def test_run_table1_mapping_override(self):
        results = run_table1(models=["dscnn"], configs=["mixed"],
                             exec_mode="fast", mapping="dp")
        assert [r.mapping for r in results] == ["dp"]


class TestObjectivesAndPareto:
    def test_objective_validation(self):
        from repro.errors import DispatchError
        with pytest.raises(DispatchError):
            make_objective("throughput")
        with pytest.raises(DispatchError):
            make_objective("weighted", weight=1.5)
        assert make_objective("latency").weight == 0.0
        assert make_objective("energy").weight == 1.0

    def test_unknown_strategy_raises(self):
        from repro.errors import DispatchError
        graph, soc, cfg = _partitioned("dscnn", "mixed")
        with pytest.raises(DispatchError):
            analyze_mapping(graph, soc, cfg, strategy="simulated-annealing")
        with pytest.raises(DispatchError):
            plan_mapping(graph, soc,
                         cfg.with_overrides(mapping_strategy="x"))

    def test_sweep_model_fronts(self):
        points = sweep_model("toyadmos", config="mixed",
                             weights=[0.0, 0.5, 1.0], cache=TilingCache())
        assert any(p.is_rules for p in points)
        assert any(p.pareto for p in points)
        front = [p for p in points if p.pareto]
        # the front is actually non-dominated
        for p in front:
            assert not any(q.cycles < p.cycles and q.energy_pj < p.energy_pj
                           for q in points)

    def test_pareto_sweep_artifact_roundtrip(self, tmp_path):
        from repro.eval.mapping_dse import artifact_record
        points = pareto_sweep(models=["dscnn"], weights=[0.0, 1.0],
                              cache=TilingCache())
        record = artifact_record(points)
        text = json.dumps(record)
        back = json.loads(text)
        assert back["models"]["dscnn"]
        assert any(p["rules"] for p in back["models"]["dscnn"])

    def test_committed_mapping_dse_reproduces(self):
        """The exact drift gate on MAPPING_DSE.json: the full-zoo
        weight sweep (dp mappings plus the rules baseline of every
        model) must re-derive the committed file."""
        from repro.eval.mapping_dse import artifact_record
        committed = json.loads((ROOT / "MAPPING_DSE.json").read_text())
        fresh = artifact_record(pareto_sweep(cache=TilingCache()))
        assert json.loads(json.dumps(fresh)) == committed


class TestSatellites:
    def test_spec_failure_reason_recorded(self):
        """layer_spec_or_reason keeps the UnsupportedError message."""
        from repro.ir.builder import GraphBuilder
        from repro.patterns import default_specs, partition

        b = GraphBuilder("weird")
        x = b.input("x", (1, 4, 8, 8), "int8")
        # a grouped (non-depthwise) conv has no DORY layer spec
        y = b.conv2d_requant(x, out_channels=8, kernel=3, padding=1,
                             groups=2)
        pg = partition(b.finish(y), default_specs())
        comps = [c for c in pg.composites()
                 if not c.pattern_name.startswith("cpu.")]
        if not comps:  # the pattern library may keep it on the CPU
            pytest.skip("grouped conv not pattern-matched")
        spec, reason = layer_spec_or_reason(comps[0], 0)
        assert spec is None
        assert "grouped" in reason

    def test_cpu_fallback_reason_in_decisions(self):
        _, soc, cfg = _setup("analog")
        graph, _, _ = _partitioned("dscnn", "analog")
        _, decisions = assign_targets(graph, soc)
        cpu = [d for d in decisions if d.target == "cpu"]
        assert cpu
        for d in cpu:
            assert d.fallback_reason  # never a silent fallback
        offloaded = [d for d in decisions if d.target != "cpu"]
        assert all(d.fallback_reason == "" for d in offloaded)

    def test_summary_dynamic_widths(self):
        """Long layer names must not break the table alignment."""
        long_name = "a_very_long_layer_name_that_overflows_36_columns_easily"
        decisions = [
            DispatchDecision(layer_name=long_name, pattern="htvm.qconv2d",
                             target="soc.digital"),
            DispatchDecision(layer_name="short", pattern="htvm.qadd",
                             target="cpu", spec_error="no anchor"),
        ]
        text = dispatch_summary(decisions)
        lines = text.splitlines()
        header = lines[0]
        assert header.index("pattern") > len(long_name)
        # every row's columns start at the same offsets
        for line in lines[1:]:
            assert line.startswith(("a_very", "short"))
            assert line[header.index("pattern") - 1] == " "
        assert "no anchor" in text

    def test_summary_cost_column_only_when_costed(self):
        graph, soc, cfg = _partitioned("resnet", "mixed")
        _, rules_decisions = assign_targets(graph, soc)
        assert "cost" not in dispatch_summary(rules_decisions)
        plan = analyze_mapping(graph, soc, cfg, strategy="dp")
        assert "cost" in dispatch_summary(plan.decisions)


class TestCli:
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "repro.cli", *args],
                              capture_output=True, text=True, timeout=300)

    def test_map_decision_table(self):
        proc = self.run_cli("map", "resnet", "--config", "mixed",
                            "--mapping", "dp")
        assert proc.returncode == 0, proc.stderr
        assert "strategy=dp" in proc.stdout
        assert "rules baseline" in proc.stdout

    def test_map_pareto_writes_artifact(self, tmp_path):
        out = tmp_path / "dse.json"
        proc = self.run_cli("map", "--pareto", "--models", "dscnn",
                            "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        record = json.loads(out.read_text())
        assert record["models"]["dscnn"]

    def test_run_with_mapping(self):
        proc = self.run_cli("run", "dscnn", "--config", "mixed",
                            "--mapping", "dp", "--exec-mode", "fast")
        assert proc.returncode == 0, proc.stderr
        assert "bit-exact vs reference: True" in proc.stdout

    def test_sweep_subcommand(self):
        proc = self.run_cli("sweep", "l1_bytes", "262144", "65536",
                            "--model", "dscnn", "--config", "digital",
                            "--mapping", "dp")
        assert proc.returncode == 0, proc.stderr
        assert "l1_bytes" in proc.stdout
