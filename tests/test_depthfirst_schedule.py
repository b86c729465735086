"""Executable depth-first schedules: planning, compile, execute, serve.

Covers the promotion of depth-first from analysis to a compilation
product: chain discovery over compiled steps, budget-driven patch-grid
planning, the patch-wise runtime path of fused chains (bit-exact vs.
layer-by-layer on the whole zoo x Table I grid), recompute-priced
cycles, artifact round-trips, and the out-of-memory rescue of
``depthfirst="auto"``. Also holds the brute-force halo oracle — the
regression test for the stride-2 last-row patch sizing bug.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CompilerConfig, compile_model
from repro.core.program import AccelStep
from repro.errors import OutOfMemoryError
from repro.eval.depthfirst import depthfirst_report, format_depthfirst_reports
from repro.eval.harness import CONFIGS, deploy
from repro.extensions.depthfirst import (
    CHAIN_KINDS, _backward_ranges, _links, analyze_depth_first,
    chain_runs_from_steps, chain_savings, layer_by_layer_span_bytes,
    plan_chain_grid, plan_depthfirst_steps,
)
from repro.frontend.modelzoo import MLPERF_TINY
from repro.runtime import EXEC_MODES, Executor, random_inputs, run_reference
from repro.runtime.accounting import account_model
from repro.serve import load_artifact, save_artifact
from repro.soc import DEFAULT_PARAMS, get_platform

from helpers import build_small_cnn
from test_depthfirst_exec import build_chain


def _compile_pair(model, config, depthfirst="on", l1_budget=16 * 1024):
    precision, soc_kwargs, cfg = CONFIGS[config]
    cfg = cfg.with_overrides(l1_budget=l1_budget, check_l2=False)
    graph = MLPERF_TINY[model](precision=precision)
    soc = get_platform("diana", **soc_kwargs)
    fused = compile_model(graph, soc, cfg.with_overrides(
        depthfirst=depthfirst))
    base = compile_model(graph, soc, cfg)
    return graph, soc, base, fused


class TestHaloOracle:
    """Brute-force oracle for the per-layer patch sizing.

    Regression for the stride-2 last-row bug: the old code sized patch
    rows from the *first* patch (``(0, ceil(oy/p))``), but boundary
    patches of strided layers whose output patch does not divide the
    output height need one more halo row. The oracle derives every
    layer's worst-case rows/cols by walking individual output rows —
    no interval arithmetic shared with the implementation.
    """

    @staticmethod
    def _oracle_rows_cols(chain, grid):
        py, px = grid
        last = chain[-1]
        rows = [0] * len(chain)
        cols = [0] * len(chain)
        for iy in range(py):
            for ix in range(px):
                y = set(range((last.oy * iy) // py,
                              (last.oy * (iy + 1)) // py))
                x = set(range((last.ox * ix) // px,
                              (last.ox * (ix + 1)) // px))
                if not y or not x:
                    continue
                for j in range(len(chain) - 1, -1, -1):
                    spec = chain[j]
                    rows[j] = max(rows[j], len(y))
                    cols[j] = max(cols[j], len(x))
                    if j == 0:
                        break
                    ny, nx = set(), set()
                    for r in y:
                        lo = max(0, r * spec.strides[0] - spec.padding[0])
                        hi = min(spec.iy, r * spec.strides[0]
                                 - spec.padding[0] + spec.fy)
                        ny.update(range(lo, hi))
                    for c in x:
                        lo = max(0, c * spec.strides[1] - spec.padding[1])
                        hi = min(spec.ix, c * spec.strides[1]
                                 - spec.padding[1] + spec.fx)
                        nx.update(range(lo, hi))
                    y, x = ny, nx
        return rows, cols

    def test_stride2_last_row_regression(self):
        """oy=5 split in 2: the second patch needs more input rows than
        the first — the first-patch estimate undersizes the slab."""
        from repro.dory import make_conv_spec
        c0 = make_conv_spec("c0", 4, 8, 11, 11, strides=(2, 2),
                            padding=(1, 1))
        c1 = make_conv_spec("c1", 8, 8, 6, 6, padding=(1, 1))
        assert c1.oy == 6
        plan = analyze_depth_first([c0, c1], (4, 1))
        rows, cols = self._oracle_rows_cols([c0, c1], (4, 1))
        assert plan.per_layer_patch_rows == rows
        assert plan.per_layer_patch_cols == cols
        # the old first-patch estimate is provably short here
        first_patch = _backward_ranges(
            [c0, c1], (0, -(-c1.oy // 4)), (0, c1.ox))
        assert first_patch[0][0][1] - first_patch[0][0][0] < rows[0]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 30), st.integers(1, 3),
           st.integers(1, 5), st.integers(1, 5), st.integers(0, 7))
    def test_property_oracle_over_random_strided_chains(
            self, seed, stages, py, px, dw_mask):
        chain = build_chain(seed, stages, depthwise_mask=dw_mask)
        final = chain[-1]
        grid = (min(py, final.oy), min(px, final.ox))
        plan = analyze_depth_first(chain, grid)
        rows, cols = self._oracle_rows_cols(chain, grid)
        assert plan.per_layer_patch_rows == rows
        assert plan.per_layer_patch_cols == cols
        assert plan.per_layer_patch_bytes == [
            s.out_channels * r * c
            for s, r, c in zip(chain, rows, cols)]


class TestPlanning:
    def test_chain_runs_respect_consumers_and_geometry(self):
        for model in ("resnet", "mobilenet"):
            _, _, base, _ = _compile_pair(model, "digital")
            steps = base.steps
            runs = chain_runs_from_steps(steps, base.output_name)
            assert runs, model
            for run in runs:
                assert len(run) >= 2
                assert run == list(range(run[0], run[-1] + 1))
                for idx in run:
                    assert isinstance(steps[idx], AccelStep)
                for a, b in zip(run, run[1:]):
                    assert _links(steps[a].spec, steps[b].spec)
                    # an interior output feeds its successor and nothing else
                    users = [s for s in steps
                             if steps[a].output_name in s.input_names]
                    assert users == [steps[b]]
            kinds = [[steps[i].spec.kind for i in run] for run in runs]
            if model == "resnet":
                # resnet's residual blocks close through their adds
                assert ["conv2d", "conv2d", "add"] in kinds
            else:
                # mobilenet's stages are plain conv/dwconv runs
                assert all(k in CHAIN_KINDS for ks in kinds for k in ks)

    def test_grid_planner_respects_budget_and_gate(self):
        chain = build_chain(3, 3, input_hw=32, input_c=8)
        plan = plan_chain_grid(chain, budget_bytes=1 << 30, mode="on")
        assert plan is not None
        assert chain_savings(chain, plan) > 0
        assert plan.peak_bytes < layer_by_layer_span_bytes(chain)
        # an impossible budget: "auto" refuses, "on" degrades gracefully
        assert plan_chain_grid(chain, budget_bytes=1, mode="auto") is None

    def test_auto_only_engages_under_pressure(self):
        graph, soc, base, _ = _compile_pair("mobilenet", "digital")
        chains = plan_depthfirst_steps(
            base.steps, base.output_name, budget_bytes=1 << 30,
            mode="auto", arena_bytes=base.memory_plan.arena_bytes)
        assert chains == []  # plenty of room: no rescue needed
        chains = plan_depthfirst_steps(
            base.steps, base.output_name,
            budget_bytes=base.memory_plan.arena_bytes - 1, mode="auto",
            arena_bytes=base.memory_plan.arena_bytes)
        assert chains  # pressure: chains adopted

    def test_on_mode_shrinks_the_planned_arena(self):
        for model in ("resnet", "mobilenet"):
            _, _, base, fused = _compile_pair(model, "digital")
            assert fused.depthfirst_chains
            assert (fused.memory_plan.arena_bytes
                    < base.memory_plan.arena_bytes)
            for c in fused.depthfirst_chains:
                assert c.length >= 2
                assert c.recompute_factor >= 1.0
                interiors = [s.output_name
                             for s in fused.steps[c.start:c.stop - 1]]
                for name, slab in zip(interiors, c.per_layer_patch_bytes):
                    assert fused.memory_plan.sizes[name] <= slab


class TestExecution:
    @pytest.mark.parametrize("model", sorted(MLPERF_TINY))
    @pytest.mark.parametrize("config", list(CONFIGS))
    def test_zoo_grid_bit_exact(self, model, config):
        """Acceptance gate: depth-first equals layer-by-layer on every
        zoo model at every Table I configuration."""
        precision, soc_kwargs, cfg = CONFIGS[config]
        graph = MLPERF_TINY[model](precision=precision)
        soc = get_platform("diana", **soc_kwargs)
        cfg = cfg.with_overrides(check_l2=False, depthfirst="on")
        fused = compile_model(graph, soc, cfg)
        feeds = random_inputs(graph, seed=7)
        try:
            df = Executor(soc, exec_mode="fast").run(fused, feeds)
        except OutOfMemoryError:
            pytest.skip(f"{model}/{config} does not fit L2 (Table I OoM)")
        assert np.array_equal(
            df.output, np.asarray(run_reference(fused.graph, feeds)))

    def test_cycles_price_the_recompute(self):
        _, soc, base, fused = _compile_pair("resnet", "digital")
        feeds = random_inputs(base.graph, seed=2)
        fast = Executor(soc, exec_mode="fast").run(base, feeds)
        df = Executor(soc, exec_mode="fast").run(fused, feeds)
        assert df.total_cycles > fast.total_cycles
        # ...but bounded by the worst chain's recompute factor
        worst = max(c.recompute_factor for c in fused.depthfirst_chains)
        assert df.total_cycles < fast.total_cycles * worst * 1.05

    def test_depthfirst_mode_without_chains_equals_fast(self):
        # depthfirst="on" over a model with nothing to fuse is the
        # layer-by-layer program; there is no "depthfirst" exec mode
        _, soc, base, fused = _compile_pair("toyadmos", "digital")
        assert not fused.depthfirst_chains
        feeds = random_inputs(base.graph, seed=1)
        df = Executor(soc, exec_mode="fast").run(fused, feeds)
        fast = Executor(soc, exec_mode="fast").run(base, feeds)
        assert np.array_equal(df.output, fast.output)
        assert df.total_cycles == fast.total_cycles
        assert df.l2_peak_bytes == fast.l2_peak_bytes

    def test_executed_l2_peak_shrinks(self):
        for model in ("resnet", "mobilenet"):
            _, soc, base, fused = _compile_pair(model, "digital")
            feeds = random_inputs(base.graph, seed=3)
            fast = Executor(soc, exec_mode="fast").run(base, feeds)
            df = Executor(soc, exec_mode="fast").run(fused, feeds)
            assert df.l2_peak_bytes < fast.l2_peak_bytes

    def test_batched_depthfirst_matches_per_sample(self):
        _, soc, _, fused = _compile_pair("resnet", "digital")
        ex = Executor(soc, exec_mode="fast")
        feeds1 = random_inputs(fused.graph, seed=4)
        single = ex.run(fused, feeds1)
        batched = ex.run_batch(fused, {
            name: np.concatenate([arr, arr], axis=0)
            for name, arr in feeds1.items()})
        assert batched.batch == 2
        assert np.array_equal(batched.outputs[0:1], single.output)
        assert np.array_equal(batched.outputs[1:2], single.output)
        assert batched.perf.total_cycles == single.total_cycles

    def test_residual_chain_on_small_cnn(self, digital_soc):
        """conv->conv->add fusion on a non-zoo graph, via deploy-level
        compile: the skip operand is read patch-wise."""
        graph = build_small_cnn()
        cfg = CompilerConfig(depthfirst="on", check_l2=False)
        fused = compile_model(graph, digital_soc, cfg)
        feeds = random_inputs(graph, seed=9)
        df = Executor(digital_soc, exec_mode="fast").run(fused, feeds)
        assert np.array_equal(
            df.output, np.asarray(run_reference(fused.graph, feeds)))


class TestOomRescue:
    def test_auto_rescues_mobilenet_at_tight_l2(self):
        params = dataclasses.replace(DEFAULT_PARAMS, l2_bytes=320 * 1024)
        soc = get_platform("diana", params=params, enable_analog=False)
        graph = MLPERF_TINY["mobilenet"](precision="int8")
        with pytest.raises(OutOfMemoryError):
            compile_model(graph, soc, CompilerConfig())
        fused = compile_model(graph, soc, CompilerConfig(depthfirst="auto"))
        assert fused.depthfirst_chains
        assert fused.l2_required_bytes <= params.l2_bytes
        feeds = random_inputs(graph, seed=5)
        df = Executor(soc, exec_mode="fast").run(fused, feeds)
        assert np.array_equal(
            df.output, np.asarray(run_reference(fused.graph, feeds)))
        assert df.l2_peak_bytes <= params.l2_bytes

    def test_rescued_model_runs_in_every_exec_mode(self, tmp_path):
        """Chains are part of the program: a rescued deployment must
        execute under its budget in every mode (a served artifact
        defaults to the fast executor)."""
        params = dataclasses.replace(DEFAULT_PARAMS, l2_bytes=320 * 1024)
        soc = get_platform("diana", params=params, enable_analog=False)
        graph = MLPERF_TINY["mobilenet"](precision="int8")
        fused = compile_model(graph, soc, CompilerConfig(depthfirst="auto"))
        feeds = random_inputs(graph, seed=8)
        golden = np.asarray(run_reference(fused.graph, feeds))
        runs = {mode: Executor(soc, exec_mode=mode,
                               native_cache_dir=str(tmp_path)).run(
                                   fused, feeds)
                for mode in EXEC_MODES}
        for mode, res in runs.items():
            assert np.array_equal(res.output, golden), mode
            assert res.l2_peak_bytes <= params.l2_bytes, mode
            assert res.total_cycles == runs["fast"].total_cycles, mode

    def test_report_handles_base_oom(self):
        rep = depthfirst_report(
            "mobilenet", "digital", mode="auto",
            params=dataclasses.replace(DEFAULT_PARAMS,
                                       l2_bytes=320 * 1024))
        assert rep.bit_exact is True
        assert rep.chains
        assert rep.l2_peak_df < rep.l2_peak_base
        # the layer-by-layer deployment never ran: no overhead to claim
        assert rep.cycle_overhead is None
        assert rep.chain_cycles_base == [None] * len(rep.chains)
        model_table, chain_table = format_depthfirst_reports(
            [rep]).split("\n\n")
        row = model_table.splitlines()[1].split()
        assert row[-2:] == ["-", "True"]  # "cycles x", "exact"
        chain_rows = chain_table.splitlines()[1:]
        assert len(chain_rows) == len(rep.chains)
        assert all(r.split()[-1] == "-" for r in chain_rows)


class TestThreading:
    def test_artifact_roundtrip_preserves_chains(self, tmp_path):
        graph, soc, _, fused = _compile_pair("resnet", "digital")
        cfg = CONFIGS["digital"][2].with_overrides(
            l1_budget=16 * 1024, check_l2=False, depthfirst="on")
        path = str(tmp_path / "r.dna")
        save_artifact(path, fused, soc, cfg)
        art = load_artifact(path)
        assert art.fingerprint == fused.fingerprint()
        got = [(c.start, c.length, tuple(c.patch_grid),
                c.per_layer_patch_bytes)
               for c in art.model.depthfirst_chains]
        want = [(c.start, c.length, tuple(c.patch_grid),
                 c.per_layer_patch_bytes)
                for c in fused.depthfirst_chains]
        assert got == want
        feeds = random_inputs(graph, seed=6)
        a = Executor(soc, exec_mode="fast").run(fused, feeds)
        b = Executor(art.soc, exec_mode="fast").run(art.model, feeds)
        assert np.array_equal(a.output, b.output)
        assert a.total_cycles == b.total_cycles
        assert a.l2_peak_bytes == b.l2_peak_bytes

    def test_fingerprint_distinguishes_fused_deployments(self):
        _, _, base, fused = _compile_pair("resnet", "digital")
        assert base.fingerprint() != fused.fingerprint()

    def test_config_fingerprint_covers_depthfirst(self):
        cfg = CompilerConfig()
        assert cfg.fingerprint() != \
            cfg.with_overrides(depthfirst="on").fingerprint()

    def test_deploy_depthfirst_override(self):
        r = deploy("resnet", "digital", exec_mode="fast",
                   depthfirst="on")
        assert r.verified is True
        assert r.compiled.depthfirst_chains
        base = deploy("resnet", "digital", exec_mode="fast")
        assert r.latency_ms > base.latency_ms  # recompute is priced

    @pytest.mark.parametrize("model", ["resnet", "mobilenet"])
    @pytest.mark.parametrize("config", ["digital", "mixed"])
    def test_report_prices_adopted_chains(self, model, config):
        """``repro df`` reports exactly the compiler's chains, with the
        cycles the accounting pass charged over each chain's steps."""
        precision, soc_kwargs, cfg = CONFIGS[config]
        graph = MLPERF_TINY[model](precision=precision)
        soc = get_platform("diana", **soc_kwargs)
        cfg = cfg.with_overrides(check_l2=False)
        base = compile_model(graph, soc, cfg)
        fused = compile_model(graph, soc, cfg.with_overrides(depthfirst="on"))
        rep = depthfirst_report(model, config, mode="on")
        assert rep.chains == fused.depthfirst_chains
        assert [s.name for s in base.steps] == [s.name for s in fused.steps]
        acct_df, acct_base = account_model(fused, soc), account_model(base, soc)
        for c, df, lbl in zip(rep.chains, rep.chain_cycles_df,
                              rep.chain_cycles_base):
            span = slice(c.start, c.stop)
            assert df == sum(r.total_cycles for r in acct_df.records[span])
            assert lbl == sum(r.total_cycles
                              for r in acct_base.records[span])
            assert df >= lbl
        chain_rows = format_depthfirst_reports([rep]).split("\n\n")
        rows = chain_rows[1].splitlines()[1:] if rep.chains else []
        assert [r.split()[-2:] for r in rows] == [
            [f"{df:.0f}", f"{lbl:.0f}"]
            for df, lbl in zip(rep.chain_cycles_df, rep.chain_cycles_base)]
