"""Tiling-cache + parallel-evaluation tests (see docs/COSTMODEL.md)."""

import numpy as np
import pytest

from repro.core import HTVM, TilingCache, compile_model
from repro.core.cache import heuristics_key, spec_key, tiling_key
from repro.dory import (
    DoryTiler, Heuristic, digital_heuristics, make_conv_spec, no_heuristics,
)
from repro.errors import TilingError
from repro.eval import run_table1
from repro.frontend.modelzoo import resnet8
from repro.soc import DEFAULT_PARAMS, get_platform


@pytest.fixture
def digital_soc():
    return get_platform("diana", enable_analog=False)


class TestCacheCore:
    def test_hit_on_identical_recompile(self, digital_soc):
        cache = TilingCache()
        graph = resnet8(precision="int8")
        m1 = compile_model(graph, digital_soc, HTVM, cache=cache)
        cold = cache.stats()
        assert cold["misses"] > 0

        m2 = compile_model(graph, digital_soc, HTVM, cache=cache)
        warm = cache.stats()
        # a warm compile performs zero DoryTiler.solve searches
        assert warm["misses"] == cold["misses"]
        assert warm["hits"] > cold["hits"]

        # and the compiled programs agree step for step
        for s1, s2 in zip(m1.steps, m2.steps):
            assert s1.name == s2.name
            if hasattr(s1, "tiling"):
                assert s1.tiling.cfg == s2.tiling.cfg
                assert s1.tiling.l1_total_bytes == s2.tiling.l1_total_bytes

    def test_miss_on_changed_l1_budget(self, digital_soc):
        cache = TilingCache()
        graph = resnet8(precision="int8")
        compile_model(graph, digital_soc, HTVM, cache=cache)
        baseline = cache.stats()["misses"]
        compile_model(graph, digital_soc,
                      HTVM.with_overrides(l1_budget=128 * 1024), cache=cache)
        assert cache.stats()["misses"] > baseline

    def test_miss_on_changed_heuristics(self, digital_soc):
        cache = TilingCache()
        graph = resnet8(precision="int8")
        compile_model(graph, digital_soc, HTVM, cache=cache)
        baseline = cache.stats()["misses"]
        compile_model(graph, digital_soc,
                      HTVM.with_overrides(heuristics="none"), cache=cache)
        assert cache.stats()["misses"] > baseline

    def test_solutions_identical_with_and_without_cache(self):
        spec = make_conv_spec("c", 64, 128, 32, 32, padding=(1, 1))
        cache = TilingCache()
        for budget in (256 * 1024, 32 * 1024, 8 * 1024):
            tiler = DoryTiler("soc.digital", DEFAULT_PARAMS,
                              digital_heuristics(), l1_budget=budget)
            direct = tiler.solve(spec)
            miss = cache.solve(tiler, spec)
            hit = cache.solve(tiler, spec)
            assert direct.cfg == miss.cfg == hit.cfg
            assert direct.objective == hit.objective
            assert direct.l1_total_bytes == hit.l1_total_bytes
            assert hit.spec is spec  # caller's spec, payloads intact

    def test_infeasibility_cached(self):
        spec = make_conv_spec("c", 64, 64, 32, 32, padding=(1, 1))
        cache = TilingCache()
        tiler = DoryTiler("soc.digital", DEFAULT_PARAMS,
                          digital_heuristics(), l1_budget=64)
        with pytest.raises(TilingError):
            cache.solve(tiler, spec)
        with pytest.raises(TilingError):
            cache.solve(tiler, spec)
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_key_ignores_payload_and_name(self):
        a = make_conv_spec("a", 16, 32, 16, 16, padding=(1, 1))
        b = make_conv_spec("b", 16, 32, 16, 16, padding=(1, 1))
        assert spec_key(a) == spec_key(b)
        assert heuristics_key(no_heuristics()) == ()
        t1 = DoryTiler("soc.digital", DEFAULT_PARAMS, digital_heuristics())
        t2 = DoryTiler("soc.digital", DEFAULT_PARAMS, digital_heuristics(),
                       l1_budget=8 * 1024)
        assert tiling_key(t1, a) != tiling_key(t2, a)

    def test_key_distinguishes_heuristic_functions(self):
        """Same name and weight, different scoring function: the two
        tilers pick different tiles, and one shared cache must not hand
        the second one the first one's answer."""
        spec = make_conv_spec("c", 16, 16, 32, 32, padding=(1, 1))

        def prefer_k4(spec, cfg):
            return np.where(cfg.k_t == 4, 1.0, 0.0)

        def prefer_k2(spec, cfg):
            return np.where(cfg.k_t == 2, 1.0, 0.0)

        def tiler(fn):
            return DoryTiler("soc.digital", DEFAULT_PARAMS,
                             [Heuristic("H", 0.25, fn)], l1_budget=16 * 1024)

        fns = (prefer_k4, prefer_k2)
        fresh = [tiler(fn).solve(spec).cfg.k_t for fn in fns]
        assert fresh == [4, 2]
        cache = TilingCache()
        assert [cache.solve(tiler(fn), spec).cfg.k_t for fn in fns] == fresh
        assert cache.stats()["misses"] == 2


class TestParallelEvaluation:
    MODELS = ["dscnn", "resnet"]
    CONFIGS = ["digital", "mixed"]

    def test_run_table1_jobs_matches_serial(self):
        serial = run_table1(self.MODELS, self.CONFIGS, verify=False)
        parallel = run_table1(self.MODELS, self.CONFIGS, verify=False,
                              jobs=4)
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel):
            assert (a.model, a.config) == (b.model, b.config)
            assert a.oom == b.oom
            assert a.latency_ms == b.latency_ms
            assert a.peak_ms == b.peak_ms
            assert a.size_kb == b.size_kb

    def test_fig4_sweep_jobs_matches_serial(self):
        from repro.eval import fig4
        from repro.frontend.modelzoo import fig4_layers
        layers = fig4_layers()[:2]
        budgets = [64 * 1024, 16 * 1024]
        serial = fig4.sweep(layers=layers, budgets=budgets)
        parallel = fig4.sweep(layers=layers, budgets=budgets, jobs=4)
        assert [(p.layer, p.strategy, p.budget_bytes, p.cycles, p.tile)
                for p in serial] == \
               [(p.layer, p.strategy, p.budget_bytes, p.cycles, p.tile)
                for p in parallel]

    def test_sweep_param_jobs_matches_serial(self):
        from repro.eval.sweep import sweep_param
        values = [256 * 1024, 64 * 1024]
        serial = sweep_param("l1_bytes", values, model="dscnn")
        parallel = sweep_param("l1_bytes", values, model="dscnn", jobs=2)
        assert [(p.value, p.latency_ms, p.size_kb, p.oom) for p in serial] \
            == [(p.value, p.latency_ms, p.size_kb, p.oom) for p in parallel]
