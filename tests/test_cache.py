"""Tiling-cache + parallel-evaluation tests (see docs/COSTMODEL.md)."""

import pytest

from repro.core import HTVM, TilingCache, compile_model
from repro.core.cache import heuristics_key, spec_key, tiling_key
from repro.dory import (
    DoryTiler, digital_heuristics, make_conv_spec, no_heuristics,
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


class TestPersistence:
    def test_roundtrip_through_tmp_dir(self, tmp_path, digital_soc):
        path = str(tmp_path / "tilings.json")
        graph = resnet8(precision="int8")

        first = TilingCache(path=path)
        compile_model(graph, digital_soc, HTVM, cache=first)
        assert first.stats()["misses"] > 0
        first.flush()  # saves batch + atexit normally; be deterministic

        # a fresh process-equivalent cache loads the file and never searches
        second = TilingCache(path=path)
        assert len(second) == len(first)
        compile_model(graph, digital_soc, HTVM, cache=second)
        assert second.stats()["misses"] == 0
        assert second.stats()["hits"] > 0

    def test_infeasible_roundtrip(self, tmp_path):
        path = str(tmp_path / "tilings.json")
        spec = make_conv_spec("c", 64, 64, 32, 32, padding=(1, 1))
        tiler = DoryTiler("soc.digital", DEFAULT_PARAMS,
                          digital_heuristics(), l1_budget=64)
        first = TilingCache(path=path, autosave_batch=1)
        with pytest.raises(TilingError):
            first.solve(tiler, spec)
        second = TilingCache(path=path)
        with pytest.raises(TilingError):
            second.solve(tiler, spec)
        assert second.stats()["misses"] == 0


class TestCrashAndParallelSafety:
    """Regressions for the batched-persistence bug sweep: concurrent
    flushes must never interleave bytes in the backing file, and a
    corrupt/truncated file must mean a cold start, not a crash."""

    def _solve_some(self, cache, n, offset=0):
        tiler = DoryTiler("soc.digital", DEFAULT_PARAMS,
                          digital_heuristics())
        for i in range(n):
            cache.solve(tiler, make_conv_spec(
                f"c{i}", 8 + offset + i, 16, 16, 16, padding=(1, 1)))

    def test_concurrent_flush_from_two_instances(self, tmp_path):
        """Two cache instances (stand-ins for two processes) hammering
        save() on the same file: every intermediate file state must be
        a complete, loadable snapshot."""
        import threading

        path = str(tmp_path / "tilings.json")
        a = TilingCache(path=path, autosave=False)
        b = TilingCache(path=path, autosave=False)
        self._solve_some(a, 6)
        self._solve_some(b, 6, offset=40)

        stop = threading.Event()
        failures = []

        def hammer(cache):
            while not stop.is_set():
                cache.save()

        def read_back():
            while not stop.is_set():
                probe = TilingCache(autosave=False)
                probe.load(path)  # would warn+cold on a torn file
                if len(probe) not in (0, 6):
                    failures.append(len(probe))

        threads = [threading.Thread(target=hammer, args=(c,))
                   for c in (a, b)] + [threading.Thread(target=read_back)]
        for t in threads:
            t.start()
        import time
        time.sleep(0.4)
        stop.set()
        for t in threads:
            t.join(10)
        assert not failures, f"torn snapshots observed: {failures}"
        final = TilingCache(path=path)
        assert len(final) == 6  # last complete snapshot, never a mix

    def test_corrupt_file_starts_cold(self, tmp_path, capsys):
        path = tmp_path / "tilings.json"
        path.write_text("{ definitely not json")
        cache = TilingCache(path=str(path))
        assert len(cache) == 0
        assert "ignoring unreadable" in capsys.readouterr().err
        # and the cache still works end to end, overwriting the junk
        self._solve_some(cache, 2)
        cache.flush()
        assert len(TilingCache(path=str(path))) == 2

    def test_truncated_file_starts_cold(self, tmp_path):
        path = tmp_path / "tilings.json"
        good = TilingCache(path=str(path), autosave=False)
        self._solve_some(good, 3)
        good.save()
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])  # simulate a crash
        cache = TilingCache(path=str(path))
        assert len(cache) == 0

    def test_alien_json_starts_cold(self, tmp_path):
        path = tmp_path / "tilings.json"
        path.write_text("[1, 2, 3]")
        assert len(TilingCache(path=str(path))) == 0

    def test_atexit_flushes_unsaved_entries(self, tmp_path):
        """A process that exits without an explicit flush still
        persists its entries (the atexit hook)."""
        import subprocess
        import sys

        path = str(tmp_path / "tilings.json")
        code = (
            "from repro.core.cache import TilingCache\n"
            "from repro.dory import DoryTiler, digital_heuristics, "
            "make_conv_spec\n"
            "from repro.soc import DEFAULT_PARAMS\n"
            f"cache = TilingCache(path={path!r}, autosave_batch=1000)\n"
            "tiler = DoryTiler('soc.digital', DEFAULT_PARAMS, "
            "digital_heuristics())\n"
            "cache.solve(tiler, make_conv_spec('c', 8, 16, 16, 16, "
            "padding=(1, 1)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert len(TilingCache(path=path)) == 1


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
