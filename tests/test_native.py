"""Native compiled-kernel backend: build cache, loader, executor,
serving, and verifier integration.

The contract under test is the one docs/NATIVE.md states: ``native``
is an *exact* execution mode — byte-identical outputs and identical
modeled performance counters versus ``fast`` and ``tiled`` — that
degrades to ``fast`` (never to wrong answers) whenever the toolchain
or a cached library is missing, stale, or corrupt.
"""

import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from repro.codegen.build import (
    build_native_library, build_stats, find_c_compiler, library_name,
    library_path, load_native_module, native_cache_dir, reset_build_stats,
)
from repro.codegen.native import (
    emit_native_sources, full_run_eligible, native_step_indices,
)
from repro.core import CompilerConfig, compile_model
from repro.errors import OutOfMemoryError
from repro.eval.harness import CONFIGS
from repro.frontend.modelzoo import MLPERF_TINY
from repro.runtime import Executor, random_inputs
from repro.serve import FleetConfig, ServingFleet, pack_model
from repro.soc import get_platform

from helpers import build_small_cnn

HAVE_CC = find_c_compiler() is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")

#: Table I configurations that target the accelerators (cpu-tvm has no
#: AccelSteps, so the native backend has nothing to compile there).
ACCEL_CONFIGS = [c for c in CONFIGS if c != "cpu-tvm"]


def _compile_cell(model, config):
    precision, soc_kwargs, cfg = CONFIGS[config]
    graph = MLPERF_TINY[model](precision=precision)
    soc = get_platform("diana", **soc_kwargs)
    try:
        compiled = compile_model(graph, soc, cfg)
    except OutOfMemoryError:
        pytest.skip(f"{model}/{config} does not fit L2 (Table I OoM)")
    return graph, soc, compiled


# ---------------------------------------------------------------------------
# bit-exactness: the property the whole backend hangs on
# ---------------------------------------------------------------------------

@needs_cc
class TestNativeBitExact:
    """zoo x Table I: native == fast == tiled, outputs and counters."""

    @pytest.mark.parametrize("model", sorted(MLPERF_TINY))
    @pytest.mark.parametrize("config", ACCEL_CONFIGS)
    def test_zoo_grid(self, model, config, shared_native_cache):
        graph, soc, compiled = _compile_cell(model, config)
        feeds = random_inputs(graph, seed=11)
        res = {mode: Executor(soc, exec_mode=mode,
                              native_cache_dir=shared_native_cache)
               .run(compiled, feeds)
               for mode in ("fast", "tiled", "native")}
        np.testing.assert_array_equal(res["native"].output,
                                      res["fast"].output)
        np.testing.assert_array_equal(res["native"].output,
                                      res["tiled"].output)
        assert res["native"].total_cycles == res["fast"].total_cycles
        assert res["native"].total_cycles == res["tiled"].total_cycles
        assert res["native"].l2_peak_bytes == res["fast"].l2_peak_bytes

    def test_batched_equivalence(self, shared_native_cache):
        graph, soc, compiled = _compile_cell("toyadmos", "digital")
        rng = np.random.default_rng(5)
        single = random_inputs(graph, seed=5)
        feeds = {name: rng.integers(-128, 128,
                                    size=(4,) + arr.shape[1:],
                                    dtype=np.int8)
                 for name, arr in single.items()}
        nat = Executor(soc, exec_mode="native",
                       native_cache_dir=shared_native_cache)
        fast = Executor(soc, exec_mode="fast")
        np.testing.assert_array_equal(
            nat.run_batch(compiled, feeds).outputs,
            fast.run_batch(compiled, feeds).outputs)

    def test_full_run_path_used_where_eligible(self, shared_native_cache):
        # toyadmos/digital is all-dense, fully planned: the whole
        # network runs inside one native call
        _, soc, compiled = _compile_cell("toyadmos", "digital")
        idx = native_step_indices(compiled)
        assert full_run_eligible(compiled, frozenset(idx))
        mod = load_native_module(compiled, cache_dir=shared_native_cache)
        assert mod is not None and mod.has_full_run


# ---------------------------------------------------------------------------
# toolchain fallback
# ---------------------------------------------------------------------------

class TestNoCompilerFallback:
    def test_executor_falls_back_to_fast(self, monkeypatch, tmp_path,
                                         digital_soc, small_cnn):
        compiled = compile_model(small_cnn, digital_soc, CompilerConfig())
        feeds = random_inputs(small_cnn, seed=2)
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # one-time no-compiler warning
            nat = Executor(digital_soc, exec_mode="native",
                           native_cache_dir=str(tmp_path)).run(compiled,
                                                               feeds)
        fast = Executor(digital_soc, exec_mode="fast").run(compiled, feeds)
        np.testing.assert_array_equal(nat.output, fast.output)
        assert nat.total_cycles == fast.total_cycles
        assert not list(tmp_path.glob("*.so"))  # nothing was built

    def test_find_c_compiler_none_without_toolchain(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        assert find_c_compiler() is None

    def test_build_returns_none_without_compiler(self, monkeypatch,
                                                 tmp_path, digital_soc,
                                                 small_cnn):
        compiled = compile_model(small_cnn, digital_soc, CompilerConfig())
        monkeypatch.setattr("repro.codegen.build.find_c_compiler",
                            lambda: None)
        assert build_native_library(compiled,
                                    cache_dir=str(tmp_path)) is None


# ---------------------------------------------------------------------------
# the on-disk build cache
# ---------------------------------------------------------------------------

@needs_cc
class TestBuildCache:
    def _compiled(self, digital_soc, small_cnn):
        return compile_model(small_cnn, digital_soc, CompilerConfig())

    def test_fingerprint_keyed_reuse(self, tmp_path, digital_soc,
                                     small_cnn):
        compiled = self._compiled(digital_soc, small_cnn)
        reset_build_stats()
        first = build_native_library(compiled, cache_dir=str(tmp_path))
        again = build_native_library(compiled, cache_dir=str(tmp_path))
        assert first == again == library_path(compiled, str(tmp_path))
        stats = build_stats()
        assert stats["builds"] == 1 and stats["hits"] == 1

    def test_reuse_across_processes(self, tmp_path, digital_soc,
                                    small_cnn):
        compiled = self._compiled(digital_soc, small_cnn)
        lib = build_native_library(compiled, cache_dir=str(tmp_path))
        mtime = os.path.getmtime(lib)
        # a second process must load the cached library without
        # rebuilding: its stats see one hit, zero builds
        code = (
            "import sys\n"
            "from repro.codegen.build import build_stats, "
            "load_native_module\n"
            "from repro.core import CompilerConfig, compile_model\n"
            "from repro.soc import get_platform\n"
            "from helpers import build_small_cnn\n"
            "soc = get_platform('diana', enable_analog=False)\n"
            "m = compile_model(build_small_cnn(), soc, CompilerConfig())\n"
            f"mod = load_native_module(m, cache_dir={str(tmp_path)!r})\n"
            "assert mod is not None, 'load failed'\n"
            "s = build_stats()\n"
            "assert s['hits'] == 1 and s['builds'] == 0, s\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(__file__)]
            + env.get("PYTHONPATH", "").split(os.pathsep))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert os.path.getmtime(lib) == mtime  # untouched

    def test_stale_library_rebuilt(self, tmp_path, digital_soc, small_cnn):
        compiled = self._compiled(digital_soc, small_cnn)
        fp = compiled.fingerprint()
        lib = library_path(compiled, str(tmp_path))
        # a library whose embedded key is some other model's: proven
        # stale on load, deleted, rebuilt in place
        bad = build_native_library(compiled, cache_dir=str(tmp_path),
                                   fingerprint="f00d" * 16, force=True)
        os.replace(bad, lib)
        with pytest.warns(RuntimeWarning, match="stale native library"):
            mod = load_native_module(compiled, cache_dir=str(tmp_path))
        assert mod is not None
        assert mod.build_key == fp

    def test_corrupt_library_rebuilt(self, tmp_path, digital_soc,
                                     small_cnn):
        compiled = self._compiled(digital_soc, small_cnn)
        lib = library_path(compiled, str(tmp_path))
        garbage = tmp_path / "garbage"
        garbage.write_bytes(b"\x7fNOPE not a shared object")
        os.replace(garbage, lib)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mod = load_native_module(compiled, cache_dir=str(tmp_path))
        assert mod is not None
        assert mod.build_key == compiled.fingerprint()

    def test_concurrent_builds_race_benignly(self, tmp_path, digital_soc,
                                             small_cnn):
        compiled = self._compiled(digital_soc, small_cnn)
        results, errors = [], []

        def build():
            try:
                results.append(build_native_library(
                    compiled, cache_dir=str(tmp_path), force=True))
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        threads = [threading.Thread(target=build) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert results[0] == results[1] and results[0] is not None
        assert load_native_module(compiled,
                                  cache_dir=str(tmp_path)) is not None

    def test_cache_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        assert native_cache_dir("/elsewhere/model.dna") == str(tmp_path)
        monkeypatch.delenv("REPRO_NATIVE_CACHE")
        assert (native_cache_dir("/elsewhere/model.dna")
                == os.path.realpath("/elsewhere")
                or native_cache_dir("/elsewhere/model.dna") == "/elsewhere")


# ---------------------------------------------------------------------------
# per-artifact isolation
# ---------------------------------------------------------------------------

@needs_cc
class TestSymbolIsolation:
    def test_two_artifacts_one_process(self, tmp_path, digital_soc):
        """Two libraries with identical exported names load side by
        side: every kernel is ``static`` and binding is RTLD_LOCAL."""
        cnn = build_small_cnn(seed=1)
        toy = MLPERF_TINY["toyadmos"](precision="int8")
        a = compile_model(cnn, digital_soc, CompilerConfig())
        b = compile_model(toy, digital_soc, CompilerConfig())
        mod_a = load_native_module(a, cache_dir=str(tmp_path))
        mod_b = load_native_module(b, cache_dir=str(tmp_path))
        assert mod_a is not None and mod_b is not None
        assert mod_a.build_key == a.fingerprint()
        assert mod_b.build_key == b.fingerprint()
        # running through one must not perturb the other
        feeds_a = random_inputs(cnn, seed=1)
        feeds_b = random_inputs(toy, seed=2)

        def run_native(model, feeds):
            return Executor(digital_soc, exec_mode="native",
                            native_cache_dir=str(tmp_path)).run(model, feeds)

        for _ in range(2):  # interleave to catch shared-state bleed
            out_a = run_native(a, feeds_a).output
            out_b = run_native(b, feeds_b).output
        np.testing.assert_array_equal(
            out_a, Executor(digital_soc,
                            exec_mode="fast").run(a, feeds_a).output)
        np.testing.assert_array_equal(
            out_b, Executor(digital_soc,
                            exec_mode="fast").run(b, feeds_b).output)


# ---------------------------------------------------------------------------
# emission properties (no toolchain needed)
# ---------------------------------------------------------------------------

class TestEmission:
    def test_build_key_baked_in(self, digital_soc, small_cnn):
        compiled = compile_model(small_cnn, digital_soc, CompilerConfig())
        src = emit_native_sources(compiled)
        assert compiled.fingerprint() in src
        assert "repro_native_build_key" in src

    def test_all_symbols_static_except_abi(self, digital_soc, small_cnn):
        compiled = compile_model(small_cnn, digital_soc, CompilerConfig())
        src = emit_native_sources(compiled)
        for line in src.splitlines():
            if (line.startswith(("void ", "int32_t ", "const char* "))
                    and "(" in line):
                assert "repro_native_" in line, (
                    f"non-ABI symbol with external linkage: {line}")

    def test_library_name_is_fingerprint_keyed(self, digital_soc,
                                               small_cnn):
        compiled = compile_model(small_cnn, digital_soc, CompilerConfig())
        fp = compiled.fingerprint()
        assert library_name(fp).startswith(f"native-{fp[:16]}-abi")


# ---------------------------------------------------------------------------
# verifier: the sidecar next to a .dna
# ---------------------------------------------------------------------------

@needs_cc
class TestVerifierSidecar:
    def _pack(self, tmp_path):
        graph = build_small_cnn(hw=8, channels=8)
        soc = get_platform("diana", enable_analog=False)
        path = str(tmp_path / "m.dna")
        art = pack_model(graph, soc, CompilerConfig(), path)
        return path, art

    def test_matching_sidecar_is_clean(self, tmp_path):
        from repro.verify import check_artifact_file

        path, art = self._pack(tmp_path)
        build_native_library(art.model, cache_dir=str(tmp_path),
                             fingerprint=art.fingerprint)
        assert check_artifact_file(path) == []

    def test_mismatched_build_key_is_an_error(self, tmp_path):
        from repro.verify import check_artifact_file

        path, art = self._pack(tmp_path)
        bad = build_native_library(art.model, cache_dir=str(tmp_path),
                                   fingerprint="dead" * 16, force=True)
        os.replace(bad, os.path.join(str(tmp_path),
                                     library_name(art.fingerprint)))
        codes = [d.code for d in check_artifact_file(path)]
        assert codes == ["V-ART-010"]

    def test_unloadable_sidecar_is_a_warning(self, tmp_path):
        from repro.verify import check_artifact_file

        path, art = self._pack(tmp_path)
        garbage = tmp_path / "garbage"
        garbage.write_bytes(b"not an elf")
        os.replace(str(garbage),
                   os.path.join(str(tmp_path),
                                library_name(art.fingerprint)))
        diags = check_artifact_file(path)
        assert [d.code for d in diags] == ["V-ART-011"]
        assert diags[0].severity.value == "warning"


# ---------------------------------------------------------------------------
# serving: fleet workers degrade, never lose requests
# ---------------------------------------------------------------------------

class TestFleetNativeServing:
    def _artifact(self, tmp_path):
        graph = build_small_cnn(hw=8, channels=8)
        soc = get_platform("diana", enable_analog=False)
        path = str(tmp_path / "m.dna")
        pack_model(graph, soc, CompilerConfig(), path)
        feeds = random_inputs(graph, seed=0)
        golden = Executor(soc, exec_mode="fast").run(
            compile_model(graph, soc, CompilerConfig()), feeds).output
        return path, feeds, golden

    def _config(self, **kw):
        kw.setdefault("workers", 1)
        kw.setdefault("tick_s", 0.005)
        kw.setdefault("worker_start_timeout_s", 120.0)
        return FleetConfig(**kw)

    @needs_cc
    def test_native_worker_serves_and_prebuilds(self, tmp_path):
        path, feeds, golden = self._artifact(tmp_path)
        with ServingFleet(self._config(exec_mode="native")) as fleet:
            key = fleet.add_deployment(path, key="m")
            assert fleet.wait_ready(key, timeout=60.0)
            outs = [fleet.infer(key, feeds, timeout=60.0)
                    for _ in range(3)]
        for out in outs:
            np.testing.assert_array_equal(out, golden)
        # the worker built (or found) the library next to the artifact
        assert any(n.startswith("native-") and n.endswith(".so")
                   for n in os.listdir(tmp_path))

    def test_chaos_worker_without_toolchain_degrades(self, tmp_path,
                                                     monkeypatch):
        """A fleet asked for native on a box with the toolchain
        disabled serves every request correctly via fast — the S-NATIVE
        degradation is reported, nothing is lost."""
        path, feeds, golden = self._artifact(tmp_path)
        # fork-inherited by the worker process: its find_c_compiler()
        # sees a compiler-less host
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        with ServingFleet(self._config(exec_mode="native")) as fleet:
            key = fleet.add_deployment(path, key="m")
            assert fleet.wait_ready(key, timeout=60.0)
            futs = [fleet.submit(key, feeds) for _ in range(8)]
            outs = [f.result(timeout=60.0) for f in futs]
            stats = fleet.stats()[key]
        for out in outs:
            np.testing.assert_array_equal(out, golden)
        assert stats["degraded"] >= 1
        assert stats["completed"] == 8
        assert all(w["exec_mode"] == "fast" for w in stats["workers"]
                   if w["exec_mode"] is not None)
        assert not any(n.endswith(".so") for n in os.listdir(tmp_path))
