"""Platform plugin registry: specs, coordinator, identity, guard.

Covers the refactor invariants:

* ``get_platform`` is the single construction path,
* platform identity flows into config/model fingerprints and ``.dna``
  artifacts (V-ART-012 rejects cross-platform loads),
* the stock ``diana`` platform keeps every historical fingerprint
  byte-exact (pinned hashes),
* the committed ``DSE_GRID.json`` re-derives exactly, and
* the retired platform class and executor memos stay gone.
"""

import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from repro import Executor, HTVM, compile_model
from repro.core.config import TVM_CPU
from repro.errors import ArtifactError, PlatformError, SimulationError
from repro.frontend.modelzoo import resnet8
from repro.mapping import assign_targets, prepare_graph
from repro.runtime import random_inputs
from repro.serve import load_artifact, pack_model
from repro.soc import (
    DianaParams, PlatformSpec, get_platform, get_platform_spec,
    platform_names, register_platform, unregister_platform, validate_spec,
)
from repro.soc.digital import DigitalAccelerator

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Historical fingerprints captured on the pre-registry main branch.
# The stock platform predates the platform knob, so these must never
# move — any drift means existing .dna artifacts and native-kernel
# caches silently invalidate.
HTVM_CONFIG_FP = \
    "bdc0dcd2fa39411257ebfc0df89b18150bb484e684e0e4873aa41e7d0569b46e"
TVM_CPU_CONFIG_FP = \
    "4f03ada2465afe4140a298113a1f9534e0445669effb8a78f42337c0c1bfee54"
RESNET_MIXED_HTVM_MODEL_FP = \
    "19e20444ca1e198dc6e5e08861bd238d214387e55ad914486eb04fd1f8fd81f9"


@pytest.fixture
def scratch_platform():
    """Register a throwaway platform; unregister on teardown."""
    names = []

    def make(name="test-npu", **overrides):
        kwargs = dict(accelerators={"soc.digital": DigitalAccelerator},
                      model_precision="int8")
        kwargs.update(overrides)
        spec = PlatformSpec(name=name, **kwargs)
        register_platform(spec, replace=True)
        names.append(name)
        return spec

    yield make
    for name in names:
        unregister_platform(name)


# ---------------------------------------------------------------------------
# registry behavior
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_builtins_registered(self):
        names = platform_names()
        for expected in ("diana", "diana-noanalog", "diana-nodig",
                         "diana-cpu"):
            assert expected in names

    def test_duplicate_name_rejected(self, scratch_platform):
        scratch_platform("test-npu")
        with pytest.raises(PlatformError, match="already registered"):
            register_platform(PlatformSpec(
                name="test-npu",
                accelerators={"soc.digital": DigitalAccelerator}))

    def test_replace_overwrites(self, scratch_platform):
        scratch_platform("test-npu", description="v1")
        scratch_platform("test-npu", description="v2")
        assert get_platform_spec("test-npu").description == "v2"

    def test_decorator_form_registers(self):
        @register_platform
        def _spec() -> PlatformSpec:
            return PlatformSpec(
                name="test-decorated",
                accelerators={"soc.digital": DigitalAccelerator})

        try:
            assert "test-decorated" in platform_names()
        finally:
            unregister_platform("test-decorated")

    def test_unknown_platform_message_lists_registry(self):
        with pytest.raises(PlatformError, match="unknown platform"):
            get_platform_spec("no-such-soc")

    def test_default_platform_cannot_be_unregistered(self):
        with pytest.raises(PlatformError, match="default platform"):
            unregister_platform("diana")

    @pytest.mark.parametrize("bad, match", [
        (dict(name="Bad Name"), "invalid platform name"),
        (dict(name="npu", accelerators={"soc.x": "not-callable"}),
         "not callable"),
        (dict(name="npu", model_precision="fp64"), "model_precision"),
        (dict(name="npu", prefer=42), "prefer hook"),
    ])
    def test_validate_spec_rejects(self, bad, match):
        kwargs = dict(accelerators={"soc.digital": DigitalAccelerator})
        kwargs.update(bad)
        with pytest.raises(PlatformError, match=match):
            validate_spec(PlatformSpec(**kwargs))

    def test_validate_rejects_bad_params(self):
        with pytest.raises(PlatformError, match="clock_hz"):
            validate_spec(PlatformSpec(
                name="npu", params=DianaParams(clock_hz=0)))

    def test_factory_name_cross_checked(self, scratch_platform):
        scratch_platform("test-npu",
                         accelerators={"soc.wrong": DigitalAccelerator})
        with pytest.raises(PlatformError, match="named"):
            get_platform("test-npu")


# ---------------------------------------------------------------------------
# coordinator: get_platform builds the stock platform and its ablations
# ---------------------------------------------------------------------------

class TestCoordinator:
    @pytest.mark.parametrize("kwargs, names", [
        (dict(), ["soc.digital", "soc.analog"]),
        (dict(enable_analog=False), ["soc.digital"]),
        (dict(enable_digital=False), ["soc.analog"]),
        (dict(enable_digital=False, enable_analog=False), []),
    ])
    def test_enable_gates(self, kwargs, names):
        assert list(get_platform("diana", **kwargs).accelerators) == names

    def test_params_override(self):
        small = DianaParams(l1_bytes=32 * 1024)
        assert get_platform("diana", params=small).params.l1_bytes == \
            32 * 1024

    def test_accelerator_subset(self):
        soc = get_platform("diana", accelerators=["soc.analog"])
        assert list(soc.accelerators) == ["soc.analog"]
        with pytest.raises(PlatformError, match="no accelerator"):
            get_platform("diana", accelerators=["soc.bogus"])

    def test_ablation_platforms(self):
        assert list(get_platform("diana-noanalog").accelerators) == \
            ["soc.digital"]
        assert list(get_platform("diana-nodig").accelerators) == \
            ["soc.analog"]
        assert list(get_platform("diana-cpu").accelerators) == []


# ---------------------------------------------------------------------------
# fingerprint stability + platform identity
# ---------------------------------------------------------------------------

class TestFingerprints:
    def test_stock_config_fingerprints_pinned(self):
        assert HTVM.fingerprint() == HTVM_CONFIG_FP
        assert TVM_CPU.fingerprint() == TVM_CPU_CONFIG_FP

    def test_platform_diana_is_fingerprint_neutral(self):
        assert HTVM.with_overrides(platform="diana").fingerprint() == \
            HTVM_CONFIG_FP

    def test_stock_model_fingerprint_pinned(self):
        model = compile_model(resnet8(precision="mixed"),
                              get_platform("diana"), HTVM)
        assert model.fingerprint() == RESNET_MIXED_HTVM_MODEL_FP
        assert model.platform == "diana"

    def test_nondefault_platform_changes_config_fingerprint(self):
        fps = {HTVM.with_overrides(platform=p).fingerprint()
               for p in ("diana", "diana-noanalog", "diana-nodig")}
        assert len(fps) == 3

    def test_two_platforms_different_model_fingerprints(self,
                                                        scratch_platform):
        # same graph + config, two registered platforms with different
        # params -> both fingerprints must diverge (native-cache keys)
        scratch_platform("test-npu")
        scratch_platform("test-npu-fast",
                         params=DianaParams(clock_hz=520_000_000))
        graph = resnet8(precision="int8")
        a = compile_model(graph, get_platform("test-npu"), HTVM)
        b = compile_model(graph, get_platform("test-npu-fast"), HTVM)
        assert a.platform == "test-npu" and b.platform == "test-npu-fast"
        assert a.fingerprint() != b.fingerprint()
        cfg_a = HTVM.with_overrides(platform="test-npu")
        cfg_b = HTVM.with_overrides(platform="test-npu-fast")
        assert cfg_a.fingerprint() != cfg_b.fingerprint()


# ---------------------------------------------------------------------------
# artifacts: platform provenance + V-ART-012
# ---------------------------------------------------------------------------

class TestArtifactPlatform:
    def _pack(self, tmp_path, platform):
        graph = resnet8(precision="int8")
        cfg = HTVM.with_overrides(platform=platform)
        path = str(tmp_path / f"resnet8.{platform}.dna")
        pack_model(graph, get_platform(platform), cfg, path,
                   validate_runs=0)
        return graph, path

    def test_round_trip_keeps_platform(self, tmp_path, scratch_platform):
        scratch_platform("test-npu")
        graph, path = self._pack(tmp_path, "test-npu")
        art = load_artifact(path, expected_platform="test-npu")
        assert art.model.platform == "test-npu"
        assert art.soc.name == "test-npu"
        feeds = random_inputs(graph, seed=0)
        fresh = Executor(get_platform("test-npu")).run(
            compile_model(graph, get_platform("test-npu"), HTVM), feeds)
        replay = Executor(art.soc).run(art.model, feeds)
        assert np.array_equal(replay.output, fresh.output)

    def test_cross_platform_load_rejected(self, tmp_path,
                                          scratch_platform):
        scratch_platform("test-npu")
        _, path = self._pack(tmp_path, "test-npu")
        with pytest.raises(ArtifactError, match=r"V-ART-012"):
            load_artifact(path, expected_platform="diana")

    def test_unregistered_platform_load_rejected(self, tmp_path,
                                                 scratch_platform):
        scratch_platform("test-npu")
        _, path = self._pack(tmp_path, "test-npu")
        unregister_platform("test-npu")
        try:
            with pytest.raises(ArtifactError,
                               match=r"V-ART-012.*not registered"):
                load_artifact(path)
        finally:
            scratch_platform("test-npu")

    def test_diana_artifact_loads_without_pin(self, tmp_path):
        _, path = self._pack(tmp_path, "diana")
        art = load_artifact(path, expected_platform="diana")
        assert art.soc.name == "diana"


# ---------------------------------------------------------------------------
# prefer hook (paper component 2)
# ---------------------------------------------------------------------------

class TestPreferHook:
    def test_spec_prefer_steers_dispatch(self, scratch_platform):
        chosen = []

        def prefer(spec, accepted):
            chosen.append(spec.name)
            return accepted[-1]

        scratch_platform("test-npu", prefer=prefer)
        pg = prepare_graph(resnet8(precision="int8"))
        _, decisions = assign_targets(pg, get_platform("test-npu"))
        assert chosen, "prefer hook never consulted"
        offloaded = [d for d in decisions if d.target != "cpu"]
        assert offloaded

    def test_explicit_prefer_overrides_spec(self, scratch_platform):
        scratch_platform("test-npu",
                         prefer=lambda spec, accepted: accepted[0])
        pg = prepare_graph(resnet8(precision="int8"))
        _, decisions = assign_targets(
            pg, get_platform("test-npu"),
            prefer=lambda spec, accepted: "cpu")
        assert all(d.target == "cpu" for d in decisions)


# ---------------------------------------------------------------------------
# DSE service smoke
# ---------------------------------------------------------------------------

class TestDseService:
    def test_sweep_and_schema(self):
        from repro.eval.dse import (
            artifact_record, sweep_grid, validate_record,
        )
        pts = sweep_grid(platforms=["diana", "diana-nodig"],
                         models=["resnet"], budgets_kb=[64],
                         objectives=["latency"])
        assert len(pts) == 2 and all(p.feasible for p in pts)
        record = artifact_record(pts)
        assert record["schema"] == "repro-dse/1"
        assert validate_record(record) == []

    def test_jobs_deterministic(self):
        from repro.eval.dse import artifact_record, sweep_grid
        kwargs = dict(platforms=["diana", "diana-noanalog"],
                      models=["resnet"], budgets_kb=[64, 256],
                      objectives=["latency", "energy"])
        serial = artifact_record(sweep_grid(jobs=1, **kwargs))
        threaded = artifact_record(sweep_grid(jobs=4, **kwargs))
        assert serial == threaded

    def test_committed_grid_is_valid(self):
        """The exact drift gate: a fresh sweep of the full default
        grid must reproduce the committed DSE_GRID.json cell for cell
        (cycles, energy, mapping signature, Pareto marks)."""
        import json
        from repro.core.cache import TilingCache
        from repro.eval.dse import (
            artifact_record, diff_records, sweep_grid, validate_record,
        )
        committed = json.loads((ROOT / "DSE_GRID.json").read_text())
        assert validate_record(committed) == []
        fresh = json.loads(json.dumps(
            artifact_record(sweep_grid(cache=TilingCache()))))
        assert diff_records(committed, fresh) == []
        assert fresh == committed

    def test_unknown_axis_fails_fast(self):
        from repro.eval.dse import sweep_grid
        with pytest.raises(PlatformError):
            sweep_grid(platforms=["no-such-soc"], models=["resnet"])
        with pytest.raises(PlatformError):
            sweep_grid(models=["no-such-model"])


# ---------------------------------------------------------------------------
# layering guard
# ---------------------------------------------------------------------------

#: names that were deleted for good; a reappearance anywhere under
#: src/ means a per-object cost memo, the post-hoc accounting replay or
#: a dead shim has crept back in next to runtime/accounting.py.
_RETIRED = re.compile(
    r"_cost_cache|_df_cost_cache|_last_use_cache|_account_steps"
    r"|repro\.dispatch|depthfirst_exec")


def test_no_direct_dianasoc_construction_outside_soc():
    """get_platform is the single construction path, repo-wide.

    The pre-registry DianaSoC class is deleted; its name must not
    reappear in src/, tests/, benchmarks/ or examples/ (this function
    is the one place allowed to spell it). The same walk keeps the
    retired executor memos and shims out of src/.
    """
    this_file = pathlib.Path(__file__).resolve()
    offenders = []
    for top in ("src", "tests", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.resolve() == this_file:
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if (re.search(r"\bDianaSoC\b", line)
                        or top == "src" and _RETIRED.search(line)):
                    offenders.append(f"{path.relative_to(ROOT)}:{lineno}: "
                                     f"{line.strip()}")
    assert not offenders, (
        "DianaSoC is gone (use repro.soc.get_platform) and the retired "
        "executor names stay out of src/:\n" + "\n".join(offenders))


def test_depthfirst_is_not_an_exec_mode():
    with pytest.raises(SimulationError) as err:
        Executor(get_platform("diana"), exec_mode="depthfirst")
    assert "('tiled', 'fast', 'native')" in str(err.value)


def test_cli_platforms_lists_builtins():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "platforms"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    for name in ("diana", "diana-noanalog", "diana-nodig", "diana-cpu"):
        assert name in proc.stdout
