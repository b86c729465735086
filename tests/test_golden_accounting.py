"""Pinned cycle / L2 accounting of every zoo deployment.

``golden_accounting.json`` was generated at the commit *before* the
accounting pass moved out of the executor's step loop (``python
tests/test_golden_accounting.py`` rewrites it — do that only when the
cost model itself is meant to change). The test asserts exact equality
— floats compared with ``==`` — in every exec mode, for ``run`` and
``run_batch``, and for a packed -> loaded artifact, so any refactor of
where modeled cost is computed is proven to move no number.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.codegen.build import find_c_compiler
from repro.core import compile_model
from repro.errors import OutOfMemoryError
from repro.eval.harness import CONFIGS
from repro.frontend.modelzoo import MLPERF_TINY
from repro.runtime import Executor, random_inputs
from repro.serve import load_artifact, save_artifact
from repro.soc import get_platform

GOLDEN = pathlib.Path(__file__).with_name("golden_accounting.json")

#: cell id -> (model, config, CompilerConfig overrides)
CELLS = {f"{model}-{config}": (model, config, {})
         for model in sorted(MLPERF_TINY) for config in CONFIGS}
CELLS["resnet-digital-depthfirst"] = ("resnet", "digital",
                                      {"depthfirst": "on"})
CELLS["resnet-digital-l1-16k"] = ("resnet", "digital",
                                  {"l1_budget": 16 * 1024})

MODES = ["tiled", "fast"] + (["native"] if find_c_compiler() else [])


def _compile_cell(cell):
    model, config, overrides = CELLS[cell]
    precision, soc_kwargs, cfg = CONFIGS[config]
    cfg = cfg.with_overrides(**overrides)
    graph = MLPERF_TINY[model](precision=precision)
    soc = get_platform("diana", **soc_kwargs)
    return graph, soc, cfg, compile_model(graph, soc, cfg)


def _record(compiled, result):
    perf = result.perf
    return {
        "fingerprint": compiled.fingerprint(),
        "total_cycles": perf.total_cycles,
        "peak_cycles": perf.peak_cycles,
        "cycles_by_category": perf.cycles_by_category(),
        "cycles_by_target": perf.cycles_by_target(),
        "num_tiles": [r.num_tiles for r in perf.records],
        "l2_peak_bytes": result.l2_peak_bytes,
    }


def _generate():
    out = {}
    for cell in CELLS:
        try:
            graph, soc, _, compiled = _compile_cell(cell)
        except OutOfMemoryError:
            out[cell] = {"oom": True}
            continue
        out[cell] = _record(compiled, Executor(soc, exec_mode="tiled").run(
            compiled, random_inputs(graph, seed=1)))
    return out


@pytest.mark.parametrize("cell", list(CELLS))
def test_accounting_matches_golden(cell, tmp_path, shared_native_cache):
    want = json.loads(GOLDEN.read_text())[cell]
    if want.get("oom"):
        with pytest.raises(OutOfMemoryError):
            _compile_cell(cell)
        return
    graph, soc, cfg, compiled = _compile_cell(cell)
    feeds = random_inputs(graph, seed=1)
    pair = {name: np.concatenate([arr, arr], axis=0)
            for name, arr in feeds.items()}
    for mode in MODES:
        ex = Executor(soc, exec_mode=mode,
                      native_cache_dir=shared_native_cache)
        assert _record(compiled, ex.run(compiled, feeds)) == want, mode
        batched = ex.run_batch(compiled, pair)
        assert _record(compiled, batched) == want, mode
        assert batched.total_cycles == 2 * want["total_cycles"], mode

    path = str(tmp_path / "cell.dna")
    save_artifact(path, compiled, soc, cfg)
    art = load_artifact(path)
    loaded = Executor(art.soc, exec_mode="fast").run(art.model, feeds)
    assert _record(art.model, loaded) == want


if __name__ == "__main__":
    # one line per cell keeps diffs of a deliberate cost-model change readable
    GOLDEN.write_text("{\n" + ",\n".join(
        f" {json.dumps(cell)}: {json.dumps(rec, sort_keys=True)}"
        for cell, rec in sorted(_generate().items())) + "\n}\n")
