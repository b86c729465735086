"""Extension benches: energy comparison and depth-first memory study.

Neither appears in the paper's evaluation, but both follow directly
from its motivation: heterogeneous acceleration is an *energy* play
(Sec. I), and depth-first execution (MCUNetV2 [11]) is the related-work
alternative for fitting activation memory.
"""

import pytest

from repro.eval.harness import CONFIGS, deploy
from repro.eval.tables import format_table
from repro.extensions import analyze_depth_first, layer_by_layer_span_bytes
from repro.frontend.modelzoo import MLPERF_TINY
from repro.soc import energy_by_target_uj, execution_energy_uj, get_platform

from helpers import mobilenet_head_chain


@pytest.fixture(scope="module")
def energy_table():
    params = get_platform("diana").params
    rows = []
    values = {}
    for model in sorted(MLPERF_TINY):
        row = [model]
        for config in CONFIGS:
            r = deploy(model, config, verify=False)
            if r.oom or r.execution is None:
                row.append("OoM")
                continue
            uj = execution_energy_uj(r.execution.perf, params)
            values[(model, config)] = uj
            row.append(f"{uj:.1f}")
        rows.append(row)
    return rows, values


def test_energy_per_inference(report, energy_table):
    rows, values = energy_table
    report(format_table(
        ["model"] + [f"{c} uJ" for c in CONFIGS], rows,
        title="Extension — energy per inference (model estimate, uJ)"))
    # the motivation claim: accelerators cut energy by >1 order of
    # magnitude vs the CPU
    for model in MLPERF_TINY:
        cpu = values.get((model, "cpu-tvm"))
        if cpu is None:
            continue
        assert cpu / values[(model, "digital")] > 10


def test_energy_analog_advantage(energy_table):
    _, values = energy_table
    # where the analog core carries a MAC-heavy workload (ResNet), its
    # per-MAC advantage wins even though it is *slower* end-to-end; on
    # the MAC-light ToyAdmos, static energy erodes most of the gain
    assert values[("resnet", "analog")] < values[("resnet", "digital")]
    assert values[("toyadmos", "analog")] < 2 * values[("toyadmos", "digital")]


def test_depth_first_memory_study(report):
    chain = mobilenet_head_chain(3)
    baseline = layer_by_layer_span_bytes(chain)
    rows = []
    for grid in ((1, 1), (2, 2), (4, 4), (8, 8)):
        plan = analyze_depth_first(chain, grid)
        rows.append([
            f"{grid[0]}x{grid[1]}",
            f"{plan.patch_buffer_bytes / 1024:.1f}",
            f"{plan.peak_bytes / 1024:.1f}",
            f"{plan.recompute_factor:.3f}x",
        ])
    report(format_table(
        ["patch grid", "patch buffers kB", "peak incl. I/O kB", "recompute"],
        rows,
        title=f"Extension — depth-first execution of MobileNet's first "
              f"{len(chain)} convs\n(layer-by-layer peak: "
              f"{baseline / 1024:.1f} kB of intermediates)"))
    plan = analyze_depth_first(chain, (4, 4))
    assert plan.patch_buffer_bytes < baseline
    assert plan.recompute_factor < 2.0
