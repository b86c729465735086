"""Tier-1 smoke of the deployment-lifecycle benchmark.

Runs every workload at a reduced internal scale (records are marked
``quick`` and ``compare.py`` refuses them), so the numbers mean
nothing; what is checked is that every named metric comes out with its
unit, nothing fails, the exact metrics repeat, the additive identities
hold and ``BENCHMARK.json`` stays inside the benchmark contract.
"""

import json
import math
import pathlib
import re
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
#: per-layer smoke: the batched workload and the native one build their
#: C library in under a second; the ResNet / MobileNet per-layer runs
#: go through the same code with a 3-4 s ``cc`` build and are left to
#: the benchmark itself
PER_LAYER_SMOKE = ("toyadmos-digital-batched", "dscnn-mixed-native")


def quick(name: str, seed: int, trace: bool) -> dict:
    return run.run_workload(name, seed, run.QUICK_SECONDS, trace, quick=True)


@pytest.fixture(scope="module")
def end_to_end():
    return {w.name: quick(w.name, 3, False) for w in WORKLOADS}


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert all(not part.startswith("/") and ".." not in part
               for part in SPEC["command"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert [w["name"] for w in SPEC["workloads"]] == [w.name for w in WORKLOADS]
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 <= m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert compare.EXACT <= set(names)


def test_every_workload_reports_every_end_to_end_metric(end_to_end):
    for name, record in end_to_end.items():
        assert record["failed"] == 0, (name, record["failures"])
        assert record["attempted"] >= 1 and record["quick"]
        result = json.loads(run.contract_line(record, SPEC))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        for m in SPEC["end_to_end"]:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert math.isfinite(got["value"]) and got["value"] > 0, m["name"]


def test_exact_metrics_repeat_across_runs_and_seeds(end_to_end):
    name = PER_LAYER_SMOKE[0]
    again = quick(name, 4, False)
    for metric in ("modeled_cycles", "binary_kB"):
        assert again["end_to_end"][metric] == \
            end_to_end[name]["end_to_end"][metric]


@pytest.mark.parametrize("name", PER_LAYER_SMOKE)
def test_per_layer_metrics_and_identities(name):
    record = quick(name, 3, True)
    assert record["failed"] == 0, record["failures"]
    result = json.loads(run.contract_line(record, SPEC))
    for m in SPEC["per_layer"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]), m["name"]
    pl = record["per_layer"]
    kinds = ("conv", "dwconv", "dense", "add", "cpu")
    assert sum(pl[f"numerics.{k}_ms"] for k in kinds) == \
        pytest.approx(pl["runtime.kernel_ms"])
    assert sum(pl[k] for k in layers.COMPILE_STAGES) \
        + pl["core.compile_glue_ms"] == \
        pytest.approx(record["reference"]["compile_cold_ms"])
    assert pl["soc.cycles_cpu"] + pl["soc.cycles_digital"] \
        + pl["soc.cycles_analog"] == pytest.approx(pl["soc.cycles_total"])
    assert "request waterfall" in record["waterfall"]
    assert (run.HERE.parents[1] / record["trace_file"]).exists()


def test_compare_refuses_quick_records(tmp_path, end_to_end):
    path = tmp_path / "quick.json"
    path.write_text(json.dumps(list(end_to_end.values())))
    assert compare.main([str(path), str(path)]) == 2


def _record(seed, **metrics):
    return {"workload": "w", "seed": seed, "quick": False, "failed": 0,
            "end_to_end": metrics}


def test_compare_verdicts(tmp_path, capsys):
    base = [_record(i, infer_ms=10 + 0.01 * i, serve_rps=100 + 0.1 * i,
                    modeled_cycles=5.0) for i in range(10)]
    slower = [_record(i, infer_ms=13 + 0.01 * i, serve_rps=100 + 0.1 * i,
                      modeled_cycles=5.0) for i in range(10)]
    noisy = [_record(i, infer_ms=10 + 3 * (i % 2), serve_rps=130 + 0.1 * i,
                     modeled_cycles=6.0) for i in range(10)]
    paths = {}
    for label, records in (("base", base), ("slower", slower),
                           ("noisy", noisy)):
        paths[label] = str(tmp_path / f"{label}.json")
        pathlib.Path(paths[label]).write_text(json.dumps(records))

    def verdicts(a, b):
        code = compare.main([paths[a], paths[b]])
        rows = {}
        for line in capsys.readouterr().out.splitlines():
            parts = line.split()
            if parts and parts[0] in ("infer_ms", "serve_rps",
                                      "modeled_cycles"):
                rows[parts[0]] = parts[-2]
        return code, rows

    assert verdicts("base", "base") == (0, {
        "infer_ms": "unchanged", "serve_rps": "unchanged",
        "modeled_cycles": "identical"})
    code, rows = verdicts("base", "slower")
    assert code == 1 and rows["infer_ms"] == "regressed"
    code, rows = verdicts("base", "noisy")
    assert code == 1  # the exact metric changed for the worse
    assert rows == {"infer_ms": "unresolved", "serve_rps": "improved",
                    "modeled_cycles": "changed"}
