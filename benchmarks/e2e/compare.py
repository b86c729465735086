"""Compare two sets of benchmark runs, metric by metric, workload by workload.

    python3 benchmarks/e2e/compare.py A B

``A`` (the parent) and ``B`` (the change) are each a JSON file written
by ``run.py --out`` or a directory of such files; a set should hold
ten or so runs per workload, each with another seed. One row per
metric x workload, with a verdict:

* ``identical`` / ``changed``  exact (simulated or counted) numbers,
  compared for identity across every run of both sets;
* ``unchanged``   B's median is no worse than A's by more than the bound;
* ``regressed``   it is worse by more than the bound;
* ``improved``    B wins nine tenths of the run pairs and the medians
  differ by more than A's own quartile spread;
* ``unresolved``  the spread inside a set exceeds the bound, unless
  every run of one set beats every run of the other.

End-to-end bounds come from ``BENCHMARK.json``; per-layer metrics have
none, so theirs is ``PER_LAYER_BOUND`` and their verdicts inform only.
Exits 1 when an end-to-end metric regressed, 2 on unusable input.
"""

import json
import pathlib
import statistics
import sys
from typing import Dict, List, Tuple

SPEC_PATH = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"
PER_LAYER_BOUND = 0.10
#: numbers the program models or counts, not times: any difference
#: between two runs is a change of behaviour, not noise
EXACT = frozenset((
    "modeled_cycles", "binary_kB",
    "frontend.nodes", "transforms.nodes_out", "patterns.composites",
    "mapping.sites", "mapping.candidates", "mapping.offload_share",
    "mapping.macs_offload_share", "dory.layers", "dory.tiles",
    "dory.arena_bytes", "core.cache_hits", "core.cache_misses",
    "core.cache_hit_ratio", "codegen.c_bytes", "codegen.native_steps",
    "codegen.native_fallback_steps", "codegen.native_full_run",
    "verify.diagnostics", "runtime.steps", "runtime.accel_steps",
    "runtime.cpu_steps", "runtime.tiles_executed", "numerics.macs",
    "numerics.bytes_moved", "soc.cycles_total", "soc.cycles_cpu",
    "soc.cycles_digital", "soc.cycles_analog", "soc.cycles_dma",
    "soc.cycles_runtime", "soc.peak_cycles", "soc.energy_uj",
    "soc.l2_peak_bytes", "soc.tvm_speedup", "serve.request_bytes",
    "serve.reply_bytes", "serve.retries", "serve.restarts",
    "serve.rejected", "eval.dse_cells",
))


class InputError(Exception):
    pass


def load_set(path: str) -> List[dict]:
    p = pathlib.Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    records: List[dict] = []
    for f in files:
        with open(f) as fh:
            records += json.load(fh)
    if not records:
        raise InputError(f"{path}: no records")
    for r in records:
        if r.get("quick"):
            raise InputError(f"{path}: holds quick (smoke-scale) records; "
                             "their numbers are not comparable")
        if r.get("failed"):
            raise InputError(f"{path}: run {r['workload']} seed {r['seed']} "
                             f"had {r['failed']} failed operations")
    # run i of A is paired with run i of B: same workload, seed order
    records.sort(key=lambda r: (r["workload"], r["seed"]))
    return records


def by_metric(records: List[dict]) -> Dict[Tuple[str, str, str], List[float]]:
    """(kind, workload, metric) -> one value per run."""
    out: Dict[Tuple[str, str, str], List[float]] = {}
    for r in records:
        for kind in ("end_to_end", "per_layer"):
            for name, value in r.get(kind, {}).items():
                out.setdefault((kind, r["workload"], name), []).append(value)
    return out


def spread(values: List[float]) -> float:
    """Distance between the first and third quartile over the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return abs(q3 - q1) / abs(med) if med else 0.0


def verdict(a: List[float], b: List[float], better: str, bound: float,
            exact: bool) -> Tuple[str, float]:
    """Verdict and how much worse B's median is than A's (share of A's
    median, negative when better)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if exact:
        if len(set(a) | set(b)) == 1:
            return "identical", 0.0
        return "changed", worse
    beats = (lambda x, y: y < x) if better == "lower" else (
        lambda x, y: y > x)
    if max(spread(a), spread(b)) > bound:
        # too noisy to call, unless the two sets do not even overlap
        if all(beats(x, y) for x in a for y in b):
            return "improved", worse
        if worse > bound and all(beats(y, x) for x in a for y in b):
            return "regressed", worse
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    # a gain: B wins nine tenths of the run pairs (in file order, ties
    # for neither) and the medians differ by more than A's own spread
    decided = [(x, y) for x, y in zip(a, b) if x != y]
    wins = sum(beats(x, y) for x, y in decided)
    if decided and wins >= 0.9 * len(decided) and -worse > spread(a):
        return "improved", worse
    return "unchanged", worse


def describe(records: List[dict]) -> str:
    keys = ("host", "machine", "nproc", "python", "numpy", "blas", "commit")
    seen = {k: sorted({str(r.get(k)) for r in records}) for k in keys}
    seeds = sorted({r["seed"] for r in records})
    return (", ".join(f"{k} {'/'.join(v)}" for k, v in seen.items())
            + f", {len(records)} runs, seeds {seeds[0]}..{seeds[-1]}")


def compare(set_a: List[dict], set_b: List[dict], spec: dict) -> Tuple[
        List[tuple], int]:
    meta = {("end_to_end", m["name"]): m for m in spec["end_to_end"]}
    meta.update({("per_layer", m["name"]): m for m in spec["per_layer"]})
    a, b = by_metric(set_a), by_metric(set_b)
    rows = []
    regressions = 0
    for key in sorted(set(a) & set(b)):
        kind, workload, name = key
        m = meta.get((kind, name))
        if m is None:
            continue
        bound = m.get("bound", PER_LAYER_BOUND)
        v, worse = verdict(a[key], b[key], m["better"], bound,
                           name in EXACT)
        if kind == "end_to_end" and (
                v == "regressed" or (v == "changed" and worse > 0)):
            regressions += 1
        rows.append((kind, workload, name, m["unit"],
                     statistics.median(a[key]), spread(a[key]),
                     statistics.median(b[key]), spread(b[key]),
                     worse, bound, v))
    return rows, regressions


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        set_a, set_b = load_set(argv[0]), load_set(argv[1])
    except (InputError, OSError, ValueError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    print(f"A: {describe(set_a)}")
    print(f"B: {describe(set_b)}")
    rows, regressions = compare(set_a, set_b, spec)
    last = None
    for (kind, workload, name, unit, med_a, sp_a, med_b, sp_b, worse,
         bound, v) in rows:
        if (kind, workload) != last:
            last = (kind, workload)
            print(f"\n== {workload}  {kind.replace('_', '-')} ==")
            print(f"  {'metric':<30} {'A median':>13} {'iqr':>6} "
                  f"{'B median':>13} {'iqr':>6} {'worse by':>9} "
                  f"{'bound':>6}  verdict")
        print(f"  {name:<30} {med_a:>13.4f} {sp_a:>6.1%} {med_b:>13.4f} "
              f"{sp_b:>6.1%} {worse:>+9.1%} {bound:>6.1%}  {v}"
              f"  [{unit}]")
    counts: Dict[str, int] = {}
    for row in rows:
        if row[0] == "end_to_end":
            counts[row[-1]] = counts.get(row[-1], 0) + 1
    print("\nend-to-end verdicts: "
          + ", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
