"""Deployment-lifecycle benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--repeat K] [--out FILE]

Per workload it runs build graph -> cold compile -> verify -> pack ->
load -> serve (set-up), then closed-loop served traffic, direct and
batched inference, cold/warm compile, load, verify and a DSE sweep,
checking every output against the reference interpreter. ``--trace 0``
(default) reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports the per-layer metrics, prints the request
waterfall and writes a Perfetto trace under ``benchmarks/e2e/out/``.
The last line of standard output is one JSON object (the result of the
last workload run). README.md defines every metric.
"""

import time

T_START = time.perf_counter()  # set-up time counts the imports below

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SPEC_PATH = HERE.parents[1] / "BENCHMARK.json"
SCHEMA = "repro-e2e/1"
#: set-ups per end-to-end run (this process + fresh child processes);
#: ``setup_s`` is their median
SETUPS = 5
QUICK_SECONDS = 0.5


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def host_record() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"].get("name", "unknown")
    except Exception:  # noqa: BLE001 — older NumPy has no dict mode
        pass
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "-C", str(HERE), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5).stdout.strip() \
            or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return {"host": platform.node(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "commit": commit, "nproc": os.cpu_count()}


def run_setup_child(workload: str, seed: int) -> float:
    """One more cold set-up in a fresh interpreter; returns its
    ``setup_s`` (measured the same way, from run.py's first line)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False, t_start=None) -> dict:
    """One run of one workload; returns its record (see README.md)."""
    import lifecycle
    from workloads import BY_NAME

    if (os.cpu_count() or 1) < 2:
        raise SystemExit("the benchmark needs at least 2 cores "
                         "(2 clients, 2 fleet workers)")
    w = BY_NAME[name]
    ops = lifecycle.Ops()
    OUT_DIR.mkdir(exist_ok=True)
    # .dna files and the native build cache live in a fresh directory
    # inside the checkout: set-up is always cold, nothing leaks to ~/.cache
    tmpdir = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=OUT_DIR)
    record = {"schema": SCHEMA, "workload": name, "seed": seed,
              "seconds": seconds, "quick": quick, "trace": trace,
              **host_record()}
    dep = None
    try:
        dep, setup_s = lifecycle.setup(w, seed, tmpdir, ops, t_start)
        record["setup_stages_s"] = dep.stages_s
        if trace:
            import layers
            metrics, extra = layers.measure_per_layer(dep, seconds, ops,
                                                      OUT_DIR)
            record["per_layer"] = metrics
            record.update(extra)
        else:
            metrics, counts = lifecycle.measure_end_to_end(
                dep, seconds, ops, 1 if quick else lifecycle.ROUNDS)
            # this process's own set-up counts only if it saw the imports
            setups = [setup_s] if t_start is not None or quick else []
            if not quick:
                setups += [run_setup_child(name, seed)
                           for _ in range(SETUPS - len(setups))]
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_MB"] = lifecycle.peak_rss_mb()
            counts["setup_s"] = len(setups)
            record["end_to_end"] = metrics
            record["samples"] = counts
    finally:
        if dep is not None and dep.tier is not None:
            dep.tier.stop()
        shutil.rmtree(tmpdir, ignore_errors=True)
    record["attempted"] = ops.attempted
    record["failed"] = ops.failed
    record["failures"] = ops.failures
    return record


def contract_line(record: dict, spec: dict) -> str:
    """The result object the benchmark contract asks for."""
    kind = "per_layer" if record["trace"] else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    values = record[kind]
    if set(values) != set(units):
        raise RuntimeError(
            f"metric names differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(values))}, unknown "
            f"{sorted(set(values) - set(units))}")
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    })


def print_table(record: dict, spec: dict) -> None:
    kind = "per_layer" if record["trace"] else "end_to_end"
    by_name = {m["name"]: m for m in spec[kind]}
    print(f"\n== {record['workload']}  seed {record['seed']}  "
          f"{'per-layer' if record['trace'] else 'end-to-end'}"
          f"{'  [quick]' if record['quick'] else ''} ==")
    for name, value in record[kind].items():
        m = by_name[name]
        n = record.get("samples", {}).get(name)
        print(f"  {name:<32} {value:>14.4f} {m['unit']:<10}"
              f" ({m['better']} is better"
              + (f", bound {m['bound']:.1%}" if "bound" in m else "")
              + (f", n={n}" if n else "") + ")")
    share = record["failed"] / max(record["attempted"], 1)
    print(f"  {'failed_share':<32} {share:>14.4f} {'ratio':<10}"
          f" ({record['failed']} of {record['attempted']} operations)")
    for why in record["failures"]:
        print(f"    failed: {why}")
    if record.get("waterfall"):
        print(record["waterfall"])


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=0,
                        help="model-weight and feed seed")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics + traced waterfall")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds seed..seed+K-1")
    parser.add_argument("--out", help="write every run's record here (JSON)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke scale; records are refused by compare.py")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        import lifecycle
        from workloads import BY_NAME

        OUT_DIR.mkdir(exist_ok=True)
        tmpdir = tempfile.mkdtemp(prefix=f"setup-{os.getpid()}-", dir=OUT_DIR)
        try:
            dep, setup_s = lifecycle.setup(
                BY_NAME[args.workload], args.seed, tmpdir, lifecycle.Ops(),
                T_START)
            dep.tier.stop()
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    seconds = QUICK_SECONDS if args.quick else args.seconds
    records = []
    t_start = T_START  # only the first run of the process saw the imports
    for name in ([args.workload] if args.workload else names):
        for k in range(args.repeat):
            record = run_workload(name, args.seed + k, seconds,
                                  bool(args.trace), args.quick, t_start)
            t_start = None
            records.append(record)
            print_table(record, spec)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(records, fh, indent=1)
            fh.write("\n")
    sys.stdout.flush()
    print(contract_line(records[-1], spec))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
