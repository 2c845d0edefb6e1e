"""Plan -> place -> serve benchmark of the SCOPe pipeline.

    python3 perfbench/run.py --workload tpch100 --seed 1 --seconds 55 --trace 0

Runs from any directory; the repository root is this file's parent's parent,
and the program is imported from its ``src``. Each workload runs in fresh
Python processes (``worker.py``) with ``PYTHONHASHSEED`` pinned and no
SparkSession. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

STARTED = time.monotonic()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The string-hash seed of every process the benchmark starts.
HASH_SEED = 0
#: Threads of Arrow's CPU pool (and of OpenMP/BLAS) in every process the
#: benchmark starts. Arrow's default of one per core handed each small
#: Parquet read to pool threads, and waking them on a shared host moved a
#: query's latency by up to 40% from one process to the next.
POOL_THREADS = 1
#: Hash seeds the layout probe compares.
PROBE_HASH_SEEDS = range(5)
#: Set-up-only processes started beside the measuring one, at the same time;
#: ``setup_s`` is the median over all of them.
EXTRA_SETUPS = 2
#: Every process the run starts is killed once the run is ``--seconds`` plus
#: this old; the run then fails.
SETUP_ALLOWANCE_S = 110

END_TO_END = {
    "setup_s": "s",
    "plan_s": "s",
    "place_rows_s": "rows/s",
    "read_p50_ms": "ms",
    "read_p95_ms": "ms",
    "stored_ratio": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "queries.families": "count",
    "gpart.s": "s",
    "gpart.families_in": "count",
    "gpart.partitions_out": "count",
    "gpart.layouts_across_hashseeds": "count",
    "pipeline.partitions_s": "s",
    "pipeline.sample_rows": "count",
    "codecs.measure_calls": "count",
    "codecs.measure_s": "s",
    "codecs.csv_measure_s": "s",
    "codecs.parquet_measure_s": "s",
    "codecs.measured_mb": "MB",
    "optassign.candidates_s": "s",
    "optassign.candidate_rows": "count",
    "optassign.repair_calls": "count",
    "optassign.repair_s": "s",
    "optassign.repair_moves": "count",
    "optassign.decision_flips": "count",
    "tiers.put_calls": "count",
    "tiers.put_s": "s",
    "tiers.mb_written": "MB",
    "tiers.get_calls": "count",
    "tiers.get_s": "s",
    "tiers.mb_read": "MB",
    "tiers.metered_c_per_gb": "c/GB",
    "trace.plan_s": "s",
    "trace.overhead_s": "s",
}


def time_left(seconds: float) -> float:
    return max(1.0, STARTED + seconds + SETUP_ALLOWANCE_S - time.monotonic())


def child_env(out: Path, hash_seed: int = HASH_SEED) -> dict:
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, PYTHONHASHSEED=str(hash_seed), OMP_NUM_THREADS=str(POOL_THREADS),
                PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp))


def start_worker(args, mode: str, out: Path) -> subprocess.Popen:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--size", "tiny" if args.tiny else "full",
           "--out", str(out), "--t0", repr(time.time())]
    return subprocess.Popen(cmd, env=child_env(out), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)


def finish(proc: subprocess.Popen, what: str, seconds: float, stdin: str | None = None) -> str:
    stdout, _ = proc.communicate(stdin, timeout=time_left(seconds))
    if proc.returncode != 0:
        raise RuntimeError(f"{what} exited with {proc.returncode}")
    return stdout


def run_workers(args, out: Path) -> tuple[dict, list[dict]]:
    """Run the measuring worker and, untraced, ``EXTRA_SETUPS`` set-up-only
    ones started with it; the measuring one starts its cycles once the others
    have ended. Returns the JSON objects they print last."""
    mode = "trace" if args.trace else "run"
    procs = [start_worker(args, mode, out)]
    if not args.trace:
        procs += [start_worker(args, "setup", out) for _ in range(EXTRA_SETUPS)]
    try:
        extras = [json.loads(finish(p, "set-up worker", args.seconds).splitlines()[-1])
                  for p in procs[1:]]
        stdout = finish(procs[0], f"worker --mode {mode}", args.seconds, stdin="go\n")
        return json.loads(stdout.strip().splitlines()[-1]), extras
    finally:
        stop(procs)


def stop(procs: list[subprocess.Popen]) -> None:
    for p in procs:
        if p.poll() is None:
            p.kill()
        p.wait()


def count_layouts(querylog: str, out: Path, seconds: float) -> int:
    """Distinct G-PART layouts of one query log over ``PROBE_HASH_SEEDS``."""
    procs = [subprocess.Popen([sys.executable, str(HERE / "probe.py"), querylog],
                              env=child_env(out, h), stdout=subprocess.PIPE, text=True)
             for h in PROBE_HASH_SEEDS]
    try:
        return len({finish(p, "probe", seconds).split()[0] for p in procs})
    finally:
        stop(procs)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("tpch100", "enterprise_wide"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test input sizes (results are not comparable)")
    args = ap.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    results = ROOT / ".perfbench_out"
    out = results / f"work-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, out, results)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def measure(args, out: Path, results: Path) -> int:
    print(f"env: nproc={os.cpu_count()} python={platform.python_version()} "
          f"pyarrow={metadata.version('pyarrow')} pandas={metadata.version('pandas')} "
          f"machine={platform.machine()}")
    print(f"workload={args.workload} workload_seed={args.seed} "
          f"PYTHONHASHSEED={HASH_SEED} OMP_NUM_THREADS={POOL_THREADS} "
          f"seconds={args.seconds} trace={args.trace}"
          + (" size=tiny" if args.tiny else ""))

    res, extras = run_workers(args, out)
    metrics = dict(res["metrics"])
    if args.trace:
        metrics["gpart.layouts_across_hashseeds"] = float(
            count_layouts(res["querylog"], out, args.seconds))
        spans = results / f"spans-{args.workload}-seed{args.seed}.json"
        os.replace(out / "spans.json", spans)
        print(f"spans: {spans.relative_to(ROOT)}")
        units = PER_LAYER
        if res["missing"]:
            print(f"trace: missing wrap targets (their metrics read 0): {res['missing']}")
    else:
        metrics["setup_s"] = statistics.median(r["setup_s"] for r in [res, *extras])
        units = END_TO_END
        print(f"read samples: {res['read_samples']} ({res['serve_queries']} queries "
              f"x {res['cycles']} cycles, each the median of {res['serve_passes']} replays)")
        print(f"decision flips: {res['decision_flips']}")
    print(f"cycles: {res['cycles']}; untraced plan_s per cycle: "
          + " ".join(f"{t:.3f}" for t in res["plan_times"]))
    for err in res["errors"]:
        print(f"check failed: {err}")
    share = res["failed"] / max(1, res["attempted"])
    print(f"failed: {res['failed']} of {res['attempted']} operations ({share:.2%})")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    if args.trace:
        plan = metrics["trace.plan_s"]
        print(f"split of traced plan_s: codecs.measure_s {metrics['codecs.measure_s'] / plan:.0%}, "
              f"gpart.s + optassign.repair_s "
              f"{(metrics['gpart.s'] + metrics['optassign.repair_s']) / plan:.0%}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
