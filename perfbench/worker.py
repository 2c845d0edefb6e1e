"""One benchmark process: build a workload's inputs, then repeat the SCOPe
cycle of the paper's §VII through public entry points:

- plan:  ``pipeline.scope_policy_table`` (all 11 policies of Tables IX-XI);
- place: ``TieredStore.put`` of every partition of the ``scope_total``
  assignment in its chosen (tier, scheme);
- serve: a sample of the query log drawn from the workload seed, new each
  cycle; each query ``get``s every placed partition that covers any of its
  files.

``run.py`` starts this file with ``PYTHONHASHSEED`` pinned, writes a line to
its standard input when the cycles may start, and reads the JSON object it
prints as its last line of standard output.

    echo | python3 perfbench/worker.py --workload tpch100 --seed 1 \
        --seconds 55 --mode run --t0 <time.time() before the start> --out DIR
"""
from __future__ import annotations

import argparse
import io
import json
import math
import pickle
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from repro import synth_data as sd
from repro.core import cost_model as cm
from repro.core import pipeline
from repro.experiments import common
from repro.storage import codecs, tiers
from repro.workload import queries as wq

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from spans import Tracer, layer_metrics

#: Input sizes per workload; "tiny" is the smoke test's size.
SIZES = {
    "tpch100": {
        "full": dict(sf=0.1, n_files=32, queries=20, max_rows=8000),
        "tiny": dict(sf=0.01, n_files=8, queries=2, max_rows=500),
    },
    "enterprise_wide": {
        "full": dict(sf=0.02, n_files=600, queries=10_000, max_rows=300),
        "tiny": dict(sf=0.002, n_files=60, queries=300, max_rows=100),
    },
}
#: Generator seed of the tables and query log the plan sees. It is fixed
#: because any change to them changes the G-PART layout, and with it how many
#: partitions the median query reads (see README.md); the workload seed draws
#: the replayed queries instead.
INSTANCE_SEED = 0
#: Queries replayed per cycle at full size (the tiny size replays 20), and
#: how many times each is replayed; a query's latency is the median of its
#: replays. A tpch100 query decodes 20-30 ms of csv+gzip and its plan takes
#: 9-15 s, so it replays 70 queries once to fit three plans in a run. An
#: enterprise_wide query takes 3.5-6 ms and its p95 lies only 1-2 ms
#: above its median, so a single replay's scheduling jitter moves it; the
#: median of three replays does not. A run makes at least ``MIN_CYCLES``, so
#: it replays at least 210 queries.
SERVE_QUERIES = {"tpch100": 70, "enterprise_wide": 250}
SERVE_PASSES = {"tpch100": 1, "enterprise_wide": 3}
MIN_CYCLES = 3
#: Billing horizon of Tables IX-XI, in months.
MONTHS = 5.5
#: Policies that run under Table XII's tier capacities.
CAPACITY_POLICIES = ("hermes", "hcompress", "part_tier", "scope_latency",
                     "scope_read", "scope_total")
#: These policies choose among premium, hot and cool (archive is excluded at
#: 5.5 months); ``run_policy`` leaves the coolest of them unbounded.
COOLEST_IN_PLAY = "cool"


def build_inputs(workload: str, size: str):
    """Tables, query log and ``scope_policy_table`` arguments of a workload."""
    z = SIZES[workload][size]
    if workload == "tpch100":
        tables = common.tpch_table_files(
            sf=z["sf"], logical_total_gb=100.0, n_files=z["n_files"], seed=INSTANCE_SEED)
        queries = wq.gen_tpch_workload(
            tables, n_per_template=z["queries"], seed=INSTANCE_SEED)
        plan_kw = dict(max_rows=z["max_rows"], s_thresh_frac=0.05, query_repeat=25.0)
    else:
        tables = common.enterprise_table_files(
            sf=z["sf"], n_files=z["n_files"], seed=INSTANCE_SEED)
        queries = wq.gen_zipf_workload(
            tables, n_queries=z["queries"], alpha=1.5, seed=INSTANCE_SEED,
            sort_cols=sd.ENTERPRISE_SORT_COL)
        plan_kw = dict(max_rows=z["max_rows"], s_thresh_frac=0.01, query_repeat=6.0)
    return tables, queries, plan_kw


def check_plan(table, results, pids: set[str], total_gb: float) -> list[str]:
    """Output checks of one ``scope_policy_table`` call; returns the errors."""
    errs = []
    if len(table) != 11 or len(results) != 11:
        errs.append(f"{len(table)} policy rows, expected 11")
    for key, r in results.items():
        if not (math.isfinite(r.total_cost) and r.total_cost > 0):
            errs.append(f"{key}: total {r.total_cost!r} is not finite and positive")
    assigned = set(results["scope_total"].assignment["pid"])
    if assigned != pids:
        errs.append(f"scope_total assigns {len(assigned)} pids, G-PART made {len(pids)}")
    cap = {t.name: t.capacity_gb for t in cm.make_tiers(total_gb=total_gb)}
    for key in CAPACITY_POLICIES:
        used = results[key].assignment.groupby("tier")["stored_gb"].sum()
        for tier, gb in used.items():
            if tier != COOLEST_IN_PLAY and gb > cap[tier] * (1 + 1e-9):
                errs.append(f"{key}: {tier} holds {gb:.3f} GB > {cap[tier]:.3f} GB")
    if results["scope_total"].total_cost > results["default"].total_cost:
        errs.append("scope_total costs more than default")
    return errs


def parquet_size(pdf) -> int:
    """Bytes of ``pdf`` as uncompressed Parquet, written here with pyarrow so
    the stored-ratio base does not depend on the program's codecs."""
    sink = io.BytesIO()
    pq.write_table(pa.Table.from_pandas(pdf, preserve_index=False), sink,
                   compression="none")
    return len(sink.getvalue())


class Bench:
    """The state one run's cycles share: inputs, samples and tallies."""

    def __init__(self, args, tables, queries, plan_kw):
        self.tables, self.queries, self.plan_kw = tables, queries, plan_kw
        self.out = Path(args.out)
        self.total_gb = sum(tf.size_gb for tf in tables.values())
        # The partitions scope_policy_table plans; with the hash seed pinned
        # this untimed call yields the same layout and pids.
        parts = pipeline.gpart_partitions(
            tables, queries, s_thresh_frac=plan_kw["s_thresh_frac"],
            max_rows=plan_kw["max_rows"])
        self.samples = {p.pid: p.sample for p in parts}
        self.base_bytes = sum(parquet_size(s) for s in self.samples.values())
        # The pids each query of the log reads, ordered by the rows it reads
        # with ties in an order drawn from the workload seed. A cycle replays
        # a systematic sample of this order (see ``replay``).
        self.seed = args.seed
        queried = [q for q in queries if q.files]
        self.n_serve = min(len(queried),
                           SERVE_QUERIES[args.workload] if args.size == "full" else 20)
        self.passes = SERVE_PASSES[args.workload]
        reads = [[p.pid for p in parts if not q.files.isdisjoint(p.files)]
                 for q in queried]
        rows = [sum(len(self.samples[pid]) for pid in pids) for pids in reads]
        tie = np.random.default_rng(args.seed).permutation(len(reads))
        self.by_rows = [reads[i] for i in np.lexsort((tie, rows))]
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.put_rows = 0
        self.put_s = 0.0
        self.read_ms: list[float] = []
        self.stored_ratio: list[float] = []
        self.metered: list[float] = []
        self.decisions: list[dict] = []

    def tally(self, errs: list[str]) -> None:
        self.attempted += 1
        if errs:
            self.failed += 1
            self.errors.extend(errs[:3])

    def warm_up(self) -> None:
        """Load every codec and decoder once, before anything is timed."""
        pid, sample = next(iter(self.samples.items()))
        sample = sample.iloc[:50]
        store = tiers.TieredStore(self.out / "warm")
        for scheme in (codecs.NO_COMPRESSION, *pipeline.PIPELINE_SCHEMES):
            if scheme != codecs.NO_COMPRESSION:
                codecs.measure(sample, scheme, repeats=1)
            store.put(pid, sample, tier="hot", scheme=scheme)
            store.get(pid)
        shutil.rmtree(self.out / "warm")

    def replay(self, index: int) -> list[list[str]]:
        """Cycle ``index``'s queries: every (len / ``n_serve``)-th of
        ``by_rows`` from an offset drawn from the workload seed and the cycle.
        Each cycle so keeps the log's mix of small and large reads, on which
        the latency percentiles depend: the seed picks the queries, not how
        much they read."""
        rng = np.random.default_rng((self.seed, index))
        step = len(self.by_rows) / self.n_serve
        picked = ((np.arange(self.n_serve) + rng.random()) * step).astype(int)
        return [self.by_rows[i] for i in picked]

    def serve(self, store, index: int) -> None:
        """Replay cycle ``index``'s queries ``passes`` times, each pass in an
        order drawn from the workload seed, and record each query's median
        latency."""
        queries = self.replay(index)
        lat = [[] for _ in queries]
        for n in range(self.passes):
            for i in np.random.default_rng((self.seed, index, n)).permutation(len(queries)):
                errs = []
                t = time.perf_counter()
                for pid in queries[i]:
                    try:
                        got = store.get(pid)
                    except Exception as exc:  # a failed get is counted, not fatal
                        errs.append(f"get {pid}: {exc!r}")
                        continue
                    want = self.samples[pid]
                    if len(got) != len(want) or list(got.columns) != list(want.columns):
                        errs.append(f"get {pid}: {len(got)} rows {list(got.columns)[:3]}")
                lat[i].append((time.perf_counter() - t) * 1e3)
                self.tally(errs)
        self.read_ms.extend(statistics.median(x) for x in lat)

    def cycle(self, index: int) -> float:
        """Plan, place and serve once; returns the plan's wall time."""
        t = time.perf_counter()
        table, results = pipeline.scope_policy_table(
            self.tables, self.queries, months=MONTHS, **self.plan_kw)
        plan_s = time.perf_counter() - t
        self.tally(check_plan(table, results, set(self.samples), self.total_gb))
        assignment = results["scope_total"].assignment
        self.decisions.append(
            {r.pid: (r.tier, r.scheme) for r in assignment.itertuples()})

        root = self.out / f"store{index}"
        store = tiers.TieredStore(root)
        stored = 0
        for r in assignment.itertuples():
            sample = self.samples.get(r.pid)
            if sample is None:
                continue  # already counted by check_plan
            try:
                t = time.perf_counter()
                meta = store.put(r.pid, sample, tier=r.tier, scheme=r.scheme)
                self.put_s += time.perf_counter() - t
            except Exception as exc:  # a failed put is counted, not fatal
                self.tally([f"put {r.pid}: {exc!r}"])
                continue
            self.tally([])
            self.put_rows += len(sample)
            stored += meta.stored_bytes
        self.stored_ratio.append(stored / self.base_bytes)
        store.advance(MONTHS)

        self.serve(store, index)
        self.metered.append(store.meter.total / (self.base_bytes / 2**30))
        shutil.rmtree(root)
        return plan_s

    def decision_flips(self) -> int:
        """Partitions whose (tier, scheme) differs from the first cycle's."""
        first = self.decisions[0]
        return len({pid for d in self.decisions[1:] for pid in d.keys() | first.keys()
                    if d.get(pid) != first.get(pid)})


def run_cycles(bench: Bench, seconds: float, traced: Tracer | None) -> dict:
    """Cycle until the next cycle would end after ``seconds`` of wall time,
    and at least ``MIN_CYCLES`` times.

    Untraced, every cycle counts. Traced, cycles alternate untraced and
    traced so both plan times come from the same process and period."""
    plan = {False: [], True: []}
    layers: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        on = traced is not None and len(durations) % 2 == 1
        if on:
            offset = len(traced.spans)
            with traced:
                plan[True].append(bench.cycle(len(durations)))
            layers.append(layer_metrics(traced, offset))
        else:
            plan[False].append(bench.cycle(len(durations)))
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if len(durations) >= MIN_CYCLES and elapsed + statistics.median(durations) > seconds:
            break
    return {"plan": plan, "layers": layers}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(SIZES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    tables, queries, plan_kw = build_inputs(args.workload, args.size)
    setup_s = time.time() - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    bench = Bench(args, tables, queries, plan_kw)
    bench.warm_up()
    sys.stdin.readline()  # run.py's go: no other process of the run is busy
    tracer = Tracer() if args.mode == "trace" else None
    got = run_cycles(bench, args.seconds, tracer)
    result = {
        "setup_s": setup_s,
        "decision_flips": bench.decision_flips(),
        "cycles": len(bench.decisions),
        "plan_times": got["plan"][False],
        "attempted": bench.attempted,
        "failed": bench.failed,
        "errors": bench.errors[:10],
        "serve_queries": bench.n_serve,
        "serve_passes": bench.passes,
    }
    if tracer is None:
        lat = bench.read_ms
        result["metrics"] = {
            "plan_s": statistics.median(got["plan"][False]),
            "place_rows_s": bench.put_rows / bench.put_s,
            "read_p50_ms": statistics.median(lat),
            "read_p95_ms": statistics.quantiles(lat, n=20, method="inclusive")[18],
            "stored_ratio": statistics.median(bench.stored_ratio),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["read_samples"] = len(lat)
    else:
        layers = {k: statistics.median(d[k] for d in got["layers"])
                  for k in got["layers"][0]}
        traced_plan = statistics.median(got["plan"][True])
        layers.update({
            "queries.families": float(len(wq.workload_fileparts(queries))),
            "optassign.decision_flips": float(result["decision_flips"]),
            "tiers.metered_c_per_gb": statistics.median(bench.metered),
            "trace.plan_s": traced_plan,
            "trace.overhead_s": traced_plan - statistics.median(got["plan"][False]),
        })
        result["metrics"] = layers
        result["missing"] = tracer.missing
        (Path(args.out) / "spans.json").write_text(json.dumps(tracer.to_json()))
        querylog = Path(args.out) / "querylog.pkl"
        file_sizes = {f: s for tf in tables.values() for f, s in tf.file_sizes().items()}
        with open(querylog, "wb") as fh:
            pickle.dump({"queries": queries, "file_sizes": file_sizes,
                         "s_thresh_frac": plan_kw["s_thresh_frac"]}, fh)
        result["querylog"] = str(querylog)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
