"""The SCOPe jobs, one subcommand each; every one runs a table module's
own instance::

    python jobs/scope.py table 10    # Table X next to the paper's; any of 02..11
    python jobs/scope.py pipeline    # Table IX planned, then written to a TieredStore
    python jobs/scope.py gpart       # Table IX's query families on Spark, then G-PART
    python jobs/scope.py entropy     # weighted entropy of Table VI's tables on Spark
    # or: spark-submit jobs/scope.py <subcommand>

``gpart`` and ``entropy`` reuse the active SparkSession, or start one and
stop it when they finish.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import tempfile

from repro.core import pipeline as pl
from repro.core.gpart import duplication, gpart, read_cost
from repro.experiments import table06, table09
from repro.storage.tiers import TieredStore

TABLES = [f"{n:02d}" for n in range(2, 12)]


def show(title: str, paper, ours) -> None:
    print(f"\n=== {title} ===")
    print("--- paper ---")
    print(paper.to_string(index=False))
    print("--- this reproduction ---")
    print(ours.to_string(index=False), flush=True)


@contextlib.contextmanager
def spark_session(app: str):
    """The active SparkSession, or a new one that is stopped on exit."""
    from pyspark.sql import SparkSession

    active = SparkSession.getActiveSession()
    if active is not None:
        yield active
        return
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
    try:
        yield spark
    finally:
        spark.stop()


def table_job(nn: str) -> None:
    """One evaluation table, its module's instance, next to the paper's."""
    table = importlib.import_module(f"repro.experiments.table{nn}")
    out = table.run()
    show(f"Table {int(nn)}", table.PAPER, out[0] if isinstance(out, tuple) else out)


def pipeline_job() -> None:
    """Table IX's policy grid, then every partition that the total-cost
    SCOPe policy planned written to its tier in its codec; prints the
    store's metered write and storage bill over Table IX's horizon, at
    physical sample scale (not the model's logical GB), and its objects
    per tier."""
    tbl, results = table09.run()
    show("Table IX policy grid (Enterprise Data II stand-in)", table09.PAPER, tbl)
    planned = results["scope_total"]
    samples = {p.pid: p.sample for p in planned.partitions}
    with tempfile.TemporaryDirectory() as root:
        store = TieredStore(root)
        for row in planned.assignment.itertuples(index=False):
            store.put(row.pid, samples[row.pid], tier=row.tier, scheme=row.scheme)
        store.advance(table09.PLAN["months"])
        print("\nTiered-write bill (cents, physical sample scale):")
        print(f"  write={store.meter.write:.6f} storage={store.meter.storage:.6f}")
        print(f"  objects per tier: { {t: sum(1 for m in store.catalog.values() if m.tier == t) for t in store.tiers} }")


def gpart_job() -> None:
    """Table IX's query families grouped on Spark, then G-PART at Table IX's
    span cap and the pipeline's ρ thresholds."""
    from repro import spark_ops

    tables, queries = table09.inputs()
    with spark_session("gpart") as spark:
        parts = spark_ops.query_families(spark_ops.access_log(spark, queries))
    file_sizes = {f.file_id: f.size_gb for tf in tables.values() for f in tf.files}
    rho = inspect.signature(pl.gpart_partitions).parameters
    merged = gpart(
        parts,
        file_sizes,
        s_thresh=table09.PLAN["s_thresh_frac"] * sum(file_sizes.values()),
        rho_c=rho["rho_c"].default,
        rho_abs=rho["rho_abs"].default,
    )
    print(f"{len(queries)} queries -> {len(parts)} families -> {len(merged)} partitions")
    print(f"duplication: {duplication(merged, file_sizes):.3f}")
    print(f"expected read cost: {read_cost(merged):.1f} GB-accesses")


def entropy_job() -> None:
    """COMPREDICT's weighted-entropy features of Table VI's tables, on Spark."""
    from repro import spark_ops

    with spark_session("entropy") as spark:
        for name, tf in table06.inputs().items():
            feats = spark_ops.weighted_entropy(spark.createDataFrame(tf.pdf))
            print(name, {k: round(v, 2) for k, v in feats.items()})


#: The subcommands that take no argument.
JOBS = {"pipeline": pipeline_job, "gpart": gpart_job, "entropy": entropy_job}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="job", required=True)
    sub.add_parser("table").add_argument("nn", choices=TABLES)
    for name in JOBS:
        sub.add_parser(name)
    args = parser.parse_args(argv)
    if args.job == "table":
        table_job(args.nn)
    else:
        JOBS[args.job]()


if __name__ == "__main__":
    main()
