"""Shared plumbing for the job entrypoints.

The jobs that process rows on Spark (``gpart_job``, ``compredict_job``)
build (or reuse) a SparkSession the same way conftest.py does; the table
jobs print a paper-vs-measured table. Run as::

    python jobs/<name>.py [args]
    # or: spark-submit jobs/<name>.py [args]
"""
from __future__ import annotations

import sys

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )


def show(title: str, paper, ours) -> None:
    print(f"\n=== {title} ===", flush=True)
    print("--- paper ---")
    print(paper.to_string(index=False) if hasattr(paper, "to_string") else paper)
    print("--- this reproduction ---")
    print(ours.to_string(index=False) if hasattr(ours, "to_string") else ours)
    sys.stdout.flush()
