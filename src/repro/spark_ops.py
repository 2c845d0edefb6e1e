"""The SCOPe steps that run as Spark DataFrame jobs over rows.

Apart from the test oracle :mod:`repro.oracle`, no other module of
:mod:`repro` imports pyspark, so the plan → place → serve path (query
families → G-PART → codec measurement → OPTASSIGN → tiered writes) never
starts a JVM. The two jobs here each equal a driver-side path, tested:

- :func:`query_families` — DATAPART's initial partitions (§VI) from a
  (query_id, file) access log; equals
  :func:`repro.workload.queries.workload_fileparts`.
- :func:`weighted_entropy` — COMPREDICT's per-datatype weighted entropy
  (§V); equals :func:`repro.core.compredict.weighted_entropy_pandas`.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.compredict import ENTROPY_FEATURES
from repro.core.gpart import FilePart
from repro.workload.queries import Query


def access_log(spark: SparkSession, queries: list[Query]) -> DataFrame:
    """The (query_id, file) access log of a workload, one row per file read."""
    return spark.createDataFrame(
        pd.DataFrame(
            [(q.query_id, f) for q in queries for f in sorted(q.files)],
            columns=["query_id", "file"],
        )
    )


def query_families(query_files: DataFrame) -> list[FilePart]:
    """Group a (query_id, file) access log into query families.

    A family is the set of queries reading exactly the same files; its ρ is
    the family's query count. Families are few (≤ #distinct file sets), so
    they are collected and numbered on the driver in the order of their
    sorted file lists, giving the same pids ``q0…`` as ``workload_fileparts``.
    """
    per_query = query_files.groupBy("query_id").agg(
        F.sort_array(F.collect_set("file")).alias("files")
    )
    fams = per_query.groupBy("files").count()
    rows = sorted((list(r["files"]), r["count"]) for r in fams.collect())
    return [
        FilePart(pid=f"q{i}", files=frozenset(files), rho=float(rho))
        for i, (files, rho) in enumerate(rows)
    ]


#: Spark types per datatype class; any other type counts as ``object``.
_SPARK_CLASS = {
    T.IntegerType: "int",
    T.LongType: "int",
    T.ShortType: "int",
    T.ByteType: "int",
    T.BooleanType: "int",
    T.FloatType: "float",
    T.DoubleType: "float",
    T.DecimalType: "float",
    T.TimestampType: "datetime",
    T.DateType: "datetime",
}


def weighted_entropy(df: DataFrame) -> dict[str, float]:
    """Distributed H(P, d): per class, stack columns (cast to string), count
    values, and aggregate ``-Σ len·pr·log pr`` with Catalyst expressions.

    Datetime columns are rendered as 'yyyy-MM-dd HH:mm:ss', as the pandas
    path renders them, so the two agree (tested).
    """
    feats = {f: 0.0 for f in ENTROPY_FEATURES}
    by_class: dict[str, list[str]] = {}
    for f_ in df.schema.fields:
        cls = _SPARK_CLASS.get(type(f_.dataType), "object")
        by_class.setdefault(cls, []).append(f_.name)
    for d, cols in by_class.items():
        stacked = None
        for c in cols:
            if d == "datetime":
                col = F.date_format(F.col(c), "yyyy-MM-dd HH:mm:ss")
            else:
                # A double -> string cast matches pandas str() for the
                # rounded floats the generators produce.
                col = F.col(c).cast("string")
            part = df.select(col.alias("v"))
            stacked = part if stacked is None else stacked.unionByName(part)
        counts = stacked.groupBy("v").agg(F.count("*").alias("c"))
        row = (
            counts.withColumn("total", F.sum("c").over(Window.partitionBy(F.lit(1))))
            .withColumn("pr", F.col("c") / F.col("total"))
            .agg(
                (-F.sum(F.length("v") * F.col("pr") * F.log(F.col("pr")))).alias("H")
            )
            .collect()[0]
        )
        feats[f"H_{d}"] = float(row["H"] or 0.0)
    return feats
