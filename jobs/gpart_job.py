"""DATAPART/G-PART as a Spark job: build query families distributively from
the (query_id, file) access log, then run the driver-side greedy merge."""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))  # spark-submit friendliness

from _common import get_spark
from repro import spark_ops
from repro import synth_data as sd
from repro.core.gpart import duplication, gpart, read_cost
from repro.experiments.common import enterprise_table_files
from repro.workload import queries as wq


def main(sf: float = 0.005, n_queries: int = 800, seed: int = 0) -> None:
    spark = get_spark("gpart")
    tables = enterprise_table_files(sf=sf, n_files=24, seed=seed)
    queries = wq.gen_zipf_workload(
        tables, n_queries=n_queries, seed=seed, sort_cols=sd.ENTERPRISE_SORT_COL
    )
    parts = spark_ops.query_families(spark_ops.access_log(spark, queries))
    file_sizes = {f.file_id: f.size_gb for tf in tables.values() for f in tf.files}
    total = sum(file_sizes.values())
    merged = gpart(parts, file_sizes, s_thresh=0.1 * total, rho_abs=50.0)
    print(f"{len(queries)} queries -> {len(parts)} families -> {len(merged)} partitions")
    print(f"duplication: {duplication(merged, file_sizes):.3f}")
    print(f"expected read cost: {read_cost(merged):.1f} GB-accesses")
    spark.stop()


if __name__ == "__main__":
    main()
