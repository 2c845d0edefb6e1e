"""Workload substrate: file splitting, query→file mapping (min/max pruning),
and oracle-checked Spark execution of the workload queries."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data as sd
from repro.oracle import assert_equivalent
from repro.workload import queries as wq


class TestSplitTable:
    def test_files_partition_all_rows(self, tables):
        for tf in tables.values():
            rows = sum(f.row_hi - f.row_lo for f in tf.files)
            assert rows == len(tf.pdf)
            assert tf.files[0].row_lo == 0
            assert tf.files[-1].row_hi == len(tf.pdf)
            for a, b in zip(tf.files, tf.files[1:]):
                assert a.row_hi == b.row_lo

    def test_logical_scaling(self, tables):
        total = sum(tf.size_gb for tf in tables.values())
        assert total == pytest.approx(100.0, rel=1e-6)

    def test_minmax_stats_correct(self, tables):
        tf = tables["lineitem"]
        f = tf.files[2]
        block = tf.pdf.iloc[f.row_lo : f.row_hi]
        lo, hi = f.stats["l_shipdate"]
        assert lo == block["l_shipdate"].min()
        assert hi == block["l_shipdate"].max()

    def test_sorted_by_clustering_column(self, tables):
        dates = tables["lineitem"].pdf["l_shipdate"]
        assert dates.is_monotonic_increasing

    def test_more_files_than_rows_clamped(self):
        pdf = pd.DataFrame({"a": [1, 2, 3]})
        tf = wq.split_table(pdf, "t", n_files=10)
        assert len(tf.files) == 3


class TestQueryFileMapping:
    def test_every_query_touches_files(self, workload):
        assert all(len(q.files) >= 1 for q in workload)

    def test_mapping_is_sound(self, tables, workload):
        """Every row the predicate selects lives in a mapped file (no false
        negatives — pruning must be conservative)."""
        for q in workload[::7]:
            tf = tables[q.table]
            res = wq.run_query_pandas(tf.pdf, q)
            if res.empty:
                continue
            mapped_rows = set()
            by_id = {f.file_id: f for f in tf.files}
            for fid in q.files:
                f = by_id[fid]
                mapped_rows.update(range(f.row_lo, f.row_hi))
            # Count rows selected outside mapped files by re-running on the
            # complement; it must be empty.
            unmapped = tf.pdf.iloc[sorted(set(range(len(tf.pdf))) - mapped_rows)]
            if len(unmapped):
                left_over = wq.run_query_pandas(unmapped, q)
                assert left_over.empty

    def test_date_windows_quantised(self, tables):
        qs = wq.gen_tpch_workload(tables, n_per_template=20, seed=1)
        fams = wq.workload_fileparts(qs)
        # Tumbling quantisation keeps the family count well below the query
        # count (the structure DATAPART exploits).
        assert len(fams) < len(qs) / 2

    def test_cat_eq_touches_all_files(self, tables):
        qs = [
            q for q in wq.gen_tpch_workload(tables, n_per_template=2, seed=2)
            if q.query_id.startswith("q09")
        ]
        assert all(len(q.files) == len(tables["part"].files) for q in qs)

    def test_workload_fileparts_rho_counts_queries(self, workload):
        fams = wq.workload_fileparts(workload)
        assert sum(p.rho for p in fams) == len(workload)


class TestZipfWorkload:
    def test_recency_skew(self):
        from repro.experiments.common import enterprise_table_files

        tables = enterprise_table_files(sf=0.002, n_files=10)
        qs = wq.gen_zipf_workload(
            tables, n_queries=300, seed=0, sort_cols=sd.ENTERPRISE_SORT_COL
        )
        assert len(qs) == 300
        # Last file of each table must be far more popular than the first.
        last_hits = sum(
            1 for q in qs if any(f.endswith(f"f{len(tables[q.table].files)-1:04d}") for f in q.files)
        )
        first_hits = sum(1 for q in qs if any(f.endswith("f0000") for f in q.files))
        assert last_hits > 3 * max(first_hits, 1)

    def test_deterministic(self):
        from repro.experiments.common import enterprise_table_files

        tables = enterprise_table_files(sf=0.002, n_files=6)
        a = wq.gen_zipf_workload(tables, n_queries=50, seed=3, sort_cols=sd.ENTERPRISE_SORT_COL)
        b = wq.gen_zipf_workload(tables, n_queries=50, seed=3, sort_cols=sd.ENTERPRISE_SORT_COL)
        assert [q.where for q in a] == [q.where for q in b]


class TestSparkExecutionOracle:
    """Spark results for the workload queries are diffed against DuckDB —
    the repository's required correctness check for query results."""

    @pytest.mark.parametrize("template", ["q01", "q03", "q05", "q09", "q17"])
    def test_query_matches_duckdb(self, spark, tables, workload, template):
        q = next(x for x in workload if x.query_id.startswith(template))
        tf = tables[q.table]
        spark.createDataFrame(tf.pdf).createOrReplaceTempView(f"_q_{q.table}")
        got = spark.sql(q.sql(relation=f"_q_{q.table}"))
        assert_equivalent(got, q.sql(), **{q.table: tf.pdf})

    def test_aggregation_query_matches_duckdb(self, spark, tables):
        """A TPC-H-Q1-style aggregate over the lite schema."""
        pdf = tables["lineitem"].pdf
        sdf = spark.createDataFrame(pdf)
        sdf.createOrReplaceTempView("lineitem_q1")
        sql = (
            "SELECT l_returnflag AS rf, l_linestatus AS ls, "
            "SUM(l_quantity) AS sum_qty, "
            "SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
            "COUNT(*) AS n "
            "FROM {rel} "
            "WHERE l_shipdate <= TIMESTAMP '1998-09-01 00:00:00' "
            "GROUP BY l_returnflag, l_linestatus"
        )
        got = spark.sql(sql.format(rel="lineitem_q1"))
        assert_equivalent(got, sql.format(rel="lineitem"), lineitem=pdf)

    def test_join_query_matches_duckdb(self, spark, tables):
        """A Q3-style join exercising the shuffle path (broadcast disabled)."""
        li, od = tables["lineitem"].pdf, tables["orders"].pdf
        spark.createDataFrame(li).createOrReplaceTempView("li_j")
        spark.createDataFrame(od).createOrReplaceTempView("od_j")
        sql = (
            "SELECT o_orderpriority AS pr, COUNT(*) AS n, "
            "SUM(l_extendedprice) AS rev "
            "FROM {li} JOIN {od} ON l_orderkey = o_orderkey "
            "WHERE o_orderdate >= TIMESTAMP '1994-01-01 00:00:00' "
            "GROUP BY o_orderpriority"
        )
        got = spark.sql(sql.format(li="li_j", od="od_j"))
        assert_equivalent(
            got, sql.format(li="lineitem", od="orders"), lineitem=li, orders=od
        )
