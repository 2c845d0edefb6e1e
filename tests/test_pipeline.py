"""The unified SCOPe pipeline: partition construction, policy grid, and the
end-to-end tiered-write integration."""
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest

from repro import synth_data as sd
from repro.core import cost_model as cm
from repro.core import pipeline as pl
from repro.experiments import common
from repro.storage.tiers import TieredStore
from repro.workload import queries as wq


POLICY = {p.key: p for p in pl.POLICIES}
#: Volume for ``run_policy``'s capacities; only capacitated policies read it.
TOTAL = 1.0


@pytest.fixture(scope="module")
def setup():
    tables = common.enterprise_table_files(sf=0.002, n_files=10, seed=0)
    queries = wq.gen_zipf_workload(
        tables, n_queries=200, seed=0, sort_cols=sd.ENTERPRISE_SORT_COL
    )
    return tables, queries


@pytest.fixture(scope="module")
def grid(setup):
    tables, queries = setup
    return pl.scope_policy_table(tables, queries, max_rows=500, query_repeat=5.0)


class TestPartitionConstruction:
    def test_unpartitioned_one_per_table(self, setup):
        tables, queries = setup
        parts = pl.unpartitioned(tables, queries, max_rows=500)
        assert len(parts) == len(tables)
        assert sum(p.rho for p in parts) == len(queries)
        for p in parts:
            assert p.span_gb == pytest.approx(tables[p.table].size_gb)

    def test_gpart_partitions_cover_all_files(self, setup):
        tables, queries = setup
        parts = pl.gpart_partitions(tables, queries, max_rows=500)
        covered = set().union(*(set(p.files) for p in parts))
        all_files = {f.file_id for tf in tables.values() for f in tf.files}
        assert covered == all_files

    def test_gpart_rho_conserved(self, setup):
        tables, queries = setup
        parts = pl.gpart_partitions(tables, queries, max_rows=500)
        assert sum(p.rho for p in parts) == len(queries)

    def test_partition_samples_nonempty(self, setup):
        tables, queries = setup
        for p in pl.gpart_partitions(tables, queries, max_rows=500):
            assert len(p.sample) > 0
            assert len(p.sample) <= 500

    def test_partitions_single_table(self, setup):
        """G-PART never merges across tables (zero overlap)."""
        tables, queries = setup
        for p in pl.gpart_partitions(tables, queries, max_rows=100):
            tbls = {f.split("/")[0] for f in p.files}
            assert tbls == {p.table}


class TestMeasureAndPolicies:
    @pytest.fixture(scope="class")
    def parts_preds(self, setup):
        tables, queries = setup
        parts = pl.unpartitioned(tables, queries, max_rows=800)
        preds = pl.measure_partitions(parts, ("parquet+gzip", "csv+gzip"))
        return parts, preds

    def test_measure_schema(self, parts_preds):
        _, preds = parts_preds
        assert set(preds.columns) == {"pid", "scheme", "ratio", "decomp_sec_per_gb"}
        assert (preds["ratio"] > 0).all()
        assert list(pl.measure_partitions([]).columns) == list(preds.columns)

    def test_run_policy_premium_only(self, parts_preds):
        parts, _ = parts_preds
        r = pl.run_policy(POLICY["default"], parts, None, months=5.5, total_gb=TOTAL)
        assert r.tiering_scheme == [len(parts), 0, 0]
        assert r.decomp_cost == 0.0
        assert r.read_latency_s == pytest.approx(cm.TTFB["premium"])
        assert r.total_cost == pytest.approx(
            r.storage_cost + r.read_cost + r.decomp_cost
        )

    def test_compression_lowers_storage(self, parts_preds):
        parts, preds = parts_preds
        plain = pl.run_policy(POLICY["default"], parts, None, months=5.5, total_gb=TOTAL)
        comp = pl.run_policy(POLICY["ares"], parts, preds, months=5.5, total_gb=TOTAL)
        assert comp.storage_cost < plain.storage_cost

    def test_capacity_respected(self, parts_preds):
        parts, _ = parts_preds
        total = sum(p.span_gb for p in parts)
        r = pl.run_policy(POLICY["hermes"], parts, None, months=5.5, total_gb=total)
        usage = r.assignment.groupby("tier")["stored_gb"].sum()
        assert usage.get("premium", 0.0) <= cm.CAPACITY_FRACTION["premium"] * total + 1e-9
        assert usage.get("hot", 0.0) <= cm.CAPACITY_FRACTION["hot"] * total + 1e-9

    def test_latency_focused_minimises_latency(self, parts_preds):
        parts, preds = parts_preds
        lat = pl.run_policy(
            replace(POLICY["hcompress"], capacity=False), parts, preds,
            months=5.5, total_gb=TOTAL,
        )
        cost = pl.run_policy(POLICY["scope_nocap"], parts, preds, months=5.5, total_gb=TOTAL)
        assert lat.read_latency_s + lat.decomp_latency_ms / 1000 <= (
            cost.read_latency_s + cost.decomp_latency_ms / 1000 + 1e-12
        )
        # With no capacity pressure the latency optimum is premium + none.
        assert lat.decomp_latency_ms == pytest.approx(0.0)


class TestPolicyTable:
    @pytest.mark.parametrize("case", ["zipf_log", "empty_log", "one_file"])
    def test_eleven_rows(self, setup, grid, case):
        """Eleven finite rows, and every file stored in a planned partition;
        also on an empty query log and on a table split into one file."""
        tables, _ = setup
        if case == "zipf_log":
            table, results = grid
        else:
            queries = []
            if case == "one_file":
                tables = {"events": wq.split_table(
                    sd.enterprise_events_pdf(sf=0.002), "events", n_files=1, sort_col="ts")}
                queries = wq.gen_zipf_workload(
                    tables, n_queries=50, seed=0, sort_cols=sd.ENTERPRISE_SORT_COL)
            table, results = pl.scope_policy_table(
                tables, queries, max_rows=200, query_repeat=5.0)
        assert len(table) == 11
        assert len(results) == 11
        numbers = ["Storage", "Decomp", "Read", "Total", "TTFB(s)", "DecompLat(ms)"]
        assert np.isfinite(table[numbers].to_numpy(dtype=float)).all()
        files = {f.file_id for tf in tables.values() for f in tf.files}
        for r in results.values():
            assert set(r.assignment["pid"]) == {p.pid for p in r.partitions}
            assert set().union(*(p.files for p in r.partitions)) == files, r.policy.key

    def test_columns_match_paper(self, grid):
        table, _ = grid
        for col in ("Policy", "P", "T", "C", "Storage", "Decomp", "Read",
                    "Total", "TTFB(s)", "DecompLat(ms)", "Tiering"):
            assert col in table.columns

    def test_scope_total_beats_default(self, grid):
        """The paper's headline: SCOPe(total) wins by a large factor."""
        _, results = grid
        assert results["scope_total"].total_cost < 0.5 * results["default"].total_cost

    def test_nocap_is_cheapest_or_tied(self, grid):
        """Theorem 3: removing capacity constraints can only help the objective."""
        _, results = grid
        assert (
            results["scope_nocap"].total_cost
            <= results["scope_total"].total_cost + 1e-6
        )

    def test_partitioning_reduces_read_cost(self, grid):
        _, results = grid
        assert results["part_premium"].read_cost < results["default"].read_cost

    def test_flags(self, grid):
        _, results = grid
        assert not results["default"].policy.partitioned
        assert results["scope_total"].policy.partitioned
        assert results["ares"].policy.compressed and not results["ares"].policy.tiered
        assert results["hermes"].policy.tiered and not results["hermes"].policy.compressed

    def test_rows_follow_policies(self, grid):
        """One row per ``POLICIES`` entry, in order, with P/T/C from it."""
        table, results = grid
        keys = [p.key for p in pl.POLICIES]
        assert list(results) == keys
        assert list(table["Policy"]) == [p.name for p in pl.POLICIES]
        for p, row in zip(pl.POLICIES, table.itertuples(index=False)):
            assert results[p.key].policy is p
            assert (row.P, row.T, row.C) == tuple(
                "Y" if on else "-" for on in (p.partitioned, p.tiered, p.compressed)
            )

    def test_results_hold_the_partitions_they_assign(self, grid):
        _, results = grid
        for r in results.values():
            assert [p.pid for p in r.partitions] == list(r.assignment["pid"])
            assert set(r.perf["pid"]) == {p.pid for p in r.partitions if len(p.sample)}
        # One priced frame per partition list, shared like the list itself.
        perf_of = {}
        for r in results.values():
            assert perf_of.setdefault(id(r.partitions), r.perf) is r.perf
        assert len(perf_of) == 2

    def test_partitioned_policies_share_gpart_partitions(self, setup, grid):
        tables, queries = setup
        _, results = grid
        lists = {id(r.partitions) for r in results.values() if r.policy.partitioned}
        assert len(lists) == 1
        planned = results["scope_total"].partitions
        built = pl.gpart_partitions(tables, queries, max_rows=500)
        assert [(p.pid, p.files, p.span_gb) for p in planned] == [
            (p.pid, p.files, p.span_gb) for p in built
        ]


class TestTieredWriteIntegration:
    def test_assignment_written_through_store(self, grid, tmp_path):
        """End-to-end: OPTASSIGN's choices drive physical tiered writes of the
        partitions the plan assigned."""
        r = grid[1]["scope_total"]
        store = TieredStore(tmp_path / "lake")
        by_pid = {p.pid: p for p in r.partitions}
        for row in r.assignment.itertuples(index=False):
            store.put(row.pid, by_pid[row.pid].sample, tier=row.tier, scheme=row.scheme)
        assert len(store.catalog) == len(r.partitions)
        # Every object is physically on its assigned tier and decodable.
        some = r.assignment.iloc[0]
        assert (store.root / some.tier / some.pid).exists()
        back = store.get(some.pid)
        assert len(back) == len(by_pid[some.pid].sample)
        assert store.meter.write > 0 and store.meter.read > 0
