"""Exact ILP solvers: OPTASSIGN branch-and-bound, MERGE PARTITIONS set-cover,
and the NP-hardness reduction constructions (Theorems 1 and 4)."""
import math

import pytest

from repro.core import cost_model as cm
from repro.core.gpart import FilePart, merge_feasible, span_of
from repro.core.ilp import (
    NO_COMPRESSION_PRED,
    PartitionSpec,
    SchemePrediction,
    enumerate_options,
    solve_merge_partitions_exact,
    solve_optassign_exact,
)


def _tiers(*names, total=None):
    return [t for t in cm.make_tiers(total_gb=total) if not names or t.name in names]


class TestEnumerateOptions:
    def test_none_scheme_always_candidate(self):
        p = PartitionSpec("p", 1.0, 0.0)
        opts = enumerate_options(p, _tiers("hot"), [], months=1.0)
        assert [o.scheme for o in opts] == ["none"]

    def test_latency_filters_archive(self):
        p = PartitionSpec("p", 1.0, 0.0, latency_threshold=10.0)
        opts = enumerate_options(
            p, _tiers(), [], months=12.0, enforce_archive_residency=False
        )
        assert "archive" not in {o.tier for o in opts}

    def test_archive_residency_enforced(self):
        p = PartitionSpec("p", 1.0, 0.0)
        short = enumerate_options(p, _tiers(), [], months=2.0)
        long = enumerate_options(p, _tiers(), [], months=6.0)
        assert "archive" not in {o.tier for o in short}
        assert "archive" in {o.tier for o in long}

    def test_fixed_scheme_restricts(self):
        """Last ILP equality: existing partitions keep their scheme."""
        p = PartitionSpec("p", 1.0, 0.0, fixed_scheme="parquet+gzip")
        preds = [SchemePrediction("parquet+gzip", 2.0, 0.1)]
        opts = enumerate_options(p, _tiers("hot"), preds, months=1.0)
        assert {o.scheme for o in opts} == {"parquet+gzip"}

    def test_fixed_scheme_missing_prediction_raises(self):
        p = PartitionSpec("p", 1.0, 0.0, fixed_scheme="parquet+lz4")
        with pytest.raises(ValueError):
            enumerate_options(p, _tiers("hot"), [], months=1.0)

    def test_decompression_latency_excludes_scheme(self):
        p = PartitionSpec("p", 10.0, 1.0, latency_threshold=1.0)
        preds = [SchemePrediction("csv+gzip", 3.0, 5.0)]  # D = 50s > 1s
        opts = enumerate_options(p, _tiers("premium"), preds, months=1.0)
        assert {o.scheme for o in opts} == {"none"}


class TestExactOptAssign:
    def test_cold_data_goes_cool(self):
        parts = [PartitionSpec("p", 10.0, 0.0)]
        assign, _ = solve_optassign_exact(parts, _tiers("premium", "hot", "cool"), {}, months=2.0)
        assert assign["p"].tier == "cool"

    def test_hot_data_stays_premium(self):
        parts = [PartitionSpec("p", 1.0, 100_000.0)]
        assign, _ = solve_optassign_exact(parts, _tiers("premium", "cool"), {}, months=1.0)
        assert assign["p"].tier == "premium"

    def test_capacity_forces_split(self):
        tiers = [
            cm.Tier("hot", 2.08, 0.01331, 0.0266, 0.06, capacity_gb=1.0),
            cm.Tier("cool", 1.52, 0.0333, 0.0666, 0.06, capacity_gb=float("inf")),
        ]
        parts = [PartitionSpec(f"p{i}", 1.0, 1000.0) for i in range(3)]
        assign, _ = solve_optassign_exact(parts, tiers, {}, months=1.0)
        by_tier = [a.tier for a in assign.values()]
        assert by_tier.count("hot") == 1 and by_tier.count("cool") == 2

    def test_compression_chosen_when_it_pays(self):
        parts = [PartitionSpec("p", 100.0, 0.0)]
        preds = {"p": [SchemePrediction("parquet+gzip", 4.0, 0.1)]}
        assign, _ = solve_optassign_exact(parts, _tiers("cool"), preds, months=3.0)
        assert assign["p"].scheme == "parquet+gzip"

    def test_compression_rejected_when_reads_dominate(self):
        """Huge decompression compute outweighs storage saving."""
        parts = [PartitionSpec("p", 1.0, 1_000_000.0)]
        preds = {"p": [SchemePrediction("csv+gzip", 1.01, 100.0)]}
        assign, _ = solve_optassign_exact(parts, _tiers("premium"), preds, months=1.0)
        assert assign["p"].scheme == "none"

    def test_infeasible_capacity_raises(self):
        tiers = [cm.Tier("hot", 2.08, 0.013, 0.026, 0.06, capacity_gb=0.5)]
        parts = [PartitionSpec("p", 1.0, 0.0)]
        with pytest.raises(ValueError):
            solve_optassign_exact(parts, tiers, {}, months=1.0)

    def test_instance_size_guard(self):
        parts = [PartitionSpec(f"p{i}", 1.0, 0.0) for i in range(20)]
        with pytest.raises(ValueError):
            solve_optassign_exact(parts, _tiers("hot"), {}, months=1.0)

    def test_three_partition_reduction(self):
        """Theorem 1's reduction skeleton: 3-PARTITION ↔ OPTASSIGN capacity
        feasibility. YES instance packs; shrinking any capacity breaks it."""
        items = [5.0, 5.0, 4.0, 4.0, 3.0, 3.0]  # v=2 groups summing to B=12
        B, v = 12.0, 2
        tiers = [
            cm.Tier(f"t{j}", 0.0, 0.0, 0.0, 0.0, capacity_gb=B) for j in range(v)
        ]
        parts = [PartitionSpec(f"a{i}", s, 0.0) for i, s in enumerate(items)]
        assign, cost = solve_optassign_exact(
            parts, tiers, {}, months=1.0, enforce_archive_residency=False
        )
        assert cost == 0.0
        per_tier = {}
        for pid, o in assign.items():
            per_tier[o.tier] = per_tier.get(o.tier, 0.0) + o.stored_gb
        assert all(v_ == pytest.approx(B) for v_ in per_tier.values())
        tight = [
            cm.Tier(f"t{j}", 0.0, 0.0, 0.0, 0.0, capacity_gb=B - 1) for j in range(v)
        ]
        with pytest.raises(ValueError):
            solve_optassign_exact(parts, tight, {}, months=1.0)


class TestMergeFeasible:
    def test_ratio_condition(self):
        a = FilePart("a", frozenset("x"), 10.0)
        b = FilePart("b", frozenset("y"), 25.0)
        assert merge_feasible(a, b, rho_c=3.0, rho_abs=0.0)
        assert not merge_feasible(a, b, rho_c=2.0, rho_abs=0.0)

    def test_absolute_condition(self):
        a = FilePart("a", frozenset("x"), 0.0)
        b = FilePart("b", frozenset("y"), 5.0)
        assert not merge_feasible(a, b, rho_c=100.0, rho_abs=0.0)  # 0 blocks ratio
        assert merge_feasible(a, b, rho_c=100.0, rho_abs=5.0)

    def test_span_of(self):
        assert span_of(frozenset(["f1", "f2"]), {"f1": 1.5, "f2": 2.5}) == 4.0


class TestMergePartitionsExact:
    FS = {f"f{i}": 1.0 for i in range(8)}

    def test_overlapping_pair_merges(self):
        parts = [
            FilePart("a", frozenset(["f0", "f1", "f2"]), 1.0),
            FilePart("b", frozenset(["f1", "f2", "f3"]), 1.0),
        ]
        sel, space, cost = solve_merge_partitions_exact(
            parts, self.FS, c_thresh=100.0
        )
        assert sel == [frozenset({"a", "b"})]
        assert space == 4.0
        assert cost == 8.0  # span 4 x rho 2

    def test_budget_blocks_merge(self):
        """A tight read budget forces the smaller-cost cover."""
        parts = [
            FilePart("a", frozenset(["f0", "f1", "f2"]), 1.0),
            FilePart("b", frozenset(["f1", "f2", "f3"]), 1.0),
        ]
        sel, space, cost = solve_merge_partitions_exact(parts, self.FS, c_thresh=7.0)
        assert space == 6.0  # two singletons (3 + 3)
        assert cost == 6.0

    def test_disjoint_parts_stay_separate(self):
        parts = [
            FilePart("a", frozenset(["f0"]), 1.0),
            FilePart("b", frozenset(["f1"]), 1.0),
        ]
        sel, space, _ = solve_merge_partitions_exact(parts, self.FS, c_thresh=100.0)
        assert space == 2.0  # merging disjoint sets would not reduce space

    def test_infeasible_budget_raises(self):
        parts = [FilePart("a", frozenset(["f0"]), 5.0)]
        with pytest.raises(ValueError):
            solve_merge_partitions_exact(parts, self.FS, c_thresh=1.0)

    def test_access_feasibility_respected(self):
        parts = [
            FilePart("a", frozenset(["f0", "f1"]), 1.0),
            FilePart("b", frozenset(["f1", "f2"]), 100.0),
        ]
        sel, space, _ = solve_merge_partitions_exact(
            parts, self.FS, c_thresh=1e9, rho_c=2.0, rho_abs=0.0
        )
        assert frozenset({"a", "b"}) not in sel

    def test_size_guard(self):
        parts = [FilePart(f"p{i}", frozenset([f"f{i}"]), 1.0) for i in range(8)]
        with pytest.raises(ValueError):
            solve_merge_partitions_exact(parts, self.FS, c_thresh=1e9)
