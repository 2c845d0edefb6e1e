"""DATAPART: query families, the ordered-partition DP (Theorem 5), and the
ε-bucketed approximation scheme (Theorem 6)."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import spark_ops
from repro.core.datapart import (
    Interval,
    _union_length,
    merge_stats,
    ordered_approx,
    ordered_brute_force,
    ordered_dp,
)
from repro.core.gpart import FilePart
from repro.workload.queries import Query, workload_fileparts


def _random_intervals(n, seed):
    """Ordered intervals with strictly increasing ends and overlaps."""
    g = np.random.default_rng(seed)
    out, end = [], 0.0
    for _ in range(n):
        end += float(g.integers(2, 8))
        start = max(0.0, end - float(g.integers(3, 12)))
        out.append(Interval(start, end, float(g.integers(1, 5))))
    return out


class TestUnionLength:
    def test_disjoint(self):
        assert _union_length([Interval(0, 2, 1), Interval(5, 6, 1)]) == 3.0

    def test_overlapping(self):
        assert _union_length([Interval(0, 5, 1), Interval(3, 8, 1)]) == 8.0

    def test_nested(self):
        assert _union_length([Interval(0, 10, 1), Interval(2, 4, 1)]) == 10.0

    def test_empty(self):
        assert _union_length([]) == 0.0

    def test_merge_stats_cost(self):
        ivs = [Interval(0, 4, 2), Interval(2, 6, 3)]
        sp, c = merge_stats(ivs)
        assert sp == 6.0
        assert c == 6.0 * 5


class TestOrderedDP:
    def test_requires_increasing_ends(self):
        with pytest.raises(ValueError):
            ordered_dp([Interval(0, 5, 1), Interval(1, 5, 1)], 100)

    def test_generous_budget_merges_everything_overlapping(self):
        ivs = [Interval(0, 10, 1), Interval(5, 15, 1), Interval(12, 20, 1)]
        space, merges = ordered_dp(ivs, 10_000)
        assert space == 20.0
        assert merges == [(0, 2)]

    def test_tight_budget_keeps_singletons(self):
        ivs = [Interval(0, 10, 5), Interval(5, 15, 5), Interval(12, 20, 5)]
        singleton_cost = sum(math.ceil(iv.length * iv.rho) for iv in ivs)
        space, merges = ordered_dp(ivs, singleton_cost)
        assert merges == [(0, 0), (1, 1), (2, 2)]
        assert space == sum(iv.length for iv in ivs)

    def test_infeasible_raises(self):
        ivs = [Interval(0, 10, 5)]
        with pytest.raises(ValueError):
            ordered_dp(ivs, 10)  # cost 50 > 10

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        ivs = _random_intervals(6, seed)
        budget = int(sum(iv.length * iv.rho for iv in ivs))  # singletons feasible
        sp_dp, m_dp = ordered_dp(ivs, budget)
        sp_bf, _ = ordered_brute_force(ivs, budget)
        assert sp_dp == pytest.approx(sp_bf)
        # The DP's own merges must respect the budget and cover everything.
        tot_c = sum(merge_stats(ivs[a : b + 1])[1] for a, b in m_dp)
        assert tot_c <= budget + 1e-9
        covered = sorted(i for a, b in m_dp for i in range(a, b + 1))
        assert covered == list(range(len(ivs)))

    @given(st.integers(0, 1000), st.integers(3, 7))
    @settings(max_examples=15, deadline=None)
    def test_space_decreases_with_budget(self, seed, n):
        ivs = _random_intervals(n, seed)
        lo_budget = int(sum(iv.length * iv.rho for iv in ivs))
        hi_budget = 10 * lo_budget
        sp_lo, _ = ordered_dp(ivs, lo_budget)
        sp_hi, _ = ordered_dp(ivs, hi_budget)
        assert sp_hi <= sp_lo + 1e-9


class TestTheorem6:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("eps", [0.5, 0.1])
    def test_bicriteria_bounds(self, seed, eps):
        ivs = _random_intervals(5, seed)
        c_thresh = float(int(sum(iv.length * iv.rho for iv in ivs)))
        space_exact, _ = ordered_dp(ivs, int(c_thresh))
        space_apx, cost_apx, merges = ordered_approx(ivs, c_thresh, eps=eps)
        n = len(ivs)
        assert space_apx <= space_exact + 1e-9  # space <= S_OPT
        assert cost_apx <= (1 + n * eps) * c_thresh + 1e-6  # cost <= (1+Nε)C
        covered = sorted(i for a, b in merges for i in range(a, b + 1))
        assert covered == list(range(n))

    def test_eps_validated(self):
        with pytest.raises(ValueError):
            ordered_approx([Interval(0, 1, 1)], 10.0, eps=0.0)


class TestInitialPartitions:
    LOG = [
        Query("q1", "t", "", frozenset(["f0", "f1"])),
        Query("q2", "t", "", frozenset(["f1", "f0"])),
        Query("q3", "t", "", frozenset(["f2"])),
        Query("q4", "t", "", frozenset(["f2"])),
        Query("q5", "t", "", frozenset(["f0"])),
    ]

    def test_python_families(self):
        assert workload_fileparts(self.LOG) == [
            FilePart("q0", frozenset(["f0"]), 1.0),
            FilePart("q1", frozenset(["f0", "f1"]), 2.0),
            FilePart("q2", frozenset(["f2"]), 2.0),
        ]

    def test_spark_matches_python(self, spark, workload):
        for queries in (self.LOG, workload):
            got = spark_ops.query_families(spark_ops.access_log(spark, queries))
            assert got == workload_fileparts(queries)
