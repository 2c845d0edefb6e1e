"""Tables I & XII constants and the OPTASSIGN cost formulas."""
import math

import pandas as pd
import pytest

from repro.core import cost_model as cm


class TestTableConstants:
    """The paper's published parameters, verbatim."""

    @pytest.mark.parametrize(
        "tier,expected",
        [("premium", 15.0), ("hot", 2.08), ("cool", 1.52), ("archive", 0.099)],
    )
    def test_storage_cost_table_xii(self, tier, expected):
        assert cm.STORAGE_COST[tier] == expected

    @pytest.mark.parametrize(
        "tier,expected",
        [("premium", 0.004659), ("hot", 0.01331), ("cool", 0.0333), ("archive", 16.64)],
    )
    def test_read_cost_table_xii(self, tier, expected):
        assert cm.READ_COST[tier] == expected

    @pytest.mark.parametrize(
        "tier,expected",
        [("premium", 0.0053), ("hot", 0.0614), ("cool", 0.0614), ("archive", 3600.0)],
    )
    def test_ttfb_table_xii(self, tier, expected):
        assert cm.TTFB[tier] == expected

    def test_compute_cost(self):
        assert cm.COMPUTE_COST == 0.001

    @pytest.mark.parametrize(
        "tier,frac",
        [("premium", 0.163), ("hot", 0.326), ("cool", 0.4891)],
    )
    def test_capacity_fractions(self, tier, frac):
        assert cm.CAPACITY_FRACTION[tier] == frac

    def test_archive_capacity_unbounded(self):
        assert cm.CAPACITY_FRACTION["archive"] == float("inf")

    def test_tier_order_latency(self):
        """Layer 0 is the lowest-latency layer (§IV-A)."""
        tiers = cm.make_tiers()
        assert tiers[0].name == "premium"
        assert tiers[-1].name == "archive"
        assert tiers[0].ttfb <= tiers[1].ttfb <= tiers[3].ttfb

    def test_storage_read_tradeoff(self):
        """Cheaper storage <-> pricier reads, monotonic across tiers."""
        names = list(cm.TIER_NAMES)
        for a, b in zip(names, names[1:]):
            assert cm.STORAGE_COST[a] > cm.STORAGE_COST[b]
            assert cm.READ_COST[a] < cm.READ_COST[b]

    def test_archive_min_months(self):
        assert cm.ARCHIVE_MIN_MONTHS == 6


class TestMakeTiers:
    def test_unbounded_by_default(self):
        for t in cm.make_tiers():
            assert math.isinf(t.capacity_gb)

    def test_capacity_from_total(self):
        tiers = {t.name: t for t in cm.make_tiers(total_gb=100.0)}
        assert tiers["premium"].capacity_gb == pytest.approx(16.3)
        assert tiers["hot"].capacity_gb == pytest.approx(32.6)
        assert tiers["cool"].capacity_gb == pytest.approx(48.91)
        assert math.isinf(tiers["archive"].capacity_gb)

    def test_subset(self):
        tiers = cm.make_tiers(("hot", "cool"))
        assert [t.name for t in tiers] == ["hot", "cool"]


class TestTierChange:
    def test_same_tier_free(self):
        assert cm.tier_change_cost("hot", "hot") == 0.0

    def test_new_data_write_only(self):
        """L(P) = -1: C^w_l = Δ(-1, l) (§IV-A)."""
        assert cm.tier_change_cost(None, "cool") == cm.WRITE_COST["cool"]

    def test_move_reads_source_writes_dest(self):
        assert cm.tier_change_cost("hot", "cool") == pytest.approx(
            cm.READ_COST["hot"] + cm.WRITE_COST["cool"]
        )

    def test_archive_read_dominates_exit_cost(self):
        assert cm.tier_change_cost("archive", "hot") > 16.0

    def test_series_equal_scalars(self):
        """Δ over Series of tier names, as the candidate frame and the
        access-log policy cost call it, equals Δ per pair."""
        src = pd.Series([s for s in (None, *cm.TIER_NAMES) for _ in cm.TIER_NAMES])
        dst = pd.Series([d for _ in (None, *cm.TIER_NAMES) for d in cm.TIER_NAMES])
        pairs = [cm.tier_change_cost(s, d) for s, d in zip(src, dst)]
        assert list(cm.tier_change_cost(src, dst)) == pairs
        assert list(cm.tier_change_cost("hot", dst[:4])) == pairs[8:12]


class TestAssignmentCost:
    def test_no_compression_terms(self):
        t = cm.make_tiers()[1]  # hot
        a = cm.assignment_cost(span_gb=10.0, accesses=4.0, months=3.0, tier=t)
        assert a.storage == pytest.approx(2.08 * 10 * 3)
        assert a.read == pytest.approx(4 * 0.01331 * 10)
        assert a.decompress == 0.0
        assert a.transfer == pytest.approx(cm.WRITE_COST["hot"] * 10)
        assert a.total == pytest.approx(a.storage + a.read + a.decompress + a.transfer)

    def test_compression_shrinks_storage_and_read(self):
        t = cm.make_tiers()[0]
        plain = cm.assignment_cost(span_gb=8.0, accesses=2.0, months=1.0, tier=t)
        comp = cm.assignment_cost(
            span_gb=8.0, accesses=2.0, months=1.0, tier=t, ratio=4.0,
            decomp_sec_per_gb=1.0,
        )
        assert comp.storage == pytest.approx(plain.storage / 4)
        assert comp.read == pytest.approx(plain.read / 4)
        assert comp.decompress == pytest.approx(2 * cm.COMPUTE_COST * 8.0)
        assert comp.decompress_latency == pytest.approx(8.0)

    def test_existing_same_tier_no_transfer(self):
        t = cm.make_tiers()[1]
        a = cm.assignment_cost(
            span_gb=1.0, accesses=0.0, months=1.0, tier=t, current_tier="hot"
        )
        assert a.transfer == 0.0

    def test_weighted_objective(self):
        t = cm.make_tiers()[2]
        a = cm.assignment_cost(span_gb=2.0, accesses=5.0, months=2.0, tier=t)
        w = cm.CostWeights(alpha=2.0, beta=0.5, gamma=0.0)
        assert a.weighted(w) == pytest.approx(
            2.0 * a.storage + 0.5 * (a.read + a.decompress)
        )

    def test_weighted_default_is_total(self):
        t = cm.make_tiers()[0]
        a = cm.assignment_cost(span_gb=2.0, accesses=5.0, months=2.0, tier=t)
        assert a.weighted(cm.CostWeights()) == pytest.approx(a.total)


class TestLatencyFeasible:
    def test_archive_violates_tight_threshold(self):
        arc = cm.make_tiers()[3]
        assert not cm.latency_feasible(
            span_gb=1.0, tier=arc, decomp_sec_per_gb=0.0, latency_threshold=1.0
        )

    def test_premium_meets_tight_threshold(self):
        prem = cm.make_tiers()[0]
        assert cm.latency_feasible(
            span_gb=1.0, tier=prem, decomp_sec_per_gb=0.0, latency_threshold=0.01
        )

    def test_decompression_counts_toward_latency(self):
        """Constraint 3: D + B_l <= T(P)."""
        prem = cm.make_tiers()[0]
        assert not cm.latency_feasible(
            span_gb=10.0, tier=prem, decomp_sec_per_gb=1.0, latency_threshold=5.0
        )
        assert cm.latency_feasible(
            span_gb=10.0, tier=prem, decomp_sec_per_gb=1.0, latency_threshold=10.1
        )
