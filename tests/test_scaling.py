"""Cross-cutting properties: cost linearity in GB (the scale substitution's
justification) and Table-X vs Table-XI consistency at reduced scale."""
import pandas as pd
import pytest

from repro import synth_data as sd
from repro.core import cost_model as cm
from repro.core.pipeline import PIPELINE_SCHEMES, scope_policy_table
from repro.experiments import common
from repro.workload import queries as wq


class TestCostLinearity:
    """Every cost term is linear in GB, so logical-size scaling preserves
    policy rankings exactly (DESIGN.md substitution #3)."""

    @pytest.mark.parametrize("tier_idx", range(4))
    def test_assignment_cost_linear_in_span(self, tier_idx):
        t = cm.make_tiers()[tier_idx]
        a1 = cm.assignment_cost(span_gb=1.0, accesses=7.0, months=3.0, tier=t,
                                ratio=2.0, decomp_sec_per_gb=1.5)
        a10 = cm.assignment_cost(span_gb=10.0, accesses=7.0, months=3.0, tier=t,
                                 ratio=2.0, decomp_sec_per_gb=1.5)
        for field in ("storage", "read", "decompress", "transfer"):
            assert getattr(a10, field) == pytest.approx(10 * getattr(a1, field))

    def test_policy_table_scales_linearly(self):
        """Same data/workload, 10x logical size → 10x every cost column,
        identical tiering counts (the Table X → XI relationship)."""
        kw = dict(sf=0.003, n_files=10, seed=0)
        t_small = common.tpch_table_files(logical_total_gb=10.0, **kw)
        t_big = common.tpch_table_files(logical_total_gb=100.0, **kw)
        qs = wq.gen_tpch_workload(t_small, n_per_template=3, seed=0)
        qb = wq.gen_tpch_workload(t_big, n_per_template=3, seed=0)

        def fixed_perf(partitions):
            # One (ratio, sec/GB) per scheme, so both scales price the same
            # codecs; live timings would differ between the two calls.
            return pd.DataFrame(
                [{"pid": p.pid, "scheme": s, "ratio": 2.0 + i,
                  "decomp_sec_per_gb": 1.0 + 0.5 * i}
                 for p in partitions for i, s in enumerate(PIPELINE_SCHEMES)])

        plan_kw = dict(max_rows=300, query_repeat=5.0, perf=fixed_perf)
        tbl_s, res_s = scope_policy_table(t_small, qs, **plan_kw)
        tbl_b, res_b = scope_policy_table(t_big, qb, **plan_kw)
        # Exact 10x linearity for the unpartitioned policies. G-PART rows are
        # only compared on tier mix: fractional overlaps are scale-invariant
        # up to float ULPs, and near-ties in the merge heap may order
        # differently across scales, perturbing individual partition spans.
        for key in ("default", "ares", "hermes"):
            for cost in ("storage_cost", "read_cost", "decomp_cost", "total_cost"):
                assert getattr(res_b[key], cost) == pytest.approx(
                    10 * getattr(res_s[key], cost), rel=1e-6
                ), (key, cost)
            assert res_b[key].tiering_scheme == res_s[key].tiering_scheme
        assert res_s["ares"].decomp_cost > 0


class TestWorkloadScaleKnobs:
    def test_query_repeat_scales_read_cost_only(self):
        tables = common.enterprise_table_files(sf=0.002, n_files=8, seed=0)
        queries = wq.gen_zipf_workload(
            tables, n_queries=100, seed=0, sort_cols=sd.ENTERPRISE_SORT_COL
        )
        _, r1 = scope_policy_table(tables, queries, max_rows=200, query_repeat=1.0)
        _, r5 = scope_policy_table(tables, queries, max_rows=200, query_repeat=5.0)
        assert r5["default"].read_cost == pytest.approx(
            5 * r1["default"].read_cost, rel=1e-9
        )
        assert r5["default"].storage_cost == pytest.approx(
            r1["default"].storage_cost, rel=1e-9
        )
