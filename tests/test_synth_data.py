"""Synthetic data generators (TPC-H-lite extensions + enterprise tables)."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data as sd


class TestTpchPdf:
    @pytest.mark.parametrize("name", sorted(sd.TPCH_PDF))
    def test_deterministic(self, name):
        a = sd.TPCH_PDF[name](sf=0.002, seed=3)
        b = sd.TPCH_PDF[name](sf=0.002, seed=3)
        pd.testing.assert_frame_equal(a, b)

    @pytest.mark.parametrize("name", sorted(sd.TPCH_PDF))
    def test_sorted_by_clustering_column(self, name):
        pdf = sd.TPCH_PDF[name](sf=0.002)
        assert pdf[sd.TPCH_SORT_COL[name]].is_monotonic_increasing

    def test_sf_scales_rows(self):
        small = sd.lineitem_pdf(sf=0.001)
        big = sd.lineitem_pdf(sf=0.002)
        assert len(big) == pytest.approx(2 * len(small), rel=0.01)

    def test_lineitem_schema(self):
        pdf = sd.lineitem_pdf(sf=0.001)
        for col in ("l_orderkey", "l_suppkey", "l_shipmode", "l_comment",
                    "l_shipdate", "l_extendedprice"):
            assert col in pdf.columns

    def test_skew_concentrates_keys(self):
        uni = sd.lineitem_pdf(sf=0.005, skew=None)
        sk = sd.lineitem_pdf(sf=0.005, skew=3.0)
        top_uni = uni["l_partkey"].value_counts(normalize=True).iloc[0]
        top_sk = sk["l_partkey"].value_counts(normalize=True).iloc[0]
        assert top_sk > 10 * top_uni

    def test_comments_from_vocab(self):
        pdf = sd.part_pdf(sf=0.001)
        words = set(w for c in pdf["p_comment"] for w in c.split())
        assert words <= set(sd._VOCAB)


class TestEnterprisePdf:
    @pytest.mark.parametrize("name", sorted(sd.ENTERPRISE_PDF))
    def test_deterministic_and_sorted(self, name):
        a = sd.ENTERPRISE_PDF[name](sf=0.002)
        b = sd.ENTERPRISE_PDF[name](sf=0.002)
        pd.testing.assert_frame_equal(a, b)
        assert a[sd.ENTERPRISE_SORT_COL[name]].is_monotonic_increasing

    def test_events_skewed_users(self):
        ev = sd.enterprise_events_pdf(sf=0.005)
        share = ev["user_id"].value_counts(normalize=True).head(10).sum()
        assert share > 0.05  # heavy-tailed user activity

    def test_three_tables(self):
        assert set(sd.ENTERPRISE_PDF) == {"events", "profiles", "transactions"}

