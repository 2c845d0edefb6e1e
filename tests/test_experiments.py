"""Per-table experiment harnesses at reduced scale: shapes and the paper's
qualitative orderings (full-scale numbers live in benchmarks/ + EXPERIMENTS.md)."""
import inspect

import pandas as pd
import pytest

from repro import synth_data as sd
from repro.experiments import (
    common,
    table02,
    table03,
    table04,
    table05,
    table06,
    table07,
    table08,
    table09,
    table10,
)


@pytest.fixture(scope="module")
def t03():
    return table03.run()


@pytest.fixture(scope="module")
def t04():
    return table04.run()


@pytest.fixture(scope="module")
def compredict_dataset():
    return table06.build_dataset(sf=0.003, n_per_template=4, max_rows=1200, repeats=1)


class TestCommon:
    def test_enterprise_seed_draws_the_tables(self):
        """Seed 0 gives the generators' default frames; seed 1 others."""
        t0 = common.enterprise_table_files(sf=0.002, seed=0)
        t1 = common.enterprise_table_files(sf=0.002, seed=1)
        for name, gen in sd.ENTERPRISE_PDF.items():
            default = gen(sf=0.002).sort_values(
                sd.ENTERPRISE_SORT_COL[name], ignore_index=True)
            pd.testing.assert_frame_equal(t0[name].pdf, default, check_exact=True)
            assert not t1[name].pdf.equals(t0[name].pdf)


class TestTable02:
    @pytest.fixture(scope="class")
    def one_customer(self):
        return table02.run_customer(n_datasets=150, target_pb=0.05, seed=22)

    def test_benefits_positive(self, one_customer):
        assert one_customer["2 mos"] > 0
        assert one_customer["6 mos"] > 0

    def test_six_month_archive_beats_two_month(self, one_customer):
        """The paper's core shape: the 6-month + Archive benefit exceeds the
        2-month hot/cool one (at this reduced dataset count the classifier is
        noisier than the full-scale bench, so only the ordering is asserted)."""
        assert one_customer["6 mos"] > one_customer["2 mos"]

    def test_size_scaled_to_target(self, one_customer):
        assert one_customer["Total Size (PB)"] == pytest.approx(0.05, rel=0.01)

    def test_paper_reference_recorded(self):
        assert list(table02.PAPER["Customer"]) == ["A", "B", "C", "D"]


class TestTable03:
    def test_f1_above_paper_threshold(self, t03):
        """§IV-C claims F1 > 0.96 for the access predictor."""
        _, res = t03
        assert res["f1_hot"] > 0.95
        assert res["f1_cool"] > 0.95

    def test_confusion_shape(self, t03):
        cmx, res = t03
        assert cmx.shape == (2, 2)
        assert cmx.to_numpy().sum() == res["n_datasets"]
        # Diagonal dominates, as in the paper's Table III.
        assert cmx.iloc[0, 0] > 10 * cmx.iloc[0, 1]
        assert cmx.iloc[1, 1] > 10 * cmx.iloc[1, 0]

    def test_account_scale(self, t03):
        _, res = t03
        assert res["total_tb"] == pytest.approx(700.0, rel=0.01)
        assert 600 <= res["n_datasets"] <= 760


class TestTable04:
    def test_row_count_and_columns(self, t04):
        assert len(t04) == 10
        assert list(t04.columns) == list(table04.PAPER.columns)

    def test_all_hot_zero(self, t04):
        assert t04.iloc[0]["Benefit %"] == 0.0

    def test_optassign_known_beats_recency_rules(self, t04):
        known4 = t04[(t04["Model"] == "OptAssign (Hot, Cool)")
                     & (t04["Access Information"] == "Known")
                     & (t04["Duration (months)"] == 4)]["Benefit %"].iloc[0]
        rec = t04[t04["Model"].str.startswith('"Hot"')]["Benefit %"].max()
        assert known4 > rec

    def test_predicted_close_to_known(self, t04):
        """Paper: 9.570 vs 9.574 — errors barely cost anything."""
        pred2 = t04[(t04["Access Information"] == "Predicted")
                    & (t04["Duration (months)"] == 2)]["Benefit %"].iloc[0]
        known2 = t04[(t04["Access Information"] == "Known")
                     & (t04["Duration (months)"] == 2)]["Benefit %"].iloc[0]
        assert pred2 > 0.7 * known2

    def test_benefit_grows_with_horizon(self, t04):
        known = t04[(t04["Model"] == "OptAssign (Hot, Cool)")
                    & (t04["Access Information"] == "Known")]
        vals = known.sort_values("Duration (months)")["Benefit %"].tolist()
        assert vals == sorted(vals)

    def test_archive_row_is_best(self, t04):
        arch = t04[t04["Model"] == "OptAssign (Hot, Cool, Archive)"]["Benefit %"].iloc[0]
        assert arch == t04["Benefit %"].max()
        assert arch > 25


class TestTable05:
    @pytest.fixture(scope="class")
    def t05(self):
        return table05.run(sf=0.003, n_per_template=4, max_rows=1200, repeats=1)

    def test_grid_shape(self, t05):
        assert len(t05) == 6
        assert list(t05.columns) == list(table05.PAPER.columns)

    def test_queries_entropy_best_for_ratio(self, t05):
        """The paper's headline ablation: query samples + weighted entropy."""
        ratio = t05[t05["Target"] == "Compression Ratio"].set_index(
            ["Training Data", "Features"]
        )
        best = ratio.loc[("Queries", "Weighted Entropy"), "MAPE"]
        worst = ratio.loc[("Random Samples", "Weighted Entropy"), "MAPE"]
        assert best < worst

    def test_query_training_beats_random(self, t05):
        """Strict on the ratio target (deterministic labels); loose on the
        decompression target whose labels are wall-clock and noisy when the
        whole suite runs under load."""
        for target, slack in (("Compression Ratio", 0.0), ("Decompression Speed", 1.0)):
            sub = t05[t05["Target"] == target]
            rnd = sub[sub["Training Data"] == "Random Samples"]["R2"].iloc[0]
            qry = sub[(sub["Training Data"] == "Queries")
                      & (sub["Features"] == "Weighted Entropy")]["R2"].iloc[0]
            assert qry > rnd - slack


class TestTables06to08:
    def test_table06_models_beat_averaging(self, compredict_dataset):
        grid = table06.run(dataset=compredict_dataset).set_index("Model")
        for scheme in ("gzip", "parquet + gzip"):
            avg = grid.loc["Averaging", f"{scheme} MAE"]
            rf = grid.loc["Random Forest", f"{scheme} MAE"]
            assert rf < avg

    def test_table06_r2_high_for_trees(self, compredict_dataset):
        grid = table06.run(dataset=compredict_dataset).set_index("Model")
        assert grid.loc["Random Forest", "gzip R2"] > 0.9
        assert grid.loc["XGBoost", "gzip R2"] > 0.9

    def test_table07_blocks(self, compredict_dataset):
        out = table07.run(
            datasets={"TPC-H 100GB": compredict_dataset, "TPC-H Skew": compredict_dataset}
        )
        assert set(out["Dataset"]) == {"TPC-H 100GB", "TPC-H Skew"}
        assert len(out) == 10  # 5 models x 2 blocks

    def test_table08_decompression_targets(self, compredict_dataset):
        out = table08.run(
            datasets={"TPC-H 100GB": compredict_dataset, "TPC-H Skew": compredict_dataset}
        ).set_index(["Dataset", "Model"])
        assert (
            out.loc[("TPC-H 100GB", "Random Forest"), "gzip MAE"]
            < out.loc[("TPC-H 100GB", "Averaging"), "gzip MAE"]
        )


    def test_tables07_08_request_the_same_datasets(self, monkeypatch):
        """Table VIII reports on exactly the datasets Table VII builds."""
        sig = inspect.signature(table06.build_dataset)
        calls = []

        def record(**kw):
            bound = sig.bind(**kw)
            bound.apply_defaults()
            calls.append(bound.arguments)
            return pd.DataFrame()

        monkeypatch.setattr(table06, "build_dataset", record)
        monkeypatch.setattr(common, "metrics_grid", lambda *a, **kw: pd.DataFrame({"Model": ["m"]}))
        table07.run()
        from_07, calls[:] = list(calls), []
        table08.run()
        assert len(from_07) == 2
        assert calls == from_07


class TestPipelineTablesSmall:
    def test_table09_small(self):
        tbl, results = table09.run(
            sf=0.003, n_queries=150, n_files=10, max_rows=400
        )
        assert len(tbl) == 11
        assert results["scope_total"].total_cost < results["default"].total_cost

    def test_table10_small(self):
        tbl, results = table10.run(
            sf=0.005, n_per_template=4, n_files=12, max_rows=400
        )
        assert len(tbl) == 11
        assert results["scope_total"].total_cost < results["default"].total_cost
        assert results["part_premium"].read_cost < results["default"].read_cost

    def test_paper_tables_recorded(self):
        for mod in (table09, table10):
            assert len(mod.PAPER) == 11
