"""Enterprise access-log simulator + access-predictor machinery (§IV-C)."""
import pandas as pd
import pytest

from repro.core import cost_model as cm
from repro.workload import access_logs as al


@pytest.fixture(scope="module")
def sim():
    return al.gen_enterprise_logs(n_datasets=120, months=24, seed=11)


class TestGenerator:
    def test_shapes(self, sim):
        meta, logs = sim
        assert len(meta) == 120
        assert set(meta.columns) == {"dataset_id", "size_gb", "created_month", "pattern"}
        assert set(logs.columns) == {"dataset_id", "month", "reads", "writes"}
        assert (logs["reads"] >= 0).all() and (logs["writes"] >= 0).all()

    def test_deterministic(self):
        a = al.gen_enterprise_logs(n_datasets=30, months=12, seed=5)
        b = al.gen_enterprise_logs(n_datasets=30, months=12, seed=5)
        pd.testing.assert_frame_equal(a[0], b[0])
        pd.testing.assert_frame_equal(a[1], b[1])

    def test_total_gb_rescales_sizes_only(self):
        plain_meta, plain_logs = al.gen_enterprise_logs(n_datasets=30, months=12, seed=5)
        meta, logs = al.gen_enterprise_logs(
            n_datasets=30, months=12, seed=5, total_gb=1234.5
        )
        assert meta["size_gb"].sum() == pytest.approx(1234.5, rel=1e-12)
        pd.testing.assert_frame_equal(logs, plain_logs)
        cols = ["dataset_id", "created_month", "pattern"]
        pd.testing.assert_frame_equal(meta[cols], plain_meta[cols])

    def test_logs_start_at_creation(self, sim):
        meta, logs = sim
        first = logs.groupby("dataset_id")["month"].min()
        created = meta.set_index("dataset_id")["created_month"]
        assert (first == created.reindex(first.index)).all()

    def test_decay_pattern_decreases(self, sim):
        meta, logs = sim
        decays = meta[meta["pattern"] == "decay"]["dataset_id"]
        df = logs[logs["dataset_id"].isin(decays)].merge(
            meta[["dataset_id", "created_month"]], on="dataset_id"
        )
        df["age"] = df["month"] - df["created_month"]
        young = df[df["age"] <= 1]["reads"].mean()
        old = df[df["age"] >= 8]["reads"].mean()
        assert young > 3 * max(old, 0.01)

    def test_inactive_mostly_zero(self, sim):
        meta, logs = sim
        inact = meta[meta["pattern"] == "inactive"]["dataset_id"]
        reads = logs[logs["dataset_id"].isin(inact)]["reads"]
        assert (reads == 0).mean() > 0.9

    def test_periodic_peaks_in_season(self, sim):
        meta, logs = sim
        per = meta[meta["pattern"] == "periodic"]["dataset_id"]
        df = logs[logs["dataset_id"].isin(per)]
        in_season = df[df["month"] % 12 <= 1]["reads"].mean()
        off = df[df["month"] % 12 > 1]["reads"].mean()
        assert in_season > 5 * max(off, 0.01)

    def test_access_skew(self, sim):
        """Fig 1a: a few datasets dominate total reads."""
        _, logs = sim
        per_ds = logs.groupby("dataset_id")["reads"].sum().sort_values(ascending=False)
        top10 = per_ds.head(len(per_ds) // 10).sum()
        assert top10 / max(per_ds.sum(), 1) > 0.5


class TestFeaturesAndLabels:
    def test_feature_frame_columns(self, sim):
        meta, logs = sim
        f = al.feature_frame(meta, logs, t0=12, window=3)
        assert set(al.FEATURE_COLS(3)).issubset(f.columns)
        assert (f["age_months"] == 12 - meta["created_month"]).all()

    def test_feature_reads_match_logs(self, sim):
        meta, logs = sim
        f = al.feature_frame(meta, logs, t0=12, window=2).set_index("dataset_id")
        row = logs[(logs["month"] == 11)].set_index("dataset_id")["reads"]
        ds = row.index[0]
        assert f.loc[ds, "reads_m1"] == row.loc[ds]

    def test_future_reads_window(self, sim):
        _, logs = sim
        fr = al.future_reads(logs, 10, 2)
        manual = logs[(logs["month"] >= 10) & (logs["month"] < 12)]
        assert fr.sum() == manual["reads"].sum()

    def test_ideal_tiers_break_even(self):
        """Hot wins iff reads exceed the hot/cool break-even point."""
        meta = pd.DataFrame(
            {
                "dataset_id": ["cold", "warm"],
                "size_gb": [100.0, 100.0],
                "created_month": [0, 0],
                "pattern": ["constant", "constant"],
            }
        )
        horizon = 2
        # Analytic break-even: reads* = Δstorage x months / Δread-cost.
        be = (
            (cm.STORAGE_COST["hot"] - cm.STORAGE_COST["cool"]) * horizon
            - cm.tier_change_cost("hot", "cool")
        ) / (cm.READ_COST["cool"] - cm.READ_COST["hot"])
        rows = []
        for m in range(10, 10 + horizon):
            rows.append({"dataset_id": "cold", "month": m, "reads": 0, "writes": 0})
            rows.append(
                {"dataset_id": "warm", "month": m, "reads": int(be) + 10, "writes": 0}
            )
        logs = pd.DataFrame(rows)
        out = al.ideal_tiers(meta, logs, t0=10, horizon=horizon).set_index("pid")
        assert out.loc["cold", "tier"] == "cool"
        assert out.loc["warm", "tier"] == "hot"

    def test_ideal_tiers_excludes_future_datasets(self, sim):
        meta, logs = sim
        out = al.ideal_tiers(meta, logs, t0=5, horizon=2)
        created = meta.set_index("dataset_id")["created_month"]
        assert (created.reindex(out["pid"]) <= 5).all()


class TestPredictor:
    T0, HORIZON, WINDOW = 16, 2, 4

    def _predict(self, meta, logs):
        clf = al.train_tier_predictor(
            meta, logs, t0=self.T0, horizon=self.HORIZON, window=self.WINDOW,
            n_estimators=10,
        )
        return al.predict_tiers(clf, meta, logs, t0=self.T0, window=self.WINDOW)

    def test_no_label_reads_past_t0(self, sim):
        """Out of time: reads at months >= t0 cannot change the predictions."""
        meta, logs = sim
        future = logs.copy()
        future.loc[future["month"] >= self.T0, "reads"] = 10**6
        pd.testing.assert_series_equal(
            self._predict(meta, logs), self._predict(meta, future)
        )

    def test_predicts_datasets_older_than_one_month(self, sim):
        meta, logs = sim
        pred = self._predict(meta, logs)
        created = meta.set_index("dataset_id")["created_month"]
        assert (created == self.T0).any() and (created > self.T0).any()
        assert sorted(pred.index) == sorted(created.index[created < self.T0])
        assert set(pred) <= {"hot", "cool"}


class TestPoliciesAndCosts:
    def test_all_hot_is_reference(self, sim):
        meta, logs = sim
        tiers = al.baseline_all_hot(meta)
        assert set(tiers.unique()) == {"hot"}
        cost = al.policy_cost(meta, logs, tiers, t0=12, horizon=2)
        assert cost > 0

    def test_policy_cost_manual_check(self):
        meta = pd.DataFrame(
            {"dataset_id": ["d"], "size_gb": [10.0], "created_month": [0],
             "pattern": ["constant"]}
        )
        logs = pd.DataFrame(
            [{"dataset_id": "d", "month": 10, "reads": 3, "writes": 0},
             {"dataset_id": "d", "month": 11, "reads": 2, "writes": 0}]
        )
        cost = al.policy_cost(
            meta, logs, pd.Series({"d": "cool"}), t0=10, horizon=2
        )
        expected = (
            cm.STORAGE_COST["cool"] * 10 * 2
            + cm.READ_COST["cool"] * 10 * 5
            + cm.tier_change_cost("hot", "cool") * 10
        )
        assert cost == pytest.approx(expected)

    def test_policy_cost_sums_assignment_costs(self, sim):
        """policy_cost is the sum of the scalar cost formula's totals."""
        meta, logs = sim
        t0, hz = 16, 6
        tier_of = al.baseline_recency(meta, logs, t0=t0, lookback=1)
        tier_of[tier_of.index[::7]] = "archive"
        fr = al.future_reads(logs, t0, hz)
        tiers = {t.name: t for t in cm.make_tiers()}
        want = sum(
            cm.assignment_cost(
                span_gb=r.size_gb,
                accesses=float(fr.get(r.dataset_id, 0.0)),
                months=hz,
                tier=tiers[tier_of[r.dataset_id]],
                current_tier="hot",
            ).total
            for r in meta[meta["created_month"] <= t0].itertuples(index=False)
        )
        assert {"hot", "cool", "archive"} <= set(tier_of)
        assert al.policy_cost(meta, logs, tier_of, t0=t0, horizon=hz) == (
            pytest.approx(want, rel=1e-12)
        )

    def test_recency_baseline(self, sim):
        meta, logs = sim
        tiers = al.baseline_recency(meta, logs, t0=12, lookback=2)
        recent = logs[(logs["month"].isin([10, 11])) & (logs["reads"] > 0)]
        touched = set(recent["dataset_id"])
        for ds, tier in tiers.items():
            assert tier == ("hot" if ds in touched else "cool")

    def test_prev_month_optimal_runs(self, sim):
        meta, logs = sim
        tiers = al.baseline_prev_month_optimal(meta, logs, t0=12)
        assert set(tiers.unique()) <= {"hot", "cool"}

    def test_known_optassign_beats_baselines(self, sim):
        """The core Table-IV ordering: OPTASSIGN(known) <= every rule."""
        meta, logs = sim
        t0, hz = 18, 2
        base = al.policy_cost(meta, logs, al.baseline_all_hot(meta), t0=t0, horizon=hz)
        opt = al.policy_cost(
            meta, logs,
            al.ideal_tiers(meta, logs, t0=t0, horizon=hz).set_index("pid")["tier"],
            t0=t0, horizon=hz,
        )
        rec = al.policy_cost(
            meta, logs, al.baseline_recency(meta, logs, t0=t0, lookback=1),
            t0=t0, horizon=hz,
        )
        assert opt <= base + 1e-9
        assert opt <= rec + 1e-9

    def test_archive_helps_long_horizon(self, sim):
        meta, logs = sim
        t0, hz = 16, 6
        hc = al.policy_cost(
            meta, logs,
            al.ideal_tiers(meta, logs, t0=t0, horizon=hz).set_index("pid")["tier"],
            t0=t0, horizon=hz,
        )
        hca = al.policy_cost(
            meta, logs,
            al.ideal_tiers(
                meta, logs, t0=t0, horizon=hz, tier_names=("hot", "cool", "archive")
            ).set_index("pid")["tier"],
            t0=t0, horizon=hz,
        )
        assert hca < hc
