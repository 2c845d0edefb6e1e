"""COMPREDICT: weighted-entropy features (pandas + Spark), samples, models."""
import numpy as np
import pandas as pd
import pytest

from repro.core import compredict as cp
from repro.storage import codecs


@pytest.fixture(scope="module")
def frame():
    g = np.random.default_rng(0)
    return pd.DataFrame(
        {
            "i": g.integers(0, 9, 300),
            "x": (g.integers(0, 4, 300) * 0.25),
            "s": g.choice(["aa", "bbbb", "cccccc"], 300),
            "t": pd.to_datetime("2020-01-01")
            + pd.to_timedelta(g.integers(0, 5, 300), unit="D"),
        }
    )


class TestDtypeClasses:
    @pytest.mark.parametrize(
        "values,cls",
        [
            (pd.Series([1, 2], dtype="int64"), "int"),
            (pd.Series([1.5]), "float"),
            (pd.Series(["a"]), "object"),
            (pd.Series(pd.to_datetime(["2020-01-01"])), "datetime"),
            (pd.Series([True, False]), "int"),
        ],
    )
    def test_mapping(self, values, cls):
        assert cp.dtype_class(values.dtype) == cls


class TestWeightedEntropy:
    def test_feature_layout_fixed(self, frame):
        feats = cp.weighted_entropy_pandas(frame)
        assert set(feats) == set(cp.ENTROPY_FEATURES)

    def test_absent_class_zero(self):
        feats = cp.weighted_entropy_pandas(pd.DataFrame({"a": [1, 2, 3]}))
        assert feats["H_object"] == 0.0
        assert feats["H_int"] > 0.0

    def test_constant_column_zero_entropy(self):
        feats = cp.weighted_entropy_pandas(pd.DataFrame({"s": ["xx"] * 50}))
        assert feats["H_object"] == pytest.approx(0.0)

    def test_definition_by_hand(self):
        """H(P,d) = -Σ len(s)·pr(s)·log pr(s) on a 2-value column."""
        pdf = pd.DataFrame({"s": ["ab"] * 3 + ["cdef"] * 1})
        feats = cp.weighted_entropy_pandas(pdf)
        expected = -(2 * 0.75 * np.log(0.75) + 4 * 0.25 * np.log(0.25))
        assert feats["H_object"] == pytest.approx(expected)

    def test_more_repetition_lower_entropy(self):
        uniform = pd.DataFrame({"s": [f"v{i:04d}" for i in range(256)]})
        skewed = pd.DataFrame({"s": ["v0000"] * 255 + ["v0001"]})
        hu = cp.weighted_entropy_pandas(uniform)["H_object"]
        hs = cp.weighted_entropy_pandas(skewed)["H_object"]
        assert hs < hu

    def test_pools_columns_of_same_class(self):
        a = cp.weighted_entropy_pandas(pd.DataFrame({"x": ["a", "b"], "y": ["a", "b"]}))
        b = cp.weighted_entropy_pandas(pd.DataFrame({"x": ["a", "b", "a", "b"]}))
        assert a["H_object"] == pytest.approx(b["H_object"])

    def test_spark_matches_pandas(self, spark, frame):
        from repro.spark_ops import weighted_entropy

        got = weighted_entropy(spark.createDataFrame(frame))
        want = cp.weighted_entropy_pandas(frame)
        for k in cp.ENTROPY_FEATURES:
            assert got[k] == pytest.approx(want[k], rel=1e-9), k


class TestSamples:
    def test_random_samples_deterministic(self, frame):
        a = cp.random_row_samples(frame, n_samples=4, seed=1)
        b = cp.random_row_samples(frame, n_samples=4, seed=1)
        assert all(x.equals(y) for x, y in zip(a, b))

    def test_random_samples_sizes(self, frame):
        samples = cp.random_row_samples(frame, n_samples=10, seed=0)
        assert all(1 <= len(s) <= len(frame) for s in samples)

    def test_featurize_sample(self, frame):
        ds = cp.label_samples([frame], ("csv+gzip",), repeats=1)
        assert list(ds.columns) == [
            *cp.ENTROPY_FEATURES, *cp.SIZE_FEATURES, "ratio_csv+gzip", "dsec_csv+gzip",
        ]
        assert ds["n_rows"].tolist() == [len(frame)]
        assert ds["size_mb"].iloc[0] > 0
        assert ds.iloc[0][list(cp.ENTROPY_FEATURES)].to_dict() == (
            cp.weighted_entropy_pandas(frame)
        )

    @pytest.mark.parametrize("schemes", [("parquet+gzip", "csv+snappy"), ("parquet+gzip",)])
    def test_size_mb_is_csv_size(self, frame, schemes):
        """``size_mb`` is the CSV size whether or not a CSV scheme is labelled."""
        ds = cp.label_samples([frame.head(120)], schemes, repeats=1)
        assert ds["size_mb"].iloc[0] == len(codecs.csv_bytes(frame.head(120))) / 2**20

    def test_build_dataset_columns(self, frame):
        ds = cp.label_samples(
            [frame.head(n) for n in (50, 100)], ("csv+gzip", "csv+snappy"), repeats=1
        )
        assert ds["n_rows"].tolist() == [50, 100]
        assert list(ds.columns) == [
            *cp.ENTROPY_FEATURES, *cp.SIZE_FEATURES,
            "ratio_csv+gzip", "dsec_csv+gzip", "ratio_csv+snappy", "dsec_csv+snappy",
        ]

    def test_label_samples_covers_schemes(self, frame):
        ds = cp.label_samples([frame.head(200)], codecs.ALL_SCHEMES, repeats=1)
        labels = list(ds.columns)[len(cp.ENTROPY_FEATURES) + len(cp.SIZE_FEATURES):]
        assert labels == [
            f"{t}_{s}" for s in codecs.ALL_SCHEMES for t in ("ratio", "dsec")
        ]


class TestTrainEval:
    @pytest.fixture(scope="class")
    def dataset(self, frame):
        g = np.random.default_rng(1)
        samples = [frame.head(int(g.integers(40, 300))) for _ in range(30)]
        ds = cp.label_samples(samples, ("csv+gzip",), repeats=1)
        assert list(ds.columns) == [
            *cp.ENTROPY_FEATURES, *cp.SIZE_FEATURES, "ratio_csv+gzip", "dsec_csv+gzip",
        ]
        return ds

    def test_models_beat_averaging(self, dataset):
        feats = cp.ENTROPY_FEATURES + ("size_mb",)
        base = cp.train_eval(
            dataset, target="ratio_csv+gzip", features=feats,
            model_factory=cp.MODEL_FACTORIES["Averaging"],
        )
        rf = cp.train_eval(
            dataset, target="ratio_csv+gzip", features=feats,
            model_factory=cp.MODEL_FACTORIES["Random Forest"],
        )
        assert rf["MAE"] <= base["MAE"]

    def test_metrics_keys(self, dataset):
        out = cp.train_eval(
            dataset, target="ratio_csv+gzip",
            features=cp.ENTROPY_FEATURES,
            model_factory=cp.MODEL_FACTORIES["SVR"],
        )
        assert set(out) == {"MAE", "MAPE", "R2"}

    def test_predictions_frame_schema(self, dataset):
        pids = [f"p{i}" for i in range(len(dataset))]
        preds = cp.predictions_frame(dataset, pids, ("csv+gzip",))
        assert set(preds.columns) == {"pid", "scheme", "ratio", "decomp_sec_per_gb"}
        assert len(preds) == len(dataset)
        assert (preds["ratio"] > 0).all()
        assert (preds["decomp_sec_per_gb"] >= 0).all()
