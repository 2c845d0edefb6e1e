"""COMPREDICT (§V): predict compression ratio & decompression speed.

Feature: per-datatype **weighted entropy**
``H(P, d) = -Σ_s len(s) · pr(s) · log pr(s)`` over the string renderings of
all values in columns of datatype class ``d`` (int / float / object /
datetime), capturing how much repetition a codec can exploit. Computed here
by a vectorised pandas path for query-result samples; the Spark aggregation
for whole tables is :func:`repro.spark_ops.weighted_entropy`, tested equal.

Training data: **query-result samples** (the paper's key finding is that
random row samples misrepresent what is actually read) labelled with ground
truth from :mod:`repro.storage.codecs`. Models from :mod:`repro.ml`.
"""
from __future__ import annotations

from typing import Callable, Iterable

import numpy as np
import pandas as pd
from pandas.api import types as ptypes

from repro.ml import (
    GradientBoostedTreesRegressor,
    MLPRegressor,
    RandomForestRegressor,
    RidgeRegressor,
    mae,
    mape,
    r2,
)
from repro.storage import codecs

#: Fixed datatype classes so feature vectors have a constant layout.
DTYPE_CLASSES = ("int", "float", "object", "datetime")
ENTROPY_FEATURES = tuple(f"H_{d}" for d in DTYPE_CLASSES)
SIZE_FEATURES = ("size_mb", "n_rows")


def dtype_class(dtype) -> str:
    """Map a pandas/Spark dtype to the paper's datatype buckets."""
    if ptypes.is_datetime64_any_dtype(dtype):
        return "datetime"
    if ptypes.is_bool_dtype(dtype):
        return "int"
    if ptypes.is_integer_dtype(dtype):
        return "int"
    if ptypes.is_float_dtype(dtype):
        return "float"
    return "object"


def _entropy_of_counts(values: pd.Series, counts: np.ndarray) -> float:
    pr = counts / counts.sum()
    lens = values.astype(str).str.len().to_numpy()
    return float(-(lens * pr * np.log(pr)).sum())


def weighted_entropy_pandas(pdf: pd.DataFrame) -> dict[str, float]:
    """H(P, d) for each datatype class present; absent classes get 0."""
    feats = {f: 0.0 for f in ENTROPY_FEATURES}
    by_class: dict[str, list[pd.Series]] = {}
    for col in pdf.columns:
        cls = dtype_class(pdf[col].dtype)
        if cls == "datetime":
            # Match spark_ops.weighted_entropy's 'yyyy-MM-dd HH:mm:ss' rendering.
            rendered = pdf[col].dt.strftime("%Y-%m-%d %H:%M:%S")
        else:
            rendered = pdf[col].astype(str)
        by_class.setdefault(cls, []).append(rendered)
    for d, cols in by_class.items():
        pooled = pd.concat(cols, ignore_index=True)
        vc = pooled.value_counts()
        feats[f"H_{d}"] = _entropy_of_counts(vc.index.to_series(), vc.to_numpy())
    return feats


# --------------------------------------------------------------------------
# Samples
# --------------------------------------------------------------------------
#: Smallest share of the table a random row sample draws.
MIN_SAMPLE_FRAC = 0.02


def random_row_samples(
    pdf: pd.DataFrame, *, n_samples: int, seed: int = 0
) -> list[pd.DataFrame]:
    """The baseline the paper criticises: uniformly random row subsets, each
    a fraction of ``pdf`` drawn from [``MIN_SAMPLE_FRAC``, 1)."""
    g = np.random.default_rng(seed)
    out = []
    for _ in range(n_samples):
        frac = g.uniform(MIN_SAMPLE_FRAC, 1.0)
        n = max(1, int(len(pdf) * frac))
        out.append(pdf.iloc[g.choice(len(pdf), size=n, replace=False)].reset_index(drop=True))
    return out


def label_samples(
    samples: list[pd.DataFrame], schemes: tuple[str, ...], *, repeats: int
) -> pd.DataFrame:
    """The model-ready frame of weighted-entropy features and ground-truth
    labels, one row per sample.

    Columns: entropy features, size features, and per scheme
    ``ratio_<scheme>`` / ``dsec_<scheme>`` (decompression sec/GB) targets.
    ``size_mb`` is the CSV size, the ``raw_bytes`` of the first CSV scheme.
    """
    rows = []
    for pdf in samples:
        row = weighted_entropy_pandas(pdf)
        measured = [codecs.measure(pdf, s, repeats=repeats) for s in schemes]
        csv = [m.raw_bytes for m in measured if m.scheme.startswith("csv+")]
        row["size_mb"] = (csv[0] if csv else len(codecs.csv_bytes(pdf))) / 2**20
        row["n_rows"] = len(pdf)
        for m in measured:
            row[f"ratio_{m.scheme}"] = m.ratio
            row[f"dsec_{m.scheme}"] = m.decomp_sec_per_gb
        rows.append(row)
    return pd.DataFrame(rows)


# --------------------------------------------------------------------------
# Models & evaluation
# --------------------------------------------------------------------------
class AveragingModel:
    """The naive baseline: always predict the training mean."""

    def fit(self, X, y):
        self.mean_ = float(np.mean(y))
        return self

    def predict(self, X):
        return np.full(len(X), self.mean_)


#: Paper-model name -> constructor, with documented substitutions (DESIGN.md).
MODEL_FACTORIES: dict[str, Callable[[], object]] = {
    "Averaging": AveragingModel,
    "XGBoost": lambda: GradientBoostedTreesRegressor(
        n_estimators=200, learning_rate=0.1, max_depth=3, random_state=0
    ),
    "Neural Network": lambda: MLPRegressor(hidden=(64, 32), epochs=400, random_state=0),
    "SVR": lambda: RidgeRegressor(alpha=1.0),
    "Random Forest": lambda: RandomForestRegressor(
        n_estimators=60, max_features=None, random_state=0
    ),
}


#: Share of the dataset ``train_eval`` holds out for testing.
TEST_FRAC = 0.3


def train_eval(
    dataset: pd.DataFrame,
    *,
    target: str,
    features: tuple[str, ...],
    model_factory: Callable[[], object],
    seed: int = 0,
) -> dict[str, float]:
    """Shuffled train/test split (``TEST_FRAC`` held out), then :func:`score`."""
    g = np.random.default_rng(seed)
    idx = g.permutation(len(dataset))
    n_test = max(1, int(len(dataset) * TEST_FRAC))
    test, train = idx[:n_test], idx[n_test:]
    X = dataset[list(features)].to_numpy(dtype=float)
    y = dataset[target].to_numpy(dtype=float)
    return score(model_factory, X[train], y[train], X[test], y[test])


def score(model_factory, X_train, y_train, X_test, y_test) -> dict[str, float]:
    """Fit a new model on the training rows; the paper's metrics
    (MAE/MAPE/R²) of its predictions for the test rows."""
    pred = model_factory().fit(X_train, y_train).predict(X_test)
    return {
        "MAE": mae(y_test, pred),
        "MAPE": mape(y_test, pred),
        "R2": r2(y_test, pred),
    }


def predictions_frame(
    dataset: pd.DataFrame,
    partition_ids: list[str],
    schemes: Iterable[str],
    *,
    features: tuple[str, ...] = ENTROPY_FEATURES + ("size_mb",),
    model_factory: Callable[[], object] = MODEL_FACTORIES["Random Forest"],
    train_dataset: pd.DataFrame | None = None,
) -> pd.DataFrame:
    """Fit one model per (scheme, target) and emit OPTASSIGN's predictions
    table: (pid, scheme, ratio, decomp_sec_per_gb) for every row in
    ``dataset`` (aligned with ``partition_ids``)."""
    train = train_dataset if train_dataset is not None else dataset
    X_tr = train[list(features)].to_numpy(dtype=float)
    X = dataset[list(features)].to_numpy(dtype=float)
    rows = []
    for s in schemes:
        rm = model_factory().fit(X_tr, train[f"ratio_{s}"].to_numpy(dtype=float))
        dm = model_factory().fit(X_tr, train[f"dsec_{s}"].to_numpy(dtype=float))
        ratios = np.maximum(rm.predict(X), 1e-6)
        dsecs = np.maximum(dm.predict(X), 0.0)
        for pid, ratio, dsec in zip(partition_ids, ratios, dsecs):
            rows.append(
                {"pid": pid, "scheme": s, "ratio": float(ratio),
                 "decomp_sec_per_gb": float(dsec)}
            )
    return pd.DataFrame(rows)
