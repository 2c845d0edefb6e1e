"""Table VI: compression-ratio prediction — 5 models x 5 scheme/layouts on
TPC-H (uniform). Query samples + weighted-entropy(+size) features."""
from __future__ import annotations

import pandas as pd

from repro.core import compredict as cp
from repro.experiments import common
from repro.workload import queries as wq

#: Paper Table VI, flattened: (model, scheme) -> (MAE, MAPE, R2).
PAPER = pd.DataFrame(
    [
        ("Averaging", "gzip", 0.215, 5.353, None),
        ("Averaging", "parquet + gzip", 0.781, 23.154, None),
        ("XGBoost", "gzip", 0.033, 0.851, 0.991),
        ("XGBoost", "parquet + gzip", 0.057, 1.482, 0.989),
        ("Neural Network", "gzip", 0.030, 0.793, 0.993),
        ("SVR", "gzip", 0.071, 1.920, 0.977),
        ("Random Forest", "gzip", 0.021, 0.527, 0.988),
        ("Random Forest", "snappy", 0.011, 0.453, 0.989),
        ("Random Forest", "parquet + gzip", 0.043, 0.996, 0.983),
        ("Random Forest", "parquet + snappy", 0.029, 0.948, 0.985),
        ("Random Forest", "parquet + lz4", 0.026, 0.901, 0.989),
    ],
    columns=["Model", "Scheme", "MAE", "MAPE", "R2"],
)

SCHEMES = {
    "gzip": "csv+gzip",
    "snappy": "csv+snappy",
    "parquet + gzip": "parquet+gzip",
    "parquet + snappy": "parquet+snappy",
    "parquet + lz4": "parquet+lz4",
}


def inputs(
    *, sf: float = 0.02, seed: int = 0, skew: float | None = None
) -> dict[str, wq.TableFiles]:
    """Table VI's TPC-H-lite tables, uniform by default."""
    return common.tpch_table_files(sf=sf, seed=seed, skew=skew)


def build_dataset(
    *,
    seed: int = 0,
    n_per_template: int = 8,
    max_rows: int = 2500,
    repeats: int = 2,
    **inputs_kw,
) -> pd.DataFrame:
    """COMPREDICT's labelled query samples: a TPC-H workload on
    :func:`inputs`, both drawn on ``seed``."""
    tables = inputs(seed=seed, **inputs_kw)
    queries = wq.gen_tpch_workload(tables, n_per_template=n_per_template, seed=seed)
    samples = common.query_samples(tables, queries, max_rows=max_rows)
    return cp.label_samples(samples, tuple(SCHEMES.values()), repeats=repeats)


def run(dataset: pd.DataFrame | None = None) -> pd.DataFrame:
    """The models x :data:`SCHEMES` ratio grid on ``dataset``, by default
    :func:`build_dataset`'s."""
    return common.metrics_grid(
        build_dataset() if dataset is None else dataset,
        models=cp.MODEL_FACTORIES,
        schemes=SCHEMES,
        target_prefix="ratio",
        features=cp.ENTROPY_FEATURES + ("size_mb",),
    )
