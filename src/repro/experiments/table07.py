"""Table VII: compression-ratio prediction on the larger-SF TPC-H ('100GB')
and the Zipf-skewed variant ('TPC-H Skew', skew factor 3), for gzip and
parquet+gzip across models."""
from __future__ import annotations

import pandas as pd

from repro.core import compredict as cp
from repro.experiments import common, table06

#: Paper Table VII (subset of cells; Averaging has no R² by construction).
PAPER = pd.DataFrame(
    [
        ("TPC-H 100GB", "Averaging", "gzip", 0.083, 2.378, None),
        ("TPC-H 100GB", "Random Forest", "gzip", 0.078, 2.151, 0.969),
        ("TPC-H 100GB", "Random Forest", "parquet + gzip", 0.134, 3.369, 0.966),
        ("TPC-H Skew", "Averaging", "gzip", 0.120, 4.915, None),
        ("TPC-H Skew", "Averaging", "parquet + gzip", 0.601, 32.491, None),
        ("TPC-H Skew", "Random Forest", "gzip", 0.093, 3.005, 0.988),
        ("TPC-H Skew", "XGBoost", "gzip", 0.066, 2.467, 0.992),
    ],
    columns=["Dataset", "Model", "Scheme", "MAE", "MAPE", "R2"],
)

SCHEMES = {"gzip": "csv+gzip", "parquet + gzip": "parquet+gzip"}


def build_datasets() -> dict[str, pd.DataFrame]:
    """The two datasets of Tables VII and VIII, at Table VI's settings
    otherwise: a larger uniform SF ('100GB' stand-in) and Zipf skew 3 on
    seed 1."""
    return {
        "TPC-H 100GB": table06.build_dataset(sf=0.05),
        "TPC-H Skew": table06.build_dataset(seed=1, skew=3.0),
    }


def grid(datasets: dict[str, pd.DataFrame], target_prefix: str) -> pd.DataFrame:
    """One models x :data:`SCHEMES` block per dataset, on the
    ``{target_prefix}_{scheme}`` labels."""
    blocks = []
    for name, data in datasets.items():
        block = common.metrics_grid(
            data,
            models=cp.MODEL_FACTORIES,
            schemes=SCHEMES,
            target_prefix=target_prefix,
            features=cp.ENTROPY_FEATURES + ("size_mb",),
        )
        block.insert(0, "Dataset", name)
        blocks.append(block)
    return pd.concat(blocks, ignore_index=True)


def run(*, datasets: dict[str, pd.DataFrame] | None = None) -> pd.DataFrame:
    """Compression-ratio grids, by default on :func:`build_datasets`."""
    return grid(build_datasets() if datasets is None else datasets, "ratio")
