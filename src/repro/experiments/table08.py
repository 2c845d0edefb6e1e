"""Table VIII: decompression-speed (sec/GB) prediction — same grid as
Table VII but on the ``dsec_*`` targets."""
from __future__ import annotations

import pandas as pd

from repro.experiments import table07

#: Paper Table VIII (subset of cells).
PAPER = pd.DataFrame(
    [
        ("TPC-H 100GB", "Averaging", "gzip", 0.679, 3.732, None),
        ("TPC-H 100GB", "Random Forest", "gzip", 0.292, 1.601, 0.98),
        ("TPC-H 100GB", "Random Forest", "parquet + gzip", 1.165, 9.698, 0.799),
        ("TPC-H Skew", "Averaging", "gzip", 7.037, 29.979, None),
        ("TPC-H Skew", "Random Forest", "gzip", 1.141, 4.910, 0.922),
        ("TPC-H Skew", "Random Forest", "parquet + gzip", 5.194, 7.983, 0.915),
    ],
    columns=["Dataset", "Model", "Scheme", "MAE", "MAPE", "R2"],
)


def run(*, datasets: dict[str, pd.DataFrame] | None = None) -> pd.DataFrame:
    """Decompression sec/GB grids, by default on
    :func:`table07.build_datasets`."""
    return table07.grid(
        table07.build_datasets() if datasets is None else datasets, "dsec")
