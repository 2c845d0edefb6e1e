"""Table V: training-data x feature ablation for COMPREDICT (gzip, RF).

Paper finding (§V): query-result samples + weighted-entropy features beat
random row samples (negative R² for ratio) and plain size features.
Grid: {random samples + entropy, queries + size, queries + entropy} x
{compression ratio, decompression speed}, Random Forest, gzip on TPC-H.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core import compredict as cp
from repro.experiments import common

#: Paper Table V (gzip on TPC-H 1GB, Random Forest).
PAPER = pd.DataFrame(
    [
        ("Compression Ratio", "Random Samples", "Weighted Entropy", 1.022, 72.188, -0.656),
        ("Compression Ratio", "Queries", "Size", 0.049, 3.013, 0.995),
        ("Compression Ratio", "Queries", "Weighted Entropy", 0.021, 0.527, 0.988),
        ("Decompression Speed", "Random Samples", "Weighted Entropy", 18.713, 268.627, 0.069),
        ("Decompression Speed", "Queries", "Size", 2.398, 5.555, 0.792),
        ("Decompression Speed", "Queries", "Weighted Entropy", 0.254, 1.215, 0.989),
    ],
    columns=["Target", "Training Data", "Features", "MAE", "MAPE", "R2"],
)

SCHEME = "csv+gzip"


def run(
    *, sf: float = 0.02, n_per_template: int = 8, max_rows: int = 2500, repeats: int = 2
) -> pd.DataFrame:
    """Train on one kind of sample, evaluate on held-out *query* samples
    (what OPTASSIGN will actually see), per the paper's protocol. Tables,
    queries and the sampling draws all use seed 0."""
    from repro.workload import queries as wq

    tables = common.tpch_table_files(sf=sf)
    queries = wq.gen_tpch_workload(tables, n_per_template=n_per_template)
    q_samples = common.query_samples(tables, queries, max_rows=max_rows)
    g = np.random.default_rng(0)
    r_samples = []
    for name in sorted(tables):
        r_samples.extend(
            cp.random_row_samples(
                tables[name].pdf.head(50_000), n_samples=max(6, len(q_samples) // 5),
                seed=int(g.integers(0, 2**31)),
            )
        )
    r_samples = [s.head(max_rows) for s in r_samples]
    q_data = cp.label_samples(q_samples, (SCHEME,), repeats=repeats)
    r_data = cp.label_samples(r_samples, (SCHEME,), repeats=repeats)
    # Held-out query split used as the common test set for all three rows.
    idx = g.permutation(len(q_data))
    n_test = max(1, len(q_data) // 3)
    test, train = q_data.iloc[idx[:n_test]], q_data.iloc[idx[n_test:]]
    rf = cp.MODEL_FACTORIES["Random Forest"]

    def xy(df, features, target):
        return df[list(features)].to_numpy(dtype=float), df[target].to_numpy(dtype=float)

    ent = cp.ENTROPY_FEATURES
    size = cp.SIZE_FEATURES
    rows = []
    for target_name, target in [
        ("Compression Ratio", f"ratio_{SCHEME}"),
        ("Decompression Speed", f"dsec_{SCHEME}"),
    ]:
        for data_name, train_df, feats in [
            ("Random Samples", r_data, ent),
            ("Queries", train, size),
            ("Queries", train, ent),
        ]:
            feat_name = "Weighted Entropy" if feats is ent else "Size"
            m = cp.score(rf, *xy(train_df, feats, target), *xy(test, feats, target))
            rows.append((
                target_name, data_name, feat_name,
                round(m["MAE"], 4), round(m["MAPE"], 3), round(m["R2"], 3),
            ))
    return pd.DataFrame(rows, columns=PAPER.columns)
