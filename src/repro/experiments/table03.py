"""Table III: confusion matrix, predicted vs ideal tier (hot/cool).

Paper setting (§IV-C): one storage account, ~760 datasets / ~700 TB,
2-month prediction horizon, Random-Forest classifier on (size, age, recent
monthly reads/writes), out-of-time train/validation/test; F1 > 0.96.
"""
from __future__ import annotations

import pandas as pd

from repro.ml.metrics import confusion_matrix, f1_score
from repro.workload import access_logs as al

#: Paper Table III (rows = predicted, cols = ideal; order hot, cool).
PAPER = pd.DataFrame(
    [[291, 12], [12, 445]],
    index=["pred_hot", "pred_cool"],
    columns=["ideal_hot", "ideal_cool"],
)
PAPER_F1 = 0.96

#: The storage account of Tables III and IV: its size, its seed, the months
#: of logs, the test month, and the months of reads a prediction sees.
N_DATASETS = 760
TARGET_TB = 700.0
SEED = 7
MONTHS = 24
T0 = 18
WINDOW = 4
#: Table III's prediction horizon, in months.
HORIZON = 2


def account() -> tuple[pd.DataFrame, pd.DataFrame]:
    """The account's dataset metadata and monthly access logs."""
    return al.gen_enterprise_logs(
        n_datasets=N_DATASETS, months=MONTHS, seed=SEED, total_gb=TARGET_TB * 1e3
    )


def run() -> dict:
    """Train out-of-time (t0 in [WINDOW+1, T0 - HORIZON]), test at
    :data:`T0`. Returns confusion matrix, F1, and the fitted pieces."""
    meta, logs = account()
    clf = al.train_tier_predictor(meta, logs, t0=T0, horizon=HORIZON, window=WINDOW)
    predicted = al.predict_tiers(clf, meta, logs, t0=T0, window=WINDOW)
    ideal = al.ideal_tiers(meta, logs, t0=T0, horizon=HORIZON)
    ideal = ideal.set_index("pid")["tier"].reindex(predicted.index)
    y_true, y_pred = ideal.to_numpy(), predicted.to_numpy()
    cmx = confusion_matrix(y_true, y_pred, labels=["hot", "cool"])
    return {
        "confusion": pd.DataFrame(
            cmx, index=["pred_hot", "pred_cool"], columns=["ideal_hot", "ideal_cool"]
        ),
        "f1_hot": f1_score(y_true, y_pred, positive="hot"),
        "f1_cool": f1_score(y_true, y_pred, positive="cool"),
        "n_datasets": len(predicted),
        "total_tb": float(meta["size_gb"].sum() / 1e3),
        "classifier": clf,
        "meta": meta,
        "logs": logs,
        "predicted": predicted,
        "ideal": ideal,
    }
