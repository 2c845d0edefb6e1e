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

N_DATASETS = 760
TARGET_TB = 700.0


def run(
    *,
    seed: int = 7,
    months: int = 24,
    horizon: int = 2,
    window: int = 4,
    t0_test: int = 18,
) -> dict:
    """Train out-of-time (t0 in [window+1, t0_test - horizon]), test at
    ``t0_test``. Returns confusion matrix, F1, and the fitted pieces."""
    meta, logs = al.gen_enterprise_logs(
        n_datasets=N_DATASETS, months=months, seed=seed, total_gb=TARGET_TB * 1e3
    )
    clf = al.train_tier_predictor(meta, logs, t0=t0_test, horizon=horizon, window=window)
    predicted = al.predict_tiers(clf, meta, logs, t0=t0_test, window=window)
    ideal = al.ideal_tiers(meta, logs, t0=t0_test, horizon=horizon)
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
