"""Enterprise Data Lake I stand-in: dataset metadata + monthly access logs.

The paper's Figs 1–2 characterise the (private) Adobe workloads: heavily
skewed access popularity, recency decay, and pattern families — decreasing
reads, roughly constant reads, periodic/seasonal peaks, and one-time
ingest-activation spikes, with most datasets nearly inactive. The generator
reproduces exactly these families with a Zipf popularity scale, which is
all the tiering experiments depend on (DESIGN.md substitution #6).

The generator emits monthly read/write counts per dataset directly. Also
provides the access predictor of §IV-C that Tables II–IV share: feature
extraction (size, age, last-W-months reads/writes), ideal-tier labelling via
OPTASSIGN with known future accesses, the out-of-time Random Forest trained
on those labels, the % benefit over all-hot, and the intuitive baselines of
Table IV.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core import cost_model as cm
from repro.core.optassign import assign
from repro.ml import RandomForestClassifier

PATTERNS = ("inactive", "decay", "constant", "periodic", "spike")
#: Mixture over pattern families — most datasets see few or zero accesses
#: (Fig 1a: "only a few datasets are heavily accessed"). Calibrated so the
#: ideal hot/cool dataset split and the 2/6-month benefit magnitudes land in
#: the ranges of Tables II–IV.
PATTERN_PROBS = (0.35, 0.20, 0.30, 0.10, 0.05)
#: Lognormal (mu, sigma) of dataset sizes in GB: a heavy-tailed distribution
#: whose sum over ~760 datasets lands in the paper's hundreds-of-TB regime.
SIZE_LOGNORM = (6.0, 2.0)


def gen_enterprise_logs(
    *,
    n_datasets: int,
    months: int,
    seed: int = 0,
    total_gb: float | None = None,
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Returns (meta, logs).

    meta: dataset_id, size_gb, created_month, pattern.
    logs: dataset_id, month, reads, writes — one row per dataset-month from
    its creation month onward.

    ``total_gb`` rescales ``size_gb`` to that account total after the logs
    are drawn, so the logs do not depend on it.
    """
    g = np.random.default_rng(seed)
    sizes = np.exp(g.normal(*SIZE_LOGNORM, n_datasets)).round(2)
    meta = pd.DataFrame(
        {
            "dataset_id": [f"d{i:04d}" for i in range(n_datasets)],
            "size_gb": sizes,
            "created_month": g.integers(0, max(1, months - 3), n_datasets),
            "pattern": g.choice(PATTERNS, n_datasets, p=PATTERN_PROBS),
        }
    )
    # Heavy-tailed popularity (Fig 1a skew: a few datasets dominate reads),
    # *negatively* rank-correlated with size: huge raw/archive datasets are
    # rarely queried while small curated ones are hot — consistent with the
    # paper's Fig 3a (larger files show larger % benefit). Calibration
    # targets the paper's shape: ~1/3 of datasets ideally hot, ~10% 2-month
    # and ~40-45% 6-month (with Archive) cost benefit.
    z_size = (np.log(sizes) - np.log(sizes).mean()) / max(np.log(sizes).std(), 1e-9)
    z_noise = g.normal(0, 1, n_datasets)
    popularity = np.exp(5.5 + 2.0 * (-0.5 * z_size + 0.866 * z_noise))
    rows = []
    for i, r in enumerate(meta.itertuples(index=False)):
        base = popularity[i]
        for m in range(int(r.created_month), months):
            age = m - int(r.created_month)
            pat = r.pattern
            if pat == "inactive":
                lam = 0.02  # "most datasets see very few or 0 accesses" (Fig 1a)
            elif pat == "decay":
                lam = base * np.exp(-0.6 * age)  # Fig 1b / Fig 2 top-left
            elif pat == "constant":
                lam = base * 0.5  # Fig 2 top-right
            elif pat == "periodic":
                lam = base * (1.0 if m % 12 in (0, 1) else 0.0) + 0.02
            else:  # spike: activation burst at ingest, then silence
                lam = base * 3.0 if age == 0 else 0.01
            reads = int(g.poisson(max(lam, 0.0)))
            writes = int(g.poisson(1.0 if age == 0 else 0.05))
            rows.append(
                {"dataset_id": r.dataset_id, "month": m, "reads": reads, "writes": writes}
            )
    if total_gb is not None:
        meta["size_gb"] *= total_gb / meta["size_gb"].sum()
    return meta, pd.DataFrame(rows)


# --------------------------------------------------------------------------
# Access-predictor features and labels (§IV-C)
# --------------------------------------------------------------------------
def future_reads(logs: pd.DataFrame, t0: int, horizon: int) -> pd.Series:
    """Total reads in [t0, t0 + horizon) per dataset."""
    w = logs[(logs["month"] >= t0) & (logs["month"] < t0 + horizon)]
    return w.groupby("dataset_id")["reads"].sum()


def feature_frame(
    meta: pd.DataFrame, logs: pd.DataFrame, *, t0: int, window: int = 4
) -> pd.DataFrame:
    """Features at prediction time t0: dataset size, age in months, and the
    last ``window`` months' read and write counts (the paper's feature set)."""
    out = meta[["dataset_id", "size_gb", "created_month"]].copy()
    out["age_months"] = t0 - out["created_month"]
    hist = logs[(logs["month"] >= t0 - window) & (logs["month"] < t0)]
    for k in range(1, window + 1):
        m = t0 - k
        mh = hist[hist["month"] == m].set_index("dataset_id")
        out[f"reads_m{k}"] = out["dataset_id"].map(mh["reads"]).fillna(0.0)
        out[f"writes_m{k}"] = out["dataset_id"].map(mh["writes"]).fillna(0.0)
    return out.drop(columns=["created_month"])


def _features(
    meta: pd.DataFrame, logs: pd.DataFrame, *, t0: int, window: int
) -> pd.DataFrame:
    """:func:`feature_frame` of the datasets at least one month old at t0;
    newer data has no history and is placed as new data (§IV-A)."""
    f = feature_frame(meta, logs, t0=t0, window=window)
    return f[f["age_months"] >= 1]


FEATURE_COLS = lambda window=4: ["size_gb", "age_months"] + [  # noqa: E731
    f"{k}_m{i}" for i in range(1, window + 1) for k in ("reads", "writes")
]


def ideal_tiers(
    meta: pd.DataFrame,
    logs: pd.DataFrame,
    *,
    t0: int,
    horizon: int,
    tier_names: tuple[str, ...] = ("hot", "cool"),
    current_tier: str = "hot",
) -> pd.DataFrame:
    """Ground-truth OPTASSIGN tiering, K=0.

    Per dataset, the greedy (Theorem 3 — no capacity bounds in the Data
    Lake setting) picks the tier minimising storage + read + tier-change
    cost for the horizon. Returns (pid, tier, weighted_cost, ...) per
    dataset.
    """
    fr = future_reads(logs, t0, horizon)
    exists = meta[meta["created_month"] <= t0]
    parts = pd.DataFrame(
        {
            "pid": exists["dataset_id"],
            "span_gb": exists["size_gb"],
            "accesses": exists["dataset_id"].map(fr).fillna(0.0),
            "current_tier": current_tier,
        }
    )
    tiers = [t for t in cm.make_tiers() if t.name in tier_names]
    return assign(parts, None, tiers, months=horizon)


def train_tier_predictor(
    meta: pd.DataFrame,
    logs: pd.DataFrame,
    *,
    t0: int,
    horizon: int,
    window: int,
    tier_names: tuple[str, ...] = ("hot", "cool"),
    n_estimators: int = 50,
) -> RandomForestClassifier:
    """The §IV-C access predictor: a Random Forest from features to the
    ideal tier, trained out of time for predictions at ``t0``.

    Every month t in [window + 1, t0 − horizon] is one training snapshot:
    features from months [t − window, t), labels from OPTASSIGN on the
    reads of months [t, t + horizon). So no label reads a month at or after
    ``t0``.
    """
    cols = FEATURE_COLS(window)
    Xs, ys = [], []
    for t in range(window + 1, t0 - horizon + 1):
        f = _features(meta, logs, t0=t, window=window)
        labels = ideal_tiers(meta, logs, t0=t, horizon=horizon, tier_names=tier_names)
        Xs.append(f[cols].to_numpy(dtype=float))
        ys.append(f["dataset_id"].map(labels.set_index("pid")["tier"]).to_numpy())
    return RandomForestClassifier(n_estimators=n_estimators, random_state=0).fit(
        np.vstack(Xs), np.concatenate(ys)
    )


def predict_tiers(
    clf: RandomForestClassifier,
    meta: pd.DataFrame,
    logs: pd.DataFrame,
    *,
    t0: int,
    window: int,
) -> pd.Series:
    """Predicted tier per dataset id at ``t0``, for datasets at least one
    month old."""
    f = _features(meta, logs, t0=t0, window=window)
    pred = clf.predict(f[FEATURE_COLS(window)].to_numpy(dtype=float))
    return pd.Series(pred, index=f["dataset_id"].to_numpy())


def policy_cost(
    meta: pd.DataFrame,
    logs: pd.DataFrame,
    tier_of: pd.Series,
    *,
    t0: int,
    horizon: int,
    current_tier: str = "hot",
) -> float:
    """Realised cost (cents) of holding ``tier_of[dataset]`` for the horizon,
    evaluated with the *actual* accesses — this is how Table IV scores both
    OPTASSIGN (on predictions) and the rule baselines."""
    fr = future_reads(logs, t0, horizon)
    exists = meta[meta["created_month"] <= t0]
    tier = exists["dataset_id"].map(tier_of).fillna(current_tier)
    _, cost = cm.cost_terms(
        span_gb=exists["size_gb"],
        accesses=exists["dataset_id"].map(fr).fillna(0.0),
        months=horizon,
        storage_cost=tier.map(cm.STORAGE_COST),
        read_cost=tier.map(cm.READ_COST),
        ttfb=tier.map(cm.TTFB),
        delta=cm.tier_change_cost(current_tier, tier),
    )
    return float(cost.total.sum())


def benefit_pct(
    meta: pd.DataFrame,
    logs: pd.DataFrame,
    tier_of: pd.Series,
    *,
    t0: int,
    horizon: int,
) -> float:
    """% saving of ``tier_of`` over keeping every dataset hot, both scored
    on the actual accesses (Tables II and IV)."""
    base = policy_cost(meta, logs, baseline_all_hot(meta), t0=t0, horizon=horizon)
    cost = policy_cost(meta, logs, tier_of, t0=t0, horizon=horizon)
    return 100 * (base - cost) / base


def baseline_all_hot(meta: pd.DataFrame) -> pd.Series:
    return pd.Series("hot", index=meta["dataset_id"].to_numpy())


def baseline_recency(
    meta: pd.DataFrame, logs: pd.DataFrame, *, t0: int, lookback: int
) -> pd.Series:
    """'Hot if accessed in the last ``lookback`` months, else cool' (Table IV
    rows 2–3 — the caching-inspired rules)."""
    recent = logs[(logs["month"] >= t0 - lookback) & (logs["month"] < t0)]
    touched = set(recent[recent["reads"] > 0]["dataset_id"])
    return pd.Series(
        ["hot" if d in touched else "cool" for d in meta["dataset_id"]],
        index=meta["dataset_id"].to_numpy(),
    )


def baseline_prev_month_optimal(
    meta: pd.DataFrame, logs: pd.DataFrame, *, t0: int,
    tier_names: tuple[str, ...] = ("hot", "cool"),
) -> pd.Series:
    """'Use the optimal tier of the previous month' (Table IV row 4)."""
    prev = ideal_tiers(
        meta, logs, t0=t0 - 1, horizon=1, tier_names=tier_names
    )
    return prev.set_index("pid")["tier"]
