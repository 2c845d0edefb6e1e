"""Table II: % cost benefits of OPTASSIGN (K=0) for 4 customer accounts.

Paper setting (§IV-C): Enterprise Data I, datasets as partitions, access
projections from historical logs, benefit relative to the platform baseline
(everything hot). 2-month benefits are small because Archive's 6-month
minimum residency keeps it infeasible (only hot→cool moves pay off);
6-month benefits are large because cold data can go to Archive.

We predict the *tier* directly with a Random-Forest classifier trained
out-of-time on ideal-tier labels (the paper's §IV-C protocol: "We used
OPTASSIGN to assign the ground truth label encoding (i.e. the optimal tier)
for each dataset while training the model"), then score the predicted
placement against the realised accesses. A 12-month feature window lets the
model see a full seasonal cycle — mispredicting a periodic dataset into
Archive would be catastrophic (16.64 c/GB reads).
"""
from __future__ import annotations

import pandas as pd

from repro.workload import access_logs as al

#: Paper Table II (total size in PB, % benefit at 2 and 6 months).
PAPER = pd.DataFrame(
    {
        "Customer": ["A", "B", "C", "D"],
        "Total Size (PB)": [0.56, 0.45, 0.053, 0.085],
        "2 mos": [10.59, 8.0, 11.58, 9.93],
        "6 mos": [61.6, 53.72, 83.69, 49.6],
    }
)

#: (n_datasets, target PB, seed) per customer — dataset counts in the paper's
#: range (e.g. 463 datasets for customer B).
CUSTOMERS = {
    "A": (520, 0.56, 20),
    "B": (463, 0.45, 21),
    "C": (180, 0.053, 22),
    "D": (240, 0.085, 23),
}

#: Feature window in months: a full seasonal cycle.
WINDOW = 12


def run_customer(
    *, n_datasets: int, target_pb: float, seed: int, t0: int = 26, months: int = 32
) -> dict[str, float]:
    """% benefit vs all-hot at 2 and 6-month horizons for one account."""
    meta, logs = al.gen_enterprise_logs(
        n_datasets=n_datasets, months=months, seed=seed, total_gb=target_pb * 1e6
    )
    out: dict[str, float] = {"Total Size (PB)": round(meta["size_gb"].sum() / 1e6, 3)}
    for horizon, tier_names in [(2, ("hot", "cool")), (6, ("hot", "cool", "archive"))]:
        clf = al.train_tier_predictor(
            meta, logs, t0=t0, horizon=horizon, window=WINDOW,
            tier_names=tier_names, n_estimators=40,
        )
        tier_of = al.predict_tiers(clf, meta, logs, t0=t0, window=WINDOW)
        out[f"{horizon} mos"] = round(
            al.benefit_pct(meta, logs, tier_of, t0=t0, horizon=horizon), 2
        )
    return out


def run(*, t0: int = 26, months: int = 32) -> pd.DataFrame:
    rows = []
    for cust, (n, pb, seed) in CUSTOMERS.items():
        r = run_customer(n_datasets=n, target_pb=pb, seed=seed, t0=t0, months=months)
        rows.append({"Customer": cust, **r})
    return pd.DataFrame(rows)
