"""OPTASSIGN as a standalone job: assign tiers + schemes to synthetic
partitions with the Theorem-3 greedy."""
import numpy as np
import pandas as pd

from repro.core import cost_model as cm
from repro.core.optassign import assign


def main(n: int = 200, months: float = 6.0, seed: int = 0) -> None:
    g = np.random.default_rng(seed)
    parts = pd.DataFrame(
        {
            "pid": [f"p{i}" for i in range(n)],
            "span_gb": g.uniform(0.1, 500, n).round(2),
            "accesses": g.integers(0, 1000, n).astype(float),
        }
    )
    preds = pd.DataFrame(
        [
            {"pid": f"p{i}", "scheme": "parquet+gzip",
             "ratio": float(g.uniform(1.5, 4)), "decomp_sec_per_gb": float(g.uniform(1, 8))}
            for i in range(n)
        ]
    )
    out = assign(parts, preds, cm.make_tiers(), months=months)
    print(out.groupby(["tier", "scheme"]).size().to_string())
    print(f"total weighted cost: {out['weighted_cost'].sum():.1f} cents")


if __name__ == "__main__":
    main()
