"""Capacity-repair scaling sweep: seconds and moves of ``optassign.assign``
under Table XII's tier capacities (``make_tiers(total_gb=...)``) at 100, 200,
400 and 800 partitions.

Writes ``benchmarks/results/repair_scaling.txt`` with the growth factor per
doubling of the partition count. It asserts feasibility, not timing.
"""
import os
import platform
import time

import numpy as np
import pandas as pd

from repro.core import cost_model as cm
from repro.core import optassign as oa

SIZES = (100, 200, 400, 800)
#: Archive is out of play at Tables IX-XI's 5.5-month horizon.
TIERS = ("premium", "hot", "cool")
MONTHS = 5.5
#: Capacities are Table XII's fractions of this share of the raw span: the
#: compressed data then fits in total, but not on the tiers it prefers.
CAPACITY_SHARE = 0.4


def _instance(n: int, seed: int = 0) -> tuple[pd.DataFrame, pd.DataFrame]:
    """``n`` partitions with heavy-tailed accesses, and two schemes each."""
    g = np.random.default_rng(seed)
    parts = pd.DataFrame(
        {
            "pid": [f"p{i:04d}" for i in range(n)],
            "span_gb": g.uniform(0.5, 20.0, n),
            "accesses": np.floor(g.pareto(1.0, n) * 2000.0),
        }
    )
    preds = pd.DataFrame(
        {
            "pid": np.repeat(parts["pid"].to_numpy(), 2),
            "scheme": ["parquet+gzip", "parquet+snappy"] * n,
            "ratio": np.tile([3.0, 2.0], n) + g.random(2 * n),
            "decomp_sec_per_gb": g.uniform(0.5, 5.0, 2 * n),
        }
    )
    return parts, preds


def test_repair_scaling(results_dir):
    rows = []
    for n in SIZES:
        parts, preds = _instance(n)
        total_gb = CAPACITY_SHARE * float(parts["span_gb"].sum())
        tiers = cm.make_tiers(TIERS, total_gb=total_gb)
        free = oa.assign(parts, preds, cm.make_tiers(TIERS), months=MONTHS)
        t0 = time.perf_counter()
        got = oa.assign(parts, preds, tiers, months=MONTHS)
        seconds = time.perf_counter() - t0
        usage = got.groupby("tier")["stored_gb"].sum()
        assert all(usage.get(t.name, 0.0) <= t.capacity_gb + 1e-9 for t in tiers)
        # Partitions whose (tier, scheme) the repair changed; both frames
        # are in pid order.
        moved = (got["tier"] != free["tier"]) | (got["scheme"] != free["scheme"])
        rows.append({"partitions": n, "seconds": seconds, "moved": int(moved.sum())})
    out = pd.DataFrame(rows)
    out["growth_per_doubling"] = out["seconds"] / out["seconds"].shift()
    (results_dir / "repair_scaling.txt").write_text(
        f"=== capacity repair: optassign.assign under make_tiers(total_gb={CAPACITY_SHARE} x span) ===\n"
        f"host: {platform.machine()}, {os.cpu_count()} CPUs, "
        f"python {platform.python_version()}\n"
        + out.to_string(index=False, float_format="{:.3f}".format)
        + "\n"
    )
