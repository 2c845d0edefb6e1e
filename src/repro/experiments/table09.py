"""Table IX: the full SCOPe policy grid on Enterprise Data II.

Paper setting: 3 tables (~1.5 GB total), Zipf (power-law) query workload,
5.5-month horizon, Premium/Hot/Cool tiers (Archive excluded — minimum
residency), ground-truth compression (footnote 9)."""
from __future__ import annotations

import pandas as pd

from repro import synth_data as sd
from repro.core.pipeline import scope_policy_table
from repro.experiments import common
from repro.workload import queries as wq

#: Paper Table IX (policy -> storage, decomp, read, total, TTFB s,
#: decomp-latency ms, tiering [P, H, C]).
PAPER = pd.DataFrame(
    [
        ("Default (store on premium)", 150.1, 0.0, 18.74, 168.9, 0.024, 0.0, [3, 0, 0]),
        ("Compress & store on premium", 138.8, 0.1, 18.5, 157.4, 0.024, 0.016, [3, 0, 0]),
        ("Multi-Tiering", 20.0, 0.0, 62.0, 82.0, 0.281, 0.0, [0, 2, 1]),
        ("Latency time focused", 49.6, 0.0, 49.4, 98.9, 0.165, 0.0, [2, 1, 0]),
        ("Partition & store on premium", 102.7, 0.0, 1.2, 103.9, 0.024, 0.0, [23, 0, 0]),
        ("Partitioning + Tiering", 36.3, 0.0, 26.7, 62.9, 0.281, 0.0, [0, 4, 19]),
        ("Partitioning + Compression", 130.1, 0.8, 2.3, 133.1, 0.024, 0.170, [23, 0, 0]),
        ("SCOPe (Latency time focused)", 94.9, 0.0, 26.4, 121.2, 0.164, 0.0001, [16, 3, 4]),
        ("SCOPe (No capacity constraint)", 22.7, 0.6, 7.0, 30.3, 0.216, 0.131, [2, 11, 10]),
        ("SCOPe (Read+Decomp. cost focused)", 75.5, 0.5, 5.2, 81.2, 0.084, 0.110, [6, 15, 2]),
        ("SCOPe (Total cost focused)", 22.7, 0.6, 7.0, 30.3, 0.216, 0.131, [2, 11, 10]),
    ],
    columns=["Policy", "Storage", "Decomp", "Read", "Total", "TTFB(s)",
             "DecompLat(ms)", "Tiering"],
)


#: Table IX's ``scope_policy_table`` settings: the 5.5-month horizon, rows
#: per partition sample, executions of each logged query over the horizon,
#: and G-PART's span cap as a fraction of the volume.
PLAN = dict(months=5.5, max_rows=8000, query_repeat=6.0, s_thresh_frac=0.1)


def inputs(
    *, sf: float = 0.01, n_queries: int = 1200, n_files: int = 24
) -> tuple[dict[str, wq.TableFiles], list[wq.Query]]:
    """Table IX's three tables and its Zipf query log, both on seed 0."""
    tables = common.enterprise_table_files(sf=sf, n_files=n_files)
    queries = wq.gen_zipf_workload(
        tables, n_queries=n_queries, alpha=1.5, sort_cols=sd.ENTERPRISE_SORT_COL
    )
    return tables, queries


def run(*, max_rows: int = PLAN["max_rows"], **inputs_kw) -> tuple[pd.DataFrame, dict]:
    """The policy grid on :func:`inputs` under :data:`PLAN`; ``inputs_kw``
    and ``max_rows`` shrink the instance."""
    return scope_policy_table(*inputs(**inputs_kw), **{**PLAN, "max_rows": max_rows})
