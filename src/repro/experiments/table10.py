"""Table X: the SCOPe policy grid on TPC-H at 100 GB logical volume.

Physical data at small SF; spans scaled to 100 GB (DESIGN.md sub. #3).
Workload: 22 templates x 20 instances (paper §III)."""
from __future__ import annotations

import pandas as pd

from repro.core.pipeline import scope_policy_table
from repro.experiments import common
from repro.workload import queries as wq

#: Paper Table X.
PAPER = pd.DataFrame(
    [
        ("Default (store on premium)", 8741.9, 0.0, 3828.5, 12570.4, 0.18, 0.0, [8, 0, 0]),
        ("Compress & store on premium", 7138.2, 121.1, 3387.5, 10646.8, 0.18, 3.61, [8, 0, 0]),
        ("Multi-Tiering", 8741.8, 0.0, 3828.5, 12570.4, 0.18, 0.0, [5, 3, 0]),
        ("Latency time focused", 3288.4, 0.0, 22805.0, 26093.4, 0.68, 0.0, [7, 0, 1]),
        ("Partition & store on premium", 8702.6, 0.0, 117.3, 8819.9, 0.18, 0.0, [137, 0, 0]),
        ("Partitioning + Tiering", 1397.0, 0.0, 415.3, 1812.4, 2.06, 0.0, [0, 94, 43]),
        ("Partitioning + Compression", 5480.4, 32.1, 60.9, 5573.4, 0.18, 0.96, [137, 0, 0]),
        ("SCOPe (Latency time focused)", 5178.1, 0.0, 544.5, 5722.6, 0.48, 0.0, [108, 0, 29]),
        ("SCOPe (No capacity constraint)", 691.4, 29.9, 219.3, 940.6, 2.06, 0.89, [0, 94, 43]),
        ("SCOPe (Read+Decomp. cost focused)", 4733.9, 17.4, 80.9, 4832.1, 0.35, 0.52, [103, 34, 0]),
        ("SCOPe (Total cost focused)", 679.2, 31.1, 242.4, 952.7, 2.06, 0.93, [0, 82, 55]),
    ],
    columns=["Policy", "Storage", "Decomp", "Read", "Total", "TTFB(s)",
             "DecompLat(ms)", "Tiering"],
)


#: ``scope_policy_table`` settings of Tables X and XI, as in
#: :data:`table09.PLAN` with a larger query recurrence and a finer span cap.
PLAN = dict(months=5.5, max_rows=8000, query_repeat=25.0, s_thresh_frac=0.05)


def inputs(
    *,
    sf: float = 0.1,
    logical_gb: float = 100.0,
    n_per_template: int = 20,
    n_files: int = 32,
    seed: int = 0,
) -> tuple[dict[str, wq.TableFiles], list[wq.Query]]:
    """TPC-H tables with spans scaled to ``logical_gb`` and the 22-template
    workload; Table XI sets the instance at 1 TB."""
    tables = common.tpch_table_files(
        sf=sf, logical_total_gb=logical_gb, n_files=n_files, seed=seed
    )
    return tables, wq.gen_tpch_workload(tables, n_per_template=n_per_template, seed=seed)


def run(*, max_rows: int = PLAN["max_rows"], **inputs_kw) -> tuple[pd.DataFrame, dict]:
    """The policy grid on :func:`inputs` under :data:`PLAN`; ``inputs_kw``
    and ``max_rows`` shrink the instance."""
    return scope_policy_table(*inputs(**inputs_kw), **{**PLAN, "max_rows": max_rows})
