"""Table XI: the SCOPe policy grid on TPC-H at 1 TB logical volume.

Same machinery as Table X with spans scaled to 1 TB and a finer file split
(the paper sees more partitions at 1 TB: 212 vs 137)."""
from __future__ import annotations

import functools

import pandas as pd

from repro.experiments import table10

#: Paper Table XI (K = x1000 in the paper's rendering; stored flat here).
PAPER = pd.DataFrame(
    [
        ("Default (store on premium)", 89230.0, 0.0, 39130.0, 128360.0, 0.18, 0.0, [8, 0, 0]),
        ("Compress & store on premium", 73790.0, 3360.0, 34850.0, 112010.0, 0.18, 100.31, [8, 0, 0]),
        ("Multi-Tiering", 89110.0, 0.0, 38940.0, 128050.0, 0.18, 0.0, [5, 3, 0]),
        ("Latency time focused", 41580.0, 0.0, 242470.0, 284050.0, 1.07, 0.0, [6, 2, 0]),
        ("Partition & store on premium", 81370.0, 0.0, 3160.0, 84530.0, 0.18, 0.0, [212, 0, 0]),
        ("Partitioning + Tiering", 26770.0, 0.0, 7510.0, 34280.0, 2.91, 0.0, [0, 148, 64]),
        ("Partitioning + Compression", 47050.0, 2200.0, 1130.0, 50380.0, 0.18, 65.68, [212, 0, 0]),
        ("SCOPe (Latency time focused)", 64680.0, 0.0, 4760.0, 69440.0, 1.44, 0.0, [101, 77, 34]),
        ("SCOPe (No capacity constraint)", 17930.0, 1030.0, 6460.0, 25420.0, 2.91, 30.89, [0, 176, 36]),
        ("SCOPe (Read+Decomp. cost focused)", 61300.0, 780.0, 1660.0, 63740.0, 1.15, 23.32, [89, 123, 0]),
        ("SCOPe (Total cost focused)", 15140.0, 120.0, 4530.0, 19790.0, 3.20, 36.63, [0, 155, 57]),
    ],
    columns=["Policy", "Storage", "Decomp", "Read", "Total", "TTFB(s)",
             "DecompLat(ms)", "Tiering"],
)

#: Table X's instance at 1 TB, on a finer file split and another seed.
INSTANCE = dict(logical_gb=1000.0, n_files=48, seed=1)
PLAN = table10.PLAN
inputs = functools.partial(table10.inputs, **INSTANCE)
run = functools.partial(table10.run, **INSTANCE)
