"""The full SCOPe pipeline end-to-end, with physical tiered writes.

Runs the Table-IX configuration, then writes every final partition to its
assigned tier in its assigned codec through the TieredStore substrate and
reports the metered bill next to the model's predicted costs."""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))  # spark-submit friendliness

import tempfile

from _common import show
from repro.core import pipeline as pl
from repro.experiments import table09
from repro.storage.tiers import TieredStore


def main() -> None:
    tbl, results = table09.run()
    show("Table IX policy grid (Enterprise Data II stand-in)", table09.PAPER, tbl)
    tables, queries = table09.inputs()
    parts = {
        p.pid: p
        for p in pl.gpart_partitions(
            tables, queries, max_rows=table09.MAX_ROWS,
            s_thresh_frac=table09.S_THRESH_FRAC,
        )
    }
    assignment = results["scope_total"].assignment
    unknown = set(assignment["pid"]) - set(parts)
    if unknown:
        raise ValueError(f"planned partitions not rebuilt: {sorted(unknown)[:5]}")
    with tempfile.TemporaryDirectory() as root:
        store = TieredStore(root)
        for row in assignment.itertuples(index=False):
            store.put(row.pid, parts[row.pid].sample, tier=row.tier, scheme=row.scheme)
        store.advance(5.5)
        print("\nTiered-write bill (cents, physical sample scale):")
        print(f"  write={store.meter.write:.6f} storage={store.meter.storage:.6f}")
        print(f"  objects per tier: { {t: sum(1 for m in store.catalog.values() if m.tier == t) for t in store.tiers} }")


if __name__ == "__main__":
    main()
