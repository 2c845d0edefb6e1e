"""The full SCOPe pipeline end-to-end, with physical tiered writes.

Runs the Table-IX configuration and prints its policy grid next to the
paper's, then writes every partition that the total-cost SCOPe policy
planned to its assigned tier in its assigned codec through the TieredStore
substrate. After storage over Table IX's billing horizon it prints the
store's metered write and storage bill, at physical sample scale (not the
model's logical GB), and the number of objects per tier. It does not
compare that bill with the model's costs."""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))  # spark-submit friendliness

import tempfile

from _common import show
from repro.experiments import table09
from repro.storage.tiers import TieredStore


def main() -> None:
    tbl, results = table09.run()
    show("Table IX policy grid (Enterprise Data II stand-in)", table09.PAPER, tbl)
    planned = results["scope_total"]
    samples = {p.pid: p.sample for p in planned.partitions}
    with tempfile.TemporaryDirectory() as root:
        store = TieredStore(root)
        for row in planned.assignment.itertuples(index=False):
            store.put(row.pid, samples[row.pid], tier=row.tier, scheme=row.scheme)
        store.advance(table09.PLAN["months"])
        print("\nTiered-write bill (cents, physical sample scale):")
        print(f"  write={store.meter.write:.6f} storage={store.meter.storage:.6f}")
        print(f"  objects per tier: { {t: sum(1 for m in store.catalog.values() if m.tier == t) for t in store.tiers} }")


if __name__ == "__main__":
    main()
