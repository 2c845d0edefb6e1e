"""Reproduce one evaluation table and print it next to the paper's numbers.
It runs the table module's defaults, the instance its bench runs.

    python jobs/run_table.py 10     # Table X; any of 02..11
"""
import argparse
import importlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))  # spark-submit friendliness

from _common import show

TABLES = [f"{n:02d}" for n in range(2, 12)]


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Reproduce one evaluation table.")
    parser.add_argument("table", choices=TABLES, help="table number, two digits")
    nn = parser.parse_args(argv).table
    table = importlib.import_module(f"repro.experiments.table{nn}")
    out = table.run()
    ours = out[0] if isinstance(out, tuple) else out
    if hasattr(table, "PAPER"):
        show(f"Table {int(nn)}", table.PAPER, ours)


if __name__ == "__main__":
    main()
