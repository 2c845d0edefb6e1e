"""Same-decisions check for the policy grid of Tables IX–XI.

    python benchmarks/replay_policy_grid.py record DIR    # on the old tree
    python benchmarks/replay_policy_grid.py compare DIR   # on the new tree

``record`` runs ``pipeline.scope_policy_table`` on the instances of Tables
IX, X and XI, read from each table module's ``inputs()`` and ``PLAN`` (what
its ``run`` and bench use), and stores, per table, the frames its results
priced (``PolicyResult.perf``) with the display table and the 11 assignment
frames.
``compare`` re-plans with ``perf=`` the recorded frames, each picked by the
sampled pids of the partition list asked for, and asserts that the display
tables and all 33 assignment frames are ``check_exact``-equal to the
recorded ones. Replaying the measurements takes the wall-clock decompression
labels out of the comparison, so any difference is a changed decision.

Pick the tree under test with ``PYTHONPATH`` (``PYTHONPATH=src`` from a
checkout's root); it must have ``scope_policy_table``'s ``perf`` argument
and the table modules' ``inputs`` and ``PLAN``. The pickle format is
unchanged and frames are matched by pid set rather than call order, so
pickles that earlier copies of this script recorded on older trees still
compare. G-PART's layout depends on the hash seed, so the script
re-runs itself with ``PYTHONHASHSEED=0`` when none is set.
"""
from __future__ import annotations

import argparse
import os
import pickle
import sys
from pathlib import Path

import pandas as pd

from repro.core import pipeline
from repro.experiments import table09, table10, table11

#: Table -> (inputs, ``scope_policy_table`` settings), each read from the
#: table's module. Table X's inputs are also perfbench's ``tpch100`` inputs.
CASES = {"table09": (table09.inputs, table09.PLAN),
         "table10": (table10.inputs, table10.PLAN),
         "table11": (table11.inputs, table11.PLAN)}


def plan(inputs, kw: dict):
    """``scope_policy_table`` on ``inputs()``; returns the display table,
    the assignment frames by policy and the performance frames it priced, in
    the order they were asked for."""
    table, results = pipeline.scope_policy_table(*inputs(), **kw)
    frames = list({id(r.perf): r.perf for r in results.values()}.values())
    return table, {k: r.assignment for k, r in results.items()}, frames


def recorded(frames: list[pd.DataFrame]):
    """A ``perf`` source that returns the recorded frame of a partition list,
    picked by the list's sampled pids."""
    by_pids = {frozenset(f["pid"]): f for f in frames}

    def perf(partitions):
        want = frozenset(p.pid for p in partitions if len(p.sample))
        if want not in by_pids:
            raise AssertionError(
                f"no recorded frame has the {len(want)} sampled pids planned")
        return by_pids[want]

    return perf


def record(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, (inputs, kw) in CASES.items():
        table, assignments, measured = plan(inputs, kw)
        with open(out / f"{name}.pkl", "wb") as fh:
            pickle.dump({"table": table, "assignments": assignments,
                         "measured": measured}, fh)
        print(f"{name}: recorded {len(measured)} measurement frames, "
              f"{len(assignments)} assignments")


def compare(out: Path) -> None:
    for name, (inputs, kw) in CASES.items():
        with open(out / f"{name}.pkl", "rb") as fh:
            rec = pickle.load(fh)
        table, assignments, _ = plan(inputs, {**kw, "perf": recorded(rec["measured"])})
        pd.testing.assert_frame_equal(table, rec["table"], check_exact=True)
        assert list(assignments) == list(rec["assignments"]), name
        for key, frame in assignments.items():
            pd.testing.assert_frame_equal(
                frame, rec["assignments"][key], check_exact=True, obj=f"{name}.{key}")
        print(f"{name}: display table and {len(assignments)} assignments equal")


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("record", "compare"))
    ap.add_argument("dir", type=Path)
    args = ap.parse_args(argv)
    (record if args.mode == "record" else compare)(args.dir)


if __name__ == "__main__":
    if "PYTHONHASHSEED" not in os.environ:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    main()
