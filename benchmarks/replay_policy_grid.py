"""Same-decisions check for the policy grid of Tables IX–XI.

    python benchmarks/replay_policy_grid.py record DIR    # on the old tree
    python benchmarks/replay_policy_grid.py compare DIR   # on the new tree

``record`` runs ``pipeline.scope_policy_table`` on the default inputs of
Tables IX, X and XI and stores, per table, the frames its results priced
(``PolicyResult.perf``) with the display table and the 11 assignment frames.
``compare`` re-plans with ``perf=`` the recorded frames, each picked by the
sampled pids of the partition list asked for, and asserts that the display
tables and all 33 assignment frames are ``check_exact``-equal to the
recorded ones. Replaying the measurements takes the wall-clock decompression
labels out of the comparison, so any difference is a changed decision.

Pick the tree under test with ``PYTHONPATH`` (``PYTHONPATH=src`` from a
checkout's root); it must have ``scope_policy_table``'s ``perf`` argument.
The pickle format is unchanged and frames are matched by pid set rather than
call order, so pickles that earlier copies of this script recorded on older
trees still compare. G-PART's layout depends on the hash seed, so the script
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
from repro.experiments import common, table09
from repro.workload import queries as wq


def _tpch(*, logical_gb: float, n_files: int, seed: int):
    tables = common.tpch_table_files(
        sf=0.1, logical_total_gb=logical_gb, n_files=n_files, seed=seed)
    return tables, wq.gen_tpch_workload(tables, n_per_template=20, seed=seed)


#: Table -> (inputs, ``scope_policy_table`` keywords): the defaults of each
#: table's ``run``. Table X's are also perfbench's ``tpch100`` inputs.
CASES = {
    "table09": (table09.inputs,
                dict(max_rows=8000, query_repeat=6.0, s_thresh_frac=0.1)),
    "table10": (lambda: _tpch(logical_gb=100.0, n_files=32, seed=0),
                dict(max_rows=8000, query_repeat=25.0, s_thresh_frac=0.05)),
    "table11": (lambda: _tpch(logical_gb=1000.0, n_files=48, seed=1),
                dict(max_rows=8000, query_repeat=25.0, s_thresh_frac=0.05)),
}
MONTHS = 5.5


def plan(inputs, kw: dict):
    """``scope_policy_table`` on ``inputs()``; returns the display table,
    the assignment frames by policy and the performance frames it priced, in
    the order they were asked for."""
    tables, queries = inputs()
    table, results = pipeline.scope_policy_table(
        tables, queries, months=MONTHS, **kw)
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
