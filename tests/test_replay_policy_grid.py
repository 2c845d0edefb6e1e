"""The same-decisions tool ``benchmarks/replay_policy_grid.py`` on a tiny
Table IX: a recording replays equal, and an altered recording does not."""
import functools
import pickle

import pytest

from benchmarks import replay_policy_grid as rpg
from repro.experiments import table09


@pytest.fixture
def tiny_cases(monkeypatch):
    monkeypatch.setattr(rpg, "CASES", {"table09": (
        functools.partial(table09.inputs, sf=0.003, n_queries=150, n_files=10),
        {**table09.PLAN, "max_rows": 400},
    )})


def test_record_then_compare(tiny_cases, tmp_path):
    rpg.record(tmp_path)
    rpg.compare(tmp_path)

    path = tmp_path / "table09.pkl"
    with open(path, "rb") as fh:
        rec = pickle.load(fh)
    # Double the ratio of a scheme Ares chose, on the whole-table frame.
    chosen = rec["assignments"]["ares"].iloc[0]
    whole = rec["measured"][0]
    row = (whole["pid"] == chosen.pid) & (whole["scheme"] == chosen.scheme)
    assert row.sum() == 1
    whole.loc[row, "ratio"] *= 2
    with open(path, "wb") as fh:
        pickle.dump(rec, fh)
    with pytest.raises(AssertionError):
        rpg.compare(tmp_path)
