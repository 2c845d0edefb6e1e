"""Smoke coverage for the job entrypoint ``jobs/scope.py`` and the offline
build backend (no job runs at full size — benches cover the heavy paths)."""
import functools
import importlib
import importlib.util
import os
import pathlib
import re
import subprocess
import sys
import zipfile

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCOPE = ROOT / "jobs" / "scope.py"
TABLES = [f"{n:02d}" for n in range(2, 12)]
#: Every command of ``jobs/scope.py`` by name, with its arguments.
COMMANDS = {f"table{nn}": ["table", nn] for nn in TABLES} | {
    "scope_pipeline": ["pipeline"],
    "gpart_job": ["gpart"],
    "compredict_job": ["entropy"],
}


def _load():
    spec = importlib.util.spec_from_file_location("scope_job", SCOPE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestJobs:
    def test_one_job_per_table(self, monkeypatch):
        """``table NN`` calls ``repro.experiments.tableNN.run`` (stubbed
        here, so no table is computed) for every table of the paper, and
        no other number."""
        import pandas as pd

        job = _load()
        called = []
        for nn in TABLES:
            table = importlib.import_module(f"repro.experiments.table{nn}")
            monkeypatch.setattr(
                table, "run", lambda nn=nn: called.append(nn) or pd.DataFrame()
            )
            job.main(["table", nn])
        assert called == TABLES
        with pytest.raises(SystemExit):
            job.main(["table", "12"])

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_job_importable_with_main(self, name, monkeypatch):
        """Each command line reaches its job (stubbed here) and only it."""
        job = _load()
        called = []
        monkeypatch.setattr(job, "table_job", lambda nn: called.append(["table", nn]))
        for key in job.JOBS:
            monkeypatch.setitem(job.JOBS, key, lambda key=key: called.append([key]))
        job.main(COMMANDS[name])
        assert called == [COMMANDS[name]]

    def test_scope_pipeline_places_the_plan(self, monkeypatch, capsys):
        """``pipeline`` writes every partition that ``scope_total`` planned,
        on a tiny Table IX configuration."""
        from repro.experiments import table09
        from repro.storage import tiers

        job = _load()
        planned, stores = [], []
        run = table09.run

        def tiny():
            out = run(sf=0.002, n_queries=200, n_files=10, max_rows=300)
            planned.append(out[1]["scope_total"])
            return out

        class Recording(tiers.TieredStore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                stores.append(self)

        monkeypatch.setattr(table09, "run", tiny)
        monkeypatch.setattr(job, "TieredStore", Recording)
        job.main(["pipeline"])
        (plan,), (store,) = planned, stores
        assert set(plan.assignment["pid"]) <= set(store.catalog)
        for row in plan.assignment.itertuples(index=False):
            meta = store.catalog[row.pid]
            assert (meta.tier, meta.scheme) == (row.tier, row.scheme)
        assert "Tiered-write bill" in capsys.readouterr().out

    def test_gpart_job_counts_the_pipeline_partitions(self, spark, monkeypatch, capsys):
        """``gpart`` on a tiny Table IX log, on the suite's session: its
        families are ``workload_fileparts``' and its partitions are the
        pipeline's G-PART partitions. The session it did not start stays up."""
        from repro.core import pipeline as pl
        from repro.experiments import table09
        from repro.workload.queries import workload_fileparts

        tiny = functools.partial(table09.inputs, sf=0.002, n_queries=200, n_files=10)
        monkeypatch.setattr(table09, "inputs", tiny)
        _load().main(["gpart"])
        first = capsys.readouterr().out.splitlines()[0]
        counts = re.fullmatch(r"(\d+) queries -> (\d+) families -> (\d+) partitions", first)
        n_queries, n_families, n_partitions = map(int, counts.groups())
        tables, queries = tiny()
        parted = pl.gpart_partitions(
            tables, queries, max_rows=50, s_thresh_frac=table09.PLAN["s_thresh_frac"]
        )
        assert n_queries == len(queries)
        assert n_families == len(workload_fileparts(queries))
        assert n_partitions == sum(not p.pid.startswith("rest_") for p in parted) > 0
        assert spark.range(3).count() == 3

    def test_entropy_job_prints_each_table(self, spark, monkeypatch, capsys):
        """``entropy`` prints the weighted-entropy features of every Table VI
        table, here at a tiny scale factor, on the suite's session."""
        from repro.core.compredict import ENTROPY_FEATURES
        from repro.experiments import table06

        tables = table06.inputs(sf=0.001)
        monkeypatch.setattr(table06, "inputs", lambda: tables)
        _load().main(["entropy"])
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" ", 1)[0] for line in lines] == list(tables)
        for line in lines:
            assert all(f"'{f}'" in line for f in ENTROPY_FEATURES)
        assert spark.range(3).count() == 3

    def test_table03_shows_the_confusion_matrix(self, capsys):
        """``table 03`` prints Table III's confusion matrix as this
        reproduction's table, not the classifier and frames behind it."""
        _load().main(["table", "03"])
        out = capsys.readouterr().out
        assert "ideal_hot" in out
        assert "RandomForestClassifier" not in out

    def test_common_show_formats(self, capsys):
        import pandas as pd

        _load().show("t", pd.DataFrame({"a": [1]}), pd.DataFrame({"a": [2]}))
        out = capsys.readouterr().out
        assert "paper" in out and "reproduction" in out


#: Modules of the plan → place → serve path and their inputs; only
#: ``repro.spark_ops`` (and the test oracle) may import pyspark.
DRIVER_MODULES = (
    "repro.core.pipeline",
    "repro.core.datapart",
    "repro.core.compredict",
    "repro.experiments.common",
    "repro.storage.tiers",
    "repro.synth_data",
    "repro.workload.queries",
    "repro.workload.access_logs",
)


def test_driver_modules_import_no_pyspark():
    """A fresh interpreter that imports the driver-side modules has not
    loaded pyspark."""
    code = (
        "import importlib, sys\n"
        f"for m in {DRIVER_MODULES!r}:\n"
        "    importlib.import_module(m)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'pyspark'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


class TestBuildBackend:
    def test_editable_wheel_contains_pth(self, tmp_path):
        sys.path.insert(0, str(ROOT))
        try:
            import _build_backend as bb
        finally:
            sys.path.pop(0)
        name = bb.build_editable(str(tmp_path))
        with zipfile.ZipFile(tmp_path / name) as z:
            names = z.namelist()
            assert "repro.pth" in names
            assert any(n.endswith("RECORD") for n in names)
            pth = z.read("repro.pth").decode().strip()
            assert pth.endswith("src")

    def test_wheel_contains_package(self, tmp_path):
        sys.path.insert(0, str(ROOT))
        try:
            import _build_backend as bb
        finally:
            sys.path.pop(0)
        name = bb.build_wheel(str(tmp_path))
        with zipfile.ZipFile(tmp_path / name) as z:
            names = z.namelist()
            assert "repro/__init__.py" in names
            assert "repro/core/optassign.py" in names
