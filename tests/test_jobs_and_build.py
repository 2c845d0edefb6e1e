"""Smoke coverage for the job entrypoints and the offline build backend
(neither runs a full job — benches cover the heavy paths)."""
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys
import zipfile

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
JOB_FILES = sorted(p for p in (ROOT / "jobs").glob("*.py") if p.name != "_common.py")
TABLES = [f"{n:02d}" for n in range(2, 12)]
#: Every entry command: each job file, and ``run_table.py NN`` as tableNN.
COMMANDS = {p.stem: p for p in JOB_FILES if p.stem != "run_table"} | {
    f"table{nn}": ROOT / "jobs" / "run_table.py" for nn in TABLES
}


def _load(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(f"job_{path.stem}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestJobs:
    def test_one_job_per_table(self, monkeypatch):
        """``run_table.py NN`` calls ``repro.experiments.tableNN.run`` (stubbed
        here, so no table is computed) for every table of the paper."""
        import pandas as pd

        job = _load(ROOT / "jobs" / "run_table.py")
        called = []
        for nn in TABLES:
            table = importlib.import_module(f"repro.experiments.table{nn}")
            monkeypatch.setattr(
                table, "run", lambda nn=nn: called.append(nn) or pd.DataFrame()
            )
            job.main([nn])
        assert called == TABLES
        for extra in ("optassign_job", "gpart_job", "compredict_job", "scope_pipeline"):
            assert extra in COMMANDS

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_job_importable_with_main(self, name):
        mod = _load(COMMANDS[name])
        assert callable(mod.main)

    def test_scope_pipeline_places_the_plan(self, monkeypatch, capsys):
        """The job writes every partition that ``scope_total`` planned, on a
        tiny Table IX configuration."""
        from repro.experiments import table09
        from repro.storage import tiers

        job = _load(ROOT / "jobs" / "scope_pipeline.py")
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
        job.main()
        (plan,), (store,) = planned, stores
        assert set(plan.assignment["pid"]) <= set(store.catalog)
        for row in plan.assignment.itertuples(index=False):
            meta = store.catalog[row.pid]
            assert (meta.tier, meta.scheme) == (row.tier, row.scheme)
        assert "Tiered-write bill" in capsys.readouterr().out

    def test_common_show_formats(self, capsys):
        import pandas as pd

        sys.path.insert(0, str(ROOT / "jobs"))
        try:
            from _common import show
        finally:
            sys.path.pop(0)
        show("t", pd.DataFrame({"a": [1]}), pd.DataFrame({"a": [2]}))
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
