"""Fixtures shared by the workload and DATAPART tests."""
import pytest

from repro.workload import queries as wq


@pytest.fixture(scope="module")
def tables():
    """TPC-H-lite tables at 100 GB logical size, 8 files each."""
    from repro.experiments.common import tpch_table_files

    return tpch_table_files(sf=0.003, logical_total_gb=100.0, n_files=8, seed=0)


@pytest.fixture(scope="module")
def workload(tables):
    """Three instances of each of the 22 TPC-H-lite templates."""
    return wq.gen_tpch_workload(tables, n_per_template=3, seed=0)
