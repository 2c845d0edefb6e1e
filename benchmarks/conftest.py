"""Benchmark-local fixtures: result sink + Tables VII/VIII's shared datasets.

Every bench writes the table it produced (paper rows next to measured rows)
to ``benchmarks/results/tableNN.txt`` so the numbers survive the run; the
pytest-benchmark timing covers the experiment's core computation.
"""
from __future__ import annotations

import pathlib

import pytest

RESULTS = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS.mkdir(exist_ok=True)
    return RESULTS


@pytest.fixture(scope="session")
def table07_datasets():
    """Shared by bench_table07 and bench_table08 — the expensive part is
    labelling."""
    from repro.experiments import table07

    return table07.build_datasets()
