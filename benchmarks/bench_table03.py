"""Table III bench: access-predictor confusion matrix (760 datasets, 700 TB)."""
from benchmarks._bench_utils import record
from repro.experiments import table03


def test_table03(benchmark, results_dir):
    confusion, res = benchmark.pedantic(table03.run, rounds=1, iterations=1)
    record(
        results_dir, "table03", table03.PAPER, confusion,
        extra=f"F1 hot={res['f1_hot']:.4f} cool={res['f1_cool']:.4f} "
        f"(paper: F1 > {table03.PAPER_F1})",
    )
    assert res["f1_hot"] > 0.95
    assert res["f1_cool"] > 0.95
