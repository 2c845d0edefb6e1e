"""Table VI bench: ratio prediction, 5 models x 5 scheme/layouts (TPC-H)."""
from benchmarks._bench_utils import record
from repro.experiments import table06


def test_table06(benchmark, results_dir):
    ds = table06.build_dataset()
    out = benchmark.pedantic(lambda: table06.run(dataset=ds), rounds=1, iterations=1)
    record(results_dir, "table06", table06.PAPER, out)
    grid = out.set_index("Model")
    assert grid.loc["Random Forest", "gzip MAE"] < grid.loc["Averaging", "gzip MAE"]
    assert grid.loc["Random Forest", "gzip R2"] > 0.9
