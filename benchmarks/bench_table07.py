"""Table VII bench: ratio prediction on TPC-H '100GB' + Zipf-skewed TPC-H."""
from benchmarks._bench_utils import record
from repro.experiments import table07


def test_table07(benchmark, results_dir, table07_datasets):
    out = benchmark.pedantic(
        lambda: table07.run(datasets=table07_datasets), rounds=1, iterations=1
    )
    record(results_dir, "table07", table07.PAPER, out)
    rf = out[out["Model"] == "Random Forest"].set_index("Dataset")
    avg = out[out["Model"] == "Averaging"].set_index("Dataset")
    for d in ("TPC-H 100GB", "TPC-H Skew"):
        assert rf.loc[d, "gzip MAE"] < avg.loc[d, "gzip MAE"]
