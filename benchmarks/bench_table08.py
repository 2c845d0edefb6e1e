"""Table VIII bench: decompression-speed (sec/GB) prediction grids."""
from benchmarks._bench_utils import record
from repro.experiments import table08


def test_table08(benchmark, results_dir, table07_datasets):
    out = benchmark.pedantic(
        lambda: table08.run(datasets=table07_datasets), rounds=1, iterations=1
    )
    record(results_dir, "table08", table08.PAPER, out)
    rf = out[out["Model"] == "Random Forest"].set_index("Dataset")
    avg = out[out["Model"] == "Averaging"].set_index("Dataset")
    # csv+gzip decompression sec/GB has near-constant labels at this scale
    # (wall-clock noise dominates), so the informative comparison is the
    # parquet layout — where the spread across samples is real.
    for d in ("TPC-H 100GB", "TPC-H Skew"):
        assert (
            rf.loc[d, "parquet + gzip MAE"] < avg.loc[d, "parquet + gzip MAE"]
        )
    assert rf.loc["TPC-H Skew", "gzip MAE"] < avg.loc["TPC-H Skew", "gzip MAE"]
