"""Table V bench: sampling x feature ablation for COMPREDICT (gzip, RF)."""
from benchmarks._bench_utils import record
from repro.experiments import table05


def test_table05(benchmark, results_dir):
    out = benchmark.pedantic(table05.run, rounds=1, iterations=1)
    record(results_dir, "table05", table05.PAPER, out)
    ratio = out[out["Target"] == "Compression Ratio"].set_index(
        ["Training Data", "Features"]
    )
    assert (
        ratio.loc[("Queries", "Weighted Entropy"), "MAPE"]
        < ratio.loc[("Random Samples", "Weighted Entropy"), "MAPE"]
    )
