"""COMPREDICT as a Spark job: distributed weighted-entropy features for the
TPC-H-lite tables + a trained Random-Forest ratio predictor."""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))  # spark-submit friendliness

from _common import get_spark
from repro import spark_ops
from repro import synth_data as sd
from repro.core import compredict as cp
from repro.experiments import common, table06
from repro.workload import queries as wq


def main(sf: float = 0.01, seed: int = 0) -> None:
    spark = get_spark("compredict")
    # Distributed feature extraction per table (the production path).
    for name, gen in sd.TPCH_PDF.items():
        sdf = spark.createDataFrame(gen(sf=sf, seed=seed))
        feats = spark_ops.weighted_entropy(sdf)
        print(name, {k: round(v, 2) for k, v in feats.items()})
    # Model quality on query samples (pandas path; same features).
    ds = table06.build_dataset(sf=sf, n_per_template=6, max_rows=2000, seed=seed)
    out = cp.train_eval(
        ds, target="ratio_csv+gzip",
        features=cp.ENTROPY_FEATURES + ("size_mb",),
        model_factory=cp.MODEL_FACTORIES["Random Forest"],
    )
    print("RF ratio prediction (csv+gzip):", {k: round(v, 4) for k, v in out.items()})
    spark.stop()


if __name__ == "__main__":
    main()
