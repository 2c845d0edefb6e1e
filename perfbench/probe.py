"""Hash-seed layout probe: query families plus G-PART on a pickled query log.

``run.py`` starts this file once per ``PYTHONHASHSEED`` on the same pickle
and counts the distinct layouts the processes print. Frozensets are rebuilt
on unpickling, so their iteration order follows each process's string hash.

    PYTHONHASHSEED=3 python3 perfbench/probe.py .perfbench_out/querylog.pkl
"""
from __future__ import annotations

import hashlib
import inspect
import json
import pickle
import sys

from repro.core import pipeline
from repro.core.gpart import gpart
from repro.workload.queries import workload_fileparts


def main(path: str) -> int:
    # The pickle is written by worker.py in the same run.
    with open(path, "rb") as fh:
        log = pickle.load(fh)
    defaults = inspect.signature(pipeline.gpart_partitions).parameters
    sizes = log["file_sizes"]
    merged = gpart(
        workload_fileparts(log["queries"]),
        sizes,
        s_thresh=log["s_thresh_frac"] * sum(sizes.values()),
        rho_c=defaults["rho_c"].default,
        rho_abs=defaults["rho_abs"].default,
    )
    layout = sorted(sorted(m.files) for m in merged)
    print(hashlib.sha256(json.dumps(layout).encode()).hexdigest(), len(layout))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
