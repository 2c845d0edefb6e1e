"""Shared harness for the experiment modules: dataset construction at a
physical SF with logical-size scaling (DESIGN.md substitution #3), sample
generation for COMPREDICT, and the COMPREDICT metrics grid."""
from __future__ import annotations

import pandas as pd

from repro import synth_data as sd
from repro.core import compredict as cp
from repro.workload import queries as wq


def tpch_table_files(
    *,
    sf: float,
    logical_total_gb: float | None = None,
    n_files: int = 16,
    skew: float | None = None,
    seed: int = 0,
) -> dict[str, wq.TableFiles]:
    """TPC-H-lite tables split into files; logical sizes scaled so that the
    per-table shares of ``logical_total_gb`` match the physical byte shares."""
    pdfs = {
        name: gen(sf=sf, seed=seed + i, skew=skew)
        for i, (name, gen) in enumerate(sd.TPCH_PDF.items())
    }
    phys = {n: p.memory_usage(deep=True).sum() for n, p in pdfs.items()}
    total_phys = sum(phys.values())
    out = {}
    for name, pdf in pdfs.items():
        logical = (
            logical_total_gb * phys[name] / total_phys
            if logical_total_gb is not None
            else None
        )
        out[name] = wq.split_table(
            pdf,
            name,
            n_files=n_files,
            sort_col=sd.TPCH_SORT_COL[name],
            logical_size_gb=logical,
        )
    return out


def enterprise_table_files(
    *, sf: float, n_files: int = 12, seed: int = 0
) -> dict[str, wq.TableFiles]:
    """The 3-table Enterprise Data II stand-in at the paper's ~1.5 GB total.
    Table ``i`` is drawn on ``seed + 10 + i``, so seed 0 gives the
    generators' default frames."""
    pdfs = {
        name: gen(sf=sf, seed=seed + 10 + i)
        for i, (name, gen) in enumerate(sd.ENTERPRISE_PDF.items())
    }
    phys = {n: p.memory_usage(deep=True).sum() for n, p in pdfs.items()}
    total_phys = sum(phys.values())
    return {
        name: wq.split_table(
            pdf,
            name,
            n_files=n_files,
            sort_col=sd.ENTERPRISE_SORT_COL[name],
            logical_size_gb=1.5 * phys[name] / total_phys,
        )
        for name, pdf in pdfs.items()
    }


#: Query results with fewer rows are too small to label a codec's ratio.
MIN_SAMPLE_ROWS = 5


def query_samples(
    tables: dict[str, wq.TableFiles],
    queries: list[wq.Query],
    *,
    max_rows: int,
) -> list[pd.DataFrame]:
    """Materialise query results as COMPREDICT training samples (§V: 'samples
    used to train the model are derived from results of queries'); results
    under ``MIN_SAMPLE_ROWS`` rows are skipped."""
    out = []
    for q in queries:
        res = wq.run_query_pandas(tables[q.table].pdf, q)
        if len(res) < MIN_SAMPLE_ROWS:
            continue
        if len(res) > max_rows:
            res = res.iloc[:max_rows].reset_index(drop=True)
        out.append(res)
    return out


def metrics_grid(
    dataset: pd.DataFrame,
    *,
    models: dict,
    schemes: dict[str, str],
    target_prefix: str,
    features: tuple[str, ...],
) -> pd.DataFrame:
    """models x schemes grid of MAE/MAPE/R² — the layout of Tables VI–VIII."""
    rows = []
    for mname, factory in models.items():
        row: dict = {"Model": mname}
        for label, scheme in schemes.items():
            m = cp.train_eval(
                dataset,
                target=f"{target_prefix}_{scheme}",
                features=features,
                model_factory=factory,
            )
            row[f"{label} MAE"] = round(m["MAE"], 4)
            row[f"{label} MAPE"] = round(m["MAPE"], 3)
            row[f"{label} R2"] = round(m["R2"], 3)
        rows.append(row)
    return pd.DataFrame(rows)
