"""Query workloads and query→file mapping (§III, §VI).

Tables are split into fixed-row-count **files** (the unit of DATAPART),
each carrying per-column min/max statistics; a query touches the files whose
stats intersect its predicate — the same row-group pruning a parquet reader
does, so "the set of records a query needs to scan" (§VI) is well defined
without row-level labelling (which the paper explicitly avoids).

Two workloads:

- :func:`gen_tpch_workload` — 22 simplified TPC-H-style templates × N
  instances each, with predicates over the lite schema's clustering and
  categorical columns (uniform parameter draws);
- :func:`gen_zipf_workload` — the enterprise workload: power-law (Zipf-like)
  popularity over file positions, the paper's own substitution for missing
  Enterprise-II access logs.

Every query's ``where`` clause is valid in both Spark SQL and DuckDB so
results can be oracle-checked.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.gpart import FilePart


@dataclass(frozen=True)
class FileMeta:
    """One file (contiguous row block) of a table."""

    file_id: str
    table: str
    row_lo: int  # inclusive
    row_hi: int  # exclusive
    size_gb: float
    stats: dict  # column -> (min, max) for orderable columns


@dataclass
class TableFiles:
    """A table split into files, with the pandas data kept for query running."""

    table: str
    pdf: pd.DataFrame
    files: list[FileMeta]

    @property
    def size_gb(self) -> float:
        return sum(f.size_gb for f in self.files)

    def file_sizes(self) -> dict[str, float]:
        return {f.file_id: f.size_gb for f in self.files}


def split_table(
    pdf: pd.DataFrame,
    table: str,
    *,
    n_files: int,
    sort_col: str | None = None,
    logical_size_gb: float | None = None,
) -> TableFiles:
    """Split ``pdf`` into ``n_files`` row blocks (after sorting by
    ``sort_col`` — the natural ingestion/clustering order).

    ``logical_size_gb`` scales file sizes to the paper's logical volume
    (physical data is generated at small SF; costs are linear in GB so the
    policy comparison is scale-invariant — DESIGN.md substitution #3).
    """
    if sort_col is not None:
        pdf = pdf.sort_values(sort_col, ignore_index=True)
    n = len(pdf)
    n_files = max(1, min(n_files, n))
    bounds = np.linspace(0, n, n_files + 1).astype(int)
    total_gb = (
        logical_size_gb
        if logical_size_gb is not None
        else pdf.memory_usage(deep=True).sum() / 2**30
    )
    files = []
    for i in range(n_files):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        if lo == hi:
            continue
        block = pdf.iloc[lo:hi]
        stats = {}
        for col in block.columns:
            s = block[col]
            if s.dtype.kind in "ifM":  # int, float, datetime
                stats[col] = (s.min(), s.max())
        files.append(
            FileMeta(
                file_id=f"{table}/f{i:04d}",
                table=table,
                row_lo=lo,
                row_hi=hi,
                size_gb=total_gb * (hi - lo) / n,
                stats=stats,
            )
        )
    return TableFiles(table=table, pdf=pdf, files=files)


@dataclass(frozen=True)
class Query:
    """One query instance: a table scan with a conjunctive predicate."""

    query_id: str
    table: str
    where: str  # valid in Spark SQL and DuckDB
    files: frozenset[str]  # file_ids the predicate's ranges intersect
    select: str = "*"

    def sql(self, relation: str | None = None) -> str:
        rel = relation or self.table
        return f"SELECT {self.select} FROM {rel} WHERE {self.where}"


def _overlapping_files(
    tf: TableFiles, col: str, lo, hi
) -> frozenset[str]:
    """Files whose [min, max] of ``col`` intersects [lo, hi]."""
    out = []
    for f in tf.files:
        if col not in f.stats:
            out.append(f.file_id)  # no stats -> cannot prune
            continue
        fmin, fmax = f.stats[col]
        if not (hi < fmin or lo > fmax):
            out.append(f.file_id)
    return frozenset(out)


def _all_files(tf: TableFiles) -> frozenset[str]:
    return frozenset(f.file_id for f in tf.files)


#: 22 simplified TPC-H-style templates over the lite schema. Each is
#: (name, table, kind, column, extra). Kinds:
#:  'date_range'  — ts/date window of `extra['days']` days;
#:  'key_range'   — numeric window of `extra['frac']` of the key domain
#:                  (on the clustering column, so pruning is tight);
#:  'date_key'    — date window + a key predicate on a NON-clustered column
#:                  (narrows rows, not files — the date drives pruning, as
#:                  in real TPC-H where most queries carry date filters);
#:  'cat_eq'      — equality on a categorical column (touches all files —
#:                  categorical values are not clustered, as in real lakes).
TPCH_TEMPLATES: list[tuple[str, str, str, str, dict]] = [
    ("q01", "lineitem", "date_range", "l_shipdate", {"days": 60}),
    ("q02", "part", "key_range", "p_partkey", {"frac": 0.125}),
    ("q03", "orders", "date_range", "o_orderdate", {"days": 120}),
    ("q04", "orders", "date_range", "o_orderdate", {"days": 60}),
    ("q05", "customer", "key_range", "c_custkey", {"frac": 0.25}),
    ("q06", "lineitem", "date_range", "l_shipdate", {"days": 120}),
    ("q07", "lineitem", "date_range", "l_shipdate", {"days": 120}),
    ("q08", "orders", "date_range", "o_orderdate", {"days": 240}),
    ("q09", "part", "cat_eq", "p_brand", {}),
    ("q10", "orders", "date_range", "o_orderdate", {"days": 120}),
    ("q11", "supplier", "key_range", "s_suppkey", {"frac": 0.25}),
    ("q12", "lineitem", "date_range", "l_shipdate", {"days": 120}),
    ("q13", "customer", "cat_eq", "c_mktsegment", {}),
    ("q14", "lineitem", "date_range", "l_shipdate", {"days": 30}),
    ("q15", "lineitem", "date_range", "l_shipdate", {"days": 60}),
    ("q16", "part", "cat_eq", "p_type", {}),
    ("q17", "lineitem", "date_key", "l_shipdate", {"days": 120, "key": "l_partkey", "frac": 0.0625}),
    ("q18", "orders", "date_key", "o_orderdate", {"days": 240, "key": "o_orderkey", "frac": 0.125}),
    ("q19", "lineitem", "date_range", "l_shipdate", {"days": 120}),
    ("q20", "supplier", "key_range", "s_suppkey", {"frac": 0.5}),
    ("q21", "lineitem", "date_range", "l_shipdate", {"days": 30}),
    ("q22", "customer", "key_range", "c_custkey", {"frac": 0.125}),
]


def _date_window(
    dates: pd.Series, days: int, g: np.random.Generator
) -> tuple[pd.Timestamp, pd.Timestamp]:
    """One draw of a ``days``-long window [lo, hi) over ``dates``' range.

    Real analytic workloads quantise ranges to calendar units (whole months /
    quarters / years), so query families of one template tile the timeline
    disjointly and families across templates nest when window lengths divide
    — the structure G-PART's merging exploits (§VI). Starts snap to multiples
    of the window (tumbling windows).
    """
    lo_all, hi_all = dates.min(), dates.max()
    span_days = max(1, (hi_all - lo_all).days)
    window = min(days, span_days)
    n_slots = max(1, span_days // window)
    lo = lo_all + pd.Timedelta(days=int(g.integers(0, n_slots)) * window)
    return lo, lo + pd.Timedelta(days=window)


def _key_window(keys: pd.Series, frac: float, g: np.random.Generator) -> tuple[int, int]:
    """One draw of a tumbling key window [lo, hi] covering ``frac`` of the
    key domain — same family-structure rationale as :func:`_date_window`."""
    lo_all, hi_all = int(keys.min()), int(keys.max())
    width = max(1, int((hi_all - lo_all + 1) * frac))
    n_slots = max(1, (hi_all - lo_all + 1) // width)
    lo = lo_all + int(g.integers(0, n_slots)) * width
    return lo, min(lo + width - 1, hi_all)


def _instantiate(
    tf: TableFiles, name: str, kind: str, col: str, extra: dict,
    g: np.random.Generator, qid: str,
) -> Query:
    pdf = tf.pdf
    if kind in ("date_range", "date_key"):
        lo, hi = _date_window(pdf[col], extra["days"], g)
        where = (
            f"{col} >= TIMESTAMP '{lo:%Y-%m-%d %H:%M:%S}' "
            f"AND {col} < TIMESTAMP '{hi:%Y-%m-%d %H:%M:%S}'"
        )
        files = _overlapping_files(tf, col, lo, hi - pd.Timedelta(seconds=1))
        if kind == "date_key":
            # Drawn after the date window: that order fixes the seeded workload.
            k_lo, k_hi = _key_window(pdf[extra["key"]], extra["frac"], g)
            where += f" AND {extra['key']} BETWEEN {k_lo} AND {k_hi}"
    elif kind == "key_range":
        lo, hi = _key_window(pdf[col], extra["frac"], g)
        where = f"{col} BETWEEN {lo} AND {hi}"
        files = _overlapping_files(tf, col, lo, hi)
    elif kind == "cat_eq":
        val = str(g.choice(pdf[col].unique()))
        where = f"{col} = '{val}'"
        files = _all_files(tf)
    else:  # pragma: no cover - template table is static
        raise ValueError(kind)
    return Query(query_id=qid, table=tf.table, where=where, files=files)


def gen_tpch_workload(
    tables: dict[str, TableFiles], *, n_per_template: int = 20, seed: int = 0
) -> list[Query]:
    """The paper's workload: 20 instances of each of the 22 templates."""
    g = np.random.default_rng(seed)
    out = []
    for name, table, kind, col, extra in TPCH_TEMPLATES:
        tf = tables[table]
        for i in range(n_per_template):
            out.append(_instantiate(tf, name, kind, col, extra, g, f"{name}_{i:03d}"))
    return out


def gen_zipf_workload(
    tables: dict[str, TableFiles],
    *,
    n_queries: int,
    sort_cols: dict[str, str],
    alpha: float = 1.5,
    seed: int = 0,
) -> list[Query]:
    """Enterprise workload: Zipf-popular row windows, recency-skewed.

    File *positions from the end* (most recent data first — Fig 1b recency)
    are drawn Zipf(α); window length is geometric. Predicates are on the
    table's clustering column ``sort_cols[table]`` so the file mapping is
    tight.
    """
    g = np.random.default_rng(seed)
    names = sorted(tables)
    out = []
    for i in range(n_queries):
        tf = tables[names[int(g.integers(0, len(names)))]]
        nf = len(tf.files)
        ranks = np.arange(1, nf + 1)
        w = 1.0 / ranks**alpha
        w /= w.sum()
        pos_from_end = int(g.choice(nf, p=w))
        length = min(1 + int(g.geometric(0.5)), nf)
        if g.random() < 0.7:
            # Recency-anchored suffix windows ("last k files") — the dominant
            # enterprise shape; suffix families nest, so G-PART dedups them.
            start_idx = nf - length
        else:
            start_idx = nf - 1 - pos_from_end
            length = min(length, nf - start_idx)
        touched = tf.files[start_idx : start_idx + length]
        lo, hi = touched[0].row_lo, touched[-1].row_hi
        # Express as a predicate on the clustering column's value range.
        col = sort_cols[tf.table]
        c_lo = touched[0].stats[col][0]
        c_hi = touched[-1].stats[col][1]
        if isinstance(c_lo, pd.Timestamp):
            where = (
                f"{col} >= TIMESTAMP '{c_lo:%Y-%m-%d %H:%M:%S}' "
                f"AND {col} <= TIMESTAMP '{c_hi:%Y-%m-%d %H:%M:%S}'"
            )
        else:
            where = f"{col} BETWEEN {c_lo} AND {c_hi}"
        files = _overlapping_files(tf, col, c_lo, c_hi)
        out.append(Query(query_id=f"z{i:04d}", table=tf.table, where=where, files=files))
    return out


def run_query_pandas(pdf: pd.DataFrame, q: Query) -> pd.DataFrame:
    """Run ``q`` on ``pdf`` in DuckDB (used for sample materialisation)."""
    import duckdb

    con = duckdb.connect()
    try:
        con.register(q.table, pdf)
        return con.execute(q.sql()).fetchdf()
    finally:
        con.close()


def workload_fileparts(queries: list[Query]) -> list[FilePart]:
    """Group queries into query families = DATAPART initial partitions."""
    fams: dict[frozenset[str], int] = {}
    for q in queries:
        fams[q.files] = fams.get(q.files, 0) + 1
    return [
        FilePart(pid=f"q{i}", files=files, rho=float(rho))
        for i, (files, rho) in enumerate(
            sorted(fams.items(), key=lambda kv: sorted(kv[0]))
        )
    ]
