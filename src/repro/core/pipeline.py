"""SCOPe unified pipeline (§VII) and the policy grid of Tables IX–XI.

Pipeline: query log → initial partitions (query families) → G-PART merge →
COMPREDICT (or ground-truth) compression performance per final partition →
OPTASSIGN tier + scheme assignment → tiered writes.

Eleven policies (rows of Tables IX–XI), each a configuration of the same
machinery — see DESIGN.md §5 for the mapping to the paper's baselines
(Ares / Hermes / HCompress adaptations):

1.  Default (store on premium)          — no P, no T, no C
2.  Compress & store on premium (Ares)  — C only
3.  Multi-Tiering (Hermes)              — T only, capacity-constrained
4.  Latency time focused (HCompress)    — T + C, minimise expected latency
5.  Partition & store on premium        — P only
6.  Partitioning + Tiering              — P + T
7.  Partitioning + Compression          — P + C
8.  SCOPe (Latency time focused)        — P + T + C, latency objective
9.  SCOPe (No capacity constraint)      — P + T + C, greedy (Theorem 3)
10. SCOPe (Read+Decomp cost focused)    — P + T + C, α = 0 (capacity on)
11. SCOPe (Total cost focused)          — P + T + C, α=β=γ=1 (capacity on)

Cost semantics: every partition is newly placed (L(P) = -1), so the γ term
is the initial write; it is folded into the reported storage column.
'Read Latency (TTFB, s)' is the access-weighted expected TTFB and
'Expected Decomp. Latency' the access-weighted decompression time per
access — the paper's columns, computed from the same Table-XII parameters.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pandas as pd

from repro.core import cost_model as cm
from repro.core.gpart import gpart
from repro.core.optassign import assign_candidates, candidate_frame_numpy
from repro.storage import codecs
from repro.workload.queries import Query, TableFiles, workload_fileparts

#: Scheme set used in the pipeline experiments (parquet is the lake format;
#: csv+gzip represents the row-store option).
PIPELINE_SCHEMES = ("parquet+gzip", "parquet+snappy", "parquet+lz4", "csv+gzip")


@dataclass
class PipelinePartition:
    """A final data partition entering OPTASSIGN."""

    pid: str
    table: str
    files: tuple[str, ...]
    span_gb: float
    rho: float
    sample: pd.DataFrame  # physical rows for compression measurement


# --------------------------------------------------------------------------
# Partition construction
# --------------------------------------------------------------------------
def _partition_rows(tf: TableFiles, file_ids: set[str], *, max_rows: int) -> pd.DataFrame:
    """Materialise (a row-sample of) a partition from its file row-ranges.

    Ratios and sec/GB are intensive, so a contiguous sample preserves them;
    ``max_rows`` bounds the codec-measurement cost at large SF.
    """
    by_id = {f.file_id: f for f in tf.files}
    blocks = [tf.pdf.iloc[by_id[i].row_lo : by_id[i].row_hi] for i in sorted(file_ids)]
    rows = pd.concat(blocks, ignore_index=True) if blocks else tf.pdf.iloc[:0]
    if len(rows) > max_rows:
        step = len(rows) / max_rows
        idx = (np.arange(max_rows) * step).astype(int)
        rows = rows.iloc[idx].reset_index(drop=True)
    return rows


def unpartitioned(
    tables: dict[str, TableFiles], queries: list[Query], *, max_rows: int = 20_000
) -> list[PipelinePartition]:
    """One partition per table; every query on the table scans all of it."""
    out = []
    for name in sorted(tables):
        tf = tables[name]
        rho = float(sum(1 for q in queries if q.table == name))
        out.append(
            PipelinePartition(
                pid=name,
                table=name,
                files=tuple(f.file_id for f in tf.files),
                span_gb=tf.size_gb,
                rho=rho,
                sample=_partition_rows(
                    tf, {f.file_id for f in tf.files}, max_rows=max_rows
                ),
            )
        )
    return out


def gpart_partitions(
    tables: dict[str, TableFiles],
    queries: list[Query],
    *,
    s_thresh_frac: float = 0.6,
    rho_c: float = 3.0,
    rho_abs: float = 50.0,
    max_rows: int = 20_000,
) -> list[PipelinePartition]:
    """G-PART over the whole workload's query families.

    ``s_thresh_frac`` sets the span cap as a fraction of the total volume.
    Files never queried are appended as a per-table residual partition with
    ρ = 0 (they still must be stored somewhere).
    """
    parts = workload_fileparts(queries)
    file_sizes: dict[str, float] = {}
    file_table: dict[str, str] = {}
    for name, tf in tables.items():
        for f in tf.files:
            file_sizes[f.file_id] = f.size_gb
            file_table[f.file_id] = name
    total_gb = sum(file_sizes.values())
    merged = gpart(
        parts,
        file_sizes,
        s_thresh=s_thresh_frac * total_gb,
        rho_c=rho_c,
        rho_abs=rho_abs,
    )
    out = []
    for i, m in enumerate(merged):
        tbl = file_table[next(iter(m.files))]
        tf = tables[tbl]
        own = {f for f in m.files if file_table[f] == tbl}
        out.append(
            PipelinePartition(
                pid=f"p{i:03d}",
                table=tbl,
                files=tuple(sorted(m.files)),
                span_gb=m.span,
                rho=m.rho,
                sample=_partition_rows(tf, own, max_rows=max_rows),
            )
        )
    covered = set().union(*(set(p.files) for p in out)) if out else set()
    for name in sorted(tables):
        tf = tables[name]
        rest = {f.file_id for f in tf.files} - covered
        if rest:
            out.append(
                PipelinePartition(
                    pid=f"rest_{name}",
                    table=name,
                    files=tuple(sorted(rest)),
                    span_gb=sum(file_sizes[f] for f in rest),
                    rho=0.0,
                    sample=_partition_rows(tf, rest, max_rows=max_rows),
                )
            )
    return out


# --------------------------------------------------------------------------
# Compression ground truth / predictions
# --------------------------------------------------------------------------
def measure_partitions(
    partitions: list[PipelinePartition],
    schemes: tuple[str, ...] = PIPELINE_SCHEMES,
) -> pd.DataFrame:
    """Ground-truth (pid, scheme, ratio, decomp_sec_per_gb) — footnote 9 of
    the paper generates the Tables IX–XI comparison with ground truth."""
    rows = []
    for p in partitions:
        if len(p.sample) == 0:
            continue
        for s in schemes:
            m = codecs.measure(p.sample, s, repeats=1)
            rows.append(
                {
                    "pid": p.pid,
                    "scheme": s,
                    "ratio": m.ratio,
                    "decomp_sec_per_gb": m.decomp_sec_per_gb,
                }
            )
    return pd.DataFrame(rows)


def partitions_frame(partitions: list[PipelinePartition]) -> pd.DataFrame:
    return pd.DataFrame(
        {
            "pid": [p.pid for p in partitions],
            "span_gb": [p.span_gb for p in partitions],
            "accesses": [p.rho for p in partitions],
        }
    )


# --------------------------------------------------------------------------
# Policy execution
# --------------------------------------------------------------------------
@dataclass
class PolicyResult:
    """One row of Tables IX–XI."""

    policy: str
    closest_baseline: str
    partitioned: bool
    tiered: bool
    compressed: bool
    storage_cost: float
    decomp_cost: float
    read_cost: float
    total_cost: float
    read_latency_s: float
    decomp_latency_ms: float
    tiering_scheme: list[int]
    assignment: pd.DataFrame

    def row(self) -> dict:
        return {
            "Policy": self.policy,
            "Baseline": self.closest_baseline,
            "P": "Y" if self.partitioned else "-",
            "T": "Y" if self.tiered else "-",
            "C": "Y" if self.compressed else "-",
            "Storage": round(self.storage_cost, 1),
            "Decomp": round(self.decomp_cost, 2),
            "Read": round(self.read_cost, 2),
            "Total": round(self.total_cost, 1),
            "TTFB(s)": round(self.read_latency_s, 4),
            "DecompLat(ms)": round(self.decomp_latency_ms, 4),
            "Tiering": self.tiering_scheme,
        }


def _latency_objective(cand: pd.DataFrame) -> pd.DataFrame:
    """Swap the objective for the latency-focused rows: expected per-access
    latency (TTFB + decompression time), cost as tiebreak."""
    out = cand.copy()
    out["weighted_cost"] = (
        out["read_latency"] + out["decomp_latency"] + 1e-9 * out["weighted_cost"]
    )
    return out


def run_policy(
    *,
    name: str,
    baseline: str,
    partitions: list[PipelinePartition],
    predictions: pd.DataFrame | None,
    tier_names: tuple[str, ...],
    months: float,
    weights: cm.CostWeights = cm.CostWeights(),
    capacity_total_gb: float | None = None,
    latency_focused: bool = False,
    partitioned: bool = False,
) -> PolicyResult:
    """Run OPTASSIGN under one policy configuration and tally the table row."""
    pframe = partitions_frame(partitions)
    tiers = [t for t in cm.make_tiers(total_gb=capacity_total_gb) if t.name in tier_names]
    if capacity_total_gb is not None and tiers:
        # The paper's model keeps the last (coolest) layer unbounded
        # (S_{L-1} = inf, §IV-A); with Archive excluded at 5.5 months that
        # role falls to the coolest tier in play.
        tiers[-1] = replace(tiers[-1], capacity_gb=float("inf"))
    cand = candidate_frame_numpy(
        pframe, predictions, tiers, months=months, weights=weights
    )
    if latency_focused:
        cand = _latency_objective(cand)
    chosen = assign_candidates(cand, pframe["pid"], tiers)
    cols = ["pid", "tier", "scheme", "stored_gb", "storage_cost", "transfer_cost",
            "read_cost", "decomp_cost", "read_latency", "decomp_latency"]
    a = chosen[cols].merge(pframe, on="pid")
    rho = a["accesses"].to_numpy()
    rho_sum = max(rho.sum(), 1e-12)
    tier_counts = [int((a["tier"] == t).sum()) for t in ("premium", "hot", "cool")]
    return PolicyResult(
        policy=name,
        closest_baseline=baseline,
        partitioned=partitioned,
        tiered=len(tier_names) > 1,
        compressed=predictions is not None,
        storage_cost=float(a["storage_cost"].sum() + a["transfer_cost"].sum()),
        decomp_cost=float(a["decomp_cost"].sum()),
        read_cost=float(a["read_cost"].sum()),
        total_cost=float(
            a[["storage_cost", "transfer_cost", "read_cost", "decomp_cost"]].sum().sum()
        ),
        read_latency_s=float((a["read_latency"].to_numpy() * rho).sum() / rho_sum),
        decomp_latency_ms=float(
            (a["decomp_latency"].to_numpy() * rho).sum() / rho_sum * 1000
        ),
        tiering_scheme=tier_counts,
        assignment=a,
    )


def scope_policy_table(
    tables: dict[str, TableFiles],
    queries: list[Query],
    *,
    months: float = 5.5,
    s_thresh_frac: float = 0.6,
    max_rows: int = 20_000,
    query_repeat: float = 1.0,
) -> tuple[pd.DataFrame, dict[str, PolicyResult]]:
    """Produce all 11 rows of a Table IX/X/XI instance.

    Returns (display frame, per-policy results). Archive is excluded — the
    5.5-month horizon is below its minimum residency (§VII).
    ``query_repeat`` is the projected number of executions of each logged
    query over the billing horizon (the paper's read-cost magnitudes imply
    each query family recurs many times over 5.5 months). G-PART runs with
    ``gpart_partitions``' default ρ thresholds, and every partition is
    measured once in each of ``PIPELINE_SCHEMES``.
    """
    whole = unpartitioned(tables, queries, max_rows=max_rows)
    parted = gpart_partitions(
        tables, queries, s_thresh_frac=s_thresh_frac, max_rows=max_rows
    )
    for p in (*whole, *parted):
        p.rho *= query_repeat
    preds_whole = measure_partitions(whole)
    preds_parted = measure_partitions(parted)
    total_gb = sum(tf.size_gb for tf in tables.values())
    P3 = ("premium", "hot", "cool")
    results: dict[str, PolicyResult] = {}

    def add(key, **kw):
        results[key] = run_policy(months=months, **kw)

    add("default", name="Default (store on premium)", baseline="-",
        partitions=whole, predictions=None, tier_names=("premium",),
        partitioned=False)
    add("ares", name="Compress & store on premium", baseline="Ares",
        partitions=whole, predictions=preds_whole, tier_names=("premium",),
        partitioned=False)
    add("hermes", name="Multi-Tiering", baseline="Hermes",
        partitions=whole, predictions=None, tier_names=P3,
        capacity_total_gb=total_gb, partitioned=False)
    add("hcompress", name="Latency time focused", baseline="HCompress",
        partitions=whole, predictions=preds_whole, tier_names=P3,
        capacity_total_gb=total_gb, latency_focused=True, partitioned=False)
    add("part_premium", name="Partition & store on premium", baseline="-",
        partitions=parted, predictions=None, tier_names=("premium",),
        partitioned=True)
    add("part_tier", name="Partitioning + Tiering", baseline="Hermes + G-PART",
        partitions=parted, predictions=None, tier_names=P3,
        capacity_total_gb=total_gb, partitioned=True)
    add("part_comp", name="Partitioning + Compression", baseline="Ares + G-PART",
        partitions=parted, predictions=preds_parted, tier_names=("premium",),
        partitioned=True)
    add("scope_latency", name="SCOPe (Latency time focused)",
        baseline="HCompress + G-PART", partitions=parted,
        predictions=preds_parted, tier_names=P3, capacity_total_gb=total_gb,
        latency_focused=True, partitioned=True)
    add("scope_nocap", name="SCOPe (No capacity constraint)", baseline="-",
        partitions=parted, predictions=preds_parted, tier_names=P3,
        partitioned=True)
    add("scope_read", name="SCOPe (Read+Decomp. cost focused)", baseline="-",
        partitions=parted, predictions=preds_parted, tier_names=P3,
        capacity_total_gb=total_gb,
        weights=cm.CostWeights(alpha=0.0, beta=1.0, gamma=0.0), partitioned=True)
    add("scope_total", name="SCOPe (Total cost focused)", baseline="-",
        partitions=parted, predictions=preds_parted, tier_names=P3,
        capacity_total_gb=total_gb, partitioned=True)
    table = pd.DataFrame([r.row() for r in results.values()])
    return table, results
