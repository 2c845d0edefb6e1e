"""SCOPe unified pipeline (§VII) and the policy grid of Tables IX–XI.

Pipeline: query log → initial partitions (query families) → G-PART merge →
compression performance per final partition, from ``scope_policy_table``'s
``perf`` source (COMPREDICT in the paper; ground truth by default, as for
Tables IX–XI, footnote 9) → OPTASSIGN tier + scheme assignment → tiered writes.

The eleven policies (rows of Tables IX–XI) are the rows of :data:`POLICIES`:
each switches partitioning, tiering, compression and Table XII's capacities
on or off and picks an objective. DESIGN.md §5 maps them to the paper's
baselines (Ares / Hermes / HCompress adaptations). The results hold the
partitions each policy assigned and the frame it priced: the whole plan.

Cost semantics: every partition is newly placed (L(P) = -1), so the γ term
is the initial write; it is folded into the reported storage column.
'Read Latency (TTFB, s)' is the access-weighted expected TTFB and
'Expected Decomp. Latency' the access-weighted decompression time per
access — the paper's columns, computed from the same Table-XII parameters.
"""
from __future__ import annotations

from collections.abc import Callable
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
#: Tiers of Tables IX–XI, hottest first: Archive is out of play at the
#: 5.5-month horizon (its minimum residency is longer).
GRID_TIERS = ("premium", "hot", "cool")


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
def _partition(
    pid: str, tf: TableFiles, files, *, span_gb: float, rho: float, max_rows: int
) -> PipelinePartition:
    """A partition of ``tf``'s table over ``files``, with a row sample of
    them for codec measurement.

    The sample holds the rows of the files that are ``tf``'s own (a G-PART
    partition may hold files of another table). Ratios and sec/GB are
    intensive, so a contiguous sample preserves them; ``max_rows`` bounds
    the codec-measurement cost at large SF.
    """
    by_id = {f.file_id: f for f in tf.files}
    blocks = [tf.pdf.iloc[by_id[i].row_lo : by_id[i].row_hi]
              for i in sorted(files) if i in by_id]
    rows = pd.concat(blocks, ignore_index=True) if blocks else tf.pdf.iloc[:0]
    if len(rows) > max_rows:
        step = len(rows) / max_rows
        idx = (np.arange(max_rows) * step).astype(int)
        rows = rows.iloc[idx].reset_index(drop=True)
    return PipelinePartition(pid=pid, table=tf.table, files=tuple(sorted(files)),
                             span_gb=span_gb, rho=rho, sample=rows)


def unpartitioned(
    tables: dict[str, TableFiles], queries: list[Query], *, max_rows: int
) -> list[PipelinePartition]:
    """One partition per table; every query on the table scans all of it."""
    return [
        _partition(name, tf, [f.file_id for f in tf.files], span_gb=tf.size_gb,
                   rho=float(sum(1 for q in queries if q.table == name)),
                   max_rows=max_rows)
        for name, tf in sorted(tables.items())
    ]


def gpart_partitions(
    tables: dict[str, TableFiles],
    queries: list[Query],
    *,
    max_rows: int,
    s_thresh_frac: float = 0.6,
    rho_c: float = 3.0,
    rho_abs: float = 50.0,
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
    out = [
        _partition(f"p{i:03d}", tables[file_table[next(iter(m.files))]], m.files,
                   span_gb=m.span, rho=m.rho, max_rows=max_rows)
        for i, m in enumerate(merged)
    ]
    covered = set().union(*(set(p.files) for p in out)) if out else set()
    for name in sorted(tables):
        rest = {f.file_id for f in tables[name].files} - covered
        if rest:
            out.append(_partition(
                f"rest_{name}", tables[name], rest,
                span_gb=sum(file_sizes[f] for f in rest), rho=0.0, max_rows=max_rows))
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
        if len(p.sample):
            for s in schemes:
                m = codecs.measure(p.sample, s, repeats=1)
                rows.append((p.pid, s, m.ratio, m.decomp_sec_per_gb))
    return pd.DataFrame(rows, columns=["pid", "scheme", "ratio", "decomp_sec_per_gb"])


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
@dataclass(frozen=True)
class Policy:
    """One row of Tables IX–XI: which parts of SCOPe are switched on.

    ``partitioned`` runs on G-PART's partitions instead of whole tables,
    ``tiered`` chooses among ``GRID_TIERS`` instead of premium alone,
    ``compressed`` offers the measured schemes, and ``capacity`` bounds the
    tiers by Table XII's fractions of the total volume (the coolest tier in
    play stays unbounded). ``objective`` is ``"total"`` (α = β = γ = 1),
    ``"read"`` (read + decompression cost: α = γ = 0, β = 1) or
    ``"latency"`` (expected TTFB + decompression time per access).
    """

    key: str
    name: str
    baseline: str
    partitioned: bool
    tiered: bool
    compressed: bool
    capacity: bool = False
    objective: str = "total"


#: The policy grid of Tables IX–XI, in the paper's row order.
POLICIES = (
    Policy("default", "Default (store on premium)", "-", False, False, False),
    Policy("ares", "Compress & store on premium", "Ares", False, False, True),
    Policy("hermes", "Multi-Tiering", "Hermes", False, True, False, capacity=True),
    Policy("hcompress", "Latency time focused", "HCompress", False, True, True,
           capacity=True, objective="latency"),
    Policy("part_premium", "Partition & store on premium", "-", True, False, False),
    Policy("part_tier", "Partitioning + Tiering", "Hermes + G-PART", True, True, False,
           capacity=True),
    Policy("part_comp", "Partitioning + Compression", "Ares + G-PART", True, False, True),
    Policy("scope_latency", "SCOPe (Latency time focused)", "HCompress + G-PART",
           True, True, True, capacity=True, objective="latency"),
    Policy("scope_nocap", "SCOPe (No capacity constraint)", "-", True, True, True),
    Policy("scope_read", "SCOPe (Read+Decomp. cost focused)", "-", True, True, True,
           capacity=True, objective="read"),
    Policy("scope_total", "SCOPe (Total cost focused)", "-", True, True, True,
           capacity=True),
)


@dataclass
class PolicyResult:
    """One row of Tables IX–XI: the policy, its costs and the assignment of
    ``partitions`` (the list the policy ran on, not a copy). ``perf`` is the
    (pid, scheme, ratio, decomp_sec_per_gb) frame priced for that list, also
    shared, and is read only when the policy compresses."""

    policy: Policy
    partitions: list[PipelinePartition]
    perf: pd.DataFrame | None
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
            "Policy": self.policy.name,
            "Baseline": self.policy.baseline,
            "P": "Y" if self.policy.partitioned else "-",
            "T": "Y" if self.policy.tiered else "-",
            "C": "Y" if self.policy.compressed else "-",
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
    policy: Policy,
    partitions: list[PipelinePartition],
    perf: pd.DataFrame | None,
    *,
    months: float,
    total_gb: float,
) -> PolicyResult:
    """Run OPTASSIGN on ``partitions`` under ``policy`` and tally its table
    row. ``perf`` is used only when the policy compresses, and ``total_gb``
    only when it bounds the tiers' capacities."""
    pframe = partitions_frame(partitions)
    names = GRID_TIERS if policy.tiered else GRID_TIERS[:1]
    tiers = cm.make_tiers(names, total_gb=total_gb if policy.capacity else None)
    if policy.capacity:
        # The paper's model keeps the last (coolest) layer unbounded
        # (S_{L-1} = inf, §IV-A); with Archive excluded at 5.5 months that
        # role falls to the coolest tier in play.
        tiers[-1] = replace(tiers[-1], capacity_gb=float("inf"))
    weights = (cm.CostWeights(alpha=0.0, beta=1.0, gamma=0.0)
               if policy.objective == "read" else cm.CostWeights())
    cand = candidate_frame_numpy(
        pframe, perf if policy.compressed else None, tiers,
        months=months, weights=weights,
    )
    if policy.objective == "latency":
        cand = _latency_objective(cand)
    chosen = assign_candidates(cand, pframe["pid"], tiers)
    cols = ["pid", "tier", "scheme", "stored_gb", "storage_cost", "transfer_cost",
            "read_cost", "decomp_cost", "read_latency", "decomp_latency"]
    a = chosen[cols].merge(pframe, on="pid")
    rho = a["accesses"].to_numpy()
    rho_sum = max(rho.sum(), 1e-12)
    tier_counts = [int((a["tier"] == t).sum()) for t in GRID_TIERS]
    return PolicyResult(
        policy=policy,
        partitions=partitions,
        perf=perf,
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
    max_rows: int,
    query_repeat: float,
    months: float = 5.5,
    s_thresh_frac: float = 0.6,
    perf: Callable[[list[PipelinePartition]], pd.DataFrame] = measure_partitions,
) -> tuple[pd.DataFrame, dict[str, PolicyResult]]:
    """Produce the rows of :data:`POLICIES` for one Table IX/X/XI instance.

    Returns (display frame, results by policy key). Archive is excluded — the
    5.5-month horizon is below its minimum residency (§VII).
    ``query_repeat`` is the projected number of executions of each logged
    query over the billing horizon (the paper's read-cost magnitudes imply
    each query family recurs many times over 5.5 months). G-PART runs with
    ``gpart_partitions``' default ρ thresholds. The partitioned policies
    share one partition list, and so do the others. ``perf`` maps a list to
    its (pid, scheme, ratio, decomp_sec_per_gb) frame; it is called for the
    whole-table list, then for the G-PART list.
    """
    whole = unpartitioned(tables, queries, max_rows=max_rows)
    parted = gpart_partitions(
        tables, queries, s_thresh_frac=s_thresh_frac, max_rows=max_rows
    )
    for p in (*whole, *parted):
        p.rho *= query_repeat
    inputs = {False: (whole, perf(whole)), True: (parted, perf(parted))}
    total_gb = sum(tf.size_gb for tf in tables.values())
    results = {
        p.key: run_policy(p, *inputs[p.partitioned], months=months, total_gb=total_gb)
        for p in POLICIES
    }
    table = pd.DataFrame([r.row() for r in results.values()])
    return table, results
