"""Exact branch-and-bound solvers for the paper's two ILPs, for small N.

These are the *test oracles*: OPTASSIGN's greedy (Theorem 3) and matching
(Theorem 2) and G-PART are validated against them on small random
instances. Both problems are strongly NP-hard (Theorems 1 and 4), so the
exact solvers are exponential by design and guarded by instance-size checks.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from repro.core import cost_model as cm
from repro.core.gpart import FilePart, merge_feasible, span_of


# --------------------------------------------------------------------------
# OPTASSIGN exact
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class PartitionSpec:
    """One data partition as OPTASSIGN sees it (§IV-A)."""

    pid: str
    span_gb: float
    accesses: float
    latency_threshold: float = float("inf")
    current_tier: str | None = None  # None == newly ingested (L(P) = -1)
    fixed_scheme: str | None = None  # K(P) for existing partitions


@dataclass(frozen=True)
class SchemePrediction:
    """Predicted compression performance of one scheme on one partition."""

    scheme: str
    ratio: float
    decomp_sec_per_gb: float


NO_COMPRESSION_PRED = SchemePrediction("none", 1.0, 0.0)


@dataclass
class Option:
    """One feasible (tier, scheme) candidate with its cost breakdown."""

    tier: str
    scheme: str
    stored_gb: float
    cost: float  # weighted objective value
    breakdown: cm.Assignment


def enumerate_options(
    p: PartitionSpec,
    tiers: list[cm.Tier],
    preds: list[SchemePrediction],
    *,
    months: float,
    weights: cm.CostWeights = cm.CostWeights(),
    enforce_archive_residency: bool = True,
) -> list[Option]:
    """All latency-feasible (tier, scheme) options for one partition.

    'none' (no compression) is always a candidate per §IV-A. The last ILP
    equality — existing partitions keep their scheme — is applied here by
    restricting to ``p.fixed_scheme``. Archive is excluded for horizons
    shorter than its minimum residency when ``enforce_archive_residency``.
    """
    cand = [NO_COMPRESSION_PRED] + [x for x in preds if x.scheme != "none"]
    if p.fixed_scheme is not None:
        cand = [x for x in cand if x.scheme == p.fixed_scheme]
        if not cand:
            raise ValueError(f"no prediction for fixed scheme {p.fixed_scheme!r}")
    out: list[Option] = []
    for t in tiers:
        if (
            enforce_archive_residency
            and t.name == "archive"
            and months < cm.ARCHIVE_MIN_MONTHS
        ):
            continue
        for s in cand:
            if not cm.latency_feasible(
                span_gb=p.span_gb,
                tier=t,
                decomp_sec_per_gb=s.decomp_sec_per_gb,
                latency_threshold=p.latency_threshold,
            ):
                continue
            a = cm.assignment_cost(
                span_gb=p.span_gb,
                accesses=p.accesses,
                months=months,
                tier=t,
                ratio=s.ratio,
                decomp_sec_per_gb=s.decomp_sec_per_gb,
                current_tier=p.current_tier,
            )
            out.append(
                Option(t.name, s.scheme, p.span_gb / s.ratio, a.weighted(weights), a)
            )
    return out


def solve_optassign_exact(
    partitions: list[PartitionSpec],
    tiers: list[cm.Tier],
    preds: dict[str, list[SchemePrediction]],
    *,
    months: float,
    weights: cm.CostWeights = cm.CostWeights(),
    enforce_archive_residency: bool = True,
    max_n: int = 14,
) -> tuple[dict[str, Option], float]:
    """Exact OPTASSIGN with per-tier capacities via DFS branch-and-bound.

    Lower bound at each node = accumulated cost + Σ (capacity-ignoring
    minimum) over unassigned partitions. Raises on infeasible instances.
    """
    if len(partitions) > max_n:
        raise ValueError(f"exact solver limited to {max_n} partitions")
    opts = [
        enumerate_options(
            p,
            tiers,
            preds.get(p.pid, []),
            months=months,
            weights=weights,
            enforce_archive_residency=enforce_archive_residency,
        )
        for p in partitions
    ]
    for p, o in zip(partitions, opts):
        if not o:
            raise ValueError(f"partition {p.pid} has no feasible option")
        o.sort(key=lambda x: x.cost)
    # Assign big partitions first — tighter capacity pruning.
    order = sorted(range(len(partitions)), key=lambda i: -partitions[i].span_gb)
    suffix_min = [0.0] * (len(order) + 1)
    for k in range(len(order) - 1, -1, -1):
        suffix_min[k] = suffix_min[k + 1] + opts[order[k]][0].cost
    cap0 = {t.name: t.capacity_gb for t in tiers}
    best = {"cost": math.inf, "choice": None}

    def dfs(k: int, cap: dict[str, float], acc: float, choice: list[Option]):
        if acc + suffix_min[k] >= best["cost"] - 1e-12:
            return
        if k == len(order):
            best["cost"] = acc
            best["choice"] = list(choice)
            return
        i = order[k]
        for o in opts[i]:
            if o.stored_gb <= cap[o.tier] + 1e-9:
                cap[o.tier] -= o.stored_gb
                choice.append(o)
                dfs(k + 1, cap, acc + o.cost, choice)
                choice.pop()
                cap[o.tier] += o.stored_gb

    dfs(0, dict(cap0), 0.0, [])
    if best["choice"] is None:
        raise ValueError("infeasible: capacities too tight for any assignment")
    assignment = {
        partitions[i].pid: o for i, o in zip(order, best["choice"])
    }
    return assignment, best["cost"]


# --------------------------------------------------------------------------
# MERGE PARTITIONS exact (§VI, Theorem 4 oracle)
# --------------------------------------------------------------------------
def solve_merge_partitions_exact(
    parts: list[FilePart],
    file_sizes: dict[str, float],
    *,
    c_thresh: float,
    rho_c: float = 3.0,
    rho_abs: float = 0.0,
    max_parts: int = 7,
) -> tuple[list[frozenset[str]], float, float]:
    """Exact optimum of the MERGE PARTITIONS ILP on tiny instances.

    Enumerates all pairwise-feasible merges (subsets of partitions), then a
    DFS set-cover search: repeatedly branch on a merge covering the first
    uncovered partition, pruning on space and the read-cost budget.
    Returns (chosen merges as pid-sets, total span, total cost).
    """
    if len(parts) > max_parts:
        raise ValueError(f"exact solver limited to {max_parts} partitions")
    merges: list[tuple[frozenset[str], float, float]] = []  # (pids, span, cost)
    for r in range(1, len(parts) + 1):
        for combo in itertools.combinations(parts, r):
            if all(
                merge_feasible(a, b, rho_c=rho_c, rho_abs=rho_abs)
                for a, b in itertools.combinations(combo, 2)
            ):
                files = frozenset().union(*(p.files for p in combo))
                sp = span_of(files, file_sizes)
                rho = sum(p.rho for p in combo)
                merges.append((frozenset(p.pid for p in combo), sp, sp * rho))
    all_pids = sorted(p.pid for p in parts)
    by_pid: dict[str, list[tuple[frozenset[str], float, float]]] = {
        pid: [m for m in merges if pid in m[0]] for pid in all_pids
    }
    best: dict = {"sel": None, "space": math.inf, "cost": math.inf}

    def dfs(uncovered: frozenset[str], sel: list, space: float, cost: float):
        if space >= best["space"] - 1e-12:
            return
        if not uncovered:
            best.update(sel=list(sel), space=space, cost=cost)
            return
        pid = min(uncovered)
        for m in by_pid[pid]:
            if cost + m[2] > c_thresh + 1e-9:
                continue
            sel.append(m[0])
            dfs(uncovered - m[0], sel, space + m[1], cost + m[2])
            sel.pop()

    dfs(frozenset(all_pids), [], 0.0, 0.0)
    if best["sel"] is None:
        raise ValueError("infeasible: no cover within the cost budget")
    return best["sel"], best["space"], best["cost"]
