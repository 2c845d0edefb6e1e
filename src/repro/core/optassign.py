"""OPTASSIGN (§IV): optimal tier + compression assignment, in pandas.

:func:`candidate_frame_numpy` builds the candidate relation ``partitions x
tiers x schemes`` with every term of the ILP objective (computed by
:func:`repro.core.cost_model.cost_terms`) and drops the rows that break the
latency constraint, a fixed scheme or archive residency.
:func:`assign_candidates` keeps the cheapest row per partition — Theorem 3's
greedy, optimal without capacity bounds — and runs :func:`repair_capacity`
when a tier has a finite capacity. :func:`assign` chains the two. The exact
branch-and-bound in :mod:`repro.core.ilp` is the test oracle.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core import cost_model as cm

#: Canonical candidate/assignment columns.
ASSIGN_COLS = [
    "pid",
    "tier",
    "scheme",
    "stored_gb",
    "storage_cost",
    "transfer_cost",
    "read_cost",
    "decomp_cost",
    "weighted_cost",
    "read_latency",
    "decomp_latency",
]


def candidate_frame_numpy(
    partitions: pd.DataFrame,
    predictions: pd.DataFrame | None,
    tiers: list[cm.Tier],
    *,
    months: float,
    weights: cm.CostWeights = cm.CostWeights(),
) -> pd.DataFrame:
    """The feasible candidate relation with the ILP objective per row.

    ``partitions`` needs columns pid, span_gb, accesses and optionally
    latency_threshold (default inf), current_tier (default None = new data)
    and fixed_scheme (default None = free choice). ``predictions`` holds
    (pid, scheme, ratio, decomp_sec_per_gb); the mandatory 'no compression'
    option (§IV-A: R=1, D=0) is added for every partition, and
    ``predictions=None`` means K=0 (tiering only).
    """
    p = partitions.copy()
    if "latency_threshold" not in p:
        p["latency_threshold"] = np.inf
    if "current_tier" not in p:
        p["current_tier"] = None
    if "fixed_scheme" not in p:
        p["fixed_scheme"] = None
    none_rows = p[["pid"]].assign(scheme="none", ratio=1.0, decomp_sec_per_gb=0.0)
    if predictions is not None:
        s = pd.concat(
            [none_rows, predictions[predictions["scheme"] != "none"]],
            ignore_index=True,
        )
    else:
        s = none_rows
    t = pd.DataFrame(
        {
            "tier": [x.name for x in tiers],
            "t_storage": [x.storage_cost for x in tiers],
            "t_read": [x.read_cost for x in tiers],
            "t_write": [x.write_cost for x in tiers],
            "t_ttfb": [x.ttfb for x in tiers],
        }
    )
    cand = p.merge(t, how="cross").merge(s, on="pid")
    stored_gb, a = cm.cost_terms(
        span_gb=cand["span_gb"],
        accesses=cand["accesses"],
        months=months,
        storage_cost=cand["t_storage"],
        read_cost=cand["t_read"],
        ttfb=cand["t_ttfb"],
        delta=cm.tier_change_cost(cand["current_tier"], cand["tier"], cand["t_write"]),
        ratio=cand["ratio"],
        decomp_sec_per_gb=cand["decomp_sec_per_gb"],
    )
    cand["stored_gb"] = stored_gb
    cand["storage_cost"] = a.storage
    cand["transfer_cost"] = a.transfer
    cand["read_cost"] = a.read
    cand["decomp_cost"] = a.decompress
    cand["weighted_cost"] = a.weighted(weights)
    cand["read_latency"] = a.read_latency
    cand["decomp_latency"] = a.decompress_latency
    # Constraint 3: D + B_l <= T(P); existing partitions keep their scheme.
    ok = cand["decomp_latency"] + cand["read_latency"] <= cand["latency_threshold"]
    ok &= cand["fixed_scheme"].isna() | (cand["scheme"] == cand["fixed_scheme"])
    if months < cm.ARCHIVE_MIN_MONTHS:
        ok &= cand["tier"] != "archive"
    return cand[ok].reset_index(drop=True)


def assign_candidates(
    cand: pd.DataFrame, pids, tiers: list[cm.Tier]
) -> pd.DataFrame:
    """The assignment core: the min-``weighted_cost`` candidate per partition.

    Ties break on tier, then scheme. Raises if a partition in ``pids`` has
    no feasible candidate. When a tier in ``tiers`` has a finite capacity,
    the greedy choice goes through :func:`repair_capacity`.
    """
    chosen = (
        cand.sort_values(["pid", "weighted_cost", "tier", "scheme"], kind="stable")
        .groupby("pid", as_index=False)
        .first()
    )
    missing = set(pids) - set(chosen["pid"])
    if missing:
        raise ValueError(f"partitions with no feasible option: {sorted(missing)[:5]}")
    chosen = chosen[ASSIGN_COLS]
    if any(np.isfinite(t.capacity_gb) for t in tiers):
        return repair_capacity(chosen, cand, tiers)
    return chosen.reset_index(drop=True)


def assign(
    partitions: pd.DataFrame,
    predictions: pd.DataFrame | None,
    tiers: list[cm.Tier],
    *,
    months: float,
    weights: cm.CostWeights = cm.CostWeights(),
) -> pd.DataFrame:
    """OPTASSIGN: greedy per partition plus capacity repair (see the module
    docstring); arguments as for :func:`candidate_frame_numpy`."""
    cand = candidate_frame_numpy(
        partitions, predictions, tiers, months=months, weights=weights
    )
    return assign_candidates(cand, partitions["pid"], tiers)


def repair_capacity(
    chosen: pd.DataFrame,
    cand: pd.DataFrame,
    tiers: list[cm.Tier],
) -> pd.DataFrame:
    """Greedy capacity repair over an assignment and its candidate table.

    While a tier exceeds its capacity, pick the tier with the largest
    overflow and move the partition on it whose cheapest alternative fitting
    the current head-room costs the least extra per GB freed. Each move is
    one O(candidates) pass over arrays taken from ``cand`` once: a
    partition's alternative is its first minimum-``weighted_cost`` row in
    ``cand`` order, and ties in regret break on pid. Heuristic — exactness is
    the ILP's job; tests check feasibility and near-optimality on small
    instances. Raises ``ValueError`` when no partition on the over-full tier
    fits another tier.
    """
    names = [t.name for t in tiers]
    cap = {t.name: t.capacity_gb for t in tiers}
    chosen = chosen.reset_index(drop=True)
    pids = chosen["pid"].to_numpy()
    tier = chosen["tier"].to_numpy(copy=True)
    gb = chosen["stored_gb"].to_numpy(dtype=float, copy=True)
    wc = chosen["weighted_cost"].to_numpy(dtype=float, copy=True)
    # The candidate rows of assigned partitions on known tiers: ``at`` is the
    # row's partition (a position in ``chosen``), ``to`` its tier index.
    at = pd.Index(pids).get_indexer(cand["pid"])
    to = pd.Index(names).get_indexer(cand["tier"])
    rows = np.flatnonzero((at >= 0) & (to >= 0))
    at, to = at[rows], to[rows]
    c_gb = cand["stored_gb"].to_numpy(dtype=float)[rows]
    c_wc = cand["weighted_cost"].to_numpy(dtype=float)[rows]
    taken = np.full(len(chosen), -1)  # the candidate row a moved partition took
    for _ in range(10_000):
        usage = pd.Series(gb).groupby(tier).sum()
        over = [
            (tname, usage.get(tname, 0.0) - cap[tname])
            for tname in usage.index
            if usage.get(tname, 0.0) > cap[tname] + 1e-9
        ]
        if not over:
            out = chosen[ASSIGN_COLS].copy()
            moved = np.flatnonzero(taken >= 0)
            for col in ASSIGN_COLS[1:]:
                out.iloc[moved, out.columns.get_loc(col)] = (
                    cand[col].to_numpy()[taken[moved]]
                )
            return out
        tname, excess = max(over, key=lambda x: x[1])
        k = names.index(tname)
        room = np.array([cap[n] - float(usage.get(n, 0.0)) for n in names])
        ok = np.flatnonzero(
            (tier[at] == tname) & (to != k) & (c_gb <= room[to] + 1e-9)
        )
        if len(ok) == 0:
            raise ValueError(
                f"cannot repair capacity of tier {tname!r}: it holds "
                f"{excess:.6g} GB over its capacity and no partition on it "
                f"fits another tier"
            )
        # Each partition's first minimum-cost alternative, in cand order.
        ok = ok[np.lexsort((ok, c_wc[ok], at[ok]))]
        first = ok[np.r_[True, at[ok][1:] != at[ok][:-1]]]
        who = at[first]
        regret = (c_wc[first] - wc[who]) / np.maximum(gb[who], 1e-12)
        ties = np.flatnonzero(regret == regret.min())
        j = first[min(ties, key=lambda t: pids[who[t]])]
        i = at[j]
        tier[i], gb[i], wc[i] = names[to[j]], c_gb[j], c_wc[j]
        taken[i] = rows[j]
    raise RuntimeError("capacity repair did not converge")  # pragma: no cover
