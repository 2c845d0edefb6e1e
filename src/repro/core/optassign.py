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
    enforce_archive_residency: bool = True,
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
    # Δ(u, v) = C^r_u + C^w_v, zero when the partition stays on its tier.
    src_read = cand["current_tier"].map(cm.READ_COST).fillna(0.0)
    delta = np.where(cand["current_tier"] == cand["tier"], 0.0, src_read + cand["t_write"])
    stored_gb, a = cm.cost_terms(
        span_gb=cand["span_gb"],
        accesses=cand["accesses"],
        months=months,
        storage_cost=cand["t_storage"],
        read_cost=cand["t_read"],
        ttfb=cand["t_ttfb"],
        delta=delta,
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
    if enforce_archive_residency and months < cm.ARCHIVE_MIN_MONTHS:
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
    enforce_archive_residency: bool = True,
) -> pd.DataFrame:
    """OPTASSIGN: greedy per partition plus capacity repair (see the module
    docstring); arguments as for :func:`candidate_frame_numpy`."""
    cand = candidate_frame_numpy(
        partitions,
        predictions,
        tiers,
        months=months,
        weights=weights,
        enforce_archive_residency=enforce_archive_residency,
    )
    return assign_candidates(cand, partitions["pid"], tiers)


def repair_capacity(
    chosen: pd.DataFrame,
    cand: pd.DataFrame,
    tiers: list[cm.Tier],
) -> pd.DataFrame:
    """Greedy capacity repair over an assignment and its candidate table.

    While a tier exceeds its capacity, evict the assigned partition whose
    cheapest feasible alternative (on a tier with head-room) costs the least
    extra per GB freed. Heuristic — exactness is the ILP's job; tests check
    feasibility and near-optimality on small instances.
    """
    cap = {t.name: t.capacity_gb for t in tiers}
    chosen = chosen.set_index("pid", drop=False).copy()
    for _ in range(10_000):
        usage = chosen.groupby("tier")["stored_gb"].sum()
        over = [
            (tname, usage.get(tname, 0.0) - cap[tname])
            for tname in usage.index
            if usage.get(tname, 0.0) > cap[tname] + 1e-9
        ]
        if not over:
            return chosen.reset_index(drop=True)[ASSIGN_COLS]
        tname = max(over, key=lambda x: x[1])[0]
        room = {
            t.name: cap[t.name] - float(usage.get(t.name, 0.0)) for t in tiers
        }
        victims = chosen[chosen["tier"] == tname]
        best_move, best_key = None, None
        for pid, row in victims.iterrows():
            alts = cand[
                (cand["pid"] == pid)
                & (cand["tier"] != tname)
                & (cand["stored_gb"] <= cand["tier"].map(room) + 1e-9)
            ]
            if alts.empty:
                continue
            alt = alts.loc[alts["weighted_cost"].idxmin()]
            regret = (alt["weighted_cost"] - row["weighted_cost"]) / max(
                row["stored_gb"], 1e-12
            )
            key = (regret, pid)
            if best_key is None or key < best_key:
                best_key, best_move = key, (pid, alt)
        if best_move is None:
            raise ValueError(f"cannot repair capacity of tier {tname!r}")
        pid, alt = best_move
        chosen.loc[pid, ASSIGN_COLS[1:]] = alt[ASSIGN_COLS[1:]].values
    raise RuntimeError("capacity repair did not converge")  # pragma: no cover
