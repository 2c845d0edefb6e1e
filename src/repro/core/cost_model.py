"""Azure ADLS Gen2 tier cost model — Tables I and XII of the paper.

All money is in **cents**, all sizes in **GB**, all times in **seconds**,
and storage is billed per **month** — matching the units the paper uses
("cents/GB", "cents/GB" read, TTFB seconds, compute cents/sec).

The paper's Table XII is the authoritative parameter set for the ILP /
pipeline experiments (Tables IX–XI); Table I is the public price sheet the
read costs were derived from. We encode Table XII verbatim and derive the
tier-change cost ``Δ(u, v)`` as read-from-``u`` + write-to-``v`` per GB, as
defined in §IV-A.

Write costs are not itemised in the paper. Azure bills writes per 4 MB per
10k operations at roughly 2.5x the read-operation price for Hot and at the
same order for the other tiers; we adopt ``write = 2 x read`` per GB for
Premium/Hot/Cool and a flat cheap archive-write (archive *ingest* is cheap,
*read* is what costs 16.64 c/GB). This only affects the ``γ·Δ`` term, which
the paper also weights separately.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

#: Tier order used everywhere: index 0 is the lowest-latency layer (paper §IV-A).
TIER_NAMES = ("premium", "hot", "cool", "archive")

#: Table XII — storage cost C^s_l (cents / GB / month).
STORAGE_COST = {"premium": 15.0, "hot": 2.08, "cool": 1.52, "archive": 0.099}

#: Table XII — read cost C^r_l (cents / GB).
READ_COST = {"premium": 0.004659, "hot": 0.01331, "cool": 0.0333, "archive": 16.64}

#: Table XII — read latency / time-to-first-byte B_l (seconds).
TTFB = {"premium": 0.0053, "hot": 0.0614, "cool": 0.0614, "archive": 3600.0}

#: Table XII — compute cost C^c (cents / second).
COMPUTE_COST = 0.001

#: Derived write cost C^w_l (cents / GB) — see module docstring.
WRITE_COST = {
    "premium": 2 * READ_COST["premium"],
    "hot": 2 * READ_COST["hot"],
    "cool": 2 * READ_COST["cool"],
    "archive": 2 * READ_COST["cool"],  # archive ingest priced like cool ops
}

#: Table XII — capacity fractions of total data volume per tier (the paper
#: lists S_l in GB for a normalised 1 GB dataset: 0.163 / 0.326 / 0.4891 / inf).
CAPACITY_FRACTION = {
    "premium": 0.163,
    "hot": 0.326,
    "cool": 0.4891,
    "archive": float("inf"),
}

#: Archive minimum residency (months). Azure charges an early-deletion fee
#: for blobs removed from Archive before 180 days; the paper excludes
#: Archive from the 5.5-month Tables IX–XI runs for exactly this reason and
#: only uses it for >= 6-month horizons (§VII, §IV-C).
ARCHIVE_MIN_MONTHS = 6


@dataclass(frozen=True)
class Tier:
    """One storage tier with its billing parameters."""

    name: str
    storage_cost: float  # cents/GB/month
    read_cost: float  # cents/GB
    write_cost: float  # cents/GB
    ttfb: float  # seconds
    capacity_gb: float = float("inf")


def make_tiers(
    names: tuple[str, ...] = TIER_NAMES,
    *,
    total_gb: float | None = None,
) -> list[Tier]:
    """Build :class:`Tier` objects for ``names`` in latency order.

    If ``total_gb`` is given, per-tier capacities are ``CAPACITY_FRACTION x
    total_gb`` (Table XII's reservation model); otherwise capacities are
    unbounded (the paper's "billing per usage" scenario).
    """
    if isinstance(names, str):  # a bare "hot" must not iterate as characters
        names = (names,)
    tiers = []
    for n in names:
        cap = float("inf")
        if total_gb is not None:
            cap = CAPACITY_FRACTION[n] * total_gb
        tiers.append(
            Tier(
                name=n,
                storage_cost=STORAGE_COST[n],
                read_cost=READ_COST[n],
                write_cost=WRITE_COST[n],
                ttfb=TTFB[n],
                capacity_gb=cap,
            )
        )
    return tiers


def tier_change_cost(src, dst, dst_write=None):
    """Δ(u, v): cents/GB to move data from tier ``src`` to ``dst`` (§IV-A),
    the read from ``src`` plus the write to ``dst``.

    ``src`` and ``dst`` are tier names, or pandas Series of them for a
    vectorised Δ; an array result keeps their length. ``src`` None (paper's
    ``L(P) = -1``: newly ingested data), or a tier outside :data:`READ_COST`,
    charges only the write, i.e. ``C^w_dst = Δ(-1, dst)``. Moving data to
    the tier it is already on costs nothing. ``dst_write`` is ``C^w_dst``;
    it defaults to :data:`WRITE_COST`, and a custom :class:`Tier` passes
    its own ``write_cost``.
    """
    if isinstance(src, pd.Series):
        src_read = src.map(READ_COST).fillna(0.0)
    else:
        src_read = READ_COST.get(src, 0.0)
    if dst_write is None:
        dst_write = dst.map(WRITE_COST) if isinstance(dst, pd.Series) else WRITE_COST[dst]
    delta = np.where(src == dst, 0.0, src_read + dst_write)
    return delta if delta.ndim else float(delta)


@dataclass(frozen=True)
class CostWeights:
    """Objective hyper-parameters α (storage), β (read+compute), γ (transfer)."""

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0


@dataclass(frozen=True)
class Assignment:
    """Cost breakdown of placing one partition on one tier with one scheme."""

    storage: float
    read: float
    decompress: float
    transfer: float
    read_latency: float  # TTFB, seconds
    decompress_latency: float  # seconds per access

    @property
    def total(self) -> float:
        return self.storage + self.read + self.decompress + self.transfer

    def weighted(self, w: CostWeights) -> float:
        return (
            w.alpha * self.storage
            + w.gamma * self.transfer
            + w.beta * (self.read + self.decompress)
        )


def cost_terms(
    *,
    span_gb,
    accesses,
    months,
    storage_cost,
    read_cost,
    ttfb,
    delta,
    ratio=1.0,
    decomp_sec_per_gb=0.0,
) -> tuple[float, Assignment]:
    """The ILP objective terms — the one place they are computed.

    Every argument is a float or an array (numpy / pandas) of candidates;
    ``delta`` is the tier-change cost Δ(u, v) in cents/GB. Returns
    ``(stored_gb, Assignment)``, the fields of the :class:`Assignment`
    having the arguments' shape.
    """
    stored_gb = span_gb / ratio
    d_time = decomp_sec_per_gb * span_gb
    return stored_gb, Assignment(
        storage=storage_cost * stored_gb * months,
        read=accesses * read_cost * stored_gb,
        decompress=accesses * COMPUTE_COST * d_time,
        transfer=delta * stored_gb,
        read_latency=ttfb,
        decompress_latency=d_time,
    )


def assignment_cost(
    *,
    span_gb: float,
    accesses: float,
    months: float,
    tier: Tier,
    ratio: float = 1.0,
    decomp_sec_per_gb: float = 0.0,
    current_tier: str | None = None,
) -> Assignment:
    """Cost of one (partition, tier, scheme) candidate — the ILP objective terms.

    ``ratio`` is the compression ratio R (stored size = span/R); the
    'no compression' scheme is ``ratio=1, decomp_sec_per_gb=0`` (§IV-A).
    Decompression time per access is ``decomp_sec_per_gb x span`` — the
    *uncompressed* span, matching the paper's D_i^k "decompression time"
    per access of the partition (Table VIII reports sec/GB).
    """
    return cost_terms(
        span_gb=span_gb,
        accesses=accesses,
        months=months,
        storage_cost=tier.storage_cost,
        read_cost=tier.read_cost,
        ttfb=tier.ttfb,
        delta=tier_change_cost(current_tier, tier.name, tier.write_cost),
        ratio=ratio,
        decomp_sec_per_gb=decomp_sec_per_gb,
    )[1]


def latency_feasible(
    *,
    span_gb: float,
    tier: Tier,
    decomp_sec_per_gb: float,
    latency_threshold: float,
) -> bool:
    """Constraint 3 of the ILP: ``D + B_l <= T(P)``."""
    return decomp_sec_per_gb * span_gb + tier.ttfb <= latency_threshold
