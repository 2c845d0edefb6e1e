"""Simulated tiered cloud object store over the local filesystem.

The paper's experiments run against Azure ADLS Gen2; every cost number it
reports is *computed from the price sheet* (Tables I, XII), not read off a
bill. This substrate therefore (a) physically stores objects in per-tier
directories so the write/read/move paths are exercised end-to-end, and
(b) meters every operation with the exact Table-XII prices so the billing
arithmetic is the same as the paper's.

Objects are written with :func:`repro.storage.codecs.encode` and read with
:func:`repro.storage.codecs.decode` in their assigned scheme, so the bytes on
disk are genuinely compressed and are the bytes ``codecs.measure`` labels.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import pandas as pd

from repro.core import cost_model as cm
from repro.storage import codecs


@dataclass
class ObjectMeta:
    """Catalog entry for one stored object."""

    key: str
    tier: str
    scheme: str  # 'none' or a codecs.ALL_SCHEMES member
    raw_bytes: int
    stored_bytes: int
    months_resident: float = 0.0


@dataclass
class BillingMeter:
    """Accumulates cents by category, mirroring the paper's table columns."""

    storage: float = 0.0
    read: float = 0.0
    write: float = 0.0

    @property
    def total(self) -> float:
        return self.storage + self.read + self.write


class TieredStore:
    """A local-directory 'cloud' with Premium/Hot/Cool/Archive tiers.

    ``put``/``get``/``move`` bill per GB at Table-XII prices. ``advance``
    bills storage for elapsed months. Archive enforces the 6-month minimum
    residency (:data:`repro.core.cost_model.ARCHIVE_MIN_MONTHS`): an early
    move out of archive bills the remaining residency as an early-deletion
    fee, exactly the mechanism the paper cites for excluding Archive from
    its 5.5-month experiments.
    """

    def __init__(self, root: str | Path, tiers: tuple[str, ...] = cm.TIER_NAMES):
        self.root = Path(root)
        self.tiers = tiers
        for t in tiers:
            (self.root / t).mkdir(parents=True, exist_ok=True)
        self.catalog: dict[str, ObjectMeta] = {}
        self.meter = BillingMeter()

    # -- helpers ---------------------------------------------------------
    def _write(self, tier: str, key: str, blob: bytes) -> None:
        """Write ``blob`` under ``tier``, creating the key's directories;
        reads never create any."""
        p = self.root / tier / key
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_bytes(blob)

    # -- public API ------------------------------------------------------
    def put(self, key: str, pdf: pd.DataFrame, *, tier: str, scheme: str) -> ObjectMeta:
        """Write a partition to a tier in a scheme; bills the write."""
        if tier not in self.tiers:
            raise ValueError(f"unknown tier {tier!r}")
        blob, raw = codecs.encode(pdf, scheme)
        self._write(tier, key, blob)
        meta = ObjectMeta(key, tier, scheme, len(raw), len(blob))
        self.catalog[key] = meta
        self.meter.write += cm.WRITE_COST[tier] * len(blob) / 2**30
        return meta

    def get(self, key: str) -> pd.DataFrame:
        """Read + decode an object; bills the read on its tier."""
        meta = self.catalog[key]
        blob = (self.root / meta.tier / key).read_bytes()
        self.meter.read += cm.READ_COST[meta.tier] * len(blob) / 2**30
        return codecs.decode(blob, meta.scheme, meta.raw_bytes)

    def move(self, key: str, dst: str) -> ObjectMeta:
        """Tier change: bills Δ(u,v) = read(u) + write(v), plus any archive
        early-deletion fee for the unmet residency period."""
        meta = self.catalog[key]
        if dst == meta.tier:
            return meta
        src_path = self.root / meta.tier / key
        blob = src_path.read_bytes()
        gb = len(blob) / 2**30
        cents = cm.tier_change_cost(meta.tier, dst) * gb
        if meta.tier == "archive" and meta.months_resident < cm.ARCHIVE_MIN_MONTHS:
            penalty_months = cm.ARCHIVE_MIN_MONTHS - meta.months_resident
            cents += cm.STORAGE_COST["archive"] * gb * penalty_months
        self._write(dst, key, blob)
        src_path.unlink()
        self.meter.write += cents
        meta.tier = dst
        meta.months_resident = 0.0
        return meta

    def advance(self, months: float) -> float:
        """Advance simulated time; bills storage for every object. Returns cents."""
        cents = 0.0
        for meta in self.catalog.values():
            c = cm.STORAGE_COST[meta.tier] * meta.stored_bytes / 2**30 * months
            meta.months_resident += months
            cents += c
        self.meter.storage += cents
        return cents

    def usage_gb(self) -> dict[str, float]:
        """Stored GB per tier (for capacity accounting)."""
        use = {t: 0.0 for t in self.tiers}
        for meta in self.catalog.values():
            use[meta.tier] += meta.stored_bytes / 2**30
        return use

    def dump_catalog(self, path: str | Path) -> None:
        """Persist the catalog as JSON (for jobs inspecting results)."""
        Path(path).write_text(
            json.dumps({k: vars(m) for k, m in self.catalog.items()}, indent=2)
        )
