"""G-PART (§VI-A, Algorithm 1): greedy access-aware partition merging.

Initial partitions (query families = file sets) are nodes of a graph whose
edges carry the *fractional overlap* ``w = Ov(u, v) / Sp(u ∪ v)``. G-PART
repeatedly merges the max-weight edge's endpoints (max-heap), subject to
the access-comparability feasibility constraint and a soft span cap
``S_thresh``; merged nodes below the cap re-enter the heap with recomputed
edges. The heap-greedy is inherently sequential and runs in Python over
partition *metadata* (file sets, spans, access counts); the edges are
computed pairwise from the file sets as the heap is built.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class FilePart:
    """An initial partition = a set of files with sizes, plus access count."""

    pid: str
    files: frozenset[str]
    rho: float


def span_of(files: frozenset[str], file_sizes: dict[str, float]) -> float:
    return sum(file_sizes[f] for f in files)


@dataclass
class MergedPartition:
    """A final partition: union of one or more initial partitions."""

    pid: str
    members: tuple[str, ...]
    files: frozenset[str]
    span: float
    rho: float


def merge_feasible(
    a: FilePart | MergedPartition,
    b: FilePart | MergedPartition,
    *,
    rho_c: float,
    rho_abs: float,
) -> bool:
    """Access-comparability constraint of §VI-A on two partitions' access
    counts ``rho`` (initial partitions or G-PART nodes): ratio within ρ_c OR
    absolute difference within ρ'_c."""
    lo, hi = min(a.rho, b.rho), max(a.rho, b.rho)
    if abs(a.rho - b.rho) <= rho_abs:
        return True
    if lo == 0:
        return False
    return hi / lo <= rho_c


def _fractional_overlap(
    a: MergedPartition, b: MergedPartition, file_sizes: dict[str, float]
) -> float:
    """``Ov(a, b) / Sp(a ∪ b)``, with each node's cached ``span``."""
    union = a.files | b.files
    sp_u = span_of(frozenset(union), file_sizes)
    if sp_u == 0:
        return 0.0
    return (a.span + b.span - sp_u) / sp_u


def _as_merged(p: FilePart, file_sizes: dict[str, float]) -> MergedPartition:
    return MergedPartition(
        pid=p.pid,
        members=(p.pid,),
        files=p.files,
        span=span_of(p.files, file_sizes),
        rho=p.rho,
    )


def gpart(
    parts: list[FilePart],
    file_sizes: dict[str, float],
    *,
    s_thresh: float = float("inf"),
    rho_c: float = 3.0,
    rho_abs: float = 0.0,
) -> list[MergedPartition]:
    """Algorithm 1. Deterministic: ties in overlap break on (pid, pid)."""
    nodes: dict[str, MergedPartition] = {
        p.pid: _as_merged(p, file_sizes) for p in parts
    }
    if len(nodes) != len(parts):
        raise ValueError("duplicate partition ids")
    heap: list[tuple[float, str, str]] = []  # (-overlap, pid_a, pid_b)
    for a, b in itertools.combinations(nodes.values(), 2):
        if not merge_feasible(a, b, rho_c=rho_c, rho_abs=rho_abs):
            continue
        w = _fractional_overlap(a, b, file_sizes)
        if w > 0:
            heapq.heappush(heap, (-w, a.pid, b.pid))
    counter = itertools.count()
    while heap:
        _, pa, pb = heapq.heappop(heap)
        if pa not in nodes or pb not in nodes:
            continue  # a stale edge to an already-merged node
        a, b = nodes.pop(pa), nodes.pop(pb)
        files = a.files | b.files
        m = MergedPartition(
            pid=f"m{next(counter)}:{min(pa, pb)}",
            members=tuple(sorted(a.members + b.members)),
            files=files,
            span=span_of(files, file_sizes),
            rho=a.rho + b.rho,
        )
        nodes[m.pid] = m
        if m.span >= s_thresh:
            continue  # soft span cap: frozen, no further merging
        for other in nodes.values():
            if other.pid == m.pid:
                continue
            if not merge_feasible(m, other, rho_c=rho_c, rho_abs=rho_abs):
                continue
            w = _fractional_overlap(m, other, file_sizes)
            if w > 0:
                heapq.heappush(heap, (-w, m.pid, other.pid))
    return sorted(nodes.values(), key=lambda x: x.members)


def merge_all(parts: list[FilePart], file_sizes: dict[str, float]) -> MergedPartition:
    """The 'merge everything' extreme of Fig 7's trade-off."""
    files = frozenset().union(*(p.files for p in parts)) if parts else frozenset()
    return MergedPartition(
        pid="all",
        members=tuple(sorted(p.pid for p in parts)),
        files=files,
        span=span_of(files, file_sizes),
        rho=sum(p.rho for p in parts),
    )


def duplication(merges: list[MergedPartition], file_sizes: dict[str, float]) -> float:
    """Fig 7's duplication metric: 1 - |distinct records| / |total records|."""
    total = sum(m.span for m in merges)
    if total == 0:
        return 0.0
    distinct = span_of(frozenset().union(*(m.files for m in merges)), file_sizes)
    return 1.0 - distinct / total


def read_cost(merges: list[MergedPartition]) -> float:
    """Expected read cost Σ Sp(M)·ρ(M) (the MERGE PARTITIONS budget metric)."""
    return sum(m.span * m.rho for m in merges)
