"""DATAPART (§VI): the ordered (time-series) special case — pseudo-polynomial
DP (Theorem 5) plus the ε-bucketed polynomial approximation scheme
(Theorem 6).

DATAPART's general case starts from query families (the initial partitions),
built by :func:`repro.workload.queries.workload_fileparts` and merged by
:mod:`repro.core.gpart`.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


# --------------------------------------------------------------------------
# Ordered partitions (time-series special case)
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class Interval:
    """An ordered partition: a record range [start, end) with access count ρ.

    ``end`` values must be strictly increasing across the input list (the
    paper orders partitions by end time and keeps distinct queries only).
    """

    start: float
    end: float
    rho: float

    @property
    def length(self) -> float:
        return self.end - self.start


def _union_length(ivs: list[Interval]) -> float:
    """Length of the union of intervals (the span of a merge)."""
    if not ivs:
        return 0.0
    sorted_ivs = sorted(ivs, key=lambda x: x.start)
    total, cur_s, cur_e = 0.0, sorted_ivs[0].start, sorted_ivs[0].end
    for iv in sorted_ivs[1:]:
        if iv.start > cur_e:
            total += cur_e - cur_s
            cur_s, cur_e = iv.start, iv.end
        else:
            cur_e = max(cur_e, iv.end)
    return total + (cur_e - cur_s)


def merge_stats(ivs: list[Interval]) -> tuple[float, float]:
    """(span, cost) of merging consecutive intervals: cost = span x Σρ."""
    sp = _union_length(ivs)
    return sp, sp * sum(iv.rho for iv in ivs)


def ordered_dp(
    parts: list[Interval], c_thresh: int, *, cost_scale: float = 1.0
) -> tuple[float, list[tuple[int, int]]]:
    """Theorem 5 DP: minimum total span covering P_1..P_N with consecutive
    merges of total cost <= c_thresh (costs rounded UP to ints after division
    by ``cost_scale`` — exact when costs/scale are integral).

    Returns (min span, merges as (i, j) index ranges, inclusive, 0-based).
    Raises if infeasible within the budget.
    """
    n = len(parts)
    if any(parts[i].end >= parts[i + 1].end for i in range(n - 1)):
        raise ValueError("intervals must be ordered by strictly increasing end")
    C = int(c_thresh)
    # span[k][i], cost[k][i] for merge [k..i] (precomputed suffix merges).
    span = [[0.0] * n for _ in range(n)]
    icost = [[0] * n for _ in range(n)]
    for i in range(n):
        for k in range(i, -1, -1):
            sp, c = merge_stats(parts[k : i + 1])
            span[k][i] = sp
            icost[k][i] = math.ceil(c / cost_scale - 1e-12)
    INF = math.inf
    alg = np.full((n + 1, C + 1), INF)
    alg[0, :] = 0.0
    back: dict[tuple[int, int], tuple[int, int]] = {}
    for i in range(1, n + 1):
        for k in range(i):  # merge covers partitions k..i-1 (0-based)
            c = icost[k][i - 1]
            if c > C:
                continue
            sp = span[k][i - 1]
            prev = alg[k, : C + 1 - c]
            cand = prev + sp
            cur = alg[i, c:]
            better = cand < cur - 1e-12
            if better.any():
                alg[i, c:][better] = cand[better]
                for cc in np.nonzero(better)[0]:
                    back[(i, int(cc) + c)] = (k, c)
    if not math.isfinite(alg[n, C]):
        raise ValueError("infeasible: budget too small to cover all partitions")
    # Backtrack the optimal chain from the best terminal budget.
    best_c = int(np.argmin(alg[n, :]))  # all alg[n, c] >= alg[n, C]; C works too
    best_c = C if alg[n, C] <= alg[n, best_c] + 1e-12 else best_c
    merges: list[tuple[int, int]] = []
    i, c = n, best_c
    while i > 0:
        # Find the recorded transition at or below budget c.
        while (i, c) not in back:
            c -= 1
            if c < 0:  # pragma: no cover - guarded by feasibility above
                raise RuntimeError("backtrack failed")
        k, mc = back[(i, c)]
        merges.append((k, i - 1))
        i, c = k, c - mc
    merges.reverse()
    return float(alg[n, C]), merges


def ordered_brute_force(
    parts: list[Interval], c_thresh: float
) -> tuple[float, list[tuple[int, int]]]:
    """Oracle: enumerate all 2^(N-1) segmentations into consecutive runs."""
    n = len(parts)
    best = (math.inf, None)
    for cuts in itertools.product([0, 1], repeat=n - 1):
        segs, start = [], 0
        for i, c in enumerate(cuts, 1):
            if c:
                segs.append((start, i - 1))
                start = i
        segs.append((start, n - 1))
        tot_sp = tot_c = 0.0
        for a, b in segs:
            sp, c = merge_stats(parts[a : b + 1])
            tot_sp += sp
            tot_c += c
        if tot_c <= c_thresh + 1e-9 and tot_sp < best[0] - 1e-12:
            best = (tot_sp, segs)
    if best[1] is None:
        raise ValueError("infeasible")
    return best


def ordered_approx(
    parts: list[Interval], c_thresh: float, *, eps: float
) -> tuple[float, float, list[tuple[int, int]]]:
    """Theorem 6 approximation scheme.

    Costs are bucketed in units of ``eps * c_thresh`` (rounded up) and the
    budget extended by N buckets, guaranteeing space <= S_OPT and total true
    cost <= (1 + N·eps)·c_thresh. Returns (space, true cost, merges).
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    n = len(parts)
    unit = eps * c_thresh
    budget = math.ceil(c_thresh / unit) + n
    space, merges = ordered_dp(parts, budget, cost_scale=unit)
    true_cost = sum(merge_stats(parts[a : b + 1])[1] for a, b in merges)
    return space, true_cost, merges
