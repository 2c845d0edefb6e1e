"""OPTASSIGN: greedy vs exact ILP (Theorem 3), candidate rows vs the scalar
cost formula, capacity repair against its per-victim reference."""
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import cost_model as cm
from repro.core import optassign as oa
from repro.core.ilp import PartitionSpec, SchemePrediction, solve_optassign_exact
from repro.core.pipeline import _latency_objective


def _parts(n, seed=0, with_extras=False):
    g = np.random.default_rng(seed)
    df = pd.DataFrame(
        {
            "pid": [f"p{i}" for i in range(n)],
            "span_gb": g.uniform(0.5, 20, n).round(3),
            "accesses": g.integers(0, 200, n).astype(float),
        }
    )
    if with_extras:
        df["latency_threshold"] = np.where(g.random(n) < 0.3, 1.0, np.inf)
        df["current_tier"] = np.where(g.random(n) < 0.5, "hot", None)
    return df


def _preds(pids, seed=0):
    g = np.random.default_rng(seed)
    rows = []
    for pid in pids:
        for s, base in [("parquet+gzip", 3.0), ("parquet+snappy", 2.0)]:
            rows.append(
                {
                    "pid": pid,
                    "scheme": s,
                    "ratio": base + g.random(),
                    "decomp_sec_per_gb": g.uniform(0.5, 5.0),
                }
            )
    return pd.DataFrame(rows)


def _to_specs(parts, preds):
    specs, pred_map = [], {}
    for r in parts.itertuples(index=False):
        specs.append(
            PartitionSpec(
                r.pid,
                r.span_gb,
                r.accesses,
                getattr(r, "latency_threshold", float("inf")),
                getattr(r, "current_tier", None),
            )
        )
    if preds is not None:
        for r in preds.itertuples(index=False):
            pred_map.setdefault(r.pid, []).append(
                SchemePrediction(r.scheme, r.ratio, r.decomp_sec_per_gb)
            )
    return specs, pred_map


class TestGreedyVsExact:
    """Theorem 3: with no capacity bounds the greedy is optimal."""

    @pytest.mark.parametrize("seed", range(6))
    def test_numpy_greedy_matches_exact(self, seed):
        parts = _parts(6, seed=seed, with_extras=True)
        preds = _preds(parts["pid"], seed=seed)
        tiers = cm.make_tiers()
        got = oa.assign(parts, preds, tiers, months=3.0)
        specs, pred_map = _to_specs(parts, preds)
        _, exact_cost = solve_optassign_exact(specs, tiers, pred_map, months=3.0)
        assert got["weighted_cost"].sum() == pytest.approx(exact_cost, rel=1e-9)

    @given(st.integers(0, 10_000), st.floats(1.0, 12.0))
    @settings(max_examples=20, deadline=None)
    def test_greedy_optimal_property(self, seed, months):
        parts = _parts(5, seed=seed)
        preds = _preds(parts["pid"], seed=seed)
        tiers = cm.make_tiers()
        got = oa.assign(parts, preds, tiers, months=months)
        specs, pred_map = _to_specs(parts, preds)
        _, exact_cost = solve_optassign_exact(specs, tiers, pred_map, months=months)
        assert got["weighted_cost"].sum() == pytest.approx(exact_cost, rel=1e-9)


class TestCandidates:
    def test_latency_constraint_applied(self):
        parts = pd.DataFrame(
            {"pid": ["p"], "span_gb": [1.0], "accesses": [0.0],
             "latency_threshold": [1.0]}
        )
        cand = oa.candidate_frame_numpy(parts, None, cm.make_tiers(), months=12.0)
        assert "archive" not in set(cand["tier"])

    def test_archive_residency_short_horizon(self):
        parts = pd.DataFrame({"pid": ["p"], "span_gb": [1.0], "accesses": [0.0]})
        cand = oa.candidate_frame_numpy(parts, None, cm.make_tiers(), months=2.0)
        assert "archive" not in set(cand["tier"])
        cand6 = oa.candidate_frame_numpy(parts, None, cm.make_tiers(), months=6.0)
        assert "archive" in set(cand6["tier"])

    def test_fixed_scheme_restricts(self):
        parts = pd.DataFrame(
            {"pid": ["p"], "span_gb": [1.0], "accesses": [0.0],
             "fixed_scheme": ["parquet+gzip"]}
        )
        preds = pd.DataFrame(
            [{"pid": "p", "scheme": "parquet+gzip", "ratio": 2.0,
              "decomp_sec_per_gb": 0.1},
             {"pid": "p", "scheme": "csv+gzip", "ratio": 3.0,
              "decomp_sec_per_gb": 0.1}]
        )
        cand = oa.candidate_frame_numpy(parts, preds, cm.make_tiers(("hot",)), months=1.0)
        assert set(cand["scheme"]) == {"parquet+gzip"}

    def test_transfer_cost_zero_on_same_tier(self):
        parts = pd.DataFrame(
            {"pid": ["p"], "span_gb": [2.0], "accesses": [0.0],
             "current_tier": ["hot"]}
        )
        cand = oa.candidate_frame_numpy(parts, None, cm.make_tiers(), months=1.0)
        hot = cand[cand["tier"] == "hot"].iloc[0]
        cool = cand[cand["tier"] == "cool"].iloc[0]
        assert hot["transfer_cost"] == 0.0
        assert cool["transfer_cost"] == pytest.approx(
            (cm.READ_COST["hot"] + cm.WRITE_COST["cool"]) * 2.0
        )

    def test_infeasible_partition_raises(self):
        parts = pd.DataFrame(
            {"pid": ["p"], "span_gb": [1.0], "accesses": [0.0],
             "latency_threshold": [0.0001]}
        )
        with pytest.raises(ValueError):
            oa.assign(parts, None, cm.make_tiers(), months=1.0)

    def test_k0_tiering_only(self):
        parts = _parts(5, seed=3)
        got = oa.assign(parts, None, cm.make_tiers(("hot", "cool")), months=2.0)
        assert set(got["scheme"]) == {"none"}
        assert len(got) == 5


class TestCostFormula:
    """Every candidate row carries exactly the scalar ``cm.assignment_cost``."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_candidate_rows_equal_assignment_cost(self, seed):
        parts = _parts(8, seed=seed, with_extras=True)
        preds = _preds(parts["pid"], seed=seed)
        tiers = cm.make_tiers()
        weights = cm.CostWeights(alpha=0.5, beta=2.0, gamma=3.0)
        cand = oa.candidate_frame_numpy(
            parts, preds, tiers, months=7.0, weights=weights
        )
        assert set(cand["current_tier"].dropna()) == {"hot"}
        by_name = {t.name: t for t in tiers}
        for r in cand.itertuples(index=False):
            a = cm.assignment_cost(
                span_gb=r.span_gb,
                accesses=r.accesses,
                months=7.0,
                tier=by_name[r.tier],
                ratio=r.ratio,
                decomp_sec_per_gb=r.decomp_sec_per_gb,
                current_tier=r.current_tier,
            )
            assert r.stored_gb == r.span_gb / r.ratio
            assert (
                r.storage_cost, r.read_cost, r.decomp_cost, r.transfer_cost,
                r.read_latency, r.decomp_latency, r.weighted_cost,
            ) == (
                a.storage, a.read, a.decompress, a.transfer,
                a.read_latency, a.decompress_latency, a.weighted(weights),
            )


class TestCapacityRepair:
    def test_respects_capacity(self):
        parts = pd.DataFrame(
            {
                "pid": [f"p{i}" for i in range(6)],
                "span_gb": [10.0] * 6,
                "accesses": [1000.0] * 6,
            }
        )
        tiers = [
            cm.Tier("premium", 15.0, 0.004659, 0.009318, 0.0053, capacity_gb=20.0),
            cm.Tier("hot", 2.08, 0.01331, 0.02662, 0.0614, capacity_gb=30.0),
            cm.Tier("cool", 1.52, 0.0333, 0.0666, 0.0614, capacity_gb=float("inf")),
        ]
        got = oa.assign(parts, None, tiers, months=1.0)
        usage = got.groupby("tier")["stored_gb"].sum()
        assert usage.get("premium", 0.0) <= 20.0 + 1e-9
        assert usage.get("hot", 0.0) <= 30.0 + 1e-9
        assert len(got) == 6

    def test_noop_when_capacity_loose(self, monkeypatch):
        """Repair runs only under finite capacities, and loose ones move nothing."""
        calls = []
        repair = oa.repair_capacity
        monkeypatch.setattr(
            oa, "repair_capacity", lambda *a: calls.append(1) or repair(*a)
        )
        parts = _parts(6, seed=5)
        free = oa.assign(parts, None, cm.make_tiers(), months=2.0)
        assert calls == []
        capped = oa.assign(parts, None, cm.make_tiers(total_gb=1e6), months=2.0)
        assert calls == [1]
        pd.testing.assert_frame_equal(
            free.sort_values("pid", ignore_index=True),
            capped.sort_values("pid", ignore_index=True),
        )

    def test_matches_exact_on_small_instance(self):
        """Repair finds the optimum here (one eviction needed)."""
        parts = pd.DataFrame(
            {
                "pid": ["a", "b"],
                "span_gb": [10.0, 10.0],
                "accesses": [500.0, 100.0],
            }
        )
        tiers = [
            cm.Tier("premium", 15.0, 0.004659, 0.009318, 0.0053, capacity_gb=10.0),
            cm.Tier("cool", 1.52, 0.0333, 0.0666, 0.0614, capacity_gb=float("inf")),
        ]
        got = oa.assign(parts, None, tiers, months=1.0)
        specs, _ = _to_specs(parts, None)
        exact, exact_cost = solve_optassign_exact(specs, tiers, {}, months=1.0)
        assert got["weighted_cost"].sum() == pytest.approx(exact_cost, rel=1e-9)

    def test_unrepairable_raises(self):
        parts = pd.DataFrame({"pid": ["p"], "span_gb": [100.0], "accesses": [0.0]})
        tiers = [cm.Tier("hot", 2.08, 0.013, 0.026, 0.06, capacity_gb=1.0)]
        with pytest.raises(
            ValueError,
            match=r"tier 'hot': it holds 99 GB over its capacity and no "
            r"partition on it fits another tier",
        ):
            oa.assign(parts, None, tiers, months=1.0)

    def test_empty_partitions_under_capacity(self):
        parts = pd.DataFrame(
            {"pid": pd.Series([], dtype=object), "span_gb": [], "accesses": []}
        )
        got = oa.assign(parts, None, cm.make_tiers(total_gb=10.0), months=1.0)
        assert list(got.columns) == oa.ASSIGN_COLS
        assert got.empty

    def test_zero_access_partitions_under_tight_capacity(self):
        """Eight idle 1 GB partitions all prefer cool (4.891 GB): equal regrets
        break on pid, so p0-p2 fill hot and p3 goes to premium."""
        parts = pd.DataFrame(
            {"pid": [f"p{i}" for i in range(8)], "span_gb": [1.0] * 8,
             "accesses": [0.0] * 8}
        )
        tiers = cm.make_tiers(("premium", "hot", "cool"), total_gb=10.0)
        got = oa.assign(parts, None, tiers, months=1.0)
        assert list(got["tier"]) == ["hot"] * 3 + ["premium"] + ["cool"] * 4
        usage = got.groupby("tier")["stored_gb"].sum()
        assert all(usage[t.name] <= t.capacity_gb for t in tiers)


def _reference_repair(chosen, cand, tiers):
    """The per-victim capacity repair loop that ``oa.repair_capacity``
    replaced, kept as its oracle: same moves, same tie-breaks."""
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
            return chosen.reset_index(drop=True)[oa.ASSIGN_COLS]
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
        chosen.loc[pid, oa.ASSIGN_COLS[1:]] = alt[oa.ASSIGN_COLS[1:]].values
    raise RuntimeError("capacity repair did not converge")


def _repair_instance(seed):
    """A greedy assignment that overflows premium or hot, with cool unbounded.

    Spans, accesses, ratios and decode costs come from small sets, so equal
    candidate rows tie in ``weighted_cost`` within a partition and in regret
    across partitions. Odd seeds set ``current_tier``, every fifth has no
    scheme predictions, and every third uses the latency objective.
    """
    g = np.random.default_rng(seed)
    n = int(g.integers(20, 60))
    parts = pd.DataFrame(
        {
            "pid": [f"p{i:02d}" for i in range(n)],
            "span_gb": g.choice([0.5, 1.0, 2.0, 4.0], n),
            "accesses": g.choice([0.0, 1e3, 1e4, 1e5], n),
        }
    )
    if seed % 2:
        parts["current_tier"] = g.choice(
            np.array(["premium", "hot", None], dtype=object), n
        )
    preds = None
    if seed % 5:
        preds = pd.DataFrame(
            [
                {"pid": pid, "scheme": s, "ratio": g.choice([1.5, 3.0]),
                 "decomp_sec_per_gb": g.choice([0.2, 5.0])}
                for pid in parts["pid"]
                for s in ("parquet+gzip", "parquet+snappy")
            ]
        )
    # Whole-GB capacities, so that some alternatives fit the head-room exactly.
    total_gb = parts["span_gb"].sum() * g.uniform(0.3, 1.0)
    tiers = [
        replace(t, capacity_gb=float(np.floor(cm.CAPACITY_FRACTION[t.name] * total_gb)))
        for t in cm.make_tiers(("premium", "hot"))
    ] + cm.make_tiers(("cool",))
    cand = oa.candidate_frame_numpy(parts, preds, tiers, months=5.5)
    if seed % 3 == 0:
        cand = _latency_objective(cand)
    unbounded = [replace(t, capacity_gb=np.inf) for t in tiers]
    return oa.assign_candidates(cand, parts["pid"], unbounded), cand, tiers


class TestRepairMatchesReference:
    @pytest.mark.parametrize("seed", range(20))
    def test_same_moves(self, seed):
        chosen, cand, tiers = _repair_instance(seed)
        got = oa.repair_capacity(chosen, cand, tiers)
        assert (got["tier"] != chosen["tier"]).any()
        pd.testing.assert_frame_equal(
            got, _reference_repair(chosen, cand, tiers), check_exact=True
        )
