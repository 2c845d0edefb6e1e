"""G-PART (Algorithm 1): merging behaviour, constraints and the Fig-7
trade-off."""
import numpy as np
import pytest

from repro.core import gpart as gp
from repro.core.gpart import FilePart, duplication, gpart, merge_all, read_cost, span_of
from repro.core.ilp import solve_merge_partitions_exact
from repro.workload.queries import workload_fileparts

FS = {f"f{i}": 1.0 for i in range(12)}


def _parts(*filesets, rhos=None):
    rhos = rhos or [1.0] * len(filesets)
    return [
        FilePart(chr(ord("a") + i), frozenset(fs), float(r))
        for i, (fs, r) in enumerate(zip(filesets, rhos))
    ]


class TestMerging:
    def test_highest_overlap_merges_first(self):
        parts = _parts(["f0", "f1", "f2"], ["f1", "f2", "f3"], ["f3", "f4"])
        out = gpart(parts, FS)
        members = sorted(m.members for m in out)
        # a-b overlap 2/4 = 0.5 merges first; then (ab)-c overlap 1/6.
        assert members == [("a", "b", "c")]

    def test_no_overlap_no_merge(self):
        parts = _parts(["f0"], ["f1"], ["f2"])
        out = gpart(parts, FS)
        assert len(out) == 3
        assert all(len(m.members) == 1 for m in out)

    def test_merge_dedups_span(self):
        parts = _parts(["f0", "f1"], ["f1", "f2"])
        out = gpart(parts, FS)
        assert len(out) == 1
        assert out[0].span == 3.0  # not 4
        assert out[0].rho == 2.0

    def test_span_cap_freezes_merges(self):
        parts = _parts(["f0", "f1", "f2"], ["f2", "f3", "f4"], ["f4", "f5", "f6"])
        out = gpart(parts, FS, s_thresh=4.0)
        # First merge creates span 5 >= 4 -> frozen; third stays single.
        assert sorted(len(m.members) for m in out) == [1, 2]

    def test_access_ratio_blocks_merge(self):
        parts = _parts(["f0", "f1"], ["f1", "f2"], rhos=[1.0, 100.0])
        out = gpart(parts, FS, rho_c=3.0, rho_abs=0.0)
        assert len(out) == 2

    def test_access_abs_allows_merge(self):
        parts = _parts(["f0", "f1"], ["f1", "f2"], rhos=[1.0, 100.0])
        out = gpart(parts, FS, rho_c=3.0, rho_abs=100.0)
        assert len(out) == 1

    def test_each_initial_partition_in_exactly_one_merge(self):
        g = np.random.default_rng(0)
        parts = [
            FilePart(f"p{i}", frozenset(f"f{j}" for j in g.choice(12, 3, replace=False)), float(g.integers(1, 5)))
            for i in range(8)
        ]
        out = gpart(parts, FS, rho_c=10.0, rho_abs=10.0)
        seen = [pid for m in out for pid in m.members]
        assert sorted(seen) == sorted(p.pid for p in parts)

    def test_duplicate_pids_rejected(self):
        parts = [FilePart("a", frozenset(["f0"]), 1.0)] * 2
        with pytest.raises(ValueError):
            gpart(parts, FS)

    def test_deterministic(self):
        g = np.random.default_rng(1)
        parts = [
            FilePart(f"p{i}", frozenset(f"f{j}" for j in g.choice(12, 4, replace=False)), 1.0)
            for i in range(6)
        ]
        a = gpart(parts, FS)
        b = gpart(parts, FS)
        assert [m.members for m in a] == [m.members for m in b]


class TestFig7Tradeoff:
    """No-merge <= G-PART <= merge-all in duplication; reversed in read cost."""

    def _instance(self, seed=0):
        g = np.random.default_rng(seed)
        return [
            FilePart(
                f"p{i}",
                frozenset(f"f{j}" for j in range(s, min(12, s + 4))),
                float(g.integers(1, 4)),
            )
            for i, s in enumerate(g.integers(0, 9, 10))
        ]

    @pytest.mark.parametrize("seed", range(4))
    def test_duplication_ordering(self, seed):
        parts = self._instance(seed)
        singles = [merge_all([p], FS) for p in parts]
        merged = gpart(parts, FS, rho_c=100.0, rho_abs=100.0)
        allm = [merge_all(parts, FS)]
        assert duplication(allm, FS) <= 1e-12
        assert duplication(merged, FS) <= duplication(singles, FS) + 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_read_cost_ordering(self, seed):
        parts = self._instance(seed)
        singles = [merge_all([p], FS) for p in parts]
        allm = [merge_all(parts, FS)]
        assert read_cost(singles) <= read_cost(allm) + 1e-9

    def test_gpart_space_close_to_exact(self):
        """On tiny instances, G-PART's space is within 2x the ILP optimum
        at the same (achieved) read cost budget."""
        parts = _parts(["f0", "f1"], ["f1", "f2"], ["f5", "f6"], rhos=[1, 1, 2])
        merged = gpart(parts, FS, rho_c=10.0, rho_abs=10.0)
        got_space = sum(m.span for m in merged)
        got_cost = read_cost(merged)
        _, exact_space, _ = solve_merge_partitions_exact(
            parts, FS, c_thresh=got_cost + 1e-9, rho_c=10.0, rho_abs=10.0
        )
        assert got_space <= 2 * exact_space + 1e-9


def _reference_overlap(a, b, file_sizes):
    """Ov / Sp(a ∪ b) with both spans recomputed from the file sets."""
    sp_u = span_of(frozenset(a.files | b.files), file_sizes)
    if sp_u == 0:
        return 0.0
    ov = span_of(a.files, file_sizes) + span_of(b.files, file_sizes) - sp_u
    return ov / sp_u


class TestCachedSpans:
    """The overlap reads each node's cached span; recomputing ``span_of`` per
    pair gives the same partitions, to the bit."""

    def _check(self, monkeypatch, parts, file_sizes, **kw):
        got = gpart(parts, file_sizes, **kw)
        monkeypatch.setattr(gp, "_fractional_overlap", _reference_overlap)
        want = gpart(parts, file_sizes, **kw)
        assert any(len(m.members) > 1 for m in got)
        assert got == want

    def test_tpch_workload(self, monkeypatch, tables, workload):
        sizes = {f.file_id: f.size_gb for tf in tables.values() for f in tf.files}
        self._check(
            monkeypatch, workload_fileparts(workload), sizes,
            s_thresh=0.6 * sum(sizes.values()), rho_c=3.0, rho_abs=50.0,
        )

    def test_random_instance(self, monkeypatch):
        g = np.random.default_rng(7)
        sizes = {f"f{i}": float(g.uniform(0.01, 3.0)) for i in range(40)}
        parts = [
            FilePart(
                f"p{i}",
                frozenset(f"f{j}" for j in g.choice(40, g.integers(1, 8), replace=False)),
                float(g.integers(1, 20)),
            )
            for i in range(60)
        ]
        self._check(monkeypatch, parts, sizes, s_thresh=15.0, rho_c=3.0, rho_abs=5.0)
