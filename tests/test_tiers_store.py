"""TieredStore: physical tier directories + Table-XII billing semantics."""
import numpy as np
import pandas as pd
import pytest

from repro.core import cost_model as cm
from repro.storage import codecs
from repro.storage.tiers import TieredStore


@pytest.fixture()
def frame() -> pd.DataFrame:
    g = np.random.default_rng(0)
    return pd.DataFrame({"a": np.arange(500), "b": g.choice(list("xyz"), 500)})


@pytest.fixture()
def store(tmp_path) -> TieredStore:
    return TieredStore(tmp_path / "lake")


class TestPutGet:
    @pytest.mark.parametrize("scheme", (codecs.NO_COMPRESSION,) + codecs.ALL_SCHEMES)
    def test_roundtrip(self, store, frame, scheme):
        store.put("k", frame, tier="hot", scheme=scheme)
        back = store.get("k")
        assert len(back) == len(frame)
        assert list(back.columns) == list(frame.columns)
        assert back["a"].tolist() == frame["a"].tolist()

    def test_blob_physically_in_tier_dir(self, store, frame):
        store.put("t1/obj", frame, tier="cool", scheme="parquet+gzip")
        assert (store.root / "cool" / "t1" / "obj").exists()

    def test_compressed_blob_smaller(self, store, frame):
        a = store.put("a", frame, tier="hot", scheme=codecs.NO_COMPRESSION)
        b = store.put("b", frame, tier="hot", scheme="parquet+gzip")
        assert b.stored_bytes < a.stored_bytes

    def test_unknown_tier_rejected(self, store, frame):
        with pytest.raises(ValueError):
            store.put("k", frame, tier="lukewarm", scheme="csv+gzip")


class TestOneFormat:
    @pytest.mark.parametrize("scheme", (codecs.NO_COMPRESSION,) + codecs.ALL_SCHEMES)
    def test_store_writes_the_measured_bytes(self, store, frame, scheme):
        """The ratio OPTASSIGN prices is the ratio of the bytes the store writes."""
        blob, raw = codecs.encode(frame, scheme)
        meta = store.put("k", frame, tier="hot", scheme=scheme)
        assert (store.root / "hot" / "k").read_bytes() == blob
        assert (meta.stored_bytes, meta.raw_bytes) == (len(blob), len(raw))
        if scheme != codecs.NO_COMPRESSION:
            m = codecs.measure(frame, scheme, repeats=1)
            assert (m.compressed_bytes, m.raw_bytes) == (meta.stored_bytes, meta.raw_bytes)


class TestBilling:
    def test_write_billed_at_tier_rate(self, store, frame):
        meta = store.put("k", frame, tier="hot", scheme=codecs.NO_COMPRESSION)
        expected = cm.WRITE_COST["hot"] * meta.stored_bytes / 2**30
        assert store.meter.write == pytest.approx(expected)

    def test_read_billed_at_tier_rate(self, store, frame):
        meta = store.put("k", frame, tier="cool", scheme=codecs.NO_COMPRESSION)
        store.meter.read = 0.0
        store.get("k")
        assert store.meter.read == pytest.approx(
            cm.READ_COST["cool"] * meta.stored_bytes / 2**30
        )

    def test_advance_bills_storage_per_month(self, store, frame):
        meta = store.put("k", frame, tier="premium", scheme=codecs.NO_COMPRESSION)
        cents = store.advance(2.0)
        assert cents == pytest.approx(
            cm.STORAGE_COST["premium"] * meta.stored_bytes / 2**30 * 2.0
        )
        assert store.meter.storage == pytest.approx(cents)

    def test_move_bills_delta(self, store, frame):
        meta = store.put("k", frame, tier="hot", scheme=codecs.NO_COMPRESSION)
        store.meter.write = 0.0
        store.move("k", "cool")
        gb = meta.stored_bytes / 2**30
        assert store.meter.write == pytest.approx(cm.tier_change_cost("hot", "cool") * gb)
        assert store.catalog["k"].tier == "cool"
        assert (store.root / "cool" / "k").exists()
        assert not (store.root / "hot" / "k").exists()

    def test_move_same_tier_noop(self, store, frame):
        store.put("k", frame, tier="hot", scheme=codecs.NO_COMPRESSION)
        before = store.meter.write
        store.move("k", "hot")
        assert store.meter.write == before

    def test_archive_early_deletion_fee(self, store, frame):
        """Leaving Archive before the minimum residency bills the remainder —
        the reason the paper excludes Archive from 5.5-month runs."""
        meta = store.put("k", frame, tier="archive", scheme=codecs.NO_COMPRESSION)
        store.advance(2.0)  # resided 2 of 6 months
        store.meter.write = 0.0
        store.move("k", "hot")
        gb = meta.stored_bytes / 2**30
        expected = cm.tier_change_cost("archive", "hot") * gb + cm.STORAGE_COST[
            "archive"
        ] * gb * (cm.ARCHIVE_MIN_MONTHS - 2.0)
        assert store.meter.write == pytest.approx(expected)

    def test_no_fee_after_residency(self, store, frame):
        meta = store.put("k", frame, tier="archive", scheme=codecs.NO_COMPRESSION)
        store.advance(7.0)
        store.meter.write = 0.0
        store.move("k", "hot")
        gb = meta.stored_bytes / 2**30
        assert store.meter.write == pytest.approx(cm.tier_change_cost("archive", "hot") * gb)


class TestAccounting:
    def test_usage_by_tier(self, store, frame):
        store.put("a", frame, tier="hot", scheme=codecs.NO_COMPRESSION)
        store.put("b", frame, tier="hot", scheme=codecs.NO_COMPRESSION)
        store.put("c", frame, tier="cool", scheme=codecs.NO_COMPRESSION)
        use = store.usage_gb()
        assert use["hot"] > use["cool"] > 0
        assert use["archive"] == 0.0

    def test_meter_total(self, store, frame):
        store.put("a", frame, tier="hot", scheme="csv+gzip")
        store.get("a")
        store.advance(1.0)
        m = store.meter
        assert m.total == pytest.approx(m.storage + m.read + m.write)

    def test_dump_catalog(self, store, frame, tmp_path):
        import json

        store.put("a", frame, tier="hot", scheme="csv+gzip")
        out = tmp_path / "cat.json"
        store.dump_catalog(out)
        cat = json.loads(out.read_text())
        assert cat["a"]["tier"] == "hot"
        assert cat["a"]["scheme"] == "csv+gzip"
