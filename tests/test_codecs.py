"""Compression substrate: real codecs, both layouts, measured quantities."""
import numpy as np
import pandas as pd
import pytest

from repro.storage import codecs


@pytest.fixture(scope="module")
def frame() -> pd.DataFrame:
    g = np.random.default_rng(0)
    return pd.DataFrame(
        {
            "k": np.arange(2000),
            "cat": g.choice(["alpha", "beta", "gamma"], 2000),
            "x": g.random(2000).round(4),
            "txt": g.choice(["the same string"] * 3 + ["another one"], 2000),
        }
    )


class TestSchemes:
    def test_scheme_lists(self):
        assert set(codecs.ROW_SCHEMES) == {"csv+gzip", "csv+snappy", "csv+lz4"}
        assert set(codecs.COL_SCHEMES) == {
            "parquet+gzip", "parquet+snappy", "parquet+lz4",
        }

    @pytest.mark.parametrize("scheme", codecs.ALL_SCHEMES)
    def test_split_scheme(self, scheme):
        layout, codec = codecs.split_scheme(scheme)
        assert layout in ("csv", "parquet")
        assert codec in codecs.CODECS

    def test_none_is_uncompressed_parquet(self):
        assert codecs.split_scheme(codecs.NO_COMPRESSION) == ("parquet", None)

    @pytest.mark.parametrize("bad", ["zip", "csv+zip", "orc+gzip", "parquetgzip"])
    def test_split_scheme_rejects(self, bad):
        with pytest.raises(ValueError):
            codecs.split_scheme(bad)


class TestRoundTrip:
    @pytest.mark.parametrize("codec", codecs.CODECS)
    def test_bytes_roundtrip(self, codec):
        raw = b"abcdef" * 500
        blob = codecs.compress_bytes(raw, codec)
        assert codecs.decompress_bytes(blob, codec, len(raw)) == raw

    @pytest.mark.parametrize("scheme", codecs.ALL_SCHEMES)
    def test_measure_roundtrip_guard(self, frame, scheme):
        """measure() itself verifies the round-trip; it must not raise."""
        m = codecs.measure(frame, scheme, repeats=1)
        assert m.scheme == scheme

    def test_csv_bytes_parse_back(self, frame):
        back = pd.read_csv(pd.io.common.BytesIO(codecs.csv_bytes(frame)))
        assert len(back) == len(frame)
        assert list(back.columns) == list(frame.columns)

    def test_parquet_bytes_parse_back(self, frame):
        import io

        import pyarrow.parquet as pq

        t = pq.read_table(io.BytesIO(codecs.parquet_bytes(frame, codec="snappy")))
        assert t.num_rows == len(frame)


class TestMeasurements:
    @pytest.mark.parametrize("scheme", codecs.ALL_SCHEMES)
    def test_ratio_positive_times_positive(self, frame, scheme):
        m = codecs.measure(frame, scheme, repeats=1)
        assert m.ratio > 0
        assert m.decomp_sec > 0
        assert m.decomp_sec_per_gb > 0

    @pytest.mark.parametrize("scheme", codecs.ROW_SCHEMES)
    def test_repetitive_data_compresses(self, scheme):
        pdf = pd.DataFrame({"a": ["constant"] * 5000, "b": [1] * 5000})
        assert codecs.measure(pdf, scheme, repeats=1).ratio > 3.0

    def test_gzip_beats_snappy_on_text(self, frame):
        """gzip trades speed for ratio — the trade-off COMPREDICT learns."""
        gz = codecs.measure(frame, "csv+gzip", repeats=1)
        sn = codecs.measure(frame, "csv+snappy", repeats=1)
        assert gz.ratio > sn.ratio

    def test_random_data_compresses_worse_than_repetitive(self):
        g = np.random.default_rng(1)
        rand = pd.DataFrame({"x": g.integers(0, 2**60, 3000)})
        rep = pd.DataFrame({"x": np.zeros(3000, dtype=np.int64)})
        assert (
            codecs.measure(rand, "csv+gzip", repeats=1).ratio
            < codecs.measure(rep, "csv+gzip", repeats=1).ratio
        )

    def test_ratio_definition(self, frame):
        m = codecs.measure(frame, "csv+gzip", repeats=1)
        assert m.ratio == pytest.approx(m.raw_bytes / m.compressed_bytes)

    def test_parquet_raw_is_uncompressed_parquet(self, frame):
        m = codecs.measure(frame, "parquet+gzip", repeats=1)
        assert m.raw_bytes == len(codecs.parquet_bytes(frame, codec=None))
        assert m.compressed_bytes < m.raw_bytes

    def test_deterministic_sizes(self, frame):
        a = codecs.measure(frame, "csv+gzip", repeats=1)
        b = codecs.measure(frame, "csv+gzip", repeats=1)
        assert (a.raw_bytes, a.compressed_bytes) == (b.raw_bytes, b.compressed_bytes)
