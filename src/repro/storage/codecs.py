"""Compression substrate for COMPREDICT (§V) and the tiered store (§VII).

Real codecs (gzip / snappy / lz4 via ``pyarrow.Codec``) applied to the two
data layouts the paper studies:

- **row store**: the partition serialised as CSV bytes, then compressed with
  a codec ("gzip", "snappy" columns of Table VI);
- **column store**: the partition written as a Parquet file with the codec
  as the parquet compression ("parquet + gzip" etc.). The ratio denominator
  is the *uncompressed* parquet file so the ratio isolates the codec, as in
  the paper where both layouts start from the same logical data.

``none`` (OPTASSIGN's mandatory no-compression option) is uncompressed
Parquet. Every scheme has one format, shared by three roles:

- :func:`encode` maps a frame to the bytes a scheme stores, plus the
  uncompressed serialisation they expand to; ``TieredStore.put`` writes them;
- :func:`decode` maps stored bytes back to a frame (``TieredStore.get``);
- :func:`measure` labels a scheme on a frame from :func:`encode`'s bytes and
  the timed first step of :func:`decode`. So the ratio OPTASSIGN prices is
  the ratio of the bytes the store writes.

Measured quantities per (partition, scheme):

- ``ratio``      — uncompressed bytes / compressed bytes (R_i^k, >= 1 usually);
- ``decomp_sec_per_gb`` — wall-clock decompression time normalised to 1 GB
  (the unit of Table VIII), measured over ``repeats`` runs taking the min
  (least-noise estimator for CPU-bound work).

The timed step is not the same work for both layouts: for CSV it only
decompresses the bytes and excludes parsing them into a frame, while for
Parquet it reads the file into an Arrow table, which includes decoding it.
"""
from __future__ import annotations

import io
import time
from dataclasses import dataclass

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

#: Codec names accepted by pyarrow for both buffer codecs and parquet.
CODECS = ("gzip", "snappy", "lz4")
#: Scheme identifiers as the paper's tables name them.
ROW_SCHEMES = tuple(f"csv+{c}" for c in CODECS)
COL_SCHEMES = tuple(f"parquet+{c}" for c in CODECS)
ALL_SCHEMES = ROW_SCHEMES + COL_SCHEMES
#: The mandatory 'no compression' option of OPTASSIGN (§IV-A).
NO_COMPRESSION = "none"


@dataclass(frozen=True)
class CompressionMeasurement:
    """Ground-truth compression performance of one scheme on one partition."""

    scheme: str
    raw_bytes: int
    compressed_bytes: int
    decomp_sec: float

    @property
    def ratio(self) -> float:
        return self.raw_bytes / max(1, self.compressed_bytes)

    @property
    def decomp_sec_per_gb(self) -> float:
        return self.decomp_sec / max(1e-12, self.raw_bytes / 2**30)


def split_scheme(scheme: str) -> tuple[str, str | None]:
    """``'parquet+gzip' -> ('parquet', 'gzip')``, ``'none' -> ('parquet',
    None)``; validates the name."""
    if scheme == NO_COMPRESSION:
        return "parquet", None
    layout, _, codec = scheme.partition("+")
    if layout not in ("csv", "parquet") or codec not in CODECS:
        raise ValueError(f"unknown scheme {scheme!r}")
    return layout, codec


def csv_bytes(pdf: pd.DataFrame) -> bytes:
    """Row-store serialisation of a partition (CSV, no index)."""
    buf = io.StringIO()
    pdf.to_csv(buf, index=False)
    return buf.getvalue().encode()


def parquet_bytes(data: pd.DataFrame | pa.Table, codec: str | None = None) -> bytes:
    """Column-store serialisation; ``codec=None`` writes uncompressed parquet."""
    if isinstance(data, pd.DataFrame):
        data = pa.Table.from_pandas(data, preserve_index=False)
    sink = io.BytesIO()
    pq.write_table(data, sink, compression=codec or "none")
    return sink.getvalue()


def compress_bytes(raw: bytes, codec: str) -> bytes:
    return pa.Codec(codec).compress(raw, asbytes=True)


def decompress_bytes(blob: bytes, codec: str, raw_len: int) -> bytes:
    return pa.Codec(codec).decompress(blob, raw_len, asbytes=True)


def encode(pdf: pd.DataFrame, scheme: str) -> tuple[bytes, bytes]:
    """``(blob, raw)``: the bytes ``scheme`` stores for ``pdf`` and the
    uncompressed serialisation of its layout they expand to (CSV bytes or
    uncompressed Parquet; for ``none`` both are the same bytes)."""
    layout, codec = split_scheme(scheme)
    if layout == "csv":
        raw = csv_bytes(pdf)
        return compress_bytes(raw, codec), raw
    table = pa.Table.from_pandas(pdf, preserve_index=False)
    raw = parquet_bytes(table)
    return (parquet_bytes(table, codec) if codec else raw), raw


def _decompress(blob: bytes, scheme: str, raw_bytes: int) -> bytes | pa.Table:
    """The step :func:`measure` times: CSV bytes decompressed, or Parquet
    read into an Arrow table."""
    layout, codec = split_scheme(scheme)
    if layout == "csv":
        return decompress_bytes(blob, codec, raw_bytes)
    return pq.read_table(io.BytesIO(blob))


def decode(blob: bytes, scheme: str, raw_bytes: int) -> pd.DataFrame:
    """The frame that :func:`encode`'s ``blob`` stores; ``raw_bytes`` is the
    length of its ``raw``."""
    out = _decompress(blob, scheme, raw_bytes)
    if isinstance(out, pa.Table):
        return out.to_pandas()
    return pd.read_csv(io.BytesIO(out))


def measure(pdf: pd.DataFrame, scheme: str, *, repeats: int = 3) -> CompressionMeasurement:
    """Measure the ratio and decompression time of ``scheme`` on ``pdf``."""
    blob, raw = encode(pdf, scheme)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        back = _decompress(blob, scheme, len(raw))
        best = min(best, time.perf_counter() - t0)
    if isinstance(back, pa.Table):
        if back.num_rows != len(pdf):  # pragma: no cover - codec bug guard
            raise RuntimeError(f"{scheme} round-trip row-count mismatch")
    elif back != raw:  # pragma: no cover - codec bug guard
        raise RuntimeError(f"{scheme} round-trip mismatch")
    return CompressionMeasurement(scheme, len(raw), len(blob), best)
