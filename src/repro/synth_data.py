"""Synthetic OLAP data at a configurable scale factor, as pandas frames.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
benchmarks use SF~=0.1. Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input. A test or job that needs a Spark
DataFrame passes a generator's frame to ``spark.createDataFrame``.

The ``*_pdf`` generators (the compression substrate measures bytes on
pandas frames) provide:

- TPC-H-lite tables (``TPCH_PDF``) with text/comment columns sampled from
  a Zipf-weighted vocabulary so codecs see realistic repetition
  (compression-ratio signal for COMPREDICT);
- a Zipf-skewed TPC-H variant (``skew`` parameter; the paper's "TPC-H Skew"
  uses skew factor ~3 on the value distributions);
- a ``supplier`` table (completing the paper's "8 tables" to the extent the
  lite schema needs) and 3 enterprise event-log-style tables standing in
  for the private "Enterprise Data II" (substitution documented in
  DESIGN.md).
"""
import numpy as np
import pandas as pd

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# TPC-H-lite generators: text columns, skew, supplier.
# ---------------------------------------------------------------------------
_VOCAB = [
    "carefully", "final", "deposits", "sleep", "furiously", "regular",
    "accounts", "ironic", "requests", "pending", "theodolites", "quickly",
    "bold", "packages", "express", "instructions", "foxes", "unusual",
    "platelets", "silent", "blithely", "even", "asymptotes", "special",
    "pinto", "beans", "warhorse", "slyly", "daring", "excuses",
]


def _words(g: np.random.Generator, n: int, *, k: int = 5, skew: float = 1.2) -> np.ndarray:
    """n pseudo-comments of ~k Zipf-weighted vocabulary words each."""
    ranks = np.arange(1, len(_VOCAB) + 1)
    w = 1.0 / ranks**skew
    w /= w.sum()
    picks = g.choice(len(_VOCAB), size=(n, k), p=w)
    vocab = np.array(_VOCAB)
    return np.array([" ".join(vocab[row]) for row in picks])


def _int_col(g: np.random.Generator, n: int, lo: int, hi: int, skew: float | None) -> np.ndarray:
    """Uniform or Zipf-skewed integer column in [lo, hi]."""
    if not skew:
        return g.integers(lo, hi + 1, n)
    ranks = np.arange(1, hi - lo + 2)
    w = 1.0 / ranks.astype(float) ** skew
    w /= w.sum()
    return lo + g.choice(hi - lo + 1, size=n, p=w)


def lineitem_pdf(*, sf: float = 0.01, seed: int = 0, skew: float | None = None) -> pd.DataFrame:
    """TPC-H-lite lineitem as pandas, with text columns and optional skew."""
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    n_supp = max(1, int(_N_SUPPLIER_PER_SF * sf))
    g = _rng(seed)
    mode_w = None
    if skew:
        mode_w = 1.0 / np.arange(1, 8.0) ** skew
        mode_w /= mode_w.sum()
    return pd.DataFrame(
        {
            "l_orderkey": _int_col(g, n, 1, n_orders, skew),
            "l_partkey": _int_col(g, n, 1, n_part, skew),
            "l_suppkey": _int_col(g, n, 1, n_supp, skew),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": _int_col(g, n, 1, 50, skew).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
            "l_shipmode": g.choice(
                ["AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"], n,
                p=mode_w,
            ),
            "l_comment": _words(g, n, k=4),
        }
    ).sort_values("l_shipdate", ignore_index=True)


def orders_pdf(*, sf: float = 0.01, seed: int = 1, skew: float | None = None) -> pd.DataFrame:
    n = max(1, int(_N_ORDERS_PER_SF * sf))
    n_cust = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": _int_col(g, n, 1, n_cust, skew),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2406, n), unit="D"),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
            "o_comment": _words(g, n, k=6),
        }
    ).sort_values("o_orderdate", ignore_index=True)


def customer_pdf(*, sf: float = 0.01, seed: int = 2, skew: float | None = None) -> pd.DataFrame:
    n = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "c_custkey": np.arange(1, n + 1),
            "c_nationkey": _int_col(g, n, 0, 24, skew),
            "c_acctbal": (g.random(n) * 10000 - 1000).round(2),
            "c_mktsegment": g.choice(
                ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"], n
            ),
            "c_comment": _words(g, n, k=8),
        }
    )


def part_pdf(*, sf: float = 0.01, seed: int = 5, skew: float | None = None) -> pd.DataFrame:
    n = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "p_partkey": np.arange(1, n + 1),
            "p_type": g.choice(
                ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"], n
            ),
            "p_brand": g.choice(
                [f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)], n
            ),
            "p_size": _int_col(g, n, 1, 50, skew),
            "p_retailprice": (900 + (np.arange(1, n + 1) % 1000) / 10.0).round(2),
            "p_comment": _words(g, n, k=3),
        }
    )


_N_SUPPLIER_PER_SF = 10_000


def supplier_pdf(*, sf: float = 0.01, seed: int = 6, skew: float | None = None) -> pd.DataFrame:
    n = max(1, int(_N_SUPPLIER_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "s_suppkey": np.arange(1, n + 1),
            "s_nationkey": _int_col(g, n, 0, 24, skew),
            "s_acctbal": (g.random(n) * 11000 - 1000).round(2),
            "s_comment": _words(g, n, k=7),
        }
    )


#: Generators of the TPC-H-lite schema, keyed by table name. ``sort_col`` is
#: the natural clustering column used for file splitting / min-max pruning.
TPCH_PDF = {
    "lineitem": lineitem_pdf,
    "orders": orders_pdf,
    "customer": customer_pdf,
    "part": part_pdf,
    "supplier": supplier_pdf,
}
TPCH_SORT_COL = {
    "lineitem": "l_shipdate",
    "orders": "o_orderdate",
    "customer": "c_custkey",
    "part": "p_partkey",
    "supplier": "s_suppkey",
}


# ---------------------------------------------------------------------------
# Enterprise Data II stand-in: 3 event-log-style tables (~0.5 GB each at the
# paper's logical scale; physically generated at small sf).
# ---------------------------------------------------------------------------
def enterprise_events_pdf(*, sf: float = 0.01, seed: int = 10) -> pd.DataFrame:
    n = max(1, int(4_000_000 * sf))
    g = _rng(seed)
    users = max(1, int(50_000 * sf))
    return pd.DataFrame(
        {
            "user_id": _int_col(g, n, 1, users, 1.3),
            "event_type": g.choice(
                ["view", "click", "purchase", "login", "share"], n,
                p=[0.6, 0.25, 0.05, 0.07, 0.03],
            ),
            "ts": pd.to_datetime("2021-01-01")
            + pd.to_timedelta(g.integers(0, 365 * 24 * 3600, n), unit="s"),
            "url": _words(g, n, k=2),
            "value": (g.random(n) * 100).round(3),
        }
    ).sort_values("ts", ignore_index=True)


def enterprise_profiles_pdf(*, sf: float = 0.01, seed: int = 11) -> pd.DataFrame:
    n = max(1, int(500_000 * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "user_id": np.arange(1, n + 1),
            "segment": g.choice(["free", "trial", "pro", "enterprise"], n),
            "signup": pd.to_datetime("2018-01-01")
            + pd.to_timedelta(g.integers(0, 1400, n), unit="D"),
            "ltv": (g.lognormal(3, 1, n)).round(2),
            "bio": _words(g, n, k=10),
        }
    )


def enterprise_transactions_pdf(*, sf: float = 0.01, seed: int = 12) -> pd.DataFrame:
    n = max(1, int(1_500_000 * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "txn_id": np.arange(1, n + 1),
            "user_id": _int_col(g, n, 1, max(1, int(50_000 * sf)), 1.5),
            "amount": (g.lognormal(2.5, 1.2, n)).round(2),
            "currency": g.choice(["USD", "EUR", "INR", "GBP"], n, p=[0.6, 0.2, 0.15, 0.05]),
            "ts": pd.to_datetime("2021-01-01")
            + pd.to_timedelta(g.integers(0, 365 * 24 * 3600, n), unit="s"),
        }
    ).sort_values("ts", ignore_index=True)


ENTERPRISE_PDF = {
    "events": enterprise_events_pdf,
    "profiles": enterprise_profiles_pdf,
    "transactions": enterprise_transactions_pdf,
}
ENTERPRISE_SORT_COL = {"events": "ts", "profiles": "user_id", "transactions": "ts"}
