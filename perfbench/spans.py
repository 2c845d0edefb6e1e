"""In-memory span recorder for the traced benchmark run.

Timing wrappers are installed from here around the public functions of the
pipeline's layers; nothing inside ``src/`` is traced. A span records its
name, start, end, parent span and the counts taken at that boundary. Spans
stay in memory until the run writes them out at its end.

A wrap target that no longer exists (renamed or deleted) is recorded in
``Tracer.missing`` instead of failing the run, and the metrics that depend
on it read 0.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _moves(args: dict, out) -> dict:
    """Partitions whose (tier, scheme) capacity repair changed."""
    before = args["chosen"].set_index("pid")[["tier", "scheme"]]
    after = out.set_index("pid")[["tier", "scheme"]].reindex(before.index)
    return {"moves": int((before != after).any(axis=1).sum())}


#: (module, attribute path, span name, counts taken from (bound args, result)).
TARGETS = [
    ("repro.core.pipeline", "scope_policy_table", "plan", None),
    ("repro.core.pipeline", "unpartitioned", "pipeline.partitions",
     lambda a, out: {"rows": sum(len(p.sample) for p in out)}),
    ("repro.core.pipeline", "gpart_partitions", "pipeline.partitions",
     lambda a, out: {"rows": sum(len(p.sample) for p in out)}),
    ("repro.core.gpart", "gpart", "gpart",
     lambda a, out: {"families_in": len(a["parts"]), "partitions_out": len(out)}),
    ("repro.storage.codecs", "measure", "codecs.measure",
     lambda a, out: {"layout": a["scheme"].partition("+")[0],
                     "mb": out.raw_bytes / 2**20}),
    ("repro.core.optassign", "candidate_frame_numpy", "optassign.candidates",
     lambda a, out: {"rows": len(out)}),
    ("repro.core.optassign", "repair_capacity", "optassign.repair", _moves),
    ("repro.storage.tiers", "TieredStore.put", "tiers.put",
     lambda a, out: {"mb": out.stored_bytes / 2**20}),
    ("repro.storage.tiers", "TieredStore.get", "tiers.get",
     lambda a, out: {"mb": a["self"].catalog[a["key"]].stored_bytes / 2**20}),
]


class Tracer:
    """Records spans while its wrappers are installed (``with tracer:``)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module, path, name, counts in TARGETS:
            try:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                if f"{module}.{path}" not in self.missing:
                    self.missing.append(f"{module}.{path}")
                continue
            wrapper = self._wrap(original, name, counts)
            self._patch(owner, attr, original, wrapper)
            if not outer:
                # ``from module import fn`` copies the function into other
                # modules; patch those names too so the callers see the span.
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("repro."):
                        for key, value in list(vars(other).items()):
                            if value is original and other is not owner:
                                self._patch(other, key, original, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, original, name, counts):
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(),
                        parent=self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = original(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            if counts is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.attrs = counts(bound.arguments, out)
                except Exception as exc:  # a changed signature loses counts only
                    note = f"{name} counts: {exc!r}"
                    if note not in self.missing:
                        self.missing.append(note)
            return out

        return wrapper

    def to_json(self) -> list[dict]:
        return [vars(s) for s in self.spans]


def layer_metrics(tracer: Tracer, offset: int) -> dict[str, float]:
    """Per-layer metrics from the spans recorded since index ``offset``."""
    spans = tracer.spans[offset:]
    # Self time: a span's duration minus the time its direct children cover.
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None and s.parent >= offset:
            own[s.parent - offset] -= s.duration

    def pick(name, **attrs):
        return [s for s in spans if s.name == name
                and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def total(name, attr=None, **attrs):
        return float(sum(s.attrs.get(attr, 0) if attr else s.duration
                         for s in pick(name, **attrs)))

    return {
        "gpart.s": total("gpart"),
        "gpart.families_in": total("gpart", "families_in"),
        "gpart.partitions_out": total("gpart", "partitions_out"),
        "pipeline.partitions_s": float(sum(
            t for s, t in zip(spans, own) if s.name == "pipeline.partitions")),
        "pipeline.sample_rows": total("pipeline.partitions", "rows"),
        "codecs.measure_calls": float(len(pick("codecs.measure"))),
        "codecs.measure_s": total("codecs.measure"),
        "codecs.csv_measure_s": total("codecs.measure", layout="csv"),
        "codecs.parquet_measure_s": total("codecs.measure", layout="parquet"),
        "codecs.measured_mb": total("codecs.measure", "mb"),
        "optassign.candidates_s": total("optassign.candidates"),
        "optassign.candidate_rows": total("optassign.candidates", "rows"),
        "optassign.repair_calls": float(len(pick("optassign.repair"))),
        "optassign.repair_s": total("optassign.repair"),
        "optassign.repair_moves": total("optassign.repair", "moves"),
        "tiers.put_calls": float(len(pick("tiers.put"))),
        "tiers.put_s": total("tiers.put"),
        "tiers.mb_written": total("tiers.put", "mb"),
        "tiers.get_calls": float(len(pick("tiers.get"))),
        "tiers.get_s": total("tiers.get"),
        "tiers.mb_read": total("tiers.get", "mb"),
    }
