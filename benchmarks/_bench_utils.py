"""Helpers shared by the table benches."""
from __future__ import annotations

import pathlib


def record(results_dir: pathlib.Path, name: str, paper, ours, extra: str = "") -> None:
    """Persist paper-vs-measured tables to benchmarks/results/<name>.txt."""
    txt = [
        f"=== {name}: paper ===",
        paper.to_string(index=False),
        f"=== {name}: this reproduction ===",
        ours.to_string(index=False),
    ]
    if extra:
        txt.append(extra)
    (results_dir / f"{name}.txt").write_text("\n".join(txt) + "\n")
