"""Per-layer figures derived from the spans trace_job.py writes.

A span's self time is its duration minus the durations of its child spans;
children are the spans recorded on the same thread while it was open, so a
check that ``verify --jobs 2`` runs on a pool thread is never subtracted from
the span of the thread that submitted it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

# Per-layer metric suffixes that name the work count recorded with each span.
WORK_FIELDS = {"term_pairs", "quotient_terms", "terms", "edges"}

CHECK_SPANS = (
    "verify.theorem",
    "verify.diamonds",
    "verify.condensation",
    "verify.centerone",
    "verify.excision",
    "verify.folding",
)


def job_totals(path: Path) -> dict[str, float]:
    """Additive totals for one traced job: <span>.calls/.self_s/.s/.work, plus
    laurent.pow.muls (multiplications made inside ``__pow__``)."""
    payload = json.loads(path.read_text())
    names = payload["names"]
    totals: dict[str, float] = defaultdict(float)
    for _thread, spans in payload["threads"]:
        child_ns = [0] * len(spans)
        for code, start, end, parent, _work in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for index, (code, start, end, parent, work) in enumerate(spans):
            name = names[code]
            totals[f"{name}.calls"] += 1
            totals[f"{name}.s"] += (end - start) / 1e9
            totals[f"{name}.self_s"] += (end - start - child_ns[index]) / 1e9
            totals[f"{name}.work"] += work
            if name == "laurent.mul" and parent >= 0 and names[spans[parent][0]] == "laurent.pow":
                totals["laurent.pow.muls"] += 1
    return totals


def layer_value(metric: str, totals: dict[str, float]) -> float:
    """The value of a per-layer metric named in BENCHMARK.json, from one pass's totals."""
    if metric == "verify.run_checks.parallel_ratio":
        wall = totals.get("verify.run_checks.s", 0.0)
        busy = sum(totals.get(f"{name}.s", 0.0) for name in CHECK_SPANS)
        return busy / wall if wall else 0.0
    layer, field = metric.rsplit(".", 1)
    if field in WORK_FIELDS:
        field = "work"
    return totals.get(f"{layer}.{field}", 0.0)
