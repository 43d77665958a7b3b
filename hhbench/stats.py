"""Metric arithmetic for the benchmark: medians, span self time, rates.

Pure functions with no I/O, shared by the runner and the tracer, and
tested on synthetic data in tests/test_stats.py.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import NamedTuple, Optional


class Span(NamedTuple):
    """One call into a layer entry point, recorded by the tracer.

    start/end bracket the real call only.  overhead is the tracer's own
    bookkeeping done inside the caller's interval (counting rows, checking
    cache identity); it belongs to no layer, so it is removed from the
    parent's self time and ends up in unattributed time.
    """

    sid: int
    parent: Optional[int]
    layer: str
    start: float
    end: float
    overhead: float = 0.0
    char: Optional[int] = None   # field characteristic, exactla spans only


def median_n(values) -> tuple[float, int]:
    """Median of the samples together with the sample count."""
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values), len(values)


def job_median(samples) -> tuple[float, int, int]:
    """Median over jobs of each job's median time over the run's passes.

    samples are (job id, seconds) pairs.  Jobs of one workload differ in
    size, so a plain median of all samples falls between two job kinds and
    takes the noise of the single samples there; each job's own median
    first averages that out.  Returns (value, jobs, samples).
    """
    by_job: dict[str, list[float]] = defaultdict(list)
    for job_id, seconds in samples:
        by_job[job_id].append(seconds)
    value, n_jobs = median_n(statistics.median(v) for v in by_job.values())
    return value, n_jobs, sum(len(v) for v in by_job.values())


def error_rate(attempted: int, failed: int) -> float:
    """Failed jobs over attempted jobs; a job that never ran still counts."""
    if attempted < 1:
        raise ValueError("no job attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed=%d outside 0..attempted=%d" % (failed, attempted))
    return failed / attempted


def layer_totals(spans) -> dict[str, float]:
    """Self time per layer and entries per layer from a span list.

    Self time is a span's duration minus the time its direct children
    took (their duration plus the tracer overhead spent around them).
    A call counts towards <layer>.calls when the layer is entered from
    outside: its parent belongs to another layer, or it has none.
    Exact-elimination self time is also split by field, Q versus F_p.
    """
    spans = list(spans)
    by_id = {s.sid: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += (s.end - s.start) + s.overhead
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        own = (s.end - s.start) - child_time[s.sid]
        out[s.layer + ".self_s"] += own
        if s.char is not None:
            out[s.layer + (".self_s.qq" if s.char == 0 else ".self_s.fp")] += own
        parent = by_id.get(s.parent)
        if parent is None or parent.layer != s.layer:
            out[s.layer + ".calls"] += 1
    return dict(out)


# raw counters that combine by maximum rather than by sum
MAX_KEYS = frozenset({"exactla.max_coeff_bits"})


def merge_raw(dicts) -> dict[str, float]:
    """Combine raw per-job trace counters into per-pass counters."""
    out: dict[str, float] = defaultdict(float)
    for d in dicts:
        for k, v in d.items():
            out[k] = max(out[k], v) if k in MAX_KEYS else out[k] + v
    return dict(out)


def derive_layer_metrics(raw: dict[str, float], pass_s: float,
                         scale: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its merged raw counters.

    unattributed.self_s is the pass time that no layer span covers:
    interpreter start, imports and exit for cold jobs, the benchmark's own
    driving code, and the tracer's bookkeeping.  Every time is multiplied
    by scale, the pass's reference-speed factor (see clock.py).
    """
    out = {k: v * scale if ".self_s" in k else v for k, v in raw.items()
           if k not in ("pathalg.hits", "pathalg.lookups")}
    layer_self = sum(v for k, v in raw.items() if k.endswith(".self_s"))
    out["unattributed.self_s"] = (pass_s - layer_self) * scale
    lookups = raw.get("pathalg.lookups", 0)
    out["pathalg.cache_hit_ratio"] = raw.get("pathalg.hits", 0) / lookups if lookups else 0.0
    rows = raw.get("exactla.rows_in", 0)
    out["exactla.rank_per_row"] = raw.get("exactla.rank", 0) / rows if rows else 0.0
    return out
