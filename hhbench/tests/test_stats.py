"""Metric arithmetic on synthetic data."""

import math
from time import perf_counter

import pytest

import clock
import run
import stats
from stats import Span


def _close(got: dict, want: dict):
    for key, value in want.items():
        assert math.isclose(got[key], value, abs_tol=1e-12), (key, got.get(key), value)


def test_nested_span_self_time_and_calls():
    spans = [
        Span(2, 1, "exactla", 2.0, 5.0, overhead=0.25, char=0),
        Span(3, 1, "exactla", 5.2, 5.8, char=3),
        Span(1, 0, "preproj", 1.0, 6.0, overhead=0.5),
        Span(5, 4, "pathalg", 7.5, 8.0),
        Span(4, 0, "pathalg", 7.0, 9.0),
        Span(0, None, "cli", 0.0, 10.0),
    ]
    totals = stats.layer_totals(spans)
    _close(totals, {
        "cli.self_s": 10.0 - (5.0 + 0.5) - 2.0,
        "preproj.self_s": 5.0 - (3.0 + 0.25) - 0.6,
        "exactla.self_s": 3.6, "exactla.self_s.qq": 3.0, "exactla.self_s.fp": 0.6,
        "pathalg.self_s": 2.0,
        # a layer entered from outside counts once; re-entry from itself does not
        "cli.calls": 1, "preproj.calls": 1, "exactla.calls": 2, "pathalg.calls": 1,
    })
    derived = stats.derive_layer_metrics(totals, pass_s=10.5)
    # the tracer's 0.75 s of bookkeeping and the 0.5 s outside the root span
    _close(derived, {"unattributed.self_s": 1.25})
    halved = stats.derive_layer_metrics(totals, pass_s=10.5, scale=0.5)
    _close(halved, {"unattributed.self_s": 0.625, "exactla.self_s.qq": 1.5, "exactla.calls": 2})


def test_derived_ratios_and_merge():
    merged = stats.merge_raw([
        {"exactla.rows_in": 10, "exactla.rank": 4, "exactla.max_coeff_bits": 7,
         "pathalg.lookups": 3, "pathalg.hits": 1},
        {"exactla.rows_in": 30, "exactla.rank": 6, "exactla.max_coeff_bits": 5,
         "pathalg.lookups": 1, "pathalg.hits": 1},
    ])
    assert merged["exactla.max_coeff_bits"] == 7
    derived = stats.derive_layer_metrics(merged, pass_s=1.0)
    _close(derived, {"exactla.rank_per_row": 10 / 40, "pathalg.cache_hit_ratio": 2 / 4})
    assert "pathalg.hits" not in derived
    assert stats.derive_layer_metrics({}, 1.0)["pathalg.cache_hit_ratio"] == 0.0


def test_median_reports_its_sample_count():
    assert stats.median_n([3.0, 1.0, 2.0]) == (2.0, 3)
    assert stats.median_n(x for x in [4.0, 1.0, 2.0, 3.0]) == (2.5, 4)
    with pytest.raises(ValueError):
        stats.median_n([])


def test_job_median_takes_each_jobs_median_first():
    samples = [("small", 1.0), ("small", 1.2), ("big", 4.0), ("big", 3.0), ("big", 9.0),
               ("mid", 2.0), ("mid", 2.2)]
    # job medians 1.1, 4.0, 2.1; a plain median of the samples would read 2.2
    assert stats.job_median(samples) == (2.1, 3, 7)


def test_error_rate_denominator():
    assert stats.error_rate(8, 0) == 0.0
    assert stats.error_rate(8, 2) == 0.25
    with pytest.raises(ValueError):
        stats.error_rate(0, 0)
    with pytest.raises(ValueError):
        stats.error_rate(2, 3)


def test_jobs_not_started_still_count_as_attempted_and_failed():
    jobs = [{"id": "a", "argv": []}, {"id": "b", "argv": []}]
    past = perf_counter() - 1.0
    recs = run.run_cold_pass(jobs, {}, {}, past, "unused", traced=False, speed=None)["jobs"]
    assert [r["id"] for r in recs] == ["a", "b"]
    assert all(r["problems"] and r["cells"] == 0 for r in recs)
    assert stats.error_rate(len(recs), sum(1 for r in recs if r["problems"])) == 1.0


def test_speed_scale_uses_the_loops_around_each_job(monkeypatch):
    loops = iter([120e-9, 120e-9, 40e-9])    # creation, after job 1, after job 2
    monkeypatch.setattr(clock, "_loop_s_per_iter", lambda iters: next(loops))
    speed = clock.SpeedScale(10)
    # half the nominal speed around job 1, then the mean of 120 and 40 ns
    assert math.isclose(speed.scale(2.0), 2.0 * clock.NOMINAL_S_PER_ITER / 120e-9)
    assert math.isclose(speed.scale(1.0), clock.NOMINAL_S_PER_ITER / 80e-9)


def test_call_speeds_average_the_loops_on_each_side(monkeypatch):
    loops = iter([60e-9, 120e-9, 60e-9, 120e-9] + [60e-9] * 10)
    monkeypatch.setattr(clock, "_loop_s_per_iter", lambda iters: next(loops))
    monkeypatch.setattr(clock, "CALL_WINDOW", 1)
    calls = clock.CallSpeeds()
    for seconds in (1.0, 2.0, 3.0):
        calls.add(seconds)
    # each call is scaled by the loops right before and right after it
    want = [1.0 * 60 / 90, 2.0 * 60 / 90, 3.0 * 60 / 90]
    assert all(math.isclose(a, b) for a, b in zip(calls.scaled(), want))
