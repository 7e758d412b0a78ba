"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import subprocess
import sys
from pathlib import Path

import spans

RUN = Path(__file__).resolve().parent / "run.py"


def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    value, percentile = spans.tail(values)
    assert value == 90.0 and percentile == 90.0
    assert sum(v > value for v in values) == 10


def test_tail_of_a_large_sample_stops_at_the_cap():
    values = [float(v) for v in range(1, 5001)]
    assert spans.tail(values) == (4950.0, 99.0)


def test_tail_of_a_small_sample_is_its_median():
    assert spans.tail([3.0, 1.0, 2.0]) == (2.0, 200.0 / 3.0)
    assert spans.tail([float(v) for v in range(1, 12)]) == (6.0, 600.0 / 11.0)


def test_self_time_and_coverage():
    tr = spans.Tracer(enabled=True)
    tr.spans = [
        ["op", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["a.inner", 2.0, 3.0, 1, 0],
        ["probe", 20.0, 21.0, None, None],
    ]
    assert tr.self_times() == [3.0, 2.0, 4.0, 1.0, 1.0]
    assert tr.coverage("op") == (0.7, 10.0)
    assert tr.durations("probe") == [1.0]
    assert tr.durations("a") == []  # spans inside ops are not probe samples


def test_disabled_tracer_records_nothing():
    tr = spans.Tracer(enabled=False)
    with tr.span("op", op=0):
        assert tr.call("x", lambda v: v + 1, 1) == 2
    tr.count("calls")
    assert tr.spans == [] and tr.counts == {}


def test_smoke_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("smoke ok") == 6
