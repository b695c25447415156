"""The host-speed correction: which time is charged where, and how it is rescaled."""

from __future__ import annotations

import gc

import pytest

import timeline


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_marks_charge_intervals_to_phases_and_leave_probes_out():
    clock = FakeClock()
    probes = iter([0.25, 0.5, 0.25, 0.75])

    def reference() -> float:
        seconds = next(probes)
        clock.advance(seconds)
        return seconds

    line = timeline.Timeline(launched=0.0, clock=clock, reference=reference)
    clock.advance(1.0)
    line.mark("setup")
    clock.advance(0.5)
    line.mark(None)  # a gap that is not measured
    clock.advance(2.0)
    line.mark("pass0")
    clock.advance(3.0)
    line.mark("pass0")

    assert line.segments == [
        ["setup", 1.0, None, 0.25],
        ["pass0", 2.0, 0.5, 0.25],
        ["pass0", 3.0, 0.25, 0.75],
    ]
    assert line.seconds("setup") == 1.0
    assert line.seconds("pass0") == 5.0


def test_corrected_rescales_each_interval_to_the_reference_probe_time():
    ref = timeline.REFERENCE_S
    segments = [
        ["setup", 1.0, None, 2 * ref],  # only a probe after: twice the reference
        ["pass0", 2.0, ref, ref],  # at reference speed
        ["pass0", 3.0, ref, 3 * ref],  # probes average twice the reference
        ["pass1", 4.0, 3 * ref, ref],
    ]

    assert timeline.probes(segments) == [2 * ref, ref, ref, ref, 3 * ref, 3 * ref, ref]
    assert timeline.corrected(segments, "setup") == pytest.approx(0.5)
    assert timeline.corrected(segments, "pass0") == pytest.approx(2.0 + 1.5)
    assert timeline.corrected(segments, "pass1") == pytest.approx(2.0)
    assert timeline.corrected(segments, "pass2") == 0.0


def test_probe_runs_with_the_collector_off_and_restores_it():
    assert gc.isenabled()
    assert timeline.probe(1000) > 0
    assert gc.isenabled()
