"""The speedometer and the box-speed arithmetic of a measured phase."""

import pytest

from benchmarks.e2e import harness
from benchmarks.e2e.workloads import WORKLOADS


class FakeMeter(harness.Speedometer):
    """Kernel durations from a script instead of the clock."""

    def __init__(self, durations):
        self._durations = iter(durations)
        self._before = self._read()

    def _kernel_seconds(self):
        return next(self._durations)


def test_lap_is_the_reference_over_the_median_of_the_readings_around_it():
    ref = harness.REFERENCE_SECONDS
    meter = FakeMeter([ref, ref, ref, 2 * ref, 2 * ref, 2 * ref, 4 * ref, 4 * ref, 4 * ref])
    assert meter.lap() == pytest.approx(1 / 1.5)  # three at 1x before, three at 2x after
    assert meter.lap() == pytest.approx(1 / 3.0)  # the 2x readings are now "before"


def test_the_real_kernel_reads_a_plausible_speed():
    speed = harness.Speedometer().lap()
    assert 0.05 < speed < 5.0


def test_a_measured_phase_corrects_each_segment_by_its_own_speed(monkeypatch):
    workload = WORKLOADS["serve_cold"]
    seconds = iter([1.0, 3.0])

    def fake_phase(workload, dataset, port, ops, first, duration, cpu_seconds):
        took = next(seconds)
        sample = harness.Sample(first, "primary", took / 10, 200, "live", 100)
        return harness.Phase([sample], 1, took, took / 2, first + 1)

    monkeypatch.setattr(harness, "run_phase", fake_phase)
    ref = harness.REFERENCE_SECONDS
    # Speeds: lap 0 discarded, then 1.0 for the first segment, 0.5 for the second.
    meter = FakeMeter([ref] * 9 + [3 * ref] * 3)

    class Server:
        port = 0
        cpu_seconds = None

    phase = harness.run_measured(workload, "d", Server(), list(range(100)), 1.0, meter)
    assert phase.speeds == [pytest.approx(1.0), pytest.approx(0.5)]
    assert [s.speed for s in phase.samples] == phase.speeds
    assert phase.seconds == pytest.approx(4.0)
    assert phase.reference_seconds == pytest.approx(1.0 * 1.0 + 3.0 * 0.5)
    assert phase.reference_cpu_seconds == pytest.approx(0.5 * 1.0 + 1.5 * 0.5)
    assert phase.next_op == workload.warmup + 2
