"""Percentile rules, quartile spreads, compare verdicts, mode-boundary guard."""

import pytest

from benchmarks.e2e import stats


def test_percentile_is_nearest_rank():
    values = list(range(1, 102))  # 1..101
    assert stats.percentile(values, 50) == 51
    assert stats.percentile(values, 90) == 91
    assert stats.percentile(values, 100) == 101
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(
    "count, expected",
    [
        (30, 50.0),     # p90 would have 3 samples beyond it
        (99, 50.0),     # 9.9 beyond p90: still one short
        (100, 90.0),    # exactly 10 beyond p90
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (10_000, 99.9),
    ],
)
def test_tail_needs_ten_samples_beyond(count, expected):
    assert stats.supported_tail(count) == expected


def test_summarize_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    summary = stats.summarize(values)
    assert summary["median"] == 14.5
    assert summary["q1"] == 11.75 and summary["q3"] == 17.25
    assert summary["spread"] == pytest.approx(5.5 / 14.5)
    assert stats.summarize([3.0])["spread"] == 0.0


def test_worsening_respects_direction():
    assert stats.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert stats.worsening(100.0, 90.0, "higher") == pytest.approx(0.10)


def test_verdict_regressed_ok_unresolved():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert stats.verdict(steady, [v * 1.04 for v in steady], "lower", 0.10) == "ok"
    assert stats.verdict(steady, [v * 1.2 for v in steady], "lower", 0.10) == "regressed"
    assert stats.verdict(steady, [v * 0.8 for v in steady], "higher", 0.10) == "regressed"
    # Same median, but the change's own spread exceeds the bound.
    noisy = [60.0, 80.0, 100.0, 120.0, 140.0]
    assert stats.verdict(steady, noisy, "lower", 0.10) == "unresolved"
    # ... unless every run of the change beats every run of the parent.
    assert stats.verdict(steady, [v / 2 for v in noisy], "lower", 0.10) == "ok"


def test_mode_boundary_guard():
    stats.check_mode_boundaries(0.75)  # p50 25 points inside, p90 15 points
    stats.check_mode_boundaries(0.70)
    with pytest.raises(stats.DesignError):
        stats.check_mode_boundaries(0.50)  # the median flips modes on noise
    with pytest.raises(stats.DesignError):
        stats.check_mode_boundaries(0.85)  # p90 within 10 points of the edge
