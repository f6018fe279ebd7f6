"""Percentiles, quartile spreads, compare verdicts and the mode-boundary guard."""

from __future__ import annotations

import statistics

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)


class DesignError(Exception):
    """A workload's measured mix left the shape it was designed to have."""


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (the serve tier's own convention)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(pct / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


def supported_tail(count: int) -> float:
    """The highest ladder percentile with >= MIN_BEYOND samples beyond it.

    Falls back to the median when even p90 is unsupported (fewer than 100
    samples): a "p99" of thirty points is just the maximum under a false name.
    """
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER[1:]:
        # In per-mille integers: 100 * (1 - 0.9) is 9.999... in floats.
        if count * (1000 - round(pct * 10)) >= MIN_BEYOND * 1000:
            best = pct
    return best


def summarize(values: list[float]) -> dict:
    """Median, quartiles and the quartile spread as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"n": len(values), "median": median, "q1": median, "q3": median, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "spread": spread}


def worsening(parent: float, change: float, better: str) -> float:
    """By what share of the parent's median the change is worse (<0: better)."""
    if not parent:
        return 0.0
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """``ok``, ``regressed`` or ``unresolved`` for one (metric, workload).

    A median worse by more than the bound is a regression.  Otherwise, when
    either side's own run-to-run spread exceeds the bound the pair cannot be
    called unchanged — unless every run of the change beats every run of the
    parent.
    """
    a, b = summarize(parent), summarize(change)
    if worsening(a["median"], b["median"], better) > bound:
        return "regressed"
    if max(a["spread"], b["spread"]) > bound:
        dominates = (
            max(change) < min(parent) if better == "lower" else min(change) > max(parent)
        )
        return "ok" if dominates else "unresolved"
    return "ok"


def check_mode_boundaries(
    fast_share: float, percentiles: tuple[float, ...] = (50.0, 90.0), margin: float = 10.0
) -> None:
    """Reported percentiles must sit ``margin`` points inside one latency mode.

    ``fast_share`` is the share of ops in the fast mode (cache hits, selective
    queries).  A percentile within ``margin`` points of that boundary flips
    between modes on noise, so its run-to-run spread is the gap between the
    modes, not a property of the code.
    """
    boundary = fast_share * 100.0
    for pct in percentiles:
        if abs(pct - boundary) < margin:
            raise DesignError(
                f"p{pct:g} sits {abs(pct - boundary):.1f} points from the mode "
                f"boundary at {boundary:.1f}% (need {margin:g})"
            )
