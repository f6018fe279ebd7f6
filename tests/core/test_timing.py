"""Unit tests for stage timing helpers."""

import pytest

from repro.core.timing import (
    ALL_STAGES,
    STAGE_SEARCH,
    STAGE_SUBGRAPH,
    IterationTiming,
    StageClock,
)


class TestStageClock:
    def test_accumulates(self):
        clock = StageClock()
        with clock.stage(STAGE_SEARCH):
            pass
        with clock.stage(STAGE_SEARCH):
            pass
        assert clock.counts[STAGE_SEARCH] == 2
        assert clock.total(STAGE_SEARCH) > 0

    def test_missing_stage_reads_zero(self):
        clock = StageClock()
        assert clock.total(STAGE_SUBGRAPH) == 0.0

    def test_snapshot_covers_all_stages(self):
        clock = StageClock()
        with clock.stage(STAGE_SEARCH):
            pass
        snapshot = clock.snapshot()
        assert set(snapshot) == set(ALL_STAGES)

    def test_records_even_on_exception(self):
        clock = StageClock()
        with pytest.raises(RuntimeError):
            with clock.stage(STAGE_SEARCH):
                raise RuntimeError("boom")
        assert clock.counts[STAGE_SEARCH] == 1

    def test_reset(self):
        clock = StageClock()
        with clock.stage(STAGE_SEARCH):
            pass
        clock.reset()
        assert clock.totals == {}


class TestIterationTiming:
    def test_total(self):
        timing = IterationTiming("x", 1.0, 0.5, 0.25, 0.25, 7)
        assert timing.total_seconds == 2.0
        assert timing.objectrank_iterations == 7
