"""Unit tests for stage timing helpers."""

import pytest

from repro.core.timing import STAGE_SEARCH, STAGE_SUBGRAPH, StageClock


class TestStageClock:
    def test_accumulates(self):
        clock = StageClock()
        with clock.stage(STAGE_SEARCH):
            pass
        once = clock.total(STAGE_SEARCH)
        with clock.stage(STAGE_SEARCH):
            pass
        assert clock.total(STAGE_SEARCH) > once > 0

    def test_missing_stage_reads_zero(self):
        clock = StageClock()
        assert clock.total(STAGE_SUBGRAPH) == 0.0

    def test_records_even_on_exception(self):
        clock = StageClock()
        with pytest.raises(RuntimeError):
            with clock.stage(STAGE_SEARCH):
                raise RuntimeError("boom")
        assert STAGE_SEARCH in clock.totals
