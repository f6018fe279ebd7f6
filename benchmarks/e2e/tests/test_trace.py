"""Span bookkeeping and self-time arithmetic."""

import pytest

from benchmarks.e2e.trace import Recorder, Span, coverage_and_overhead, self_times


def _span(id, name, start, end, parent=None, op=None, **attrs):
    return Span(id=id, name=name, parent=parent, op=op, start=start, end=end, attrs=attrs)


def test_self_time_subtracts_the_interval_children_cover():
    spans = [
        _span(0, "op", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "b", 3.0, 6.0, parent=0),    # overlaps a: union is [1, 6]
        _span(3, "c", 9.0, 12.0, parent=0),   # clipped to the parent: [9, 10]
        _span(4, "a.inner", 1.5, 2.5, parent=1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_recorder_links_parents_and_inherits_op_ids():
    recorder = Recorder()
    with recorder.span("op", op=7, kind="live") as root:
        with recorder.span("ranking.objectrank2") as child:
            child.attrs["iterations"] = 17
    with recorder.span("probe"):
        pass
    assert root.parent is None and child.parent == root.id
    assert child.op == 7 and root.attrs == {"kind": "live"}
    assert recorder.spans[2].op is None
    assert root.start <= child.start <= child.end <= root.end


def test_coverage_is_a_median_of_per_op_ratios():
    spans = []
    for op, composite in enumerate((1.0, 1.0, 10.0)):  # one cold outlier
        base = op * 100.0
        spans += [
            _span(len(spans), "serve.search", base, base + composite, op=op, decomposed=True),
            _span(len(spans) + 1, "op", base + 20, base + 21, op=op),
            _span(len(spans) + 2, "store.rank", base + 20.1, base + 20.9,
                  parent=len(spans) + 1, op=op),
        ]
    # An undecomposed cache hit must not count.
    spans.append(_span(len(spans), "serve.search", 950, 951, op=10))
    coverage, overhead, ops = coverage_and_overhead(spans)
    assert ops == 3
    assert coverage == pytest.approx(0.8)
    assert overhead == pytest.approx(0.2)


def test_coverage_counts_a_layers_own_accounting():
    spans = [_span(0, "serve.ingest", 0.0, 2.0, op=0, decomposed=True, layer_seconds=1.5)]
    assert coverage_and_overhead(spans) == (pytest.approx(0.75), 0.0, 1)
