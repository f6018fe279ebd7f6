"""The one float sum of the paper's loop: a plain left fold on every Python."""

import functools
import operator

import numpy as np
import pytest

from repro.fold import left_sum

#: Neumaier-compensated summation (builtin ``sum`` from Python 3.12 on)
#: gives 2.0 here; a plain left fold loses both 1.0s to the 1e100.
CANCELLING = [1.0, 1e100, 1.0, -1e100]


@pytest.mark.parametrize(
    "values", [CANCELLING, [0.1] * 10, [1e308, 1e308, -1e308], [-0.0], [3.5]]
)
def test_left_sum_is_the_left_fold(values):
    expected = functools.reduce(operator.add, values)
    for given in (values, iter(values), np.asarray(values)):
        total = left_sum(given)
        assert np.array_equal(np.float64(total), expected, equal_nan=True)
        assert np.signbit(total) == np.signbit(expected)


def test_the_cancelling_input_tells_the_folds_apart():
    assert left_sum(CANCELLING) == 0.0
    assert left_sum(np.asarray(CANCELLING)) == 0.0


def test_no_values_sum_to_zero():
    assert left_sum([]) == 0.0
    assert left_sum(np.zeros(0)) == 0.0


def test_a_stack_folds_each_column_down_its_rows():
    stack = np.asarray([CANCELLING, [2.0] * 4, [-1e100, 1.0, 1e100, 1.0]]).T
    columns = left_sum(stack)
    assert columns.tolist() == [
        functools.reduce(operator.add, column) for column in stack.T.tolist()
    ]


def test_the_figure_metrics_fold_left():
    """Fig. 11's cosine and Fig. 10/12's mean precision add with
    :func:`left_sum`: on the cancelling input a compensated sum would give
    a positive cosine (a dot product of 2.0) and a mean of 0.5."""
    from repro.feedback.metrics import cosine_similarity
    from repro.feedback.survey import SessionTrace, average_precision_curve

    assert cosine_similarity(CANCELLING, [1.0] * 4) == 0.0
    traces = [SessionTrace("q", precisions=[value]) for value in CANCELLING]
    assert average_precision_curve(traces) == [0.0]
