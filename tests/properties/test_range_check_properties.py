"""The runtime range checks where damping and rates enter a fixpoint.

The paper's guarantees hold only inside ranges its text fixes: damping
``d`` in the open interval (0, 1) for Equations 4 and 10, and transfer
rates that are finite and non-negative (Section 2), renormalised by
Section 5.2 so every label's outgoing sum stays at most 1 (the last is
``test_scaled_to_convergent_result_always_convergent`` and
``test_structure_result_always_convergent`` in
``test_reformulate_properties.py``).  These checks replace a static proof
that the values are in range; the properties throw arbitrary floats at
every entry point.

"Before any iteration" is checked by handing each entry ``None`` for the
graph, the restarts, the subgraphs and the scores: work past the check
would trip over them with another error, and does when the damping is in
range.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import dblp_transfer_schema
from repro.errors import ParameterError, RateError
from repro.explain import adjust_flows, batched_adjust_flows
from repro.graph.authority import AuthorityTransferSchemaGraph
from repro.ranking.core import rank
from repro.ranking.pagerank import Tolerance
from repro.ranking.topk import TopKStable

#: Every float outside the open unit interval, the non-finite ones included.
OUT_OF_RANGE_DAMPING = st.one_of(
    st.floats(max_value=0.0, allow_nan=False),
    st.floats(min_value=1.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf, -math.inf]),
)

#: Every float that is not a rate: negative, NaN or infinite.
NOT_A_RATE = st.one_of(
    st.floats(max_value=-5e-324, allow_nan=False),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)

STOPS = st.sampled_from([Tolerance(), TopKStable(3)])

#: The three fixpoint entries, each with arguments no work could survive.
ENTRIES = {
    "rank": lambda stop, damping: rank(None, None, stop, damping=damping),
    "adjust_flows": lambda stop, damping: adjust_flows(None, None, damping=damping),
    "batched_adjust_flows": lambda stop, damping: batched_adjust_flows(
        None, None, damping=damping
    ),
}


@pytest.mark.parametrize("entry", ENTRIES)
@given(damping=OUT_OF_RANGE_DAMPING, stop=STOPS)
@settings(max_examples=50, deadline=None)
def test_a_damping_outside_the_unit_interval_is_refused_before_any_iteration(
    entry, damping, stop
):
    with pytest.raises(ParameterError, match="damping"):
        ENTRIES[entry](stop, damping)


@pytest.mark.parametrize("entry", ENTRIES)
def test_an_in_range_damping_reaches_the_work(entry):
    """The control: past the check, the ``None`` arguments are touched."""
    with pytest.raises((AttributeError, TypeError)):
        ENTRIES[entry](Tolerance(), 0.85)


@given(rate=NOT_A_RATE, position=st.integers(0, 7))
@settings(max_examples=50, deadline=None)
def test_a_negative_or_non_finite_rate_is_refused(rate, position):
    schema = dblp_transfer_schema()
    edge_type = schema.edge_types()[position]
    with pytest.raises(RateError):
        AuthorityTransferSchemaGraph(schema.schema, {edge_type: rate})
    with pytest.raises(RateError):
        AuthorityTransferSchemaGraph(schema.schema, default_rate=rate)
    with pytest.raises(RateError):
        schema.with_vector([rate], [edge_type])
    vector = schema.as_vector()
    vector[position] = rate
    with pytest.raises(RateError):
        schema.with_vector(vector)
    assert schema == dblp_transfer_schema()  # refused, never half-applied
