"""Property-based tests for the interprocedural analysis layer.

Two load-bearing guarantees of ``repro_lint``'s call graph and summary
engine, exercised over *randomly generated call topologies* (arbitrary
cycles, self-recursion, mutual recursion across SCC boundaries):

* construction terminates and is **total** — every generated ``def`` gets a
  node, every resolvable call site an edge, and the SCC decomposition is a
  permutation of the function set;
* the summary fixpoint **converges** in a small number of rounds and
  computes exactly graph reachability for the may-facts: a function may
  block iff it reaches a sleeper, acquires a lock transitively iff it
  reaches an acquirer — compared against an independent reachability
  computation in the test.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro_lint import SourceFile
from repro_lint.callgraph import Project
from repro_lint.summaries import MAX_SCC_ROUNDS, compute_summaries


@st.composite
def call_topologies(draw, max_functions: int = 8):
    """Random function set with arbitrary call edges and blocking marks."""
    count = draw(st.integers(2, max_functions))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, count - 1), st.integers(0, count - 1)
            ),
            max_size=2 * count,
        )
    )
    sleepers = draw(st.sets(st.integers(0, count - 1), max_size=count))
    raisers = draw(st.sets(st.integers(0, count - 1), max_size=count))
    return count, sorted(set(edges)), sleepers, raisers


def render_module(count, edges, sleepers, raisers) -> str:
    calls: dict[int, list[int]] = {}
    for caller, callee in edges:
        calls.setdefault(caller, []).append(callee)
    lines = ["import time", ""]
    for index in range(count):
        lines.append(f"def f{index}():")
        body = []
        if index in sleepers:
            body.append("    time.sleep(0.01)")
        if index in raisers:
            body.append(f"    raise ValueError('e{index}')")
        body.extend(f"    f{callee}()" for callee in calls.get(index, []))
        body.append("    return None")
        lines.extend(body)
        lines.append("")
    return "\n".join(lines)


def reachable(start: int, edges, count) -> set:
    adjacency: dict[int, set] = {}
    for caller, callee in edges:
        adjacency.setdefault(caller, set()).add(callee)
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


class TestCallGraphTotality:
    @given(call_topologies())
    @settings(max_examples=60, deadline=None)
    def test_every_def_has_a_node_and_sccs_partition_them(self, topology):
        count, edges, sleepers, raisers = topology
        text = render_module(count, edges, sleepers, raisers)
        project = Project([SourceFile.parse("src/repro/gen.py", text)])
        graph = project.graph

        expected = {f"repro.gen:f{i}" for i in range(count)}
        assert set(graph.functions) == expected

        flattened = [fid for scc in graph.sccs() for fid in scc]
        assert sorted(flattened) == sorted(expected)
        assert len(flattened) == len(set(flattened))

        for caller, callee in edges:
            assert f"repro.gen:f{callee}" in graph.callees_of(
                f"repro.gen:f{caller}"
            )


class TestSummaryFixpoint:
    @given(call_topologies())
    @settings(max_examples=60, deadline=None)
    def test_converges_and_matches_reachability(self, topology):
        count, edges, sleepers, raisers = topology
        text = render_module(count, edges, sleepers, raisers)
        project = Project([SourceFile.parse("src/repro/gen.py", text)])
        index = compute_summaries(project)

        assert index.converged
        assert max(index.scc_rounds, default=0) < MAX_SCC_ROUNDS
        # A monotone union fixpoint stabilizes in at most |SCC| + 1 rounds.
        assert max(index.scc_rounds, default=0) <= count + 1

        for i in range(count):
            summary = index[f"repro.gen:f{i}"]
            reach = reachable(i, edges, count)
            assert summary.may_block == bool(reach & sleepers)
            expected_raises = {
                f"ValueError" for r in raisers if r in reach
            }
            assert (summary.propagates == frozenset(expected_raises)) or (
                not expected_raises and not summary.propagates
            )

    @given(st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_full_mutual_recursion_ring_converges(self, size):
        """A single SCC containing every function — the worst case."""
        edges = [(i, (i + 1) % size) for i in range(size)]
        text = render_module(size, edges, sleepers={0}, raisers=set())
        project = Project([SourceFile.parse("src/repro/gen.py", text)])
        index = compute_summaries(project)
        assert index.converged
        (component,) = [c for c in project.graph.sccs() if len(c) > 1]
        assert len(component) == size
        for i in range(size):
            assert index[f"repro.gen:f{i}"].may_block
