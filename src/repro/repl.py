"""Interactive search-explain-feedback shell (the paper's Web-demo analogue).

Started via ``repro repl <dataset>``.  Commands:

    query <keywords...>     run a fresh ObjectRank2 query
    explain <rank>          explain the result at the given 1-based rank
    mark <rank> [rank...]   mark results relevant and reformulate
    rates                   show the current (possibly learned) transfer rates
    vector                  show the current query vector
    help                    this list
    quit                    leave

The shell is a thin, testable layer: it reads commands from any iterable and
writes through a callable, so tests drive it without a terminal.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.core.system import ObjectRankSystem
from repro.datasets.base import Dataset
from repro.graph.data_graph import DataGraph
from repro.errors import ReproError
from repro.explain.render import to_text
from repro.ranking.compare import ranking_delta

PROMPT = "repro> "


def format_results(data_graph: DataGraph, result) -> list[str]:
    """A result page as the CLI and the shell print it, one hit per line."""
    lines = [
        f"{rank:3d}. [{score:.5f}] {data_graph.caption(node_id)}"
        for rank, (node_id, score) in enumerate(result.top, start=1)
    ]
    lines.append(f"({result.iterations} ObjectRank2 iterations)")
    return lines


class ReplSession:
    """The interactive shell over one :class:`ObjectRankSystem` session."""

    def __init__(self, system: ObjectRankSystem):
        self.system = system
        self._last_top: list[str] = []

    # -- command handlers -----------------------------------------------------

    def handle(self, line: str) -> list[str]:
        """Execute one command line; returns output lines."""
        parts = line.strip().split()
        if not parts:
            return []
        command, arguments = parts[0].lower(), parts[1:]
        handlers: dict[str, Callable[[list[str]], list[str]]] = {
            "query": self._cmd_query,
            "explain": self._cmd_explain,
            "mark": self._cmd_mark,
            "rates": self._cmd_rates,
            "vector": self._cmd_vector,
            "help": self._cmd_help,
        }
        handler = handlers.get(command)
        if handler is None:
            return [f"unknown command {command!r}; try 'help'"]
        try:
            return handler(arguments)
        except ReproError as error:
            return [f"error: {error}"]

    def _format_results(self, result) -> list[str]:
        self._last_top = [node_id for node_id, _ in result.top]
        return format_results(self.system.engine.data_graph, result)

    def _resolve_ranks(self, arguments: list[str]) -> list[str]:
        if not self._last_top:
            raise ReproError("run a query first")
        node_ids = []
        for raw in arguments:
            rank = int(raw)
            if not 1 <= rank <= len(self._last_top):
                raise ReproError(f"rank {rank} is not in the last result list")
            node_ids.append(self._last_top[rank - 1])
        return node_ids

    def _cmd_query(self, arguments: list[str]) -> list[str]:
        if not arguments:
            return ["usage: query <keywords...>"]
        return self._format_results(self.system.query(" ".join(arguments)))

    def _cmd_explain(self, arguments: list[str]) -> list[str]:
        if len(arguments) != 1 or not arguments[0].isdigit():
            return ["usage: explain <rank>"]
        (target,) = self._resolve_ranks(arguments)
        return to_text(self.system.explain(target)).splitlines()

    def _cmd_mark(self, arguments: list[str]) -> list[str]:
        if not arguments or not all(a.isdigit() for a in arguments):
            return ["usage: mark <rank> [rank...]"]
        marked = self._resolve_ranks(arguments)
        before = list(self._last_top)
        outcome = self.system.feedback(marked)
        lines = [f"marked: {', '.join(marked)}", "reformulated results:"]
        lines.extend(self._format_results(outcome.result))
        delta = ranking_delta(before, self._last_top)
        lines.append(f"movement: {delta.summary()}")
        movers = delta.of_kind("up") + delta.of_kind("entered")
        for change in movers[:3]:
            lines.append(f"  {change}")
        return lines

    def _cmd_rates(self, _arguments: list[str]) -> list[str]:
        schema = self.system.current_rates
        return [f"{t}: {schema.rate(t):.3f}" for t in schema.edge_types()]

    def _cmd_vector(self, _arguments: list[str]) -> list[str]:
        vector = self.system.current_vector
        if vector is None:
            return ["(no query yet)"]
        return [f"{term}: {vector.weight(term):.3f}" for term in vector.terms]

    def _cmd_help(self, _arguments: list[str]) -> list[str]:
        return [
            "query <keywords...>   run a fresh ObjectRank2 query",
            "explain <rank>        explain the result at that rank",
            "mark <rank> [...]     mark results relevant and reformulate",
            "rates                 show current transfer rates",
            "vector                show current query vector",
            "quit                  leave",
        ]


def run_repl(
    dataset: Dataset,
    system: ObjectRankSystem,
    lines: Iterable[str],
    write: Callable[[str], None] = print,
) -> int:
    """Drive a shell over ``system`` (a session on ``dataset``) from an
    iterable of input lines (stdin, a list, ...)."""
    session = ReplSession(system)
    write(f"dataset {dataset.name}: {dataset.num_nodes} nodes, "
          f"{dataset.num_edges} edges.  'help' lists commands.")
    for line in lines:
        if line.strip().lower() in {"quit", "exit"}:
            break
        for output in session.handle(line):
            write(output)
    return 0
