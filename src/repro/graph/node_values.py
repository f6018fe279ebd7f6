"""Per-node values kept as arrays, seen as a mapping only on demand.

The request paths compute per-node quantities as aligned arrays: a base set
(Equation 4) as node indices and jump probabilities, the explaining
subgraph's depths and reduction factors as arrays over its sorted nodes.
Most requests never look one up by key.  :class:`NodeValueView` is the one
mapping face of such a pair: it builds its dict only on first keyed access.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence

import numpy as np


class NodeValueView(Mapping):
    """A read-only mapping over two aligned arrays, in array order.

    Entry ``i`` maps ``nodes[i]`` to ``values_array[i]``; with ``ids``
    given, the key is ``ids[nodes[i]]`` instead — a base set is keyed by
    node id over the graph's node indices (``ids`` = ``graph.node_ids``),
    or by document id over an index's document ordinals.  ``nodes`` holds no
    repeats.  The view compares equal to the ``dict`` it stands for and
    builds that dict only on first keyed access, so array consumers pay
    nothing for it.
    """

    __slots__ = ("nodes", "values_array", "ids", "_dict")

    def __init__(
        self, nodes: np.ndarray, values: np.ndarray, ids: Sequence | None = None
    ) -> None:
        self.nodes = nodes
        self.values_array = values
        self.ids = ids
        self._dict: dict | None = None

    @property
    def nbytes(self) -> int:
        """Bytes held by the two arrays."""
        return self.nodes.nbytes + self.values_array.nbytes

    def _materialized(self) -> dict:
        if self._dict is None:
            keys = self.nodes.tolist()
            if self.ids is not None:
                keys = map(self.ids.__getitem__, keys)
            self._dict = dict(zip(keys, self.values_array.tolist()))
        return self._dict

    def __getitem__(self, key):
        return self._materialized()[key]

    def __iter__(self) -> Iterator:
        return iter(self._materialized())

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return f"NodeValueView({self._materialized()!r})"


def first_occurrences(ids: np.ndarray) -> np.ndarray:
    """The distinct values of ``ids`` in order of first occurrence."""
    _, first = np.unique(ids, return_index=True)
    return ids[np.sort(first)]
