"""repro: a reproduction of "Explaining and Reformulating Authority Flow
Queries" (Varadarajan, Hristidis, Raschid — ICDE 2008).

The library implements, from scratch:

* **ObjectRank2** — authority-flow keyword ranking over typed data graphs
  with an IR-weighted (BM25) base set (:mod:`repro.ranking`);
* **result explanation** — explaining subgraphs with the iterative
  flow-adjustment fixpoint (:mod:`repro.explain`);
* **query reformulation from relevance feedback** — content-based term
  expansion and structure-based authority-transfer-rate learning
  (:mod:`repro.reformulate`), with the survey/training harness of the
  paper's evaluation (:mod:`repro.feedback`);
* every substrate those need: typed graphs (:mod:`repro.graph`), an IR
  engine (:mod:`repro.ir`), a mini relational store (:mod:`repro.storage`),
  PageRank-family baselines, and synthetic DBLP/biological datasets
  (:mod:`repro.datasets`).

Quickstart::

    from repro import ObjectRankSystem, SystemConfig, load_dataset

    dataset = load_dataset("dblp_tiny")
    system = ObjectRankSystem(dataset.data_graph, dataset.transfer_schema)
    result = system.query("olap cube")
    explanation = system.explain(result.top[0][0])
    outcome = system.feedback([result.top[0][0]])
"""

from typing import TYPE_CHECKING

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing-time eager imports
    from repro.core.config import SystemConfig
    from repro.core.system import FeedbackOutcome, ObjectRankSystem
    from repro.datasets.registry import load_dataset
    from repro.explain import explain
    from repro.query.engine import SearchEngine, SearchResult
    from repro.query.query import KeywordQuery, QueryVector

__version__ = "1.0.0"

#: Lazy re-exports (PEP 562): attribute name -> defining module.  Importing
#: any submodule runs this file first, so keeping it import-light means
#: ``repro.cli`` starts without numpy/scipy, which only the ranking stack
#: needs — ``repro lint``, which ``repro.cli`` hands to the stdlib-only
#: :mod:`repro_lint` package, runs in a bare CI job that has neither.
_LAZY_EXPORTS = {
    "SystemConfig": "repro.core.config",
    "FeedbackOutcome": "repro.core.system",
    "ObjectRankSystem": "repro.core.system",
    "load_dataset": "repro.datasets.registry",
    "explain": "repro.explain",
    "SearchEngine": "repro.query.engine",
    "SearchResult": "repro.query.engine",
    "KeywordQuery": "repro.query.query",
    "QueryVector": "repro.query.query",
}


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: __getattr__ runs once per name
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))

__all__ = [
    "FeedbackOutcome",
    "KeywordQuery",
    "ObjectRankSystem",
    "QueryVector",
    "ReproError",
    "SearchEngine",
    "SearchResult",
    "SystemConfig",
    "__version__",
    "explain",
    "load_dataset",
]
