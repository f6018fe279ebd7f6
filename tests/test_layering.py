"""Layering guard: the search -> explain -> reformulate -> re-run loop has
one implementation, :mod:`repro.core.system`; front ends are transport; and
every module under ``src/repro`` is on that path or named with a reason.

Checked on the AST, not by importing: a lazy import inside a function would
slip past an ``import``-time check.
"""

import argparse
import ast
import dataclasses
import fnmatch
import inspect
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

LOOP_PRIMITIVES = {"batched_adjust_flows", "batched_build_explaining_subgraphs"}


def imports_of(path: Path) -> list[tuple[str, str | None]]:
    """Every ``(module, name)`` the file imports, at any nesting depth."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.extend((node.module, alias.name) for alias in node.names)
    return found


def test_service_imports_nothing_from_explain():
    offenders = [
        module
        for module, _name in imports_of(SRC / "serve" / "service.py")
        if module == "repro.explain" or module.startswith("repro.explain.")
    ]
    assert offenders == [], (
        "serve/service.py must obtain explanations from an ObjectRankSystem "
        f"session, not from {offenders}"
    )


def test_only_the_session_drives_the_batched_explain_engine():
    users = sorted(
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if "explain" not in path.relative_to(SRC).parts
        and any(name in LOOP_PRIMITIVES for _module, name in imports_of(path))
    )
    assert users == ["core/system.py"]


# -- one execution mode: the batch engines run in-process ------------------------

POOL_PACKAGES = {"concurrent", "multiprocessing"}

#: Names that used to select a worker pool or an execution mode.  A pool, if
#: one ever measures as a win, comes back as a choice the code makes from an
#: observable (cpu count, block count) — not as a parameter.
EXECUTION_MODE_NAMES = {
    "workers",
    "pool",
    "compact",
    "block_width",
    "jobs",
    "precompute_workers",
    "explain_workers",
}


def test_no_module_imports_a_worker_pool():
    offenders = sorted(
        (path.relative_to(SRC).as_posix(), module)
        for path in SRC.rglob("*.py")
        for module, _name in imports_of(path)
        if module.split(".")[0] in POOL_PACKAGES
    )
    assert offenders == []


def parameter_and_field_names(path: Path) -> list[str]:
    """Every function parameter and annotated class field named in ``path``."""
    return parameters_and_fields(ast.parse(path.read_text(encoding="utf-8")))


def parameters_and_fields(tree: ast.AST) -> list[str]:
    """Every function parameter and annotated class field named in ``tree``."""
    names: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            spec = node.args
            names.extend(
                a.arg for a in spec.posonlyargs + spec.args + spec.kwonlyargs
            )
        elif isinstance(node, ast.ClassDef):
            names.extend(
                item.target.id
                for item in node.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
            )
    return names


def test_no_execution_mode_parameter_or_field_outside_the_cluster():
    """``workers`` means one thing: the size of the prefork serving cluster."""
    offenders = []
    for path in SRC.rglob("*.py"):
        relative = path.relative_to(SRC).as_posix()
        if relative == "serve/cluster.py":
            continue
        offenders.extend(
            (relative, name)
            for name in parameter_and_field_names(path)
            if name in EXECUTION_MODE_NAMES
        )
    assert offenders == []


def test_conformance_is_not_optional():
    """The transfer-graph build *is* the Section 2 conformance check: nothing
    takes a ``validate`` switch that could skip it."""
    offenders = sorted(
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if "validate" in parameter_and_field_names(path)
    )
    assert offenders == []


# -- IR scores come from postings columns, not one scorer call per document -----

#: Where a per-document scalar-scorer loop would put the interpreter back on
#: the live read path (``repro.ir.scoring`` itself defines the scalar forms;
#: ``repro.feedback`` is the offline evaluation harness).
ARRAY_SCORED_PACKAGES = ("ranking", "retrieval", "query", "serve", "core")
ARRAY_SCORED_FILES = ("ir/accumulate.py",)

#: ``(file, function)`` -> why it may call the scalar scorer.
SCALAR_SCORER_CALLERS = {
    ("ir/accumulate.py", "_scalar_contributions"): (
        "the documented fallback for a Scorer that has no array "
        "`contributions` method: one `weight` call per posting"
    ),
}


def _scalar_scorer_calls(function: ast.AST) -> list[str]:
    """``scorer.score(`` / ``scorer.weight(`` calls (any ``….scorer`` receiver)."""
    calls = []
    for node in ast.walk(function):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        receiver = node.func.value
        name = (
            receiver.id if isinstance(receiver, ast.Name)
            else receiver.attr if isinstance(receiver, ast.Attribute)
            else None
        )
        if name == "scorer" and node.func.attr in ("score", "weight"):
            calls.append(f"scorer.{node.func.attr}")
    return calls


def test_read_path_never_calls_the_scalar_scorer_per_document():
    paths = [SRC / relative for relative in ARRAY_SCORED_FILES]
    for package in ARRAY_SCORED_PACKAGES:
        paths.extend((SRC / package).rglob("*.py"))
    found = {}
    for path in paths:
        relative = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = _scalar_scorer_calls(node)
                if calls:
                    found[(relative, node.name)] = calls
    unexpected = {key: calls for key, calls in found.items()
                  if key not in SCALAR_SCORER_CALLERS}
    assert unexpected == {}, (
        "score IR through repro.ir.accumulate.score_postings (postings "
        f"columns), not one scalar scorer call per document: {unexpected}"
    )
    # The allow-list names real call sites only — no stale entries.
    assert set(SCALAR_SCORER_CALLERS) == set(found)


# -- the explaining subgraph is a CSR operator: no sort, search or scatter ---------

#: Attribute calls the batched explain engine does without: node and edge lists
#: come off stamped masks (``flatnonzero``), local ids off a scratch array, and
#: Equation 10 advances as one CSR mat-vec whose rows scipy must leave as
#: built (parallel edges apart, edge-id order).  No exemption survives.
SORT_SEARCH_SCATTER = {
    "searchsorted", "unique", "sort", "argsort", "at",
    "sum_duplicates", "sort_indices",
}


def test_batched_explain_engine_neither_sorts_searches_nor_scatters():
    tree = ast.parse((SRC / "explain" / "batch.py").read_text(encoding="utf-8"))
    offenders = sorted(
        f"{node.func.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in SORT_SEARCH_SCATTER
    )
    assert offenders == []
    (build,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name == "batched_build_explaining_subgraphs"
    ]
    names = {node.id for node in ast.walk(build) if isinstance(node, ast.Name)}
    assert "build_explaining_subgraph" not in names, (
        "the batched builder extracts every target itself, never through "
        "the serial builder"
    )


# -- the wire is one reader and one writer: the stdlib's are off the request path ---

WIRE_MODULES = ("http_server.py", "cluster.py")

#: The stdlib handler's parser and writer, none of which the serve tier calls:
#: a response is built whole and leaves through one ``sendall``.
STDLIB_WIRE_CALLS = {
    "parse_request", "parse_headers", "send_response", "send_header",
    "end_headers", "send_error", "send_response_only",
}


def _attribute_calls(path: Path) -> list[ast.Call]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    ]


def test_serve_tier_speaks_http_through_one_reader_and_one_writer():
    for path in sorted((SRC / "serve").glob("*.py")):
        stdlib = [
            f"{path.name}:{call.lineno} {call.func.attr}"
            for call in _attribute_calls(path)
            if call.func.attr in STDLIB_WIRE_CALLS
        ]
        assert stdlib == []
    sends = []
    for name in WIRE_MODULES:
        path = SRC / "serve" / name
        from_email = [
            (module, imported)
            for module, imported in imports_of(path)
            if module == "email" or module.startswith("email.")
        ]
        assert from_email in ([], [("email.utils", "formatdate")]), (
            f"serve/{name} builds no email.Message per request: {from_email}"
        )
        sends += [
            f"{name}:{call.lineno}"
            for call in _attribute_calls(path)
            if call.func.attr in ("send", "sendall")
            or (call.func.attr == "write" and "wfile" in ast.unparse(call.func))
        ]
    assert len(sends) == 1, f"exactly one send call site, found {sends}"


# -- the rerank stage builds no matrix: rows of the per-topology operator ----------

RERANK_MODULES = (
    ("ranking", "core.py"), ("ranking", "focused.py"), ("retrieval", "engine.py"),
)

#: A sparse-matrix constructor, or the per-entry passes one needs first.
MATRIX_BUILDING = {
    "csr_matrix", "csr_array", "coo_matrix", "coo_array", "bincount", "repeat",
}


def _builds_a_matrix(tree: ast.AST) -> list[str]:
    """Calls in ``tree`` that construct a sparse matrix or expand rows for
    one, by attribute (``sparse.csr_matrix``) or bare name."""
    return sorted(
        f"{name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for name in [getattr(node.func, "attr", getattr(node.func, "id", None))]
        if name in MATRIX_BUILDING
    )


def test_rerank_stage_builds_no_matrix():
    """Stage 2 gathers rows of ``graph.matrix()`` and iterates them; the
    induced submatrix lives on only as ``tests/ranking/reference.py``."""
    for package, name in RERANK_MODULES:
        tree = ast.parse((SRC / package / name).read_text(encoding="utf-8"))
        assert _builds_a_matrix(tree) == [], f"{package}/{name}"


def test_the_guard_sees_the_matrix_it_forbids():
    reference = Path(__file__).parent / "ranking" / "reference.py"
    found = _builds_a_matrix(ast.parse(reference.read_text(encoding="utf-8")))
    assert {entry.split()[0] for entry in found} == {"csr_matrix", "bincount", "repeat"}
    assert _builds_a_matrix(ast.parse("from scipy.sparse import coo_matrix\ncoo_matrix(x)"))
    assert not _builds_a_matrix(ast.parse("rows = matrix[nodes]; rows @ x"))


# -- two-stage keeps what its traffic runs: no max-score gate, no fusion knob -----

#: What the max-score gate needed under ``repro/ir``: per-term impact bounds
#: and the scorer methods that turned them into score ceilings.
GATE_DEFINITIONS = {"max_weight", "term_upper_bound", "term_bound"}

#: Where a score-fusion parameter or config field would surface.
FUSION_SCOPES = ("retrieval", "core", "serve")


def _gate_leftovers(tree: ast.AST) -> list[str]:
    """A ``top_n`` parameter on ``score_postings``, or a bound definition."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name in GATE_DEFINITIONS:
            found.append(node.name)
        spec = node.args
        if node.name == "score_postings" and "top_n" in {
            a.arg for a in spec.posonlyargs + spec.args + spec.kwonlyargs
        }:
            found.append("score_postings(top_n)")
    return sorted(found)


def _fusion_knobs(tree: ast.AST) -> list[str]:
    return sorted(n for n in parameters_and_fields(tree) if n.startswith("fusion"))


def test_two_stage_has_no_max_score_gate_and_no_fusion_knob():
    """Stage 1 scores every document of S(Q); stage 2's answer is authority."""
    def parsed(path: Path) -> ast.AST:
        return ast.parse(path.read_text(encoding="utf-8"))

    gate = {
        path.relative_to(SRC).as_posix(): _gate_leftovers(parsed(path))
        for path in (SRC / "ir").rglob("*.py")
    }
    assert {where: found for where, found in gate.items() if found} == {}
    paths = [SRC / "cli.py"]
    for package in FUSION_SCOPES:
        paths.extend((SRC / package).rglob("*.py"))
    knobs = {
        path.relative_to(SRC).as_posix(): _fusion_knobs(parsed(path)) for path in paths
    }
    assert {where: found for where, found in knobs.items() if found} == {}


def test_the_guard_sees_the_gate_and_the_knob_it_forbids():
    gated = ast.parse(
        "def score_postings(scorer, query_weights, top_n=None): ...\n"
        "class BM25Scorer:\n"
        "    def max_weight(self, term): ...\n"
        "    def term_upper_bound(self, term, raw_weight): ...\n"
        "class InvertedIndex:\n"
        "    def term_bound(self, term): ...\n"
    )
    assert _gate_leftovers(gated) == [
        "max_weight", "score_postings(top_n)", "term_bound", "term_upper_bound",
    ]
    assert _gate_leftovers(ast.parse("def score_postings(scorer, weights): ...")) == []
    knobs = ast.parse(
        "class ServeConfig:\n"
        "    fusion: str = 'weighted'\n"
        "    fusion_weight: float = 1.0\n"
        "def two_stage_rank(graph, scorer, *, fusion='weighted'): ...\n"
    )
    assert _fusion_knobs(knobs) == ["fusion", "fusion", "fusion_weight"]
    # Naming a removed parameter in order to refuse it is not a knob.
    assert _fusion_knobs(ast.parse("_REMOVED_WIRE = ('fusion', 'fusion_weight')")) == []


# -- two-stage is a /search mode: the paper's loop never carries it --------------

#: The packages of the paper's loop (Sections 4-5): the session and the
#: explaining subgraph, neither of which explains a two-stage answer.
LOOP_PACKAGES = ("core", "explain")

#: ``SystemConfig`` names that would carry a retrieval mode into the session,
#: besides any ``rerank_*`` field.
TWO_STAGE_CONFIG_NAMES = {"candidates", "retrieval_mode"}


def retrieval_importers(src: Path) -> list[str]:
    """``file module`` of every import of :mod:`repro.retrieval` (at any
    depth, ``from repro import retrieval`` included) under the loop's
    packages."""
    return sorted(
        f"{path.relative_to(src).as_posix()} {module}"
        for package in LOOP_PACKAGES
        for path in (src / package).rglob("*.py")
        for module, name in imports_of(path)
        if module.split(".")[:2] == ["repro", "retrieval"]
        or (module == "repro" and name == "retrieval")
    )


def two_stage_config_fields(config: type) -> list[str]:
    return sorted(
        field.name
        for field in dataclasses.fields(config)
        if field.name.startswith("rerank_") or field.name in TWO_STAGE_CONFIG_NAMES
    )


def test_the_loop_neither_imports_nor_configures_two_stage():
    """Only ``/search`` runs two-stage: the session, its config and the
    explaining subgraph know nothing of it."""
    from repro.core.config import SystemConfig

    assert retrieval_importers(SRC) == []
    assert two_stage_config_fields(SystemConfig) == []


def test_the_guard_sees_a_retrieval_import_and_a_two_stage_field(tmp_path):
    for package in ("core", "explain/deep", "serve"):
        (tmp_path / package).mkdir(parents=True)
    (tmp_path / "core" / "system.py").write_text(
        "from repro.retrieval.engine import TwoStageEngine\n"
    )
    (tmp_path / "explain" / "deep" / "lazy.py").write_text(
        "def f():\n    from repro import retrieval\n"
    )
    (tmp_path / "serve" / "service.py").write_text("import repro.retrieval\n")
    assert retrieval_importers(tmp_path) == [
        "core/system.py repro.retrieval.engine", "explain/deep/lazy.py repro",
    ]

    @dataclasses.dataclass
    class Planted:
        radius: int = 3
        retrieval_mode: str = "full"
        candidates: int = 200
        rerank_horizon: int = 2
        reranked: bool = False

    assert two_stage_config_fields(Planted) == [
        "candidates", "rerank_horizon", "retrieval_mode",
    ]


# -- the precomputed path has one policy: every query term has a column ------------

#: ``ServeConfig`` fields that would choose another precomputed policy: a
#: coverage threshold, an expiry, a rebuild switch, a hand-picked keyword list.
POLICY_FIELD_PATTERNS = ("*coverage*", "*ttl*", "precompute_rebuild", "precompute_keywords")


def precomputed_policy_knobs(config: type, constructors: dict, modes) -> list[str]:
    """Every way left to pick another precomputed policy: a matching config
    field, a ``min_coverage`` parameter on one of ``constructors`` (name ->
    callable), and a forced ``"precomputed"`` mode."""
    knobs = [
        f"field {field.name}"
        for field in dataclasses.fields(config)
        if any(fnmatch.fnmatchcase(field.name, p) for p in POLICY_FIELD_PATTERNS)
    ]
    knobs += [
        f"parameter {name}(min_coverage)"
        for name, constructor in constructors.items()
        if "min_coverage" in inspect.signature(constructor).parameters
    ]
    knobs += [f"mode {mode}" for mode in modes if mode == "precomputed"]
    return knobs


def test_the_precomputed_path_has_one_policy():
    """A query is blended from the store when every positive-weight term has
    a column and runs live otherwise; nothing configures a second answer."""
    from repro.ingest.engine import IngestEngine
    from repro.ranking.precompute import PrecomputedRanker
    from repro.serve.service import SERVE_MODES, ServeConfig
    from repro.store.generations import StoreManager

    constructors = {
        "PrecomputedRanker.__init__": PrecomputedRanker.__init__,
        "PrecomputedRanker.over": PrecomputedRanker.over,
        "StoreManager": StoreManager,
        "IngestEngine": IngestEngine,
    }
    assert precomputed_policy_knobs(ServeConfig, constructors, SERVE_MODES) == []


def test_the_guard_sees_every_second_precomputed_policy():
    @dataclasses.dataclass
    class Planted:
        precompute: bool = True
        precompute_min_document_frequency: int = 2
        precompute_min_coverage: float = 1.0
        cache_ttl_seconds: float | None = None
        precompute_rebuild: bool = False
        precompute_keywords: tuple = ()

    def ranker(graph, index, min_coverage=1.0):
        pass

    def manager(root, refresh_seconds=0.0):
        pass

    assert precomputed_policy_knobs(
        Planted, {"ranker": ranker, "manager": manager}, ("auto", "precomputed")
    ) == [
        "field precompute_min_coverage",
        "field cache_ttl_seconds",
        "field precompute_rebuild",
        "field precompute_keywords",
        "parameter ranker(min_coverage)",
        "mode precomputed",
    ]


# -- the ingest refresh has one mode: exact, from the uniform start ---------------


def ingest_refresh_modes(parameters, config: type, parser) -> list[str]:
    """Every way left to pick a second refresh: a forbidden parameter on one
    of ``parameters`` (``(name, callable, parameter)`` triples), a
    ``*refresh_mode*`` config field, and a ``--refresh-mode`` flag or an
    ``ingest --mode`` flag on ``parser``'s subcommands."""
    modes = [
        f"parameter {name}({parameter})"
        for name, function, parameter in parameters
        if parameter in inspect.signature(function).parameters
    ]
    modes += [
        f"field {field.name}"
        for field in dataclasses.fields(config)
        if fnmatch.fnmatchcase(field.name, "*refresh_mode*")
    ]
    commands = [
        (command, sub)
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
        for command, sub in action.choices.items()
    ]
    for command, sub in commands:
        flags = {flag for option in sub._actions for flag in option.option_strings}
        if "--refresh-mode" in flags:
            modes.append(f"flag {command} --refresh-mode")
        if command == "ingest" and "--mode" in flags:
            modes.append("flag ingest --mode")
    return modes


def test_the_ingest_refresh_has_one_mode():
    """Dirty columns re-converge from the uniform start, bit-identical to a
    full build; nothing configures a second, warm-started refresh."""
    from repro.cli import build_parser
    from repro.ingest.engine import IngestEngine
    from repro.ingest.refresh import refreshed_keyword_vectors
    from repro.ranking.objectrank import keyword_objectranks
    from repro.serve.service import DatasetRuntime, ServeConfig

    parameters = [
        ("refreshed_keyword_vectors", refreshed_keyword_vectors, "mode"),
        ("IngestEngine.refresh", IngestEngine.refresh, "mode"),
        ("DatasetRuntime.refresh_ingest", DatasetRuntime.refresh_ingest, "mode"),
        ("keyword_objectranks", keyword_objectranks, "init"),
    ]
    assert ingest_refresh_modes(parameters, ServeConfig, build_parser()) == []


def test_the_guard_sees_every_second_refresh_mode():
    @dataclasses.dataclass
    class Planted:
        ingest: bool = False
        ingest_staleness_bound: int = 0
        ingest_refresh_mode: str = "exact"

    def refresh(previous=None, mode="exact"):
        pass

    def columns(graph, index, keywords, init=None):
        pass

    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers()
    sub.add_parser("serve").add_argument("--refresh-mode")
    sub.add_parser("ingest").add_argument("--mode")
    sub.add_parser("search").add_argument("--mode")
    parameters = [
        ("refresh", refresh, "mode"),
        ("columns", columns, "init"),
        ("columns", columns, "mode"),
    ]
    assert ingest_refresh_modes(parameters, Planted, parser) == [
        "parameter refresh(mode)",
        "parameter columns(init)",
        "field ingest_refresh_mode",
        "flag serve --refresh-mode",
        "flag ingest --mode",
    ]


# -- a feedback op pays for the click: one matrix path, one score-cache reader ----


def _functions(path: Path) -> list[ast.FunctionDef]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]


def _sorts_or_sums_a_sparse_matrix(function: ast.FunctionDef) -> bool:
    """Does ``function`` pay scipy's per-call canonicalisation: a
    coordinate-form ``csr_matrix((data, (rows, cols)))``, ``sum_duplicates``
    or ``sort_indices``?"""
    for node in ast.walk(function):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        if node.func.attr in ("sum_duplicates", "sort_indices", "coo_matrix", "coo_array"):
            return True
        if node.func.attr in ("csr_matrix", "csr_array") and node.args:
            first = node.args[0]
            if (
                isinstance(first, ast.Tuple)
                and len(first.elts) == 2
                and isinstance(first.elts[1], ast.Tuple)
            ):
                return True
    return False


def test_transition_matrix_is_filled_not_rebuilt():
    """Sorting and duplicate-summing happen once per topology and zero-rate
    type set (the pattern, whose zero-rate slots are dropped by a filter,
    not a second sort), never in ``matrix()``: new rates cost one gather."""
    functions = _functions(SRC / "graph" / "transfer_graph.py")
    payers = [f.name for f in functions if _sorts_or_sums_a_sparse_matrix(f)]
    assert payers == ["csr_pattern"]
    assert "matrix" in {f.name for f in functions}


def test_the_guard_sees_the_construction_it_forbids():
    source = (
        "def matrix(self):\n"
        "    return sparse.csr_matrix((self.rate, (self.target, self.source)), shape=s)\n"
        "def fill(self):\n"
        "    return sparse.csr_matrix((data, indices, indptr), shape=s)\n"
    )
    matrix, fill = ast.parse(source).body
    assert _sorts_or_sums_a_sparse_matrix(matrix)
    assert not _sorts_or_sums_a_sparse_matrix(fill)


def test_only_the_session_factory_reads_the_score_cache():
    """Kept scores stand in for a session's initial search and for nothing
    else: no endpoint answers from them directly."""
    readers, writers = [], []
    for function in _functions(SRC / "serve" / "service.py"):
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and "score_cache" in ast.unparse(node.func.value)
            ):
                {"get": readers, "put": writers}.get(node.func.attr, []).append(
                    function.name
                )
    assert readers == ["_session"]
    assert sorted(writers) == ["_execute", "_session"]


# -- one cache fence: every serve cache key comes from Fence.key ----------------

#: The one module that may name (and so construct) the cache key type.
KEY_TYPE_HOME = "serve/cache.py"


def _is_fence_key(node: ast.AST) -> bool:
    """``fence.key(...)`` or ``<expr>.fence.key(...)``."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "key"
    ):
        return False
    owner = node.func.value
    return (isinstance(owner, ast.Name) and owner.id == "fence") or (
        isinstance(owner, ast.Attribute) and owner.attr == "fence"
    )


def unfenced_cache_calls(serve: Path) -> list[str]:
    """``.get``/``.put`` calls on a ``*cache`` receiver under ``serve`` whose
    key is neither ``fence.key(...)`` nor a local assigned only from one."""
    offenders = []
    for path in sorted(serve.rglob("*.py")):
        name = path.relative_to(serve).as_posix()
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            assigned: dict[str, list[ast.AST]] = {}
            for node in ast.walk(function):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            assigned.setdefault(target.id, []).append(node.value)
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) and isinstance(
                    node.target, ast.Name
                ):
                    assigned.setdefault(node.target.id, []).append(node)
            for node in ast.walk(function):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("get", "put")
                ):
                    continue
                receiver = node.func.value
                receiver_name = (
                    receiver.id if isinstance(receiver, ast.Name)
                    else receiver.attr if isinstance(receiver, ast.Attribute)
                    else ""
                )
                if not receiver_name.endswith("cache"):
                    continue
                key = node.args[0] if node.args else None
                fenced = _is_fence_key(key) or (
                    isinstance(key, ast.Name)
                    and bool(assigned.get(key.id))
                    and all(_is_fence_key(value) for value in assigned[key.id])
                )
                if not fenced:
                    offenders.append(f"{name}:{node.lineno}")
    return offenders


def key_type_namers(src: Path) -> list[str]:
    """Modules other than :data:`KEY_TYPE_HOME` that name ``FenceKey``."""
    offenders = []
    for path in sorted(src.rglob("*.py")):
        name = path.relative_to(src).as_posix()
        if name == KEY_TYPE_HOME:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            named = (
                (isinstance(node, ast.Name) and node.id == "FenceKey")
                or (isinstance(node, ast.Attribute) and node.attr == "FenceKey")
                or (
                    isinstance(node, ast.alias)
                    and node.name.rsplit(".", 1)[-1] == "FenceKey"
                )
            )
            if named:
                offenders.append(f"{name}:{getattr(node, 'lineno', 0)}")
    return offenders


def test_every_serve_cache_key_comes_from_the_fence():
    """A key built by hand can leave out the rates, the epoch or the
    generation; one from ``Fence.key`` cannot."""
    assert unfenced_cache_calls(SRC / "serve") == []


def test_only_the_cache_module_constructs_the_key_type():
    assert key_type_namers(SRC) == []


def test_the_guards_see_a_hand_built_key_and_a_second_constructor(tmp_path):
    serve = tmp_path / "serve"
    serve.mkdir()
    (serve / "cache.py").write_text(
        "class FenceKey(tuple):\n"
        "    pass\n"
        "def make(prefix):\n"
        "    return FenceKey(prefix)\n"
    )
    (serve / "service.py").write_text(
        "from repro.serve.cache import FenceKey\n"
        "class Service:\n"
        "    def fenced(self, plan, fence):\n"
        "        key = plan.fence.key(plan.k)\n"
        "        self.cache.get(key)\n"
        "        self.cache.put(key, 1)\n"
        "        self.score_cache.get(fence.key('scores'))\n"
        "        self.other.get(('ds', 1))\n"
        "    def by_hand(self, dataset, vector, epoch):\n"
        "        self.cache.get((dataset, vector))\n"
        "        key = fence.key(1)\n"
        "        key += (('epoch', epoch),)\n"
        "        self.explain_cache.put(key, 2)\n"
        "        cache = {}\n"
        "        cache.get(vector)\n"
        "        self.score_cache.put(FenceKey((dataset,)), 3)\n"
    )
    assert unfenced_cache_calls(serve) == [
        "service.py:10", "service.py:13", "service.py:15", "service.py:16"
    ]
    assert key_type_namers(tmp_path) == ["serve/service.py:1", "serve/service.py:16"]


# -- `import repro` is the paper's system: every module is reached or named -------

#: Import edges are followed from the front ends and the loop they drive.
ROOT_MODULES = ("repro.cli", "repro.repl")
ROOT_PACKAGES = ("repro.serve.", "repro.core.")

#: Module -> why it stays in ``src/repro`` although nothing on the serving
#: path imports it.  A module nothing at all calls is deleted, not listed.
OFF_PATH_MODULES = {
    # Section 6 evaluation harness: the Fig. 10-13 and Rocchio-baseline scripts.
    "repro.feedback.metrics": "Sec. 6: precision / cosine / rank-distance measures",
    "repro.feedback.residual": "Sec. 6: residual-collection scoring of the surveys",
    "repro.feedback.simulated_user": "Sec. 6: the oracle standing in for survey users",
    "repro.feedback.survey": "Sec. 6: the Fig. 10 / Fig. 12 feedback-session driver",
    "repro.feedback.training": "Sec. 6: the Fig. 11 / Fig. 13 rate-training curves",
    "repro.feedback.rocchio": "Sec. 6: the baseline of bench_rocchio_baseline.py",
    "repro.ranking.ir_only": "Sec. 6: the pure-IR row of bench_rocchio_baseline.py",
    "repro.datasets.figure1": "the paper's running example: quickstart and fixtures",
    "repro.datasets.analysis": "measures EXPERIMENTS.md's dataset-substitution claim",
}


def unreachable_modules(src: Path) -> list[str]:
    """Modules of the ``repro`` package under ``src`` that no chain of import
    edges from the roots reaches.

    ``from pkg import name`` is an edge to the module that *defines* ``name``
    — a package ``__init__`` is a list of re-exports, so importing one name
    through it must not make every sibling reachable.  ``__init__`` files are
    therefore not nodes: they are neither checked nor followed.
    """
    files = {}
    for path in src.rglob("*.py"):
        parts = ("repro", *path.relative_to(src).with_suffix("").parts)
        files[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    packages = {name for name, path in files.items() if path.name == "__init__.py"}
    imports = {name: imports_of(path) for name, path in files.items()}

    def defining_module(module, name):
        if module not in files:
            return None  # stdlib or third party
        if name is None:
            return module
        if f"{module}.{name}" in files:
            return f"{module}.{name}"
        if module in packages:
            for origin, exported in imports[module]:
                if exported == name and origin != module:
                    return defining_module(origin, name)
        return module

    reached = set()
    frontier = [
        name for name in files
        if name in ROOT_MODULES or name.startswith(ROOT_PACKAGES)
    ]
    while frontier:
        module = frontier.pop()
        if module is None or module in reached:
            continue
        reached.add(module)
        frontier.extend(defining_module(*edge) for edge in imports[module])
    return sorted(set(files) - reached - packages)


def test_every_module_is_reachable_from_the_front_ends_or_named():
    assert unreachable_modules(SRC) == sorted(OFF_PATH_MODULES), (
        "a module nothing on the cli/repl/serve/core path imports must be "
        "deleted or listed in OFF_PATH_MODULES with its reason; a listed module "
        "that is reachable again, or gone, must leave the list"
    )
    assert all(reason.strip() for reason in OFF_PATH_MODULES.values())


def test_reachability_follows_reexports_to_the_defining_module(tmp_path):
    (tmp_path / "core").mkdir()
    (tmp_path / "pkg").mkdir()
    (tmp_path / "core" / "system.py").write_text("from repro.pkg import used\n")
    (tmp_path / "pkg" / "__init__.py").write_text(
        "from repro.pkg.a import used\nfrom repro.pkg.b import unused\n"
    )
    (tmp_path / "pkg" / "a.py").write_text("def used(): ...\n")
    (tmp_path / "pkg" / "b.py").write_text("def unused(): ...\n")
    (tmp_path / "stray.py").write_text("")
    assert unreachable_modules(tmp_path) == ["repro.pkg.b", "repro.stray"]


def test_importing_the_serve_tier_loads_nothing_off_path():
    """An eager ``__init__`` re-export would drag a heavy off-path import
    back into every ``repro serve`` worker."""
    banned = ("networkx",)
    code = (
        "import sys, repro.serve; "
        f"print([m for m in {banned!r} if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# -- no helper hands out a fresh resource: each is released where it is opened ---

#: Calls that hand out a file, mmap or socket the caller must release.
ACQUIRE_CALLS = {
    "open", "os.fdopen", "mmap.mmap", "socket.socket", "socket.create_server",
    "socket.create_connection", "tempfile.NamedTemporaryFile", "tempfile.TemporaryFile",
}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def walk_in_scope(function: ast.AST):
    """``function``'s body, without the bodies of definitions nested in it."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def resource_returns(src: Path) -> list[str]:
    """``file:line function`` for each function that returns the result of
    an acquisition call, directly or through a local."""

    def acquires(node: ast.AST | None) -> bool:
        return isinstance(node, ast.Call) and ast.unparse(node.func) in ACQUIRE_CALLS

    offenders = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = list(walk_in_scope(function))
            fresh = {
                target.id
                for node in body
                if isinstance(node, ast.Assign) and acquires(node.value)
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            offenders.extend(
                f"{path.relative_to(src).as_posix()}:{node.lineno} {function.name}"
                for node in body
                if isinstance(node, ast.Return)
                and (
                    acquires(node.value)
                    or isinstance(node.value, ast.Name)
                    and node.value.id in fresh
                )
            )
    return offenders


def test_no_function_returns_a_fresh_resource():
    """A file, mmap or socket is released by the function that acquires it,
    and tier-1 turns one that leaks into a failing ``ResourceWarning``.  A
    helper returning what ``open``, ``mmap.mmap`` or ``socket.socket`` gave
    it would move the release into every caller."""
    assert resource_returns(SRC) == []


def test_the_guard_sees_a_returned_resource(tmp_path):
    (tmp_path / "a.py").write_text(
        "import socket\n"
        "\n"
        "def direct(path):\n"
        "    return open(path)\n"
        "\n"
        "def through_a_local():\n"
        "    sock = socket.socket()\n"
        "    return sock\n"
        "\n"
        "def read(path):\n"
        "    with open(path) as handle:\n"
        "        return handle.read()\n"
    )
    assert resource_returns(tmp_path) == ["a.py:4 direct", "a.py:8 through_a_local"]


# -- every lock is one lockdep can reach: a call to threading.Lock() ------------

#: Names that build a lock without going through ``threading.Lock``.
LOCK_CONSTRUCTORS = {"Lock", "RLock", "allocate_lock"}


def _dotted(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def unreachable_locks(src: Path) -> list[str]:
    """``file:line spelling`` for every lock built other than by a call to
    ``threading.Lock()`` — the one name the test suite's lockdep patches."""
    offenders = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "threading",
                "_thread",
            ):
                spelled = [
                    f"from {node.module} import {alias.name}"
                    for alias in node.names
                    if alias.name in LOCK_CONSTRUCTORS
                ]
            elif isinstance(node, ast.Call):
                name = _dotted(node.func)
                spelled = (
                    [f"{name}()"]
                    if name.rsplit(".", 1)[-1] in LOCK_CONSTRUCTORS
                    and name != "threading.Lock"
                    else []
                )
            else:
                spelled = []
            offenders.extend(
                f"{path.relative_to(src).as_posix()}:{node.lineno} {text}"
                for text in spelled
            )
    return offenders


def test_every_lock_is_a_threading_lock_call():
    assert unreachable_locks(SRC) == []


def test_the_guard_sees_every_other_way_to_build_a_lock(tmp_path):
    (tmp_path / "a.py").write_text(
        "import _thread\n"
        "import threading\n"
        "from threading import Lock\n"
        "GOOD = threading.Lock()\n"
        "BARE = Lock()\n"
        "RAW = _thread.allocate_lock()\n"
        "REENTRANT = threading.RLock()\n"
    )
    assert unreachable_locks(tmp_path) == [
        "a.py:3 from threading import Lock",
        "a.py:5 Lock()",
        "a.py:6 _thread.allocate_lock()",
        "a.py:7 threading.RLock()",
    ]


# -- one Eq. 4 loop: the numpy step and the compiled single-vector step ----------

#: Names through which the compiled single-vector step is reached.  Outside
#: ``_native`` itself, whose probe checks it against the numpy step, only
#: ``pagerank.iterate`` may say them.
SELL_KERNEL_NAMES = {"bind_sell_step", "SellStep", "sell_step"}


def _is_numpy_step(node: ast.AST) -> bool:
    """``d * (A @ r) + jump`` in either operand order."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    return any(
        isinstance(side, ast.BinOp)
        and isinstance(side.op, ast.Mult)
        and any(
            isinstance(factor, ast.BinOp) and isinstance(factor.op, ast.MatMult)
            for factor in (side.left, side.right)
        )
        for side in (node.left, node.right)
    )


def eq4_steps(tree: ast.AST) -> dict[str, list[str]]:
    """Function -> what it does of the Eq. 4 step: ``numpy`` for an inline
    ``d * (A @ r) + jump``, or the compiled-step name it mentions."""
    found: dict[str, list[str]] = {}
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            name = getattr(node, "attr", getattr(node, "id", None))
            if _is_numpy_step(node):
                found.setdefault(function.name, []).append("numpy")
            elif isinstance(node, (ast.Name, ast.Attribute)) and name in SELL_KERNEL_NAMES:
                found.setdefault(function.name, []).append(name)
    return found


def test_iterate_is_the_only_eq4_step():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative == "ranking/_native.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.update({
            f"{relative}:{function}": sorted(set(steps))
            for function, steps in eq4_steps(tree).items()
        })
    assert found == {"ranking/pagerank.py:iterate": ["bind_sell_step", "numpy"]}


def test_the_guard_sees_the_steps_it_forbids():
    reference = Path(__file__).parent / "ranking" / "reference.py"
    loops = eq4_steps(ast.parse(reference.read_text(encoding="utf-8")))
    assert loops == {
        "reference_power_iteration": ["numpy"],
        "reference_topk_power_iteration": ["numpy"],
    }
    tree = ast.parse(
        "def fast(op, x, jump):\n"
        "    step = _native.bind_sell_step(op, jump, 0.85, x)\n"
        "def flipped(op, x, jump, d):\n"
        "    return jump + (op @ x) * d\n"
        "def blocked(op, block, d):\n"
        "    out = op @ block\n"
        "    out *= d\n"
    )
    assert eq4_steps(tree) == {"fast": ["bind_sell_step"], "flipped": ["numpy"]}


# -- the blocked engine binds its kernel once per chunk, not per step -----------

#: What converts arrays for the block kernel on every call: the checked
#: per-call wrapper and ctypes' own conversions.
PER_CALL_KERNEL = {"blocked_step", "ndpointer", "ctypes", "from_param"}


def per_step_conversions(tree: ast.AST) -> list[str]:
    """``function: name`` for every per-call kernel entry a function names,
    and for every ``bind_blocked_step`` inside a loop of the function."""
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        looped = {
            id(node)
            for loop in ast.walk(function)
            if isinstance(loop, (ast.For, ast.While))
            for statement in loop.body
            for node in ast.walk(statement)
        }
        for node in ast.walk(function):
            if not isinstance(node, (ast.Name, ast.Attribute)):
                continue
            name = getattr(node, "attr", getattr(node, "id", None))
            if name in PER_CALL_KERNEL:
                found.append(f"{function.name}: {name}")
            elif name == "bind_blocked_step" and id(node) in looped:
                found.append(f"{function.name}: {name} per step")
    return found


def test_the_blocked_engine_converts_no_array_per_step():
    """The engine binds the kernel's addresses once per chunk and steps it;
    the kernel's signature has no ``ndpointer`` to convert through."""
    from repro.ranking import _native

    batch = SRC / "ranking" / "batch.py"
    assert per_step_conversions(ast.parse(batch.read_text(encoding="utf-8"))) == []
    assert "bind_blocked_step" in batch.read_text(encoding="utf-8")
    assert not [
        argtype for argtype in _native._SIGNATURES["blocked_step"]
        if hasattr(argtype, "_dtype_")
    ]


def test_the_guard_sees_a_per_step_conversion():
    tree = ast.parse(
        "def wrapped(matrix, block, jump):\n"
        "    for _ in range(9):\n"
        "        _native.blocked_step(matrix, block, rows, jump, 0.85)\n"
        "def rebound(matrix, buffers):\n"
        "    while live.any():\n"
        "        step = _native.bind_blocked_step(matrix, buffers, rows, jump, d)\n"
        "        step()\n"
        "def converted(block):\n"
        "    return block.ctypes.data\n"
        "def bound(matrix, buffers):\n"
        "    step = _native.bind_blocked_step(matrix, buffers, rows, jump, d)\n"
        "    for _ in range(9):\n"
        "        step()\n"
    )
    assert per_step_conversions(tree) == [
        "wrapped: blocked_step",
        "rebound: bind_blocked_step per step",
        "converted: ctypes",
    ]


# -- one ranking core: a restart block, a stop and one rank() call ---------------

#: The two Eq. 4 loops: the single-vector one and the blocked engine.
EQ4_LOOPS = {"iterate", "batched_power_iteration"}

#: Where a ``RankedResult`` may be assembled besides ``rank``: rankings that
#: run no Eq. 4 loop (the store blend, pure IR, the Eq. 16 product of
#: ``rank`` results) and the serve tier's empty page.
RESULT_ASSEMBLERS = {
    "ranking/core.py:rank",
    "ranking/ir_only.py:ir_only_rank",
    "ranking/objectrank.py:multi_keyword_objectrank",
    "ranking/precompute.py:PrecomputedRanker.rank",
    "serve/service.py:_empty_ranking",
}


def callers(tree: ast.AST, names: set[str]) -> list[str]:
    """``scope -> callee`` for every call of one of ``names``, by bare name
    or attribute; ``scope`` is the dotted class/function path around it."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "attr", getattr(child.func, "id", None))
                if name in names:
                    found.append(f"{scope or '<module>'} -> {name}")
            visit(child, scope)

    visit(tree, "")
    return sorted(found)


def src_callers(names: set[str]) -> set[str]:
    return {
        f"{path.relative_to(SRC).as_posix()}:{caller}"
        for path in SRC.rglob("*.py")
        for caller in callers(ast.parse(path.read_text(encoding="utf-8")), names)
    }


def test_rank_is_the_only_caller_of_the_eq4_loops():
    """Every ObjectRank variant is a restart builder plus ``rank``."""
    assert src_callers(EQ4_LOOPS) == {
        "ranking/core.py:rank -> batched_power_iteration",
        "ranking/core.py:rank -> iterate",
    }


def test_rank_is_the_one_ranked_result_assembly_of_a_fixpoint():
    assembled = {
        caller.removesuffix(" -> RankedResult")
        for caller in src_callers({"RankedResult"})
    }
    assert assembled == RESULT_ASSEMBLERS


def test_the_guard_sees_a_second_loop_caller_and_a_hand_built_result():
    tree = ast.parse(
        "def rank(graph, restarts, stop):\n"
        "    return iterate(op, s, d, m, None, stop.rule())\n"
        "def objectrank(graph, ids):\n"
        "    outcome = pagerank.iterate(op, s, d, m, None, rule)\n"
        "    return RankedResult(graph.node_ids, outcome.scores, 1, True)\n"
        "class Ranker:\n"
        "    def rank(self, q):\n"
        "        def blend():\n"
        "            return batched_power_iteration(m, s)\n"
        "        return blend()\n"
        "iterate(op, s, d, m, None, rule)\n"
    )
    assert callers(tree, EQ4_LOOPS) == [
        "<module> -> iterate",
        "Ranker.rank.blend -> batched_power_iteration",
        "objectrank -> iterate",
        "rank -> iterate",
    ]
    assert callers(tree, {"RankedResult"}) == ["objectrank -> RankedResult"]


# -- explaining runs compiled: one kernel-or-numpy choice per stage ---------------

#: Stage -> (the names through which its compiled kernel is reached, the numpy
#: path that runs without it).  Outside ``_native`` itself only
#: ``explain/batch.py`` may say a kernel name, and there one function per
#: stage says both: that function is where the choice is made.
EXPLAIN_STAGES = {
    "extraction": (
        {"bind_subgraph_kernel", "SubgraphKernel", "subgraph_mark", "subgraph_emit"},
        "extract",
    ),
    "adjustment": ({"flow_fixpoints", "flow_fixpoint"}, "_iterate_segments"),
}
EXPLAIN_KERNEL_NAMES = set().union(*(names for names, _ in EXPLAIN_STAGES.values()))


def names_by_function(tree: ast.AST) -> dict[str, set[str]]:
    """Innermost enclosing function -> every name and attribute it says."""
    found: dict[str, set[str]] = {}

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.setdefault(child.name, set())
                visit(child, child.name)
                continue
            name = getattr(child, "attr", getattr(child, "id", None))
            if function and isinstance(child, (ast.Name, ast.Attribute)):
                found[function].add(name)
            visit(child, function)

    visit(tree, None)
    return found


def explain_choices(tree: ast.AST) -> dict[str, tuple[list[str], list[str]]]:
    """Stage -> (functions naming its kernel, functions naming its numpy path)."""
    said = names_by_function(tree)
    return {
        stage: (
            sorted(f for f, names in said.items() if names & kernel),
            sorted(f for f, names in said.items() if numpy in names),
        )
        for stage, (kernel, numpy) in EXPLAIN_STAGES.items()
    }


def test_each_explain_stage_chooses_its_kernel_in_one_function():
    speakers = sorted(
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if path.relative_to(SRC).as_posix() != "ranking/_native.py"
        and any(
            names & EXPLAIN_KERNEL_NAMES
            for names in names_by_function(
                ast.parse(path.read_text(encoding="utf-8"))
            ).values()
        )
    )
    assert speakers == ["explain/batch.py"]
    tree = ast.parse((SRC / "explain" / "batch.py").read_text(encoding="utf-8"))
    assert explain_choices(tree) == {
        "extraction": (["extract_many"], ["extract_many"]),
        "adjustment": (["batched_adjust_flows"], ["batched_adjust_flows"]),
    }


def test_the_guard_sees_a_second_chooser_and_a_split_choice():
    tree = ast.parse(
        "def extract_many(self, work):\n"
        "    kernel = _native.bind_subgraph_kernel(self.graph, base)\n"
        "    return [self.extract(t, work) for t in targets] if kernel is None else []\n"
        "def explain_again(graph):\n"
        "    return _native.bind_subgraph_kernel(graph, base)\n"
        "def batched_adjust_flows(segments):\n"
        "    found = _native.flow_fixpoints(operators, targets, 1e-4, 100)\n"
        "def fallback(segments):\n"
        "    def step():\n"
        "        _iterate_segments(segments, 1e-4, 100)\n"
    )
    assert explain_choices(tree) == {
        "extraction": (["explain_again", "extract_many"], ["extract_many"]),
        "adjustment": (["batched_adjust_flows"], ["step"]),
    }


# -- one measuring system: only the end-to-end harness reads a clock -------------

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def clock_readers(benchmarks: Path) -> list[str]:
    """Modules under ``benchmarks`` outside ``e2e/`` that import ``time``."""
    return sorted(
        path.relative_to(benchmarks).as_posix()
        for path in benchmarks.rglob("*.py")
        if path.relative_to(benchmarks).parts[0] != "e2e"
        and any(module == "time" for module, _name in imports_of(path))
    )


def test_only_the_end_to_end_harness_times_anything():
    """The paper's figures read ``IterationTiming``; every other number is the
    end-to-end harness's.  A stopwatch beside them is a second measuring
    system."""
    assert BENCHMARKS.is_dir()
    assert clock_readers(BENCHMARKS) == []


def test_the_guard_sees_a_stopwatch_outside_the_harness(tmp_path):
    (tmp_path / "e2e").mkdir()
    (tmp_path / "e2e" / "harness.py").write_text("import time\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "deep.py").write_text("def f():\n    import time\n")
    (tmp_path / "bench_a.py").write_text("from time import perf_counter\n")
    (tmp_path / "bench_b.py").write_text("import timeit, datetime\n")
    assert clock_readers(tmp_path) == ["bench_a.py", "sub/deep.py"]


# -- the typed wire boundary: raw request values never reach the service ----------

#: Raw reads of a request: the JSON body's ``get``/subscript and the
#: query-string accessor of the old GET route.
RAW_BODY_NAMES = {"body", "params"}
RAW_ACCESSORS = {"one"}
#: Builtin casts: they bound the type at best (``bool("false")`` is True).
CASTS = {"bool", "int", "float", "str", "list", "tuple"}


def _raw_read(node: ast.AST) -> bool:
    """``body.get(...)``, ``body[...]`` or ``one(...)``, bare or cast."""
    if isinstance(node, ast.Subscript):
        return isinstance(node.value, ast.Name) and node.value.id in RAW_BODY_NAMES
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name) and func.id in CASTS:
        return len(node.args) == 1 and _raw_read(node.args[0])
    if isinstance(func, ast.Name):
        return func.id in RAW_ACCESSORS
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "get"
        and isinstance(func.value, ast.Name)
        and func.value.id in RAW_BODY_NAMES
    )


def raw_service_arguments(source: str) -> list[str]:
    """Arguments of ``self.service.<endpoint>(...)`` calls that are a raw
    read, or a local assigned from one, as ``line:endpoint``."""
    offenders = []
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        raw_locals = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Assign):
                values = (
                    node.value.elts
                    if isinstance(node.value, ast.Tuple)
                    else [node.value] * len(node.targets)
                )
                targets = (
                    node.targets[0].elts
                    if len(node.targets) == 1 and isinstance(node.targets[0], ast.Tuple)
                    else node.targets
                )
                for target, value in zip(targets, values):
                    if isinstance(target, ast.Name) and _raw_read(value):
                        raw_locals.add(target.id)
        for node in ast.walk(function):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and ast.unparse(node.func.value) == "self.service"
            ):
                continue
            arguments = list(node.args) + [keyword.value for keyword in node.keywords]
            for argument in arguments:
                if _raw_read(argument) or (
                    isinstance(argument, ast.Name) and argument.id in raw_locals
                ):
                    offenders.append(f"{node.lineno}:{node.func.attr}")
    return offenders


def wire_readers(serve: Path) -> list[str]:
    """``parse_qs`` / ``.rfile`` outside ``http_server.py``, and ``json.loads``
    in ``http_server.py`` outside ``_read_json_body``."""
    offenders = []
    for path in sorted(serve.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside_body_reader = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_read_json_body":
                inside_body_reader |= {id(inner) for inner in ast.walk(node)}
        for node in ast.walk(tree):
            said = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias)
                else None
            )
            line = getattr(node, "lineno", 0)
            if said in ("parse_qs", "rfile") and path.name != "http_server.py":
                offenders.append(f"{path.name}:{line} {said}")
            if (
                path.name == "http_server.py"
                and isinstance(node, ast.Attribute)
                and ast.unparse(node) == "json.loads"
                and id(node) not in inside_body_reader
            ):
                offenders.append(f"{path.name}:{line} json.loads")
    return offenders


def test_every_value_the_service_gets_comes_out_of_a_typed_parser():
    """A raw ``body.get(...)`` handed to the service is how a list-valued
    ``dataset`` became a 500 and ``"apply": "false"`` applied the rates."""
    source = (SRC / "serve" / "http_server.py").read_text(encoding="utf-8")
    assert raw_service_arguments(source) == []


def test_the_request_is_read_only_by_the_wire_layer():
    assert wire_readers(SRC / "serve") == []


def test_the_guards_see_a_raw_argument_and_a_second_reader(tmp_path):
    planted = (
        "def _explain(self, body):\n"
        "    target = body['target']\n"
        "    dataset, query = body.get('dataset'), _query(body)\n"
        "    return self.service.explain(\n"
        "        dataset, query, target,\n"
        "        mode=body.get('mode'),\n"
        "        max_edges=_optional_int(body, 'max_edges'),\n"
        "        apply=bool(body.get('apply', True)),\n"
        "    )\n"
        "def _search(self, parsed):\n"
        "    return self.service.search(one('dataset'), one('q'))\n"
    )
    assert raw_service_arguments(planted) == [
        "4:explain", "4:explain", "4:explain", "4:explain", "11:search", "11:search",
    ]
    (tmp_path / "http_server.py").write_text(
        "import json\n"
        "def _read_json_body(self):\n"
        "    return json.loads(self.read_body())\n"
        "def _other(self, data):\n"
        "    return json.loads(data)\n"
    )
    (tmp_path / "cluster.py").write_text(
        "from urllib.parse import parse_qs\n"
        "def peek(self):\n"
        "    return self.rfile.read(1)\n"
    )
    assert wire_readers(tmp_path) == [
        "cluster.py:1 parse_qs", "cluster.py:3 rfile", "http_server.py:5 json.loads",
    ]


# -- rates are values: no lazily built structure is ever reset -----------------


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _latch_sites(tree: ast.AST):
    """``(guard, X)`` for each lazy build: ``if self.X is None:`` around
    ``self.X = ...``."""
    for node in ast.walk(tree):
        test = getattr(node, "test", None)
        if not (
            isinstance(node, ast.If)
            and isinstance(test, ast.Compare)
            and isinstance(test.ops[0], ast.Is)
            and _is_none(test.comparators[0])
            and ast.unparse(test.left).startswith("self.")
        ):
            continue
        latch = ast.unparse(test.left)
        if any(
            isinstance(inner, ast.Assign)
            and latch in {ast.unparse(target) for target in inner.targets}
            for stmt in node.body
            for inner in ast.walk(stmt)
        ):
            yield node, test.left.attr


def _lazy_latches(tree: ast.AST) -> set[str]:
    """Attributes built lazily."""
    return {latch for _guard, latch in _latch_sites(tree)}


def _self_attributes(tree: ast.AST, context: type) -> list[ast.Attribute]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, context)
        and ast.unparse(node.value) == "self"
    ]


def latch_resets(src: Path) -> list[str]:
    """``file:line target`` for every ``<obj>.X = None`` outside ``__init__``
    / ``__post_init__`` where ``X`` is a lazily built attribute anywhere
    under ``src``.  A reset is how a view inherited its parent's structure
    and then had to forget it; ``.clear()`` on a ``BuildCache`` /
    ``ResultCache`` is not one (their reads rebuild or miss)."""
    trees = {
        path.relative_to(src).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(src.rglob("*.py"))
    }
    latches = set().union(*map(_lazy_latches, trees.values()))
    offenders = []
    for name, tree in trees.items():
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef) or function.name in (
                "__init__", "__post_init__",
            ):
                continue
            offenders += [
                f"{name}:{node.lineno} {ast.unparse(target)}"
                for node in ast.walk(function)
                if isinstance(node, ast.Assign) and _is_none(node.value)
                for target in node.targets
                if isinstance(target, ast.Attribute) and target.attr in latches
            ]
    return sorted(set(offenders))


def test_no_lazily_built_structure_is_reset():
    """Rates are values: a view under new rates owns new per-rate
    structures, so nothing built on first use is ever dropped again."""
    assert latch_resets(SRC) == []


def test_the_guard_sees_a_reset_latch(tmp_path):
    (tmp_path / "graph.py").write_text(
        "class Graph:\n"
        "    def __init__(self):\n"
        "        self._matrix = None\n"
        "        self._cache = BuildCache(1)\n"
        "    def matrix(self):\n"
        "        if self._matrix is None:\n"
        "            self._matrix = build()\n"
        "        return self._matrix\n"
        "    def _recompute_rates(self):\n"
        "        self._cache.clear()\n"
        "        self._matrix = None\n"
    )
    (tmp_path / "view.py").write_text(
        "def rebound(graph, view):\n"
        "    view._matrix = None\n"
        "    view._other = None\n"
    )
    assert latch_resets(tmp_path) == [
        "graph.py:11 self._matrix", "view.py:2 view._matrix",
    ]


def latch_inputs_reassigned(src: Path) -> list[str]:
    """``file:line Class.method self.Y`` for each assignment, outside
    ``__init__`` / ``__post_init__``, to an attribute ``Y`` that a lazy
    build of the same class reads: the built value would outlive its input."""
    offenders = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            inputs = {
                read.attr
                for guard, latch in _latch_sites(cls)
                for read in _self_attributes(guard, ast.Load)
                if read.attr != latch
            }
            offenders += [
                f"{path.relative_to(src).as_posix()}:{write.lineno} "
                f"{cls.name}.{method.name} self.{write.attr}"
                for method in cls.body
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                and method.name not in ("__init__", "__post_init__")
                for write in _self_attributes(method, ast.Store)
                if write.attr in inputs
            ]
    return offenders


def test_no_lazy_build_reads_an_attribute_assigned_after_construction():
    """A lazy build is a value of its inputs only while they never change:
    ``SearchEngine.transfer_view`` once kept its transfer graph after the
    rates it baked in were replaced."""
    assert latch_inputs_reassigned(SRC) == []


def test_the_guard_sees_a_latch_input_reassigned(tmp_path):
    (tmp_path / "engine.py").write_text(
        "class SearchEngine:\n"
        "    def __init__(self, graph, rates):\n"
        "        self.graph, self.rates = graph, rates\n"
        "        self._transfer_graph = None\n"
        "    def transfer_view(self):\n"
        "        if self._transfer_graph is None:\n"
        "            self._transfer_graph = build(self.graph, self.rates)\n"
        "        return self._transfer_graph\n"
        "    def set_rates(self, rates):\n"
        "        self.rates = rates\n"
        "class Other:\n"
        "    def set_rates(self, rates):\n"
        "        self.rates = rates\n"
    )
    assert latch_inputs_reassigned(tmp_path) == [
        "engine.py:10 SearchEngine.set_rates self.rates",
    ]


# -- no float is compared exactly: no ==/!= against a float literal -------------


def _float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def float_equalities(src: Path) -> list[str]:
    """``file:line`` of every ``==`` / ``!=`` with a float literal on a side."""
    offenders = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            offenders += [
                f"{path.relative_to(src).as_posix()}:{node.lineno}"
                for op, left, right in zip(node.ops, operands, operands[1:])
                if isinstance(op, (ast.Eq, ast.NotEq))
                and (_float_literal(left) or _float_literal(right))
            ]
    return offenders


def test_no_float_is_compared_with_a_float_literal():
    """An accumulated weight rarely lands on a literal: ``total == 0.0``
    misses the subnormal sum it then divides by.  The code states the
    intent with an inequality (``total <= 0.0``) or a tolerance."""
    assert float_equalities(SRC) == []


def test_the_guard_sees_a_float_equality(tmp_path):
    (tmp_path / "a.py").write_text(
        "if total == 0.0:\n"
        "    pass\n"
        "fine = count == 0 or x <= 0.0 or y is None\n"
        "flipped = -1.0 != x\n"
        "chained = a == b == 0.5\n"
    )
    assert float_equalities(tmp_path) == ["a.py:1", "a.py:4", "a.py:5"]


# -- every fixpoint is capped: a residual loop tests max_iterations ------------

_RESIDUAL_NAMES = ("residual", "tolerance", "converged")


def _names_in(node: ast.AST) -> set[str]:
    return {
        inner.id if isinstance(inner, ast.Name) else inner.attr
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Name, ast.Attribute))
    }


def uncapped_residual_loops(src: Path) -> list[str]:
    """``file:line`` of every ``while`` whose test or body reads a
    residual, tolerance or ``converged`` name without ``max_iterations``
    in its test."""
    offenders = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.While):
                continue
            read = set().union(*map(_names_in, [node.test, *node.body]))
            if any(word in name for name in read for word in _RESIDUAL_NAMES) and (
                "max_iterations" not in _names_in(node.test)
            ):
                offenders.append(f"{path.relative_to(src).as_posix()}:{node.lineno}")
    return offenders


def test_every_residual_loop_is_capped_in_its_test():
    """With ``check_max_iterations`` at every entry, a capped test is what
    makes each fixpoint end when the update stops contracting."""
    assert uncapped_residual_loops(SRC) == []


def test_the_guard_sees_an_uncapped_residual_loop(tmp_path):
    (tmp_path / "loop.py").write_text(
        "def iterate(x, tolerance, max_iterations):\n"
        "    residual = 1.0\n"
        "    while residual > tolerance:\n"
        "        x, residual = step(x)\n"
        "    steps = 0\n"
        "    while steps < max_iterations and residual > tolerance:\n"
        "        x, residual = step(x)\n"
        "        steps += 1\n"
        "    while frontier:\n"
        "        frontier = expand(frontier)\n"
        "    return x\n"
    )
    assert uncapped_residual_loops(tmp_path) == ["loop.py:3"]


# -- raw buffer access stays in the storage modules ----------------------------

_RAW_BUFFER = {"frombuffer", "mmap", "madvise", "struct", "seek"}

#: Where raw buffers may be read: the slab container and the score store's
#: string packing.
_RAW_BUFFER_HOMES = {
    "storage/slab.py": None,
    "store/format.py": None,
}


def raw_buffer_users(src: Path) -> list[str]:
    """``file:line name`` of every ``np.frombuffer``, ``mmap``, ``madvise``,
    ``struct`` or ``.seek`` use outside :data:`_RAW_BUFFER_HOMES` (a home naming a
    function allows it there only)."""
    offenders = []
    for path in sorted(src.rglob("*.py")):
        name = path.relative_to(src).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if name in _RAW_BUFFER_HOMES:
            home = _RAW_BUFFER_HOMES[name]
            allowed = {
                id(inner)
                for node in ast.walk(tree)
                if home is None
                or isinstance(node, ast.FunctionDef) and node.name == home
                for inner in ast.walk(node)
            }
        for node in ast.walk(tree):
            used = {
                ast.Attribute: lambda n: {n.attr},
                ast.Name: lambda n: {n.id},
                ast.Import: lambda n: {a.name.split(".")[0] for a in n.names},
                ast.ImportFrom: lambda n: {(n.module or "").split(".")[0]}
                | {a.name for a in n.names},
            }.get(type(node), lambda n: set())(node) & _RAW_BUFFER
            if used and id(node) not in allowed:
                offenders += [f"{name}:{node.lineno} {word}" for word in sorted(used)]
    return offenders


def test_raw_buffer_access_stays_in_the_storage_modules():
    """Every offset the process maps is checked where it is read
    (``SlabFile`` and ``ScoreStore``); nothing else slices raw bytes."""
    assert raw_buffer_users(SRC) == []


def test_the_guard_sees_a_frombuffer_in_serve(tmp_path):
    (tmp_path / "serve").mkdir()
    (tmp_path / "serve" / "peek.py").write_text(
        "import numpy as np\n"
        "def peek(blob):\n"
        "    return np.frombuffer(blob, dtype=np.uint8)\n"
    )
    (tmp_path / "ranking").mkdir()
    (tmp_path / "ranking" / "_native.py").write_text(
        "def slab_empty(size):\n"
        "    buf = mmap(-1, size)\n"
        "    libc.madvise(buf, size, 14)\n"
        "    return buf\n"
    )
    assert raw_buffer_users(tmp_path) == [
        "ranking/_native.py:2 mmap",
        "ranking/_native.py:3 madvise",
        "serve/peek.py:3 frombuffer",
    ]


# -- the store path copies no section ------------------------------------------

#: The packages whose arrays are store-sized: the slab container and the
#: score store.
_STORE_PACKAGES = ("storage", "store")


def section_copies(src: Path) -> list[str]:
    """``file:line`` of every ``.tobytes()`` call and every ``zlib.crc32``
    over a subscript under :data:`_STORE_PACKAGES`.  Either one copies what
    it reads: a slice of an mmap is ``bytes``, ``tobytes`` is a copy by
    definition.  A plain slice of the mapping (the fixed header, the header
    JSON) is not flagged: its size is the header's, not a section's."""
    offenders = []
    for package in _STORE_PACKAGES:
        for path in sorted((src / package).rglob("*.py")):
            name = path.relative_to(src).as_posix()
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call) or not isinstance(
                    node.func, ast.Attribute
                ):
                    continue
                if node.func.attr == "tobytes":
                    offenders.append((name, node.lineno, "tobytes"))
                elif node.func.attr == "crc32" and any(
                    isinstance(inner, ast.Subscript)
                    for argument in node.args[:1]
                    for inner in ast.walk(argument)
                ):
                    offenders.append((name, node.lineno, "crc32 over a subscript"))
    return [f"{name}:{line} {what}" for name, line, what in sorted(offenders)]


def test_the_store_path_copies_no_section():
    """``verify`` checksums a memoryview of the mapping and ``write_slab``
    the array's own buffer; nothing under storage/ or store/ copies one."""
    assert section_copies(SRC) == []


def test_the_guard_sees_a_section_copy(tmp_path):
    for package in (*_STORE_PACKAGES, "serve"):
        (tmp_path / package).mkdir()
    (tmp_path / "storage" / "slab.py").write_text(
        "import zlib\n"
        "def verify(self, start, end):\n"
        "    header = self._mmap[:24]\n"
        "    crc = zlib.crc32(header)\n"
        "    return zlib.crc32(self._mmap[start:end]) == crc\n"
    )
    (tmp_path / "store" / "format.py").write_text(
        "def write(handle, array):\n"
        "    handle.write(array.tobytes())\n"
        "    return zlib.crc32(bytes(array[1:]))\n"
    )
    (tmp_path / "serve" / "wire.py").write_text(
        "def body(array):\n"
        "    return array.tobytes()\n"
    )
    assert section_copies(tmp_path) == [
        "storage/slab.py:5 crc32 over a subscript",
        "store/format.py:2 tobytes",
        "store/format.py:3 crc32 over a subscript",
    ]


# -- the paper's loop stays in arrays: no id bounce on the request path ----------

#: The request-path functions of Equations 2-4 and 11-14, by source file and
#: dotted scope.  Their base sets and term weights are arrays; none of them
#: turns one into ids and back.
ARRAY_PATH = {
    "ranking/objectrank2.py": {"objectrank2"},
    "ranking/core.py": {"weighted_restarts"},
    "reformulate/content.py": {"ContentReformulator.expansion_terms"},
}
#: Calls that bounce through ids or Python lists: a lookup per id, a dict
#: laid out by id, an array to a list, a dict zipped from two sequences.
ID_BOUNCES = {"indices_of", "restart_vector", "tolist"}
#: Eq. 13 and the store's rate check read the rate vector and the names
#: computed once per schema ...
RATE_VECTOR_PATH = {
    "reformulate/structure.py": {
        "StructureReformulator.reformulate",
        "StructureReformulator.flow_factors",
    },
    "store/format.py": {"ScoreStore.matches_rates"},
}
#: ... and never turn them back into per-type lookups, lists or strings.
RATE_BOUNCES = {"rate", "edge_types", "as_vector", "str", "tolist"}


def id_bounces(tree: ast.AST, functions: set[str], calls=ID_BOUNCES) -> list[str]:
    """``scope -> call`` for every id bounce (a call named in ``calls``, or
    ``dict(zip(...))``) inside one of ``functions``."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call) and any(
                scope == f or scope.startswith(f"{f}.") for f in functions
            ):
                name = getattr(child.func, "attr", getattr(child.func, "id", None))
                if name in calls:
                    found.append(f"{scope} -> {name}")
                elif name == "dict" and any(
                    isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "zip"
                    for arg in child.args
                ):
                    found.append(f"{scope} -> dict(zip)")
            visit(child, scope)

    visit(tree, "")
    return sorted(found)


def _bounces(paths: dict[str, set[str]], calls: set[str]) -> list[str]:
    offenders = []
    for path, functions in paths.items():
        tree = ast.parse((SRC / path).read_text(encoding="utf-8"))
        defined = set(_scopes(tree))
        assert functions <= defined, f"{path} no longer defines {functions - defined}"
        offenders += [f"{path}:{call}" for call in id_bounces(tree, functions, calls)]
    return offenders


def test_the_loop_never_bounces_through_ids():
    """Direction 19: ordinals -> node indices -> restart column, and the
    aggregated term arrays -> top-Z, with no id dict in between."""
    assert _bounces(ARRAY_PATH, ID_BOUNCES) == []


def test_the_rates_stay_one_vector():
    """Eq. 13's steps and the store's rate check are array expressions over
    ``AuthorityTransferSchemaGraph.vector``: no per-type ``rate`` lookup, no
    ``edge_types``/``as_vector`` list, no ``str`` of an edge type."""
    assert _bounces(RATE_VECTOR_PATH, RATE_BOUNCES) == []


def test_the_guard_sees_every_rate_bounce():
    tree = ast.parse(
        "class StructureReformulator:\n"
        "    def flow_factors(self, explanations):\n"
        "        return dict(zip(types, factors.tolist()))\n"
        "    def reformulate(self, schema, explanations):\n"
        "        rates = [schema.rate(t) for t in schema.edge_types()]\n"
        "        return schema.with_vector(schema.as_vector())\n"
        "class ScoreStore:\n"
        "    def matches_rates(self, rates):\n"
        "        return [str(t) for t in rates.types] == self.edge_types\n"
        "def elsewhere(schema):\n"
        "    return schema.as_vector()\n"
    )
    functions = set().union(*RATE_VECTOR_PATH.values())
    assert id_bounces(tree, functions, RATE_BOUNCES) == [
        "ScoreStore.matches_rates -> str",
        "StructureReformulator.flow_factors -> dict(zip)",
        "StructureReformulator.flow_factors -> tolist",
        "StructureReformulator.reformulate -> as_vector",
        "StructureReformulator.reformulate -> edge_types",
        "StructureReformulator.reformulate -> rate",
    ]


def _scopes(tree: ast.AST) -> list[str]:
    scopes = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
                scopes.append(inner)
                visit(child, inner)

    visit(tree, "")
    return scopes


def test_the_guard_sees_every_id_bounce():
    tree = ast.parse(
        "def weighted_restarts(graph, bases):\n"
        "    for base in bases:\n"
        "        row = graph.restart_vector(base)\n"
        "        nodes = graph.indices_of(list(base))\n"
        "class ContentReformulator:\n"
        "    def expansion_terms(self, vector, explanations):\n"
        "        def name(ids):\n"
        "            return [vocabulary[i] for i in ids.tolist()]\n"
        "        raw = dict(zip(name(keys), weights))\n"
        "    def term_weights(self, explanation):\n"
        "        return dict(zip(terms, weights.tolist()))\n"
        "def objectrank2(graph, scorer, vector):\n"
        "    return dict(zip(ids, weights))\n"
    )
    functions = {"objectrank2", "weighted_restarts", "ContentReformulator.expansion_terms"}
    assert id_bounces(tree, functions) == [
        "ContentReformulator.expansion_terms -> dict(zip)",
        "ContentReformulator.expansion_terms.name -> tolist",
        "objectrank2 -> dict(zip)",
        "weighted_restarts -> indices_of",
        "weighted_restarts -> restart_vector",
    ]


# -- node text is tokenised once, by the inverted index --------------------------

#: The analyzer's entry points.
TOKENISERS = {"terms", "unique_terms", "tokenize"}
#: The modules that may call them, and what each tokenises.
TOKENISER_HOMES = {
    "ir/index.py": "node text, once per document: every term table reads it",
    "ir/tokenize.py": "the analyzer itself",
    "query/query.py": "query keywords, not node text",
    "datasets/subset.py": "a keyword's seed nodes while a corpus is derived, "
    "before the corpus has an index",
}


def tokenising_calls(src: Path) -> list[str]:
    """``module:line name`` of every call to a tokeniser outside its homes."""
    found = []
    for path in sorted(src.rglob("*.py")):
        module = path.relative_to(src).as_posix()
        if module in TOKENISER_HOMES:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in TOKENISERS:
                    found.append(f"{module}:{node.lineno} {name}")
    return found


def test_only_the_index_tokenises_node_text():
    """Eq. 11's node-term table is read off the index
    (``repro.reformulate.terms``): nothing under ``reformulate`` — or
    anywhere else outside the listed homes — runs the analyzer."""
    assert tokenising_calls(SRC) == []
    assert (SRC / "reformulate").is_dir()


def test_the_guard_sees_a_tokenising_reformulator(tmp_path):
    (tmp_path / "reformulate").mkdir()
    (tmp_path / "ir").mkdir()
    (tmp_path / "reformulate" / "terms.py").write_text(
        "def build(graph, analyzer):\n"
        "    for node in graph.nodes():\n"
        "        yield analyzer.unique_terms(node.text())\n"
        "        yield tokenize(node.text())\n"
    )
    (tmp_path / "reformulate" / "content.py").write_text(
        "def weights(self, text):\n    return self.analyzer.terms(text)\n"
    )
    (tmp_path / "ir" / "index.py").write_text(
        "def add(self, text):\n    return self.analyzer.terms(text)\n"
    )
    assert tokenising_calls(tmp_path) == [
        "reformulate/content.py:2 terms",
        "reformulate/terms.py:3 unique_terms",
        "reformulate/terms.py:4 tokenize",
    ]


# -- serving rates are set once: no request changes a runtime's rates ------------


def _names_rates(name: str) -> bool:
    return name == "rates" or name.endswith("_rates")


def rates_writes(serve: Path) -> list[str]:
    """``file:line`` of every write to an attribute named ``rates`` or
    ``*_rates`` under ``serve`` (an assignment, augmented or annotated, an
    unpacking target or a ``setattr``), except ``self.rates = ...`` in
    ``DatasetRuntime.__init__``: the rates a feedback session learns stay in
    its response."""
    offenders = []
    for path in sorted(serve.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(target)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "DatasetRuntime"
            for init in cls.body
            if isinstance(init, ast.FunctionDef) and init.name == "__init__"
            for target in ast.walk(init)
            if isinstance(target, ast.Attribute)
            and ast.unparse(target.value) == "self"
        }
        lines = []
        for node in ast.walk(tree):
            written = (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and _names_rates(node.attr)
                and id(node) not in allowed
            ) or (
                isinstance(node, ast.Call)
                and _dotted(node.func) in ("setattr", "delattr")
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and _names_rates(str(node.args[1].value))
            )
            if written:
                lines.append(node.lineno)
        module = path.relative_to(serve).as_posix()
        offenders.extend(f"{module}:{line}" for line in sorted(lines))
    return offenders


def test_only_the_runtime_constructor_sets_the_serving_rates():
    assert rates_writes(SRC / "serve") == []


def test_the_guard_sees_a_feedback_handler_that_serves_learned_rates(tmp_path):
    (tmp_path / "service.py").write_text(
        "class DatasetRuntime:\n"
        "    def __init__(self, dataset):\n"
        "        self.rates = dataset.transfer_schema\n"
        "    def apply_rates(self, learned):\n"
        "        self.current_rates = learned\n"
        "class QueryService:\n"
        "    def feedback_reformulate(self, runtime, learned):\n"
        "        runtime.rates = learned\n"
        "        runtime.rates, other = learned, None\n"
        "        setattr(runtime, 'rates', learned)\n"
        "        plan.rates: object = learned\n"
    )
    assert rates_writes(tmp_path) == [
        "service.py:5", "service.py:8", "service.py:9", "service.py:10", "service.py:11",
    ]
