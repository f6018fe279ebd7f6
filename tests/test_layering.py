"""Layering guard: the search -> explain -> reformulate -> re-run loop has
one implementation, :mod:`repro.core.system`; front ends are transport; and
every module under ``src/repro`` is on that path or named with a reason.

Checked on the AST, not by importing: a lazy import inside a function would
slip past an ``import``-time check.
"""

import ast
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


# -- one execution mode: batch engines and the lint runner run in-process -------

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
    outside the analyser takes a ``validate`` switch that could skip it."""
    offenders = sorted(
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if "analysis" not in path.relative_to(SRC).parts
        and "validate" in parameter_and_field_names(path)
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
        "restricted (`within`) targets go through the extractor's mask, "
        "not the serial builder"
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

RERANK_MODULES = (("ranking", "focused.py"), ("retrieval", "engine.py"))

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
    """Sorting and duplicate-summing happen once per topology (the pattern),
    never in ``matrix()``: new rates cost one gather."""
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
    banned = ("networkx", "repro.bench", "repro.search", "repro.storage.xml_shred")
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
