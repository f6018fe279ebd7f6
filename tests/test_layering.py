"""Layering guard: the search -> explain -> reformulate -> re-run loop has
one implementation, :mod:`repro.core.system`; front ends are transport.

Checked on the AST, not by importing: a lazy import inside a function would
slip past an ``import``-time check.
"""

import ast
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


def test_no_execution_mode_parameter_or_field_outside_the_cluster():
    """``workers`` means one thing: the size of the prefork serving cluster."""
    offenders = []
    for path in SRC.rglob("*.py"):
        relative = path.relative_to(SRC).as_posix()
        if relative == "serve/cluster.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                spec = node.args
                names = [
                    a.arg
                    for a in spec.posonlyargs + spec.args + spec.kwonlyargs
                ]
            elif isinstance(node, ast.ClassDef):
                names = [
                    item.target.id
                    for item in node.body
                    if isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                ]
            offenders.extend(
                (relative, name) for name in names if name in EXECUTION_MODE_NAMES
            )
    assert offenders == []


# -- IR scores come from postings columns, not one scorer call per document -----

#: Where a per-document scalar-scorer loop would put the interpreter back on
#: the live read path (``repro.ir.scoring`` itself defines the scalar forms;
#: ``repro.feedback`` and ``repro.search`` are offline baselines).
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
