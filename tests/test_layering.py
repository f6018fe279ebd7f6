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
