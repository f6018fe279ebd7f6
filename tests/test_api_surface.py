"""Quality gates on the public API surface.

* every name exported through ``__all__`` must resolve;
* every public module, class and function must carry a docstring;
* package ``__all__`` lists must be sorted (scan-friendly);
* every Sphinx cross-reference to a ``repro.`` dotted name in the source
  must resolve by import.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.datasets",
    "repro.explain",
    "repro.feedback",
    "repro.graph",
    "repro.ingest",
    "repro.ir",
    "repro.query",
    "repro.ranking",
    "repro.reformulate",
    "repro.retrieval",
    "repro.serve",
    "repro.storage",
    "repro.store",
]

def all_modules():
    names = set(PACKAGES)
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                names.add(f"{package_name}.{info.name}")
    return sorted(names)


@pytest.mark.parametrize("module_name", all_modules())
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_exports_resolve_and_sorted(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", None)
    assert exported is not None, f"{package_name} has no __all__"
    for name in exported:
        assert hasattr(package, name), f"{package_name}.{name} does not resolve"
    assert list(exported) == sorted(exported), f"{package_name}.__all__ not sorted"


@pytest.mark.parametrize("module_name", all_modules())
def test_public_callables_documented(module_name):
    """Classes and module-level functions need docstrings.

    Methods are exempt: forcing a docstring onto ``DataGraph.node`` would
    produce exactly the "what the next line does" noise the code style
    guide bans.
    """
    module = importlib.import_module(module_name)
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-export; documented at its home
        if not inspect.getdoc(obj):
            undocumented.append(name)
    assert not undocumented, f"{module_name}: undocumented public items {undocumented}"


#: A Sphinx Python-role reference to a ``repro.`` dotted name, ``~`` or not.
CROSS_REFERENCE = re.compile(
    r":(?:func|class|meth|mod|attr|data|exc):`~?(repro(?:\.\w+)+)`"
)


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute path inside the
    longest importable module prefix of it."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:]:
            if not hasattr(found, name):
                return False
            found = getattr(found, name)
        return True
    return False


def unresolved_references(root: Path) -> list[str]:
    """``file:line name`` of every cross-reference under ``root`` that does
    not resolve."""
    broken = []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for match in CROSS_REFERENCE.finditer(text):
            if not resolves(match.group(1)):
                line = text.count("\n", 0, match.start()) + 1
                where = f"{path.relative_to(root).as_posix()}:{line}"
                broken.append(f"{where} {match.group(1)}")
    return broken


def test_every_cross_reference_resolves():
    """A docstring that cites a renamed or deleted function sends its reader
    nowhere."""
    assert unresolved_references(Path(repro.__file__).parent) == []


def test_the_guard_sees_a_dangling_reference(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(
        '"""See :func:`repro.ranking.pagerank.iterate` and\n'
        ':mod:`repro.ranking`, not :func:`~repro.ranking.pagerank.power_iteration`\n'
        'or :class:`repro.nowhere.Thing`."""\n'
    )
    assert unresolved_references(tmp_path) == [
        "pkg/mod.py:2 repro.ranking.pagerank.power_iteration",
        "pkg/mod.py:3 repro.nowhere.Thing",
    ]
