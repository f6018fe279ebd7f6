"""Quality gates on the public API surface.

* every name exported through ``__all__`` must resolve;
* every public module, class and function must carry a docstring;
* package ``__all__`` lists must be sorted (scan-friendly).
"""

import importlib
import inspect
import pkgutil

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

#: The linter is a sibling of ``repro``; its root module is held to the same
#: docstrings.
LINT_PACKAGE = "repro_lint"


def all_modules():
    names = set(PACKAGES) | {LINT_PACKAGE}
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
