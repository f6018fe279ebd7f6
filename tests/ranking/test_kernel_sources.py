"""The compiled kernels' C sources against the Python that builds and
calls them, read without a compiler: every exported prototype matches the
``argtypes`` the loader declares, and every source ships as package data.
"""

from __future__ import annotations

import ast
import ctypes
import fnmatch
import re
from pathlib import Path

import numpy as np
import pytest

from repro.ranking import _native

ROOT = Path(__file__).resolve().parents[2]
KERNELS = Path(_native._KERNELS)

#: C parameter types by the kind ctypes passes them as.
SCALARS = {"int64_t": "int64", "double": "double"}
POINTEES = {
    "int32_t": np.int32, "int64_t": np.int64, "double": np.float64,
    "uint8_t": np.uint8, "uintptr_t": np.uintp,
}


def prototypes(source: str) -> dict[str, list[str]]:
    """Exported (non-static) ``void`` function -> its parameter declarations."""
    found = {}
    for match in re.finditer(r"^void\s+(\w+)\s*\(([^)]*)\)\s*\{", source, re.M):
        found[match.group(1)] = [
            " ".join(part.split()) for part in match.group(2).split(",")
        ]
    return found


def c_kind(parameter: str) -> tuple[str, object]:
    """``("pointer", dtype)`` or ``(scalar kind, None)`` of a declaration."""
    words = parameter.replace("*", " * ").split()
    base = [word for word in words if word not in ("const", "*")][0]
    if "*" in words:
        return "pointer", POINTEES[base]
    return SCALARS[base], None


def ctypes_kind(argtype) -> tuple[str, object]:
    if issubclass(argtype, ctypes.c_void_p):  # raw address or ndpointer
        return "pointer", getattr(argtype, "_dtype_", None)
    return {ctypes.c_int64: "int64", ctypes.c_double: "double"}[argtype], None


def test_every_kernel_signature_matches_its_prototype():
    exported = {}
    for source in sorted(KERNELS.glob("*.c")):
        exported.update(prototypes(source.read_text(encoding="utf-8")))
    assert sorted(exported) == sorted(_native._SIGNATURES) == [
        "blocked_step", "flow_fixpoint", "sell_step", "subgraph_emit", "subgraph_mark",
    ]
    for name, parameters in exported.items():
        declared = [ctypes_kind(argtype) for argtype in _native._SIGNATURES[name]]
        expected = [c_kind(parameter) for parameter in parameters]
        assert len(declared) == len(expected), name
        for position, ((kind, dtype), (wanted, pointee)) in enumerate(
            zip(declared, expected)
        ):
            assert kind == wanted, f"{name} argument {position}"
            # An ndpointer also names its element type: it must be the C one.
            assert dtype is None or np.dtype(dtype) == np.dtype(pointee), (
                f"{name} argument {position}"
            )


def test_the_prototype_reader_sees_every_parameter():
    source = (
        "static void helper(const int64_t n) {}\n"
        "void kernel(const int64_t n, const double *x,\n"
        "            uint8_t *mask, const double d)\n{\n}\n"
    )
    (parameters,) = prototypes(source).values()
    assert [c_kind(parameter) for parameter in parameters] == [
        ("int64", None), ("pointer", np.float64), ("pointer", np.uint8),
        ("double", None),
    ]


def package_data(pyproject: str) -> dict[str, list[str]]:
    """``[tool.setuptools.package-data]`` of a pyproject (read by hand: no
    TOML parser ships with Python 3.10)."""
    section, found = None, {}
    for line in pyproject.splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[tool.setuptools.package-data]" and "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            found[ast.literal_eval(key)] = ast.literal_eval(value)
    return found


@pytest.mark.parametrize(
    "path", sorted(KERNELS.iterdir()), ids=lambda path: path.name
)
def test_every_kernel_source_ships_as_package_data(path):
    declared = package_data((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    package = ROOT / "src" / "repro" / "ranking"
    relative = path.relative_to(package).as_posix()
    assert any(
        fnmatch.fnmatch(relative, pattern)
        for pattern in declared.get("repro.ranking", [])
    ), f"{relative} is not package data of repro.ranking in pyproject.toml"
