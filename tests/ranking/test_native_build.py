"""The compiled kernels' build directory is removed on every path.

Each process compiles the kernels once, in a fresh temporary directory; a
mapped library outlives its file, so nothing there is needed once the
build has been loaded or has failed.
"""

from __future__ import annotations

import ctypes
import shutil

import pytest

from repro.ranking import _native


@pytest.fixture
def build_dir(tmp_path, monkeypatch):
    """Where ``_compile`` builds, in place of a fresh ``repro-native-*``."""
    made = tmp_path / "repro-native-build"

    def mkdtemp(prefix=""):
        made.mkdir()
        return str(made)

    monkeypatch.setattr(_native.tempfile, "mkdtemp", mkdtemp)
    return made


@pytest.mark.skipif(
    not (shutil.which("cc") or shutil.which("gcc")), reason="no C compiler"
)
def test_a_real_build_leaves_no_directory(build_dir):
    library = _native._compile()
    assert build_dir.parent.exists() and not build_dir.exists()
    if library is not None:  # still mapped, and callable, without its file
        assert library.blocked_step is not None


def test_a_failed_build_leaves_no_directory(build_dir, monkeypatch):
    monkeypatch.setattr(_native, "_side_by_side", lambda commands: False)
    assert _native._compile() is None
    assert not build_dir.exists()


def test_an_unloadable_library_leaves_no_directory(build_dir, monkeypatch):
    def refuse(path):
        raise OSError(f"cannot load {path}")

    monkeypatch.setattr(_native, "_side_by_side", lambda commands: True)
    monkeypatch.setattr(ctypes, "CDLL", refuse)
    assert _native._compile() is None
    assert not build_dir.exists()
