"""The compiled kernels are built once per source, flags, compiler and CPU
and published to a per-user cache; a later process maps that build instead
of running the compiler.

Every test points ``XDG_CACHE_HOME`` and ``TMPDIR`` at its own directory.
A build directory is removed on every path, a cached build that is
damaged, foreign or fails the probe is rebuilt and republished, and every
failure falls back to numpy with a reason.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.ranking import _native

SRC = Path(__file__).resolve().parents[2] / "src"

needs_compiler = pytest.mark.skipif(
    not (shutil.which("cc") or shutil.which("gcc")), reason="no C compiler"
)


@pytest.fixture
def cache(tmp_path, monkeypatch) -> Path:
    """The kernel cache under a fresh ``XDG_CACHE_HOME``, with a fresh
    ``TMPDIR`` beside it; neither exists yet."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    temporary = tmp_path / "tmp"
    temporary.mkdir()
    monkeypatch.setenv("TMPDIR", str(temporary))
    monkeypatch.setattr(tempfile, "tempdir", str(temporary))
    return tmp_path / "xdg" / "repro" / "kernels"


@pytest.fixture(scope="module")
def built(tmp_path_factory) -> Path:
    """One build published by ``_load`` into a cache of its own."""
    root = tmp_path_factory.mktemp("published")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(root))
        outcome = _native._load()
    if outcome.library is None:
        pytest.skip(f"no compiled kernel here: {outcome.reason}")
    (library,) = (root / "repro" / "kernels").glob("*.so")
    return library


def publish(cache: Path, name: str, content: bytes, mode: int = 0o700) -> Path:
    """``content`` under the published name ``name`` (``<key>-<size>.so``,
    the same in every cache of this process)."""
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    target = cache / name
    target.write_bytes(content)
    target.chmod(mode)
    return target


def published(cache: Path) -> list[str]:
    compilers = [found for found in map(shutil.which, _native._COMPILERS) if found]
    return _native._published(str(cache), _native._build_key(compilers))


def build_directories(directory: Path) -> list[str]:
    return sorted(path.name for path in directory.glob("repro-native-*"))


def python(code: str, cache: Path) -> subprocess.Popen:
    """``code`` started in a fresh interpreter sharing this test's cache
    (with the kernels allowed, as ``_load`` is in this one)."""
    env = {key: value for key, value in os.environ.items() if key != "REPRO_NO_NATIVE"}
    env.update(PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(cache.parent.parent))
    return subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )


def report(process: subprocess.Popen) -> str:
    out, err = process.communicate(timeout=120)
    assert process.returncode == 0, err
    return out.strip()


# -- no build directory outlives its process ------------------------------------


@needs_compiler
def test_a_real_build_leaves_no_directory(cache):
    outcome = _native._load()
    assert outcome.library is not None and outcome.build == "compiled"
    assert [path.suffix for path in cache.iterdir()] == [".so"]
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    assert build_directories(Path(tempfile.gettempdir())) == []
    # Mapped, and callable, from a build directory that is gone.
    assert outcome.library.blocked_step is not None


def test_a_failed_build_leaves_no_directory(cache, monkeypatch):
    monkeypatch.setattr(_native, "_side_by_side", lambda commands: False)
    outcome = _native._load()
    assert outcome.library is None and outcome.reason
    assert not cache.exists() or list(cache.iterdir()) == []


def test_an_unloadable_library_leaves_no_directory(cache, monkeypatch):
    def refuse(path):
        raise OSError(f"cannot load {path}")

    monkeypatch.setattr(_native, "_side_by_side", lambda commands: True)
    monkeypatch.setattr(ctypes, "CDLL", refuse)
    outcome = _native._load()
    assert outcome.library is None and outcome.reason
    assert not cache.exists() or list(cache.iterdir()) == []


# -- a published build is loaded, never trusted blindly ---------------------------


def test_a_later_process_loads_the_published_build_without_a_compiler(cache, built):
    publish(cache, built.name, built.read_bytes())
    no_compiler = (
        "import subprocess\n"
        "def refuse(*args, **kwargs):\n"
        "    raise OSError('a cached build starts no compiler')\n"
        "subprocess.Popen = refuse\n"
        "from repro.ranking import _native\n"
        "assert _native.available(), _native.status()\n"
        "print(_native.status()['build'])\n"
    )
    assert report(python(no_compiler, cache)) == "cached"


@pytest.mark.parametrize("damage", ["truncated", "header", "random"])
def test_a_damaged_cached_build_is_rebuilt_and_republished(cache, built, damage):
    image = built.read_bytes()
    damaged = {
        "truncated": image[: len(image) // 2],
        "header": image[:5],
        "random": os.urandom(len(image)),
    }[damage]
    target = publish(cache, built.name, damaged)
    outcome = _native._load()
    assert outcome.library is not None and outcome.build == "compiled"
    assert target.read_bytes() != damaged
    assert published(cache) == [str(target)]
    assert _native._bind(str(target)) is not None
    assert build_directories(cache) == []


def test_a_file_shorter_than_its_name_says_is_never_mapped(cache, built, monkeypatch):
    publish(cache, built.name, built.read_bytes()[:-1])
    assert published(cache) == []
    monkeypatch.setattr(_native, "_bind", lambda path: pytest.fail(f"mapped {path}"))
    monkeypatch.setattr(_native, "_compile", lambda compilers, directory: None)
    assert _native._load().library is None


def test_a_cached_build_failing_the_probe_is_rebuilt_once(cache, built, monkeypatch):
    target = publish(cache, built.name, built.read_bytes())
    probe, compile_ = _native._probe_bitwise, _native._compile
    compiles = []

    def probe_refusing_the_cached_file(library):
        return library._name != str(target) and probe(library)

    def counted(*args):
        compiles.append(args)
        return compile_(*args)

    monkeypatch.setattr(_native, "_probe_bitwise", probe_refusing_the_cached_file)
    monkeypatch.setattr(_native, "_compile", counted)
    outcome = _native._load()
    assert outcome.library is not None and outcome.build == "compiled"
    assert len(compiles) == 1
    assert [path.name for path in cache.iterdir()] == [target.name]


def test_a_writable_cached_build_is_refused_and_rebuilt(cache, built):
    target = publish(cache, built.name, built.read_bytes(), mode=0o666)
    outcome = _native._load()
    assert outcome.library is not None and outcome.build == "compiled"
    assert not target.stat().st_mode & (stat.S_IWGRP | stat.S_IWOTH)


def test_a_cache_directory_others_may_write_is_neither_read_nor_written(cache, built):
    # Another user could rename a library over a checked one before dlopen.
    target = publish(cache, built.name, built.read_bytes())
    cache.chmod(0o777)
    assert published(cache) == []
    outcome = _native._load()
    assert outcome.library is not None and outcome.build == "temporary"
    assert "not private" in outcome.reason
    assert [path.name for path in cache.iterdir()] == [target.name]
    assert build_directories(Path(tempfile.gettempdir())) == []


# -- fallbacks ----------------------------------------------------------------


@needs_compiler
def test_an_unwritable_cache_builds_in_a_temporary_directory(cache):
    # A regular file where the cache's parent should be: running as root,
    # a chmod would prove nothing.
    cache.parent.parent.mkdir(parents=True)
    cache.parent.write_text("not a directory")
    outcome = _native._load()
    assert outcome.library is not None and outcome.build == "temporary"
    assert "unwritable" in outcome.reason
    assert build_directories(Path(tempfile.gettempdir())) == []


def test_no_compiler_on_the_path_falls_back_to_numpy(cache, tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    outcome = _native._load()
    assert outcome.library is None and "compiler" in outcome.reason
    assert not cache.exists()


def test_repro_no_native_creates_no_cache(cache, monkeypatch):
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    monkeypatch.setattr(_native, "_outcome", None)
    assert _native._ensure() is None
    assert _native.status() == {
        "state": "unavailable", "build": None, "reason": "REPRO_NO_NATIVE is set",
    }
    assert not cache.parent.parent.exists()


def test_a_failure_while_loading_is_recorded_once(monkeypatch):
    calls = []

    def crash():
        calls.append(None)
        raise IndexError("a bug in the loader")

    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    monkeypatch.setattr(_native, "_outcome", None)
    monkeypatch.setattr(_native, "_load", crash)
    assert not _native.available() and not _native.available()
    assert len(calls) == 1
    assert _native.status()["state"] == "unavailable"
    assert "a bug in the loader" in _native.status()["reason"]


@needs_compiler
def test_two_cold_processes_both_load_and_leave_one_library(cache):
    # Each maps its own build (or, if the other one has already published,
    # that build); the last rename wins.
    cold = "from repro.ranking import _native\nprint(_native.available())\n"
    processes = [python(cold, cache) for _ in range(2)]
    assert [report(process) for process in processes] == ["True", "True"]
    assert [path.suffix for path in cache.iterdir()] == [".so"]
