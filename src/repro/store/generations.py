"""Generation-numbered store publication and lock-free reader refresh.

Rebuilds (and applied reformulations that change the serving rates) must
never block serving and never tear a reader.  The protocol:

1. the builder writes ``store.gen-K.slab`` completely — the slab writer
   already goes through a temp file, ``os.replace`` and fsyncs, so the file
   is whole before it carries its final name;
2. the builder atomically replaces the ``CURRENT`` manifest (a one-line JSON
   naming the generation and its filename), again via temp + ``os.replace``
   + directory fsync;
3. readers poll the manifest *between* requests (a throttled ``read`` of a
   tiny file), open the new generation, verify its checksums, and swap one
   object reference.  In-flight requests keep the old :class:`ScoreStore`,
   whose mmap stays valid even after the file is pruned — POSIX keeps mapped
   pages alive until the last reference dies.

No cross-process locks anywhere: writers never touch a published file,
readers never write, and the only shared mutable state is the manifest,
updated with one atomic rename.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ParameterError, StoreError
from repro.ranking.precompute import PrecomputedRanker
from repro.store.format import ScoreStore, write_score_store

MANIFEST_NAME = "CURRENT"
_STORE_FILE = re.compile(r"^store\.gen-(\d+)\.slab$")


@dataclass(frozen=True)
class Manifest:
    """The published pointer: which generation file is current."""

    generation: int
    filename: str


def store_path(root: str | os.PathLike, generation: int) -> Path:
    """The canonical filename of one generation's slab."""
    return Path(root) / f"store.gen-{generation}.slab"


def list_generations(root: str | os.PathLike) -> list[int]:
    """All generation numbers with a slab file under ``root``, ascending."""
    try:
        names = os.listdir(root)
    except FileNotFoundError:
        return []
    found = []
    for name in names:
        match = _STORE_FILE.match(name)
        if match:
            found.append(int(match.group(1)))
    return sorted(found)


def read_manifest(root: str | os.PathLike) -> Manifest | None:
    """The current manifest, or ``None`` when nothing is published yet."""
    path = Path(root) / MANIFEST_NAME
    try:
        raw = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    try:
        data = json.loads(raw)
        return Manifest(int(data["generation"]), str(data["filename"]))
    except (KeyError, TypeError, ValueError) as error:
        raise StoreError(f"corrupt manifest {path}: {error}") from None


def next_generation(root: str | os.PathLike) -> int:
    """One past the newest generation on disk or in the manifest."""
    newest = 0
    generations = list_generations(root)
    if generations:
        newest = generations[-1]
    manifest = read_manifest(root)
    if manifest is not None:
        newest = max(newest, manifest.generation)
    return newest + 1


def publish_manifest(
    root: str | os.PathLike, generation: int, filename: str, fsync: bool = True
) -> Manifest:
    """Atomically flip ``CURRENT`` to one (fully written) generation file."""
    root = Path(root)
    target = root / filename
    if not target.exists():
        raise StoreError(f"cannot publish missing store file {target}")
    manifest = Manifest(generation, filename)
    temp = root / f".{MANIFEST_NAME}.tmp-{os.getpid()}"
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump({"generation": generation, "filename": filename}, handle)
        handle.write("\n")
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(temp, root / MANIFEST_NAME)
    if fsync:
        dir_fd = os.open(root, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    return manifest


def prune_generations(root: str | os.PathLike, keep: int = 2) -> list[int]:
    """Unlink old generation files, keeping the ``keep`` newest (and always
    the published one).  Returns the pruned generation numbers.

    Safe against live readers: an unlinked file's mapping stays valid in
    every process that has it open, so pruning can run right after a swap.
    """
    _check_keep(keep)
    manifest = read_manifest(root)
    current = manifest.generation if manifest is not None else None
    generations = list_generations(root)
    doomed = [g for g in generations[:-keep] if g != current]
    for generation in doomed:
        try:
            os.unlink(store_path(root, generation))
        except OSError:
            pass  # already gone; pruning is best-effort
    return doomed


def _check_keep(keep: int) -> None:
    if keep < 1:
        raise ParameterError(f"keep must be >= 1, got {keep}")


def build_and_publish(
    root: str | os.PathLike,
    ranker: PrecomputedRanker,
    dataset: str,
    keep: int = 2,
) -> Manifest:
    """Write the next generation from ``ranker`` and flip the manifest.

    ``keep`` (the generations :func:`prune_generations` leaves) is checked
    before anything is written.  The slab and the manifest are fsynced
    before the manifest names them.
    """
    _check_keep(keep)
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    generation = next_generation(root)
    path = store_path(root, generation)
    write_score_store(path, ranker, dataset=dataset, generation=generation)
    manifest = publish_manifest(root, generation, path.name)
    prune_generations(root, keep=keep)
    return manifest


class StoreManager:
    """One dataset's view of its store directory, with generation refresh.

    ``ranker()`` returns a :class:`PrecomputedRanker` over the currently
    published generation's mapped store, re-reading the manifest at most every
    ``refresh_seconds`` (0 checks on every call — a manifest read is a few
    microseconds and the open only happens on an actual flip).  A failed
    open of a *new* generation keeps the old ranker serving and counts an
    error, so a corrupt build can never take serving down.

    Thread-safe; the swap is one reference assignment under the lock, and
    callers hold whatever ranker they grabbed for their whole request —
    that per-request pin is the torn-read-free guarantee.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        refresh_seconds: float = 0.0,
        clock=time.monotonic,
    ) -> None:
        self.root = Path(root)
        self.refresh_seconds = refresh_seconds
        self._clock = clock
        self._lock = threading.Lock()
        #: guarded by self._lock
        self._ranker: PrecomputedRanker | None = None
        #: guarded by self._lock
        self._generation: int | None = None
        #: guarded by self._lock
        self._checked_at: float | None = None
        #: guarded by self._lock
        self._swaps = 0
        #: guarded by self._lock
        self._load_errors = 0

    # -- read side -----------------------------------------------------------

    def ranker(self) -> PrecomputedRanker | None:
        """The current generation's ranker (refreshing first); ``None`` when
        nothing is published."""
        self.refresh()
        with self._lock:
            return self._ranker

    @property
    def generation(self) -> int | None:
        with self._lock:
            return self._generation

    @property
    def swaps(self) -> int:
        """Completed generation swaps observed by this manager."""
        with self._lock:
            return self._swaps

    @property
    def load_errors(self) -> int:
        """Published generations this manager failed to open (kept serving)."""
        with self._lock:
            return self._load_errors

    def refresh(self, force: bool = False) -> bool:
        """Re-read the manifest; swap to a newly published generation.

        Returns ``True`` when the swap happened.  The expensive part (mmap +
        checksum verify) runs outside the lock, so concurrent refreshes may
        each open a store; only one newer than the installed generation is
        installed (and counted as a swap) — a slow open of generation 2
        finishing after another refresh installed 3 is dropped, never
        swapped back to.
        """
        now = self._clock()
        with self._lock:
            throttled = (
                not force
                and self._checked_at is not None
                and self.refresh_seconds > 0
                and now - self._checked_at < self.refresh_seconds
            )
            current = self._generation
            if throttled:
                return False
            self._checked_at = now
        try:
            manifest = read_manifest(self.root)
        except StoreError:
            manifest = None  # torn/corrupt manifest: keep serving as-is
        if manifest is None or (current is not None and manifest.generation <= current):
            return False
        try:
            store = ScoreStore(self.root / manifest.filename)
            ranker = PrecomputedRanker.over(store)
        except StoreError:
            with self._lock:
                self._load_errors += 1
            return False
        with self._lock:
            if self._generation is not None:
                if manifest.generation <= self._generation:
                    return False
                self._swaps += 1
            self._ranker = ranker
            self._generation = manifest.generation
        return True

    # -- write side ----------------------------------------------------------

    def publish(
        self, ranker: PrecomputedRanker, dataset: str, keep: int = 2
    ) -> Manifest:
        """Build-and-publish the next generation, then pick it up locally."""
        manifest = build_and_publish(self.root, ranker, dataset, keep=keep)
        self.refresh(force=True)
        return manifest
