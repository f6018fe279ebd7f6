"""Versioned, checksummed, mmap-able slab files of named numpy arrays.

The serving tier's score store needs an on-disk format that N worker
processes can open *read-only* and slice *zero-copy*: the precomputed
keyword→score matrix is a read-mostly asset, and copying it per process (or
per request) would defeat the prefork architecture.  This module is the
container layer of that format, deliberately payload-agnostic — it stores
named C-contiguous arrays plus one JSON metadata object, and leaves the
meaning of the sections to :mod:`repro.store`.

On-disk layout (all integers little-endian)::

    [ 0: 8]  magic        b"REPROSLB"
    [ 8:12]  uint32       format version (1)
    [12:16]  uint32       length of the header JSON in bytes
    [16:20]  uint32       CRC32 of the header JSON
    [20:24]  uint32       zero (reserved)
    [24:  ]  header JSON  {"sections": [...], "meta": {...}}
    ...      sections, each aligned to SECTION_ALIGNMENT bytes

Every section records its ``offset``, ``nbytes``, ``dtype``, ``shape`` and
``crc32`` in the header, so a reader can (a) reject truncated or corrupted
files before handing out views and (b) build ``np.frombuffer`` views straight
into the mmap with no copies.  Sections are 64-byte aligned — the same
cache-line alignment the native kernel's slab builders use — so vector loads
on the mapped score rows never straddle lines.

Writes go through a same-directory temp file and ``os.replace`` with fsyncs,
so a crashed builder can never leave a half-written file under the final
name; the generation-swap protocol in :mod:`repro.store.generations` builds
on this guarantee.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import re
import struct
import tempfile
import zlib
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.errors import ReproError

MAGIC = b"REPROSLB"
FORMAT_VERSION = 1
SECTION_ALIGNMENT = 64
_FIXED_HEADER = struct.Struct("<8sIIII")
_DTYPE_STR = re.compile(r"[<>|][biufcmMSUV][0-9]+")


class SlabFormatError(ReproError):
    """The file is not a readable slab (wrong magic, corrupt, truncated...)."""


def _is_count(value: object) -> bool:
    """Whether a header JSON value is a non-negative integer (not a bool)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _align(offset: int) -> int:
    return (offset + SECTION_ALIGNMENT - 1) & ~(SECTION_ALIGNMENT - 1)


class Rows(NamedTuple):
    """A section given as its rows: equal-shape arrays stacked along a new
    first axis on disk, written one after another.  The stacked array is
    never assembled, so writing a section costs no copy of it."""

    rows: Sequence[np.ndarray]
    row_shape: tuple[int, ...]
    dtype: np.dtype = np.dtype(np.float64)


def _pieces(section: np.ndarray | Rows) -> Iterator[np.ndarray]:
    """The flat byte views whose concatenation is the section's payload."""
    if not isinstance(section, Rows):
        yield section.reshape(-1).view(np.uint8)
        return
    for row in section.rows:
        row = np.ascontiguousarray(row, dtype=section.dtype)
        if row.shape != tuple(section.row_shape):
            raise ValueError(f"a row of shape {row.shape}, expected {section.row_shape}")
        yield row.reshape(-1).view(np.uint8)


def write_slab(path: str | os.PathLike, arrays: dict[str, np.ndarray | Rows],
               meta: dict | None = None, fsync: bool = True) -> int:
    """Write ``arrays`` + ``meta`` as one slab file; returns the byte size.

    Arrays are stored C-contiguous (converted if needed); a :class:`Rows`
    section is written row by row.  Each section's crc32 is one pass over
    its own buffer (chained across rows), and the buffer itself is what is
    written: no section is copied.  The write is crash-safe: the data goes
    to a temp file in the target directory, is fsynced, and only then
    renamed over ``path`` (followed by a directory fsync), so readers
    either see the complete file or the previous one.
    """
    prepared: list[tuple[str, np.ndarray | Rows, dict]] = []
    for name, array in arrays.items():
        if not isinstance(name, str) or not name:
            raise ValueError(f"section names must be non-empty strings, got {name!r}")
        if isinstance(array, Rows):
            dtype = np.dtype(array.dtype)
            shape = [len(array.rows), *map(int, array.row_shape)]
        else:
            array = np.ascontiguousarray(array)
            dtype, shape = array.dtype, list(array.shape)
        crc = 0
        for piece in _pieces(array):
            crc = zlib.crc32(piece, crc)
        prepared.append((name, array, {
            "nbytes": math.prod(shape) * dtype.itemsize,
            "dtype": dtype.str,
            "shape": shape,
            "crc32": crc & 0xFFFFFFFF,
        }))

    sections = []
    # Header length depends on the JSON, whose offsets depend on the header
    # length; fixed-point in two passes (offsets only grow the JSON by a
    # bounded number of digits, so pass two always fits or re-runs).
    payload_base = 0
    for _pass in range(4):
        sections = []
        offset = payload_base
        for name, _array, entry in prepared:
            offset = _align(offset)
            sections.append({"name": name, "offset": offset, **entry})
            offset += entry["nbytes"]
        header = json.dumps(
            {"sections": sections, "meta": meta or {}}, sort_keys=True
        ).encode("utf-8")
        wanted_base = _align(_FIXED_HEADER.size + len(header))
        if wanted_base == payload_base:
            break
        payload_base = wanted_base
    total = offset if prepared else payload_base

    directory = os.path.dirname(os.fspath(path)) or "."
    fd, temp_path = tempfile.mkstemp(dir=directory, prefix=".slab-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(_FIXED_HEADER.pack(
                MAGIC, FORMAT_VERSION, len(header),
                zlib.crc32(header) & 0xFFFFFFFF, 0,
            ))
            handle.write(header)
            for section, (_name, array, _entry) in zip(sections, prepared):
                handle.seek(section["offset"])
                for piece in _pieces(array):
                    handle.write(piece)
            handle.truncate(total)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    if fsync:
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    return total


class SlabFile:
    """A slab opened read-only through one shared mmap.

    :meth:`array` returns zero-copy, *non-writeable* numpy views into the
    mapping — many processes opening the same file share its page-cache
    pages, which is the whole point of the format.  The views keep the
    mapping alive, so a :class:`SlabFile` (or any view taken from it) can
    outlive a generation swap that replaced the file on disk: the mapped
    pages stay valid until the last reference dies, which is what makes the
    swap torn-read-free.
    """

    def __init__(self, path: str | os.PathLike, verify: bool = True) -> None:
        self.path = os.fspath(path)
        try:
            with open(self.path, "rb") as handle:
                self._mmap = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as error:
            raise SlabFormatError(f"cannot map {self.path!r}: {error}") from None
        try:
            self._read_header()
            if verify:
                self.verify()
        except SlabFormatError:
            self.close()  # a refused slab leaves no mapping behind
            raise

    def _read_header(self) -> None:
        """Parse the fixed header and the header JSON, and check every
        section entry against the file; raises :class:`SlabFormatError`."""
        size = len(self._mmap)
        if size < _FIXED_HEADER.size:
            raise SlabFormatError(f"{self.path!r}: truncated fixed header")
        magic, version, header_len, header_crc, _reserved = _FIXED_HEADER.unpack(
            self._mmap[: _FIXED_HEADER.size]
        )
        if magic != MAGIC:
            raise SlabFormatError(f"{self.path!r}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise SlabFormatError(
                f"{self.path!r}: unsupported format version {version}"
            )
        if _FIXED_HEADER.size + header_len > size:
            raise SlabFormatError(f"{self.path!r}: truncated header JSON")
        raw_header = self._mmap[_FIXED_HEADER.size : _FIXED_HEADER.size + header_len]
        if zlib.crc32(raw_header) & 0xFFFFFFFF != header_crc:
            raise SlabFormatError(f"{self.path!r}: header checksum mismatch")
        try:
            header = json.loads(raw_header)
            self._sections = {s["name"]: s for s in header["sections"]}
            self.meta: dict = header["meta"]
        except (KeyError, TypeError, ValueError) as error:
            raise SlabFormatError(
                f"{self.path!r}: malformed header JSON: {error}"
            ) from None
        if not isinstance(self.meta, dict):
            raise SlabFormatError(f"{self.path!r}: header meta is not an object")
        #: Per section: its dtype and element count, as checked at open.
        self._layout = {
            name: self._checked(name, section, size)
            for name, section in self._sections.items()
        }

    def _checked(self, name, section: dict, size: int) -> tuple[np.dtype, int]:
        """``section``'s dtype and element count, once every field of its
        entry is shown to describe bytes inside this file."""
        def fail(problem: str) -> SlabFormatError:
            return SlabFormatError(f"{self.path!r}: section {name!r}: {problem}")

        if not isinstance(name, str):
            raise fail("name is not a string")
        offset, nbytes = section.get("offset"), section.get("nbytes")
        shape, crc = section.get("shape"), section.get("crc32")
        for field, value in (("offset", offset), ("nbytes", nbytes), ("crc32", crc)):
            if not _is_count(value):
                raise fail(f"{field} {value!r} is not a non-negative integer")
        spelled = section.get("dtype")
        try:
            # Only the writer's own spelling (``dtype.str``) is read back.
            if not isinstance(spelled, str) or not _DTYPE_STR.fullmatch(spelled):
                raise TypeError("not a byte-order, kind and size")
            dtype = np.dtype(spelled)
            if dtype.str != spelled or dtype.hasobject or not dtype.itemsize:
                raise TypeError("not a plain array dtype")
        except (TypeError, ValueError) as error:
            raise fail(f"dtype {spelled!r}: {error}") from None
        if not isinstance(shape, list) or not all(map(_is_count, shape)):
            raise fail(f"shape {shape!r} is not a list of non-negative integers")
        count = math.prod(shape)
        if count * dtype.itemsize != nbytes:
            raise fail(f"shape {shape} of {dtype.str} does not fill {nbytes} bytes")
        if offset + nbytes > size:
            raise fail(f"[{offset}, {offset + nbytes}) exceeds file size {size}")
        return dtype, count

    # -- access -------------------------------------------------------------

    def names(self) -> list[str]:
        return list(self._sections)

    def __contains__(self, name: str) -> bool:
        return name in self._sections

    def array(self, name: str) -> np.ndarray:
        """A zero-copy read-only view of one section."""
        section = self._sections.get(name)
        if section is None:
            raise SlabFormatError(f"{self.path!r}: no section named {name!r}")
        dtype, count = self._layout[name]
        view = np.frombuffer(
            self._mmap, dtype=dtype, count=count, offset=section["offset"]
        ).reshape(section["shape"])
        view.flags.writeable = False
        return view

    def verify(self) -> None:
        """Recompute every section checksum; raises on any mismatch.

        Each checksum reads the mapped pages through a memoryview (slicing
        the mapping itself would copy the section); every view is released
        before this returns or raises, so :meth:`close` can unmap.
        """
        with memoryview(self._mmap) as mapped:
            for section in self._sections.values():
                start, end = section["offset"], section["offset"] + section["nbytes"]
                with mapped[start:end] as payload:
                    actual = zlib.crc32(payload) & 0xFFFFFFFF
                if actual != section["crc32"]:
                    raise SlabFormatError(
                        f"{self.path!r}: checksum mismatch in section "
                        f"{section['name']!r} (stored {section['crc32']:#010x}, "
                        f"actual {actual:#010x})"
                    )

    def close(self) -> None:
        """Best-effort unmap; a no-op while exported views are alive."""
        try:
            self._mmap.close()
        except BufferError:
            pass  # views still reference the buffer; GC unmaps later

    def __enter__(self) -> "SlabFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
