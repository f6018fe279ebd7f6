"""Re-checksummed slab headers: damage a checksum cannot catch."""

from __future__ import annotations

import copy
import json
import struct
import zlib

FIXED = struct.Struct("<8sIIII")


def _align(offset: int) -> int:
    return -(-offset // 64) * 64


def read_header(raw: bytes) -> dict:
    header_len = FIXED.unpack_from(raw)[2]
    return json.loads(raw[FIXED.size : FIXED.size + header_len])


def with_header_field(raw: bytes, owner, field: str, value) -> bytes:
    """``raw`` with one header field replaced by ``value`` and the header
    re-checksummed.  ``owner`` is ``"meta"`` or a section name.  Every
    *other* section offset follows the payload when the header changes
    size, so only the replaced field is wrong."""
    magic, version, header_len, _crc, reserved = FIXED.unpack_from(raw)
    header = read_header(raw)
    names = [section["name"] for section in header["sections"]]
    base = _align(FIXED.size + header_len)
    new_base = base
    for _attempt in range(8):
        edited = copy.deepcopy(header)
        for section in edited["sections"]:
            section["offset"] += new_base - base
        target = edited["meta"] if owner == "meta" else edited["sections"][names.index(owner)]
        target[field] = value
        encoded = json.dumps(edited, sort_keys=True).encode("utf-8")
        if _align(FIXED.size + len(encoded)) == new_base:
            break
        new_base = _align(FIXED.size + len(encoded))
    fixed = FIXED.pack(magic, version, len(encoded), zlib.crc32(encoded) & 0xFFFFFFFF, reserved)
    return fixed + encoded + bytes(new_base - FIXED.size - len(encoded)) + raw[base:]
