"""Unit tests for the slab container: round trips, corruption, truncation."""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

from repro.storage.slab import (
    MAGIC,
    SECTION_ALIGNMENT,
    Rows,
    SlabFile,
    SlabFormatError,
    write_slab,
)
from tests.store.slab_headers import with_header_field


@pytest.fixture
def arrays():
    rng = np.random.default_rng(11)
    return {
        "scores": rng.random((5, 17)),
        "idf": rng.random(5),
        "offsets": np.arange(6, dtype=np.int64),
        "blob": np.frombuffer(b"alpha beta gamma", dtype=np.uint8),
    }


class TestRoundTrip:
    def test_arrays_come_back_bit_identical(self, tmp_path, arrays):
        path = tmp_path / "test.slab"
        size = write_slab(path, arrays, meta={"kind": "t"})
        assert path.stat().st_size == size
        with SlabFile(path) as slab:
            for name, original in arrays.items():
                view = slab.array(name)
                assert view.dtype == original.dtype
                assert view.shape == original.shape
                assert view.tobytes() == original.tobytes()

    def test_meta_round_trips(self, tmp_path, arrays):
        meta = {"kind": "t", "generation": 3, "rates": [0.1, 0.2], "name": "x"}
        path = tmp_path / "test.slab"
        write_slab(path, arrays, meta=meta)
        assert SlabFile(path).meta == meta

    def test_views_are_zero_copy_and_read_only(self, tmp_path, arrays):
        path = tmp_path / "test.slab"
        write_slab(path, arrays)
        slab = SlabFile(path)
        view = slab.array("scores")
        assert not view.flags.writeable
        assert not view.flags.owndata
        with pytest.raises(ValueError):
            view[0, 0] = 1.0

    def test_sections_are_cache_line_aligned(self, tmp_path, arrays):
        path = tmp_path / "test.slab"
        write_slab(path, arrays)
        slab = SlabFile(path)
        for name in arrays:
            assert slab._sections[name]["offset"] % SECTION_ALIGNMENT == 0

    def test_empty_arrays_dict(self, tmp_path):
        path = tmp_path / "empty.slab"
        write_slab(path, {})
        slab = SlabFile(path)
        assert slab.names() == []
        assert "anything" not in slab

    def test_zero_length_section(self, tmp_path):
        path = tmp_path / "zero.slab"
        write_slab(path, {"nothing": np.zeros(0)})
        assert SlabFile(path).array("nothing").shape == (0,)

    def test_missing_section_raises(self, tmp_path, arrays):
        path = tmp_path / "test.slab"
        write_slab(path, arrays)
        with pytest.raises(SlabFormatError, match="no section"):
            SlabFile(path).array("nope")

    def test_non_contiguous_input_is_stored_contiguous(self, tmp_path):
        strided = np.arange(40, dtype=np.float64).reshape(8, 5)[::2]
        path = tmp_path / "strided.slab"
        write_slab(path, {"x": strided})
        assert np.array_equal(SlabFile(path).array("x"), strided)


class TestRejection:
    def _write(self, tmp_path, arrays):
        path = tmp_path / "victim.slab"
        write_slab(path, arrays)
        return path

    def test_flipped_payload_byte_fails_checksum(self, tmp_path, arrays):
        path = self._write(tmp_path, arrays)
        slab = SlabFile(path)
        offset = slab._sections["scores"]["offset"] + 3
        slab.close()
        raw = bytearray(path.read_bytes())
        raw[offset] ^= 0xFF
        path.write_bytes(raw)
        with pytest.raises(SlabFormatError, match="checksum mismatch"):
            SlabFile(path)

    def test_flipped_header_byte_fails_header_crc(self, tmp_path, arrays):
        path = self._write(tmp_path, arrays)
        raw = bytearray(path.read_bytes())
        raw[24] ^= 0xFF  # first byte of the header JSON
        path.write_bytes(raw)
        with pytest.raises(SlabFormatError, match="header checksum"):
            SlabFile(path)

    def test_truncated_file_rejected(self, tmp_path, arrays):
        path = self._write(tmp_path, arrays)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(SlabFormatError):
            SlabFile(path)

    def test_truncated_to_fixed_header_rejected(self, tmp_path, arrays):
        path = self._write(tmp_path, arrays)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(SlabFormatError, match="truncated"):
            SlabFile(path)

    def test_bad_magic_rejected(self, tmp_path, arrays):
        path = self._write(tmp_path, arrays)
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTASLAB"
        path.write_bytes(raw)
        with pytest.raises(SlabFormatError, match="bad magic"):
            SlabFile(path)

    def test_future_version_rejected(self, tmp_path, arrays):
        path = self._write(tmp_path, arrays)
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 99)
        path.write_bytes(raw)
        with pytest.raises(SlabFormatError, match="version"):
            SlabFile(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SlabFormatError, match="cannot map"):
            SlabFile(tmp_path / "missing.slab")

    def test_a_refused_slab_unmaps(self, tmp_path, arrays):
        """``verify`` leaves no exported buffer behind when it refuses a
        section, so ``close`` unmaps the file."""
        path = self._write(tmp_path, arrays)
        slab = SlabFile(path)
        offset = slab._sections["scores"]["offset"] + 8
        slab.close()
        assert slab._mmap.closed
        raw = bytearray(path.read_bytes())
        raw[offset] ^= 0x10
        path.write_bytes(raw)
        lax = SlabFile(path, verify=False)
        with pytest.raises(SlabFormatError, match="checksum mismatch"):
            lax.verify()
        lax.close()
        assert lax._mmap.closed

    def test_verify_false_skips_payload_check(self, tmp_path, arrays):
        path = self._write(tmp_path, arrays)
        slab = SlabFile(path)
        offset = slab._sections["idf"]["offset"]
        slab.close()
        raw = bytearray(path.read_bytes())
        raw[offset] ^= 0x01
        path.write_bytes(raw)
        lax = SlabFile(path, verify=False)  # opens: header still intact
        with pytest.raises(SlabFormatError, match="checksum mismatch"):
            lax.verify()


class TestSectionEntries:
    """A header whose checksum holds but whose section entry does not
    describe bytes of the file is refused at open, before any view."""

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            ("offset", -64, "offset"),
            ("offset", 1.5, "offset"),
            ("offset", 10**12, "exceeds file size"),
            ("nbytes", "40", "nbytes"),
            ("nbytes", True, "nbytes"),
            ("crc32", None, "crc32"),
            ("dtype", "<f9", "dtype"),
            ("dtype", "|O8", "dtype"),
            ("dtype", "f8", "dtype"),
            ("dtype", ["<f8"], "dtype"),
            ("shape", [4], "does not fill"),
            ("shape", [2, 3], "does not fill"),
            ("shape", [-5], "shape"),
            ("shape", 5, "shape"),
        ],
    )
    def test_malformed_entry_refused(self, tmp_path, arrays, field, value, problem):
        path = tmp_path / "test.slab"
        write_slab(path, arrays)
        path.write_bytes(with_header_field(path.read_bytes(), "idf", field, value))
        with pytest.raises(SlabFormatError, match=problem):
            SlabFile(path, verify=False)


class TestCrashSafety:
    def test_no_temp_litter_after_write(self, tmp_path, arrays):
        write_slab(tmp_path / "a.slab", arrays)
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "a.slab"]
        assert leftovers == []

    def test_rewrite_is_atomic_replacement(self, tmp_path, arrays):
        path = tmp_path / "a.slab"
        write_slab(path, arrays, meta={"generation": 1})
        old = SlabFile(path)  # holds the *old* mapping across the rewrite
        write_slab(path, {"other": np.ones(3)}, meta={"generation": 2})
        # The pinned mapping still reads the old content, bit for bit.
        assert old.meta == {"generation": 1}
        assert old.array("scores").tobytes() == arrays["scores"].tobytes()
        assert SlabFile(path).meta == {"generation": 2}

    def test_magic_is_the_documented_constant(self):
        assert MAGIC == b"REPROSLB"


def golden_arrays():
    return {
        "floats": np.arange(12, dtype=np.float64).reshape(3, 4) / 7,
        "strided": np.arange(48, dtype=">i4").reshape(6, 8)[::2, 1::3],
        "flags": np.array([True, False, True]),
        "complex": np.array([1 + 2j, -0.0 - 1j], dtype="<c16"),
        "empty": np.zeros(0, dtype=np.int64),
        "blob": np.frombuffer(b"alpha beta", dtype=np.uint8),
    }


#: A 31-byte pad makes the header one whose second layout pass moves the
#: payload again, so the writer's fixed point takes a third pass.
GOLDEN_META = {"kind": "golden", "pad": "x" * 31}
GOLDEN_SHA256 = "dc0336839a491b1e0c8bd3f132fc04e439b0ba0dd113710362f49fa0ce3823ab"


class TestGoldenBytes:
    """The writer's bytes are pinned: several dtypes (big-endian, bool,
    complex), a strided input, an empty section and a header that needs a
    re-run of the layout pass."""

    def test_fixed_arrays_write_the_pinned_bytes(self, tmp_path):
        path = tmp_path / "golden.slab"
        write_slab(path, golden_arrays(), meta=GOLDEN_META, fsync=False)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256

    def test_a_section_written_as_rows_is_the_stacked_array(self, tmp_path):
        arrays = golden_arrays()
        floats = arrays["floats"]
        arrays["floats"] = Rows([row.tolist() for row in floats], (4,))
        path = tmp_path / "rows.slab"
        write_slab(path, arrays, meta=GOLDEN_META, fsync=False)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256

    def test_rows_of_no_rows_and_of_the_wrong_shape(self, tmp_path):
        path = tmp_path / "rows.slab"
        write_slab(path, {"none": Rows([], (5,), np.dtype(np.int32))}, fsync=False)
        with SlabFile(path) as slab:
            empty = slab.array("none")
            assert (empty.shape, empty.dtype) == ((0, 5), np.dtype(np.int32))
        with pytest.raises(ValueError, match="shape"):
            write_slab(path, {"bad": Rows([np.zeros(4), np.zeros(3)], (4,))})
        with SlabFile(path) as slab:
            assert slab.names() == ["none"]  # the failed write left it
