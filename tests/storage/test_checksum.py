"""CRC32C on both kernel tiers, and the stores they write.

``repro.codecs.checksum.crc32c`` is a compiled table walk on the native
tier and a pure-Python one otherwise; every CRC on disk — segment footers,
manifest references, WAL records — comes from whichever tier the writing
process resolved, and is verified by whichever tier the reading process
resolved.  So the two must agree on every input, and a store directory
written on one tier must be, byte for byte, the directory the other tier
writes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro import _kernels
from repro.storage import DurableStore
from repro.codecs.checksum import crc32c, crc32c_hex

needs_native = pytest.mark.skipif(not _kernels.native_available(),
                                  reason="native extension not built")


@pytest.fixture(autouse=True)
def _restore_tier():
    yield
    _kernels.set_native_enabled(None)


def bitwise_crc32c(data: bytes, value: int = 0) -> int:
    """The definition: one polynomial division step per bit."""
    crc = value ^ 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0x82F63B78 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


def _pattern(length: int) -> bytes:
    return (np.arange(length, dtype=np.uint32) * 2654435761 >> 13).astype(
        np.uint8).tobytes()


@pytest.mark.usefixtures("kernel_tier")
class TestEitherTier:
    def test_known_answers(self):
        assert crc32c(b"123456789") == 0xE3069283
        assert crc32c_hex(b"123456789") == "e3069283"
        assert crc32c(b"") == 0
        # RFC 3720 B.4
        assert crc32c(bytes(32)) == 0x8A9136AA
        assert crc32c(b"\xff" * 32) == 0x62A8AB43
        assert crc32c(bytes(range(32))) == 0x46DD794E
        assert crc32c(bytes(range(31, -1, -1))) == 0x113FDB5C

    def test_short_lengths_against_the_definition(self):
        data = _pattern(70)
        for length in range(len(data) + 1):
            assert crc32c(data[:length]) == bitwise_crc32c(data[:length])

    def test_running_value_splits_at_every_offset(self):
        data = _pattern(64)
        whole = crc32c(data)
        assert whole == bitwise_crc32c(data)
        for cut in range(len(data) + 1):
            assert crc32c(data[cut:], crc32c(data[:cut])) == whole
            view = memoryview(data)
            assert crc32c(view[cut:], crc32c(view[:cut])) == whole

    def test_running_value_is_taken_modulo_32_bits(self):
        assert crc32c(b"abc", 2 ** 32 + 5) == crc32c(b"abc", 5)
        assert crc32c(b"abc", -1) == crc32c(b"abc", 0xFFFFFFFF)

    def test_buffer_protocol_objects(self):
        data = _pattern(1000)
        expected = crc32c(data)
        assert crc32c(bytearray(data)) == expected
        assert crc32c(memoryview(data)) == expected
        assert crc32c(memoryview(bytearray(data))) == expected
        assert crc32c(np.frombuffer(data, dtype=np.uint8)) == expected
        # wider items are hashed as the bytes they occupy
        floats = np.frombuffer(data, dtype="<f8")
        assert crc32c(floats) == expected
        assert crc32c(floats.reshape(5, 25)) == expected
        assert crc32c(memoryview(data)[100:900]) == crc32c(data[100:900])
        frozen = floats.copy()
        frozen.setflags(write=False)
        assert crc32c(frozen) == expected

    def test_rejects_what_is_not_a_contiguous_buffer(self):
        for bad in ("text", 5, None, [1, 2, 3]):
            with pytest.raises(TypeError):
                crc32c(bad)
        with pytest.raises((TypeError, ValueError)):
            crc32c(np.arange(16.0)[::2])

    def test_every_single_bit_flip_changes_the_crc(self):
        data = _pattern(41)
        reference = crc32c(data)
        for bit in range(len(data) * 8):
            mutated = bytearray(data)
            mutated[bit >> 3] ^= 1 << (bit & 7)
            assert crc32c(mutated) != reference


@needs_native
class TestTiersAgree:
    def test_lengths_0_to_4099(self):
        """Every length across many 8-byte strides and every tail size."""
        data = _pattern(4099)
        native = _kernels._native.MODULE.crc32c
        _kernels.set_native_enabled(False)
        for length in range(len(data) + 1):
            assert native(memoryview(data)[:length]) == crc32c(
                memoryview(data)[:length]), length

    def test_unaligned_starts(self):
        data = _pattern(300)
        native = _kernels._native.MODULE.crc32c
        _kernels.set_native_enabled(False)
        for start in range(17):
            for stop in (start, start + 1, start + 8, 299, 300):
                view = memoryview(data)[start:stop]
                assert native(view) == crc32c(view)
                assert native(view, 0xDEADBEEF) == crc32c(view, 0xDEADBEEF)


def _write_store(directory: Path) -> dict:
    """A store with sealed segments, a WAL tail and metadata records."""
    rng = np.random.default_rng(18)
    series = {"gorilla": np.round(rng.normal(20.0, 2.0, 300), 2),
              "chimp": np.round(np.cumsum(rng.normal(0.0, 0.1, 300)), 3),
              "raw": rng.normal(0.0, 1.0, 150)}
    with DurableStore.create(directory, default_segment_size=64) as store:
        for name, values in series.items():
            store.create_series(name, codec=name)
            store.append(name, values[:200])
            store.update_metadata({name: {"unit": name}})
            store.append(name, values[200:])
    return series


def _tree(directory: Path) -> dict:
    return {str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


@needs_native
class TestStoresAcrossTiers:
    """What ``REPRO_NATIVE=0`` (or the parent commit, whose storage layer
    is the NumPy tier's) writes, the native tier opens — and the reverse."""

    @pytest.mark.parametrize("writer,reader", [(False, True), (True, False)],
                             ids=["numpy-to-native", "native-to-numpy"])
    def test_opens_clean_and_reads_bit_equal(self, tmp_path, writer, reader):
        _kernels.set_native_enabled(writer)
        series = _write_store(tmp_path / "store")
        _kernels.set_native_enabled(reader)
        with DurableStore.open(tmp_path / "store") as store:
            assert store.recovery.clean
            for name, values in series.items():
                assert store.read(name).tobytes() == values.tobytes()
                assert store.read(name, 37, 211).tobytes() \
                    == values[37:211].tobytes()
            # and keeps going on the reader's tier
            store.append("gorilla", series["gorilla"][:100])
        _kernels.set_native_enabled(writer)
        with DurableStore.open(tmp_path / "store") as store:
            assert store.recovery.clean
            assert store.read("gorilla", 300).tobytes() \
                == series["gorilla"][:100].tobytes()

    def test_directories_are_byte_identical(self, tmp_path):
        _kernels.set_native_enabled(False)
        _write_store(tmp_path / "numpy")
        _kernels.set_native_enabled(True)
        _write_store(tmp_path / "native")
        numpy_tree, native_tree = _tree(tmp_path / "numpy"), _tree(
            tmp_path / "native")
        assert list(numpy_tree) == list(native_tree)
        assert any(name.startswith("segments/") for name in numpy_tree)
        assert any(name.startswith("wal/") for name in numpy_tree)
        for name, data in numpy_tree.items():
            assert native_tree[name] == data, name
