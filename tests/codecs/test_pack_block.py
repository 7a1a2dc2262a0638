"""The binary block container: ``pack_block`` / ``unpack_block``.

One on-disk form for every persistable payload kind.  The CRC inside it
comes from whichever kernel tier the process resolved, and the XOR payload
bytes it carries from that tier's encoder, so everything here runs on both.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.codecs import CompressedBlock, get_codec
from repro.codecs.serialize import (
    BLOCK_MAGIC,
    _jsonify,
    pack_block,
    unpack_block,
)
from repro.compressors.base import CompressedModel
from repro.data.timeseries import IrregularSeries
from repro.exceptions import BlockFormatError, StorageError
from repro.storage import DurableStore

pytestmark = pytest.mark.usefixtures("kernel_tier")

#: The kernel_tier fixture is set once per test, not per example; every
#: example of a test is meant to run on that one tier.
both_tiers = settings(max_examples=40, deadline=None,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])

REASONS = {"checksum-mismatch", "truncated-header", "truncated-footer",
           "parse-error"}

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
series = st.lists(finite, min_size=1, max_size=48)


def assert_same_block(restored: CompressedBlock, block: CompressedBlock):
    assert (restored.codec, restored.length, restored.bits,
            restored.lossless) == (block.codec, block.length, block.bits,
                                   block.lossless)
    assert restored.metadata == _jsonify(block.metadata)
    payload, expected = restored.payload, block.payload
    if isinstance(expected, IrregularSeries):
        assert isinstance(payload, IrregularSeries)
        assert payload.indices.dtype == np.int64
        assert np.array_equal(payload.indices, expected.indices)
        assert payload.values.tobytes() == expected.values.tobytes()
        assert (payload.original_length, payload.name) == (
            expected.original_length, expected.name)
        assert payload.metadata == _jsonify(expected.metadata)
    elif isinstance(expected, np.ndarray):
        assert payload.dtype == np.float64
        assert payload.tobytes() == expected.tobytes()
    else:
        assert payload == (bytes(expected[0]), expected[1], expected[2])
        assert isinstance(payload[0], bytes)


class TestRoundTrip:
    @pytest.mark.parametrize("codec", ["gorilla", "chimp"])
    @both_tiers
    @given(values=series, start=st.integers(0, 2**40))
    @example(values=[3.25], start=0)                  # count == 1
    @example(values=[0.1, 0.2, 0.3], start=7)         # bit_length % 8 != 0
    def test_bits_payload(self, codec, values, start):
        block = get_codec(codec).encode(np.asarray(values))
        summary = (len(values), min(values), max(values), float(sum(values)))
        restored, got_start, got_summary = unpack_block(
            pack_block(block, start=start, summary=summary))
        assert_same_block(restored, block)
        assert (got_start, got_summary) == (start, summary)
        assert np.array_equal(get_codec(codec).decode(restored),
                              np.asarray(values))

    def test_the_pinned_bits_examples_are_the_cases_they_claim(self):
        assert get_codec("gorilla").encode(np.array([3.25])).payload[2] == 1
        for codec in ("gorilla", "chimp"):
            block = get_codec(codec).encode(np.array([0.1, 0.2, 0.3]))
            assert block.payload[1] % 8 != 0

    @both_tiers
    @given(values=series)
    def test_values_payload(self, values):
        block = get_codec("raw").encode(np.asarray(values))
        restored, start, summary = unpack_block(pack_block(block))
        assert_same_block(restored, block)
        assert (start, summary) == (0, (0, 0.0, 0.0, 0.0))

    @both_tiers
    @given(inner=st.lists(st.tuples(st.integers(1, 50), finite), max_size=20),
           ends=st.tuples(finite, finite, finite),
           name=st.text(max_size=12), deviation=finite)
    def test_irregular_payload_with_numpy_metadata(self, inner, ends, name,
                                                   deviation):
        indices = np.concatenate(
            ([0], np.cumsum([gap for gap, _ in inner], dtype=np.int64)))
        indices = np.append(indices, indices[-1] + 1)
        values = np.array([ends[0], *(value for _, value in inner), ends[1]])
        kept = IrregularSeries(
            indices=indices, values=values,
            original_length=int(indices[-1]) + 1, name=name,
            metadata={"achieved_deviation": np.float64(deviation),
                      "lags": np.arange(3), "nested": {"kept": np.int64(2)}})
        block = CompressedBlock(
            codec="cameo", payload=kept, length=kept.original_length,
            bits=kept.bits(), lossless=False,
            metadata={"epsilon": np.float64(ends[2]), "shape": (1, 2),
                      "kept_points": np.int32(len(kept)), "note": name})
        restored, _, _ = unpack_block(pack_block(block))
        assert_same_block(restored, block)
        assert type(restored.metadata["epsilon"]) is float
        assert type(restored.payload.metadata["achieved_deviation"]) is float

    def test_a_real_cameo_block_decodes_to_the_same_values(self):
        codec = get_codec("cameo", max_lag=6, epsilon=0.05)
        block = codec.encode(np.sin(np.arange(300) / 7.0))
        restored, _, _ = unpack_block(pack_block(block))
        assert_same_block(restored, block)
        assert np.array_equal(codec.decode(restored), codec.decode(block))

    def test_model_payloads_are_still_refused(self):
        block = get_codec("pmc", error_bound=0.1).encode(np.arange(20.0))
        assert isinstance(block.payload, CompressedModel)
        with pytest.raises(StorageError, match="cannot be persisted"):
            pack_block(block)

    def test_a_block_too_large_for_the_header_is_refused(self):
        block = get_codec("raw").encode(np.arange(4.0))
        block.codec = "x" * 256
        with pytest.raises(StorageError, match="does not fit"):
            pack_block(block)


class TestSize:
    @pytest.mark.parametrize("codec", ["gorilla", "chimp", "raw"])
    def test_overhead_is_a_header_not_a_spelling(self, codec):
        rng = np.random.default_rng(3)
        block = get_codec(codec).encode(np.round(rng.normal(size=1024), 2))
        payload = (block.payload.nbytes if codec == "raw"
                   else len(block.payload[0]))
        assert payload == -(-block.bits // 8)
        assert len(pack_block(block)) <= (
            payload + 128 + len(block.codec)
            + len(json.dumps(block.metadata)))

    @pytest.mark.parametrize("codec", ["gorilla", "chimp"])
    def test_seg_file_carries_the_encoders_bytes(self, codec, tmp_path):
        rng = np.random.default_rng(4)
        values = np.round(rng.normal(size=64), 2)
        with DurableStore.create(tmp_path / "s",
                                 default_segment_size=64) as store:
            store.create_series("x", codec=codec)
            assert store.append("x", values) == 1
        (segment_file,) = (tmp_path / "s").glob("segments/*/*/seg-*.seg")
        data = segment_file.read_bytes()
        payload = get_codec(codec).encode(values).payload[0]
        assert data[:4] == BLOCK_MAGIC
        assert data[-4 - len(payload):-4] == payload


class TestCorruption:
    """One packed segment, every single-byte flip and every proper prefix."""

    VALUES = np.array([1.5, -2.25, 3.0, 4.125, 5.0, 6.5, -7.75, 8.0])

    def _damaged(self, packed: bytes):
        for position in range(len(packed)):
            flipped = bytearray(packed)
            flipped[position] ^= 1 << (position % 8)
            yield f"flip@{position}", bytes(flipped)
        for length in range(len(packed)):
            yield f"cut@{length}", packed[:length]

    @pytest.mark.parametrize("codec", ["gorilla", "raw"])
    def test_unpack_refuses_with_a_reason_code(self, codec):
        packed = pack_block(get_codec(codec).encode(self.VALUES), start=8,
                            summary=(8, -7.75, 8.0, 18.125))
        reasons = set()
        for label, damaged in self._damaged(packed):
            with pytest.raises(BlockFormatError) as refusal:
                unpack_block(damaged)
            assert refusal.value.reason in REASONS, label
            reasons.add(refusal.value.reason)
        assert reasons == {"checksum-mismatch", "truncated-header",
                           "truncated-footer"}

    def test_intact_bytes_of_another_format_are_a_parse_error(self):
        from repro.codecs.checksum import crc32c

        packed = bytearray(pack_block(get_codec("raw").encode(self.VALUES)))
        packed[4] = 9                                   # a future format byte
        packed[-4:] = crc32c(bytes(packed[:-4])).to_bytes(4, "little")
        with pytest.raises(BlockFormatError) as refusal:
            unpack_block(bytes(packed))
        assert refusal.value.reason == "parse-error"

    def test_open_quarantines_and_never_returns_wrong_values(self, tmp_path):
        pristine = tmp_path / "pristine"
        with DurableStore.create(pristine, default_segment_size=8) as store:
            store.create_series("x", codec="raw")
            store.append("x", np.concatenate((self.VALUES, self.VALUES + 1)))
        first = sorted(pristine.glob("segments/*/*/seg-*.seg"))[0]
        for label, damaged in self._damaged(first.read_bytes()):
            root = tmp_path / "damaged"
            shutil.copytree(pristine, root)
            (root / first.relative_to(pristine)).write_bytes(damaged)
            with DurableStore.open(root) as store:
                (entry,) = store.recovery.quarantined
                assert entry.reason in REASONS, label
                assert (entry.start, entry.length) == (0, 8), label
                with pytest.raises(StorageError, match="quarantined"):
                    store.read("x")
                assert np.array_equal(store.read("x", 8, 16),
                                      self.VALUES + 1), label
            shutil.rmtree(root)
