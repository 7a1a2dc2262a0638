"""Tests for the segment store (repro.storage.store / repro.storage.segment)."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.codecs import CompressedBlock, get_codec
from repro.exceptions import InvalidParameterError, SeriesNotFoundError, StorageError
from repro.storage import (
    QueryEngine,
    RawCodec,
    Segment,
    SegmentSummary,
    SeriesInfo,
    TimeSeriesStore,
)

RNG = np.random.default_rng(3)


def _seasonal(n: int, period: int = 48) -> np.ndarray:
    t = np.arange(n)
    return 20 + 5 * np.sin(2 * np.pi * t / period) + 0.3 * RNG.standard_normal(n)


class TestSegment:
    def _segment(self, n=128, start=0):
        codec = RawCodec()
        values = _seasonal(n)
        return Segment(start, codec.encode(values), codec), values

    def test_geometry(self):
        segment, _ = self._segment(100, start=50)
        assert segment.length == 100
        assert segment.end == 150
        assert segment.contains(50) and segment.contains(149)
        assert not segment.contains(150)
        assert segment.overlaps(140, 200) and not segment.overlaps(150, 200)
        assert segment.covered_by(0, 150) and not segment.covered_by(60, 150)

    def test_decode_and_slice(self):
        segment, values = self._segment(100, start=10)
        np.testing.assert_array_equal(segment.decode(), values)
        np.testing.assert_array_equal(segment.slice(20, 30), values[10:20])
        assert segment.slice(200, 300).size == 0
        assert segment.value_at(10) == pytest.approx(values[0])

    def test_value_at_outside_raises(self):
        segment, _ = self._segment(10, start=0)
        with pytest.raises(StorageError):
            segment.value_at(10)

    def test_summary_matches_reconstruction(self):
        segment, values = self._segment(64)
        assert segment.summary.count == 64
        assert segment.summary.minimum == pytest.approx(np.min(values))
        assert segment.summary.maximum == pytest.approx(np.max(values))
        assert segment.summary.total == pytest.approx(np.sum(values))
        assert segment.summary.mean == pytest.approx(np.mean(values))

    def test_invalid_segments_rejected(self):
        codec = RawCodec()
        chunk = codec.encode(_seasonal(8))
        with pytest.raises(StorageError):
            Segment(-1, chunk, codec)
        with pytest.raises(StorageError):
            SegmentSummary.from_values(np.empty(0))


class TestStoreIngest:
    def test_create_and_list(self):
        store = TimeSeriesStore()
        store.create_series("a", codec="raw")
        store.create_series("b", codec="gorilla")
        assert store.list_series() == ["a", "b"]
        assert "a" in store and len(store) == 2

    def test_duplicate_series_rejected(self):
        store = TimeSeriesStore()
        store.create_series("a", codec="raw")
        with pytest.raises(StorageError):
            store.create_series("a", codec="raw")

    def test_unknown_series_raises(self):
        store = TimeSeriesStore()
        with pytest.raises(SeriesNotFoundError):
            store.append("missing", [1.0])

    def test_empty_name_rejected(self):
        store = TimeSeriesStore()
        with pytest.raises(InvalidParameterError):
            store.create_series("   ", codec="raw")

    def test_append_seals_full_segments(self):
        store = TimeSeriesStore()
        store.create_series("s", codec="raw", segment_size=100)
        sealed = store.append("s", _seasonal(250))
        assert sealed == 2
        assert store.length("s") == 250
        assert len(store.segments("s")) == 2
        info = store.info("s")
        assert info.buffered_points == 50 and info.sealed_points == 200

    def test_scalar_append(self):
        store = TimeSeriesStore()
        store.create_series("s", codec="raw", segment_size=4)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):
            store.append("s", value)
        assert store.length("s") == 5
        assert len(store.segments("s")) == 1

    def test_flush_seals_partial_buffer(self):
        store = TimeSeriesStore()
        store.create_series("s", codec="raw", segment_size=100)
        store.append("s", _seasonal(130))
        assert store.flush("s") == 1
        assert store.info("s").buffered_points == 0
        assert store.flush("s") == 0   # nothing left to flush

    def test_flush_all_series(self):
        store = TimeSeriesStore()
        for name in ("a", "b"):
            store.create_series(name, codec="raw", segment_size=64)
            store.append(name, _seasonal(10))
        assert store.flush() == 2

    def test_codec_instance_accepted(self):
        store = TimeSeriesStore()
        store.create_series("s", codec=RawCodec(), segment_size=16)
        store.append("s", _seasonal(16))
        assert store.info("s").codec == "raw"

    def test_codec_options_with_instance_rejected(self):
        store = TimeSeriesStore()
        with pytest.raises(InvalidParameterError):
            store.create_series("s", codec=RawCodec(), codec_options={"x": 1})

    def test_drop_series(self):
        store = TimeSeriesStore()
        store.create_series("s", codec="raw")
        store.drop_series("s")
        assert "s" not in store


class TestInstall:
    """A log series buffers every append; ``install`` seals its oldest
    values as a block encoded elsewhere."""

    @pytest.fixture
    def store(self):
        store = TimeSeriesStore(default_segment_size=4)
        store.create_series("log", codec="gorilla", log=True)
        store.append("log", np.arange(10.0))
        return store

    def test_a_log_series_never_seals_by_itself(self, store):
        assert store.flush("log") == 0
        assert store.info("log").buffered_points == 10

    def test_install_seals_the_oldest_buffered_values(self, store):
        gorilla, raw = get_codec("gorilla"), get_codec("raw")
        first = store.install("log", gorilla.encode(np.arange(4.0)))
        second = store.install("log", raw.encode(np.arange(4.0, 7.0)))
        assert (first.start, second.start) == (0, 4)
        info = store.info("log")
        assert (info.segments, info.buffered_points) == (2, 3)
        # A block of another codec decodes with its own.
        assert np.array_equal(store.read("log"), np.arange(10.0))

    def test_a_non_log_series_is_refused(self, store):
        store.create_series("plain", codec="raw")
        store.append("plain", [1.0, 2.0])
        with pytest.raises(StorageError, match="not a log"):
            store.install("plain", get_codec("raw").encode([1.0, 2.0]))

    def test_a_block_longer_than_the_buffer_is_refused(self, store):
        with pytest.raises(StorageError, match="10 buffered"):
            store.install("log", get_codec("raw").encode(np.arange(11.0)))
        assert store.info("log").buffered_points == 10

    def test_a_block_of_the_wrong_length_is_refused(self, store):
        block = get_codec("raw").encode(np.arange(4.0))
        lying = CompressedBlock(codec="raw", payload=block.payload, length=5,
                                bits=block.bits, lossless=True)
        with pytest.raises(StorageError, match="decodes to 4"):
            store.install("log", lying)
        info = store.info("log")
        assert (info.segments, info.buffered_points) == (0, 10)


class TestStoreReads:
    def _loaded_store(self, codec="raw", n=500, segment_size=128, **codec_options):
        store = TimeSeriesStore()
        store.create_series("s", codec=codec, segment_size=segment_size,
                            codec_options=codec_options or None)
        values = _seasonal(n)
        store.append("s", values)
        return store, values

    def test_read_everything_lossless(self):
        store, values = self._loaded_store()
        np.testing.assert_array_equal(store.read("s"), values)

    def test_read_subrange_spanning_segments_and_buffer(self):
        store, values = self._loaded_store(n=500, segment_size=128)
        np.testing.assert_array_equal(store.read("s", 100, 450), values[100:450])

    def test_read_empty_range(self):
        store, _ = self._loaded_store()
        assert store.read("s", 300, 100).size == 0

    def test_read_clamps_stop(self):
        store, values = self._loaded_store(n=200)
        np.testing.assert_array_equal(store.read("s", 150, 10_000), values[150:])

    def test_negative_range_rejected(self):
        store, _ = self._loaded_store()
        with pytest.raises(StorageError):
            store.read("s", -1, 10)

    def test_value_at_matches_read(self):
        store, values = self._loaded_store(n=300, segment_size=64)
        for position in (0, 63, 64, 255, 299):
            assert store.value_at("s", position) == pytest.approx(values[position])

    def test_every_range_over_uneven_segments(self):
        """The segment lookup is a bisect on segment starts: every range
        and position, over segments of different lengths and a buffer."""
        store = TimeSeriesStore()
        store.create_series("s", codec="raw", segment_size=16)
        values = _seasonal(150)
        store.append("s", values[:40])
        store.flush("s")                    # an 8-value segment mid-series
        store.append("s", values[40:])
        assert [segment.length for segment in store.segments("s")] \
            == [16, 16, 8] + [16] * 6
        for start in range(151):
            for stop in range(start, 152):
                np.testing.assert_array_equal(store.read("s", start, stop),
                                              values[start:stop])
        for position in range(150):
            assert store.value_at("s", position) == values[position]

    def test_value_at_out_of_range(self):
        store, _ = self._loaded_store(n=10)
        with pytest.raises(StorageError):
            store.value_at("s", 10)

    def test_lossy_cameo_read_is_close_and_smaller(self):
        store, values = self._loaded_store(codec="cameo", n=1024, segment_size=512,
                                           max_lag=24, epsilon=0.05)
        store.flush("s")
        reconstruction = store.read("s")
        assert reconstruction.shape == values.shape
        nrmse = np.sqrt(np.mean((reconstruction - values) ** 2)) / np.ptp(values)
        assert nrmse < 0.2
        info = store.info("s")
        assert info.compression_ratio > 1.0
        assert info.bits_per_value < 64

    @given(st.integers(min_value=1, max_value=400), st.integers(min_value=16, max_value=128))
    @settings(max_examples=20, deadline=None)
    def test_read_roundtrip_property(self, n, segment_size):
        store = TimeSeriesStore()
        store.create_series("s", codec="raw", segment_size=segment_size)
        values = RNG.standard_normal(n)
        store.append("s", values)
        np.testing.assert_array_equal(store.read("s"), values)


class _NoWalk(list):
    """A segment list that refuses to be walked from end to end."""

    def __iter__(self):
        raise AssertionError("walked the whole segment list")


class TestSealedGeometry:
    """Segments and quarantine holes tile ``[0, sealed_points)``, so the
    sealed end is the end of the last piece: no walk over the series."""

    @staticmethod
    def _tiled(pieces, buffered, shuffle_seed):
        """A series laid out as ``pieces`` (``(is_hole, length)`` in
        position order) plus ``buffered`` values; returns the store and the
        expected content, NaN inside holes."""
        store = TimeSeriesStore()
        store.create_series("s", codec="raw", segment_size=6)
        state = store._state("s")  # noqa: SLF001 - lay out holes directly
        expected: list[float] = []
        for is_hole, length in pieces:
            position = len(expected)
            values = np.arange(position, position + length) + 0.5
            if is_hole:
                state.holes.append({"start": position, "length": length,
                                    "file": f"q-{position}", "reason": "test"})
                expected.extend([np.nan] * length)
            else:
                state.segments.append(
                    Segment(position, state.codec.encode(values), state.codec))
                expected.extend(values)
        # Recovery records prior holes before new ones: any order is legal.
        random.Random(shuffle_seed).shuffle(state.holes)
        tail = [-(index + 0.5) for index in range(buffered)]
        state.buffer.extend(tail)
        return store, np.asarray(expected + tail)

    @given(st.lists(st.tuples(st.booleans(), st.integers(1, 7)),
                    min_size=1, max_size=7),
           st.integers(0, 5), st.integers(0, 2**16))
    @example([(True, 3), (False, 4)], 0, 0)                 # hole first
    @example([(False, 4), (True, 3), (False, 2)], 2, 0)     # hole in the middle
    @example([(False, 4), (True, 3)], 1, 0)                 # hole last
    @example([(False, 2), (True, 3), (True, 2), (False, 1)], 0, 1)  # adjacent
    @example([(True, 2), (True, 5)], 3, 1)                  # holes only
    @settings(max_examples=40, deadline=None)
    def test_tilings_agree_with_the_summed_definition(self, pieces, buffered,
                                                      shuffle_seed):
        store, expected = self._tiled(pieces, buffered, shuffle_seed)
        state = store._state("s")  # noqa: SLF001
        summed = (sum(segment.length for segment in state.segments)
                  + sum(hole["length"] for hole in state.holes))
        assert store.info("s").sealed_points == summed
        assert store.length("s") == summed + buffered == expected.size
        engine = QueryEngine(store)
        for start in range(expected.size + 1):
            for stop in range(start + 1, expected.size + 2):
                window = expected[start:stop]
                if np.isnan(window).any():
                    with pytest.raises(StorageError, match="quarantined"):
                        store.read("s", start, stop)
                    with pytest.raises(StorageError, match="quarantined"):
                        engine.aggregate("s", "sum", start, stop)
                    continue
                np.testing.assert_array_equal(store.read("s", start, stop),
                                              window)
                if start < expected.size:
                    assert (engine.aggregate("s", "sum", start, stop).value
                            == np.sum(window))
        for position in range(expected.size):
            if np.isnan(expected[position]):
                with pytest.raises(StorageError, match="quarantined"):
                    store.value_at("s", position)
            else:
                assert store.value_at("s", position) == expected[position]
        # A sealing append continues at the end of the last piece.
        assert store.append("s", np.full(6, 9.5)) == 1
        assert state.segments[-1].start == summed
        assert store.length("s") == expected.size + 6

    def test_reads_and_sealing_appends_never_walk_the_segment_list(self):
        store = TimeSeriesStore()
        store.create_series("s", codec="raw", segment_size=16)
        values = _seasonal(16 * 40 + 5)
        store.append("s", values)
        state = store._state("s")  # noqa: SLF001
        state.segments = _NoWalk(state.segments)
        assert store.length("s") == values.size
        np.testing.assert_array_equal(store.read("s", 100, 300), values[100:300])
        np.testing.assert_array_equal(store.read("s", 630), values[630:])
        assert store.value_at("s", 333) == values[333]
        assert store.value_at("s", 642) == values[642]
        assert store.append("s", _seasonal(11)) == 1
        assert state.segments[-1].start == 640


class TestInfoAndCompaction:
    def test_info_accounting(self):
        store = TimeSeriesStore()
        store.create_series("s", codec="raw", segment_size=100, metadata={"unit": "kW"})
        store.append("s", _seasonal(150))
        info = store.info("s")
        assert isinstance(info, SeriesInfo)
        assert info.points == 150
        assert info.raw_bits == 150 * 64
        assert info.encoded_bits == 150 * 64   # raw codec + raw buffer
        assert info.compression_ratio == pytest.approx(1.0)
        assert info.metadata == {"unit": "kW"}

    def test_compact_to_lossless_codec_preserves_values(self):
        store = TimeSeriesStore()
        store.create_series("s", codec="raw", segment_size=64)
        values = _seasonal(300)
        store.append("s", values)
        info = store.compact("s", codec="gorilla", segment_size=128)
        assert info.codec == "gorilla"
        assert info.buffered_points == 0
        np.testing.assert_array_equal(store.read("s"), values)

    def test_compact_with_cameo_reduces_footprint(self):
        store = TimeSeriesStore()
        store.create_series("s", codec="raw", segment_size=256)
        values = _seasonal(1024)
        store.append("s", values)
        before = store.info("s").encoded_bits
        info = store.compact("s", codec="cameo",
                             codec_options={"max_lag": 24, "epsilon": 0.05})
        assert info.encoded_bits < before
        assert store.length("s") == 1024

    def test_compact_same_codec_merges_buffer(self):
        store = TimeSeriesStore()
        store.create_series("s", codec="raw", segment_size=64)
        store.append("s", _seasonal(100))
        info = store.compact("s")
        assert info.buffered_points == 0
        assert info.points == 100

    def test_compact_options_without_codec_rejected(self):
        store = TimeSeriesStore()
        store.create_series("s", codec="raw")
        store.append("s", _seasonal(10))
        with pytest.raises(InvalidParameterError):
            store.compact("s", codec_options={"epsilon": 0.1})

    def test_total_bits_sums_series(self):
        store = TimeSeriesStore()
        for name in ("a", "b"):
            store.create_series(name, codec="raw", segment_size=32)
            store.append(name, _seasonal(32))
        assert store.total_bits() == 2 * 32 * 64

    def test_invalid_segment_size_rejected(self):
        store = TimeSeriesStore()
        with pytest.raises(InvalidParameterError):
            store.create_series("s", codec="raw", segment_size=0)
        with pytest.raises(InvalidParameterError):
            TimeSeriesStore(default_segment_size=-5)
