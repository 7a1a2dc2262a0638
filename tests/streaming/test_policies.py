"""Property-based tests for the input-policy layer (``repro.sanitize``).

Hypothesis drives random NaN-run placements, gap patterns, and shuffled
arrival orders through :func:`repro.sanitize.sanitize` and the streaming
compressor, asserting the invariants the layer promises:

* kept values are exactly the finite input values, in (time)order;
* ``restore_shape`` is the exact inverse of ``on_nan="split"``;
* segment boundaries are strictly inside the kept array and sealed chunks
  never bridge them;
* stream accounting always balances: ``ingested = sealed + buffered +
  dropped``;
* clean input is returned as the *same array object* (bit-identity of
  sanitized and unsanitized runs).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import PolicyViolationError
from repro.sanitize import InputPolicy, restore_shape, sanitize
from repro.streaming import MultiStreamCompressor

SETTINGS = settings(max_examples=40, deadline=None)

finite_values = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
              allow_infinity=False, width=64),
    min_size=1, max_size=120)


@st.composite
def values_with_nan_runs(draw):
    """A finite base array with random NaN runs spliced in."""
    base = np.asarray(draw(finite_values), dtype=np.float64)
    run_count = draw(st.integers(min_value=1, max_value=4))
    values = base
    for _ in range(run_count):
        position = draw(st.integers(min_value=0, max_value=values.size))
        length = draw(st.integers(min_value=1, max_value=6))
        values = np.concatenate([values[:position],
                                 np.full(length, np.nan), values[position:]])
    return values


@st.composite
def gapped_timestamps(draw, size):
    """Mostly-regular timestamps with a few large gaps; returns (stamps, gaps)."""
    deltas = np.ones(size - 1, dtype=np.float64)
    gap_count = draw(st.integers(min_value=0, max_value=min(3, size - 1)))
    gap_positions = draw(st.lists(
        st.integers(min_value=0, max_value=size - 2),
        min_size=gap_count, max_size=gap_count, unique=True))
    for position in gap_positions:
        deltas[position] = draw(st.floats(min_value=50.0, max_value=1e4))
    stamps = np.concatenate([[0.0], np.cumsum(deltas)])
    return stamps, len(gap_positions)


class TestNanRunProperties:
    @SETTINGS
    @given(values=values_with_nan_runs())
    def test_split_drops_exactly_the_nans(self, values):
        result = sanitize(values, InputPolicy(on_nan="split"))
        finite = values[~np.isnan(values)]
        assert np.array_equal(result.values, finite)
        assert result.report.dropped_nan == int(np.isnan(values).sum())
        assert result.report.final_length == finite.size

    @SETTINGS
    @given(values=values_with_nan_runs())
    def test_restore_shape_inverts_split(self, values):
        result = sanitize(values, InputPolicy(on_nan="split"))
        restored = restore_shape(result.values,
                                 result.report.as_metadata())
        assert restored.size == values.size
        nan_mask = np.isnan(values)
        assert np.array_equal(np.isnan(restored), nan_mask)
        assert np.array_equal(restored[~nan_mask], values[~nan_mask])

    @SETTINGS
    @given(values=values_with_nan_runs())
    def test_segment_starts_are_interior_and_increasing(self, values):
        result = sanitize(values, InputPolicy(on_nan="split"))
        starts = result.segment_starts
        assert starts == sorted(set(starts))
        assert all(0 < start < result.values.size for start in starts)

    @SETTINGS
    @given(values=values_with_nan_runs())
    def test_skip_matches_split_values(self, values):
        skip = sanitize(values, InputPolicy(on_nan="skip"))
        split = sanitize(values, InputPolicy(on_nan="split"))
        assert np.array_equal(skip.values, split.values)
        assert skip.report.nan_runs == []  # skip records only counts
        assert skip.segment_starts == []

    @SETTINGS
    @given(values=values_with_nan_runs())
    def test_default_policy_raises(self, values):
        with pytest.raises(PolicyViolationError):
            sanitize(values)


class TestTimestampProperties:
    @SETTINGS
    @given(data=st.data(), values=finite_values)
    def test_gap_split_partitions_the_values(self, data, values):
        values = np.asarray(values, dtype=np.float64)
        if values.size < 2:
            return
        stamps, gap_count = data.draw(gapped_timestamps(size=values.size))
        result = sanitize(values, InputPolicy(on_gap="split", gap_limit=10.0),
                          timestamps=stamps)
        assert result.report.gaps == gap_count
        assert len(result.segment_starts) == gap_count
        segments = np.split(result.values, result.segment_starts)
        assert np.array_equal(np.concatenate(segments), values)

    @SETTINGS
    @given(data=st.data(), values=finite_values)
    def test_sort_recovers_timestamp_order(self, data, values):
        values = np.asarray(values, dtype=np.float64)
        order = data.draw(st.permutations(range(values.size)))
        stamps = np.asarray(order, dtype=np.float64)
        result = sanitize(values, InputPolicy(on_out_of_order="sort",
                                              on_gap="ignore"),
                          timestamps=stamps)
        inverse = np.argsort(stamps, kind="stable")
        assert np.array_equal(result.values, values[inverse])
        assert result.report.sorted == bool(
            values.size > 1 and np.any(np.diff(stamps) < 0))

    @SETTINGS
    @given(values=finite_values)
    def test_monotonic_timestamps_are_clean(self, values):
        values = np.asarray(values, dtype=np.float64)
        stamps = np.arange(values.size, dtype=np.float64)
        result = sanitize(values, InputPolicy(on_gap="split",
                                              on_out_of_order="sort"),
                          timestamps=stamps)
        assert result.values is values
        assert result.report.clean


class TestCleanInputIdentity:
    @SETTINGS
    @given(values=finite_values)
    def test_clean_input_is_same_object(self, values):
        array = np.asarray(values, dtype=np.float64)
        result = sanitize(array, InputPolicy(on_nan="split", on_inf="skip"))
        assert result.values is array
        assert result.report.clean
        assert result.segment_starts == []

    @SETTINGS
    @given(values=finite_values)
    def test_streaming_bit_identity_on_clean_input(self, values):
        array = np.asarray(values, dtype=np.float64)
        plain = MultiStreamCompressor(16, codec="gorilla")
        policed = MultiStreamCompressor(16, codec="gorilla",
                                        policy=InputPolicy(on_nan="split",
                                                           on_gap="split"))
        plain.add("s", array)
        policed.add("s", array)
        assert [chunk.block.payload for _stream, chunk in plain.flush()] \
            == [chunk.block.payload for _stream, chunk in policed.flush()]


class TestStreamingAccounting:
    @SETTINGS
    @given(values=values_with_nan_runs(),
           chunk_size=st.integers(min_value=2, max_value=40))
    def test_ingest_balance_invariant(self, values, chunk_size):
        multi = MultiStreamCompressor(chunk_size, codec="gorilla",
                                      policy=InputPolicy(on_nan="split"))
        multi.add("s", values)
        multi.drain()
        report = multi.report("s")
        assert report.ingested_points == (report.sealed_points
                                          + report.buffered_points
                                          + report.dropped_points)
        assert report.dropped_points == int(np.isnan(values).sum())
        multi.flush()
        assert report.buffered_points == 0
        finite = values[~np.isnan(values)]
        assert report.sealed_points == finite.size
        assert np.array_equal(multi.reconstruct("s"), finite)

    @SETTINGS
    @given(values=values_with_nan_runs(),
           chunk_size=st.integers(min_value=2, max_value=40))
    def test_no_sealed_chunk_bridges_a_nan_run(self, values, chunk_size):
        """Each sealed chunk must come entirely from one gap-free segment."""
        multi = MultiStreamCompressor(chunk_size, codec="gorilla",
                                      policy=InputPolicy(on_nan="split"))
        multi.add("s", values)
        chunks = [chunk for _stream, chunk in multi.flush()]
        # Segment boundaries in kept coordinates, straight from sanitize.
        boundaries = set(
            sanitize(values, InputPolicy(on_nan="split")).segment_starts)
        offset = 0
        for chunk in chunks:
            interior = set(range(offset + 1, offset + chunk.length))
            assert not (interior & boundaries), \
                f"chunk at offset {offset} bridges a NaN run"
            offset += chunk.length
