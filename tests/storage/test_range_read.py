"""Range reads decode each segment once, and only up to where they stop.

``Codec.decode_prefix(block, k)`` must be ``decode(block)[:k]``; a store
read must be the slice of every segment's whole decode followed by the
write buffer, bit for bit, wherever the range starts and stops; and the
array a read returns belongs to the caller.  Everything runs on both kernel
tiers: here the native XOR decoders are called with counts below the one
their stream holds, on payloads read back from segment files — the
sanitizer CI leg runs this file for that.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codecs import available_codecs, get_codec
from repro.storage import DurableStore, TimeSeriesStore

pytestmark = pytest.mark.usefixtures("kernel_tier")

#: The kernel_tier fixture is set once per test, not per example; every
#: example of a test is meant to run on that one tier.
both_tiers = settings(max_examples=30, deadline=None,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])

#: The codecs the store property runs over: both XOR decoders, the raw
#: slice, and the base class's decode-then-slice default (CAMEO).
PROPERTY_CODECS = ("gorilla", "chimp", "raw", "cameo")
PROPERTY_OPTIONS = {"cameo": {"max_lag": 8, "epsilon": 0.05}}


def _sensor(n: int, seed: int) -> np.ndarray:
    """A rounded random walk with runs of repeats: every XOR control code."""
    rng = np.random.default_rng(seed)
    steps = np.round(rng.normal(0.0, 0.4, n), 2)
    steps[rng.random(n) < 0.2] = 0.0
    return np.round(20.0 + np.cumsum(steps), 2)


def _same(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def _codec(name: str):
    return get_codec(name, **PROPERTY_OPTIONS.get(name, {}))


def _oracle(store, name: str, values: np.ndarray, codec) -> np.ndarray:
    """Every segment's block decoded whole, then the buffered values."""
    sealed = store.info(name).sealed_points
    return np.concatenate([codec.decode(segment.chunk)
                           for segment in store.segments(name)]
                          + [values[sealed:]])


def _ranges(store, name: str):
    """The edges of a read: segment boundaries, single values, the tail."""
    total = store.length(name)
    sealed = store.info(name).sealed_points
    for segment in store.segments(name):
        yield segment.start, segment.end
        yield segment.end - 1, segment.end
        yield 0, segment.end
        yield segment.start, segment.end + 1
    for position in range(total):
        yield position, position + 1
    yield sealed, total
    yield max(sealed - 1, 0), total
    yield total - 1, total + 3


def _assert_reads(store, name: str, values: np.ndarray, codec,
                  ranges) -> None:
    expected = _oracle(store, name, values, codec)
    for start, stop in ranges:
        _same(store.read(name, start, stop), expected[start:stop])
    for position in range(expected.size):
        assert store.value_at(name, position) == float(expected[position])


class TestDecodePrefix:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("name", sorted(available_codecs()))
    def test_every_prefix_of_every_codec(self, name, dtype, fast_codec_options):
        codec = get_codec(name, **fast_codec_options(name))
        block = codec.encode(_sensor(64, seed=1).astype(dtype))
        full = codec.decode(block)
        for count in range(1, block.length + 1):
            _same(codec.decode_prefix(block, count), full[:count])

    @both_tiers
    @given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=80),
           name=st.sampled_from(["gorilla", "chimp", "raw"]))
    def test_arbitrary_series(self, values, name):
        codec = get_codec(name)
        block = codec.encode(np.asarray(values))
        full = codec.decode(block)
        for count in range(1, block.length + 1):
            _same(codec.decode_prefix(block, count), full[:count])


class TestStoreReads:
    @both_tiers
    @given(name=st.sampled_from(PROPERTY_CODECS),
           segment_size=st.integers(1, 40),
           appends=st.lists(st.integers(1, 60), min_size=1, max_size=5),
           seed=st.integers(0, 2 ** 16), data=st.data())
    def test_read_is_the_slice_of_whole_decodes(self, name, segment_size,
                                                appends, seed, data):
        store = TimeSeriesStore()
        store.create_series("s", codec=name, segment_size=segment_size,
                            codec_options=PROPERTY_OPTIONS.get(name))
        values = _sensor(sum(appends), seed)
        offset = 0
        for size in appends:
            store.append("s", values[offset:offset + size])
            offset += size
        bound = values.size + 3
        drawn = data.draw(st.lists(st.tuples(st.integers(0, bound),
                                             st.integers(0, bound)),
                                   max_size=20))
        _assert_reads(store, "s", values, _codec(name),
                      [*_ranges(store, "s"), *drawn])

    @pytest.mark.parametrize("name", PROPERTY_CODECS)
    def test_every_range_of_a_reopened_store(self, name, tmp_path):
        """Payloads read back from segment files, every [start, stop)."""
        values = _sensor(50, seed=7)
        with DurableStore.create(tmp_path / "store",
                                 default_segment_size=16) as store:
            store.create_series("s", codec=name,
                                codec_options=PROPERTY_OPTIONS.get(name))
            store.append("s", values)
        with DurableStore.open(tmp_path / "store") as reopened:
            assert len(reopened.memory.segments("s")) == 3
            ranges = [(start, stop) for start in range(values.size + 1)
                      for stop in range(start, values.size + 2)]
            _assert_reads(reopened.memory, "s", values, _codec(name), ranges)


class TestReadsOwnTheirArrays:
    """A read inside one segment comes back without a concatenate: writing
    to it must not reach the store."""

    @pytest.mark.parametrize("name", sorted(available_codecs()))
    def test_mutating_a_read_leaves_the_store_unchanged(self, name,
                                                        fast_codec_options):
        store = TimeSeriesStore()
        store.create_series("s", codec=name, segment_size=32,
                            codec_options=fast_codec_options(name))
        store.append("s", _sensor(80, seed=3))   # two segments, 16 buffered
        whole = store.read("s")
        for start, stop in ((3, 20), (20, 50), (70, 80), (40, 70)):
            first = store.read("s", start, stop)
            first[:] = -1.0e9
            _same(store.read("s", start, stop), whole[start:stop])
        _same(store.read("s"), whole)
