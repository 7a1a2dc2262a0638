"""Cross-module property tests: invariants that must hold across subsystems.

These tests tie together the compressor, the streaming wrapper, the storage
engine and the statistics toolkit: whatever path a series takes through the
library, the statistic bound, the reconstruction geometry and the accounting
must stay consistent.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CameoCompressor, cameo_compress
from repro.codecs import available_codecs, get_codec
from repro.stats import acf
from repro.storage import TimeSeriesStore
from repro.streaming import MultiStreamCompressor

RNG = np.random.default_rng(31)


def _series(n: int, period: int, noise: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return (np.sin(2 * np.pi * t / period) + 0.2 * np.sin(2 * np.pi * t / (period * 3))
            + noise * rng.standard_normal(n))


class TestCompressorInvariants:
    @given(st.integers(min_value=150, max_value=400),
           st.integers(min_value=8, max_value=32),
           st.floats(min_value=0.005, max_value=0.08),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=12, deadline=None)
    def test_bound_geometry_and_accounting(self, n, period, epsilon, seed):
        """Bound holds, endpoints retained, indices sorted, CR consistent."""
        values = _series(n, period, 0.1, seed)
        max_lag = min(period, n // 4)
        result = cameo_compress(values, max_lag=max_lag, epsilon=epsilon)

        # Geometry invariants of the irregular representation.
        assert result.indices[0] == 0 and result.indices[-1] == n - 1
        assert np.all(np.diff(result.indices) > 0)
        np.testing.assert_array_equal(result.values, values[result.indices])

        # The ACF bound is honoured by the reconstruction.
        reconstruction = result.decompress()
        deviation = float(np.mean(np.abs(acf(values, max_lag) - acf(reconstruction, max_lag))))
        assert deviation <= epsilon + 1e-9

        # Accounting is consistent.
        assert result.compression_ratio() == pytest.approx(n / len(result))
        assert result.bits_per_value() == pytest.approx(64 * len(result) / n)

        # Retained points are reproduced exactly by the reconstruction.
        np.testing.assert_allclose(reconstruction[result.indices], values[result.indices])

    @given(st.floats(min_value=0.002, max_value=0.05),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_skip_policy_never_compresses_less_than_stop(self, epsilon, seed):
        values = _series(300, 20, 0.1, seed)
        stop = CameoCompressor(20, epsilon, on_violation="stop").compress(values)
        skip = CameoCompressor(20, epsilon, on_violation="skip").compress(values)
        assert skip.compression_ratio() >= stop.compression_ratio() - 1e-12


class TestStreamingOfflineConsistency:
    def test_single_chunk_stream_equals_offline_compression(self):
        """A stream whose chunk covers the whole series is offline CAMEO."""
        values = _series(512, 24, 0.1, seed=3)
        offline = cameo_compress(values, max_lag=24, epsilon=0.02)
        multi = MultiStreamCompressor(
            512, "cameo", codec_options=dict(max_lag=24, epsilon=0.02))
        assert multi.add("s", values) == 1
        chunks = [chunk for _stream, chunk in multi.drain()]
        np.testing.assert_array_equal(chunks[0].compressed.indices, offline.indices)
        np.testing.assert_array_equal(chunks[0].compressed.values, offline.values)

    @given(st.integers(min_value=2, max_value=5))
    @settings(max_examples=5, deadline=None)
    def test_chunking_never_violates_per_chunk_bound(self, num_chunks):
        epsilon = 0.02
        chunk_size = 200
        values = _series(chunk_size * num_chunks, 20, 0.1, seed=num_chunks)
        multi = MultiStreamCompressor(
            chunk_size, "cameo", codec_options=dict(max_lag=20, epsilon=epsilon))
        assert multi.add("s", values) == num_chunks
        assert len(multi.drain()) == num_chunks
        assert multi.report("s").worst_chunk_deviation <= epsilon + 1e-9


class TestStorageConsistency:
    @given(st.sampled_from(sorted(set(available_codecs()) - {"pmc", "swing", "simpiece", "fft"})),
           st.integers(min_value=64, max_value=300))
    @settings(max_examples=10, deadline=None)
    def test_store_read_matches_direct_codec_roundtrip(self, codec_name, segment_size):
        """Reading a one-segment store equals decoding the codec directly."""
        values = _series(segment_size, 16, 0.1, seed=segment_size)
        codec = get_codec(codec_name, **({"max_lag": 8, "epsilon": 0.05}
                                          if codec_name not in ("raw", "gorilla", "chimp")
                                          else {}))
        direct = codec.decode(codec.encode(values))

        store = TimeSeriesStore()
        store.create_series("s", codec=codec, segment_size=segment_size)
        store.append("s", values)
        np.testing.assert_allclose(store.read("s"), direct)

    def test_footprint_never_exceeds_raw_for_irregular_codecs(self):
        values = _series(2_000, 24, 0.05, seed=7)
        store = TimeSeriesStore(default_segment_size=500)
        store.create_series("s", codec="cameo",
                            codec_options={"max_lag": 24, "epsilon": 0.05})
        store.append("s", values)
        store.flush("s")
        info = store.info("s")
        # 64 bits/value + 32 bits/index per *retained* point; with a 0.05
        # bound on this smooth series the footprint must beat raw storage.
        assert info.encoded_bits < info.raw_bits
        assert info.bits_per_value < 64
