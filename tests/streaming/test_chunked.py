"""Tests for the chunked streaming CAMEO compressor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codecs import available_codecs, codec_spec, get_codec
from repro.data.timeseries import IrregularSeries
from repro.exceptions import InvalidParameterError, InvalidSeriesError
from repro.stats import acf
from repro.streaming import StreamingCameoCompressor, StreamingCompressor, concat_irregular

RNG = np.random.default_rng(9)


def _commit_failing(multi, failing):
    """Drain ``multi`` with the encodes at the ``failing`` batch positions
    turned into failed outcomes."""
    from repro.engine.report import SeriesOutcome

    batch = multi.take()
    outcomes = list(multi.encode(batch))
    for index in failing:
        outcome = outcomes[index]
        outcomes[index] = SeriesOutcome(
            index=outcome.index, name=outcome.name, length=outcome.length,
            error="injected encode failure", error_type="CodecError")
    return multi.commit(batch, outcomes)


def _seasonal(n: int, period: int = 24, noise: float = 0.05) -> np.ndarray:
    t = np.arange(n)
    return 5 + np.sin(2 * np.pi * t / period) + noise * RNG.standard_normal(n)


class TestStreamingCompressor:
    def test_chunks_cover_the_stream(self):
        stream = StreamingCameoCompressor(chunk_size=200, max_lag=24, epsilon=0.05)
        x = _seasonal(730)
        chunks = stream.add(x) + stream.finalize()
        assert [c.length for c in chunks] == [200, 200, 200, 130]
        assert [c.start for c in chunks] == [0, 200, 400, 600]
        assert sum(c.kept_points for c in chunks) == stream.report().kept_points

    def test_every_chunk_honours_the_bound(self):
        epsilon = 0.03
        stream = StreamingCameoCompressor(chunk_size=240, max_lag=24, epsilon=epsilon)
        x = _seasonal(960)
        chunks = stream.add(x) + stream.finalize()
        for chunk in chunks:
            original = x[chunk.start: chunk.start + chunk.length]
            reconstruction = chunk.compressed.decompress()
            lag = min(24, chunk.length - 1)
            deviation = float(np.mean(np.abs(acf(original, lag) - acf(reconstruction, lag))))
            assert deviation <= epsilon + 1e-9
            assert chunk.achieved_deviation <= epsilon + 1e-9

    def test_incremental_feeding_matches_bulk_feeding(self):
        x = _seasonal(600)
        bulk = StreamingCameoCompressor(chunk_size=150, max_lag=12, epsilon=0.05)
        bulk_chunks = bulk.add(x) + bulk.finalize()
        drip = StreamingCameoCompressor(chunk_size=150, max_lag=12, epsilon=0.05)
        drip_chunks = []
        for value in x:
            drip_chunks.extend(drip.add(value))
        drip_chunks.extend(drip.finalize())
        assert len(bulk_chunks) == len(drip_chunks)
        for a, b in zip(bulk_chunks, drip_chunks):
            np.testing.assert_array_equal(a.compressed.indices, b.compressed.indices)
            np.testing.assert_array_equal(a.compressed.values, b.compressed.values)

    def test_report_accounting(self):
        stream = StreamingCameoCompressor(chunk_size=128, max_lag=16, epsilon=0.05)
        x = _seasonal(300)
        stream.add(x)
        report = stream.report()
        assert report.ingested_points == 300
        assert report.sealed_points == 256
        assert report.buffered_points == 44
        assert report.chunks == 2
        assert report.compression_ratio >= 1.0
        assert len(report.chunk_deviations) == 2
        assert report.worst_chunk_deviation == max(report.chunk_deviations)

    def test_global_acf_tracks_raw_stream(self):
        stream = StreamingCameoCompressor(chunk_size=128, max_lag=12, epsilon=0.05)
        x = _seasonal(500)
        stream.add(x)
        np.testing.assert_allclose(stream.global_acf(), acf(x, 12), atol=1e-9)

    def test_global_acf_disabled(self):
        stream = StreamingCameoCompressor(chunk_size=128, max_lag=12, epsilon=0.05,
                                          track_global_acf=False)
        stream.add(_seasonal(200))
        with pytest.raises(InvalidParameterError):
            stream.global_acf()

    def test_finalize_empty_buffer_returns_nothing(self):
        stream = StreamingCameoCompressor(chunk_size=100, max_lag=10, epsilon=0.05)
        stream.add(_seasonal(200))
        assert stream.finalize() == []

    def test_finalize_single_value_rejected(self):
        stream = StreamingCameoCompressor(chunk_size=100, max_lag=10, epsilon=0.05)
        stream.add(_seasonal(201))
        with pytest.raises(InvalidSeriesError):
            stream.finalize()

    def test_chunk_size_must_exceed_lags(self):
        with pytest.raises(InvalidParameterError):
            StreamingCameoCompressor(chunk_size=30, max_lag=24, epsilon=0.05)

    def test_compressor_options_forwarded(self):
        stream = StreamingCameoCompressor(chunk_size=200, max_lag=12, epsilon=0.05,
                                          statistic="pacf", blocking="1logn")
        chunks = stream.add(_seasonal(200))
        assert chunks[0].compressed.metadata["statistic"] == "pacf"

    def test_non_default_knobs_survive_the_chunk_boundary(self):
        # Every configured knob must reach the per-chunk compressor AND be
        # visible in each sealed block's metadata (not just in the codec).
        stream = StreamingCameoCompressor(
            chunk_size=200, max_lag=12, epsilon=0.05,
            blocking=3, batch_size=1, on_violation="skip", metric="cheb")
        compressor = stream.codec._compressor
        assert compressor.blocking == 3
        assert compressor.batch_size == 1
        assert compressor.on_violation == "skip"
        chunks = stream.add(_seasonal(450)) + stream.flush()
        assert len(chunks) >= 2
        for chunk in chunks:
            metadata = chunk.block.metadata
            if metadata.get("short_segment"):
                continue
            assert metadata["blocking"] == 3
            assert metadata["batch_size"] == 1
            assert metadata["metric"] == "cheb"
            assert metadata["stopped_by"] is not None
            # The bulky reference vector must not ride along.
            assert "reference_statistic" not in metadata

    def test_speculative_batch_survives_name_based_codec_route(self):
        stream = StreamingCompressor(
            chunk_size=128, codec="cameo",
            codec_options=dict(max_lag=10, epsilon=0.05, batch_size=4,
                               blocking=5))
        chunks = stream.add(_seasonal(256)) + stream.flush()
        for chunk in chunks:
            if chunk.block.metadata.get("short_segment"):
                continue
            assert chunk.block.metadata["batch_size"] == 4
            assert chunk.block.metadata["blocking"] == 5


class TestStreamingGenericCodec:
    """Edge cases of the codec-generic stream compressor."""

    def test_empty_stream_flush_returns_nothing(self):
        stream = StreamingCompressor(chunk_size=64, codec="raw")
        assert stream.flush() == []
        assert stream.finalize() == []
        assert stream.reconstruct().size == 0
        report = stream.report()
        assert report.chunks == 0 and report.ingested_points == 0
        assert report.compression_ratio == 1.0

    def test_final_partial_chunk_via_flush(self):
        stream = StreamingCompressor(chunk_size=100, codec="gorilla")
        x = _seasonal(250)
        sealed = stream.add(x)
        assert [c.length for c in sealed] == [100, 100]
        tail = stream.flush()
        assert [c.length for c in tail] == [50]
        assert stream.report().buffered_points == 0
        np.testing.assert_array_equal(stream.reconstruct(), x)

    def test_chunk_size_one(self):
        stream = StreamingCompressor(chunk_size=1, codec="raw")
        x = _seasonal(10)
        sealed = stream.add(x)
        assert len(sealed) == 10
        assert all(c.length == 1 for c in sealed)
        assert stream.flush() == []
        np.testing.assert_array_equal(stream.reconstruct(), x)

    def test_codec_instance_and_options_are_exclusive(self):
        with pytest.raises(InvalidParameterError):
            StreamingCompressor(chunk_size=8, codec=get_codec("raw"),
                                codec_options={"x": 1})

    def test_global_acf_disabled_by_default(self):
        stream = StreamingCompressor(chunk_size=8, codec="raw")
        stream.add(_seasonal(16))
        with pytest.raises(InvalidParameterError):
            stream.global_acf()

    def test_report_tracks_encoded_bits(self):
        stream = StreamingCompressor(chunk_size=128, codec="gorilla")
        x = _seasonal(256)
        stream.add(x)
        report = stream.report()
        assert report.encoded_bits == sum(c.block.bits for c in stream.results)
        assert report.bits_per_value == pytest.approx(report.encoded_bits / 256.0)

    def test_non_point_codec_has_no_irregular_view(self):
        stream = StreamingCompressor(chunk_size=64, codec="gorilla")
        stream.add(_seasonal(64))
        with pytest.raises(InvalidParameterError):
            stream.to_irregular()

    @pytest.mark.parametrize("name", sorted(available_codecs()))
    def test_roundtrip_smoke_over_every_registered_codec(self, name, fast_codec_options):
        """Chunks + final flush cover the stream for every codec."""
        stream = StreamingCompressor(chunk_size=100, codec=name,
                                     codec_options=fast_codec_options(name))
        x = _seasonal(230)
        sealed = stream.add(x) + stream.flush()
        assert [c.length for c in sealed] == [100, 100, 30]
        reconstruction = stream.reconstruct()
        assert reconstruction.shape == x.shape
        assert np.all(np.isfinite(reconstruction))
        if codec_spec(name).family in ("raw", "lossless"):
            np.testing.assert_array_equal(reconstruction, x)
        report = stream.report()
        assert report.sealed_points == 230
        assert report.encoded_bits > 0


class TestConcatIrregular:
    def test_roundtrip_against_chunkwise_reconstruction(self):
        stream = StreamingCameoCompressor(chunk_size=250, max_lag=24, epsilon=0.05)
        x = _seasonal(1_000)
        stream.add(x)
        stream.finalize()
        stitched = stream.to_irregular("session")
        assert isinstance(stitched, IrregularSeries)
        assert stitched.original_length == 1_000
        chunkwise = np.concatenate([c.compressed.decompress() for c in stream.results])
        np.testing.assert_allclose(stitched.decompress(), chunkwise)

    def test_stitched_series_preserves_acf_globally(self):
        stream = StreamingCameoCompressor(chunk_size=480, max_lag=24, epsilon=0.01)
        x = _seasonal(1_920)
        stream.add(x)
        stream.finalize()
        reconstruction = stream.to_irregular().decompress()
        deviation = float(np.mean(np.abs(acf(x, 24) - acf(reconstruction, 24))))
        # Per-chunk bound is 0.01; the global deviation stays the same order.
        assert deviation <= 0.03

    def test_empty_chunk_list_rejected(self):
        with pytest.raises(InvalidParameterError):
            concat_irregular([])

    def test_non_irregular_chunk_rejected(self):
        with pytest.raises(InvalidParameterError):
            concat_irregular([np.arange(5)])

    def test_metadata_counts_chunks(self):
        stream = StreamingCameoCompressor(chunk_size=100, max_lag=10, epsilon=0.05)
        stream.add(_seasonal(250))
        stream.finalize()
        stitched = stream.to_irregular()
        assert stitched.metadata["chunks"] == 3


class TestMultiStreamCompressor:
    def test_chunks_match_single_stream_compressor(self):
        """Every multi-stream chunk equals the single-stream chunk bit for bit."""
        from repro.streaming import MultiStreamCompressor

        x_a = np.round(_seasonal(500), 3)
        x_b = np.round(_seasonal(300, period=12), 3)
        multi = MultiStreamCompressor(chunk_size=128, codec="gorilla")
        multi.add("a", x_a)
        multi.add("b", x_b)
        multi.flush()

        for stream, x in (("a", x_a), ("b", x_b)):
            single = StreamingCompressor(chunk_size=128, codec="gorilla")
            single.add(x)
            single.flush()
            multi_results = multi.results(stream)
            assert len(multi_results) == len(single.results)
            for mine, theirs in zip(multi_results, single.results):
                assert mine.block.payload == theirs.block.payload
            assert np.array_equal(multi.reconstruct(stream), x)
            assert multi.report(stream).chunks == single.report().chunks
            assert multi.report(stream).encoded_bits == single.report().encoded_bits

    def test_cameo_chunks_match_single_stream(self):
        from repro.streaming import MultiStreamCompressor

        x = _seasonal(420)
        multi = MultiStreamCompressor(chunk_size=140, codec="cameo",
                                      codec_options=dict(max_lag=12, epsilon=0.05))
        multi.add("s", x)
        multi.flush()
        single = StreamingCompressor(chunk_size=140, codec="cameo",
                                     codec_options=dict(max_lag=12, epsilon=0.05))
        single.add(x)
        single.flush()
        for mine, theirs in zip(multi.results("s"), single.results):
            assert (mine.block.payload.indices.tolist()
                    == theirs.block.payload.indices.tolist())

    def test_drain_batches_across_streams(self):
        from repro.streaming import MultiStreamCompressor

        multi = MultiStreamCompressor(chunk_size=64, codec="gorilla")
        for stream in ("a", "b", "c"):
            sealed = multi.add(stream, np.round(_seasonal(64), 3))
            assert sealed == 1
        assert multi.results("a") == []  # nothing encoded until drain
        sealed_pairs = multi.drain()
        assert len(sealed_pairs) == 3
        assert sorted(stream for stream, _chunk in sealed_pairs) == ["a", "b", "c"]

    def test_failed_chunk_is_isolated(self):
        from repro.streaming import MultiStreamCompressor

        multi = MultiStreamCompressor(chunk_size=32, codec="gorilla")
        good, bad = np.round(_seasonal(32), 3), np.round(_seasonal(32), 2)
        multi.add("bad", bad)
        multi.add("good", good)
        sealed = _commit_failing(multi, failing=[0])
        assert [stream for stream, _chunk in sealed] == ["bad", "good"]
        assert len(multi.errors) == 1
        assert multi.errors[0].name == "bad"
        # The failed chunk is installed raw: nothing acknowledged is lost.
        assert [r.block.codec for r in multi.results("bad")] == ["raw"]
        assert np.array_equal(multi.reconstruct("bad"), bad)
        assert [r.block.codec for r in multi.results("good")] == ["gorilla"]

    def test_unknown_stream_report_raises(self):
        from repro.streaming import MultiStreamCompressor

        multi = MultiStreamCompressor(chunk_size=32, codec="raw")
        with pytest.raises(InvalidParameterError):
            multi.report("nope")
        assert multi.reconstruct("nope").size == 0

    def test_failed_chunk_keeps_stream_offsets_truthful(self):
        from repro.streaming import MultiStreamCompressor

        multi = MultiStreamCompressor(chunk_size=32, codec="gorilla")
        x = np.round(_seasonal(64), 3)
        multi.add("s", x)
        _commit_failing(multi, failing=[0])
        assert len(multi.errors) == 1
        results = multi.results("s")
        # A poisoned chunk 0 does not block chunk 1, which starts at 32.
        assert [(r.start, r.block.codec) for r in results] == [
            (0, "raw"), (32, "gorilla")]
        assert np.array_equal(multi.reconstruct("s"), x)
        report = multi.report("s")
        assert report.sealed_points == 64
        assert report.chunks == 2
