"""Tests for chunked stream compression (``MultiStreamCompressor``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codecs import available_codecs, codec_spec, get_codec
from repro.data.timeseries import IrregularSeries
from repro.engine import BatchEngine
from repro.exceptions import InvalidParameterError
from repro.sanitize import InputPolicy
from repro.stats import acf
from repro.streaming import (
    MultiStreamCompressor,
    OnlineAcfEstimator,
    StreamReport,
    concat_irregular,
)

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


def _cameo(chunk_size: int, max_lag: int, epsilon: float,
           **options) -> MultiStreamCompressor:
    """A CAMEO stream compressor with per-chunk ``max_lag``/``epsilon``."""
    return MultiStreamCompressor(
        chunk_size, "cameo",
        codec_options=dict(max_lag=max_lag, epsilon=epsilon, **options))


def _chunks(pairs) -> list:
    """The chunk results of ``drain()``/``flush()``'s ``(stream, chunk)``
    pairs."""
    return [chunk for _stream, chunk in pairs]


def _stitched(multi, stream: str = "s", name: str = "stream"):
    """One stream's installed chunks as a single irregular series."""
    return concat_irregular([c.compressed for c in multi.results(stream)],
                            name=name)


class TestSingleStream:
    def test_chunks_cover_the_stream(self):
        multi = _cameo(200, max_lag=24, epsilon=0.05)
        multi.add("s", _seasonal(730))
        chunks = _chunks(multi.flush())
        assert [c.length for c in chunks] == [200, 200, 200, 130]
        assert [c.start for c in chunks] == [0, 200, 400, 600]
        assert sum(c.kept_points for c in chunks) == multi.report("s").kept_points

    def test_every_chunk_honours_the_bound(self):
        epsilon = 0.03
        multi = _cameo(240, max_lag=24, epsilon=epsilon)
        x = _seasonal(960)
        multi.add("s", x)
        for chunk in _chunks(multi.flush()):
            original = x[chunk.start: chunk.start + chunk.length]
            reconstruction = chunk.compressed.decompress()
            lag = min(24, chunk.length - 1)
            deviation = float(np.mean(np.abs(acf(original, lag) - acf(reconstruction, lag))))
            assert deviation <= epsilon + 1e-9
            assert chunk.achieved_deviation <= epsilon + 1e-9

    def test_incremental_feeding_matches_bulk_feeding(self):
        x = _seasonal(600)
        bulk = _cameo(150, max_lag=12, epsilon=0.05)
        bulk.add("s", x)
        bulk_chunks = _chunks(bulk.flush())
        drip = _cameo(150, max_lag=12, epsilon=0.05)
        drip_chunks = []
        for value in x:
            if drip.add("s", value):
                drip_chunks.extend(_chunks(drip.drain()))
        drip_chunks.extend(_chunks(drip.flush()))
        assert len(bulk_chunks) == len(drip_chunks)
        for a, b in zip(bulk_chunks, drip_chunks):
            np.testing.assert_array_equal(a.compressed.indices, b.compressed.indices)
            np.testing.assert_array_equal(a.compressed.values, b.compressed.values)

    def test_report_accounting(self):
        multi = _cameo(128, max_lag=16, epsilon=0.05)
        multi.add("s", _seasonal(300))
        multi.drain()
        report = multi.report("s")
        assert report.ingested_points == 300
        assert report.sealed_points == 256
        assert report.buffered_points == 44
        assert report.chunks == 2
        assert report.compression_ratio >= 1.0
        assert len(report.chunk_deviations) == 2
        assert report.worst_chunk_deviation == max(report.chunk_deviations)

    def test_flush_with_nothing_uncut_returns_nothing(self):
        multi = _cameo(100, max_lag=10, epsilon=0.05)
        multi.add("s", _seasonal(200))
        multi.drain()
        assert multi.flush() == []

    def test_one_value_tail_is_sealed_verbatim(self):
        """A one-value tail decodes exactly; it has no irregular view, and
        the refusal names the real reason."""
        multi = _cameo(100, max_lag=10, epsilon=0.05)
        x = _seasonal(201)
        multi.add("s", x)
        chunks = _chunks(multi.flush())
        assert [(c.start, c.length) for c in chunks] == [(0, 100), (100, 100),
                                                         (200, 1)]
        assert chunks[-1].block.metadata == {"short_segment": True}
        reconstruction = multi.reconstruct("s")
        assert reconstruction.shape == x.shape
        assert reconstruction[-1] == x[-1]
        with pytest.raises(InvalidParameterError,
                           match="IrregularSeries needs at least two points"):
            chunks[-1].compressed

    def test_compressor_options_forwarded(self):
        multi = _cameo(200, max_lag=12, epsilon=0.05,
                       statistic="pacf", blocking="1logn")
        multi.add("s", _seasonal(200))
        chunks = _chunks(multi.drain())
        assert chunks[0].compressed.metadata["statistic"] == "pacf"

    def test_non_default_knobs_survive_the_chunk_boundary(self):
        # Every configured knob must reach the per-chunk compressor AND be
        # visible in each sealed block's metadata (not just in the codec).
        multi = _cameo(200, max_lag=12, epsilon=0.05, blocking=3,
                       batch_size=1, on_violation="skip", metric="cheb")
        compressor = multi.codec._compressor
        assert compressor.blocking == 3
        assert compressor.batch_size == 1
        assert compressor.on_violation == "skip"
        multi.add("s", _seasonal(450))
        chunks = _chunks(multi.flush())
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

    def test_global_acf_tracks_raw_stream(self):
        """The raw stream's ACF is an estimator fed beside the compressor:
        it matches the offline ACF across chunk boundaries and uneven
        batches, and the compressor still keeps every value."""
        multi = _cameo(128, max_lag=12, epsilon=0.05)
        estimator = OnlineAcfEstimator(12)
        x = _seasonal(500)
        for start, stop in ((0, 7), (7, 200), (200, 201), (201, 500)):
            multi.add("s", x[start:stop])
            estimator.update(x[start:stop])
        multi.flush()
        np.testing.assert_allclose(estimator.acf(), acf(x, 12), atol=1e-9)
        assert multi.reconstruct("s").shape == x.shape

    def test_speculative_batch_survives_name_based_codec_route(self):
        multi = _cameo(128, max_lag=10, epsilon=0.05, batch_size=4,
                       blocking=5)
        multi.add("s", _seasonal(256))
        for chunk in _chunks(multi.flush()):
            if chunk.block.metadata.get("short_segment"):
                continue
            assert chunk.block.metadata["batch_size"] == 4
            assert chunk.block.metadata["blocking"] == 5


class TestGenericCodec:
    """Edge cases of chunked compression with any registered codec."""

    def test_empty_stream_flush_returns_nothing(self):
        multi = MultiStreamCompressor(64, "raw")
        assert multi.flush() == []
        assert multi.reconstruct("s").size == 0
        report = StreamReport()
        assert report.chunks == 0 and report.ingested_points == 0
        assert report.compression_ratio == 1.0

    def test_final_partial_chunk_via_flush(self):
        multi = MultiStreamCompressor(100, "gorilla")
        x = _seasonal(250)
        assert multi.add("s", x) == 2
        assert [c.length for c in _chunks(multi.drain())] == [100, 100]
        assert [c.length for c in _chunks(multi.flush())] == [50]
        assert multi.report("s").buffered_points == 0
        np.testing.assert_array_equal(multi.reconstruct("s"), x)

    def test_chunk_size_one(self):
        multi = MultiStreamCompressor(1, "raw")
        x = _seasonal(10)
        assert multi.add("s", x) == 10
        sealed = _chunks(multi.drain())
        assert len(sealed) == 10
        assert all(c.length == 1 for c in sealed)
        assert multi.flush() == []
        np.testing.assert_array_equal(multi.reconstruct("s"), x)

    def test_codec_instance_is_refused_by_name(self):
        """A codec is named, never passed as an instance: the refusal says
        so up front and lists the registry."""
        with pytest.raises(InvalidParameterError, match="available: cameo"):
            MultiStreamCompressor(chunk_size=8, codec=get_codec("raw"))

    def test_report_tracks_encoded_bits(self):
        multi = MultiStreamCompressor(128, "gorilla")
        multi.add("s", _seasonal(256))
        multi.drain()
        report = multi.report("s")
        assert report.encoded_bits == sum(c.block.bits for c in multi.results("s"))
        assert report.bits_per_value == pytest.approx(report.encoded_bits / 256.0)

    def test_non_point_codec_has_no_irregular_view(self):
        multi = MultiStreamCompressor(64, "gorilla")
        multi.add("s", _seasonal(64))
        multi.drain()
        with pytest.raises(InvalidParameterError,
                           match="does not produce a point-retaining"):
            _stitched(multi)

    @pytest.mark.parametrize("name", sorted(available_codecs()))
    def test_roundtrip_smoke_over_every_registered_codec(self, name, fast_codec_options):
        """Chunks + final flush cover the stream for every codec, and each
        chunk decodes as the codec decodes that chunk's values."""
        options = fast_codec_options(name)
        multi = MultiStreamCompressor(100, name, codec_options=options)
        x = _seasonal(230)
        multi.add("s", x)
        sealed = _chunks(multi.flush())
        assert multi.errors == []
        assert [c.length for c in sealed] == [100, 100, 30]
        reconstruction = multi.reconstruct("s")
        assert reconstruction.shape == x.shape
        assert np.all(np.isfinite(reconstruction))
        codec = get_codec(name, **options)
        np.testing.assert_array_equal(reconstruction, np.concatenate([
            codec.decode(codec.encode(x[c.start: c.start + c.length]))
            for c in sealed]))
        if codec_spec(name).family in ("raw", "lossless"):
            np.testing.assert_array_equal(reconstruction, x)
        report = multi.report("s")
        assert report.sealed_points == 230
        assert report.encoded_bits > 0


class TestConcatIrregular:
    def test_roundtrip_against_chunkwise_reconstruction(self):
        multi = _cameo(250, max_lag=24, epsilon=0.05)
        multi.add("s", _seasonal(1_000))
        multi.flush()
        stitched = _stitched(multi, name="session")
        assert isinstance(stitched, IrregularSeries)
        assert stitched.name == "session"
        assert stitched.original_length == 1_000
        chunkwise = np.concatenate([c.compressed.decompress()
                                    for c in multi.results("s")])
        np.testing.assert_allclose(stitched.decompress(), chunkwise)

    def test_stitched_series_preserves_acf_globally(self):
        multi = _cameo(480, max_lag=24, epsilon=0.01)
        x = _seasonal(1_920)
        multi.add("s", x)
        multi.flush()
        reconstruction = _stitched(multi).decompress()
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
        multi = _cameo(100, max_lag=10, epsilon=0.05)
        multi.add("s", _seasonal(250))
        multi.flush()
        assert _stitched(multi).metadata["chunks"] == 3


class TestMultiStreamCompressor:
    def test_chunks_match_the_codec_on_each_chunk(self):
        """Every multi-stream chunk is the codec's block of its values."""
        x_a = np.round(_seasonal(500), 3)
        x_b = np.round(_seasonal(300, period=12), 3)
        multi = MultiStreamCompressor(chunk_size=128, codec="gorilla")
        multi.add("a", x_a)
        multi.add("b", x_b)
        multi.flush()

        codec = get_codec("gorilla")
        for stream, x in (("a", x_a), ("b", x_b)):
            results = multi.results(stream)
            assert [r.start for r in results] == list(range(0, x.size, 128))
            references = [codec.encode(x[r.start: r.start + r.length])
                          for r in results]
            assert sum(r.length for r in results) == x.size
            for mine, reference in zip(results, references):
                assert mine.block.payload == reference.payload
            assert np.array_equal(multi.reconstruct(stream), x)
            assert multi.report(stream).chunks == len(references)
            assert multi.report(stream).encoded_bits == sum(
                reference.bits for reference in references)

    def test_cameo_chunks_match_the_codec_on_each_chunk(self):
        options = dict(max_lag=12, epsilon=0.05)
        x = _seasonal(420)
        multi = MultiStreamCompressor(chunk_size=140, codec="cameo",
                                      codec_options=options)
        multi.add("s", x)
        multi.flush()
        codec = get_codec("cameo", **options)
        results = multi.results("s")
        assert [(r.start, r.length) for r in results] == [
            (0, 140), (140, 140), (280, 140)]
        for mine in results:
            reference = codec.encode(x[mine.start: mine.start + mine.length])
            assert (mine.block.payload.indices.tolist()
                    == reference.payload.indices.tolist())

    def test_engine_runs_with_the_engine_defaults(self):
        """Chunks are encoded by a ``BatchEngine`` with its own defaults and
        the compressor's codec options; the input policy stays with the
        compressor, which applies it before cutting chunks."""
        options = dict(max_lag=12, epsilon=0.05)
        multi = MultiStreamCompressor(64, "cameo", codec_options=options,
                                      policy=InputPolicy(on_nan="split"))
        default = BatchEngine("cameo")
        engine = multi.engine
        assert engine.codec == "cameo"
        assert engine.codec_options == options
        assert engine.codec_options is not options
        assert (engine.backend, engine.workers, engine.fastpath,
                engine.oversubscribe) == (default.backend, default.workers,
                                          default.fastpath,
                                          default.oversubscribe)
        assert engine.supervisor_policy == default.supervisor_policy
        assert engine.policy is None

    @pytest.mark.parametrize("knob, value", [
        ("backend", "thread"), ("workers", 2), ("fastpath", False),
        ("timeout", 1.0), ("retries", 0), ("on_degrade", "error"),
    ])
    def test_engine_knobs_are_not_constructor_arguments(self, knob, value):
        with pytest.raises(TypeError, match=knob):
            MultiStreamCompressor(64, "gorilla", **{knob: value})

    def test_drain_batches_across_streams(self):
        multi = MultiStreamCompressor(chunk_size=64, codec="gorilla")
        for stream in ("a", "b", "c"):
            sealed = multi.add(stream, np.round(_seasonal(64), 3))
            assert sealed == 1
        assert multi.results("a") == []  # nothing encoded until drain
        sealed_pairs = multi.drain()
        assert len(sealed_pairs) == 3
        assert sorted(stream for stream, _chunk in sealed_pairs) == ["a", "b", "c"]

    def test_failed_chunk_is_isolated(self):
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
        multi = MultiStreamCompressor(chunk_size=32, codec="raw")
        with pytest.raises(InvalidParameterError):
            multi.report("nope")
        assert multi.reconstruct("nope").size == 0

    def test_failed_chunk_keeps_stream_offsets_truthful(self):
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
