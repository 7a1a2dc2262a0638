"""Tests for the codecs as the storage layer uses them (repro.codecs)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import InvalidParameterError, StorageError
from repro.stats import acf
from repro.codecs import (
    CameoCodec,
    ChimpXorCodec,
    Codec,
    CompressedBlock,
    FftCodec,
    GorillaXorCodec,
    PmcCodec,
    RawCodec,
    SimPieceCodec,
    SimplifierCodec,
    SwingCodec,
    available_codecs,
    get_codec,
    register_codec,
)

RNG = np.random.default_rng(11)


def _seasonal(n: int = 512, period: int = 32) -> np.ndarray:
    t = np.arange(n)
    return 10 + 3 * np.sin(2 * np.pi * t / period) + 0.2 * RNG.standard_normal(n)


ALL_CODEC_FACTORIES = [
    ("raw", RawCodec),
    ("gorilla", GorillaXorCodec),
    ("chimp", ChimpXorCodec),
    ("cameo", lambda: CameoCodec(max_lag=16, epsilon=0.02)),
    ("vw", lambda: SimplifierCodec("VW", max_lag=16, epsilon=0.02)),
    ("pmc", lambda: PmcCodec(error_bound=0.5)),
    ("swing", lambda: SwingCodec(error_bound=0.5)),
    ("simpiece", lambda: SimPieceCodec(error_bound=0.5)),
    ("fft", lambda: FftCodec(keep_fraction=0.2)),
]


class TestRoundTrips:
    @pytest.mark.parametrize("name,factory", ALL_CODEC_FACTORIES,
                             ids=[n for n, _ in ALL_CODEC_FACTORIES])
    def test_roundtrip_shape_and_accounting(self, name, factory):
        codec = factory()
        values = _seasonal()
        chunk = codec.encode(values)
        decoded = codec.decode(chunk)
        assert isinstance(chunk, CompressedBlock)
        assert chunk.codec == codec.name
        assert chunk.length == values.size
        assert decoded.shape == values.shape
        assert np.all(np.isfinite(decoded))
        assert chunk.bits > 0
        assert chunk.bits_per_value() == pytest.approx(chunk.bits / values.size)

    @pytest.mark.parametrize("factory", [RawCodec, GorillaXorCodec, ChimpXorCodec],
                             ids=["raw", "gorilla", "chimp"])
    def test_lossless_codecs_are_exact(self, factory):
        codec = factory()
        values = _seasonal()
        decoded = codec.decode(codec.encode(values))
        np.testing.assert_array_equal(decoded, values)
        assert codec.lossless

    def test_cameo_codec_honours_acf_bound(self):
        values = _seasonal()
        codec = CameoCodec(max_lag=16, epsilon=0.02)
        chunk = codec.encode(values)
        decoded = codec.decode(chunk)
        deviation = float(np.mean(np.abs(acf(values, 16) - acf(decoded, 16))))
        assert deviation <= 0.02 + 1e-9
        assert chunk.bits < values.size * 64   # actually compressed
        assert chunk.metadata["kept_points"] < values.size

    def test_simplifier_codec_honours_acf_bound(self):
        values = _seasonal()
        codec = SimplifierCodec("VW", max_lag=16, epsilon=0.02)
        decoded = codec.decode(codec.encode(values))
        deviation = float(np.mean(np.abs(acf(values, 16) - acf(decoded, 16))))
        assert deviation <= 0.02 + 1e-9

    def test_pmc_codec_honours_value_bound(self):
        values = _seasonal()
        codec = PmcCodec(error_bound=0.5)
        decoded = codec.decode(codec.encode(values))
        assert float(np.max(np.abs(decoded - values))) <= 0.5 + 1e-9

    def test_short_segments_are_stored_verbatim(self):
        values = np.asarray([1.0, 2.0, 3.0])
        for codec in (CameoCodec(max_lag=8, epsilon=0.01),
                      SimplifierCodec("VW", max_lag=8, epsilon=0.01)):
            chunk = codec.encode(values)
            assert chunk.metadata.get("short_segment") is True
            np.testing.assert_array_equal(codec.decode(chunk), values)

    @given(arrays(np.float64, st.integers(min_value=1, max_value=300),
                  elements=st.floats(min_value=-1e6, max_value=1e6,
                                     allow_nan=False, allow_infinity=False)))
    @settings(max_examples=25, deadline=None)
    def test_lossless_roundtrip_property(self, values):
        for codec in (GorillaXorCodec(), ChimpXorCodec(), RawCodec()):
            np.testing.assert_array_equal(codec.decode(codec.encode(values)), values)


class TestChunkValidation:
    def test_decode_rejects_foreign_chunk(self):
        raw_chunk = RawCodec().encode(_seasonal(64))
        with pytest.raises(StorageError):
            GorillaXorCodec().decode(raw_chunk)

    def test_compression_ratio_of_chunk(self):
        chunk = RawCodec().encode(_seasonal(64))
        assert chunk.compression_ratio() == pytest.approx(1.0)


class TestRegistry:
    def test_builtin_codecs_available(self):
        names = available_codecs()
        for expected in ("raw", "gorilla", "chimp", "cameo", "vw", "pmc",
                         "swing", "simpiece", "fft"):
            assert expected in names

    def test_make_codec_forwards_options(self):
        codec = get_codec("cameo", max_lag=8, epsilon=0.005)
        assert isinstance(codec, CameoCodec)
        assert codec.max_lag == 8 and codec.epsilon == 0.005

    def test_make_codec_case_insensitive(self):
        assert isinstance(get_codec("GORILLA"), GorillaXorCodec)

    def test_make_codec_unknown_name(self):
        with pytest.raises(InvalidParameterError):
            get_codec("zstd")

    def test_register_custom_codec(self):
        class NegatingCodec(RawCodec):
            name = "negate"

            def encode(self, values):
                chunk = super().encode(-np.asarray(values, dtype=np.float64))
                chunk.codec = self.name
                return chunk

            def decode(self, chunk):
                self._check_chunk(chunk)
                return -np.asarray(chunk.payload, dtype=np.float64)

        register_codec("negate", NegatingCodec)
        try:
            codec = get_codec("negate")
            values = _seasonal(32)
            np.testing.assert_allclose(codec.decode(codec.encode(values)), values)
        finally:
            from repro.codecs.registry import _REGISTRY
            _REGISTRY.pop("negate", None)

    def test_register_non_callable_rejected(self):
        with pytest.raises(InvalidParameterError):
            register_codec("broken", 42)  # type: ignore[arg-type]

    def test_simplifier_registry_names_bind_correct_method(self):
        vw = get_codec("vw", max_lag=8, epsilon=0.05)
        pipv = get_codec("pipv", max_lag=8, epsilon=0.05)
        assert isinstance(vw, SimplifierCodec) and vw.method == "VW"
        assert isinstance(pipv, SimplifierCodec) and pipv.method == "PIPv"

    def test_all_registered_codecs_construct_and_roundtrip(self):
        values = _seasonal(256)
        for name in available_codecs():
            codec = get_codec(name)
            assert isinstance(codec, Codec)
            decoded = codec.decode(codec.encode(values))
            assert decoded.shape == values.shape
