"""Tests for the unified codec layer (repro.codecs).

Covers the protocol/registry API, byte-identity of the adapters against the
implementations they wrap, block serialization, and the acceptance matrix:
every registered codec round-trips identically through all four consumers
(direct ``get_codec``, ``TimeSeriesStore``, ``MultiStreamCompressor``, CLI
``compress`` → ``decompress``).
"""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from repro.cli import main
from repro.codecs import (
    CameoCodec,
    CompressedBlock,
    available_codecs,
    block_from_document,
    block_to_document,
    codec_families,
    codec_spec,
    codec_specs,
    get_codec,
    register_codec,
)
from repro.codecs.registry import _REGISTRY
from repro.core import CameoCompressor
from repro.exceptions import CodecError, InvalidParameterError, StorageError
from repro.lossless import ChimpCodec, GorillaCodec
from repro.storage import TimeSeriesStore
from repro.streaming import MultiStreamCompressor

RNG = np.random.default_rng(21)


def _seasonal(n: int = 256, period: int = 24) -> np.ndarray:
    t = np.arange(n)
    return 10 + 3 * np.sin(2 * np.pi * t / period) + 0.2 * RNG.standard_normal(n)


class TestRegistry:
    def test_all_builtins_registered(self):
        names = available_codecs()
        for expected in ("raw", "gorilla", "chimp", "cameo", "vw", "tps", "tpm",
                         "pipv", "pipe", "rdp", "pmc", "swing", "simpiece", "fft"):
            assert expected in names

    def test_families(self):
        assert codec_families() == ["raw", "lossless", "cameo", "simplify", "model"]
        assert [spec.name for spec in codec_specs("lossless")] == ["gorilla", "chimp"]
        assert [spec.label for spec in codec_specs("model")] == [
            "PMC", "SWING", "SP", "FFT"]

    def test_unknown_codec_lists_available(self):
        with pytest.raises(InvalidParameterError) as excinfo:
            get_codec("zstd")
        message = str(excinfo.value)
        for name in available_codecs():
            assert name in message

    def test_unknown_codec_suggests_close_match(self):
        with pytest.raises(InvalidParameterError, match="did you mean.*gorilla"):
            get_codec("gorila")

    def test_get_codec_case_insensitive_and_forwarding(self):
        codec = get_codec("CAMEO", max_lag=8, epsilon=0.005)
        assert isinstance(codec, CameoCodec)
        assert codec.max_lag == 8 and codec.epsilon == 0.005

    def test_register_rejects_duplicate_without_overwrite(self):
        with pytest.raises(InvalidParameterError, match="already registered"):
            register_codec("cameo", CameoCodec)

    def test_register_overwrite_and_cleanup(self):
        spec_before = codec_spec("cameo")
        register_codec("cameo", CameoCodec, family="cameo", label="CAMEO",
                       overwrite=True)
        _REGISTRY["cameo"] = spec_before
        assert codec_spec("cameo") is spec_before

    def test_register_non_callable_rejected(self):
        with pytest.raises(InvalidParameterError):
            register_codec("broken", 42)  # type: ignore[arg-type]

    def test_fidelity_metadata_on_builtins(self):
        # The scorecard derives its codec knobs from this metadata: every
        # lossy built-in declares how it should be driven, lossless ones
        # declare nothing.
        for name in ("raw", "gorilla", "chimp"):
            assert codec_spec(name).fidelity == {}
        assert codec_spec("cameo").fidelity == {"epsilon": 0.05}
        for name in ("vw", "tps", "tpm", "pipv", "pipe", "rdp"):
            assert codec_spec(name).fidelity == {"epsilon": 0.05}
        for name in ("pmc", "swing", "simpiece"):
            assert codec_spec(name).fidelity == {"error_bound_fraction": 0.05}
        assert codec_spec("fft").fidelity == {"keep_fraction": 0.25}

    def test_fidelity_metadata_is_copied_not_shared(self):
        knobs = {"epsilon": 0.5}
        register_codec("test-fidelity-copy", CameoCodec, fidelity=knobs,
                       overwrite=True)
        try:
            knobs["epsilon"] = 99.0
            assert codec_spec("test-fidelity-copy").fidelity == {"epsilon": 0.5}
        finally:
            _REGISTRY.pop("test-fidelity-copy", None)


class TestAdapterIdentity:
    """The adapters must be byte-identical to the implementations they wrap."""

    @pytest.mark.parametrize("name,reference", [("gorilla", GorillaCodec),
                                                ("chimp", ChimpCodec)])
    def test_xor_payloads_byte_identical(self, name, reference):
        values = _seasonal(300)
        block = get_codec(name).encode(values)
        payload, bit_length, count = reference().encode(values)
        assert block.payload[0] == payload
        assert block.payload[1] == bit_length and block.payload[2] == count
        assert block.bits == bit_length

    def test_cameo_kept_points_identical_to_compressor(self):
        values = _seasonal(512)
        block = get_codec("cameo", max_lag=16, epsilon=0.02).encode(values)
        direct = CameoCompressor(16, 0.02).compress(values)
        np.testing.assert_array_equal(block.payload.indices, direct.indices)
        np.testing.assert_array_equal(block.payload.values, direct.values)

    def test_foreign_block_rejected_as_codec_and_storage_error(self):
        block = get_codec("raw").encode(_seasonal(32))
        with pytest.raises(CodecError):
            get_codec("gorilla").decode(block)
        with pytest.raises(StorageError):
            get_codec("gorilla").decode(block)


class TestBlockSerialization:
    @pytest.mark.parametrize("name", ["raw", "gorilla", "cameo", "vw", "pmc", "fft"])
    def test_document_roundtrip(self, name, fast_codec_options):
        values = _seasonal(200)
        codec = get_codec(name, **fast_codec_options(name))
        block = codec.encode(values)
        document = block_to_document(block, materialize=lambda: codec.decode(block))
        document = json.loads(json.dumps(document))  # force JSON round trip
        loaded = block_from_document(document)
        assert loaded.codec == block.codec
        assert loaded.bits == block.bits and loaded.length == block.length
        np.testing.assert_array_equal(codec.decode(loaded), codec.decode(block))

    def test_model_payload_without_materialize_refused(self):
        block = get_codec("pmc", error_bound=0.5).encode(_seasonal(64))
        with pytest.raises(StorageError, match="compact"):
            block_to_document(block)

    def test_numpy_metadata_keeps_its_type(self):
        block = get_codec("raw").encode(_seasonal(32))
        block.metadata["deviation"] = np.float64(0.25)
        block.metadata["lags"] = np.arange(3)
        document = json.loads(json.dumps(block_to_document(block)))
        loaded = block_from_document(document)
        assert isinstance(loaded.metadata["deviation"], float)
        assert loaded.metadata["deviation"] == 0.25
        assert loaded.metadata["lags"] == [0, 1, 2]


class TestFourConsumerRoundTrip:
    """Acceptance: every codec decodes identically through every consumer."""

    @pytest.mark.parametrize("name", sorted(available_codecs()))
    def test_consumers_agree(self, name, tmp_path, fast_codec_options):
        values = _seasonal(256)
        options = fast_codec_options(name)

        # 1. direct protocol use
        codec = get_codec(name, **options)
        block = codec.encode(values)
        assert isinstance(block, CompressedBlock)
        direct = codec.decode(block)
        assert direct.shape == values.shape

        # 2. storage engine (one sealed segment)
        store = TimeSeriesStore(default_segment_size=values.size)
        store.create_series("s", codec=name, codec_options=options)
        store.append("s", values)
        store.flush("s")
        np.testing.assert_array_equal(store.read("s"), direct)

        # 3. codec-generic streaming (one sealed chunk)
        multi = MultiStreamCompressor(values.size, codec=name,
                                      codec_options=options)
        multi.add("s", values)
        multi.flush()
        assert multi.errors == []
        np.testing.assert_array_equal(multi.reconstruct("s"), direct)

        # 4. CLI compress -> decompress
        source = tmp_path / "input.csv"
        with open(source, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "value"])
            for index, value in enumerate(values):
                writer.writerow([index, repr(float(value))])
        compressed = tmp_path / f"out.{name}.json"
        argv = ["compress", str(source), "--column", "value", "--codec", name,
                "--output", str(compressed)]
        for key, value in options.items():
            if key in ("max_lag", "epsilon"):
                argv += [f"--{key.replace('_', '-')}", str(value)]
            else:
                argv += ["--codec-arg", f"{key}={value}"]
        assert main(argv) == 0
        restored = tmp_path / "restored.csv"
        assert main(["decompress", str(compressed), "--output", str(restored)]) == 0
        with open(restored, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        cli_values = np.asarray([float(row[1]) for row in rows[1:]], dtype=np.float64)
        np.testing.assert_array_equal(cli_values, direct)


class TestUniformAccounting:
    def test_codec_level_helpers(self):
        values = _seasonal(128)
        codec = get_codec("raw")
        assert codec.bits(values) == values.size * 64
        assert codec.bits_per_value(values) == pytest.approx(64.0)
        assert codec.compression_ratio(values) == pytest.approx(1.0)
