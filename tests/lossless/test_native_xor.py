"""The compiled XOR codecs must be indistinguishable from the Python ones.

Three implementations of each scheme exist: the per-bit originals in
:mod:`repro._kernels.reference`, the NumPy-tier codecs of
:mod:`repro.lossless`, and ``xor_encode`` / ``xor_decode`` of the native
tier.  For every input all three must produce the same payload bytes, the
same ``bit_length`` and the same decoded *bits* — and for every damaged
input the two decoders that serve production must refuse in the same place
with the same :class:`~repro.exceptions.CodecError`.  The truncation
battery is also what the sanitizer CI leg runs this file for: a decoder
that reads one byte past a short payload, or shifts by 64, passes a
bit-identity test and fails ASan/UBSan.

Bit patterns the validation layer rejects as *series* (NaN, ±inf) still
have to travel: they reach the encoders through the raw entry points
(``native.xor_encode`` and the NumPy-tier field-stream passes).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _kernels
from repro._kernels import _native
from repro._kernels.bitops import clz64, ctz64
from repro._kernels.bitpack import pack_bits, words_to_bytes
from repro._kernels.reference import (
    ReferenceBitWriter,
    reference_chimp_decode,
    reference_chimp_encode,
    reference_gorilla_decode,
    reference_gorilla_encode,
)
from repro.data.datasets import dataset_names, load_dataset
from repro.exceptions import CodecError, InvalidSeriesError
from repro.lossless import ChimpCodec, GorillaCodec
from repro.lossless.chimp import _ROUND_CODE, _ROUND_VALUE, _chimp_field_stream
from repro.lossless.gorilla import _gorilla_field_stream
from repro.codecs.checksum import crc32c

needs_native = pytest.mark.skipif(not _kernels.native_available(),
                                  reason="native extension not built")

SCHEMES = {
    "gorilla": (GorillaCodec, reference_gorilla_encode,
                reference_gorilla_decode),
    "chimp": (ChimpCodec, reference_chimp_encode, reference_chimp_decode),
}


@pytest.fixture(autouse=True)
def _restore_tier():
    yield
    _kernels.set_native_enabled(None)


def field_stream(scheme: str, values: np.ndarray) -> tuple[list, list]:
    """The NumPy tier's ``(fields, widths)`` of raw bit patterns — the
    codecs' own control-code passes, minus the finiteness check."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    xors = bits[1:] ^ bits[:-1]
    if scheme == "gorilla":
        return _gorilla_field_stream(
            int(bits[0]), xors.tolist(),
            np.minimum(clz64(xors), 31).tolist(), ctz64(xors).tolist())
    leading = clz64(xors)
    return _chimp_field_stream(
        int(bits[0]), xors.tolist(), ctz64(xors).tolist(),
        _ROUND_CODE[leading].tolist(), _ROUND_VALUE[leading].tolist())


def numpy_tier_encode(scheme: str, values: np.ndarray) -> tuple[bytes, int]:
    """The NumPy-tier encoder: its fields through its block packer."""
    fields, widths = field_stream(scheme, values)
    words, bit_length = pack_bits(np.asarray(fields, dtype=np.uint64),
                                  np.asarray(widths, dtype=np.int64))
    return words_to_bytes(words, bit_length), bit_length


def per_bit_encode(scheme: str, values: np.ndarray) -> tuple[bytes, int]:
    """The same fields written one bit at a time by the reference writer
    (the per-bit *encoders* only accept finite series)."""
    writer = ReferenceBitWriter()
    for field, width in zip(*field_stream(scheme, values)):
        writer.write_bits(field, width)
    return writer.to_bytes(), writer.bit_length


def decode_on(tier: str, scheme: str, payload, bit_length, count):
    """Decoded bit patterns, or the refusal, of one production decoder."""
    _kernels.set_native_enabled(tier == "native")
    try:
        decoded = SCHEMES[scheme][0]().decode(payload, bit_length, count)
    except CodecError as exc:
        return "CodecError", str(exc)
    finally:
        _kernels.set_native_enabled(None)
    assert decoded.dtype == np.float64 and decoded.flags.writeable
    return decoded.view(np.uint64).tolist()


def assert_all_agree(scheme: str, values: np.ndarray) -> None:
    """Payload, bit_length and decoded bits: native == NumPy tier == ref."""
    native = _native.MODULE
    values = np.ascontiguousarray(values, dtype=np.float64)
    payload, bit_length = native.xor_encode(scheme, values)
    assert (payload, bit_length) == numpy_tier_encode(scheme, values)
    expected = values.view(np.uint64).tolist()
    for tier in ("native", "numpy"):
        assert decode_on(tier, scheme, payload, bit_length,
                         values.size) == expected
    if np.isfinite(values).all():
        # the validated, public entry points — and the per-bit originals,
        # which only accept finite series
        codec_cls, reference_encode, reference_decode = SCHEMES[scheme]
        for enabled in (True, False):
            _kernels.set_native_enabled(enabled)
            assert codec_cls().encode(values) == (payload, bit_length,
                                                  values.size)
        assert reference_encode(values) == (payload, bit_length, values.size)
        assert reference_decode(payload, bit_length, values.size).view(
            np.uint64).tolist() == expected
    else:
        assert per_bit_encode(scheme, values) == (payload, bit_length)


# Series the way sensors make them (few distinct XOR shapes, long runs of
# one control code) mixed with arbitrary patterns (every code, any width).
_SENSOR = st.builds(
    lambda base, steps, decimals: np.round(
        base + np.cumsum(np.asarray(steps, dtype=np.float64)), decimals),
    st.floats(-1e6, 1e6), st.lists(st.sampled_from(
        [0.0, 0.0, 0.01, -0.01, 0.5, 1.0, -2.25, 1e-3, 100.0]),
        min_size=1, max_size=150), st.integers(0, 6))
_PATTERNS = st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=150).map(
    lambda patterns: np.array(patterns, dtype=np.uint64).view(np.float64))
_NEIGHBOURS = st.builds(
    lambda start, deltas: np.cumsum(
        np.array([start] + deltas, dtype=np.uint64), dtype=np.uint64
    ).view(np.float64),
    st.integers(0, 2 ** 63), st.lists(
        st.sampled_from([0, 1, 2, 3, 64, 128, 2 ** 20, 2 ** 40, 2 ** 52]),
        min_size=1, max_size=150))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_self_check_pins_are_the_numpy_tiers_payloads(scheme):
    """The loader admits a build on pinned answers (it cannot import
    ``repro.lossless``); this is what pins them.  It runs without the
    extension: a battery edited without its pins makes the loader refuse
    the tier, and every other test here skip."""
    _kernels.set_native_enabled(False)
    battery = _native.xor_battery()
    payload, bit_length = numpy_tier_encode(scheme, battery)
    assert (bit_length, crc32c(payload)) == _native.XOR_ANSWERS[scheme]
    assert per_bit_encode(scheme, battery) == (payload, bit_length)
    assert SCHEMES[scheme][0]().decode(
        payload, bit_length, battery.size).tobytes() == battery.tobytes()


@needs_native
@pytest.mark.parametrize("scheme", SCHEMES)
class TestThreeWayIdentity:
    @settings(max_examples=120, deadline=None)
    @given(st.one_of(_SENSOR, _PATTERNS, _NEIGHBOURS))
    def test_hypothesis_series(self, scheme, values):
        assert_all_agree(scheme, values)

    def test_special_bit_patterns(self, scheme):
        nan_payloads = np.array(
            [0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8DEADBEEF0001,
             0x7FFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64)
        specials = np.concatenate((
            [0.0, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
             np.inf, -np.inf, np.inf, 1.0, -1.0], nan_payloads,
            [1.7976931348623157e308, -0.0, -0.0]))
        assert_all_agree(scheme, specials)
        assert_all_agree(scheme, specials[::-1])
        assert_all_agree(scheme, np.repeat(specials, 3))

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_shortest_series(self, scheme, count):
        for values in ([-123.456, -123.456, 7.0], [0.0, -0.0, 0.0],
                       [1.0, 1.0000000000000002, 1.0]):
            assert_all_agree(scheme, np.array(values[:count]))

    def test_constant_runs(self, scheme):
        for length in (2, 63, 64, 65, 500):
            assert_all_agree(scheme, np.full(length, 21.5))
        assert_all_agree(scheme, np.repeat([1.5, 1.5, 2.5, -2.5, 0.0], 40))

    def test_lengths_across_word_boundaries(self, scheme):
        """Every stream length modulo 64 ends up in the battery: one more
        value moves the end of the stream by a scheme-dependent field."""
        rng = np.random.default_rng(18)
        signal = np.round(rng.normal(100.0, 0.1, 400), 1)   # many repeats
        lengths = set()
        for count in range(1, signal.size + 1):
            payload, bit_length = _native.MODULE.xor_encode(
                scheme, signal[:count])
            assert (payload, bit_length) == numpy_tier_encode(
                scheme, signal[:count])
            lengths.add(bit_length % 64)
        assert lengths == set(range(64))
        for count in (64, 65, 127, 128, 129):
            assert_all_agree(scheme, signal[:count])

    @pytest.mark.parametrize("length", [256, 1024])
    def test_bench_corpus(self, scheme, length):
        """What ``bench/workloads.py`` stores: the paper datasets, 2 dp."""
        for dataset in dataset_names():
            values = np.round(
                load_dataset(dataset, length=length, seed=7).values, 2)
            assert_all_agree(scheme, values)

    def test_self_check_battery(self, scheme):
        assert_all_agree(scheme, _native.xor_battery())


@needs_native
@pytest.mark.parametrize("scheme", SCHEMES)
class TestRefusals:
    """Damaged inputs: both tiers raise the same CodecError, nothing reads
    past the payload (ASan holds the second half of that sentence)."""

    @staticmethod
    def _stream(scheme, count=96, seed=3):
        rng = np.random.default_rng(seed)
        values = np.round(rng.normal(50.0, 3.0, count), 1)
        values[10:14] = values[9]           # a run of zero XORs
        payload, bit_length = _native.MODULE.xor_encode(scheme, values)
        return values, payload, bit_length

    def test_every_prefix_truncation(self, scheme):
        values, payload, bit_length = self._stream(scheme)
        for cut in range(len(payload)):
            # an exact-size copy: one byte past it is out of bounds
            short = bytes(bytearray(payload[:cut]))
            outcomes = {tier: decode_on(tier, scheme, short, bit_length,
                                        values.size)
                        for tier in ("native", "numpy")}
            assert outcomes["native"] == outcomes["numpy"]
            assert outcomes["native"][0] == "CodecError", cut

    def test_every_prefix_truncation_at_every_count(self, scheme):
        """A range read asks for fewer values than the stream holds: from a
        cut payload both tiers return the exact prefix or the same refusal,
        never different values."""
        values, payload, bit_length = self._stream(scheme)
        expected = values.view(np.uint64).tolist()
        decoded_counts = set()
        for cut in range(len(payload) + 1):
            short = bytes(bytearray(payload[:cut]))
            for count in range(1, values.size + 1):
                outcome = decode_on("native", scheme, short, bit_length, count)
                assert outcome == decode_on("numpy", scheme, short,
                                            bit_length, count), (cut, count)
                if outcome[0] != "CodecError":
                    assert outcome == expected[:count], (cut, count)
                    decoded_counts.add(count)
        assert decoded_counts == set(range(1, values.size + 1))

    def test_every_bit_length(self, scheme):
        """A shorter stated length refuses where the Python loop does; the
        last byte's padding bits are readable but hold no value."""
        values, payload, bit_length = self._stream(scheme, count=40)
        for stated in range(-2, len(payload) * 8 + 70):
            native = decode_on("native", scheme, payload, stated, values.size)
            assert native == decode_on("numpy", scheme, payload, stated,
                                       values.size)
            if stated < bit_length:
                assert native[0] == "CodecError"
            else:
                assert native == values.view(np.uint64).tolist()

    def test_bit_length_beyond_the_buffer(self, scheme):
        values, payload, bit_length = self._stream(scheme)
        for stated in (len(payload) * 8 + 1, 2 ** 31, 2 ** 63 - 1, 2 ** 64,
                       10 ** 30):
            for tier in ("native", "numpy"):
                # clamped to the payload: the values are all there ...
                assert decode_on(tier, scheme, payload, stated, values.size) \
                    == values.view(np.uint64).tolist()
                # ... and one more is not, whatever the stated length says
                assert decode_on(tier, scheme, payload, stated,
                                 values.size + 8)[0] == "CodecError"

    @pytest.mark.parametrize("count", [0, -1, -2 ** 70])
    def test_non_positive_count(self, scheme, count):
        _, payload, bit_length = self._stream(scheme)
        for tier in ("native", "numpy"):
            assert decode_on(tier, scheme, payload, bit_length, count) == (
                "CodecError", "count must be positive")

    def test_count_larger_than_the_stream_holds(self, scheme):
        values, payload, bit_length = self._stream(scheme)
        for count in (values.size + 1, values.size + 100, 10 ** 7, 2 ** 40,
                      2 ** 63 - 1, 2 ** 64, 10 ** 30):
            for tier in ("native", "numpy"):
                # refused up front: a hostile count sizes no allocation
                assert decode_on(tier, scheme, payload, bit_length, count) == (
                    "CodecError",
                    "attempt to read past the end of the bit stream")
        # fewer values than stored is a prefix, not an error
        for tier in ("native", "numpy"):
            assert decode_on(tier, scheme, payload, bit_length, 5) \
                == values[:5].view(np.uint64).tolist()

    def test_empty_and_sub_word_payloads(self, scheme):
        for payload in (b"", b"\x00", b"\xff" * 7):
            for tier in ("native", "numpy"):
                assert decode_on(tier, scheme, payload, 64, 1)[0] \
                    == "CodecError"

    def test_hostile_payloads_agree(self, scheme):
        """Arbitrary bytes: same values or the same refusal on both tiers,
        including windows no encoder writes (wider than 64 bits, empty)."""
        rnd = random.Random(0xC0DEC)
        refusals = set()
        for _ in range(4000):
            size = rnd.choice([8, 9, 15, 16, 17, 24, 33, 64])
            payload = bytes(rnd.getrandbits(8) if rnd.random() < 0.7
                            else rnd.choice([0, 255]) for _ in range(size))
            stated = rnd.choice([size * 8, size * 8 - rnd.randrange(8),
                                 size * 8 + 3])
            count = rnd.choice([1, 2, 3, 5, 9, 30])
            native = decode_on("native", scheme, payload, stated, count)
            assert native == decode_on("numpy", scheme, payload, stated, count)
            if native[0] == "CodecError":
                refusals.add(native[1])
        assert refusals == {"attempt to read past the end of the bit stream",
                            "XOR window does not fit in 64 bits"}

    def test_raw_entry_point_arguments(self, scheme):
        native = _native.MODULE
        with pytest.raises(ValueError):
            native.xor_encode("zip", np.zeros(4))
        with pytest.raises(ValueError):
            native.xor_decode("zip", b"\x00" * 8, 64, 1)
        with pytest.raises(ValueError):
            native.xor_encode(scheme, np.zeros(0))
        with pytest.raises(ValueError):
            native.xor_encode(scheme, np.zeros(8)[::2])
        with pytest.raises(ValueError):
            native.xor_encode(scheme, np.zeros(4, dtype=np.float32))
        with pytest.raises(TypeError):
            native.xor_decode(scheme, "text", 64, 1)
        with pytest.raises(TypeError):
            native.xor_decode(scheme, b"\x00" * 8, 64.0, 1)


@needs_native
@pytest.mark.parametrize("tier", ["native", "numpy"])
@pytest.mark.parametrize("codec_cls", [GorillaCodec, ChimpCodec])
class TestInputsBehaveAlikeOnBothTiers:
    """What ``encode`` / ``decode`` accept does not depend on the tier."""

    @pytest.fixture(autouse=True)
    def _tier(self, tier):
        _kernels.set_native_enabled(tier == "native")

    def test_non_contiguous_and_non_float64(self, codec_cls, tier):
        codec = codec_cls()
        base = np.round(np.random.default_rng(5).normal(10, 2, 64), 2)
        expected = codec.encode(base[::2].copy())
        assert codec.encode(base[::2]) == expected
        assert codec.encode(base[::2].tolist()) == expected
        assert codec.encode(iter(base[::2].tolist())) == expected
        integers = np.arange(-20, 20, dtype=np.int32)
        assert codec.encode(integers) == codec.encode(
            integers.astype(np.float64))
        single = base.astype(np.float32)
        assert codec.encode(single) == codec.encode(single.astype(np.float64))

    def test_read_only_inputs(self, codec_cls, tier):
        codec = codec_cls()
        values = np.round(np.random.default_rng(6).normal(10, 2, 64), 2)
        expected = codec.encode(values)
        frozen = values.copy()
        frozen.setflags(write=False)
        assert codec.encode(frozen) == expected
        payload, bit_length, count = expected
        for buffer in (payload, bytearray(payload), memoryview(payload)):
            assert np.array_equal(codec.decode(buffer, bit_length, count),
                                  values)

    def test_rejected_series(self, codec_cls, tier):
        codec = codec_cls()
        for bad in ([], [1.0, float("nan")], [float("inf")],
                    np.zeros((2, 2))):
            with pytest.raises(InvalidSeriesError):
                codec.encode(bad)

    def test_encode_batch_rows(self, codec_cls, tier):
        codec = codec_cls()
        matrix = np.round(np.random.default_rng(7).normal(0, 1, (9, 37)), 3)
        assert codec.encode_batch(matrix) == [codec.encode(row)
                                              for row in matrix]
        assert codec.encode_batch(np.asfortranarray(matrix)) == [
            codec.encode(row) for row in matrix]
        with pytest.raises(CodecError):
            codec.encode_batch(np.zeros(5))
        with pytest.raises(CodecError):
            codec.encode_batch(np.zeros((2, 0)))
