"""Chimp lossless floating-point compression (Liakos et al., PVLDB 2022).

Chimp refines Gorilla's XOR scheme with a two-bit flag per value and a
quantised leading-zero table, which shortens the encoding of values whose
XOR has few trailing zeros (common in real sensor data):

====  =========================================================
flag  meaning
====  =========================================================
00    XOR is zero (value identical to its predecessor)
01    reuse the previous leading-zero count, store centre bits up to the end
10    new leading-zero count, store centre bits up to the end
11    new leading-zero count + 6-bit centre length, store centre bits
====  =========================================================

This implementation follows the published reference behaviour: flags ``01``
and ``10`` store ``64 - leading`` bits (no trailing-zero suppression), flag
``11`` stores only the significant centre when the XOR has at least 6
trailing zeros.  The codec is exactly invertible.

Like the Gorilla module, encoding routes through :mod:`repro._kernels` —
vectorized XOR/leading/trailing-zero preparation, a sequential Python loop
only for the flag decisions, and one block pack at the end — and decoding
reads word chunks in O(1) per field.  Payloads are byte-identical to the
original per-bit implementation
(:func:`repro._kernels.reference.reference_chimp_encode`).
"""

from __future__ import annotations

import numpy as np

from .._kernels import get_native
from .._kernels.bitops import clz64, ctz64, xor_stream
from .._kernels.bitpack import pack_bits, pack_field_streams, payload_words, words_to_bytes
from .._validation import as_float_array
from ..exceptions import CodecError

__all__ = ["ChimpCodec"]

#: Quantisation of leading-zero counts used by Chimp (3-bit codes).
_LEADING_ROUND = [0, 8, 12, 16, 18, 20, 22, 24]

#: Vectorized leading-count quantisation: code and rounded value per count.
_ROUND_CODE = np.zeros(65, dtype=np.int64)
_ROUND_VALUE = np.zeros(65, dtype=np.int64)
for _count in range(65):
    _c = 0
    for _index, _threshold in enumerate(_LEADING_ROUND):
        if _count >= _threshold:
            _c = _index
    _ROUND_CODE[_count] = _c
    _ROUND_VALUE[_count] = _LEADING_ROUND[_c]


def _chimp_field_stream(first_word: int, xors: list, trailing_all: list,
                        codes_all: list, rounded_all: list) -> tuple[list, list]:
    """The sequential flag-decision pass: ``(fields, widths)`` of one series.

    Shared verbatim by :meth:`ChimpCodec.encode` and
    :meth:`ChimpCodec.encode_batch`, so the stacked batch path produces
    byte-identical payloads by construction.
    """
    fields = [first_word]
    widths = [64]
    append_field = fields.append
    append_width = widths.append
    previous_leading_code = -1

    for index, xor in enumerate(xors):
        if xor == 0:
            append_field(0b00)
            append_width(2)
            previous_leading_code = -1
            continue
        trailing = trailing_all[index]
        leading_code = codes_all[index]
        leading_rounded = rounded_all[index]
        if trailing > 6:
            # Flag 11: store centre bits only.
            centre = 64 - leading_rounded - trailing
            append_field(0b11)
            append_width(2)
            append_field(leading_code)
            append_width(3)
            append_field(centre)
            append_width(6)
            append_field(xor >> trailing)
            append_width(centre)
            previous_leading_code = -1
        elif leading_code == previous_leading_code:
            # Flag 01: reuse the previous leading-zero count.
            append_field(0b01)
            append_width(2)
            append_field(xor)
            append_width(64 - leading_rounded)
        else:
            # Flag 10: new leading-zero count, store to the end.
            append_field(0b10)
            append_width(2)
            append_field(leading_code)
            append_width(3)
            append_field(xor)
            append_width(64 - leading_rounded)
            previous_leading_code = leading_code
    return fields, widths


class ChimpCodec:
    """Chimp128-style XOR codec (single previous value variant)."""

    name = "Chimp"

    def encode(self, values) -> tuple[bytes, int, int]:
        """Encode ``values``; returns ``(payload, bit_length, count)``."""
        values = as_float_array(values)
        native = get_native()
        if native is not None:
            payload, bit_length = native.xor_encode("chimp", values)
            return payload, bit_length, values.size
        bits, xor_array = xor_stream(values)
        leading_all = clz64(xor_array)
        fields, widths = _chimp_field_stream(
            int(bits[0]), xor_array.tolist(), ctz64(xor_array).tolist(),
            _ROUND_CODE[leading_all].tolist(), _ROUND_VALUE[leading_all].tolist())
        words, bit_length = pack_bits(np.asarray(fields, dtype=np.uint64),
                                      np.asarray(widths, dtype=np.int64))
        return words_to_bytes(words, bit_length), bit_length, bits.size

    def encode_batch(self, matrix) -> list[tuple[bytes, int, int]]:
        """Encode many same-length series through one stacked kernel pass.

        See :meth:`repro.lossless.gorilla.GorillaCodec.encode_batch`: the
        XOR/zero-count/table-lookup preparation runs as 2-D NumPy passes
        and a single :func:`repro._kernels.bitpack.pack_bits` call packs
        every series' fields; each returned triple is byte-identical to
        :meth:`encode` on that row.
        """
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] == 0:
            raise CodecError("encode_batch expects a (num_series, length) matrix")
        native = get_native()
        if native is not None:
            # The stacked pass amortises NumPy dispatch; a C call per row
            # has none to amortise.
            return [(*native.xor_encode("chimp", row), row.size) for row in matrix]
        bits = matrix.view(np.uint64)
        xors = bits[:, 1:] ^ bits[:, :-1]
        leading = clz64(xors)
        return pack_field_streams(
            _chimp_field_stream, bits, xors.tolist(), ctz64(xors).tolist(),
            _ROUND_CODE[leading].tolist(), _ROUND_VALUE[leading].tolist())

    def decode(self, payload: bytes, bit_length: int, count: int) -> np.ndarray:
        """Decode ``count`` values from an encoded payload."""
        native = get_native()
        if native is not None:
            return native.xor_decode("chimp", payload, bit_length, count)
        if count <= 0:
            raise CodecError("count must be positive")
        words = payload_words(payload)
        limit = min(bit_length, len(payload) * 8)
        # Every value after the first costs at least two bits: refuse a count
        # the stream cannot hold before sizing the output by it.
        if 64 > limit or count - 1 > (limit - 64) // 2:
            raise CodecError("attempt to read past the end of the bit stream")
        decoded = [0] * count
        previous = words[0]
        decoded[0] = previous
        position = 64
        previous_leading_rounded = 0
        leading_table = _LEADING_ROUND

        for index in range(1, count):
            if position + 2 > limit:
                raise CodecError("attempt to read past the end of the bit stream")
            word_index = position >> 6
            available = 64 - (position & 63)
            if available >= 2:
                flag = (words[word_index] >> (available - 2)) & 0b11
            else:
                flag = (((words[word_index] & 1) << 1)
                        | (words[word_index + 1] >> 63))
            position += 2

            if flag == 0b00:
                decoded[index] = previous
                continue
            if flag == 0b11:
                if position + 9 > limit:
                    raise CodecError("attempt to read past the end of the bit stream")
                word_index = position >> 6
                available = 64 - (position & 63)
                if available >= 9:
                    header = (words[word_index] >> (available - 9)) & 0x1FF
                else:
                    low = 9 - available
                    header = (((words[word_index] & ((1 << available) - 1)) << low)
                              | (words[word_index + 1] >> (64 - low)))
                position += 9
                leading_rounded = leading_table[header >> 6]
                width = header & 0x3F
                shift = 64 - leading_rounded - width
                if shift < 0:
                    raise CodecError("XOR window does not fit in 64 bits")
                if width == 0:  # no encoder writes it; an empty centre
                    decoded[index] = previous
                    continue
            elif flag == 0b10:
                if position + 3 > limit:
                    raise CodecError("attempt to read past the end of the bit stream")
                word_index = position >> 6
                available = 64 - (position & 63)
                if available >= 3:
                    code = (words[word_index] >> (available - 3)) & 0b111
                else:
                    low = 3 - available
                    code = (((words[word_index] & ((1 << available) - 1)) << low)
                            | (words[word_index + 1] >> (64 - low)))
                position += 3
                previous_leading_rounded = leading_table[code]
                width = 64 - previous_leading_rounded
                shift = 0
            else:  # 0b01 — reuse previous leading count
                width = 64 - previous_leading_rounded
                shift = 0

            if position + width > limit:
                raise CodecError("attempt to read past the end of the bit stream")
            word_index = position >> 6
            available = 64 - (position & 63)
            if width <= available:
                xor = (words[word_index] >> (available - width)) & ((1 << width) - 1)
            else:
                low = width - available
                xor = (((words[word_index] & ((1 << available) - 1)) << low)
                       | (words[word_index + 1] >> (64 - low)))
            position += width
            previous ^= xor << shift
            decoded[index] = previous

        return np.array(decoded, dtype=np.uint64).view(np.float64)

    # ------------------------------------------------------------------ #
    def bits_per_value(self, values) -> float:
        """Convenience: encode and report the bits/value metric (Table 2)."""
        _payload, bit_length, count = self.encode(values)
        return bit_length / float(count)
