"""Gorilla lossless floating-point compression (Pelkonen et al., PVLDB 2015).

Gorilla XORs each value with its predecessor and encodes the XOR result with
a three-way control code:

* ``0``        — the XOR is zero (identical value), one bit total;
* ``10``       — the meaningful bits fit inside the previous leading/trailing
                 zero window, only those bits are stored;
* ``11``       — a new window: 5 bits of leading-zero count, 6 bits of
                 meaningful-bit length, then the meaningful bits.

The first value is stored verbatim (64 bits).  The decoder reverses the
process exactly, so the codec is lossless bit-for-bit.

The implementation routes through :mod:`repro._kernels`: the XOR stream and
its leading/trailing-zero counts are computed in vectorized NumPy passes, the
per-value Python work is reduced to the (inherently sequential) control-code
branch, and the resulting fields are packed in one block operation.  Decoding
walks a word buffer with O(1) chunk reads per field instead of per-bit loops.
Payloads are byte-identical to the original per-bit implementation
(:func:`repro._kernels.reference.reference_gorilla_encode`).
"""

from __future__ import annotations

import numpy as np

from .._kernels import get_native
from .._kernels.bitops import clz64, ctz64, xor_stream
from .._kernels.bitpack import pack_bits, pack_field_streams, payload_words, words_to_bytes
from .._validation import as_float_array
from ..exceptions import CodecError

__all__ = ["GorillaCodec"]


def _gorilla_field_stream(first_word: int, xors: list, leading_all: list,
                          trailing_all: list) -> tuple[list, list]:
    """The sequential control-code pass: ``(fields, widths)`` of one series.

    Shared verbatim by :meth:`GorillaCodec.encode` and
    :meth:`GorillaCodec.encode_batch`, so the stacked batch path produces
    byte-identical payloads by construction.
    """
    fields = [first_word]
    widths = [64]
    append_field = fields.append
    append_width = widths.append
    previous_leading = 65   # force a new window on the first XOR
    previous_trailing = 65

    for index, xor in enumerate(xors):
        if xor == 0:
            append_field(0)
            append_width(1)
            continue
        leading = leading_all[index]
        trailing = trailing_all[index]
        if leading >= previous_leading and trailing >= previous_trailing:
            # Fits into the previous window: control bits '10'.
            append_field(0b10)
            append_width(2)
            append_field(xor >> previous_trailing)
            append_width(64 - previous_leading - previous_trailing)
        else:
            meaningful = 64 - leading - trailing
            append_field(0b11)
            append_width(2)
            append_field(leading)
            append_width(5)
            append_field(meaningful - 1)
            append_width(6)
            append_field(xor >> trailing)
            append_width(meaningful)
            previous_leading = leading
            previous_trailing = trailing
    return fields, widths


class GorillaCodec:
    """XOR-based lossless codec for 64-bit floating point series."""

    name = "Gorilla"

    def encode(self, values) -> tuple[bytes, int, int]:
        """Encode ``values``; returns ``(payload, bit_length, count)``."""
        values = as_float_array(values)
        native = get_native()
        if native is not None:
            payload, bit_length = native.xor_encode("gorilla", values)
            return payload, bit_length, values.size
        bits, xor_array = xor_stream(values)
        fields, widths = _gorilla_field_stream(
            int(bits[0]), xor_array.tolist(),
            np.minimum(clz64(xor_array), 31).tolist(), ctz64(xor_array).tolist())
        words, bit_length = pack_bits(np.asarray(fields, dtype=np.uint64),
                                      np.asarray(widths, dtype=np.int64))
        return words_to_bytes(words, bit_length), bit_length, bits.size

    def encode_batch(self, matrix) -> list[tuple[bytes, int, int]]:
        """Encode many same-length series through one stacked kernel pass.

        ``matrix`` is a ``(num_series, length)`` float64 array.  The XOR
        stream and leading/trailing-zero preparation run as single 2-D
        NumPy passes and every series' variable-width fields are packed by
        **one** :func:`repro._kernels.bitpack.pack_bits` call (each series
        zero-padded to a 64-bit word boundary so the word stream splits
        per series), amortizing the per-call NumPy dispatch that dominates
        at small lengths.  Each returned ``(payload, bit_length, count)``
        triple is byte-identical to :meth:`encode` on that row.
        """
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] == 0:
            raise CodecError("encode_batch expects a (num_series, length) matrix")
        native = get_native()
        if native is not None:
            # The stacked pass amortises NumPy dispatch; a C call per row
            # has none to amortise.
            return [(*native.xor_encode("gorilla", row), row.size) for row in matrix]
        bits = matrix.view(np.uint64)
        xors = bits[:, 1:] ^ bits[:, :-1]
        leading_rows = np.minimum(clz64(xors), 31).tolist()
        trailing_rows = ctz64(xors).tolist()
        xor_rows = xors.tolist()
        return pack_field_streams(
            _gorilla_field_stream, bits, xor_rows, leading_rows, trailing_rows)

    def decode(self, payload: bytes, bit_length: int, count: int) -> np.ndarray:
        """Decode ``count`` values from an encoded payload."""
        native = get_native()
        if native is not None:
            return native.xor_decode("gorilla", payload, bit_length, count)
        if count <= 0:
            raise CodecError("count must be positive")
        words = payload_words(payload)
        limit = min(bit_length, len(payload) * 8)
        # Every value after the first costs at least one bit: refuse a count
        # the stream cannot hold before sizing the output by it.
        if 64 > limit or count - 1 > limit - 64:
            raise CodecError("attempt to read past the end of the bit stream")
        decoded = [0] * count
        # The decoder is inherently sequential (each field's width depends on
        # the flags before it), so the chunk reads are inlined: every field
        # costs a couple of shifts instead of a per-bit loop.
        previous = words[0]
        position = 64
        decoded[0] = previous
        leading = 0
        trailing = 0

        for index in range(1, count):
            if position >= limit:
                raise CodecError("attempt to read past the end of the bit stream")
            bit = (words[position >> 6] >> (63 - (position & 63))) & 1
            position += 1
            if bit == 0:
                decoded[index] = previous
                continue
            if position >= limit:
                raise CodecError("attempt to read past the end of the bit stream")
            bit = (words[position >> 6] >> (63 - (position & 63))) & 1
            position += 1
            if bit == 0:
                width = 64 - leading - trailing
            else:
                # 5 bits of leading-zero count + 6 bits of length, read as
                # one 11-bit header.
                if position + 11 > limit:
                    raise CodecError("attempt to read past the end of the bit stream")
                word_index = position >> 6
                available = 64 - (position & 63)
                if available >= 11:
                    header = (words[word_index] >> (available - 11)) & 0x7FF
                else:
                    low = 11 - available
                    header = (((words[word_index] & ((1 << available) - 1)) << low)
                              | (words[word_index + 1] >> (64 - low)))
                position += 11
                leading = header >> 6
                width = (header & 0x3F) + 1
                trailing = 64 - leading - width
                if trailing < 0:
                    raise CodecError("XOR window does not fit in 64 bits")
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
            previous ^= xor << trailing
            decoded[index] = previous

        return np.array(decoded, dtype=np.uint64).view(np.float64)

    # ------------------------------------------------------------------ #
    def bits_per_value(self, values) -> float:
        """Convenience: encode and report the bits/value metric (Table 2)."""
        _payload, bit_length, count = self.encode(values)
        return bit_length / float(count)
