"""Block-wise bitstream kernels.

The original bitstream implementation appended **one bit per Python-level
loop iteration**, which put a ~0.5 µs floor under every bit of Gorilla/Chimp
payload.  The classes here operate on 64-bit words instead:

* :class:`BlockBitWriter` keeps a small integer accumulator and flushes full
  64-bit words into a word list, so ``write_bits`` is O(1) regardless of the
  width (at most one flush per call);
* :class:`BlockBitReader` fetches at most two words per ``read_bits`` call;
* :func:`pack_bits` / :meth:`BlockBitWriter.write_bits_array` /
  :meth:`BlockBitReader.read_bits_array` pack or consume whole arrays of
  variable-width fields in a handful of vectorized NumPy operations.

The bit layout is identical to the original implementation: MSB-first within
the stream, with the final byte zero-padded on the right.  64-bit words map
onto that layout as big-endian byte groups, which is what makes the word and
byte views interchangeable.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import CodecError

__all__ = ["BlockBitWriter", "BlockBitReader", "pack_bits", "words_to_bytes",
           "pack_field_streams"]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_U64 = np.uint64
_ONE = np.uint64(1)


def pack_bits(values, widths) -> tuple[np.ndarray, int]:
    """Pack variable-width unsigned fields into a left-aligned word stream.

    Parameters
    ----------
    values:
        Unsigned integers (anything convertible to ``uint64``); each is
        masked to its field width.
    widths:
        Per-field bit widths in ``[0, 64]``.  Zero-width fields contribute
        nothing.

    Returns
    -------
    (words, nbits):
        ``words`` is a ``uint64`` array holding the MSB-first bitstream
        (bit 0 of the stream is the MSB of ``words[0]``; the last word is
        zero-padded on the right), ``nbits`` the exact stream length.
    """
    widths = np.asarray(widths, dtype=np.int64)
    if widths.size == 0:
        return np.empty(0, dtype=_U64), 0
    if int(widths.min()) < 0 or int(widths.max()) > 64:
        raise CodecError("bit widths must be in [0, 64]")
    values = np.asarray(values, dtype=_U64)
    if values.shape != widths.shape:
        raise CodecError("values and widths must have the same shape")

    # Mask each value to its width (shift counts must stay < 64).
    wclip = np.minimum(widths, 63).astype(_U64)
    mask = np.where(widths >= 64, _U64(_MASK64), (_ONE << wclip) - _ONE)
    values = values & mask

    ends = np.cumsum(widths)
    nbits = int(ends[-1])
    if nbits == 0:
        return np.empty(0, dtype=_U64), 0
    starts = ends - widths
    nwords = (nbits + 63) >> 6
    words = np.zeros(nwords, dtype=_U64)

    nz = widths > 0
    v = values[nz]
    w = widths[nz]
    s = starts[nz]
    word_index = s >> 6
    offset = s & 63
    space = 64 - offset          # bits available in the first word
    overflow = w - space         # > 0 when the field straddles two words
    fits = overflow <= 0
    shift = np.where(fits, space - w, overflow).astype(_U64)
    first = np.where(fits, v << shift, v >> shift)
    # Disjoint bit fields cannot carry, so an unbuffered add is a safe OR.
    np.add.at(words, word_index, first)
    if not bool(fits.all()):
        straddle = ~fits
        v2 = v[straddle]
        over = overflow[straddle].astype(_U64)
        second = (v2 & ((_ONE << over) - _ONE)) << (_U64(64) - over)
        np.add.at(words, word_index[straddle] + 1, second)
    return words, nbits


def words_to_bytes(words: np.ndarray, nbits: int) -> bytes:
    """Convert a left-aligned word stream into its exact byte payload."""
    if nbits == 0:
        return b""
    nbytes = (nbits + 7) >> 3
    return words.astype(">u8").tobytes()[:nbytes]


def pack_field_streams(field_stream_fn, bits: np.ndarray, *row_args
                       ) -> list[tuple[bytes, int, int]]:
    """Pack many per-series field streams through **one** :func:`pack_bits`.

    The cross-series batch path of the XOR codecs: ``field_stream_fn`` is
    the codec's sequential control-code pass, called once per row of
    ``bits`` (a ``(num_series, length)`` uint64 matrix) with the matching
    row of every ``row_args`` sequence.  All resulting variable-width
    fields are concatenated — each series zero-padded to a 64-bit word
    boundary — and packed in a single call; the word stream then splits
    cleanly at the per-series boundaries.

    Returns one ``(payload, bit_length, count)`` triple per row,
    byte-identical to packing each series on its own: :func:`pack_bits`
    starts from zeroed words and the padding fields are zero, so a series'
    trailing word bits match the zero-padding of an individual pack.
    """
    count = int(bits.shape[1])
    all_fields: list[int] = []
    all_widths: list[int] = []
    spans: list[tuple[int, int]] = []
    bit_cursor = 0
    for row in range(bits.shape[0]):
        fields, widths = field_stream_fn(int(bits[row, 0]),
                                         *(arg[row] for arg in row_args))
        bit_len = sum(widths)
        spans.append((bit_cursor, bit_len))
        all_fields += fields
        all_widths += widths
        pad = (-bit_len) % 64
        if pad:
            all_fields.append(0)
            all_widths.append(pad)
        bit_cursor += bit_len + pad
    words, _total_bits = pack_bits(np.asarray(all_fields, dtype=_U64),
                                   np.asarray(all_widths, dtype=np.int64))
    results = []
    for start, bit_len in spans:
        lo = start >> 6
        hi = (start + bit_len + 63) >> 6
        results.append((words_to_bytes(words[lo:hi], bit_len), bit_len, count))
    return results


def payload_words(payload) -> list[int]:
    """View a byte payload as MSB-first 64-bit words (zero-padded ints).

    Inverse of :func:`words_to_bytes`; used by the sequential codec decode
    loops, which want Python ints for cheap shifts.
    """
    pad = (-len(payload)) % 8
    if pad:
        payload = bytes(payload) + b"\x00" * pad
    return np.frombuffer(payload, dtype=">u8").tolist()


class BlockBitWriter:
    """Append-only MSB-first bit buffer operating on 64-bit words.

    Multi-bit writes are O(1): the bits are shifted into an integer
    accumulator and full words are flushed to a word list, so the per-call
    cost is a handful of integer operations instead of one loop iteration
    per bit.
    """

    __slots__ = ("_words", "_acc", "_acc_bits")

    def __init__(self):
        self._words: list[int] = []   # flushed 64-bit words
        self._acc = 0                 # partial word accumulator
        self._acc_bits = 0            # bits currently in the accumulator (< 64)

    def __len__(self) -> int:
        """Number of bits written so far."""
        return len(self._words) * 64 + self._acc_bits

    @property
    def bit_length(self) -> int:
        """Number of bits written so far (alias of ``len``)."""
        return len(self._words) * 64 + self._acc_bits

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        bits = self._acc_bits + 1
        acc = (self._acc << 1) | (1 if bit else 0)
        if bits == 64:
            self._words.append(acc)
            acc = 0
            bits = 0
        self._acc = acc
        self._acc_bits = bits

    def write_bits(self, value: int, width: int) -> None:
        """Append the ``width`` least-significant bits of ``value`` MSB first."""
        if width < 0 or width > 64:
            raise CodecError(f"bit width must be in [0, 64], got {width}")
        width = int(width)
        bits = self._acc_bits + width
        # int() keeps NumPy integer inputs out of the arbitrary-precision
        # accumulator (uint64 arithmetic would overflow during the shift).
        acc = (self._acc << width) | (int(value) & ((1 << width) - 1))
        if bits >= 64:
            bits -= 64
            self._words.append((acc >> bits) & _MASK64)
            acc &= (1 << bits) - 1
        self._acc = acc
        self._acc_bits = bits

    def write_bits_array(self, values, widths) -> None:
        """Append many variable-width fields in one vectorized operation.

        Equivalent to calling :meth:`write_bits` for each ``(value, width)``
        pair, but the packing happens in NumPy.
        """
        words, nbits = pack_bits(values, widths)
        self._append_words(words, nbits)

    def _append_words(self, words: np.ndarray, nbits: int) -> None:
        """Append a left-aligned word stream of ``nbits`` bits."""
        if nbits == 0:
            return
        a = self._acc_bits
        if a == 0:
            full = nbits >> 6
            self._words.extend(words[:full].tolist())
            rem = nbits & 63
            if rem:
                self._acc = int(words[full]) >> (64 - rem)
                self._acc_bits = rem
            return
        # Funnel-shift the incoming stream right by ``a`` bits and prepend
        # the accumulator; every output word is a constant-shift combination
        # of two adjacent input words, which vectorizes.
        ua = _U64(a)
        ush = _U64(64 - a)
        hi = words >> ua
        lo = (words << ush) & _U64(_MASK64)
        merged = np.empty_like(words)
        merged[0] = _U64((self._acc << (64 - a)) & _MASK64) | hi[0]
        if words.size > 1:
            np.bitwise_or(lo[:-1], hi[1:], out=merged[1:])
        total = a + nbits
        full = total >> 6
        rem = total & 63
        if full == words.size:
            self._words.extend(merged.tolist())
            self._acc = int(lo[-1]) >> (64 - rem) if rem else 0
        else:  # full == words.size - 1
            self._words.extend(merged[:full].tolist())
            self._acc = int(merged[full]) >> (64 - rem) if rem else 0
        self._acc_bits = rem

    def to_bytes(self) -> bytes:
        """Snapshot of the packed bytes (last byte zero-padded)."""
        head = np.array(self._words, dtype=">u8").tobytes()
        if self._acc_bits:
            nbytes = (self._acc_bits + 7) >> 3
            head += (self._acc << (8 * nbytes - self._acc_bits)).to_bytes(nbytes, "big")
        return head


class BlockBitReader:
    """MSB-first bit consumer fetching at most two words per read."""

    __slots__ = ("_data", "_limit", "_position", "_warr", "_words")

    def __init__(self, data: bytes, bit_length: int | None = None):
        self._data = bytes(data)
        # Clamp to the real payload so a too-large stated bit_length raises
        # on read instead of silently yielding word-padding zeros.
        available = len(self._data) * 8
        self._limit = available if bit_length is None else min(bit_length, available)
        self._position = 0
        pad = (-len(self._data)) % 8
        buffer = self._data + b"\x00" * pad if pad else self._data
        self._warr = np.frombuffer(buffer, dtype=">u8").astype(_U64)
        self._words: list[int] | None = None  # lazy Python-int mirror

    @property
    def remaining(self) -> int:
        """Bits left to read."""
        return self._limit - self._position

    def word_list(self) -> list[int]:
        """The stream as Python-int words (cached; for tight decode loops)."""
        if self._words is None:
            self._words = self._warr.tolist()
        return self._words

    def read_bit(self) -> int:
        """Read a single bit."""
        position = self._position
        if position >= self._limit:
            raise CodecError("attempt to read past the end of the bit stream")
        words = self._words
        if words is None:
            words = self.word_list()
        self._position = position + 1
        return (words[position >> 6] >> (63 - (position & 63))) & 1

    def read_bits(self, width: int) -> int:
        """Read ``width`` bits as an unsigned integer (O(1) per call)."""
        if width < 0 or width > 64:
            raise CodecError(f"bit width must be in [0, 64], got {width}")
        position = self._position
        if position + width > self._limit:
            raise CodecError("attempt to read past the end of the bit stream")
        if width == 0:
            return 0
        words = self._words
        if words is None:
            words = self.word_list()
        word_index = position >> 6
        available = 64 - (position & 63)
        self._position = position + width
        if width <= available:
            return (words[word_index] >> (available - width)) & ((1 << width) - 1)
        low = width - available
        head = words[word_index] & ((1 << available) - 1)
        return (head << low) | (words[word_index + 1] >> (64 - low))

    def read_bits_array(self, widths) -> np.ndarray:
        """Read many variable-width fields in one vectorized operation.

        Returns a ``uint64`` array; equivalent to (but much faster than)
        calling :meth:`read_bits` per width.
        """
        widths = np.asarray(widths, dtype=np.int64)
        if widths.size == 0:
            return np.empty(0, dtype=_U64)
        if int(widths.min()) < 0 or int(widths.max()) > 64:
            raise CodecError("bit widths must be in [0, 64]")
        ends = self._position + np.cumsum(widths)
        if int(ends[-1]) > self._limit:
            raise CodecError("attempt to read past the end of the bit stream")
        starts = ends - widths
        warr = self._warr
        if warr.size == 0:
            # Only reachable when every width is zero (the limit check
            # passed against an empty stream).
            self._position = int(ends[-1])
            return np.zeros(widths.size, dtype=_U64)
        # Zero-width fields may "start" exactly at the end of the stream;
        # clamp the gather (their mask zeroes the result anyway).
        word_index = np.minimum(starts >> 6, warr.size - 1)
        offset = starts & 63
        available = 64 - offset
        current = warr[word_index]

        fits = widths <= available
        fit_shift = np.minimum(available - widths, 63).astype(_U64)
        wclip = np.minimum(widths, 63).astype(_U64)
        mask = np.where(widths >= 64, _U64(_MASK64), (_ONE << wclip) - _ONE)
        fit_value = (current >> fit_shift) & mask

        low = np.clip(widths - available, 1, 63).astype(_U64)
        avail_clip = np.minimum(available, 63).astype(_U64)
        nxt = warr[np.minimum(word_index + 1, warr.size - 1)]
        straddle_value = (((current & ((_ONE << avail_clip) - _ONE)) << low)
                          | (nxt >> (_U64(64) - low)))

        self._position = int(ends[-1])
        return np.where(fits, fit_value, straddle_value)
