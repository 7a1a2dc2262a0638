"""Reference per-bit bitstream and codec implementations.

This module preserves the original (pre-kernel) per-bit implementations
verbatim.  They are deliberately slow — one Python loop iteration per bit —
and exist for two reasons:

* the property tests cross-check the block kernels against them bit for bit
  (the payloads must be byte-identical), and
* the perf harness measures its speedup ratios against them on the same
  machine, which keeps the regression thresholds hardware-independent.

Do not "optimize" anything in here; that would defeat its purpose.
"""

from __future__ import annotations

import threading

import numpy as np

from .._validation import as_float_array
from ..exceptions import CodecError

__all__ = [
    "ReferenceBitWriter",
    "ReferenceBitReader",
    "ReferenceIndexedMinHeap",
    "reference_gorilla_encode",
    "reference_gorilla_decode",
    "reference_chimp_encode",
    "reference_chimp_decode",
    "reference_pacf_from_acf",
    "reference_batched_contiguous_acf",
    "reference_lagged_dot_deltas",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _float_to_bits(value: float) -> int:
    return int(np.float64(value).view(np.uint64))


def _bits_to_float(bits: int) -> float:
    return float(np.uint64(bits & _MASK64).view(np.float64))


def _leading_zeros(value: int) -> int:
    if value == 0:
        return 64
    return 64 - value.bit_length()


def _trailing_zeros(value: int) -> int:
    if value == 0:
        return 64
    return (value & -value).bit_length() - 1


class ReferenceBitWriter:
    """The original byte-array bit writer (one loop iteration per bit)."""

    def __init__(self):
        self._bytes = bytearray()
        self._free_bits = 0
        self._total_bits = 0

    def __len__(self) -> int:
        return self._total_bits

    @property
    def bit_length(self) -> int:
        return self._total_bits

    def write_bit(self, bit: int) -> None:
        if self._free_bits == 0:
            self._bytes.append(0)
            self._free_bits = 8
        if bit:
            self._bytes[-1] |= 1 << (self._free_bits - 1)
        self._free_bits -= 1
        self._total_bits += 1

    def write_bits(self, value: int, width: int) -> None:
        if width < 0 or width > 64:
            raise CodecError(f"bit width must be in [0, 64], got {width}")
        for shift in range(width - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def to_bytes(self) -> bytes:
        return bytes(self._bytes)


class ReferenceBitReader:
    """The original per-bit reader."""

    def __init__(self, data: bytes, bit_length: int | None = None):
        self._data = bytes(data)
        self._limit = bit_length if bit_length is not None else len(self._data) * 8
        self._position = 0

    @property
    def remaining(self) -> int:
        return self._limit - self._position

    def read_bit(self) -> int:
        if self._position >= self._limit:
            raise CodecError("attempt to read past the end of the bit stream")
        byte_index, bit_index = divmod(self._position, 8)
        self._position += 1
        return (self._data[byte_index] >> (7 - bit_index)) & 1

    def read_bits(self, width: int) -> int:
        if width < 0 or width > 64:
            raise CodecError(f"bit width must be in [0, 64], got {width}")
        value = 0
        for _ in range(width):
            value = (value << 1) | self.read_bit()
        return value


# --------------------------------------------------------------------- #
# reference Gorilla
# --------------------------------------------------------------------- #
def reference_gorilla_encode(values) -> tuple[bytes, int, int]:
    """Per-bit Gorilla encoder (original implementation)."""
    values = as_float_array(values)
    writer = ReferenceBitWriter()
    previous_bits = _float_to_bits(values[0])
    writer.write_bits(previous_bits, 64)
    previous_leading = 65
    previous_trailing = 65

    for value in values[1:]:
        current_bits = _float_to_bits(value)
        xor = (current_bits ^ previous_bits) & _MASK64
        if xor == 0:
            writer.write_bit(0)
        else:
            writer.write_bit(1)
            leading = min(_leading_zeros(xor), 31)
            trailing = _trailing_zeros(xor)
            if leading >= previous_leading and trailing >= previous_trailing:
                writer.write_bit(0)
                window = 64 - previous_leading - previous_trailing
                writer.write_bits(xor >> previous_trailing, window)
            else:
                meaningful = 64 - leading - trailing
                writer.write_bit(1)
                writer.write_bits(leading, 5)
                writer.write_bits(meaningful - 1, 6)
                writer.write_bits(xor >> trailing, meaningful)
                previous_leading = leading
                previous_trailing = trailing
        previous_bits = current_bits
    return writer.to_bytes(), writer.bit_length, values.size


def reference_gorilla_decode(payload: bytes, bit_length: int, count: int) -> np.ndarray:
    """Per-bit Gorilla decoder (original implementation)."""
    if count <= 0:
        raise CodecError("count must be positive")
    reader = ReferenceBitReader(payload, bit_length)
    values = np.empty(count, dtype=np.float64)
    previous_bits = reader.read_bits(64)
    values[0] = _bits_to_float(previous_bits)
    leading = 0
    trailing = 0
    for index in range(1, count):
        if reader.read_bit() == 0:
            values[index] = _bits_to_float(previous_bits)
            continue
        if reader.read_bit() == 0:
            window = 64 - leading - trailing
            xor = reader.read_bits(window) << trailing
        else:
            leading = reader.read_bits(5)
            meaningful = reader.read_bits(6) + 1
            trailing = 64 - leading - meaningful
            xor = reader.read_bits(meaningful) << trailing
        previous_bits = (previous_bits ^ xor) & _MASK64
        values[index] = _bits_to_float(previous_bits)
    return values


# --------------------------------------------------------------------- #
# reference Chimp
# --------------------------------------------------------------------- #
_LEADING_ROUND = [0, 8, 12, 16, 18, 20, 22, 24]


def _round_leading(leading: int) -> tuple[int, int]:
    code = 0
    for index, threshold in enumerate(_LEADING_ROUND):
        if leading >= threshold:
            code = index
    return code, _LEADING_ROUND[code]


def reference_chimp_encode(values) -> tuple[bytes, int, int]:
    """Per-bit Chimp encoder (original implementation)."""
    values = as_float_array(values)
    writer = ReferenceBitWriter()
    previous_bits = _float_to_bits(values[0])
    writer.write_bits(previous_bits, 64)
    previous_leading_code = -1

    for value in values[1:]:
        current_bits = _float_to_bits(value)
        xor = (current_bits ^ previous_bits) & _MASK64
        if xor == 0:
            writer.write_bits(0b00, 2)
            previous_leading_code = -1
        else:
            leading = _leading_zeros(xor)
            trailing = _trailing_zeros(xor)
            leading_code, leading_rounded = _round_leading(leading)
            if trailing > 6:
                centre = 64 - leading_rounded - trailing
                writer.write_bits(0b11, 2)
                writer.write_bits(leading_code, 3)
                writer.write_bits(centre, 6)
                writer.write_bits(xor >> trailing, centre)
                previous_leading_code = -1
            elif leading_code == previous_leading_code:
                writer.write_bits(0b01, 2)
                writer.write_bits(xor, 64 - leading_rounded)
            else:
                writer.write_bits(0b10, 2)
                writer.write_bits(leading_code, 3)
                writer.write_bits(xor, 64 - leading_rounded)
                previous_leading_code = leading_code
        previous_bits = current_bits
    return writer.to_bytes(), writer.bit_length, values.size


def reference_chimp_decode(payload: bytes, bit_length: int, count: int) -> np.ndarray:
    """Per-bit Chimp decoder (original implementation)."""
    if count <= 0:
        raise CodecError("count must be positive")
    reader = ReferenceBitReader(payload, bit_length)
    values = np.empty(count, dtype=np.float64)
    previous_bits = reader.read_bits(64)
    values[0] = _bits_to_float(previous_bits)
    previous_leading_rounded = 0

    for index in range(1, count):
        flag = reader.read_bits(2)
        if flag == 0b00:
            xor = 0
        elif flag == 0b11:
            leading_code = reader.read_bits(3)
            leading_rounded = _LEADING_ROUND[leading_code]
            centre = reader.read_bits(6)
            trailing = 64 - leading_rounded - centre
            xor = reader.read_bits(centre) << trailing
        elif flag == 0b10:
            leading_code = reader.read_bits(3)
            leading_rounded = _LEADING_ROUND[leading_code]
            xor = reader.read_bits(64 - leading_rounded)
            previous_leading_rounded = leading_rounded
        else:
            xor = reader.read_bits(64 - previous_leading_rounded)
        previous_bits = (previous_bits ^ xor) & _MASK64
        values[index] = _bits_to_float(previous_bits)
    return values


def reference_pacf_from_acf(acf_values) -> np.ndarray:
    """Per-row Durbin-Levinson recursion (the pre-vectorization PACF path).

    This is the recursion :func:`repro.stats.pacf.pacf_from_acf` ran for
    every candidate row before the batched kernel
    (:func:`repro._kernels.pacf.pacf_from_acf_batched`) replaced it in the
    hot path.  The property tests assert the batched kernel reproduces it
    **bit for bit**, and the perf harness measures the PACF-tracking
    speedup against it.

    One deliberate deviation from the original source: the inner products
    accumulate with ``np.sum`` over elementwise products, where the
    original used BLAS ``np.dot``.  NumPy's pairwise summation gives
    identical results for a 1-D array and for each row of a 2-D array —
    which is what makes a bit-for-bit batched-vs-per-row cross-check
    possible at all — while BLAS accumulation order differs per build, so
    ``np.dot`` results can differ from either in the last bit.  The
    consequence: batched == this reference is proven *exactly* on every
    input, and equivalence with the original ``np.dot`` accumulation is
    verified *empirically* — CAMEO kept-point sets captured from the
    original implementation on fixed-seed configs (both statistics, raw and
    aggregated) are locked in ``tests/core/test_pacf_fastpath.py``.
    """
    rho = np.asarray(acf_values, dtype=np.float64)
    if rho.ndim != 1 or rho.size == 0:
        raise ValueError("acf_values must be a non-empty 1-D array")
    max_lag = rho.size
    pacf_values = np.zeros(max_lag, dtype=np.float64)
    # phi_prev[:order] holds phi_{order, 1..order} at the start of the
    # iteration computing order + 1.
    phi_prev = np.zeros(max_lag, dtype=np.float64)
    phi_curr = np.zeros(max_lag, dtype=np.float64)

    pacf_values[0] = rho[0]
    phi_prev[0] = rho[0]

    for order in range(1, max_lag):
        numerator = rho[order] - float(np.sum(phi_prev[:order] * rho[:order][::-1]))
        denominator = 1.0 - float(np.sum(phi_prev[:order] * rho[:order]))
        if abs(denominator) < 1e-12:
            phi_ll = 0.0
        else:
            phi_ll = numerator / denominator
        pacf_values[order] = phi_ll
        phi_curr[:order] = phi_prev[:order] - phi_ll * phi_prev[:order][::-1]
        phi_curr[order] = phi_ll
        phi_prev, phi_curr = phi_curr.copy(), phi_prev
    return pacf_values


# --------------------------------------------------------------------- #
# reference indexed min-heap (the pre-vectorization list-based heap)
# --------------------------------------------------------------------- #
_HEAP_ABSENT = -1


class ReferenceIndexedMinHeap:
    """The original Python-list indexed min-heap (one sift step per level).

    This is the heap the CAMEO main loop used before
    :class:`repro.core.heap.IndexedMinHeap` moved to NumPy-array storage
    with level-at-a-time bulk operations.  It is preserved verbatim so that

    * the hypothesis property tests can cross-check every bulk operation of
      the vectorized heap against per-item sequential semantics, and
    * the perf harness can measure the ``update_many`` speedup against the
      per-item Python sift loops on the same machine.

    Do not "optimize" anything in here; that would defeat its purpose.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = int(capacity)
        self._keys: list[float] = []
        self._items: list[int] = []
        self._slot_of: list[int] = [_HEAP_ABSENT] * self._capacity

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: int) -> bool:
        return 0 <= item < self._capacity and self._slot_of[item] != _HEAP_ABSENT

    def contains_mask(self, items) -> np.ndarray:
        """Vectorized membership: boolean mask of which ``items`` are present."""
        items = np.asarray(items, dtype=np.int64)
        slot_of = self._slot_of
        return np.fromiter((slot_of[item] != _HEAP_ABSENT for item in items.tolist()),
                           dtype=bool, count=items.size)

    def __bool__(self) -> bool:
        return bool(self._items)

    @property
    def capacity(self) -> int:
        """Maximum number of distinct items."""
        return self._capacity

    def key_of(self, item: int) -> float:
        """Current priority of ``item`` (raises ``KeyError`` if absent)."""
        slot = self._slot_of[item]
        if slot == _HEAP_ABSENT:
            raise KeyError(f"item {item} is not in the heap")
        return self._keys[slot]

    def peek(self) -> tuple[int, float]:
        """Return ``(item, key)`` of the minimum without removing it."""
        if not self._items:
            raise IndexError("peek on an empty heap")
        return self._items[0], self._keys[0]

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def heapify(self, items, keys) -> None:
        """Bulk-load ``items`` with ``keys`` using Floyd's method (O(n))."""
        items = np.asarray(items, dtype=np.int64)
        keys = np.asarray(keys, dtype=np.float64)
        if items.shape != keys.shape or items.ndim != 1:
            raise ValueError("items and keys must be 1-D arrays of equal length")
        if items.size > self._capacity:
            raise ValueError("more items than heap capacity")
        if items.size and (items.min() < 0 or items.max() >= self._capacity):
            raise ValueError("items out of range")
        if np.unique(items).size != items.size:
            raise ValueError("items must be unique")
        self._items = items.tolist()
        self._keys = keys.tolist()
        slot_of = self._slot_of = [_HEAP_ABSENT] * self._capacity
        for slot, item in enumerate(self._items):
            slot_of[item] = slot
        for slot in range(len(self._items) // 2 - 1, -1, -1):
            self._sift_down(slot)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def push(self, item: int, key: float) -> None:
        """Insert ``item`` with priority ``key`` (item must be absent)."""
        item = int(item)
        if not 0 <= item < self._capacity:
            raise ValueError(f"item {item} out of range [0, {self._capacity})")
        if self._slot_of[item] != _HEAP_ABSENT:
            raise ValueError(f"item {item} is already in the heap; use update()")
        slot = len(self._items)
        self._items.append(item)
        self._keys.append(float(key))
        self._slot_of[item] = slot
        self._sift_up(slot)

    def pop(self) -> tuple[int, float]:
        """Remove and return ``(item, key)`` with the smallest key."""
        if not self._items:
            raise IndexError("pop from an empty heap")
        item = self._items[0]
        key = self._keys[0]
        self._remove_slot(0)
        return item, key

    def remove(self, item: int) -> None:
        """Remove ``item`` from the heap (no-op if absent)."""
        slot = self._slot_of[item]
        if slot == _HEAP_ABSENT:
            return
        self._remove_slot(slot)

    def update(self, item: int, key: float) -> None:
        """Change the priority of ``item`` (inserting it if absent)."""
        slot = self._slot_of[item]
        if slot == _HEAP_ABSENT:
            self.push(item, key)
            return
        key = float(key)
        old = self._keys[slot]
        self._keys[slot] = key
        if key < old:
            self._sift_up(slot)
        elif key > old:
            self._sift_down(slot)

    def update_many(self, items, keys) -> None:
        """Per-item sequential ``update`` over the pairs, in order."""
        items = np.asarray(items, dtype=np.int64)
        key_values = np.asarray(keys, dtype=np.float64)
        if items.shape != key_values.shape or items.ndim != 1:
            raise ValueError("items and keys must be 1-D arrays of equal length")
        for item, key in zip(items.tolist(), key_values.tolist()):
            self.update(item, key)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _remove_slot(self, slot: int) -> None:
        items = self._items
        keys = self._keys
        last = len(items) - 1
        self._slot_of[items[slot]] = _HEAP_ABSENT
        if slot != last:
            items[slot] = items[last]
            keys[slot] = keys[last]
            self._slot_of[items[slot]] = slot
        items.pop()
        keys.pop()
        if slot < len(items):
            # The moved entry may need to travel either direction.
            self._sift_down(slot)
            self._sift_up(slot)

    def _swap(self, a: int, b: int) -> None:
        items = self._items
        keys = self._keys
        items[a], items[b] = items[b], items[a]
        keys[a], keys[b] = keys[b], keys[a]
        self._slot_of[items[a]] = a
        self._slot_of[items[b]] = b

    def _sift_up(self, slot: int) -> None:
        keys = self._keys
        while slot > 0:
            parent = (slot - 1) // 2
            if keys[slot] < keys[parent]:
                self._swap(slot, parent)
                slot = parent
            else:
                break

    def _sift_down(self, slot: int) -> None:
        keys = self._keys
        size = len(keys)
        while True:
            left = 2 * slot + 1
            right = left + 1
            smallest = slot
            if left < size and keys[left] < keys[smallest]:
                smallest = left
            if right < size and keys[right] < keys[smallest]:
                smallest = right
            if smallest == slot:
                return
            self._swap(slot, smallest)
            slot = smallest

    # ------------------------------------------------------------------ #
    # debugging / testing aids
    # ------------------------------------------------------------------ #
    def items(self) -> np.ndarray:
        """Items currently in the heap (arbitrary order, copy)."""
        return np.asarray(self._items, dtype=np.int64)

    def check_invariants(self) -> bool:
        """Verify the heap property and the item→slot map (tests only)."""
        for slot in range(1, len(self._items)):
            parent = (slot - 1) // 2
            if self._keys[parent] > self._keys[slot]:
                return False
        for slot in range(len(self._items)):
            if self._slot_of[self._items[slot]] != slot:
                return False
        return True


# --------------------------------------------------------------------- #
# reference fused ReHeap kernel (the pre-speculative-batch implementation)
def reference_lagged_dot_deltas(current, max_lag: int, start: int, deltas
                                ) -> np.ndarray:
    """Scalar twin of :func:`repro._kernels.lagdot.lagged_dot_deltas`.

    The change of ``sxxl`` at lags ``1..max_lag`` when the contiguous range
    of ``current`` beginning at ``start`` moves by ``deltas``: per lag the
    head, tail and cross sums, each accumulated left to right from ``0.0``,
    with a partner outside the series (or the range) as a ``0.0`` factor, combined as ``(head + tail) + cross``.  Plain Python
    floats, one operation at a time — the order the NumPy expression and
    the compiled tier must reproduce bit for bit.
    """
    current = [float(value) for value in current]
    deltas = [float(value) for value in deltas]
    n, m = len(current), len(deltas)

    def value_at(index: int) -> float:
        return current[index] if 0 <= index < n else 0.0

    def delta_at(index: int) -> float:
        return deltas[index] if index < m else 0.0

    out = np.empty(max_lag, dtype=np.float64)
    for lag in range(1, max_lag + 1):
        head = tail = cross = 0.0
        for k in range(m):
            head = head + deltas[k] * value_at(start + k + lag)
            tail = tail + deltas[k] * value_at(start + k - lag)
            cross = cross + deltas[k] * delta_at(k + lag)
        out[lag - 1] = (head + tail) + cross
    return out


# --------------------------------------------------------------------- #
#: Upper bound on ``total_positions * max_lag`` per vectorized block in
#: :func:`reference_batched_contiguous_acf` (the original budget).
_REFERENCE_MAX_BLOCK_CELLS = 1 << 21

_reference_block_scratch_tls = threading.local()


def reference_batched_contiguous_acf(state, lengths, positions, deltas
                           ) -> np.ndarray:
    """ACF each of many contiguous-range changes would produce, vectorized.

    The ``k`` hypothetical changes are given in concatenated form:
    ``lengths[s]`` positions belong to segment ``s`` and the segments'
    positions/deltas are stored back to back in ``positions``/``deltas``
    (each segment's positions must be consecutive integers).  Returns a
    ``(k, L)`` matrix whose row ``s`` is the ACF after applying segment
    ``s`` alone; zero-length segments get the current ACF.

    Single-position segments reproduce the arithmetic of
    :func:`batched_single_change_impacts` exactly.  The cross terms
    ``delta_p * delta_{p+l}`` inside each segment are accumulated per lag
    with a bincount over same-segment pairs.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    positions = np.asarray(positions, dtype=np.int64)
    deltas = np.asarray(deltas, dtype=np.float64)
    k = lengths.size
    num_lags = state.lags.size
    out = np.empty((k, num_lags), dtype=np.float64)
    if k == 0:
        return out

    nonzero = lengths > 0
    if not bool(nonzero.all()):
        out[~nonzero] = state.acf()
    lens = lengths[nonzero]
    if lens.size == 0:
        return out
    row_index = np.flatnonzero(nonzero)

    cum = np.concatenate(([0], np.cumsum(lens)))
    # Split into blocks so temp arrays stay ~_REFERENCE_MAX_BLOCK_CELLS elements.
    budget = max(_REFERENCE_MAX_BLOCK_CELLS // max(num_lags, 1), int(lens.max()))
    start_seg = 0
    while start_seg < lens.size:
        stop_seg = int(np.searchsorted(cum, cum[start_seg] + budget, side="right")) - 1
        stop_seg = max(stop_seg, start_seg + 1)
        block_rows = row_index[start_seg:stop_seg]
        lo, hi = int(cum[start_seg]), int(cum[stop_seg])
        out[block_rows] = _reference_contiguous_acf_block(
            state, lens[start_seg:stop_seg], positions[lo:hi], deltas[lo:hi])
        start_seg = stop_seg
    return out


class _ReferenceBlockScratch:
    """Reusable ``(T, L)`` scratch buffers for :func:`_reference_contiguous_acf_block`.

    One ReHeap call allocated ~8 ``(T, L)`` temporaries; the pool keeps a
    float64, two int64, and two bool buffers per ``(thread, L)`` and grows
    their row capacity geometrically, so steady-state ReHeap calls allocate
    no ``(T, L)`` arrays at all.
    """

    __slots__ = ("rows", "f1", "f2", "i1", "i2", "b1", "b2")

    def __init__(self, rows: int, num_lags: int):
        self.rows = rows
        self.f1 = np.empty((rows, num_lags), dtype=np.float64)
        self.f2 = np.empty((rows, num_lags), dtype=np.float64)
        self.i1 = np.empty((rows, num_lags), dtype=np.int64)
        self.i2 = np.empty((rows, num_lags), dtype=np.int64)
        self.b1 = np.empty((rows, num_lags), dtype=bool)
        self.b2 = np.empty((rows, num_lags), dtype=bool)



def _reference_block_scratch(rows: int, num_lags: int) -> _ReferenceBlockScratch:
    """Fetch (or grow) this thread's scratch pool for ``num_lags`` lags.

    The retained pool is bounded by roughly ``2 * _REFERENCE_MAX_BLOCK_CELLS`` cells
    per ``(thread, num_lags)`` pair: blocks forced larger than that by a
    single long segment get a one-off scratch that is not kept, so a
    long-lived process cannot accumulate unbounded buffers.
    """
    pools = getattr(_reference_block_scratch_tls, "pools", None)
    if pools is None:
        pools = {}
        _reference_block_scratch_tls.pools = pools
    scratch = pools.get(num_lags)
    if scratch is None or scratch.rows < rows:
        capacity = max(rows, 2 * scratch.rows) if scratch is not None else rows
        scratch = _ReferenceBlockScratch(capacity, num_lags)
        if capacity * num_lags <= 2 * _REFERENCE_MAX_BLOCK_CELLS:
            pools[num_lags] = scratch
    return scratch


def _reference_masked_segment_sums(values, mask: np.ndarray, scratch_rows: np.ndarray,
                         offsets: np.ndarray) -> np.ndarray:
    """``np.add.reduceat(np.where(mask, values, 0.0), offsets, axis=0)``
    without allocating the masked ``(T, L)`` temporary.

    Multiplying by the boolean mask zeroes the masked slots in one pass;
    the products differ from ``np.where`` only in the sign of masked zeros,
    which cannot change the segment sums' final values.
    """
    np.multiply(values, mask, out=scratch_rows)
    return np.add.reduceat(scratch_rows, offsets, axis=0)


def _reference_contiguous_acf_block(state, lens: np.ndarray,
                          positions: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """One vectorized block of :func:`reference_batched_contiguous_acf`.

    All ``(T, L)`` intermediates live in the thread-local scratch pool
    (:func:`_block_scratch`); the arithmetic — and therefore the result, bit
    for bit — matches the original allocation-per-call formulation.
    """
    sums = state.sums
    lags = state.lags
    counts = sums.counts
    current = state.current
    n = state.n
    num_segments = lens.size
    offsets = np.concatenate(([0], np.cumsum(lens[:-1])))

    total = positions.size
    scratch = _reference_block_scratch(total, lags.size)
    f1 = scratch.f1[:total]
    f2 = scratch.f2[:total]
    i1 = scratch.i1[:total]
    i2 = scratch.i2[:total]
    b1 = scratch.b1[:total]
    b2 = scratch.b2[:total]

    pos = positions[:, np.newaxis]                   # (T, 1)
    delta = deltas[:, np.newaxis]                    # (T, 1)
    np.add(pos, lags[np.newaxis, :], out=i1)         # pos + lag
    np.subtract(pos, lags[np.newaxis, :], out=i2)    # pos - lag
    head = np.less_equal(i1, n - 1, out=b1)          # (T, L)
    tail = np.greater_equal(i2, 0, out=b2)

    own = current[pos]
    square_term = delta * (2.0 * own + delta)

    d_sx = _reference_masked_segment_sums(delta, head, f1, offsets)
    d_sxl = _reference_masked_segment_sums(delta, tail, f1, offsets)
    d_sx2 = _reference_masked_segment_sums(square_term, head, f1, offsets)
    d_sx2l = _reference_masked_segment_sums(square_term, tail, f1, offsets)

    # Indices are pre-clipped into range, so mode="clip" is semantically a
    # no-op; it lets np.take skip the slow bounds-checked buffered path.
    right_idx = np.minimum(i1, n - 1, out=i1)
    left_idx = np.maximum(i2, 0, out=i2)
    np.take(current, right_idx, out=f2, mode="clip")
    np.multiply(delta, f2, out=f2)                   # delta * current[right]
    d_head = _reference_masked_segment_sums(f2, head, f1, offsets)
    np.take(current, left_idx, out=f2, mode="clip")
    np.multiply(delta, f2, out=f2)                   # delta * current[left]
    d_tail = _reference_masked_segment_sums(f2, tail, f1, offsets)

    new_sx = sums.sx + d_sx
    new_sxl = sums.sxl + d_sxl
    new_sx2 = sums.sx2 + d_sx2
    new_sx2l = sums.sx2l + d_sx2l
    # Summed in the same association order as the single-change kernel so
    # single-position segments stay bit-identical to it.
    new_sxxl = (sums.sxxl + d_head) + d_tail

    # Cross terms delta_p * delta_{p+l} for pairs inside the same segment.
    # Positions within a segment are consecutive, so lag-l pairs are exactly
    # the concatenated entries at distance l that share a segment; one
    # (T, L) partner gather + segment-reduce covers every lag at once.
    max_len = int(lens.max())
    if max_len > 1:
        segment_ids = np.repeat(np.arange(num_segments, dtype=np.int64), lens)
        num_cross_lags = min(max_len - 1, lags.size)
        if num_cross_lags <= 8:
            # Few lags carry cross terms: a short per-lag bincount beats
            # materialising the full (T, L) pair matrix.
            cross = np.zeros((num_segments, lags.size), dtype=np.float64)
            for lag_index in range(num_cross_lags):
                shift = lag_index + 1
                same = segment_ids[shift:] == segment_ids[:-shift]
                products = deltas[shift:] * deltas[:-shift]
                cross[:, lag_index] = np.bincount(
                    segment_ids[shift:][same], weights=products[same],
                    minlength=num_segments)
            new_sxxl = new_sxxl + cross
        else:
            partner = np.add(np.arange(total, dtype=np.int64)[:, np.newaxis],
                             lags[np.newaxis, :], out=i1)
            in_range = np.less(partner, total, out=b1)
            np.minimum(partner, total - 1, out=partner)
            np.take(segment_ids, partner, out=i2, mode="clip")
            pair = np.equal(i2, segment_ids[:, np.newaxis], out=b2)
            np.logical_and(pair, in_range, out=pair)
            np.take(deltas, partner, out=f2, mode="clip")
            np.multiply(deltas[:, np.newaxis], f2, out=f2)
            new_sxxl = new_sxxl + _reference_masked_segment_sums(f2, pair, f1, offsets)

    numerator = counts * new_sxxl - new_sx * new_sxl
    var_head = counts * new_sx2 - new_sx * new_sx
    var_tail = counts * new_sx2l - new_sxl * new_sxl
    acf_new = np.zeros_like(numerator)
    valid = (var_head > 0.0) & (var_tail > 0.0)
    denom = np.sqrt(np.where(valid, var_head * var_tail, 1.0))
    np.divide(numerator, denom, out=acf_new, where=valid)
    return acf_new


