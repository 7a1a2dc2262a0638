"""Indexed binary min-heap with bulk-update and multi-pop support.

CAMEO keeps every removable point in a priority queue ordered by its impact
on the tracked statistic and needs to *update* a point's priority whenever a
neighbour is removed (the ``ReHeap`` operation of Algorithm 1).  A plain
``heapq`` cannot update entries in place, so this module provides an indexed
heap where items are integers ``0..capacity-1`` and every operation that
moves an entry keeps an item→slot map in sync.

Storage is deliberately hybrid:

* keys and items live in Python lists — the sift loops execute a handful of
  scalar reads/compares per level, and on ndarrays every one of those
  boxes a NumPy scalar (measured at 2-3x the whole list-based sift cost);
* the item→slot map is **also** maintained as an ``int64`` ndarray, which
  makes the bulk queries one gather each: :meth:`IndexedMinHeap.
  contains_mask` (the ReHeap's in-heap filter) and the present/absent
  split inside :meth:`~IndexedMinHeap.update_many`.

``update_many`` batches its housekeeping (validation, the present/absent
partition) vectorized, then picks the cheapest sound repair: when the batch
covers a large fraction of the heap it commits every key and rebuilds by
argsort — a key-sorted slot array is a valid heap, since every parent index
precedes its children — instead of sifting per item; small batches run the
per-item sequential updates whose correctness is unconditional.  (A
concurrent "grouped sift rounds" repair of arbitrary slot sets was
prototyped for this PR and brute-forced to destruction: simultaneous
sift-downs consult stale co-dirty keys and mis-route, so only provably
disjoint or sequential repairs survive here.)

``pop_many``/``peek_many`` serve the compressor's speculative multi-pop:
``peek_many`` walks the top of the heap non-destructively (one small
``heapq`` frontier over slots) to find the ``k`` cheapest entries in pop
order without touching the layout, and ``pop_many`` extracts them.

The pre-bulk list-based heap is preserved verbatim as
:class:`repro._kernels.reference.ReferenceIndexedMinHeap`; property tests
cross-check every operation against it, and the perf harness measures the
bulk speedups against it in the same process.

Error contract shared by scalar and bulk mutations: duplicate items in one
``update_many``/``push_many`` call raise ``ValueError`` (a duplicate would
make the outcome order-dependent); ``update``/``update_many`` on an absent
item pushes it (push-or-update); ``push``/``push_many`` on a present item
raises ``ValueError``.
"""

from __future__ import annotations

import heapq

import numpy as np

from .._kernels import get_native as _get_native

__all__ = ["IndexedMinHeap", "NativeIndexedMinHeap", "make_heap"]

_ABSENT = -1

#: ``update_many`` switches from per-item sifts to the argsort rebuild when
#: the present batch covers at least ``1/_REBUILD_FRACTION`` of the heap.
_REBUILD_FRACTION = 8


class IndexedMinHeap:
    """Min-heap over integer items with updatable priorities.

    Parameters
    ----------
    capacity:
        Items are integers in ``[0, capacity)``.  Each item can be present at
        most once.

    Notes
    -----
    The bulk rebuild inside :meth:`update_many` guarantees the same final
    *contents* — the same (item, key) multiset and a valid heap — as the
    per-item sequence, but may lay the slots out differently.  Pop order is
    identical whenever keys are distinct; exact ties may then resolve in a
    different (still valid) order.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = int(capacity)
        self._keys: list[float] = []
        self._items: list[int] = []
        self._slot_of = np.full(self._capacity, _ABSENT, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: int) -> bool:
        return 0 <= item < self._capacity and self._slot_of[item] != _ABSENT

    def contains_mask(self, items) -> np.ndarray:
        """Vectorized membership: boolean mask of which ``items`` are present.

        ``items`` must be in ``[0, capacity)``; the query is one gather on
        the item→slot array.
        """
        items = np.asarray(items, dtype=np.int64)
        return self._slot_of[items] != _ABSENT

    def __bool__(self) -> bool:
        return bool(self._items)

    @property
    def capacity(self) -> int:
        """Maximum number of distinct items."""
        return self._capacity

    def key_of(self, item: int) -> float:
        """Current priority of ``item`` (raises ``KeyError`` if absent)."""
        slot = int(self._slot_of[item])
        if slot == _ABSENT:
            raise KeyError(f"item {item} is not in the heap")
        return self._keys[slot]

    def peek(self) -> tuple[int, float]:
        """Return ``(item, key)`` of the minimum without removing it."""
        if not self._items:
            raise IndexError("peek on an empty heap")
        return self._items[0], self._keys[0]

    def peek_many(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` cheapest ``(items, keys)`` in pop order, without removal.

        A non-destructive frontier walk: starting from the root, each step
        yields the cheapest frontier slot and adds its children.  With
        distinct keys the returned order is exactly what ``k`` successive
        :meth:`pop` calls would produce; ties resolve by heap traversal
        order.  Feeds the compressor's speculative multi-pop previews.
        """
        k = min(int(k), len(self._items))
        out_items = np.empty(k, dtype=np.int64)
        out_keys = np.empty(k, dtype=np.float64)
        if k == 0:
            return out_items, out_keys
        keys = self._keys
        items = self._items
        size = len(items)
        frontier: list[tuple[float, int]] = [(keys[0], 0)]
        for index in range(k):
            key, slot = heapq.heappop(frontier)
            out_items[index] = items[slot]
            out_keys[index] = key
            left = 2 * slot + 1
            if left < size:
                heapq.heappush(frontier, (keys[left], left))
                right = left + 1
                if right < size:
                    heapq.heappush(frontier, (keys[right], right))
        return out_items, out_keys

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def heapify(self, items, keys) -> None:
        """Bulk-load ``items`` with ``keys`` using Floyd's method (O(n)).

        Discards any previous content.
        """
        items = np.asarray(items, dtype=np.int64)
        keys = np.asarray(keys, dtype=np.float64)
        if items.shape != keys.shape or items.ndim != 1:
            raise ValueError("items and keys must be 1-D arrays of equal length")
        if items.size > self._capacity:
            raise ValueError("more items than heap capacity")
        if items.size and (items.min() < 0 or items.max() >= self._capacity):
            raise ValueError("items out of range")
        ordered = np.sort(items)
        if items.size > 1 and bool((ordered[1:] == ordered[:-1]).any()):
            raise ValueError("items must be unique")
        self._items = items.tolist()
        self._keys = keys.tolist()
        self._slot_of.fill(_ABSENT)
        self._slot_of[items] = np.arange(items.size, dtype=np.int64)
        for slot in range(len(self._items) // 2 - 1, -1, -1):
            self._sift_down(slot)

    # ------------------------------------------------------------------ #
    # scalar mutation
    # ------------------------------------------------------------------ #
    def push(self, item: int, key: float) -> None:
        """Insert ``item`` with priority ``key`` (item must be absent)."""
        item = int(item)
        if not 0 <= item < self._capacity:
            raise ValueError(f"item {item} out of range [0, {self._capacity})")
        if self._slot_of[item] != _ABSENT:
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

    def pop_many(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Remove and return the ``k`` cheapest ``(items, keys)`` in pop order.

        Exactly equivalent to ``k`` successive :meth:`pop` calls — ties
        included.  Feeds the compressor's skip-mode batch drain; for a
        non-destructive look at the upcoming pops use :meth:`peek_many`.
        """
        k = min(int(k), len(self._items))
        out_items = np.empty(k, dtype=np.int64)
        out_keys = np.empty(k, dtype=np.float64)
        items = self._items
        keys = self._keys
        for index in range(k):
            out_items[index] = items[0]
            out_keys[index] = keys[0]
            self._remove_slot(0)
        return out_items, out_keys

    def remove(self, item: int) -> None:
        """Remove ``item`` from the heap (no-op if absent)."""
        slot = int(self._slot_of[item])
        if slot == _ABSENT:
            return
        self._remove_slot(slot)

    def update(self, item: int, key: float) -> None:
        """Change the priority of ``item`` (inserting it if absent)."""
        slot = int(self._slot_of[item])
        if slot == _ABSENT:
            self.push(item, key)
            return
        key = float(key)
        old = self._keys[slot]
        self._keys[slot] = key
        if key < old:
            self._sift_up(slot)
        elif key > old:
            self._sift_down(slot)

    # ------------------------------------------------------------------ #
    # bulk mutation
    # ------------------------------------------------------------------ #
    def update_many(self, items, keys) -> None:
        """Change the priorities of many items in one call (push if absent).

        Produces the same heap contents as ``update(item, key)`` per pair:
        present items take the new key, absent items are pushed.  Duplicate
        items in one call raise ``ValueError``.  Validation and the
        present/absent split are vectorized; the repair is the argsort
        rebuild for heap-scale batches and per-item sequential sifts (with
        the per-call dispatch hoisted out) otherwise.
        """
        items = np.asarray(items, dtype=np.int64)
        key_values = np.asarray(keys, dtype=np.float64)
        if items.shape != key_values.shape or items.ndim != 1:
            raise ValueError("items and keys must be 1-D arrays of equal length")
        if items.size == 0:
            return
        if items.min() < 0 or items.max() >= self._capacity:
            raise ValueError("items out of range")
        ordered = np.sort(items)
        if items.size > 1 and bool((ordered[1:] == ordered[:-1]).any()):
            raise ValueError("duplicate items in update_many")
        slots = self._slot_of[items]
        present = slots != _ABSENT
        present_count = int(present.sum())
        size = len(self._items)
        if present_count and present_count * _REBUILD_FRACTION >= size:
            # Heap-scale batch: write every key and rebuild by sorting — a
            # key-sorted slot array is a valid heap (parent indices precede
            # child indices), and one argsort beats per-item sifts here.
            all_keys = np.asarray(self._keys, dtype=np.float64)
            all_keys[slots[present]] = key_values[present]
            order = np.argsort(all_keys, kind="stable")
            sorted_items = np.asarray(self._items, dtype=np.int64)[order]
            self._keys = all_keys[order].tolist()
            self._items = sorted_items.tolist()
            self._slot_of[sorted_items] = np.arange(size, dtype=np.int64)
        elif present_count:
            heap_keys = self._keys
            slot_of = self._slot_of
            # Re-resolve each slot inside the loop: an earlier sift in this
            # same batch may have moved a later item.
            for item, key in zip(items[present].tolist(),
                                 key_values[present].tolist()):
                slot = int(slot_of[item])
                old = heap_keys[slot]
                heap_keys[slot] = key
                if key < old:
                    self._sift_up(slot)
                elif key > old:
                    self._sift_down(slot)
        if present_count < items.size:
            absent = ~present
            for item, key in zip(items[absent].tolist(),
                                 key_values[absent].tolist()):
                self.push(item, key)

    def push_many(self, items, keys) -> None:
        """Insert many absent items in one call.

        Same contract as :meth:`push` per pair; every item must be absent
        and unique within the call.  Used by the compressor to re-queue the
        unconsumed remainder of a speculative batch in one go.
        """
        items = np.asarray(items, dtype=np.int64)
        key_values = np.asarray(keys, dtype=np.float64)
        if items.shape != key_values.shape or items.ndim != 1:
            raise ValueError("items and keys must be 1-D arrays of equal length")
        if items.size == 0:
            return
        if items.min() < 0 or items.max() >= self._capacity:
            raise ValueError("items out of range")
        ordered = np.sort(items)
        if items.size > 1 and bool((ordered[1:] == ordered[:-1]).any()):
            raise ValueError("duplicate items in push_many")
        if bool((self._slot_of[items] != _ABSENT).any()):
            raise ValueError("push_many items must be absent; use update_many()")
        for item, key in zip(items.tolist(), key_values.tolist()):
            slot = len(self._items)
            self._items.append(item)
            self._keys.append(key)
            self._slot_of[item] = slot
            self._sift_up(slot)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _remove_slot(self, slot: int) -> None:
        items = self._items
        keys = self._keys
        last = len(items) - 1
        self._slot_of[items[slot]] = _ABSENT
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

    def keys(self) -> np.ndarray:
        """Keys aligned with :meth:`items` (arbitrary order, copy)."""
        return np.asarray(self._keys, dtype=np.float64)

    def check_invariants(self) -> bool:
        """Verify the heap property and the item→slot map (tests only)."""
        size = len(self._items)
        for slot in range(1, size):
            parent = (slot - 1) // 2
            if self._keys[parent] > self._keys[slot]:
                return False
        for slot in range(size):
            if self._slot_of[self._items[slot]] != slot:
                return False
        return int((self._slot_of != _ABSENT).sum()) == size


class NativeIndexedMinHeap:
    """:class:`IndexedMinHeap` on flat arrays with the sifts compiled.

    Same API, same error contract, and — by construction — the same slot
    layout after every operation: the C sift/remove/heapify loops are
    direct transcriptions of the list-based algorithms above, so pop order
    (ties included) is identical.  Storage is three preallocated arrays
    (``keys`` float64, ``items`` int64, ``slot_of`` int64) handed to the
    compiled primitives together with the logical size; the one repair that
    stays in NumPy is ``update_many``'s argsort rebuild, which was already
    vectorized and operates directly on the array views here.

    Instantiate via :func:`make_heap`, which falls back to
    :class:`IndexedMinHeap` when the native tier is unavailable/disabled.
    """

    def __init__(self, capacity: int, _native=None):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._native = _native if _native is not None else _get_native()
        if self._native is None:
            raise RuntimeError("native kernel tier is not active")
        self._capacity = int(capacity)
        self._hkeys = np.empty(self._capacity, dtype=np.float64)
        self._hitems = np.empty(self._capacity, dtype=np.int64)
        self._slot_of = np.full(self._capacity, _ABSENT, dtype=np.int64)
        self._size = 0

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._size

    def __contains__(self, item: int) -> bool:
        return 0 <= item < self._capacity and self._slot_of[item] != _ABSENT

    def contains_mask(self, items) -> np.ndarray:
        """Vectorized membership: boolean mask of which ``items`` are present."""
        items = np.asarray(items, dtype=np.int64)
        return self._slot_of[items] != _ABSENT

    def __bool__(self) -> bool:
        return self._size > 0

    @property
    def capacity(self) -> int:
        """Maximum number of distinct items."""
        return self._capacity

    def key_of(self, item: int) -> float:
        """Current priority of ``item`` (raises ``KeyError`` if absent)."""
        slot = int(self._slot_of[item])
        if slot == _ABSENT:
            raise KeyError(f"item {item} is not in the heap")
        return float(self._hkeys[slot])

    def peek(self) -> tuple[int, float]:
        """Return ``(item, key)`` of the minimum without removing it."""
        if self._size == 0:
            raise IndexError("peek on an empty heap")
        return int(self._hitems[0]), float(self._hkeys[0])

    def storage(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """The live ``(keys, items, slot_of)`` arrays and the logical size.

        For compiled callers that work on the arrays in place
        (``native.reheap`` re-keys, ``native.run_loop`` also pops — see
        :meth:`resize`); everything else goes through the methods.
        """
        return self._hkeys, self._hitems, self._slot_of, self._size

    def resize(self, size: int) -> None:
        """Adopt the logical size a compiled caller that popped in place
        (``native.run_loop``) left the storage arrays at."""
        self._size = int(size)

    def peek_many(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` cheapest ``(items, keys)`` in pop order, without removal."""
        k = min(int(k), self._size)
        out_items = np.empty(k, dtype=np.int64)
        out_keys = np.empty(k, dtype=np.float64)
        if k:
            self._native.heap_peek_many(self._hkeys, self._hitems,
                                        self._size, k, out_items, out_keys)
        return out_items, out_keys

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
        ordered = np.sort(items)
        if items.size > 1 and bool((ordered[1:] == ordered[:-1]).any()):
            raise ValueError("items must be unique")
        self._hitems[:items.size] = items
        self._hkeys[:keys.size] = keys
        self._slot_of.fill(_ABSENT)
        self._slot_of[items] = np.arange(items.size, dtype=np.int64)
        self._size = items.size
        self._native.heap_heapify(self._hkeys, self._hitems, self._slot_of,
                                  self._size)

    # ------------------------------------------------------------------ #
    # scalar mutation
    # ------------------------------------------------------------------ #
    def push(self, item: int, key: float) -> None:
        """Insert ``item`` with priority ``key`` (item must be absent)."""
        self._size = self._native.heap_push(
            self._hkeys, self._hitems, self._slot_of, self._size,
            int(item), float(key))

    def pop(self) -> tuple[int, float]:
        """Remove and return ``(item, key)`` with the smallest key."""
        item, key, self._size = self._native.heap_pop(
            self._hkeys, self._hitems, self._slot_of, self._size)
        return item, key

    def pop_many(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Remove and return the ``k`` cheapest ``(items, keys)`` in pop order."""
        k = min(int(k), self._size)
        out_items = np.empty(k, dtype=np.int64)
        out_keys = np.empty(k, dtype=np.float64)
        if k:
            self._size = self._native.heap_pop_many(
                self._hkeys, self._hitems, self._slot_of, self._size, k,
                out_items, out_keys)
        return out_items, out_keys

    def remove(self, item: int) -> None:
        """Remove ``item`` from the heap (no-op if absent)."""
        self._size = self._native.heap_remove(
            self._hkeys, self._hitems, self._slot_of, self._size, int(item))

    def update(self, item: int, key: float) -> None:
        """Change the priority of ``item`` (inserting it if absent)."""
        self._size = self._native.heap_update(
            self._hkeys, self._hitems, self._slot_of, self._size,
            int(item), float(key))

    # ------------------------------------------------------------------ #
    # bulk mutation
    # ------------------------------------------------------------------ #
    def update_many(self, items, keys) -> None:
        """Change the priorities of many items in one call (push if absent)."""
        items = np.asarray(items, dtype=np.int64)
        key_values = np.asarray(keys, dtype=np.float64)
        if items.shape != key_values.shape or items.ndim != 1:
            raise ValueError("items and keys must be 1-D arrays of equal length")
        if items.size == 0:
            return
        if items.min() < 0 or items.max() >= self._capacity:
            raise ValueError("items out of range")
        ordered = np.sort(items)
        if items.size > 1 and bool((ordered[1:] == ordered[:-1]).any()):
            raise ValueError("duplicate items in update_many")
        slots = self._slot_of[items]
        present = slots != _ABSENT
        present_count = int(present.sum())
        size = self._size
        if present_count and present_count * _REBUILD_FRACTION >= size:
            # Same argsort rebuild as the hybrid heap, minus the
            # list<->array conversions: write the new keys in place and
            # re-lay the live prefix in stable key order.
            all_keys = self._hkeys[:size]
            all_keys[slots[present]] = key_values[present]
            order = np.argsort(all_keys, kind="stable")
            sorted_items = self._hitems[:size][order]
            self._hkeys[:size] = all_keys[order]
            self._hitems[:size] = sorted_items
            self._slot_of[sorted_items] = np.arange(size, dtype=np.int64)
        elif present_count:
            self._native.heap_update_present(
                self._hkeys, self._hitems, self._slot_of, size,
                np.ascontiguousarray(items[present]),
                np.ascontiguousarray(key_values[present]))
        if present_count < items.size:
            absent = ~present
            self._size = self._native.heap_push_many(
                self._hkeys, self._hitems, self._slot_of, self._size,
                np.ascontiguousarray(items[absent]),
                np.ascontiguousarray(key_values[absent]))

    def push_many(self, items, keys) -> None:
        """Insert many absent items in one call (same contract as push)."""
        items = np.asarray(items, dtype=np.int64)
        key_values = np.asarray(keys, dtype=np.float64)
        if items.shape != key_values.shape or items.ndim != 1:
            raise ValueError("items and keys must be 1-D arrays of equal length")
        if items.size == 0:
            return
        if items.min() < 0 or items.max() >= self._capacity:
            raise ValueError("items out of range")
        ordered = np.sort(items)
        if items.size > 1 and bool((ordered[1:] == ordered[:-1]).any()):
            raise ValueError("duplicate items in push_many")
        if bool((self._slot_of[items] != _ABSENT).any()):
            raise ValueError("push_many items must be absent; use update_many()")
        self._size = self._native.heap_push_many(
            self._hkeys, self._hitems, self._slot_of, self._size,
            np.ascontiguousarray(items), np.ascontiguousarray(key_values))

    # ------------------------------------------------------------------ #
    # debugging / testing aids
    # ------------------------------------------------------------------ #
    def items(self) -> np.ndarray:
        """Items currently in the heap (arbitrary order, copy)."""
        return self._hitems[:self._size].copy()

    def keys(self) -> np.ndarray:
        """Keys aligned with :meth:`items` (arbitrary order, copy)."""
        return self._hkeys[:self._size].copy()

    def check_invariants(self) -> bool:
        """Verify the heap property and the item→slot map (tests only)."""
        size = self._size
        for slot in range(1, size):
            parent = (slot - 1) // 2
            if self._hkeys[parent] > self._hkeys[slot]:
                return False
        for slot in range(size):
            if self._slot_of[self._hitems[slot]] != slot:
                return False
        return int((self._slot_of != _ABSENT).sum()) == size


def make_heap(capacity: int) -> "IndexedMinHeap | NativeIndexedMinHeap":
    """The fastest available heap: native tier when active, hybrid otherwise.

    Both classes produce identical slot layouts and pop orders (ties
    included), so callers may switch tiers between runs without changing
    results.
    """
    native = _get_native()
    if native is not None:
        return NativeIndexedMinHeap(capacity, native)
    return IndexedMinHeap(capacity)
