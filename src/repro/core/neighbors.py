"""Doubly-linked neighbour structure over the surviving points.

CAMEO repeatedly needs, for a surviving point ``i``, its nearest surviving
neighbours to the left and right (to interpolate across the gap) and the set
of surviving points within ``h`` hops (the blocking neighbourhood whose
impacts are refreshed after a removal).  Storing ``left``/``right`` pointer
arrays gives O(1) removal and O(h) neighbourhood collection, exactly as
described in Section 4.3 of the paper.

The pointer chase itself left the hot path in the speculative-batch PR:
:meth:`NeighborList.hops_array` resolves the ``h`` nearest survivors per
side with one ``flatnonzero`` gather over a window of the alive mask
(grown geometrically until it covers ``h`` survivors) instead of ``2h``
sequential Python pointer dereferences, and :meth:`NeighborList.hops_batch`
amortizes one survivor scan across a whole batch of indices.  The scalar
:meth:`NeighborList.hops` walk is retained as the reference the property
tests cross-check both against.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NeighborList"]


class NeighborList:
    """Pointer-array doubly linked list over indices ``0..n-1``."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("a neighbour list needs at least two points")
        self._n = int(n)
        self._left = np.arange(-1, n - 1, dtype=np.int64)
        self._right = np.arange(1, n + 1, dtype=np.int64)
        self._right[-1] = n  # sentinel one past the end
        self._alive = np.ones(n, dtype=bool)
        self._alive_count = n

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Total number of original positions."""
        return self._n

    def alive_count(self) -> int:
        """Number of surviving points."""
        return self._alive_count

    def is_alive(self, index: int) -> bool:
        """Whether position ``index`` still survives."""
        return bool(self._alive[index])

    def left_of(self, index: int) -> int:
        """Nearest surviving position to the left (-1 when none)."""
        return int(self._left[index])

    def right_of(self, index: int) -> int:
        """Nearest surviving position to the right (``n`` when none)."""
        return int(self._right[index])

    def alive_indices(self) -> np.ndarray:
        """Sorted array of surviving positions."""
        return np.flatnonzero(self._alive)

    def alive_mask(self) -> np.ndarray:
        """Boolean survival mask (copy)."""
        return self._alive.copy()

    def pointer_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The live ``(left, right, alive)`` arrays, for compiled callers
        that chase the pointers themselves: ``native.reheap`` only reads
        them, ``native.run_loop`` also unlinks the points it removes and
        reports how many through :meth:`note_removed`."""
        return self._left, self._right, self._alive

    def note_removed(self, count: int) -> None:
        """Account for ``count`` points a compiled caller unlinked in place."""
        self._alive_count -= int(count)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def remove(self, index: int) -> tuple[int, int]:
        """Remove ``index`` and return its former ``(left, right)`` neighbours.

        The first and last positions cannot be removed (they anchor the
        interpolation), mirroring the compressor's contract.
        """
        index = int(index)
        if index <= 0 or index >= self._n - 1:
            raise ValueError("the first and last points cannot be removed")
        if not self._alive[index]:
            raise ValueError(f"position {index} was already removed")
        left = int(self._left[index])
        right = int(self._right[index])
        self._right[left] = right
        if right < self._n:
            self._left[right] = left
        self._alive[index] = False
        self._alive_count -= 1
        return left, right

    # ------------------------------------------------------------------ #
    # neighbourhood collection (blocking)
    # ------------------------------------------------------------------ #
    def hops(self, index: int, h: int, *, include_endpoints: bool = False) -> list[int]:
        """Surviving points within ``h`` hops left and right of ``index``.

        ``index`` itself is *not* included (it is typically the point that
        was just removed).  The first and last positions are excluded unless
        ``include_endpoints`` is set, because their impact is pinned to
        infinity anyway.
        """
        result: list[int] = []
        # Start from the surviving anchors bracketing ``index`` (robust even
        # when the point's own stale pointers reference other removed points).
        left_anchor, right_anchor = self.gap(index)
        cursor = left_anchor
        steps = 0
        while cursor >= 0 and steps < h:
            if include_endpoints or 0 < cursor < self._n - 1:
                result.append(cursor)
            cursor = self.left_of(cursor)
            steps += 1
        cursor = right_anchor
        steps = 0
        while cursor < self._n and steps < h:
            if include_endpoints or 0 < cursor < self._n - 1:
                result.append(cursor)
            cursor = self.right_of(cursor)
            steps += 1
        return result

    def _window_hint(self, h: int) -> int:
        """Initial alive-mask window expected to cover ``h`` survivors."""
        density_window = (h * self._n) // max(self._alive_count, 1)
        return max(2 * h, density_window + (density_window >> 2)) + 2

    def _survivors_left(self, anchor: int, h: int) -> np.ndarray:
        """Up to ``h`` alive positions ``<= anchor``, nearest (largest) first."""
        if anchor < 0 or h <= 0:
            return np.empty(0, dtype=np.int64)
        alive = self._alive
        window = self._window_hint(h)
        while True:
            lo = max(0, anchor + 1 - window)
            found = np.flatnonzero(alive[lo:anchor + 1])
            if found.size >= h or lo == 0:
                break
            window *= 2
        if lo:
            found += lo
        return found[:-h - 1:-1] if found.size > h else found[::-1]

    def _survivors_right(self, anchor: int, h: int) -> np.ndarray:
        """Up to ``h`` alive positions ``>= anchor``, nearest (smallest) first."""
        n = self._n
        if anchor >= n or h <= 0:
            return np.empty(0, dtype=np.int64)
        alive = self._alive
        window = self._window_hint(h)
        while True:
            hi = min(n, anchor + window)
            found = np.flatnonzero(alive[anchor:hi])
            if found.size >= h or hi == n:
                break
            window *= 2
        if anchor:
            found += anchor
        return found[:h]

    def hops_array(self, index: int, h: int, *, include_endpoints: bool = False
                   ) -> np.ndarray:
        """Like :meth:`hops` but resolved with array gathers.

        Instead of chasing ``2h`` pointers one Python dereference at a time,
        each side's survivors are read off the alive mask with a single
        ``flatnonzero`` over a window sized from the current survivor
        density (grown geometrically on a miss).  Output order and content
        match :meth:`hops` exactly: the ``h`` nearest survivors left of the
        gap (nearest first), then the ``h`` nearest to the right.
        """
        left_anchor, right_anchor = self.gap(index)
        lefts = self._survivors_left(left_anchor, h)
        rights = self._survivors_right(right_anchor, h)
        result = np.concatenate((lefts, rights))
        if not include_endpoints:
            last = self._n - 1
            result = result[(result > 0) & (result < last)]
        return result

    def hops_batch(self, indices, h: int, *, include_endpoints: bool = False
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Blocking neighbourhoods of a whole batch in one gather pass.

        Returns ``(offsets, flat)`` where ``flat[offsets[i]:offsets[i+1]]``
        is :meth:`hops_array` of ``indices[i]``.  One ``flatnonzero`` scan
        of the alive mask is shared by the entire batch — each index's
        neighbourhood is then two ``searchsorted`` slices of the survivor
        array — so the per-index Python cost is O(1) array slicing instead
        of a pointer chase.
        """
        indices = np.asarray(indices, dtype=np.int64)
        offsets = np.zeros(indices.size + 1, dtype=np.int64)
        if indices.size == 0:
            return offsets, np.empty(0, dtype=np.int64)
        survivors = np.flatnonzero(self._alive)
        last = self._n - 1
        pieces: list[np.ndarray] = []
        for position, index in enumerate(indices.tolist()):
            left_anchor, right_anchor = self.gap(index)
            # Survivors <= left_anchor, nearest first.
            stop = int(np.searchsorted(survivors, left_anchor, side="right"))
            lefts = survivors[max(0, stop - h):stop][::-1]
            # Survivors >= right_anchor, nearest first.
            start = int(np.searchsorted(survivors, right_anchor, side="left"))
            rights = survivors[start:start + h]
            piece = np.concatenate((lefts, rights))
            if not include_endpoints:
                piece = piece[(piece > 0) & (piece < last)]
            pieces.append(piece)
            offsets[position + 1] = offsets[position] + piece.size
        flat = (np.concatenate(pieces) if pieces
                else np.empty(0, dtype=np.int64))
        return offsets, flat

    def gaps_of(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized neighbour lookup for *surviving* positions.

        Returns ``(lefts, rights)`` pointer arrays; valid only for alive
        indices (removed positions have stale pointers — use :meth:`gap`).
        """
        indices = np.asarray(indices, dtype=np.int64)
        return self._left[indices], self._right[indices]

    def gap(self, index: int) -> tuple[int, int]:
        """Surviving segment ``(left, right)`` that brackets position ``index``.

        For a surviving point these are its direct neighbours; for a removed
        point the surviving anchors of the segment it currently lies in.
        """
        if self._alive[index]:
            return self.left_of(index), self.right_of(index)
        left = index
        while left >= 0 and not self._alive[left]:
            left = int(self._left[left])
        right = index
        while right < self._n and not self._alive[right]:
            right = int(self._right[right])
        return int(left), int(right)
