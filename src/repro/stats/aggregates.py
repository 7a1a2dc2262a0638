"""Incremental ACF maintenance through basic aggregates (paper Section 4.2).

The lagged-Pearson ACF (Equation 2) for lag ``l`` only depends on five sums
over the series (Equation 7):

==========  ==================================================
``sx``      ``sum_{t=0}^{n-l-1} x_t``          (head sum)
``sxl``     ``sum_{t=l}^{n-1}   x_t``          (tail sum)
``sx2``     ``sum_{t=0}^{n-l-1} x_t^2``        (head sum of squares)
``sx2l``    ``sum_{t=l}^{n-1}   x_t^2``        (tail sum of squares)
``sxxl``    ``sum_{t=0}^{n-l-1} x_t x_{t+l}``  (lagged dot product)
==========  ==================================================

:class:`ACFAggregateState` stores these sums for every lag ``1..L`` together
with the *current reconstructed series* and updates them in ``O(L)`` per
changed value (Equation 8) or ``O(mL)`` for a batch of ``m`` changed values
(Equation 9).  Batches are applied sequentially, which makes the cross terms
``delta_k * delta_{k+l}`` of Equation 9 fall out exactly without special
casing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .._kernels.lagdot import lagged_dot_deltas
from .._validation import as_float_array, check_lag
from .acf import acf_from_sums
from .pacf import pacf_from_acf

__all__ = ["LagSums", "ACFAggregateState"]


@dataclass
class LagSums:
    """The five per-lag aggregate vectors (each of shape ``(L,)``)."""

    counts: np.ndarray
    sx: np.ndarray
    sxl: np.ndarray
    sx2: np.ndarray
    sx2l: np.ndarray
    sxxl: np.ndarray

    def copy(self) -> "LagSums":
        """Deep copy of all aggregate vectors."""
        return LagSums(
            counts=self.counts.copy(),
            sx=self.sx.copy(),
            sxl=self.sxl.copy(),
            sx2=self.sx2.copy(),
            sx2l=self.sx2l.copy(),
            sxxl=self.sxxl.copy(),
        )


class ACFAggregateState:
    """Incrementally maintained ACF of a (reconstructed) time series.

    Parameters
    ----------
    values:
        The series whose ACF should be tracked.  A private copy is kept as
        the *current* reconstruction; every applied change mutates it.
    max_lag:
        Number of lags ``L`` of the tracked ACF.

    Notes
    -----
    The class is the work-horse behind CAMEO's ``ExtractAggregates``,
    ``Update`` and ``GetACF`` primitives (Algorithm 1).  It deliberately
    knows nothing about compression: it only answers "what is the ACF of the
    current series?" and "what would it be if these positions changed by
    these deltas?".
    """

    def __init__(self, values, max_lag: int):
        values = as_float_array(values)
        self._n = values.size
        self._max_lag = check_lag(max_lag, self._n)
        self._adopt_storage(np.zeros(self._n + 2 * self._max_lag), values)
        self._lags = np.arange(1, self._max_lag + 1, dtype=np.int64)
        self._sums = self._build_sums(self._current, self._lags)
        self._preview_scratch = threading.local()

    def _adopt_storage(self, padded: np.ndarray, values: np.ndarray) -> None:
        """Keep the current series in ``padded``: ``L`` zeros, the ``n``
        values, ``L`` zeros (C-contiguous float64, zeros already in place).

        The zero margins are what lets the ``sxxl`` update
        (:mod:`repro._kernels.lagdot`) read every lag window of a changed
        range as one strided view: a lag partner
        beyond either end of the series is a ``0.0`` factor.
        """
        if padded.shape != (self._n + 2 * self._max_lag,):
            raise ValueError("padded storage must hold n + 2 * max_lag values")
        self._padded = padded
        self._current = padded[self._max_lag:self._max_lag + self._n]
        self._current[:] = values

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _build_sums(values: np.ndarray, lags: np.ndarray) -> LagSums:
        n = values.size
        num_lags = lags.size
        counts = (n - lags).astype(np.float64)
        sx = np.empty(num_lags)
        sxl = np.empty(num_lags)
        sx2 = np.empty(num_lags)
        sx2l = np.empty(num_lags)
        sxxl = np.empty(num_lags)
        squares = values * values
        total = values.sum()
        total_sq = squares.sum()
        # Cumulative sums let each lag's head/tail sums be formed in O(1).
        prefix = np.concatenate(([0.0], np.cumsum(values)))
        prefix_sq = np.concatenate(([0.0], np.cumsum(squares)))
        for idx, lag in enumerate(lags):
            overlap = n - lag
            sx[idx] = prefix[overlap]
            sx2[idx] = prefix_sq[overlap]
            sxl[idx] = total - prefix[lag]
            sx2l[idx] = total_sq - prefix_sq[lag]
            sxxl[idx] = float(np.dot(values[:overlap], values[lag:]))
        return LagSums(counts, sx, sxl, sx2, sx2l, sxxl)

    # ------------------------------------------------------------------ #
    # read-only views
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Length of the tracked series."""
        return self._n

    @property
    def max_lag(self) -> int:
        """Number of tracked lags ``L``."""
        return self._max_lag

    @property
    def lags(self) -> np.ndarray:
        """Array of lags ``1..L`` (read-only view)."""
        return self._lags

    @property
    def current(self) -> np.ndarray:
        """Current reconstructed series (do not mutate directly)."""
        return self._current

    @property
    def sums(self) -> LagSums:
        """The per-lag aggregate vectors (live references)."""
        return self._sums

    def copy(self) -> "ACFAggregateState":
        """Independent deep copy of the state."""
        clone = object.__new__(ACFAggregateState)
        clone._n = self._n
        clone._max_lag = self._max_lag
        clone._adopt_storage(np.zeros_like(self._padded), self._current)
        clone._lags = self._lags
        clone._sums = self._sums.copy()
        clone._preview_scratch = threading.local()
        return clone

    # ------------------------------------------------------------------ #
    # ACF / PACF evaluation
    # ------------------------------------------------------------------ #
    def acf(self) -> np.ndarray:
        """ACF (lags ``1..L``) of the current reconstructed series."""
        return self._acf_from(self._sums)

    def pacf(self) -> np.ndarray:
        """PACF of the current reconstructed series.

        Runs the Durbin-Levinson recursion on :meth:`acf` through the
        batched kernel (:func:`repro._kernels.pacf.pacf_from_acf_batched`),
        so scalar evaluations and the compressor's batched ReHeap rows are
        bit-identical.
        """
        return pacf_from_acf(self.acf())

    @staticmethod
    def _acf_from(sums: LagSums) -> np.ndarray:
        counts = sums.counts
        numerator = counts * sums.sxxl - sums.sx * sums.sxl
        var_head = counts * sums.sx2 - sums.sx * sums.sx
        var_tail = counts * sums.sx2l - sums.sxl * sums.sxl
        out = np.zeros_like(numerator)
        valid = (var_head > 0.0) & (var_tail > 0.0)
        denom = np.sqrt(var_head[valid] * var_tail[valid])
        nonzero = denom != 0.0
        result = np.zeros(denom.size)
        result[nonzero] = numerator[valid][nonzero] / denom[nonzero]
        out[valid] = result
        return out

    # ------------------------------------------------------------------ #
    # single / batch updates (Equations 8 and 9)
    # ------------------------------------------------------------------ #
    def _lag_deltas(self, position: int, delta: float,
                    lookup_overrides: dict[int, float] | None) -> tuple[np.ndarray, ...]:
        """Per-lag aggregate deltas for changing ``position`` by ``delta``.

        ``lookup_overrides`` maps positions to values that supersede the
        stored current values (used while previewing a batch without
        mutating the state).
        """
        n = self._n
        lags = self._lags
        current = self._current

        def value_at(index: int) -> float:
            if lookup_overrides is not None and index in lookup_overrides:
                return lookup_overrides[index]
            return float(current[index])

        own = value_at(position)
        head_mask = position <= (n - 1) - lags
        tail_mask = position >= lags

        d_sx = np.where(head_mask, delta, 0.0)
        d_sxl = np.where(tail_mask, delta, 0.0)
        square_term = delta * (2.0 * own + delta)
        d_sx2 = np.where(head_mask, square_term, 0.0)
        d_sx2l = np.where(tail_mask, square_term, 0.0)

        d_sxxl = np.zeros(lags.size)
        if head_mask.any():
            right_idx = position + lags[head_mask]
            right_vals = current[right_idx].astype(np.float64, copy=True)
            if lookup_overrides:
                for offset, idx in enumerate(right_idx):
                    if int(idx) in lookup_overrides:
                        right_vals[offset] = lookup_overrides[int(idx)]
            d_sxxl[head_mask] += delta * right_vals
        if tail_mask.any():
            left_idx = position - lags[tail_mask]
            left_vals = current[left_idx].astype(np.float64, copy=True)
            if lookup_overrides:
                for offset, idx in enumerate(left_idx):
                    if int(idx) in lookup_overrides:
                        left_vals[offset] = lookup_overrides[int(idx)]
            d_sxxl[tail_mask] += delta * left_vals
        return d_sx, d_sxl, d_sx2, d_sx2l, d_sxxl

    def apply_changes(self, positions, deltas) -> None:
        """Apply value changes ``x[p] += d`` and update all aggregates.

        Changes are applied sequentially so that overlapping lag pairs inside
        the batch (the ``delta_k * delta_{k+l}`` cross terms of Equation 9)
        are accounted for exactly.
        """
        positions = np.atleast_1d(np.asarray(positions, dtype=np.int64))
        deltas = np.atleast_1d(np.asarray(deltas, dtype=np.float64))
        if positions.shape != deltas.shape:
            raise ValueError("positions and deltas must have the same shape")
        sums = self._sums
        for position, delta in zip(positions, deltas):
            if delta == 0.0:
                continue
            position = int(position)
            if not 0 <= position < self._n:
                raise IndexError(f"position {position} out of range [0, {self._n})")
            d_sx, d_sxl, d_sx2, d_sx2l, d_sxxl = self._lag_deltas(position, float(delta), None)
            sums.sx += d_sx
            sums.sxl += d_sxl
            sums.sx2 += d_sx2
            sums.sx2l += d_sx2l
            sums.sxxl += d_sxxl
            self._current[position] += delta

    def preview_acf(self, positions, deltas) -> np.ndarray:
        """ACF the series *would* have after the given changes.

        Nothing is mutated; the cost is ``O(m L)`` for ``m`` changed
        positions.
        """
        positions = np.atleast_1d(np.asarray(positions, dtype=np.int64))
        deltas = np.atleast_1d(np.asarray(deltas, dtype=np.float64))
        if positions.shape != deltas.shape:
            raise ValueError("positions and deltas must have the same shape")
        sums = self._sums.copy()
        overrides: dict[int, float] = {}
        for position, delta in zip(positions, deltas):
            if delta == 0.0:
                continue
            position = int(position)
            if not 0 <= position < self._n:
                raise IndexError(f"position {position} out of range [0, {self._n})")
            d_sx, d_sxl, d_sx2, d_sx2l, d_sxxl = self._lag_deltas(
                position, float(delta), overrides)
            sums.sx += d_sx
            sums.sxl += d_sxl
            sums.sx2 += d_sx2
            sums.sx2l += d_sx2l
            sums.sxxl += d_sxxl
            base = overrides.get(position, float(self._current[position]))
            overrides[position] = base + float(delta)
        return self._acf_from(sums)

    def preview_pacf(self, positions, deltas) -> np.ndarray:
        """PACF the series would have after the given changes (no mutation)."""
        return pacf_from_acf(self.preview_acf(positions, deltas))

    # ------------------------------------------------------------------ #
    # contiguous-range fast path (used by the CAMEO inner loop)
    # ------------------------------------------------------------------ #
    def _contiguous_delta_sums(self, start: int, deltas: np.ndarray
                               ) -> tuple[np.ndarray, ...]:
        """Aggregate deltas for changing the contiguous range
        ``[start, start + len(deltas))`` by ``deltas``.

        The closed form uses prefix sums for the head/tail sums and
        :func:`repro._kernels.lagdot.lagged_dot_deltas` for the lagged dot
        product, including the exact ``delta_k * delta_{k+l}`` cross terms of
        Equation 9.  All deltas are with respect to the *current* values;
        nothing is mutated.
        """
        m = deltas.size
        n = self._n
        if start < 0 or start + m > n:
            raise IndexError("contiguous range out of bounds")
        lags = self._lags
        # Per-thread work buffers, reused across calls: this runs once per
        # accepted pop and per scalar preview, on a handful of values.
        scratch = self._preview_scratch
        head_counts = getattr(scratch, "head_counts", None)
        if head_counts is None:
            head_counts = scratch.head_counts = np.empty_like(lags)
            scratch.tail_starts = np.empty_like(lags)
            scratch.prefix_d = np.empty(n + 1, dtype=np.float64)
            scratch.prefix_e = np.empty(n + 1, dtype=np.float64)
            scratch.padded_deltas = np.zeros(n + self._max_lag)
        tail_starts = scratch.tail_starts
        prefix_d = scratch.prefix_d[:m + 1]
        prefix_e = scratch.prefix_e[:m + 1]

        old = self._current[start:start + m]
        energy = deltas * (2.0 * old + deltas)
        # np.cumsum is this ufunc loop behind a Python-level wrapper
        prefix_d[0] = 0.0
        np.add.accumulate(deltas, out=prefix_d[1:])
        prefix_e[0] = 0.0
        np.add.accumulate(energy, out=prefix_e[1:])

        # For lag l the head covers positions <= n-1-l, the tail positions
        # >= l: the first clip(n - l - start, 0, m) values of the range are
        # in the head, all but the first clip(l - start, 0, m) in the tail.
        # (min/max with out= instead of np.clip, whose Python wrapper costs
        # more than the arithmetic at these sizes.)
        np.subtract(n - start, lags, out=head_counts)
        np.maximum(head_counts, 0, out=head_counts)
        np.minimum(head_counts, m, out=head_counts)
        np.subtract(lags, start, out=tail_starts)
        np.maximum(tail_starts, 0, out=tail_starts)
        np.minimum(tail_starts, m, out=tail_starts)

        d_sx = prefix_d[head_counts]
        d_sx2 = prefix_e[head_counts]
        d_sxl = prefix_d[m] - prefix_d[tail_starts]
        d_sx2l = prefix_e[m] - prefix_e[tail_starts]

        # The lagged dot product: head, tail and cross lag sums, each
        # accumulated left to right — one expression for interior and
        # boundary ranges, held bit-identical across the kernel tiers.
        d_sxxl = lagged_dot_deltas(self._padded, self._max_lag, start, deltas,
                                   scratch.padded_deltas)
        return d_sx, d_sxl, d_sx2, d_sx2l, d_sxxl

    def preview_acf_contiguous(self, start: int, deltas) -> np.ndarray:
        """ACF after changing the contiguous range starting at ``start``.

        Equivalent to :meth:`preview_acf` with ``positions = start ..
        start+len(deltas)-1`` but considerably faster because the update is
        evaluated in closed form instead of point by point.
        """
        deltas = np.asarray(deltas, dtype=np.float64)
        if deltas.size == 0:
            return self.acf()
        d_sx, d_sxl, d_sx2, d_sx2l, d_sxxl = self._contiguous_delta_sums(int(start), deltas)
        sums = self._sums
        # Reused across calls (thread-locally: the fine-grained parallel
        # strategy previews from several threads): previewing is the single
        # hottest operation of the CAMEO inner loop, and reallocating five
        # lag vectors per candidate dominates its cost at small L.
        preview = getattr(self._preview_scratch, "sums", None)
        if preview is None:
            preview = LagSums(
                counts=sums.counts,
                sx=np.empty_like(sums.sx),
                sxl=np.empty_like(sums.sxl),
                sx2=np.empty_like(sums.sx2),
                sx2l=np.empty_like(sums.sx2l),
                sxxl=np.empty_like(sums.sxxl),
            )
            self._preview_scratch.sums = preview
        preview.counts = sums.counts
        np.add(sums.sx, d_sx, out=preview.sx)
        np.add(sums.sxl, d_sxl, out=preview.sxl)
        np.add(sums.sx2, d_sx2, out=preview.sx2)
        np.add(sums.sx2l, d_sx2l, out=preview.sx2l)
        np.add(sums.sxxl, d_sxxl, out=preview.sxxl)
        return self._acf_from(preview)

    def apply_contiguous(self, start: int, deltas) -> None:
        """Commit a contiguous-range change (fast equivalent of
        :meth:`apply_changes`)."""
        deltas = np.asarray(deltas, dtype=np.float64)
        if deltas.size == 0:
            return
        start = int(start)
        d_sx, d_sxl, d_sx2, d_sx2l, d_sxxl = self._contiguous_delta_sums(start, deltas)
        sums = self._sums
        sums.sx += d_sx
        sums.sxl += d_sxl
        sums.sx2 += d_sx2
        sums.sx2l += d_sx2l
        sums.sxxl += d_sxxl
        self._current[start:start + deltas.size] += deltas

    # ------------------------------------------------------------------ #
    # verification helper
    # ------------------------------------------------------------------ #
    def recompute_acf(self) -> np.ndarray:
        """Recompute the ACF from the current series without the aggregates.

        Exists for testing: the incrementally maintained ACF must match this
        value up to floating-point error.
        """
        sums = self._build_sums(self._current, self._lags)
        return self._acf_from(sums)


# Convenience alias used in a couple of signatures.
def acf_of(values, max_lag: int) -> np.ndarray:
    """One-shot lagged-Pearson ACF via the aggregate machinery."""
    state = ACFAggregateState(values, max_lag)
    return state.acf()


_ = acf_from_sums  # re-exported for API stability; silences unused-import linters
