"""Statistic tracking facade used by the CAMEO compressor.

The compressor itself is agnostic about *which* statistic is being preserved
and *on which* series (raw vs. tumbling-window aggregates).  The tracker
wraps the incremental aggregate states from :mod:`repro.stats` and exposes a
tiny interface:

* ``reference`` — the statistic of the original series (``P_L``),
* ``current_statistic()`` — the statistic of the current reconstruction,
* ``preview(positions, deltas)`` — statistic after hypothetical changes,
* ``apply(positions, deltas)`` — commit changes,
* ``initial_impacts(metric)`` — Algorithm 2's vectorised initial heap keys,
* ``gap_impacts(lefts, rights, metric)`` — the ReHeap evaluation: impacts
  of re-interpolating many gaps (one compiled call on the native tier),
* ``reheap(...)`` — the whole ReHeap step as one compiled call, where the
  native tier serves the configuration (``None`` otherwise),
* ``batch_impacts_segments(...)`` — impacts of many contiguous-range
  changes in one vectorized pass.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import InvalidParameterError
from ..stats.aggregates import ACFAggregateState
from ..stats.pacf import pacf_from_acf, pacf_from_acf_batched
from ..stats.windowed import AggregatedACFState
from .impact import (
    batched_contiguous_acf,
    batched_single_change_impacts,
    initial_interpolation_deltas,
    native_gap_impacts,
    native_reheap,
    native_serves,
    resolve_rowwise_metric,
    segment_interpolation_deltas_batched,
)

__all__ = ["StatisticTracker", "SUPPORTED_STATISTICS"]

SUPPORTED_STATISTICS = ("acf", "pacf")


class StatisticTracker:
    """Tracks the ACF or PACF of a (possibly window-aggregated) series."""

    def __init__(self, values: np.ndarray, max_lag: int, *, statistic: str = "acf",
                 agg_window: int = 1, agg: str = "mean"):
        statistic = str(statistic).lower()
        if statistic not in SUPPORTED_STATISTICS:
            raise InvalidParameterError(
                f"unsupported statistic {statistic!r}; choose from {SUPPORTED_STATISTICS}")
        self._statistic = statistic
        self._agg_window = int(agg_window)
        if self._agg_window < 1:
            raise InvalidParameterError("agg_window must be >= 1")
        if self._agg_window == 1:
            self._state: ACFAggregateState | AggregatedACFState = ACFAggregateState(
                values, max_lag)
        else:
            self._state = AggregatedACFState(values, max_lag, self._agg_window, agg)
        self._reference = self.current_statistic()

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def statistic(self) -> str:
        """Name of the tracked statistic (``"acf"`` or ``"pacf"``)."""
        return self._statistic

    @property
    def agg_window(self) -> int:
        """Tumbling-window size (1 = statistic on the raw series)."""
        return self._agg_window

    @property
    def reference(self) -> np.ndarray:
        """Statistic of the original, uncompressed series."""
        return self._reference

    @property
    def max_lag(self) -> int:
        """Number of lags of the tracked statistic."""
        return self._state.max_lag

    @property
    def current_values(self) -> np.ndarray:
        """Current reconstructed raw series (do not mutate)."""
        if isinstance(self._state, AggregatedACFState):
            return self._state.current_raw
        return self._state.current

    @property
    def state(self) -> ACFAggregateState | AggregatedACFState:
        """The underlying aggregate state (used by the multi-series kernel)."""
        return self._state

    # ------------------------------------------------------------------ #
    # statistic evaluation
    # ------------------------------------------------------------------ #
    def _to_statistic(self, acf_vector: np.ndarray) -> np.ndarray:
        if self._statistic == "pacf":
            return pacf_from_acf(acf_vector)
        return acf_vector

    def _to_statistic_rows(self, acf_matrix: np.ndarray) -> np.ndarray:
        """Row-wise statistic transform of a ``(k, L)`` ACF matrix.

        For ``statistic="pacf"`` this is the batched Durbin-Levinson kernel
        — one vectorized recursion over all rows, bit-identical to applying
        :func:`repro.stats.pacf.pacf_from_acf` row by row.
        """
        if self._statistic != "pacf":
            return acf_matrix
        return pacf_from_acf_batched(acf_matrix)

    def current_statistic(self) -> np.ndarray:
        """Statistic of the current reconstructed series."""
        return self._to_statistic(self._state.acf())

    def preview(self, start: int, deltas) -> np.ndarray:
        """Statistic after hypothetically changing the contiguous raw range
        ``[start, start + len(deltas))`` by ``deltas`` (no mutation).

        The returned vector may share a reused scratch buffer; consume it
        before the next ``preview`` call.
        """
        return self._to_statistic(self._state.preview_acf_contiguous(start, deltas))

    def apply(self, start: int, deltas) -> None:
        """Commit a contiguous raw-range change to the tracked state."""
        self._state.apply_contiguous(start, deltas)

    def deviation(self, metric, statistic_vector: np.ndarray) -> float:
        """Deviation ``D(reference, statistic_vector)`` for a single vector."""
        return resolve_rowwise_metric(metric).single(self._reference, statistic_vector)

    # ------------------------------------------------------------------ #
    # batched hypothetical impacts (used by the ReHeap step)
    # ------------------------------------------------------------------ #
    def native_serves(self, metric) -> bool:
        """Does the compiled tier evaluate this tracker's ReHeap (and with
        it run its greedy loop) under ``metric``?"""
        return native_serves(self._statistic, self._agg_window, metric)

    def gap_impacts(self, lefts, rights, metric) -> np.ndarray:
        """Impacts of re-interpolating each surviving gap, in isolation.

        Gap ``s`` puts every point strictly inside ``(lefts[s], rights[s])``
        on the straight line between the two anchors.  The raw ACF under a
        closed-form metric goes through the compiled tier's fused kernel
        when it is active; everything else (and the NumPy tier) computes
        the same numbers through :meth:`batch_impacts_segments`.
        """
        metric = resolve_rowwise_metric(metric)
        lefts = np.ascontiguousarray(lefts, dtype=np.int64)
        rights = np.ascontiguousarray(rights, dtype=np.int64)
        if self.native_serves(metric):
            impacts = native_gap_impacts(self._state, self._reference,
                                         lefts, rights, metric)
            if impacts is not None:
                return impacts
        starts, lengths, positions, deltas = segment_interpolation_deltas_batched(
            self.current_values, lefts, rights)
        return self.batch_impacts_segments(starts, lengths, positions, deltas,
                                           metric)

    def reheap(self, metric, neighbours, heap, removed: int, hops: int,
               peek: int, state_version: int, key_version, spec_version,
               spec_deviation) -> int | None:
        """The compressor's whole ReHeap step after removing ``removed``.

        Where :meth:`gap_impacts` would go through the compiled tier, the
        neighbourhood gather, the speculative peek, the evaluation and the
        heap re-key are one call (:func:`repro.core.impact.native_reheap`);
        returns the number of re-keyed neighbours.  Returns ``None``, with
        nothing touched, when the caller has to run the steps itself.
        """
        if not self.native_serves(metric):
            return None
        return native_reheap(self._state, self._reference, metric,
                             neighbours, heap, removed, hops, peek,
                             state_version, key_version, spec_version,
                             spec_deviation)

    def batch_impacts_segments(self, starts, lengths, positions, deltas, metric
                               ) -> np.ndarray:
        """Impacts of many contiguous-range changes in one vectorized pass.

        The hypothetical changes are given in the concatenated form produced
        by :func:`repro.core.impact.segment_interpolation_deltas_batched`:
        change ``s`` alters the ``lengths[s]`` raw positions starting at
        ``starts[s]``; ``positions``/``deltas`` hold every change back to
        back.  Each change is evaluated in isolation against the current
        state.  Zero-length changes get the current deviation.
        """
        metric = resolve_rowwise_metric(metric)
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.size == 0:
            return np.empty(0, dtype=np.float64)
        positions = np.asarray(positions, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.float64)

        if self._agg_window == 1:
            acf_matrix = batched_contiguous_acf(self._state, lengths, positions, deltas)
        elif (isinstance(self._state, AggregatedACFState)
              and self._state.agg in ("mean", "sum")):
            window_lengths, window_positions, window_deltas = \
                self._segments_to_window_segments(lengths, positions, deltas)
            acf_matrix = batched_contiguous_acf(
                self._state.inner, window_lengths, window_positions, window_deltas)
        else:
            return self._batch_impacts_fallback(starts, lengths, deltas, metric)
        return metric.rowwise(self._reference,
                              self._to_statistic_rows(acf_matrix),
                              overwrite=True)

    def _segments_to_window_segments(self, lengths: np.ndarray, positions: np.ndarray,
                                     deltas: np.ndarray
                                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Translate concatenated raw segments into window-level segments.

        Exact for additive aggregations (mean/sum): each raw segment's
        positions are grouped by tumbling window, the per-window delta is
        the (scaled) sum of its raw deltas, and the resulting window
        positions are again consecutive within each segment.
        """
        state = self._state
        window = state.window
        num_windows = state.num_windows
        keep = positions < num_windows * window
        segment_ids = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
        kept_positions = positions[keep]
        if kept_positions.size == 0:
            return (np.zeros(lengths.size, dtype=np.int64),
                    np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        kept_deltas = deltas[keep]
        kept_segments = segment_ids[keep]
        window_of = kept_positions // window
        boundary = np.empty(kept_positions.size, dtype=bool)
        boundary[0] = True
        boundary[1:] = ((kept_segments[1:] != kept_segments[:-1])
                        | (window_of[1:] != window_of[:-1]))
        bounds = np.flatnonzero(boundary)
        group_sums = np.add.reduceat(kept_deltas, bounds)
        if state.agg == "mean":
            group_sums = group_sums / window
        window_lengths = np.bincount(kept_segments[bounds], minlength=lengths.size)
        return window_lengths.astype(np.int64), window_of[bounds], group_sums

    def _batch_impacts_fallback(self, starts, lengths, deltas, metric) -> np.ndarray:
        """Per-segment preview loop (max/min aggregations)."""
        starts = np.asarray(starts, dtype=np.int64)
        impacts = np.empty(lengths.size, dtype=np.float64)
        current_deviation: float | None = None
        offset = 0
        for index in range(lengths.size):
            length = int(lengths[index])
            if length == 0:
                if current_deviation is None:
                    current_deviation = self.deviation(metric, self.current_statistic())
                impacts[index] = current_deviation
                continue
            segment = deltas[offset:offset + length]
            offset += length
            impacts[index] = self.deviation(
                metric, self.preview(int(starts[index]), segment))
        return impacts

    def batch_impacts(self, changes: list[tuple[int, np.ndarray]], metric) -> np.ndarray:
        """Impact of several independent hypothetical contiguous changes.

        ``changes`` is a list of ``(start, deltas)`` pairs; kept for API
        compatibility — internally the pairs are concatenated and evaluated
        through :meth:`batch_impacts_segments`.
        """
        if not changes:
            return np.empty(0, dtype=np.float64)
        starts = np.fromiter((int(start) for start, _deltas in changes),
                             dtype=np.int64, count=len(changes))
        parts = [np.asarray(deltas, dtype=np.float64) for _start, deltas in changes]
        lengths = np.fromiter((part.size for part in parts),
                              dtype=np.int64, count=len(parts))
        deltas = np.concatenate(parts) if parts else np.empty(0, dtype=np.float64)
        total = int(lengths.sum())
        positions = np.empty(total, dtype=np.int64)
        offset = 0
        for start, part in zip(starts, parts):
            positions[offset:offset + part.size] = np.arange(
                start, start + part.size, dtype=np.int64)
            offset += part.size
        return self.batch_impacts_segments(starts, lengths, positions, deltas, metric)

    # ------------------------------------------------------------------ #
    # initial impacts (Algorithm 2)
    # ------------------------------------------------------------------ #
    def initial_impacts(self, metric) -> tuple[np.ndarray, np.ndarray]:
        """Impact of removing each interior point in isolation.

        Returns ``(positions, impacts)`` for positions ``1..n-2``.  The fast
        vectorised path applies when the aggregation is linear (raw series,
        or mean/sum windows) — for both the ACF and the PACF statistic;
        otherwise a per-point preview loop is used (max/min windows).
        """
        metric = resolve_rowwise_metric(metric)
        values = self.current_values
        positions, deltas = initial_interpolation_deltas(values)
        if positions.size == 0:
            return positions, np.empty(0, dtype=np.float64)

        if self._agg_window == 1:
            impacts = self._single_change_impacts(self._state, positions, deltas,
                                                  metric)
            return positions, impacts

        if (isinstance(self._state, AggregatedACFState)
                and self._state.agg in ("mean", "sum")):
            scale = 1.0 / self._state.window if self._state.agg == "mean" else 1.0
            window_positions = positions // self._state.window
            in_range = window_positions < self._state.num_windows
            impacts = np.zeros(positions.size, dtype=np.float64)
            if in_range.any():
                impacts[in_range] = self._single_change_impacts(
                    self._state.inner, window_positions[in_range],
                    deltas[in_range] * scale, metric)
            # Points in the trailing partial window do not move the
            # aggregated ACF at all; their impact is the current deviation.
            if (~in_range).any():
                impacts[~in_range] = self.deviation(metric, self.current_statistic())
            return positions, impacts

        # Generic fallback: per-point preview (max/min aggregations).
        impacts = np.empty(positions.size, dtype=np.float64)
        for index, (position, delta) in enumerate(zip(positions, deltas)):
            stat = self.preview(int(position), np.asarray([delta]))
            impacts[index] = self.deviation(metric, stat)
        return positions, impacts

    def _single_change_impacts(self, state: ACFAggregateState, positions: np.ndarray,
                               deltas: np.ndarray, metric) -> np.ndarray:
        """Impacts of many independent single-point changes on ``state``.

        The ACF statistic uses the closed-form single-change kernel of
        Algorithm 2 directly.  The PACF statistic needs the candidate ACF
        *rows* (to run the batched Durbin-Levinson transform on them), so it
        evaluates the same arithmetic through the contiguous kernel with
        length-1 segments — bit-identical ACF rows — in bounded chunks.
        """
        if self._statistic == "acf":
            return batched_single_change_impacts(state, positions, deltas,
                                                 self._reference, metric)
        chunk_size = 16384
        impacts = np.empty(positions.size, dtype=np.float64)
        for start in range(0, positions.size, chunk_size):
            stop = min(start + chunk_size, positions.size)
            acf_rows = batched_contiguous_acf(
                state, np.ones(stop - start, dtype=np.int64),
                positions[start:stop], deltas[start:stop])
            impacts[start:stop] = metric.rowwise(
                self._reference, self._to_statistic_rows(acf_rows),
                overwrite=True)
        return impacts
