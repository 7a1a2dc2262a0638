"""Generic statistic tracking for user-provided statistical descriptors.

:class:`repro.core.tracker.StatisticTracker` maintains the ACF/PACF through
the paper's incremental aggregates (Equations 7-11), which is why CAMEO can
re-evaluate the constraint in O(L) per removal.  Arbitrary user statistics do
not come with such update rules, so :class:`GenericStatisticTracker` instead
keeps the current reconstruction explicitly and re-evaluates the statistic on
a hypothetically modified copy for every preview.

This trades the O(L) incremental update for an O(cost(S)) recomputation per
candidate — acceptable for moderate series lengths and the price of full
generality.  The tracker exposes the exact same interface the compressor
uses for the built-in statistics, so :class:`repro.core.compressor.
CameoCompressor` accepts either a statistic name (fast path) or a
:class:`repro.stats.descriptors.Statistic` instance (this tracker).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import InvalidParameterError
from ..stats.descriptors import Statistic, TumblingAggregateStatistic
from .impact import (
    initial_interpolation_deltas,
    metric_rowwise,
    segment_interpolation_deltas_batched,
)

__all__ = ["GenericStatisticTracker"]


class GenericStatisticTracker:
    """Tracks an arbitrary :class:`Statistic` of the current reconstruction.

    Parameters
    ----------
    values:
        The original series (``float64`` array).
    statistic:
        Any :class:`repro.stats.descriptors.Statistic`.
    agg_window / agg:
        When ``agg_window > 1`` the statistic is evaluated on tumbling-window
        aggregates of the reconstruction (Definition 2 generalised), by
        wrapping ``statistic`` in a
        :class:`repro.stats.descriptors.TumblingAggregateStatistic`.
    """

    def __init__(self, values: np.ndarray, statistic: Statistic, *,
                 agg_window: int = 1, agg: str = "mean"):
        if not isinstance(statistic, Statistic):
            raise InvalidParameterError(
                "statistic must be a repro.stats.descriptors.Statistic instance")
        if agg_window < 1:
            raise InvalidParameterError("agg_window must be >= 1")
        if agg_window > 1:
            statistic = TumblingAggregateStatistic(statistic, agg_window, agg)
        self._statistic = statistic
        self._agg_window = int(agg_window)
        self._current = np.array(values, dtype=np.float64, copy=True)
        self._reference = statistic.compute(self._current)
        self._cached = self._reference.copy()

    # ------------------------------------------------------------------ #
    # properties (mirror StatisticTracker)
    # ------------------------------------------------------------------ #
    @property
    def statistic(self) -> str:
        """Name of the tracked statistic."""
        return self._statistic.name

    @property
    def statistic_object(self) -> Statistic:
        """The tracked :class:`Statistic` instance."""
        return self._statistic

    @property
    def agg_window(self) -> int:
        """Tumbling-window size (1 = statistic on the raw reconstruction)."""
        return self._agg_window

    @property
    def reference(self) -> np.ndarray:
        """Statistic of the original, uncompressed series."""
        return self._reference

    @property
    def max_lag(self) -> int:
        """Length of the tracked feature vector (for reporting only)."""
        return int(self._reference.size)

    @property
    def current_values(self) -> np.ndarray:
        """Current reconstructed raw series (do not mutate)."""
        return self._current

    # ------------------------------------------------------------------ #
    # statistic evaluation
    # ------------------------------------------------------------------ #
    def current_statistic(self) -> np.ndarray:
        """Statistic of the current reconstructed series."""
        return self._cached

    def preview(self, start: int, deltas) -> np.ndarray:
        """Statistic after hypothetically changing ``[start, start+len)`` by ``deltas``."""
        deltas = np.asarray(deltas, dtype=np.float64)
        if deltas.size == 0:
            return self._cached
        stop = int(start) + deltas.size
        original_slice = self._current[start:stop].copy()
        try:
            self._current[start:stop] += deltas
            return self._statistic.compute(self._current)
        finally:
            self._current[start:stop] = original_slice

    def apply(self, start: int, deltas) -> None:
        """Commit a contiguous change to the tracked reconstruction."""
        deltas = np.asarray(deltas, dtype=np.float64)
        if deltas.size == 0:
            return
        stop = int(start) + deltas.size
        self._current[start:stop] += deltas
        self._cached = self._statistic.compute(self._current)

    def deviation(self, metric, statistic_vector: np.ndarray) -> float:
        """Deviation ``D(reference, statistic_vector)``."""
        return float(metric_rowwise(metric, self._reference, statistic_vector)[0])

    # ------------------------------------------------------------------ #
    # batched impacts
    # ------------------------------------------------------------------ #
    def batch_impacts(self, changes: list[tuple[int, np.ndarray]], metric) -> np.ndarray:
        """Impact of several independent hypothetical contiguous changes."""
        impacts = np.empty(len(changes), dtype=np.float64)
        current_deviation: float | None = None
        for index, (start, deltas) in enumerate(changes):
            deltas = np.asarray(deltas, dtype=np.float64)
            if deltas.size == 0:
                if current_deviation is None:
                    current_deviation = self.deviation(metric, self._cached)
                impacts[index] = current_deviation
                continue
            impacts[index] = self.deviation(metric, self.preview(int(start), deltas))
        return impacts

    def batch_impacts_segments(self, starts, lengths, positions, deltas, metric
                               ) -> np.ndarray:
        """Concatenated-segment variant of :meth:`batch_impacts`.

        Generic statistics have no incremental form, so each segment is
        previewed individually; the signature matches
        :meth:`repro.core.tracker.StatisticTracker.batch_impacts_segments`.
        """
        starts = np.asarray(starts, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.float64)
        impacts = np.empty(lengths.size, dtype=np.float64)
        current_deviation: float | None = None
        offset = 0
        for index in range(lengths.size):
            length = int(lengths[index])
            if length == 0:
                if current_deviation is None:
                    current_deviation = self.deviation(metric, self._cached)
                impacts[index] = current_deviation
                continue
            segment = deltas[offset:offset + length]
            offset += length
            impacts[index] = self.deviation(
                metric, self.preview(int(starts[index]), segment))
        return impacts

    def gap_impacts(self, lefts, rights, metric) -> np.ndarray:
        """Impacts of re-interpolating each gap ``(lefts[s], rights[s])``;
        same contract as :meth:`StatisticTracker.gap_impacts`."""
        starts, lengths, positions, deltas = segment_interpolation_deltas_batched(
            self._current, lefts, rights)
        return self.batch_impacts_segments(starts, lengths, positions, deltas,
                                           metric)

    def reheap(self, *_request) -> None:
        """No compiled ReHeap step for arbitrary statistics: the caller runs
        it (same contract as :meth:`StatisticTracker.reheap`)."""
        return None

    def initial_impacts(self, metric) -> tuple[np.ndarray, np.ndarray]:
        """Impact of removing each interior point in isolation (Algorithm 2)."""
        positions, deltas = initial_interpolation_deltas(self._current)
        if positions.size == 0:
            return positions, np.empty(0, dtype=np.float64)
        impacts = np.empty(positions.size, dtype=np.float64)
        for index, (position, delta) in enumerate(zip(positions, deltas)):
            impacts[index] = self.deviation(
                metric, self.preview(int(position), np.asarray([delta])))
        return positions, impacts
