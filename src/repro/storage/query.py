"""Query layer over the compression-aware store.

Analytics over compressed time series are the whole point of preserving
statistical features: this module answers point, range, aggregate, windowed
and ACF queries directly against a :class:`repro.storage.store.
TimeSeriesStore`, decoding as little as possible.

Aggregate pushdown
------------------
Every sealed segment carries a :class:`repro.storage.segment.SegmentSummary`
of its reconstruction.  ``sum``/``mean``/``min``/``max``/``count`` queries
whose range fully covers a segment use the summary instead of decoding the
segment; only the partially covered boundary segments (and the write buffer)
are decoded.  :class:`AggregateResult.segments_decoded` exposes how much work
a query actually did, which the storage benchmarks report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_positive_int
from ..exceptions import InvalidParameterError, StorageError
from ..stats.acf import acf
from ..stats.windowed import tumbling_window_aggregate
from .store import TimeSeriesStore

__all__ = ["AggregateResult", "QueryEngine", "SUPPORTED_AGGREGATES"]

#: Aggregate functions the query engine can push down to segment summaries.
SUPPORTED_AGGREGATES = ("sum", "mean", "min", "max", "count")


@dataclass(frozen=True)
class AggregateResult:
    """Result of an aggregate query plus its execution statistics."""

    value: float
    rows: int
    segments_total: int
    segments_decoded: int
    segments_pruned: int

    @property
    def pushdown_fraction(self) -> float:
        """Share of relevant segments answered from their summary alone."""
        relevant = self.segments_total - self.segments_pruned
        if relevant <= 0:
            return 1.0
        return 1.0 - self.segments_decoded / float(relevant)


class QueryEngine:
    """Read-only analytical queries over a :class:`TimeSeriesStore`."""

    def __init__(self, store: TimeSeriesStore):
        if not isinstance(store, TimeSeriesStore):
            raise InvalidParameterError("store must be a TimeSeriesStore")
        self.store = store

    # ------------------------------------------------------------------ #
    # basic lookups
    # ------------------------------------------------------------------ #
    def point(self, name: str, position: int) -> float:
        """Reconstructed value at one position."""
        return self.store.value_at(name, position)

    def range(self, name: str, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Reconstructed values of ``[start, stop)``."""
        return self.store.read(name, start, stop)

    def latest(self, name: str, count: int) -> np.ndarray:
        """The most recent ``count`` reconstructed values."""
        count = check_positive_int(count, "count")
        total = self.store.length(name)
        return self.store.read(name, max(total - count, 0), total)

    # ------------------------------------------------------------------ #
    # aggregates with segment pushdown
    # ------------------------------------------------------------------ #
    def aggregate(self, name: str, agg: str = "mean", start: int = 0,
                  stop: int | None = None) -> AggregateResult:
        """Aggregate a range, using segment summaries wherever possible."""
        agg = str(agg).lower()
        if agg not in SUPPORTED_AGGREGATES:
            raise InvalidParameterError(
                f"unsupported aggregate {agg!r}; choose from {SUPPORTED_AGGREGATES}")
        start, stop = self.store._resolve_range(  # noqa: SLF001 - read()'s rule
            start, stop, self.store.length(name))
        if start >= stop:
            raise StorageError("aggregate query over an empty range")

        state = self.store._state(name)  # noqa: SLF001 - geometry and holes
        state.refuse_holes(start, stop)  # the same refusal as read()
        segments = self.store.segments(name)
        rows = 0
        total = 0.0
        minimum = np.inf
        maximum = -np.inf
        decoded = 0
        pruned = 0

        for segment in segments:
            if not segment.overlaps(start, stop):
                pruned += 1
                continue
            if segment.covered_by(start, stop):
                summary = segment.summary
                rows += summary.count
                total += summary.total
                minimum = min(minimum, summary.minimum)
                maximum = max(maximum, summary.maximum)
                continue
            values = segment.slice(start, stop)
            decoded += 1
            rows += values.size
            total += float(np.sum(values))
            minimum = min(minimum, float(np.min(values)))
            maximum = max(maximum, float(np.max(values)))

        sealed_points = state.sealed_points
        if stop > sealed_points:
            tail = self.store.read(name, max(start, sealed_points), stop)
            if tail.size:
                rows += tail.size
                total += float(np.sum(tail))
                minimum = min(minimum, float(np.min(tail)))
                maximum = max(maximum, float(np.max(tail)))

        if rows == 0:
            raise StorageError("aggregate query matched no values")
        value = {
            "sum": total,
            "mean": total / rows,
            "min": minimum,
            "max": maximum,
            "count": float(rows),
        }[agg]
        return AggregateResult(value=float(value), rows=rows,
                               segments_total=len(segments), segments_decoded=decoded,
                               segments_pruned=pruned)

    # ------------------------------------------------------------------ #
    # windowed and statistical queries
    # ------------------------------------------------------------------ #
    def windowed_aggregate(self, name: str, window: int, agg: str = "mean",
                           start: int = 0, stop: int | None = None) -> np.ndarray:
        """Tumbling-window aggregates of the reconstructed range."""
        window = check_positive_int(window, "window")
        values = self.store.read(name, start, stop)
        if values.size < window:
            raise StorageError(
                f"range has {values.size} values, smaller than the window {window}")
        return tumbling_window_aggregate(values, window, agg)

    def acf(self, name: str, max_lag: int, start: int = 0, stop: int | None = None,
            *, agg_window: int = 1, agg: str = "mean") -> np.ndarray:
        """ACF of the reconstructed range (optionally of window aggregates).

        This is the quantity whose deviation a CAMEO-encoded series bounds,
        so analytics reading the store observe an autocorrelation structure
        within ``epsilon`` of the original ingest.
        """
        max_lag = check_positive_int(max_lag, "max_lag")
        values = self.store.read(name, start, stop)
        if agg_window > 1:
            values = tumbling_window_aggregate(values, agg_window, agg)
        if values.size < 3:
            raise StorageError("range too short for an ACF query")
        return acf(values, min(max_lag, values.size - 1))

    def seasonal_profile(self, name: str, period: int, start: int = 0,
                         stop: int | None = None) -> np.ndarray:
        """Mean value per phase of a seasonal cycle (e.g. hour-of-day profile)."""
        period = check_positive_int(period, "period")
        values = self.store.read(name, start, stop)
        if values.size < period:
            raise StorageError(
                f"range has {values.size} values, smaller than the period {period}")
        usable = values[: values.size - values.size % period]
        return usable.reshape(-1, period).mean(axis=0)
