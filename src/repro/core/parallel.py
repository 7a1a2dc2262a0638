"""Parallelization strategies for CAMEO (paper Section 4.4).

The paper implements both strategies with OpenMP threads in Cython.  In pure
Python the numerics are identical but true shared-memory parallel speed-ups
are limited by the GIL, so this module provides faithful *functional*
reproductions that still expose the knobs the paper evaluates (number of
workers, per-partition error budget, hop chunking) and report per-worker
accounting so the scaling experiments (Figures 10 and 11) can be
regenerated:

* **Fine-grained** (:class:`FineGrainedCameo`) — the blocking
  neighbourhood's impact refresh is split into ``T`` chunks that are
  evaluated by a thread pool.  NumPy releases the GIL for the heavy array
  ops, so moderate real speed-ups are possible for large lag counts.
* **Coarse-grained** (:class:`CoarseGrainedCameo`) — the series is split
  into ``T`` consecutive partitions, each compressed independently with a
  local error budget ``p * epsilon / T``; the global ACF deviation is then
  validated on the merged result (overlap regions between partitions are
  accounted for by evaluating the ACF of the full reconstruction, which
  includes every cross-partition lag product).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .._validation import as_float_array
from ..data.timeseries import IrregularSeries, TimeSeries
from ..exceptions import InvalidParameterError
from ..stats.windowed import tumbling_window_aggregate
from .compressor import CameoCompressor
from .impact import metric_rowwise
from .tracker import StatisticTracker

__all__ = ["ParallelReport", "FineGrainedCameo", "CoarseGrainedCameo"]


@dataclass
class ParallelReport:
    """Accounting information returned next to a parallel compression result."""

    workers: int
    partition_sizes: list[int] = field(default_factory=list)
    partition_deviation: list[float] = field(default_factory=list)
    partition_kept: list[int] = field(default_factory=list)
    global_deviation: float = 0.0
    compression_ratio: float = 1.0
    elapsed_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "workers": self.workers,
            "partition_sizes": list(self.partition_sizes),
            "partition_deviation": list(self.partition_deviation),
            "partition_kept": list(self.partition_kept),
            "global_deviation": self.global_deviation,
            "compression_ratio": self.compression_ratio,
            "elapsed_seconds": self.elapsed_seconds,
        }


class FineGrainedCameo(CameoCompressor):
    """CAMEO with the ReHeap look-ahead split across a thread pool.

    Behaviourally identical to :class:`CameoCompressor`; only the impact
    refresh of the blocking neighbourhood is chunked over ``threads``
    workers.  With ``threads=1`` it degenerates to the sequential algorithm.
    """

    def __init__(self, max_lag: int, epsilon: float | None = 0.01, *,
                 threads: int = 2, **kwargs):
        super().__init__(max_lag, epsilon, **kwargs)
        if threads < 1:
            raise InvalidParameterError("threads must be >= 1")
        self.threads = int(threads)
        self._pool: ThreadPoolExecutor | None = None

    def compress(self, series) -> IrregularSeries:
        if self.threads == 1:
            return super().compress(series)
        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            self._pool = pool
            try:
                result = super().compress(series)
            finally:
                self._pool = None
        result.metadata["fine_grained_threads"] = self.threads
        return result

    def _reheap_neighbours(self, run, removed: int) -> int:
        if self._pool is None:
            return super()._reheap_neighbours(run, removed)
        neighbours, heap = run.neighbours, run.heap
        candidates = neighbours.hops_array(removed, run.hops)
        if candidates.size:
            candidates = candidates[heap.contains_mask(candidates)]
        if candidates.size == 0:
            return 0
        # Chunk the *batched* preview across the pool: each worker resolves
        # its chunk's gaps and runs the same fused segment kernel the
        # sequential ReHeap uses (per-segment results are independent, so
        # the chunked impacts are identical to one unchunked call).  The
        # kernel's scratch pool is thread-local by design.
        chunks = [chunk for chunk in np.array_split(candidates, self.threads)
                  if chunk.size]

        def evaluate(chunk: np.ndarray) -> np.ndarray:
            lefts, rights = neighbours.gaps_of(chunk)
            return run.tracker.gap_impacts(lefts, rights, run.metric)

        impacts = np.concatenate(list(self._pool.map(evaluate, chunks)))
        heap.update_many(candidates, impacts)
        if run.speculate:
            run.key_version[candidates] = run.state_version
        return int(candidates.size)


class CoarseGrainedCameo:
    """Partition-parallel CAMEO (coarse-grained strategy).

    Parameters
    ----------
    max_lag, epsilon, metric, statistic, agg_window, agg, blocking:
        Same meaning as for :class:`CameoCompressor`.
    workers:
        Number of partitions ``T``.
    local_budget_fraction:
        The paper's ``p``: every partition compresses under the local bound
        ``p * epsilon / T`` before the global constraint is validated.
        Values close to ``T`` spend nearly the whole budget locally.
    use_threads:
        Run partitions on a thread pool (NumPy releases the GIL for the
        heavy kernels) instead of sequentially simulated workers.
    """

    def __init__(self, max_lag: int, epsilon: float = 0.01, *, workers: int = 2,
                 metric="mae", statistic: str = "acf", agg_window: int = 1,
                 agg: str = "mean", blocking="5logn",
                 local_budget_fraction: float | None = None, use_threads: bool = True):
        if workers < 1:
            raise InvalidParameterError("workers must be >= 1")
        if epsilon is None or epsilon <= 0:
            raise InvalidParameterError("coarse-grained CAMEO requires a positive epsilon")
        self.max_lag = int(max_lag)
        self.epsilon = float(epsilon)
        self.workers = int(workers)
        self.metric = metric
        self.statistic = statistic
        self.agg_window = int(agg_window)
        self.agg = agg
        self.blocking = blocking
        self.local_budget_fraction = (float(local_budget_fraction)
                                      if local_budget_fraction is not None
                                      else float(workers))
        self.use_threads = use_threads

    # ------------------------------------------------------------------ #
    def _partition_bounds(self, n: int) -> list[tuple[int, int]]:
        """Split ``[0, n)`` into ``workers`` contiguous partitions.

        Partition boundaries are aligned to the aggregation window so window
        aggregates never straddle two partitions.
        """
        workers = min(self.workers, max(1, n // max(4, 2 * self.agg_window)))
        base = n // workers
        if self.agg_window > 1:
            base = max(self.agg_window, (base // self.agg_window) * self.agg_window)
        bounds = []
        start = 0
        for worker in range(workers):
            stop = n if worker == workers - 1 else min(n, start + base)
            if stop - start >= 4:
                bounds.append((start, stop))
            start = stop
            if start >= n:
                break
        if not bounds:
            bounds = [(0, n)]
        return bounds

    def _compress_partition(self, values: np.ndarray, local_epsilon: float
                            ) -> IrregularSeries:
        compressor = CameoCompressor(
            self.max_lag, local_epsilon, metric=self.metric, statistic=self.statistic,
            agg_window=self.agg_window, agg=self.agg, blocking=self.blocking)
        return compressor.compress(values)

    def compress(self, series) -> tuple[IrregularSeries, ParallelReport]:
        """Compress ``series`` and return ``(result, report)``.

        The report carries per-partition accounting used by the Figure 10/11
        benchmarks.  The returned representation always satisfies the global
        bound: if merging the locally compressed partitions overshoots the
        global deviation, partitions are re-compressed with a geometrically
        shrinking local budget (at most three refinement rounds) and, as a
        last resort, the identity representation of the offending partition
        is used.
        """
        import time

        name = series.name if isinstance(series, TimeSeries) else "series"
        values = as_float_array(series.values if isinstance(series, TimeSeries) else series)
        n = values.size
        start_time = time.perf_counter()
        bounds = self._partition_bounds(n)
        workers = len(bounds)
        local_epsilon = self.local_budget_fraction * self.epsilon / max(self.workers, 1)

        report = ParallelReport(workers=workers,
                                partition_sizes=[stop - start for start, stop in bounds])

        reference = self._reference_statistic(values)

        def run_round(epsilon_value: float) -> list[IrregularSeries]:
            if self.use_threads and workers > 1:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    return list(pool.map(
                        lambda bound: self._compress_partition(
                            values[bound[0]:bound[1]], epsilon_value), bounds))
            return [self._compress_partition(values[start:stop], epsilon_value)
                    for start, stop in bounds]

        epsilon_round = local_epsilon
        for _round in range(3):
            partials = run_round(epsilon_round)
            merged = self._merge(partials, bounds, n, name)
            global_dev = self._global_deviation(values, merged, reference)
            if global_dev <= self.epsilon:
                break
            epsilon_round /= 2.0
        else:
            # Final safety net: keep everything (deviation 0).
            merged = IrregularSeries(indices=np.arange(n), values=values.copy(),
                                     original_length=n, name=f"cameo-coarse({name})")
            partials = []
            global_dev = 0.0

        report.partition_deviation = [
            float(p.metadata.get("achieved_deviation", 0.0)) for p in partials]
        report.partition_kept = [len(p) for p in partials]
        report.global_deviation = float(global_dev)
        report.compression_ratio = merged.compression_ratio()
        report.elapsed_seconds = time.perf_counter() - start_time
        merged.metadata.update({
            "compressor": "CAMEO-coarse",
            "epsilon": self.epsilon,
            "workers": workers,
            "local_epsilon": local_epsilon,
            **{f"report_{k}": v for k, v in report.as_dict().items()},
        })
        return merged, report

    # ------------------------------------------------------------------ #
    def _reference_statistic(self, values: np.ndarray) -> np.ndarray:
        tracked_length = values.size if self.agg_window == 1 else values.size // self.agg_window
        lag = min(self.max_lag, max(tracked_length - 1, 1))
        tracker = StatisticTracker(values, lag, statistic=self.statistic,
                                   agg_window=self.agg_window, agg=self.agg)
        return tracker.reference

    def _global_deviation(self, values: np.ndarray, merged: IrregularSeries,
                          reference: np.ndarray) -> float:
        reconstruction = merged.decompress()
        if self.agg_window > 1:
            original = tumbling_window_aggregate(values, self.agg_window, self.agg)
            candidate = tumbling_window_aggregate(reconstruction, self.agg_window, self.agg)
        else:
            original = values
            candidate = reconstruction
        lag = reference.size
        tracker = StatisticTracker(candidate, lag, statistic=self.statistic)
        candidate_stat = tracker.reference
        del original  # reference was computed on the original already
        return float(metric_rowwise(self.metric, reference, candidate_stat)[0])

    @staticmethod
    def _merge(partials: Sequence[IrregularSeries], bounds: Sequence[tuple[int, int]],
               n: int, name: str) -> IrregularSeries:
        indices = []
        values = []
        for partial, (start, _stop) in zip(partials, bounds):
            indices.append(partial.indices + start)
            values.append(partial.values)
        merged_indices = np.concatenate(indices)
        merged_values = np.concatenate(values)
        order = np.argsort(merged_indices)
        merged_indices = merged_indices[order]
        merged_values = merged_values[order]
        unique_mask = np.concatenate(([True], np.diff(merged_indices) > 0))
        return IrregularSeries(indices=merged_indices[unique_mask],
                               values=merged_values[unique_mask],
                               original_length=n, name=f"cameo-coarse({name})")
