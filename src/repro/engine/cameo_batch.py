"""Lock-step CAMEO: many short series advanced through one shared kernel.

A CAMEO run on a short series (small ``T·L``) spends most of its time in
NumPy *dispatch*, not NumPy *work*: every greedy iteration issues one
ReHeap's worth of small kernel calls whose fixed per-call overhead dwarfs
the arithmetic.  Different series are completely independent, so the batch
engine advances many of them **in lock step**: each round, every active
series runs exactly one iteration of the sequential loop (pop → decide →
commit) and contributes its ReHeap evaluation request; all requests are then
evaluated by one stacked
:func:`repro.core.impact.multi_state_contiguous_acf` call — one ``(ΣT, L)``
kernel invocation instead of one per series.

Bit-exactness: the per-series control flow below mirrors
:meth:`repro.core.compressor.CameoCompressor._run` operation for operation
(for the configurations :func:`lockstep_eligible` admits), and the stacked
kernel, the batched Durbin-Levinson transform, and the row-wise metric are
all bit-identical per row to their per-series counterparts.  Kept-point sets
therefore match the sequential per-series runs exactly — asserted by
``tests/engine/`` and the perf harness.
"""

from __future__ import annotations

import time

import numpy as np

from .._validation import as_float_array
from ..core.blocking import resolve_blocking_hops
from ..core.compressor import CameoCompressor, CompressionStats
from ..core.heap import make_heap
from ..core.impact import (
    StackedStateLayout,
    multi_state_contiguous_acf,
    native_serves,
    resolve_rowwise_metric,
    segment_interpolation_deltas,
    segment_interpolation_deltas_batched,
)
from ..core.neighbors import NeighborList
from ..core.tracker import StatisticTracker
from ..data.timeseries import IrregularSeries
from ..stats.descriptors import Statistic
from ..stats.pacf import pacf_from_acf_batched

__all__ = ["LOCKSTEP_MAX_CELLS", "LOCKSTEP_GROUP_SIZE", "lockstep_eligible",
           "lockstep_compress"]

#: ``n * max_lag`` ceiling under which a series counts as "short" (dispatch
#: bound): larger runs spend their time inside the kernels, where stacking
#: buys nothing and only grows the working set.  Measured crossover: ~1.3x
#: at 2k cells, ~1.05x at 4k, parity beyond (see docs/performance.md).
LOCKSTEP_MAX_CELLS = 1 << 12

#: Series advanced per lock-step group; bounds the stacked kernel's row count
#: (and with it the peak temporary size) while still amortizing dispatch.
LOCKSTEP_GROUP_SIZE = 16


def lockstep_eligible(compressor: CameoCompressor, n: int, *,
                      max_cells: int = LOCKSTEP_MAX_CELLS) -> bool:
    """Whether one series of length ``n`` may join a lock-step group.

    The lock-step driver reproduces the sequential loop for the common
    configuration: a named statistic (the incremental tracker), raw series
    (``agg_window == 1``) and the paper's ``on_violation="stop"`` policy.
    Everything else — aggregated statistics, skip/drain mode, custom
    ``Statistic`` objects, long series — falls back to the per-series path.
    So does a configuration whose per-series run the compiled tier serves:
    the stacked kernel is NumPy on either tier, and loses to one compiled
    call per ReHeap (``engine_cameo_lockstep_native`` in BENCH_kernels.json).
    """
    if isinstance(compressor.statistic, Statistic):
        return False
    if compressor.agg_window != 1 or compressor.on_violation != "stop":
        return False
    if n < 4 or n <= compressor.min_keep:
        return False
    if native_serves(str(compressor.statistic).lower(), compressor.agg_window,
                     resolve_rowwise_metric(compressor.metric)):
        return False
    effective_lag = min(compressor.max_lag, n - 1)
    return n * effective_lag <= max_cells


class _LockstepSeries:
    """One series' loop state inside a lock-step group.

    Mirrors the sequential ``CameoCompressor._run`` (``on_violation="stop"``
    path) exactly; only the ReHeap *evaluation* is deferred to the shared
    stacked kernel via :meth:`advance` / :meth:`complete`.
    """

    __slots__ = (
        "compressor", "name", "values", "n", "tracker", "neighbours", "heap",
        "hops", "metric", "speculate", "spec_peek", "state_version",
        "key_version", "spec_version", "spec_deviation", "member_scratch",
        "stats", "kept", "max_removable", "target_kept", "epsilon",
        "fresh_hits", "spec_hits", "preview_evals", "batch_size", "done",
        "pending", "start_time", "slot",
    )

    def __init__(self, compressor: CameoCompressor, values: np.ndarray,
                 name: str, metric, *, validated: bool = False):
        self.compressor = compressor
        self.name = name
        if not validated:
            values = as_float_array(values, name="series")
        self.values = values
        self.start_time = time.perf_counter()
        n = self.n = values.size
        effective_lag = compressor._effective_max_lag(n)
        self.tracker = StatisticTracker(values, effective_lag,
                                        statistic=compressor.statistic,
                                        agg_window=1, agg=compressor.agg)
        self.hops = resolve_blocking_hops(compressor.blocking, n)
        self.metric = metric
        self.neighbours = NeighborList(n)
        self.heap = make_heap(n)
        positions, impacts = self.tracker.initial_impacts(metric)
        self.heap.heapify(positions, impacts)

        batch_size = self.batch_size = compressor._resolve_batch_size()
        self.speculate = batch_size > 1
        if self.speculate:
            self.state_version = 0
            self.key_version = np.zeros(n, dtype=np.int64)
            self.spec_version = np.full(n, -1, dtype=np.int64)
            self.spec_deviation = np.empty(n, dtype=np.float64)
            self.member_scratch = np.zeros(n, dtype=bool)
            self.spec_peek = batch_size - 1
        else:
            self.spec_peek = 0
            self.state_version = 0
            self.key_version = self.spec_version = self.spec_deviation = None
            self.member_scratch = None

        self.stats = CompressionStats(kept_points=n)
        self.kept = n
        self.max_removable = n - max(compressor.min_keep, 2)
        self.target_kept = None
        if compressor.target_ratio is not None:
            self.target_kept = max(int(np.ceil(n / compressor.target_ratio)),
                                   compressor.min_keep, 2)
        self.epsilon = compressor.epsilon
        self.fresh_hits = self.spec_hits = self.preview_evals = 0
        self.done = False
        self.pending = None

    # ------------------------------------------------------------------ #
    def advance(self):
        """Run sequential iterations until a ReHeap request is produced.

        Returns ``(lengths, positions, deltas)`` for the stacked kernel, or
        ``None`` when the series finished (``self.done`` is then set).
        Iterations whose ReHeap would be empty continue immediately, exactly
        like the sequential loop's no-op refresh.
        """
        tracker = self.tracker
        neighbours = self.neighbours
        heap = self.heap
        metric = self.metric
        stats = self.stats
        epsilon = self.epsilon
        speculate = self.speculate
        current_values = tracker.current_values
        left_of = neighbours.left_of
        right_of = neighbours.right_of

        while True:
            if not heap:
                self._finish()
                return None
            candidate, key = heap.pop()
            stats.iterations += 1
            change_start, change_deltas = segment_interpolation_deltas(
                current_values, left_of(candidate), right_of(candidate))
            if change_deltas.size == 0:
                deviation = stats.achieved_deviation
            elif speculate and self.key_version[candidate] == self.state_version:
                deviation = key
                self.fresh_hits += 1
            elif speculate and self.spec_version[candidate] == self.state_version:
                deviation = float(self.spec_deviation[candidate])
                self.spec_hits += 1
            else:
                new_statistic = tracker.preview(change_start, change_deltas)
                deviation = tracker.deviation(metric, new_statistic)
                self.preview_evals += 1

            if epsilon is not None and deviation >= epsilon:
                stats.stopped_by = "error-bound"
                self._finish()
                return None

            if change_deltas.size:
                tracker.apply(change_start, change_deltas)
            neighbours.remove(candidate)
            self.kept -= 1
            stats.removed_points += 1
            stats.achieved_deviation = deviation
            if speculate:
                self.state_version += 1

            if stats.removed_points >= self.max_removable:
                stats.stopped_by = "min-keep"
                self._finish()
                return None
            if self.target_kept is not None and self.kept <= self.target_kept:
                stats.stopped_by = "target-ratio"
                self._finish()
                return None

            # Build the ReHeap request (the evaluation itself is stacked).
            candidates = neighbours.hops_array(candidate, self.hops)
            if candidates.size:
                candidates = candidates[heap.contains_mask(candidates)]
            spec_items = None
            if self.spec_peek and len(heap):
                peeked, _peek_keys = heap.peek_many(self.spec_peek)
                if candidates.size:
                    member = self.member_scratch
                    member[candidates] = True
                    peeked = peeked[~member[peeked]]
                    member[candidates] = False
                if peeked.size:
                    spec_items = peeked
            if candidates.size == 0 and spec_items is None:
                continue
            if spec_items is None:
                combined = candidates
            elif candidates.size == 0:
                combined = spec_items
            else:
                combined = np.concatenate((candidates, spec_items))
            lefts, rights = neighbours.gaps_of(combined)
            _starts, lengths, positions, deltas = segment_interpolation_deltas_batched(
                current_values, lefts, rights)
            self.pending = (candidates, spec_items)
            return lengths, positions, deltas

    def complete(self, impacts: np.ndarray) -> None:
        """Write one stacked evaluation back (mirrors ``_reheap_neighbours``)."""
        candidates, spec_items = self.pending
        self.pending = None
        refreshed = int(candidates.size)
        if refreshed:
            self.heap.update_many(candidates, impacts[:refreshed])
            if self.speculate:
                self.key_version[candidates] = self.state_version
        if spec_items is not None:
            self.spec_deviation[spec_items] = impacts[refreshed:]
            self.spec_version[spec_items] = self.state_version
        self.stats.reheap_updates += refreshed

    # ------------------------------------------------------------------ #
    def _finish(self) -> None:
        stats = self.stats
        stats.kept_points = self.kept
        if self.speculate:
            stats.extra["preview_reuse"] = {
                "fresh_key_hits": self.fresh_hits,
                "speculative_hits": self.spec_hits,
                "scalar_previews": self.preview_evals,
            }
        stats.extra["batch_size"] = self.batch_size
        self.done = True

    def result(self) -> IrregularSeries:
        """The finished series' retained points (as ``compress()`` returns)."""
        self.stats.elapsed_seconds = time.perf_counter() - self.start_time
        return self.compressor._build_result(
            self.values, self.neighbours.alive_mask(), self.name, self.stats,
            self.tracker)


def _rowwise_deviation_multi(metric, reference_rows: np.ndarray,
                             stat_rows: np.ndarray) -> np.ndarray:
    """Per-row ``D(reference_row, stat_row)`` with per-row references.

    Same arithmetic as :meth:`repro.core.impact.ResolvedMetric.rowwise`
    (``overwrite=True``), with the broadcast reference replaced by the
    per-series reference row — elementwise per row, so each row matches the
    per-series evaluation bit for bit.
    """
    kind = metric.kind
    if kind == "callable":
        fn = metric.fn
        return np.array([fn(reference, row)
                         for reference, row in zip(reference_rows, stat_rows)],
                        dtype=np.float64)
    diff = np.subtract(stat_rows, reference_rows, out=stat_rows)
    if kind == "mae":
        return np.mean(np.abs(diff, out=diff), axis=1)
    if kind == "cheb":
        return np.max(np.abs(diff, out=diff), axis=1)
    if kind == "mse":
        return np.mean(np.multiply(diff, diff, out=diff), axis=1)
    return np.sqrt(np.mean(np.multiply(diff, diff, out=diff), axis=1))


def _stacked_impacts(runners, requests, metric, statistic: str,
                     layout: StackedStateLayout) -> list[np.ndarray]:
    """Evaluate every runner's pending ReHeap request in one kernel pass."""
    states = [runner.tracker.state for runner in runners]
    slots = np.fromiter((runner.slot for runner in runners), dtype=np.int64,
                        count=len(runners))
    acf_rows = multi_state_contiguous_acf(
        states, [request[0] for request in requests],
        [request[1] for request in requests],
        [request[2] for request in requests], layout=layout, slots=slots)
    if statistic == "pacf":
        stat_rows = pacf_from_acf_batched(acf_rows)
    else:
        stat_rows = acf_rows
    counts = [request[0].size for request in requests]
    reference_rows = np.concatenate(
        [np.broadcast_to(runner.tracker.reference, (count, stat_rows.shape[1]))
         for runner, count in zip(runners, counts)])
    impacts = _rowwise_deviation_multi(metric, reference_rows, stat_rows)
    split_at = np.cumsum(counts[:-1])
    return np.split(impacts, split_at)


def lockstep_compress(compressor: CameoCompressor, series_list, names=None,
                      *, validated: bool = False) -> list[IrregularSeries]:
    """Compress many series in lock step; results identical to per-series runs.

    Parameters
    ----------
    compressor:
        The shared configuration; every series must satisfy
        :func:`lockstep_eligible` for it.
    series_list:
        Float arrays (validated per series).
    names:
        Optional per-series names (defaults to ``"series"``, like
        ``compress()`` on a plain array).
    validated:
        Set when every series is already a validated, contiguous float64
        array (the engine's chunk worker validates during dtype ingest);
        skips the redundant per-series NaN/shape scan.

    Returns
    -------
    list of IrregularSeries
        Per-series results in input order, each bit-identical (kept-point
        sets, run statistics, reference statistic) to
        ``compressor.compress(series)`` — only ``elapsed_seconds`` differs,
        since lock-step wall time is interleaved.
    """
    if names is None:
        names = ["series"] * len(series_list)
    metric = resolve_rowwise_metric(compressor.metric)
    statistic = str(compressor.statistic).lower()
    runners = [_LockstepSeries(compressor, values, name, metric,
                               validated=validated)
               for values, name in zip(series_list, names)]
    for slot, runner in enumerate(runners):
        runner.slot = slot
    # One shared buffer layout per group: kernel calls gather rows instead of
    # re-concatenating every state's vectors each round.
    layout = StackedStateLayout([runner.tracker.state for runner in runners])
    active = list(runners)
    while active:
        requesters = []
        requests = []
        for runner in active:
            request = runner.advance()
            if request is not None:
                requesters.append(runner)
                requests.append(request)
        if requesters:
            for runner, impacts in zip(
                    requesters, _stacked_impacts(requesters, requests, metric,
                                                 statistic, layout)):
                runner.complete(impacts)
        active = [runner for runner in active if not runner.done]
    return [runner.result() for runner in runners]
