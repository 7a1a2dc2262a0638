"""The CAMEO compressor (paper Section 4, Algorithm 1).

CAMEO greedily removes the point whose removal (followed by linear
re-interpolation) perturbs the tracked statistic — the ACF or PACF of the
series or of its tumbling-window aggregates — the least, until either the
user-provided deviation bound ``epsilon`` would be violated (Definition 1/2)
or a target compression ratio is reached (Definition 3).

The implementation follows the paper's structure:

* ``ExtractAggregates`` / ``GetACF``  →  :class:`repro.core.tracker.StatisticTracker`
* ``GetAllImpact`` (Algorithm 2)      →  ``StatisticTracker.initial_impacts``
* the min-heap of impacts             →  :class:`repro.core.heap.IndexedMinHeap`
* ``ReHeap`` over the blocking
  neighbourhood (Section 4.3)         →  :meth:`CameoCompressor._reheap_neighbours`
  (one compiled call, ``native.reheap``, where the native tier serves the
  configuration; the NumPy-level chain everywhere else)
* the greedy loop itself              →  :meth:`CameoCompressor._step`, one
  iteration per call — or, where the native tier serves the configuration
  and ``on_violation="stop"``, the whole loop as one GIL-free compiled call
  (``native.run_loop``) that hands back single iterations it cannot take.
  These are the loop's only two bodies: ``_step`` is the reference the
  compiled one is tested against, and every caller — the batch engine
  included — reaches them through :meth:`CameoCompressor.compress`

Speculative multi-pop previews (``batch_size`` > 1, the default)
----------------------------------------------------------------
The paper's loop evaluates exactly one candidate preview per iteration.
This implementation previews the upcoming pops *speculatively* inside the
ReHeap's batched statistic pass, so the scalar per-pop preview disappears
from the steady state:

* every ReHeap key is the candidate's exact deviation against the state it
  was computed on; a per-item version stamp marks it *fresh* until the next
  removal mutates the tracked state, and a popped candidate with a fresh
  key reuses it as its preview deviation outright;
* alongside the blocking neighbourhood, the ``batch_size - 1`` cheapest
  in-heap candidates (one non-destructive ``peek_many``) ride the same
  batched kernel call; their deviations are cached and used when they are
  popped before the next acceptance invalidates them;
* a speculative value is discarded the moment an acceptance bumps the
  state version — the decision then falls back to the scalar preview, so
  the kept-point set matches the sequential loop (``batch_size=1``, the
  exact pre-speculation code path) on every tested configuration.

With ``on_violation="skip"`` the loop additionally drains rejections in
``pop_many`` batches, re-pushing the unconsumed remainder on acceptance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .._validation import as_float_array, check_lag
from ..data.timeseries import IrregularSeries, TimeSeries
from ..exceptions import InvalidParameterError
from ..stats.descriptors import Statistic
from .blocking import resolve_blocking_hops
from .custom import GenericStatisticTracker
from .heap import NativeIndexedMinHeap, make_heap
from .impact import (
    native_run_loop,
    resolve_rowwise_metric,
    segment_interpolation_deltas,
)
from .neighbors import NeighborList
from .tracker import StatisticTracker

__all__ = ["CameoCompressor", "CompressionStats", "cameo_compress"]

#: Speculative batch size used for ``batch_size="auto"``: the accepted
#: candidate plus 7 peeked pops per batched statistic pass.
DEFAULT_SPECULATIVE_BATCH = 8


@dataclass
class CompressionStats:
    """Run statistics attached to every compression result."""

    iterations: int = 0
    removed_points: int = 0
    kept_points: int = 0
    achieved_deviation: float = 0.0
    stopped_by: str = "heap-exhausted"
    elapsed_seconds: float = 0.0
    reheap_updates: int = 0
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Plain-dict view (stored in the result's metadata)."""
        return {
            "iterations": self.iterations,
            "removed_points": self.removed_points,
            "kept_points": self.kept_points,
            "achieved_deviation": self.achieved_deviation,
            "stopped_by": self.stopped_by,
            "elapsed_seconds": self.elapsed_seconds,
            "reheap_updates": self.reheap_updates,
            **self.extra,
        }


class GreedyRun:
    """Everything one ``compress`` call reads and mutates while it runs.

    A run owns its tracker, neighbour list and heap, the speculation stamps
    (``state_version`` counts accepted removals; ``key_version[i]`` /
    ``spec_version[i]`` say against which state point ``i``'s heap key /
    cached speculative deviation was computed) and the loop's counters.
    Nothing of it lives on the compressor, so one compressor — or the codec
    wrapping one — can serve several threads at once.
    """

    __slots__ = (
        "tracker", "neighbours", "heap", "metric", "hops", "batch_size",
        "speculate", "spec_peek", "drain", "state_version", "key_version",
        "spec_version", "spec_deviation", "member_scratch", "kept",
        "max_removable", "target_kept", "iterations", "removed_points",
        "reheap_updates", "achieved_deviation", "fresh_hits", "spec_hits",
        "preview_evals", "stopped_by",
    )

    def __init__(self, tracker, neighbours: NeighborList, heap, metric,
                 hops: int, batch_size: int):
        n = neighbours.n
        self.tracker = tracker
        self.neighbours = neighbours
        self.heap = heap
        self.metric = metric
        self.hops = hops
        self.batch_size = batch_size
        self.speculate = batch_size > 1
        self.state_version = 0
        if self.speculate:
            # Initial impacts are exact deviations against the initial state:
            # every heapified key starts out fresh at version 0.
            self.key_version = np.zeros(n, dtype=np.int64)
            self.spec_version = np.full(n, -1, dtype=np.int64)
            self.spec_deviation = np.empty(n, dtype=np.float64)
            self.member_scratch = np.zeros(n, dtype=bool)
            # Peeked speculative previews ride the vectorized ReHeap kernel;
            # the generic tracker previews segments one by one, so peeking
            # would cost more scalar previews than it saves.
            self.spec_peek = (batch_size - 1
                              if isinstance(tracker, StatisticTracker) else 0)
        else:
            self.key_version = self.spec_version = None
            self.spec_deviation = self.member_scratch = None
            self.spec_peek = 0
        self.drain = False
        self.kept = n
        self.max_removable = n - 2
        self.target_kept = None
        self.iterations = self.removed_points = self.reheap_updates = 0
        self.achieved_deviation = 0.0
        self.fresh_hits = self.spec_hits = self.preview_evals = 0
        #: ``None`` while the loop runs; the reason it ended afterwards.
        self.stopped_by = None

    def advance_native(self, epsilon: float | None) -> bool:
        """Run the greedy loop in ``native.run_loop`` from where it stands.

        Returns ``True`` when the compression is over (``stopped_by`` says
        why), ``False`` when the compiled loop handed the next iteration
        back: nothing of that iteration has happened yet.
        """
        tracker = self.tracker
        (reason, _size, accepted, pops, reheap_updates, fresh_hits, spec_hits,
         preview_evals, self.achieved_deviation) = native_run_loop(
            tracker.state, tracker.reference, self.metric, self.neighbours,
            self.heap, self.hops, self.spec_peek, self.state_version,
            self.key_version, self.spec_version, self.spec_deviation, epsilon,
            self.kept, self.removed_points, self.max_removable,
            self.target_kept, self.achieved_deviation)
        self.kept -= accepted
        self.removed_points += accepted
        if self.speculate:
            self.state_version += accepted
        self.iterations += pops
        self.reheap_updates += reheap_updates
        self.fresh_hits += fresh_hits
        self.spec_hits += spec_hits
        self.preview_evals += preview_evals
        self.stopped_by = reason
        return reason is not None

    def stats(self) -> CompressionStats:
        """The finished run's :class:`CompressionStats`."""
        stats = CompressionStats(
            iterations=self.iterations, removed_points=self.removed_points,
            kept_points=self.kept, achieved_deviation=self.achieved_deviation,
            stopped_by=self.stopped_by or "heap-exhausted",
            reheap_updates=self.reheap_updates)
        if self.speculate:
            stats.extra["preview_reuse"] = {
                "fresh_key_hits": self.fresh_hits,
                "speculative_hits": self.spec_hits,
                "scalar_previews": self.preview_evals,
            }
        stats.extra["batch_size"] = self.batch_size
        return stats


class CameoCompressor:
    """Autocorrelation-preserving lossy compressor.

    Parameters
    ----------
    max_lag:
        Number of lags ``L`` of the preserved ACF/PACF.
    epsilon:
        Maximum allowed deviation ``D(S(X), S(X'))``.  May be ``None`` when a
        ``target_ratio`` is given (compression-centric mode, Definition 3).
    metric:
        Deviation measure ``D`` — a registered metric name (``"mae"``,
        ``"cheb"``, ``"rmse"``, ...) or a callable ``(reference, candidate)
        -> float``.  The paper's default is MAE.
    statistic:
        ``"acf"`` (default), ``"pacf"``, or any
        :class:`repro.stats.descriptors.Statistic` instance.  Statistic names
        use the paper's incremental aggregate maintenance; Statistic objects
        are tracked through the (slower but fully general)
        :class:`repro.core.custom.GenericStatisticTracker`.
    agg_window:
        Tumbling-window size ``kappa``; values > 1 preserve the statistic of
        the window aggregates (Definition 2).
    agg:
        Aggregation function for ``agg_window > 1``: ``"mean"`` (default),
        ``"sum"``, ``"max"``, ``"min"``.
    blocking:
        Blocking-neighbourhood specification (see
        :func:`repro.core.blocking.resolve_blocking_hops`); default
        ``"5logn"``.  For aggregated statistics the hop count is additionally
        multiplied by ``blocking_window_scale`` so the neighbourhood covers
        several aggregation windows, following the paper's Section 5.4.
    blocking_window_scale:
        Multiplier applied to the hop count when ``agg_window > 1``.
        ``None`` (default) uses ``min(agg_window, 2)`` — the paper multiplies
        by the full window size, which its Cython kernels make affordable;
        the capped default keeps the pure-Python inner loop tractable while
        still spanning multiple windows (the error bound itself is always
        enforced exactly regardless of this setting).
    target_ratio:
        Stop once ``n / n'`` reaches this ratio (Definition 3).  When both
        ``epsilon`` and ``target_ratio`` are given, whichever is hit first
        stops the compression.
    on_violation:
        ``"stop"`` (paper behaviour: terminate at the first candidate whose
        removal would violate ``epsilon``) or ``"skip"`` (leave that point in
        place, keep trying others until the heap runs dry).
    min_keep:
        Never remove points below this count (defaults to 2: the endpoints).
    batch_size:
        Speculative multi-pop preview width.  ``"auto"`` (default) uses
        :data:`DEFAULT_SPECULATIVE_BATCH`; an explicit integer sets how many
        upcoming pops are previewed per batched statistic pass (the popped
        candidate plus ``batch_size - 1`` peeked ones).  ``1`` disables
        speculation entirely and runs the exact pre-speculation sequential
        loop — the escape hatch the regression tests compare against.
    """

    def __init__(self, max_lag: int, epsilon: float | None = 0.01, *,
                 metric="mae", statistic: str = "acf", agg_window: int = 1,
                 agg: str = "mean", blocking="5logn", blocking_window_scale: int | None = None,
                 target_ratio: float | None = None,
                 on_violation: str = "stop", min_keep: int = 2,
                 batch_size: int | str = "auto"):
        if epsilon is None and target_ratio is None:
            raise InvalidParameterError(
                "provide an epsilon (error-bounded mode) and/or a target_ratio "
                "(compression-centric mode)")
        if epsilon is not None and epsilon < 0:
            raise InvalidParameterError("epsilon must be >= 0")
        if target_ratio is not None and target_ratio < 1.0:
            raise InvalidParameterError("target_ratio must be >= 1")
        if on_violation not in ("stop", "skip"):
            raise InvalidParameterError("on_violation must be 'stop' or 'skip'")
        if min_keep < 2:
            raise InvalidParameterError("min_keep must be at least 2")
        self.max_lag = int(max_lag)
        self.epsilon = epsilon
        self.metric = metric
        self.statistic = statistic
        self.agg_window = int(agg_window)
        self.agg = agg
        self.blocking = blocking
        if blocking_window_scale is not None and blocking_window_scale < 1:
            raise InvalidParameterError("blocking_window_scale must be >= 1")
        self.blocking_window_scale = blocking_window_scale
        self.target_ratio = target_ratio
        self.on_violation = on_violation
        self.min_keep = int(min_keep)
        if batch_size != "auto":
            batch_size = int(batch_size)
            if batch_size < 1:
                raise InvalidParameterError("batch_size must be >= 1 or 'auto'")
        self.batch_size = batch_size

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def compress(self, series) -> IrregularSeries:
        """Compress a series and return the retained points.

        ``series`` may be a plain array-like or a
        :class:`repro.data.timeseries.TimeSeries`.
        """
        name = "series"
        if isinstance(series, TimeSeries):
            name = series.name
            values = series.values
        else:
            values = series
        values = as_float_array(values, name="series")
        n = values.size
        start_time = time.perf_counter()

        if n < 4 or n <= self.min_keep:
            # Nothing can be removed; return the identity representation.
            stats = CompressionStats(kept_points=n, stopped_by="too-short",
                                     elapsed_seconds=time.perf_counter() - start_time)
            return self._build_result(values, np.ones(n, dtype=bool), name, stats, None)

        if isinstance(self.statistic, Statistic):
            tracker: StatisticTracker | GenericStatisticTracker = GenericStatisticTracker(
                values, self.statistic, agg_window=self.agg_window, agg=self.agg)
        else:
            effective_lag = self._effective_max_lag(n)
            tracker = StatisticTracker(values, effective_lag, statistic=self.statistic,
                                       agg_window=self.agg_window, agg=self.agg)
        hops = resolve_blocking_hops(self.blocking, n)
        if self.agg_window > 1:
            scale = (self.blocking_window_scale if self.blocking_window_scale is not None
                     else min(self.agg_window, 2))
            hops *= int(scale)
        run = self._run(values, tracker, hops)
        stats = run.stats()
        stats.elapsed_seconds = time.perf_counter() - start_time
        return self._build_result(values, run.neighbours.alive_mask(), name,
                                  stats, tracker)

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #
    def _resolve_batch_size(self) -> int:
        if self.batch_size == "auto":
            return DEFAULT_SPECULATIVE_BATCH
        return int(self.batch_size)

    def _run(self, values: np.ndarray, tracker: StatisticTracker, hops: int
             ) -> GreedyRun:
        n = values.size
        # Resolve the deviation metric once per run; every inner-loop call
        # takes the pre-resolved object instead of re-dispatching on the name.
        metric = resolve_rowwise_metric(self.metric)
        # make_heap resolves the kernel tier: the native heap when the
        # compiled tier is active, the hybrid list heap otherwise.  Both
        # evolve identical slot layouts, so pop order cannot change.
        run = GreedyRun(tracker, NeighborList(n), make_heap(n), metric, hops,
                        self._resolve_batch_size())
        positions, impacts = tracker.initial_impacts(metric)
        run.heap.heapify(positions, impacts)
        run.max_removable = n - max(self.min_keep, 2)
        if self.target_ratio is not None:
            run.target_kept = max(int(np.ceil(n / self.target_ratio)),
                                  self.min_keep, 2)
        # With on_violation="skip" and an error bound, long rejection runs
        # drain the heap; pop_many consumes them in batches and the
        # unconsumed remainder is re-pushed on the first acceptance.
        run.drain = (run.speculate and self.on_violation == "skip"
                     and self.epsilon is not None)

        if self._native_loop_serves(run):
            # The compiled loop runs until the compression stops or until
            # it meets an iteration it does not take; that one runs here.
            while not run.advance_native(self.epsilon):
                self._step(run)
                if run.stopped_by is not None:
                    break
        else:
            step = self._step
            heap = run.heap
            while heap and run.stopped_by is None:
                step(run)
        return run

    def _native_loop_serves(self, run: GreedyRun) -> bool:
        """Does ``native.run_loop`` run this configuration's greedy loop?

        It does where the compiled tier serves the ReHeap step
        (:func:`repro.core.impact.native_serves`, on the native heap) and
        the loop takes one pop per iteration and stops at the first
        violation.  A subclass that supplies its own ReHeap step keeps the
        Python loop — the compiled one would never call it.
        """
        return (type(self)._reheap_neighbours
                is CameoCompressor._reheap_neighbours
                and (self.epsilon is None or self.on_violation == "stop")
                and isinstance(run.heap, NativeIndexedMinHeap)
                and isinstance(run.tracker, StatisticTracker)
                and run.tracker.native_serves(run.metric))

    def _step(self, run: GreedyRun) -> None:
        """One iteration of the greedy loop (Algorithm 1's loop body).

        Pop the cheapest candidate (a batch of them while draining
        rejections), take its deviation — from its heap key or the
        speculative cache when those are fresh, from a scalar preview
        otherwise — and either stop / skip at the error bound or commit the
        removal and ReHeap its neighbourhood.  Sets ``run.stopped_by`` when
        the compression is over.
        """
        heap = run.heap
        tracker = run.tracker
        neighbours = run.neighbours
        epsilon = self.epsilon
        speculate = run.speculate
        if run.drain:
            batch_items, batch_keys = heap.pop_many(run.batch_size)
            queue = list(zip(batch_items.tolist(), batch_keys.tolist()))
        else:
            queue = (heap.pop(),)
        for consumed, (candidate, key) in enumerate(queue):
            run.iterations += 1
            change_start, change_deltas = segment_interpolation_deltas(
                tracker.current_values, neighbours.left_of(candidate),
                neighbours.right_of(candidate))
            if change_deltas.size == 0:
                # Removing the point does not change the reconstruction at
                # all (e.g. it already lies on the interpolation line).
                deviation = run.achieved_deviation
            elif speculate and run.key_version[candidate] == run.state_version:
                # The heap key was computed against the current state and
                # neighbourhood — it *is* the preview deviation.
                deviation = key
                run.fresh_hits += 1
            elif speculate and run.spec_version[candidate] == run.state_version:
                deviation = float(run.spec_deviation[candidate])
                run.spec_hits += 1
            else:
                new_statistic = tracker.preview(change_start, change_deltas)
                deviation = tracker.deviation(run.metric, new_statistic)
                run.preview_evals += 1

            if epsilon is not None and deviation >= epsilon:
                if self.on_violation == "stop":
                    run.stopped_by = "error-bound"
                    return
                # ``skip``: permanently leave this point in place.  The
                # state is untouched, so the remaining speculative batch
                # stays valid.
                continue

            # Commit the removal.
            if change_deltas.size:
                tracker.apply(change_start, change_deltas)
            neighbours.remove(candidate)
            run.kept -= 1
            run.removed_points += 1
            run.achieved_deviation = deviation
            if speculate:
                # Any removal invalidates every outstanding speculative
                # preview (the tracked state and/or a neighbourhood
                # changed); bumping the version discards them all.
                run.state_version += 1

            if run.removed_points >= run.max_removable:
                run.stopped_by = "min-keep"
                return
            if run.target_kept is not None and run.kept <= run.target_kept:
                run.stopped_by = "target-ratio"
                return

            remainder = queue[consumed + 1:]
            if remainder:
                heap.push_many(
                    np.fromiter((item for item, _key in remainder),
                                dtype=np.int64, count=len(remainder)),
                    np.fromiter((key for _item, key in remainder),
                                dtype=np.float64, count=len(remainder)))
            run.reheap_updates += self._reheap_neighbours(run, candidate)
            return

    def _reheap_neighbours(self, run: GreedyRun, removed: int) -> int:
        """Refresh the impacts of surviving points near ``removed``.

        Where the compiled tier serves the configuration this is one call —
        removed index in, heap updated out (``tracker.reheap``); everywhere
        else, and for a request the compiled call declines, the same steps
        run as :meth:`_reheap_chain`.  Returns the number of re-keyed
        neighbours.
        """
        refreshed = run.tracker.reheap(
            run.metric, run.neighbours, run.heap, removed, run.hops,
            run.spec_peek, run.state_version, run.key_version,
            run.spec_version, run.spec_deviation)
        if refreshed is None:
            refreshed = self._reheap_chain(run, removed)
        return refreshed

    def _reheap_chain(self, run: GreedyRun, removed: int) -> int:
        """The ReHeap step on NumPy-level primitives.

        Fused pipeline: the surviving neighbourhood is collected once (one
        windowed gather over the alive mask), the in-heap filter is a
        vectorized mask query, all neighbour segment deltas and their
        impacts are computed in one batched kernel call
        (``tracker.gap_impacts``), and the heap keys in one ``update_many``.

        When speculation is on, the ``batch_size - 1`` cheapest in-heap
        candidates (peeked non-destructively) join the same kernel call:
        their deviations are cached — *not* written to the heap, which would
        perturb the pop order — and reused if they are popped before the
        next acceptance.
        """
        neighbours = run.neighbours
        heap = run.heap
        candidates = neighbours.hops_array(removed, run.hops)
        if candidates.size:
            candidates = candidates[heap.contains_mask(candidates)]
        spec_items = None
        if run.spec_peek and len(heap):
            peeked, _peek_keys = heap.peek_many(run.spec_peek)
            if candidates.size:
                # Membership test via a reusable boolean scratch (np.isin
                # costs ~25x as much at these sizes).
                member = run.member_scratch
                member[candidates] = True
                peeked = peeked[~member[peeked]]
                member[candidates] = False
            if peeked.size:
                spec_items = peeked
        if candidates.size == 0 and spec_items is None:
            return 0
        if spec_items is None:
            combined = candidates
        elif candidates.size == 0:
            combined = spec_items
        else:
            combined = np.concatenate((candidates, spec_items))
        lefts, rights = neighbours.gaps_of(combined)
        impacts = run.tracker.gap_impacts(lefts, rights, run.metric)
        refreshed = int(candidates.size)
        if refreshed:
            heap.update_many(candidates, impacts[:refreshed])
            if run.speculate:
                run.key_version[candidates] = run.state_version
        if spec_items is not None:
            run.spec_deviation[spec_items] = impacts[refreshed:]
            run.spec_version[spec_items] = run.state_version
        return refreshed

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _effective_max_lag(self, n: int) -> int:
        """Clamp ``max_lag`` so it is valid for the tracked series length."""
        tracked_length = n if self.agg_window == 1 else n // self.agg_window
        if tracked_length < 3:
            raise InvalidParameterError(
                f"series too short ({n} points) for agg_window={self.agg_window}")
        lag = min(self.max_lag, tracked_length - 1)
        return check_lag(lag, tracked_length)

    def _build_result(self, values: np.ndarray, alive: np.ndarray, name: str,
                      stats: CompressionStats, tracker: StatisticTracker | None
                      ) -> IrregularSeries:
        indices = np.flatnonzero(alive)
        metadata = {
            "compressor": "CAMEO",
            "statistic": (self.statistic if isinstance(self.statistic, str)
                          else self.statistic.name),
            "metric": self.metric if isinstance(self.metric, str) else getattr(
                self.metric, "__name__", "custom"),
            "epsilon": self.epsilon,
            "target_ratio": self.target_ratio,
            "max_lag": self.max_lag,
            "agg_window": self.agg_window,
            "agg": self.agg,
            "blocking": self.blocking,
            **stats.as_dict(),
        }
        if tracker is not None:
            metadata["reference_statistic"] = tracker.reference.tolist()
        return IrregularSeries(indices=indices, values=values[indices],
                               original_length=values.size,
                               name=f"cameo({name})", metadata=metadata)


def cameo_compress(series, max_lag: int, epsilon: float | None = 0.01, **kwargs
                   ) -> IrregularSeries:
    """Compress a series with CAMEO (functional convenience wrapper).

    Greedily removes the points whose linear re-interpolation perturbs the
    tracked statistic (ACF by default, PACF with ``statistic="pacf"``) the
    least, until removing any further point would violate ``epsilon``.

    Parameters
    ----------
    series:
        1-D array-like or :class:`repro.data.timeseries.TimeSeries`.
    max_lag:
        Number of lags ``L`` of the preserved statistic.
    epsilon:
        Maximum allowed statistic deviation (``None`` with a
        ``target_ratio`` for compression-centric mode).
    **kwargs:
        Every :class:`CameoCompressor` option: ``metric``, ``statistic``,
        ``agg_window``, ``agg``, ``blocking``, ``target_ratio``,
        ``on_violation``, ``min_keep``, ``batch_size``.

    Returns
    -------
    repro.data.timeseries.IrregularSeries
        The retained points.  ``metadata`` carries the run statistics
        (``achieved_deviation``, ``stopped_by``, ``kept_points``, ...) and
        the reference statistic; ``decompress()`` rebuilds the full-length
        reconstruction; ``compression_ratio()`` reports ``n / n'``.

    See Also
    --------
    CameoCompressor : the configurable class behind this wrapper.
    repro.codecs.get_codec : the same method behind the unified codec layer.

    Examples
    --------
    >>> from repro import cameo_compress
    >>> import numpy as np
    >>> x = np.sin(np.arange(200) * 2 * np.pi / 20)
    >>> result = cameo_compress(x, max_lag=20, epsilon=0.05)
    >>> result.compression_ratio() > 1.0
    True
    """
    return CameoCompressor(max_lag, epsilon, **kwargs).compress(series)


def compress_multivariate(columns: Sequence, max_lag: int, epsilon: float | None = 0.01,
                          **kwargs) -> list[IrregularSeries]:
    """Compress several univariate series with a shared configuration.

    The paper notes CAMEO extends to multivariate series by preserving the
    ACF of each component; this helper applies the same compressor
    column-by-column and returns the per-column results.
    """
    compressor = CameoCompressor(max_lag, epsilon, **kwargs)
    return [compressor.compress(column) for column in columns]
