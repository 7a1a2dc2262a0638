"""``native.reheap`` must be indistinguishable from the Python ReHeap chain.

The compiled tier's whole-step call (removed index in, heap updated out)
replaces ``CameoCompressor._reheap_chain`` where the native tier serves the
configuration.  Twin compressors run the same series — one through the
fused call, one through the chain — and after *every* accepted removal the
heap's slot layout, the item→slot map, the speculation stamp arrays and the
return value must be equal bit for bit; a third twin runs the chain on the
NumPy tier (hybrid heap), which pins the layouts across tiers too.

Randomised over series shape, length, lag count, blocking, metric,
speculation width and stopping mode (hypothesis), plus the corners a random
draw rarely lands on.  Pointer chasing at the array ends is exactly what
the CI sanitizer leg runs this file for.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _kernels
from repro.core.compressor import CameoCompressor, GreedyRun
from repro.core.heap import make_heap
from repro.core.impact import (
    resolve_rowwise_metric,
    segment_interpolation_deltas,
)
from repro.core.neighbors import NeighborList
from repro.core.tracker import StatisticTracker

pytestmark = pytest.mark.skipif(not _kernels.native_available(),
                                reason="native extension not built")

METRICS = ("mae", "cheb", "mse", "rmse")


@pytest.fixture(autouse=True)
def _restore_tier():
    yield
    _kernels.set_native_enabled(None)


def _stamp(array):
    return None if array is None else array.tobytes()


class _Twin(CameoCompressor):
    """Records the observable state after every ReHeap step.  (Supplying
    its own ReHeap step also keeps it on the Python loop: see
    ``test_native_run_loop.py`` for the compiled one.)"""

    fused = True
    may_decline = False

    def compress(self, series):
        self.trace = []
        return super().compress(series)

    def _reheap_chain(self, *args):
        if self.fused and not self.may_decline:
            raise AssertionError("native.reheap declined a request it serves")
        return super()._reheap_chain(*args)

    def _reheap_neighbours(self, run, removed):
        if self.fused:
            refreshed = super()._reheap_neighbours(run, removed)
        else:
            refreshed = self._reheap_chain(run, removed)
        self.trace.append(_observe(run, refreshed))
        return refreshed


def _observe(run, refreshed):
    """Everything a ReHeap step may write, as comparable bytes."""
    heap = run.heap
    speculate = run.speculate
    return (refreshed, len(heap), heap.keys().tobytes(),
            heap.items().tobytes(), heap._slot_of.tobytes(),
            _stamp(run.key_version),
            _stamp(run.spec_version),
            # only the stamped entries of the deviation cache are defined
            _stamp(np.where(run.spec_version == run.state_version,
                            run.spec_deviation, 0.0)
                   if speculate else None))


def _run_twins(values, **config):
    """Fused, chain-on-native and chain-on-NumPy runs of one configuration."""
    runs = []
    for native, fused in ((True, True), (True, False), (False, False)):
        _kernels.set_native_enabled(native)
        twin = _Twin(**config)
        twin.fused = fused
        runs.append((twin, twin.compress(values)))
    return runs


def _assert_twins_agree(values, **config):
    (fused, fused_result), *others = _run_twins(values, **config)
    for twin, result in others:
        assert len(twin.trace) == len(fused.trace)
        for step, (got, want) in enumerate(zip(fused.trace, twin.trace)):
            assert got == want, f"ReHeap step {step} diverged"
        assert result.indices.tolist() == fused_result.indices.tolist()
        for key in ("iterations", "removed_points", "kept_points",
                    "stopped_by", "achieved_deviation", "reheap_updates",
                    "batch_size"):
            assert result.metadata[key] == fused_result.metadata[key], key
        assert (result.metadata.get("preview_reuse")
                == fused_result.metadata.get("preview_reuse"))
    return fused


def _series(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    t = np.arange(n)
    if kind == "seasonal":
        return 2.0 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.3, n)
    if kind == "walk":
        return np.cumsum(rng.normal(0, 1.0, n))
    if kind == "steps":
        # long runs of exactly tied impacts (zero on the flats)
        return np.repeat(rng.integers(0, 4, n // 8 + 1), 8)[:n].astype(float)
    if kind == "rounded":
        return np.round(rng.normal(10.0, 2.0, n), 1)
    return rng.normal(0, 1.0, n) * 10.0 ** rng.integers(-3, 4, n)


class TestTwinRuns:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 31))
    def test_every_step_matches_the_python_chain(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([rng.integers(5, 30), rng.integers(30, 400)]))
        kind = str(rng.choice(["seasonal", "walk", "steps", "rounded",
                               "scaled"]))
        config = dict(
            max_lag=int(rng.integers(1, 30)),
            epsilon=float(rng.choice([0.01, 0.05, 0.3])),
            metric=str(rng.choice(METRICS)),
            blocking=rng.choice(["5logn", "logn", 1, 3, n, 10 * n, None]),
            batch_size=rng.choice(["auto", 1, 2, 5, 16]),
            on_violation=str(rng.choice(["stop", "skip"])),
        )
        if config["blocking"] not in ("5logn", "logn", None):
            config["blocking"] = int(config["blocking"])
        if config["batch_size"] != "auto":
            config["batch_size"] = int(config["batch_size"])
        if rng.integers(0, 3) == 0:
            config.update(epsilon=None,
                          target_ratio=float(rng.choice([1.5, 4.0, 50.0])))
        _assert_twins_agree(_series(rng, n, kind), **config)

    @pytest.mark.parametrize("metric", METRICS)
    def test_benchmark_shape(self, metric):
        """n=500, L=24, 5logn: nearly every ReHeap is heap-scale (rebuild)."""
        rng = np.random.default_rng(7)
        fused = _assert_twins_agree(_series(rng, 500, "seasonal"), max_lag=24,
                                    epsilon=0.02, metric=metric)
        rebuilds = sum(refreshed * 8 >= size
                       for refreshed, size, *_ in fused.trace if refreshed)
        assert rebuilds > 0.9 * len(fused.trace)

    def test_both_sides_of_the_rebuild_switch(self):
        """Narrow blocking on a long series sifts until the heap has shrunk
        to eight times the neighbourhood, then rebuilds."""
        rng = np.random.default_rng(11)
        fused = _assert_twins_agree(
            _series(rng, 700, "walk"), max_lag=12, epsilon=None,
            target_ratio=40.0, blocking=3)
        rebuilt = {refreshed * 8 >= size
                   for refreshed, size, *_ in fused.trace if refreshed}
        assert rebuilt == {True, False}

    @pytest.mark.parametrize("config", [
        dict(batch_size=1),
        dict(on_violation="skip", epsilon=0.004),
        dict(on_violation="skip", batch_size=3, epsilon=0.004),
        dict(epsilon=None, target_ratio=6.0),
        dict(blocking=10_000),
        dict(blocking=None, batch_size=64),
        dict(min_keep=40),
    ], ids=["sequential", "skip-drain", "skip-drain-3", "target-ratio",
            "hops-over-n", "no-blocking-wide-peek", "min-keep"])
    def test_loop_modes(self, config):
        rng = np.random.default_rng(21)
        options = {"max_lag": 16, "epsilon": 0.03, **config}
        _assert_twins_agree(_series(rng, 260, "seasonal"), **options)

    @pytest.mark.parametrize("kind", ["steps", "rounded"])
    def test_tied_keys(self, kind):
        """Exact ties: the rebuild's order among equal keys decides which
        point goes first."""
        rng = np.random.default_rng(5)
        _assert_twins_agree(_series(rng, 240, kind), max_lag=10,
                            epsilon=0.05)

    @pytest.mark.parametrize("n", [4, 5, 6, 9])
    def test_series_barely_longer_than_the_endpoints(self, n):
        """Every removal is adjacent to one or both series ends."""
        rng = np.random.default_rng(n)
        _assert_twins_agree(rng.normal(0, 1, n), max_lag=3, epsilon=None,
                            target_ratio=float(n))

    def test_everything_else_still_takes_the_chain(self):
        """PACF, aggregated windows and callable metrics are not served:
        the fused twin must fall through, with identical results."""
        rng = np.random.default_rng(3)
        values = _series(rng, 200, "seasonal")
        for unserved in (dict(statistic="pacf"), dict(agg_window=2),
                         dict(metric=lambda a, b: float(np.abs(a - b).mean()))):
            _kernels.set_native_enabled(True)
            twin = _Twin(max_lag=8, epsilon=0.05, **unserved)
            twin.may_decline = True
            result = twin.compress(values)
            reference = CameoCompressor(max_lag=8, epsilon=0.05,
                                        **unserved).compress(values)
            assert result.indices.tolist() == reference.indices.tolist()


# --------------------------------------------------------------------- #
# one ReHeap step on hand-built state
# --------------------------------------------------------------------- #
def _mid_run(seed: int, *, n: int = 80, max_lag: int = 12, removals: int = 25,
             batch_size: int = 8, metric: str = "mae", heap_keys=None,
             reference=None, endpoints_in_heap: bool = False):
    """A compressor and its run (tracker, neighbour list, heap, stamps)
    ``removals`` accepted pops in, built the way ``CameoCompressor._run``
    builds them.  Deterministic in its arguments: two calls give twin
    states."""
    rng = np.random.default_rng(seed)
    values = _series(rng, n, "seasonal")
    tracker = StatisticTracker(values, max_lag)
    if reference is not None:
        tracker.reference[:] = reference
    neighbours = NeighborList(n)
    heap = make_heap(n)
    positions, impacts = tracker.initial_impacts(metric)
    heap.heapify(positions, impacts if heap_keys is None
                 else heap_keys[:positions.size])
    if endpoints_in_heap:
        heap.push(0, np.inf)
        heap.push(n - 1, np.inf)
    compressor = CameoCompressor(max_lag, 0.05, metric=metric,
                                 batch_size=batch_size)
    run = GreedyRun(tracker, neighbours, heap, resolve_rowwise_metric(metric),
                    0, batch_size)
    if run.speculate:
        run.spec_deviation[:] = 0.0
    removed = None
    for removed in rng.permutation(np.arange(1, n - 1))[:removals].tolist():
        heap.remove(removed)
        start, deltas = segment_interpolation_deltas(
            tracker.current_values, neighbours.left_of(removed),
            neighbours.right_of(removed))
        tracker.apply(start, deltas)
        neighbours.remove(removed)
        run.state_version += 1
    return compressor, run, removed


def _step_twins(hops: int, *, around=None, **state):
    """One ReHeap step through each path on twin states; returns the fused
    side's ``(observation, heap)`` after asserting both sides agree.  The
    step is taken around the last removed point, or ``around(neighbours)``.
    """
    observations = []
    for fused in (True, False):
        _kernels.set_native_enabled(True)
        compressor, run, removed = _mid_run(**state)
        run.hops = hops
        if around is not None:
            removed = around(run.neighbours)
        step = (compressor._reheap_neighbours if fused
                else compressor._reheap_chain)
        refreshed = step(run, removed)
        assert run.heap.check_invariants()
        observations.append((_observe(run, refreshed), run.heap))
    assert observations[0][0] == observations[1][0]
    return observations[0]


class TestSingleSteps:
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("special", [np.nan, np.inf])
    def test_nan_and_inf_impacts(self, metric, special):
        """A poisoned reference lag makes every new key NaN (or +inf): the
        rebuild sorts NaN last, the sift path leaves a NaN where it is."""
        reference = np.full(12, 0.1)
        reference[4] = special
        for hops in (2, 40):   # sift path / rebuild
            (refreshed, _size, keys, *_), _heap = _step_twins(
                hops, seed=1, metric=metric, reference=reference)
            assert refreshed
            fresh = np.frombuffer(keys, dtype=np.float64)
            assert (np.isnan(fresh) if np.isnan(special)
                    else np.isinf(fresh)).sum() >= refreshed

    def test_special_keys_already_in_the_heap(self):
        """±inf, ±0.0, NaN and duplicates among the keys that are *not*
        re-keyed: the rebuild must order them as np.argsort(stable) does."""
        rng = np.random.default_rng(2)
        pool = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, 1.0, 2.5])
        heap_keys = rng.choice(pool, 200)
        for hops in (1, 50):
            _observation, heap = _step_twins(hops, seed=2, n=120,
                                             heap_keys=heap_keys)
            assert len(heap)

    def test_empty_neighbourhood_with_a_peek_and_the_reverse(self):
        # hops=0: nothing to re-key, the peeked items still get stamped
        (refreshed, *_rest), _heap = _step_twins(0, seed=3)
        assert refreshed == 0
        # no speculation: neighbours re-keyed, nothing peeked
        (refreshed, *_rest), _heap = _step_twins(6, seed=3, batch_size=1)
        assert refreshed
        # neither: the step is a no-op returning 0
        (refreshed, *_rest), _heap = _step_twins(0, seed=3, batch_size=1)
        assert refreshed == 0

    def test_peek_wider_than_the_heap_and_hops_wider_than_the_series(self):
        (refreshed, size, *_rest), _heap = _step_twins(
            10_000, seed=4, n=30, removals=20, batch_size=64)
        assert refreshed == size   # every heap item is a neighbour

    @pytest.mark.parametrize("removals", [1, 77])
    def test_first_and_last_removal(self, removals):
        _step_twins(5, seed=5, removals=removals)

    def test_removed_point_with_stale_pointers(self):
        """``NeighborList.gap`` walks a removed point's stale pointers to
        the surviving anchors; the C walk must land on the same ones."""
        def inside_the_widest_gap(neighbours):
            dead = np.flatnonzero(~neighbours.alive_mask())
            widths = [np.subtract(*neighbours.gap(int(index))[::-1])
                      for index in dead]
            return int(dead[int(np.argmax(widths))])

        (refreshed, *_rest), _heap = _step_twins(
            4, seed=6, removals=60, around=inside_the_widest_gap)
        assert refreshed

    def test_series_endpoints_are_never_neighbours(self):
        """Even when a caller keeps the two boundary points in the heap
        (pinned at +inf), a neighbourhood that reaches them leaves them
        alone — their gaps run off the series."""
        (refreshed, size, *_rest), heap = _step_twins(
            10_000, seed=8, n=40, removals=10, endpoints_in_heap=True)
        assert refreshed == size - 2
        assert heap.key_of(0) == heap.key_of(39) == np.inf

    def test_live_point_as_the_centre(self):
        """A surviving centre is bracketed by its own neighbours and is
        not part of its neighbourhood."""
        def a_survivor(neighbours):
            return int(neighbours.alive_indices()[5])

        _step_twins(3, seed=7, around=a_survivor)
