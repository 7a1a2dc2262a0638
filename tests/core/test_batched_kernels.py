"""Regression tests for the batched CAMEO inner-loop kernels.

The fused ReHeap pipeline (vectorized neighbourhood masks, batched segment
deltas, the multi-segment ACF impact kernel, ``update_many``) must be
behaviourally indistinguishable from the straightforward per-candidate
implementation it replaced — up to and including the greedy compressor
producing identical kept-point sets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CameoCompressor,
    IndexedMinHeap,
    NeighborList,
    ResolvedMetric,
    batched_contiguous_acf,
    batched_single_change_impacts,
    metric_rowwise,
    resolve_rowwise_metric,
    segment_interpolation_deltas,
    segment_interpolation_deltas_batched,
)
from repro.core.tracker import StatisticTracker
from repro.exceptions import InvalidParameterError
from repro.stats.aggregates import ACFAggregateState


def _series(seed: int, n: int = 600) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return (3.0 + np.sin(2 * np.pi * t / 24) + rng.normal(0.0, 0.3, n))


class TestResolvedMetric:
    def test_resolves_names_once(self):
        resolved = resolve_rowwise_metric("MAE ")
        assert isinstance(resolved, ResolvedMetric)
        assert resolved.kind == "mae"
        # Resolving a resolved metric is the identity.
        assert resolve_rowwise_metric(resolved) is resolved

    def test_chebyshev_aliases_collapse(self):
        for alias in ("cheb", "chebyshev", "max"):
            assert resolve_rowwise_metric(alias).kind == "cheb"

    def test_unknown_name_raises(self):
        with pytest.raises(InvalidParameterError):
            resolve_rowwise_metric("definitely-not-a-metric")

    def test_callable_passthrough(self):
        fn = lambda a, b: float(np.sum(np.abs(a - b)))  # noqa: E731
        resolved = resolve_rowwise_metric(fn)
        assert resolved.kind == "callable"
        reference = np.array([1.0, 2.0])
        candidate = np.array([1.5, 1.0])
        assert resolved.single(reference, candidate) == pytest.approx(1.5)

    @pytest.mark.parametrize("name", ["mae", "cheb", "mse", "rmse"])
    def test_single_matches_rowwise(self, name):
        rng = np.random.default_rng(0)
        reference = rng.normal(size=12)
        candidate = rng.normal(size=12)
        resolved = resolve_rowwise_metric(name)
        assert resolved.single(reference, candidate) == pytest.approx(
            float(metric_rowwise(name, reference, candidate)[0]), abs=0.0)


class TestSegmentDeltasBatched:
    def test_matches_per_gap_function_exactly(self):
        current = _series(1, 200)
        lefts = np.array([0, 10, 50, 120, 197])
        rights = np.array([5, 12, 51, 140, 199])
        starts, lengths, positions, deltas = segment_interpolation_deltas_batched(
            current, lefts, rights)
        offset = 0
        for index, (left, right) in enumerate(zip(lefts, rights)):
            expected_start, expected_deltas = segment_interpolation_deltas(
                current, int(left), int(right))
            assert starts[index] == expected_start
            assert lengths[index] == expected_deltas.size
            segment = deltas[offset:offset + expected_deltas.size]
            offset += expected_deltas.size
            # Bit-exact, not just approximately equal.
            assert segment.tolist() == expected_deltas.tolist()
        assert offset == deltas.size
        assert np.array_equal(
            positions,
            np.concatenate([np.arange(l + 1, r) for l, r in zip(lefts, rights)
                            if r - l >= 2]))

    def test_all_empty_gaps(self):
        current = _series(2, 50)
        starts, lengths, positions, deltas = segment_interpolation_deltas_batched(
            current, np.array([3, 7]), np.array([4, 8]))
        assert lengths.tolist() == [0, 0]
        assert positions.size == 0 and deltas.size == 0
        assert starts.tolist() == [4, 8]


class TestBatchedContiguousAcf:
    def test_singles_bit_identical_to_single_change_kernel(self):
        x = _series(3, 400)
        state = ACFAggregateState(x, 20)
        positions = np.array([0, 5, 100, 395, 399], dtype=np.int64)
        deltas = np.array([0.5, -1.0, 0.25, 2.0, -0.75])
        acf_matrix = batched_contiguous_acf(
            state, np.ones(positions.size, dtype=np.int64), positions, deltas)
        reference = state.acf()
        impacts = metric_rowwise("mae", reference, acf_matrix)
        expected = batched_single_change_impacts(state, positions, deltas,
                                                 reference, "mae")
        assert impacts.tolist() == expected.tolist()

    def test_multi_segments_match_contiguous_preview(self):
        x = _series(4, 500)
        state = ACFAggregateState(x, 25)
        segments = [(10, 4), (100, 1), (240, 30), (470, 29), (0, 3)]
        rng = np.random.default_rng(9)
        lengths = np.array([m for _s, m in segments], dtype=np.int64)
        positions = np.concatenate([np.arange(s, s + m) for s, m in segments])
        deltas = rng.normal(0.0, 0.5, positions.size)
        acf_matrix = batched_contiguous_acf(state, lengths, positions, deltas)
        offset = 0
        for index, (start, m) in enumerate(segments):
            expected = state.preview_acf_contiguous(start, deltas[offset:offset + m])
            offset += m
            np.testing.assert_allclose(acf_matrix[index], expected,
                                       rtol=1e-10, atol=1e-12)

    def test_zero_length_segments_get_current_acf(self):
        x = _series(5, 300)
        state = ACFAggregateState(x, 10)
        lengths = np.array([0, 2, 0], dtype=np.int64)
        positions = np.array([50, 51], dtype=np.int64)
        deltas = np.array([0.3, -0.4])
        acf_matrix = batched_contiguous_acf(state, lengths, positions, deltas)
        current = state.acf()
        assert acf_matrix[0].tolist() == current.tolist()
        assert acf_matrix[2].tolist() == current.tolist()

    def test_blocking_chunks_do_not_change_results(self, monkeypatch):
        import repro.core.impact as impact_module

        x = _series(6, 400)
        state = ACFAggregateState(x, 15)
        segments = [(i * 20, 7) for i in range(15)]
        lengths = np.array([m for _s, m in segments], dtype=np.int64)
        positions = np.concatenate([np.arange(s, s + m) for s, m in segments])
        deltas = np.sin(positions * 0.1)
        full = batched_contiguous_acf(state, lengths, positions, deltas)
        monkeypatch.setattr(impact_module, "_MAX_BLOCK_CELLS", 64)
        chunked = batched_contiguous_acf(state, lengths, positions, deltas)
        assert np.array_equal(full, chunked)


class TestTrackerSegmentsApi:
    @pytest.mark.parametrize("kwargs", [
        {"statistic": "acf"},
        {"statistic": "pacf"},
        {"statistic": "acf", "agg_window": 8},
        {"statistic": "acf", "agg_window": 8, "agg": "max"},
    ])
    def test_matches_per_change_previews(self, kwargs):
        x = _series(7, 480)
        tracker = StatisticTracker(x, 6, **kwargs)
        segments = [(20, 3), (100, 1), (200, 0), (300, 12), (475, 5)]
        rng = np.random.default_rng(11)
        starts = np.array([s for s, _m in segments], dtype=np.int64)
        lengths = np.array([m for _s, m in segments], dtype=np.int64)
        positions = np.concatenate(
            [np.arange(s, s + m) for s, m in segments]).astype(np.int64)
        deltas = rng.normal(0.0, 0.4, positions.size)
        impacts = tracker.batch_impacts_segments(starts, lengths, positions,
                                                 deltas, "mae")
        offset = 0
        for index, (start, m) in enumerate(segments):
            if m == 0:
                expected = tracker.deviation("mae", tracker.current_statistic())
            else:
                expected = tracker.deviation(
                    "mae", tracker.preview(start, deltas[offset:offset + m]))
            offset += m
            assert impacts[index] == pytest.approx(expected, abs=1e-10)


    @pytest.mark.usefixtures("kernel_tier")
    @pytest.mark.parametrize("kwargs", [
        {"statistic": "acf"},
        {"statistic": "pacf"},
        {"statistic": "acf", "agg_window": 8},
        {"statistic": "acf", "agg_window": 8, "agg": "max"},
    ])
    def test_gap_impacts_is_the_deltas_plus_segments_chain(self, kwargs):
        x = _series(8, 480)
        tracker = StatisticTracker(x, 6, **kwargs)
        lefts = np.array([0, 19, 99, 200, 300, 470], dtype=np.int64)
        rights = np.array([3, 23, 101, 201, 313, 479], dtype=np.int64)
        starts, lengths, positions, deltas = segment_interpolation_deltas_batched(
            tracker.current_values, lefts, rights)
        for metric in ("mae", "cheb", "rmse"):
            expected = tracker.batch_impacts_segments(starts, lengths, positions,
                                                      deltas, metric)
            assert np.array_equal(tracker.gap_impacts(lefts, rights, metric),
                                  expected)


class TestHeapBatchOps:
    def test_contains_mask_matches_membership(self):
        heap = IndexedMinHeap(30)
        heap.heapify(np.arange(5, 25), np.linspace(1.0, 0.0, 20))
        heap.remove(7)
        heap.remove(20)
        queried = np.arange(30)
        mask = heap.contains_mask(queried)
        assert mask.tolist() == [int(item) in heap for item in queried]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_update_many_equals_sequential_updates(self, seed):
        rng = np.random.default_rng(seed)
        capacity = 64
        base_items = np.arange(capacity)
        base_keys = rng.normal(size=capacity)
        batched = IndexedMinHeap(capacity)
        batched.heapify(base_items, base_keys)
        sequential = IndexedMinHeap(capacity)
        sequential.heapify(base_items, base_keys)
        for item in rng.choice(capacity, 10, replace=False):
            batched.remove(int(item))
            sequential.remove(int(item))

        updates = rng.choice(capacity, 40, replace=False)
        keys = rng.normal(size=updates.size)
        batched.update_many(updates, keys)
        for item, key in zip(updates, keys):
            sequential.update(int(item), float(key))
        assert batched.check_invariants()
        assert len(batched) == len(sequential)
        # Popping everything must yield the same (item, key) sequence.
        while sequential:
            assert batched.pop() == sequential.pop()

    def test_update_many_shape_mismatch(self):
        heap = IndexedMinHeap(4)
        with pytest.raises(ValueError):
            heap.update_many(np.array([1, 2]), np.array([0.1]))


class TestNeighborBatchOps:
    def test_hops_array_matches_hops(self):
        nl = NeighborList(40)
        for index in (5, 6, 7, 20, 33):
            nl.remove(index)
        for start in (4, 10, 21):
            for h in (1, 3, 8):
                assert nl.hops_array(start, h).tolist() == nl.hops(start, h)
                assert (nl.hops_array(start, h, include_endpoints=True).tolist()
                        == nl.hops(start, h, include_endpoints=True))

    def test_gaps_of_matches_scalar_lookups(self):
        nl = NeighborList(30)
        for index in (3, 4, 11):
            nl.remove(index)
        alive = nl.alive_indices()
        lefts, rights = nl.gaps_of(alive)
        for position, left, right in zip(alive, lefts, rights):
            assert (left, right) == (nl.left_of(int(position)),
                                     nl.right_of(int(position)))


class _ReferenceReheapCameo(CameoCompressor):
    """CAMEO with the original per-candidate ReHeap (oracle for equivalence)."""

    def _reheap_neighbours(self, run, removed):
        tracker, neighbours, heap = run.tracker, run.neighbours, run.heap
        candidates = [idx for idx in neighbours.hops(removed, run.hops)
                      if idx in heap]
        if not candidates:
            return 0
        current = tracker.current_values
        changes = []
        for neighbour in candidates:
            left, right = neighbours.left_of(neighbour), neighbours.right_of(neighbour)
            changes.append(segment_interpolation_deltas(current, left, right))
        impacts = tracker.batch_impacts(changes, run.metric)
        for neighbour, impact in zip(candidates, impacts):
            heap.update(neighbour, float(impact))
        return len(candidates)


class TestCompressorEquivalence:
    @pytest.mark.parametrize("kwargs", [
        dict(max_lag=12, epsilon=0.05),
        dict(max_lag=8, epsilon=0.08, statistic="pacf"),
        dict(max_lag=6, epsilon=0.05, agg_window=4),
        dict(max_lag=6, epsilon=0.06, statistic="pacf", agg_window=4),
        dict(max_lag=10, epsilon=0.1, statistic="pacf", metric="cheb"),
        dict(max_lag=12, epsilon=0.1, metric="cheb"),
        dict(max_lag=12, epsilon=None, target_ratio=3.0),
    ])
    def test_fused_reheap_keeps_identical_point_sets(self, kwargs):
        x = _series(21, 400)
        fast = CameoCompressor(**kwargs).compress(x)
        reference = _ReferenceReheapCameo(**kwargs).compress(x)
        assert fast.indices.tolist() == reference.indices.tolist()
        assert (fast.metadata["stopped_by"]
                == reference.metadata["stopped_by"])
