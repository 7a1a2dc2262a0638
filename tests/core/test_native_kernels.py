"""The native kernel tier must reproduce the NumPy tier bit for bit.

Four layers, mirroring the guarantees the NumPy tier gives against the
preserved reference implementations:

* the whole-step ``native.reheap`` call's request contract here (fallback
  with nothing written, bad requests raise before the first write); its
  step-by-step identity with the Python chain is ``test_native_reheap.py``;

* the compiled fused ReHeap kernel (gaps in, impacts out), exercised
  through :meth:`repro.core.tracker.StatisticTracker.gap_impacts` with the
  tier flipped, must equal both the NumPy chain and the same chain on the
  preserved reference row kernel on randomized gap batteries (hypothesis),
  at every OpenMP thread count;
* the compiled heap must evolve the *identical slot layout* as the hybrid
  :class:`repro.core.heap.IndexedMinHeap` under randomized operation
  sequences, so pop order (ties included) cannot change;
* the compiled gap-delta kernel must equal the NumPy formulation.

Everything here skips cleanly when the extension was not built — the
dispatch/kill-switch tests still run, asserting the pure-NumPy fallback.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import _kernels
from repro._kernels.reference import reference_batched_contiguous_acf
from repro.core import heap as heap_module
from repro.core.compressor import CameoCompressor
from repro.core.heap import IndexedMinHeap, NativeIndexedMinHeap, make_heap
from repro.core.impact import (
    native_gap_impacts,
    resolve_rowwise_metric,
    segment_interpolation_deltas,
    segment_interpolation_deltas_batched,
)
from repro.core.neighbors import NeighborList
from repro.core.tracker import StatisticTracker

needs_native = pytest.mark.skipif(not _kernels.native_available(),
                                  reason="native extension not built")


@pytest.fixture(autouse=True)
def _restore_tier():
    yield
    _kernels.set_native_enabled(None)


METRICS = ("mae", "cheb", "mse", "rmse")


def _gap_case(rng: np.random.Generator):
    """A tracker mid-compression plus a ReHeap's worth of gaps.

    Biased to what long-series batteries under-sample: series barely longer
    than the lag window, gaps touching the left edge, the right edge or
    both, zero-length and single-point gaps, and a longest gap on either
    side of the bincount/partner-matrix switch (8 cross lags, i.e. 9 vs 10
    points).
    """
    max_lag = int(rng.integers(1, 40))
    n = int(rng.integers(2 * max_lag + 1, 601))
    values = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-4, 5, n)
    tracker = StatisticTracker(values, max_lag)
    for _ in range(int(rng.integers(0, 4))):
        # move the state off its reference, as accepted pops do
        start = int(rng.integers(0, n - 1))
        tracker.apply(start, rng.normal(0.0, 0.3, min(3, n - start)))
    gaps = int(rng.integers(1, 40))
    longest = min(int(rng.choice([0, 1, 2, 8, 9, 10, 11, 30, n])), n - 2)
    lefts = rng.integers(0, n - 1, gaps)
    rights = np.minimum(lefts + 1 + rng.integers(0, longest + 1, gaps), n - 1)
    anchor = int(rng.integers(0, n - 1 - longest))
    lefts[0], rights[0] = anchor, anchor + longest + 1
    edges = int(rng.integers(0, 4))
    if edges & 1:
        lefts[gaps // 2] = 0
    if edges & 2:
        rights[-1] = n - 1
    if edges == 3 and rng.integers(0, 2):
        lefts[-1] = 0
    return tracker, lefts.astype(np.int64), rights.astype(np.int64)


def _reference_impacts(tracker, lefts, rights, metric):
    """The NumPy chain on the preserved reference row kernel."""
    _starts, lengths, positions, deltas = segment_interpolation_deltas_batched(
        tracker.current_values, lefts, rights)
    rows = reference_batched_contiguous_acf(tracker.state, lengths,
                                            positions, deltas)
    return resolve_rowwise_metric(metric).rowwise(tracker.reference, rows)


@needs_native
class TestSegmentImpactsBitIdentity:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 31))
    def test_native_equals_numpy_and_reference(self, seed):
        rng = np.random.default_rng(seed)
        tracker, lefts, rights = _gap_case(rng)
        for metric in METRICS:
            _kernels.set_native_enabled(True)
            resolved = resolve_rowwise_metric(metric)
            assert native_gap_impacts(tracker.state, tracker.reference,
                                      lefts, rights, resolved) is not None
            native = tracker.gap_impacts(lefts, rights, metric)
            _kernels.set_native_enabled(False)
            numpy_tier = tracker.gap_impacts(lefts, rights, metric)
            assert np.array_equal(native, numpy_tier)
            assert np.array_equal(
                native, _reference_impacts(tracker, lefts, rights, metric))

    @pytest.mark.parametrize("metric", METRICS)
    def test_left_right_and_both_edges_in_one_request(self, metric):
        rng = np.random.default_rng(5)
        n, max_lag = 60, 24
        tracker = StatisticTracker(rng.normal(0, 1, n), max_lag)
        lefts = np.array([0, 0, 20, 30, n - 5, 0, 7], dtype=np.int64)
        rights = np.array([4, 1, 27, 32, n - 1, n - 1, 7], dtype=np.int64)
        _kernels.set_native_enabled(True)
        native = tracker.gap_impacts(lefts, rights, metric)
        _kernels.set_native_enabled(False)
        assert np.array_equal(native,
                              tracker.gap_impacts(lefts, rights, metric))
        assert np.array_equal(
            native, _reference_impacts(tracker, lefts, rights, metric))
        # zero-length gaps (and inverted anchors) get the current deviation
        current = tracker.deviation(metric, tracker.current_statistic())
        assert native[1] == native[6] == current

    def test_requests_over_one_block_take_the_numpy_path(self, monkeypatch):
        import repro.core.impact as impact_module

        rng = np.random.default_rng(9)
        tracker = StatisticTracker(rng.normal(0, 1, 300), 10)
        lefts = np.arange(0, 280, 14, dtype=np.int64)
        rights = lefts + 9
        resolved = resolve_rowwise_metric("mae")
        _kernels.set_native_enabled(True)
        fused = tracker.gap_impacts(lefts, rights, "mae")
        # 160 positions x 10 lags no longer fit one block: the fused kernel
        # declines (block splitting lives in batched_contiguous_acf only)...
        monkeypatch.setattr(impact_module, "_MAX_BLOCK_CELLS", 640)
        assert native_gap_impacts(tracker.state, tracker.reference, lefts,
                                  rights, resolved) is None
        split = tracker.gap_impacts(lefts, rights, "mae")
        # ...and the tracker falls back to exactly the NumPy tier's answer
        _kernels.set_native_enabled(False)
        assert np.array_equal(split, tracker.gap_impacts(lefts, rights, "mae"))
        # every gap is 8 points (bincount cross path in any block), so the
        # split cannot have changed a value either
        assert np.array_equal(split, fused)
        # a single gap longer than the budget is still one block
        _kernels.set_native_enabled(True)
        one_left, one_right = np.array([3]), np.array([290])
        assert native_gap_impacts(tracker.state, tracker.reference, one_left,
                                  one_right, resolved) is not None

    def test_everything_else_stays_on_the_numpy_formulation(self):
        rng = np.random.default_rng(2)
        values = rng.normal(0, 1, 200)
        lefts, rights = np.array([0, 50, 190]), np.array([6, 52, 199])
        _kernels.set_native_enabled(True)
        resolved = resolve_rowwise_metric(lambda a, b: float(np.sum(a - b)))
        tracker = StatisticTracker(values, 12)
        assert native_gap_impacts(tracker.state, tracker.reference, lefts,
                                  rights, resolved) is None
        for kwargs in ({"statistic": "pacf"}, {"agg_window": 4}):
            tracker = StatisticTracker(values, 12, **kwargs)
            native = tracker.gap_impacts(lefts, rights, "mae")
            _kernels.set_native_enabled(False)
            assert np.array_equal(native,
                                  tracker.gap_impacts(lefts, rights, "mae"))
            _kernels.set_native_enabled(True)

    def test_rejects_bad_requests(self):
        _kernels.set_native_enabled(True)
        native = _kernels.get_native()
        tracker = StatisticTracker(np.arange(50.0) ** 1.5, 5)
        sums = tracker.state.sums
        args = (tracker.state.current, sums.counts, sums.sx, sums.sxl,
                sums.sx2, sums.sx2l, sums.sxxl, tracker.reference)
        ok = np.array([3], dtype=np.int64)
        for lefts, rights in ((np.array([-1]), np.array([4])),
                              (np.array([40]), np.array([50])),
                              (np.array([-2 ** 62]), np.array([2 ** 62])),
                              (np.array([2 ** 62]), np.array([-2 ** 62])),
                              (ok, np.array([8, 9]))):
            with pytest.raises(ValueError):
                native.segment_impacts(*args, lefts, rights, "mae", 1 << 20)
        with pytest.raises(ValueError):
            native.segment_impacts(*args, ok, ok + 4, "median", 1 << 20)
        with pytest.raises(ValueError):
            native.segment_impacts(*args, ok.astype(np.int32), ok + 4, "mae",
                                   1 << 20)
        with pytest.raises(ValueError):
            native.segment_impacts(tracker.state.current[::2], *args[1:], ok,
                                   ok + 4, "mae", 1 << 20)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_openmp_thread_count_cannot_change_a_bit(self, threads):
        """The segment loop only ever ran on one thread before: the same
        request (large enough to enter the parallel region) must hash the
        same at every thread count, and equal the NumPy tier."""
        env = dict(os.environ, REPRO_NATIVE_THREADS=str(threads),
                   REPRO_NATIVE="1",
                   PYTHONPATH=os.pathsep.join(
                       [str(Path(repro.__file__).resolve().parents[1]),
                        os.environ.get("PYTHONPATH", "")]))
        env.pop("OMP_NUM_THREADS", None)
        output = subprocess.run(
            [sys.executable, "-c", _THREADS_SCRIPT], env=env, check=True,
            capture_output=True, text=True, timeout=120).stdout.split()
        max_threads, native_digest, numpy_digest, loop_calls = output
        if _kernels.native_build_info()["openmp"]:
            assert int(max_threads) == threads
        assert native_digest == numpy_digest
        assert int(loop_calls) > 0


_THREADS_SCRIPT = """
import hashlib
import numpy as np
from repro import _kernels
from repro.core.tracker import StatisticTracker

rng = np.random.default_rng(14)
n, max_lag = 600, 24
tracker = StatisticTracker(rng.normal(0, 1, n), max_lag)
lefts = rng.integers(0, n - 41, 300)
rights = lefts + 1 + rng.integers(0, 40, 300)
lefts[:3], rights[:3] = (0, 0, n - 9), (12, n - 1, n - 1)
# a whole run through native.run_loop whose ReHeap requests (no blocking:
# every survivor is a neighbour) are large enough to enter the parallel region
from repro.core import cameo_compress
series = 2.0 * np.sin(np.arange(900) * 2 * np.pi / 24) + rng.normal(0, 0.3, 900)
native = _kernels.get_native()
compiled, calls = native.run_loop, [0]
def counting(*args):
    calls[0] += 1
    return compiled(*args)
native.run_loop = counting
digests = []
for tier in (True, False):
    _kernels.set_native_enabled(tier)
    digest = hashlib.sha256()
    for metric in ("mae", "cheb", "mse", "rmse"):
        digest.update(tracker.gap_impacts(lefts, rights, metric).tobytes())
    result = cameo_compress(series, max_lag=24, epsilon=None, target_ratio=1.2,
                            blocking=None)
    digest.update(result.indices.tobytes())
    digests.append(digest.hexdigest())
print(_kernels.native_build_info()["max_threads"], *digests, calls[0])
"""


@needs_native
class TestGapDeltas:
    def test_gap_deltas_bitwise(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(5, 300))
            current = rng.normal(0.0, 5.0, n) * 10.0 ** rng.integers(-3, 4, n)
            left = int(rng.integers(0, n - 2))
            right = int(rng.integers(left + 2, n))
            _kernels.set_native_enabled(True)
            start_a, fast = segment_interpolation_deltas(current, left, right)
            _kernels.set_native_enabled(False)
            start_b, slow = segment_interpolation_deltas(current, left, right)
            assert start_a == start_b
            assert np.array_equal(fast, slow)


def _reheap_request(n=60, max_lag=8, removed=30, hops=5, peek=3):
    """Keyword arguments of one valid ``native.reheap`` call, in order."""
    rng = np.random.default_rng(n)
    tracker = StatisticTracker(rng.normal(0, 1, n), max_lag)
    neighbours = NeighborList(n)
    heap = NativeIndexedMinHeap(n)
    heap.heapify(*tracker.initial_impacts("mae"))
    heap.remove(removed)
    neighbours.remove(removed)
    sums = tracker.state.sums
    keys, items, slot_of, size = heap.storage()
    left, right, alive = neighbours.pointer_arrays()
    return dict(
        current=tracker.state.current, counts=sums.counts, sx=sums.sx,
        sxl=sums.sxl, sx2=sums.sx2, sx2l=sums.sx2l, sxxl=sums.sxxl,
        reference=tracker.reference, metric="mae", cell_budget=1 << 20,
        left=left, right=right, alive=alive, keys=keys, items=items,
        slot_of=slot_of, size=size, removed=removed, hops=hops, peek=peek,
        state_version=1, key_version=np.zeros(n, dtype=np.int64),
        spec_version=np.full(n, -1, dtype=np.int64),
        spec_deviation=np.zeros(n))


def _written(request) -> list:
    """Everything ``native.reheap`` may write to, as it is now."""
    return [np.array(request[name], copy=True) for name in (
        "keys", "items", "slot_of", "key_version", "spec_version",
        "spec_deviation")]


@needs_native
class TestReheapRequestContract:
    @pytest.fixture(autouse=True)
    def _force_native(self):
        _kernels.set_native_enabled(True)

    def test_valid_request_rekeys_and_stamps(self):
        request = _reheap_request()
        refreshed = _kernels.get_native().reheap(*request.values())
        assert refreshed == 10
        assert (request["key_version"] == 1).sum() == 10
        assert 1 <= (request["spec_version"] == 1).sum() <= 3

    def test_rebuild_fraction_matches_the_python_heap(self):
        assert (_kernels.get_native().HEAP_REBUILD_FRACTION
                == heap_module._REBUILD_FRACTION)

    @pytest.mark.parametrize("change", [
        dict(left=lambda a: a.astype(np.int32)),
        dict(right=lambda a: a.astype(np.float64)),
        dict(alive=lambda a: a.astype(np.uint8)),
        dict(current=lambda a: np.concatenate((a, a))[::2]),
        dict(keys=lambda a: a[:-1]),
        dict(slot_of=lambda a: a.astype(np.int32)),
        dict(left=lambda a: a[:-1].copy()),
        dict(key_version=lambda a: a[:-1].copy()),
        dict(spec_deviation=lambda a: a.astype(np.float32)),
        dict(spec_version=lambda a: None),
        dict(spec_deviation=lambda a: [0.0] * a.size),
        dict(reference=lambda a: a[:-1].copy()),
        dict(metric=lambda _m: "median"),
        dict(removed=lambda _r: -1),
        dict(removed=lambda _r: 60),
        dict(hops=lambda _h: -1),
        dict(peek=lambda _p: -2),
        dict(size=lambda _s: 61),
        dict(size=lambda _s: -1),
        # a pointer that does not move outwards (cycle / out of bounds)
        dict(left=lambda a: np.where(np.arange(a.size) == 27, 29, a)),
        dict(left=lambda a: np.where(np.arange(a.size) == 29, -7, a)),
        dict(right=lambda a: np.where(np.arange(a.size) == 33, 33, a)),
        dict(right=lambda a: np.where(np.arange(a.size) == 31, 2 ** 40, a)),
        # the removed point's own pointers (NeighborList.gap reads them)
        dict(left=lambda a: np.where(np.arange(a.size) == 30, 30, a)),
        dict(right=lambda a: np.where(np.arange(a.size) == 30, -1, a)),
        # a neighbour's slot beyond the live prefix
        dict(slot_of=lambda a: np.where(np.arange(a.size) == 28, 59, a)),
        # a heap item that is not a series position
        dict(items=lambda a: np.where(np.arange(a.size) == 0, 60, a)),
    ])
    def test_bad_requests_raise_before_the_first_write(self, change):
        request = _reheap_request()
        (name, mutate), = change.items()
        request[name] = mutate(request[name])
        before = _written(request)
        with pytest.raises((ValueError, TypeError)):
            _kernels.get_native().reheap(*request.values())
        for old, new in zip(before, _written(request)):
            assert np.array_equal(old, new)

    def test_over_one_block_returns_none_with_nothing_written(self, monkeypatch):
        import repro.core.impact as impact_module

        rng = np.random.default_rng(4)
        values = rng.normal(0, 1, 300)
        declined = []
        fused_reheap = StatisticTracker.reheap

        def watched(tracker, metric, neighbours, heap, *request):
            writable = (*heap.storage()[:3], *request[-3:])
            before = [array.copy() for array in writable]
            refreshed = fused_reheap(tracker, metric, neighbours, heap,
                                     *request)
            if refreshed is None:
                declined.append(request[0])
                assert all(np.array_equal(old, new, equal_nan=True)
                           for old, new in zip(before, writable))
            return refreshed

        config = dict(max_lag=10, epsilon=None, target_ratio=3.0, blocking=None)
        _kernels.set_native_enabled(False)
        numpy_tier = CameoCompressor(**config).compress(values)
        _kernels.set_native_enabled(True)
        fused = CameoCompressor(**config).compress(values)
        # with no blocking every survivor is a neighbour: ~300 positions x
        # 10 lags per request is over a 1,500-cell block from some point on
        monkeypatch.setattr(impact_module, "_MAX_BLOCK_CELLS", 1500)
        monkeypatch.setattr(StatisticTracker, "reheap", watched)
        mixed = CameoCompressor(**config).compress(values)
        assert declined and len(declined) < mixed.metadata["removed_points"]
        assert mixed.indices.tolist() == numpy_tier.indices.tolist()
        assert mixed.metadata["reheap_updates"] == numpy_tier.metadata[
            "reheap_updates"]
        # blocks only ever change the cross-term path of long gaps; at this
        # depth of compression gaps stay short of that switch
        assert fused.indices.tolist() == mixed.indices.tolist()


def _mirror_op(rng: np.random.Generator, heaps, capacity: int,
               present: set[int]) -> None:
    """Apply one random operation to every heap, asserting identical results."""
    absent = [i for i in range(capacity) if i not in present]
    choice = rng.integers(0, 7)
    if choice == 0 and absent:
        item = int(rng.choice(absent))
        key = float(rng.normal())
        for heap in heaps:
            heap.push(item, key)
        present.add(item)
    elif choice == 1 and present:
        results = [heap.pop() for heap in heaps]
        assert len({result for result in results}) == 1
        present.discard(results[0][0])
    elif choice == 2 and present:
        item = int(rng.choice(sorted(present)))
        for heap in heaps:
            heap.remove(item)
        present.discard(item)
    elif choice == 3:
        item = int(rng.integers(0, capacity))
        key = float(rng.normal())
        for heap in heaps:
            heap.update(item, key)
        present.add(item)
    elif choice == 4:
        count = int(rng.integers(1, max(2, capacity // 2)))
        items = rng.choice(capacity, size=min(count, capacity), replace=False)
        keys = rng.normal(size=items.size)
        for heap in heaps:
            heap.update_many(items, keys)
        present.update(int(i) for i in items)
    elif choice == 5 and present:
        k = int(rng.integers(1, len(present) + 1))
        results = [heap.pop_many(k) for heap in heaps]
        for items_out, keys_out in results[1:]:
            assert np.array_equal(items_out, results[0][0])
            assert np.array_equal(keys_out, results[0][1])
        present.difference_update(int(i) for i in results[0][0])
    elif choice == 6 and present:
        k = int(rng.integers(1, len(present) + 2))
        results = [heap.peek_many(k) for heap in heaps]
        for items_out, keys_out in results[1:]:
            assert np.array_equal(items_out, results[0][0])
            assert np.array_equal(keys_out, results[0][1])


@needs_native
class TestNativeHeapMirrorsHybrid:
    @pytest.fixture(autouse=True)
    def _force_native(self):
        # the suite must pass under REPRO_NATIVE=0 too: these tests verify
        # the native heap itself, so they opt in explicitly (the module
        # fixture restores the environment default afterwards)
        _kernels.set_native_enabled(True)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 31))
    def test_random_operation_sequences(self, seed):
        rng = np.random.default_rng(seed)
        capacity = int(rng.integers(2, 40))
        native = NativeIndexedMinHeap(capacity)
        # the hybrid heap is the bit-identity anchor: it is itself locked to
        # ReferenceIndexedMinHeap by tests/core/test_heap.py, so matching its
        # layout transitively matches the reference semantics.
        hybrid = IndexedMinHeap(capacity)
        heaps = (native, hybrid)
        present: set[int] = set()
        if rng.integers(0, 2):
            count = int(rng.integers(0, capacity + 1))
            items = rng.choice(capacity, size=count, replace=False)
            keys = rng.normal(size=count)
            for heap in heaps:
                heap.heapify(items, keys)
            present = {int(i) for i in items}
        for _ in range(int(rng.integers(5, 60))):
            _mirror_op(rng, heaps, capacity, present)
            assert len(native) == len(hybrid)
            assert native.check_invariants()
        # identical *layout*, not just identical contents: this is what
        # makes tie-breaking — and with it the CAMEO pop order — invariant
        # across tiers.
        assert np.array_equal(native.items(), hybrid.items())
        assert np.array_equal(native.keys(), hybrid.keys())

    def test_exact_key_ties_pop_in_the_same_order(self):
        native = NativeIndexedMinHeap(16)
        hybrid = IndexedMinHeap(16)
        rng = np.random.default_rng(3)
        keys = rng.choice([0.0, 1.0, 2.0], size=16)  # heavy ties
        items = np.arange(16, dtype=np.int64)
        native.heapify(items, keys)
        hybrid.heapify(items, keys)
        pops_native = [native.pop() for _ in range(16)]
        pops_hybrid = [hybrid.pop() for _ in range(16)]
        assert pops_native == pops_hybrid

    def test_error_contract_matches(self):
        heap = NativeIndexedMinHeap(8)
        with pytest.raises(IndexError):
            heap.pop()
        heap.push(3, 1.0)
        with pytest.raises(ValueError):
            heap.push(3, 2.0)
        with pytest.raises(ValueError):
            heap.push(8, 1.0)
        with pytest.raises(ValueError):
            heap.update_many([1, 1], [0.0, 1.0])
        with pytest.raises(ValueError):
            heap.push_many([3], [0.0])
        with pytest.raises(KeyError):
            heap.key_of(5)
        heap.remove(7)  # absent: no-op
        assert len(heap) == 1 and 3 in heap


class TestTierDispatch:
    def test_kill_switch_forces_numpy(self):
        _kernels.set_native_enabled(False)
        assert _kernels.get_native() is None
        assert _kernels.active_tier()["segment_impacts"] == "numpy"
        assert isinstance(make_heap(10), IndexedMinHeap)

    @needs_native
    def test_enabled_tier_reports_native(self):
        _kernels.set_native_enabled(True)
        tiers = _kernels.active_tier()
        assert set(tiers) == {"run_loop", "reheap", "segment_impacts",
                              "heap", "gap_deltas", "xor_codec", "crc32c"}
        assert "run_loop, reheap" in _kernels.describe_tiers()
        assert "xor_codec, crc32c" in _kernels.describe_tiers()
        assert all(tier == "native" for tier in tiers.values())
        assert isinstance(make_heap(10), NativeIndexedMinHeap)
        assert "native" in _kernels.describe_tiers()

    def test_env_variable_is_respected(self, monkeypatch):
        monkeypatch.setenv(_kernels.NATIVE_ENV, "0")
        _kernels.set_native_enabled(None)
        assert not _kernels.native_enabled()
        monkeypatch.delenv(_kernels.NATIVE_ENV)
        _kernels.set_native_enabled(None)
        assert _kernels.native_enabled() == _kernels.native_available()

    def test_build_info_shape(self):
        info = _kernels.native_build_info()
        assert {"status", "compiler", "openmp", "max_threads"} <= set(info)
        if _kernels.native_available():
            assert info["status"] == "active"

    @needs_native
    def test_self_check_covers_the_row_mean_order(self):
        from repro._kernels import _native

        module = _native.MODULE
        assert _native._self_check(module) is None

        class SeededMean:
            """The extension as seen from a NumPy whose contiguous-axis mean
            seeded the sum with the first element, as reduceat does."""

            def __getattr__(self, name):
                return getattr(module, name)

            def rowwise_check(self, reference, rows, kind):
                if kind != "mae":
                    return module.rowwise_check(reference, rows, kind)
                return np.array([np.add.reduceat(row, [0])[0] / row.size
                                 for row in np.abs(rows - reference)])

        assert "row reductions" in _native._self_check(SeededMean())

    @needs_native
    def test_self_check_refuses_a_different_tie_order(self):
        from repro._kernels import _native

        module = _native.MODULE

        class UnstableSort:
            """The extension as seen from a NumPy whose ``kind="stable"``
            argsort broke ties by descending position."""

            def __getattr__(self, name):
                return getattr(module, name)

            def stable_order_check(self, keys):
                order = module.stable_order_check(keys[::-1].copy())
                return (keys.size - 1 - order).astype(np.int64)

        assert "argsort" in _native._self_check(UnstableSort())

        class NanFirst(UnstableSort):
            def stable_order_check(self, keys):
                order = module.stable_order_check(keys)
                nan = np.isnan(keys[order])
                return np.concatenate((order[nan], order[~nan]))

        assert "argsort" in _native._self_check(NanFirst())

    @needs_native
    def test_self_check_refuses_a_reordering_axis0_reduce(self, monkeypatch):
        """The lag sums' left-to-right order is what this NumPy's axis-0
        ``add.reduce`` happens to do.  Seen from a NumPy that summed each
        column like a 1-D array (pairwise, from eight rows up), the
        extension is refused and the loader records why."""
        from repro._kernels import _native, lagdot

        assert _native._check_lagdot_model(_native.MODULE)

        def columns_pairwise(products, axis):
            assert axis == 0
            return np.array([np.add.reduce(np.ascontiguousarray(column))
                             for column in products.T])

        monkeypatch.setattr(lagdot, "_sum_rows", columns_pairwise)
        assert "lag sums" in _native._self_check(_native.MODULE)
        monkeypatch.setitem(_native.BUILD_INFO, "status", "active")
        monkeypatch.setattr(_native, "MODULE", None)
        _native._load()
        assert _native.MODULE is None
        assert _native.BUILD_INFO["status"] == (
            "rejected: axis-0 np.add.reduce lag sums not reproduced")

    @needs_native
    def test_self_check_refuses_wrong_storage_kernels(self, monkeypatch):
        """A build whose CRC or XOR bit streams differ from the Python
        tier's would write stores the other tier quarantines: refused,
        with the reason recorded."""
        from repro._kernels import _native

        module = _native.MODULE

        class Wrapped:
            def __getattr__(self, name):
                return getattr(module, name)

        class TailSkipped(Wrapped):
            """Hashes whole 8-byte strides only."""

            def crc32c(self, data, value=0):
                data = bytes(data)
                return module.crc32c(data[:len(data) - len(data) % 8], value)

        assert _native._self_check(TailSkipped()) \
            == "crc32c known answers not reproduced"

        class RunningValueIgnored(Wrapped):
            def crc32c(self, data, value=0):
                return module.crc32c(data)

        assert "crc32c" in _native._self_check(RunningValueIgnored())

        class PaddingBitSet(Wrapped):
            """Pads the last payload byte with ones."""

            def xor_encode(self, scheme, values):
                payload, bit_length = module.xor_encode(scheme, values)
                spare = -bit_length % 8
                return (payload[:-1] + bytes([payload[-1] | (1 << spare) - 1]),
                        bit_length)

        assert _native._self_check(PaddingBitSet()) \
            == "XOR codec payloads not reproduced"

        class SignLost(Wrapped):
            def xor_decode(self, scheme, payload, bit_length, count):
                return np.abs(module.xor_decode(scheme, payload, bit_length,
                                                count))

        assert "XOR codec" in _native._self_check(SignLost())

        monkeypatch.setitem(_native.XOR_ANSWERS, "chimp", (7508, 0))
        monkeypatch.setitem(_native.BUILD_INFO, "status", "active")
        monkeypatch.setattr(_native, "MODULE", None)
        _native._load()
        assert _native.MODULE is None
        assert _native.BUILD_INFO["status"] == (
            "rejected: XOR codec payloads not reproduced")

    @needs_native
    def test_native_heap_requires_active_tier(self):
        _kernels.set_native_enabled(False)
        with pytest.raises(RuntimeError):
            NativeIndexedMinHeap(4)
