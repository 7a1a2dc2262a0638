"""``native.run_loop`` must be indistinguishable from the Python greedy loop.

Where the compiled tier serves a configuration and the run stops at the
first violation, ``CameoCompressor._run`` hands the whole loop — pop,
decide, apply, remove, ReHeap — to one GIL-free compiled call and only runs
the iterations it hands back.  Triplet compressors run the same series: one
through ``native.run_loop``, one through the Python loop on the native tier
(one ``native.reheap`` per removal), one on the NumPy tier.  After the run
the kept indices, every statistic of the run, and — bit for bit — the
reconstructed series, the five lag sums, the heap and the speculation
stamps must be equal.

Randomised over series shape, length, lag count, blocking, metric,
speculation width and stopping mode (hypothesis), plus the corners: yields
forced mid-run by a small block budget, requests the call must refuse
before it writes anything, and the GIL being free while the loop runs.
Pointer chasing and in-place updates at the array ends are what the CI
sanitizer leg runs this file for.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.impact as impact_module
from repro import _kernels
from repro.core.compressor import CameoCompressor
from repro.core.heap import NativeIndexedMinHeap
from repro.core.neighbors import NeighborList
from repro.core.tracker import StatisticTracker

pytestmark = pytest.mark.skipif(not _kernels.native_available(),
                                reason="native extension not built")

METRICS = ("mae", "cheb", "mse", "rmse")


@pytest.fixture(autouse=True)
def _native_tier():
    """Every test starts on the native tier (whatever ``REPRO_NATIVE``
    says) and the process default is restored afterwards."""
    _kernels.set_native_enabled(True)
    yield
    _kernels.set_native_enabled(None)


class _Observed(CameoCompressor):
    """Keeps the finished run; ``python_loop`` declines the compiled loop."""

    python_loop = False

    def _native_loop_serves(self, run):
        self.served = (not self.python_loop
                       and super()._native_loop_serves(run))
        return self.served

    def _run(self, values, tracker, hops):
        self.run = super()._run(values, tracker, hops)
        return self.run


def _final_state(run) -> dict:
    """Everything a run leaves behind, as comparable bytes."""
    # (the windowed state keeps its sums one level down)
    sums = getattr(run.tracker.state, "inner", run.tracker.state).sums
    state = {
        "current": run.tracker.current_values.tobytes(),
        "heap_size": len(run.heap),
        "heap_keys": run.heap.keys().tobytes(),
        "heap_items": run.heap.items().tobytes(),
        "slot_of": run.heap._slot_of.tobytes(),
        "alive": run.neighbours.alive_mask().tobytes(),
        "alive_count": run.neighbours.alive_count(),
        "left_right": [run.neighbours.gaps_of(run.neighbours.alive_indices())[side]
                       .tobytes() for side in (0, 1)],
        "state_version": run.state_version,
    }
    for name in ("sx", "sxl", "sx2", "sx2l", "sxxl"):
        state[name] = getattr(sums, name).tobytes()
    if run.speculate:
        state["key_version"] = run.key_version.tobytes()
        state["spec_version"] = run.spec_version.tobytes()
        # never-stamped entries of the deviation cache are undefined
        state["spec_deviation"] = np.where(
            run.spec_version >= 0, run.spec_deviation, 0.0).tobytes()
    return state


def _run_triplet(values, **config):
    """Compiled-loop, Python-loop-on-native and NumPy-tier runs."""
    runs = []
    for native, python_loop in ((True, False), (True, True), (False, True)):
        _kernels.set_native_enabled(native)
        compressor = _Observed(**config)
        compressor.python_loop = python_loop
        runs.append((compressor, compressor.compress(values)))
    return runs


def _assert_triplet_agrees(values, *, expect_served=True, **config):
    (compiled, compiled_result), *others = _run_triplet(values, **config)
    assert compiled.served == expect_served
    want_state = _final_state(compiled.run)
    want_meta = {key: value for key, value in compiled_result.metadata.items()
                 if key != "elapsed_seconds"}
    for twin, result in others:
        assert not twin.served
        assert result.indices.tolist() == compiled_result.indices.tolist()
        meta = {key: value for key, value in result.metadata.items()
                if key != "elapsed_seconds"}
        assert meta == want_meta
        state = _final_state(twin.run)
        for name, want in want_state.items():
            assert state[name] == want, f"final {name} differs"
    assert compiled.run.heap.check_invariants()
    return compiled, compiled_result


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


class TestTripletRuns:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 31))
    def test_final_state_matches_the_python_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([rng.integers(4, 30), rng.integers(30, 600)]))
        kind = str(rng.choice(["seasonal", "walk", "steps", "rounded",
                               "scaled"]))
        config = dict(
            max_lag=int(rng.integers(1, 30)),
            epsilon=float(rng.choice([0.01, 0.05, 0.3])),
            metric=str(rng.choice(METRICS)),
            blocking=rng.choice(["5logn", "logn", 1, 3, n, 10 * n, None]),
            batch_size=rng.choice(["auto", 1, 2, 16]),
            min_keep=int(rng.choice([2, 2, max(2, n // 3)])),
        )
        if config["blocking"] not in ("5logn", "logn", None):
            config["blocking"] = int(config["blocking"])
        if config["batch_size"] != "auto":
            config["batch_size"] = int(config["batch_size"])
        stop = rng.integers(0, 4)
        if stop == 0:
            config.update(epsilon=None,
                          target_ratio=float(rng.choice([1.5, 4.0, 50.0])))
        elif stop == 1:
            config.update(target_ratio=float(rng.choice([1.5, 4.0])))
        elif stop == 2:
            # never violated: skip and stop are the same loop
            config.update(epsilon=None, target_ratio=float(n),
                          on_violation="skip")
        _assert_triplet_agrees(_series(rng, n, kind), **config)

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("batch_size", ["auto", 1])
    def test_benchmark_shape(self, metric, batch_size):
        """n=500, L=24, 5logn, eps=0.01: the fleet benchmark's series."""
        rng = np.random.default_rng(7)
        compiled, result = _assert_triplet_agrees(
            _series(rng, 500, "seasonal"), max_lag=24, epsilon=0.01,
            metric=metric, batch_size=batch_size)
        assert result.metadata["stopped_by"] == "error-bound"
        if batch_size == 1:
            # the sequential loop previews every pop; so does the call
            assert compiled.run.preview_evals == compiled.run.iterations
        else:
            reuse = result.metadata["preview_reuse"]
            assert reuse["fresh_key_hits"] and reuse["speculative_hits"]
            assert reuse["scalar_previews"]

    @pytest.mark.parametrize("config", [
        dict(epsilon=None, target_ratio=6.0),
        dict(epsilon=0.5, target_ratio=2.0),
        dict(min_keep=200),
        dict(blocking=10_000),
        dict(blocking=None, batch_size=64),
        dict(blocking=1, epsilon=None, target_ratio=40.0),
        dict(epsilon=0.0),
        dict(epsilon=None, target_ratio=1000.0),
    ], ids=["target-ratio", "epsilon-and-target", "min-keep", "hops-over-n",
            "no-blocking-wide-peek", "one-hop-deep", "epsilon-zero",
            "down-to-the-endpoints"])
    def test_stopping_modes(self, config):
        rng = np.random.default_rng(21)
        options = {"max_lag": 16, "epsilon": 0.03, **config}
        _assert_triplet_agrees(_series(rng, 260, "seasonal"), **options)

    def test_every_stop_reason_is_reported(self):
        rng = np.random.default_rng(2)
        values = _series(rng, 120, "seasonal")
        reasons = set()
        for config in (dict(epsilon=0.02), dict(epsilon=None, target_ratio=3.0),
                       dict(epsilon=None, target_ratio=500.0, min_keep=30),
                       dict(epsilon=None, target_ratio=500.0)):
            _compiled, result = _assert_triplet_agrees(values, max_lag=8,
                                                       **config)
            reasons.add(result.metadata["stopped_by"])
        assert reasons == {"error-bound", "target-ratio", "min-keep"}

    @pytest.mark.parametrize("kind", ["steps", "rounded"])
    def test_tied_keys(self, kind):
        rng = np.random.default_rng(5)
        _assert_triplet_agrees(_series(rng, 240, kind), max_lag=10,
                               epsilon=0.05)

    def test_a_deviation_equal_to_epsilon_stops_the_run(self):
        """On a flat the cheapest removal changes nothing: its deviation is
        exactly 0.0, which a bound of 0.0 already refuses."""
        rng = np.random.default_rng(5)
        _compiled, result = _assert_triplet_agrees(
            _series(rng, 240, "steps"), max_lag=10, epsilon=0.0)
        assert result.metadata["removed_points"] == 0
        assert result.metadata["iterations"] == 1

    @pytest.mark.parametrize("n", [4, 5, 6, 9])
    def test_series_barely_longer_than_the_endpoints(self, n):
        """Every removal is adjacent to one or both series ends, and the
        last one empties the heap."""
        rng = np.random.default_rng(n)
        _assert_triplet_agrees(rng.normal(0, 1, n), max_lag=3, epsilon=None,
                               target_ratio=float(n))

    def test_constant_series(self):
        """Zero variance: every ACF row is the all-zero fallback."""
        _assert_triplet_agrees(np.full(64, 3.25), max_lag=5, epsilon=0.01)

    def test_everything_else_keeps_the_python_loop(self):
        rng = np.random.default_rng(3)
        values = _series(rng, 200, "seasonal")
        for unserved in (dict(statistic="pacf"), dict(agg_window=2),
                         dict(metric=lambda a, b: float(np.abs(a - b).mean())),
                         dict(on_violation="skip"),
                         dict(on_violation="skip", batch_size=1)):
            _assert_triplet_agrees(values, expect_served=False, max_lag=8,
                                   epsilon=0.05, **unserved)

    def test_a_subclass_with_its_own_reheap_keeps_the_python_loop(self):
        class OwnReheap(_Observed):
            steps = 0

            def _reheap_neighbours(self, run, removed):
                self.steps += 1
                return super()._reheap_neighbours(run, removed)

        rng = np.random.default_rng(8)
        _kernels.set_native_enabled(True)
        compressor = OwnReheap(max_lag=8, epsilon=0.05)
        result = compressor.compress(_series(rng, 150, "seasonal"))
        assert not compressor.served
        assert compressor.steps == result.metadata["removed_points"]


class TestYields:
    """A ReHeap request that may not fit one block is handed back before
    the pop; Python runs that iteration and calls in again."""

    @pytest.fixture()
    def recorded_calls(self, monkeypatch):
        _kernels.set_native_enabled(True)
        native = _kernels.get_native()
        calls = {"run_loop": [], "reheap": []}

        def recording(name):
            compiled = getattr(native, name)

            def recorded(*request):
                calls[name].append(compiled(*request))
                return calls[name][-1]
            return recorded

        monkeypatch.setattr(native, "run_loop", recording("run_loop"))
        monkeypatch.setattr(native, "reheap", recording("reheap"))
        return calls

    @pytest.mark.parametrize("batch_size", ["auto", 1])
    def test_yields_mid_run_and_resumes(self, monkeypatch, recorded_calls,
                                        batch_size):
        rng = np.random.default_rng(4)
        values = _series(rng, 400, "seasonal")
        config = dict(max_lag=10, epsilon=None, target_ratio=8.0, blocking=20,
                      batch_size=batch_size)
        # 300 positions a block: the first removals' requests (40 one-point
        # gaps and the peek) fit, later ones grow past it and shrink again
        # wherever the neighbourhood is still dense
        monkeypatch.setattr(impact_module, "_MAX_BLOCK_CELLS", 3000)
        _assert_triplet_agrees(values, **config)
        outcomes = recorded_calls["run_loop"]
        yields = [index for index, outcome in enumerate(outcomes)
                  if outcome[0] is None]
        assert yields
        # accepted removals before the first yield, and in calls after it
        assert outcomes[0][2] > 0
        assert sum(outcome[2] for outcome in outcomes[yields[0] + 1:]) > 0
        # the yielded iterations went through native.reheap, which took
        # the requests the bound was pessimistic about and declined the rest
        declined = [refreshed for refreshed in recorded_calls["reheap"]
                    if refreshed is None]
        assert declined and len(declined) < len(recorded_calls["reheap"])

    def test_every_iteration_yields_when_nothing_fits(self, monkeypatch,
                                                      recorded_calls):
        rng = np.random.default_rng(6)
        monkeypatch.setattr(impact_module, "_MAX_BLOCK_CELLS", 10)
        _compiled, result = _assert_triplet_agrees(
            _series(rng, 120, "walk"), max_lag=10, epsilon=0.05)
        outcomes = recorded_calls["run_loop"]
        # one call per iteration, each handing it straight back
        assert all(outcome[0] is None and outcome[2:4] == (0, 0)
                   for outcome in outcomes)
        assert result.metadata["iterations"] == len(outcomes)
        assert result.metadata["stopped_by"] == "error-bound"

    def test_a_yield_writes_nothing(self):
        request = _loop_request(cell_budget=1)
        before = _written(request)
        outcome = _kernels.get_native().run_loop(*request.values())
        assert outcome[:4] == (None, request["size"], 0, 0)
        for old, new in zip(before, _written(request)):
            assert np.array_equal(old, new)


def _loop_request(n=60, max_lag=8, removals=12, hops=5, peek=3,
                  cell_budget=1 << 20):
    """Keyword arguments of one valid ``native.run_loop`` call, in order,
    ``removals`` accepted pops into a run."""
    rng = np.random.default_rng(n)
    tracker = StatisticTracker(2.0 * np.sin(np.arange(n) / 3.0)
                               + rng.normal(0, 0.3, n), max_lag)
    neighbours = NeighborList(n)
    heap = NativeIndexedMinHeap(n)
    heap.heapify(*tracker.initial_impacts("mae"))
    stamps = dict(key_version=np.zeros(n, dtype=np.int64),
                  spec_version=np.full(n, -1, dtype=np.int64),
                  spec_deviation=np.zeros(n))

    def request(cell_budget, state_version, **scalars):
        sums = tracker.state.sums
        keys, items, slot_of, size = heap.storage()
        left, right, alive = neighbours.pointer_arrays()
        return dict(
            current=tracker.state.current, counts=sums.counts, sx=sums.sx,
            sxl=sums.sxl, sx2=sums.sx2, sx2l=sums.sx2l, sxxl=sums.sxxl,
            reference=tracker.reference, metric="mae",
            cell_budget=cell_budget, left=left, right=right, alive=alive,
            keys=keys, items=items, slot_of=slot_of, size=size, hops=hops,
            peek=peek, state_version=state_version, **stamps, **scalars)

    first = request(1 << 20, state_version=0, epsilon=None, kept=n, removed=0,
                    max_removable=n - 2, target_kept=n - removals,
                    achieved_deviation=0.0)
    outcome = _kernels.get_native().run_loop(*first.values())
    assert outcome[:3] == ("target-ratio", n - 2 - removals, removals)
    heap.resize(outcome[1])
    neighbours.note_removed(removals)
    return request(cell_budget, state_version=removals, epsilon=0.5,
                   kept=n - removals,
                   removed=removals, max_removable=n - 2, target_kept=-1,
                   achieved_deviation=outcome[-1])


_WRITTEN = ("current", "sx", "sxl", "sx2", "sx2l", "sxxl", "left", "right",
            "alive", "keys", "items", "slot_of", "key_version",
            "spec_version", "spec_deviation")


def _written(request) -> list:
    """Everything ``native.run_loop`` may write to, as it is now."""
    return [np.array(request[name], copy=True) for name in _WRITTEN
            if isinstance(request[name], np.ndarray)]


def _read_only(array):
    frozen = array.copy()
    frozen.flags.writeable = False
    return frozen


def _at(index, value):
    return lambda a: np.where(np.arange(a.size) == index, value, a)


def _live(request, rank: int) -> int:
    """The ``rank``-th surviving point of the request's neighbour list."""
    return int(np.flatnonzero(request["alive"])[rank])


def _top(request, slot: int = 0) -> int:
    return int(request["items"][slot])


class TestRequestContract:
    @pytest.fixture(autouse=True)
    def _force_native(self):
        _kernels.set_native_enabled(True)

    def test_valid_request_runs_to_the_error_bound(self):
        request = _loop_request()
        before = _written(request)
        (reason, size, accepted, pops, reheap_updates, fresh, spec, previews,
         achieved) = _kernels.get_native().run_loop(*request.values())
        assert reason == "error-bound"
        assert pops == accepted + 1 and size == request["size"] - pops
        assert accepted > 0 and fresh + spec + previews == pops
        assert reheap_updates > 0 and 0.0 < achieved < request["epsilon"]
        changed = [not np.array_equal(old, new)
                   for old, new in zip(before, _written(request))]
        assert all(changed)

    def test_a_finished_run_can_be_called_again(self):
        request = _loop_request()
        request["epsilon"] = None
        native = _kernels.get_native()
        reason, size, accepted, *_rest = native.run_loop(*request.values())
        assert (reason, size) == ("min-keep", 0)
        request.update(size=0, kept=request["kept"] - accepted,
                       removed=request["removed"] + accepted,
                       state_version=request["state_version"] + accepted)
        assert native.run_loop(*request.values())[:4] == (
            "heap-exhausted", 0, 0, 0)

    @pytest.mark.parametrize("name,mutate", [
        ("left", lambda a, _r: a.astype(np.int32)),
        ("alive", lambda a, _r: a.astype(np.uint8)),
        ("current", lambda a, _r: np.concatenate((a, a))[::2]),
        ("current", lambda a, _r: _read_only(a)),
        ("sxxl", lambda a, _r: _read_only(a)),
        ("alive", lambda a, _r: _read_only(a)),
        ("slot_of", lambda a, _r: _read_only(a)),
        ("spec_deviation", lambda a, _r: _read_only(a)),
        ("keys", lambda a, _r: a[:-1]),
        ("right", lambda a, _r: a[:-1].copy()),
        ("sx2", lambda a, _r: a[:-1].copy()),
        ("reference", lambda a, _r: a[:-1].copy()),
        ("key_version", lambda a, _r: a[:-1].copy()),
        ("spec_deviation", lambda a, _r: a.astype(np.float32)),
        ("spec_version", lambda _a, _r: None),
        ("key_version", lambda _a, _r: None),
        ("spec_deviation", lambda a, _r: [0.0] * a.size),
        ("metric", lambda _m, _r: "median"),
        ("epsilon", lambda _e, _r: "tight"),
        ("hops", lambda _h, _r: -1),
        ("peek", lambda _p, _r: -2),
        ("size", lambda _s, _r: 61),
        ("size", lambda s, _r: s - 1),
        ("size", lambda s, _r: s + 1),
        ("size", lambda _s, _r: -1),
        ("kept", lambda _k, _r: -1),
        ("max_removable", lambda _m, _r: -1),
        ("cell_budget", lambda _c, _r: -5),
        # neighbour list: a live point's pointers must name its live
        # neighbours, and both endpoints live
        ("left", lambda a, r: _at(_live(r, 6), _live(r, 4))(a)),
        ("right", lambda a, r: _at(_live(r, 6), 2 ** 40)(a)),
        ("right", lambda a, r: _at(_live(r, 6), _live(r, 6))(a)),
        ("right", lambda a, _r: _at(59, 59)(a)),
        ("left", lambda a, _r: _at(0, 0)(a)),
        ("alive", lambda a, _r: _at(0, False)(a)),
        ("alive", lambda a, _r: _at(59, False)(a)),
        # a point the list skips but that still claims to be live
        ("alive", lambda a, _r: _at(int(np.flatnonzero(~a)[0]), True)(a)),
        # heap: every live slot a distinct live interior point, and the
        # slot map its inverse
        ("items", lambda a, _r: _at(0, 60)(a)),
        ("items", lambda a, _r: _at(0, -1)(a)),
        ("items", lambda a, r: _at(1, _top(r))(a)),
        ("slot_of", lambda a, _r: _at(0, 3)(a)),
        ("slot_of", lambda a, r: _at(_top(r, 2), -1)(a)),
        ("slot_of", lambda a, r: _at(_top(r, 2), 59)(a)),
        ("slot_of", lambda a, r: _at(_top(r, 2), 3)(a)),
    ])
    def test_bad_requests_raise_before_the_first_write(self, name, mutate):
        request = _loop_request()
        request[name] = mutate(request[name], request)
        before = _written(request)
        with pytest.raises((ValueError, TypeError)):
            _kernels.get_native().run_loop(*request.values())
        for old, new in zip(before, _written(request)):
            assert np.array_equal(old, new)

    def test_a_removed_point_left_in_the_heap_is_refused(self):
        request = _loop_request()
        dead = int(np.flatnonzero(~request["alive"])[0])
        request["items"] = _at(0, dead)(request["items"])
        request["slot_of"] = _at(dead, 0)(request["slot_of"])
        with pytest.raises(ValueError, match="not consistent"):
            _kernels.get_native().run_loop(*request.values())

    def test_speculation_off_takes_no_stamps(self):
        request = _loop_request(peek=0)
        request.update(key_version=None, spec_version=None,
                       spec_deviation=None)
        reason, _size, accepted, pops, *_rest, previews, _achieved = (
            _kernels.get_native().run_loop(*request.values()))
        assert reason == "error-bound" and previews == pops == accepted + 1


class TestThreads:
    def test_the_gil_is_free_while_the_loop_runs(self, monkeypatch):
        """A pure-Python thread keeps ticking while another thread sits
        inside ``run_loop``: with the GIL held for the call, its longest
        stall would be the whole call."""
        _kernels.set_native_enabled(True)
        native = _kernels.get_native()
        rng = np.random.default_rng(9)
        values = _series(rng, 5000, "seasonal")
        ticks = []
        stop = threading.Event()

        def tick():
            count = 0
            while not stop.is_set():
                count += 1
                if count % 256 == 0:
                    ticks.append(time.perf_counter())

        calls = []
        compiled = native.run_loop

        def timed(*request):
            started = time.perf_counter()
            outcome = compiled(*request)
            calls.append((started, time.perf_counter()))
            return outcome

        monkeypatch.setattr(native, "run_loop", timed)
        ticker = threading.Thread(target=tick, daemon=True)
        ticker.start()
        try:
            result = CameoCompressor(max_lag=24, epsilon=None,
                                     target_ratio=10.0).compress(values)
        finally:
            stop.set()
            ticker.join(timeout=10)
        assert not ticker.is_alive()
        assert result.metadata["stopped_by"] == "target-ratio"
        (started, ended), = calls
        assert ended - started > 0.1
        inside = [started, *(t for t in ticks if started < t < ended), ended]
        assert max(np.diff(inside)) < 0.25 * (ended - started)
