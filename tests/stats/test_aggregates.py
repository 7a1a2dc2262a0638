"""Tests for the incremental ACF aggregate state (Equations 7-9)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _kernels
from repro._kernels.reference import reference_lagged_dot_deltas
from repro.core.compressor import CameoCompressor
from repro.stats import ACFAggregateState, acf


def _random_series(seed: int, n: int = 300) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.sin(np.arange(n) / 7.0) * 3 + rng.normal(0, 0.5, n)


class TestConstruction:
    def test_initial_acf_matches_direct_computation(self, seasonal_series):
        state = ACFAggregateState(seasonal_series, 30)
        assert np.allclose(state.acf(), acf(seasonal_series, 30), atol=1e-10)

    def test_current_is_a_copy(self, seasonal_series):
        state = ACFAggregateState(seasonal_series, 5)
        seasonal_series[0] += 100.0
        assert state.current[0] != seasonal_series[0]

    def test_properties(self, seasonal_series):
        state = ACFAggregateState(seasonal_series, 12)
        assert state.n == seasonal_series.size
        assert state.max_lag == 12
        assert np.array_equal(state.lags, np.arange(1, 13))


class TestSingleUpdates:
    def test_apply_single_change_matches_recompute(self):
        x = _random_series(1)
        state = ACFAggregateState(x, 20)
        state.apply_changes([150], [0.75])
        assert np.allclose(state.acf(), state.recompute_acf(), atol=1e-9)
        # And against a from-scratch ACF of the modified series.
        modified = x.copy()
        modified[150] += 0.75
        assert np.allclose(state.acf(), acf(modified, 20), atol=1e-9)

    def test_boundary_positions(self):
        x = _random_series(2)
        state = ACFAggregateState(x, 10)
        state.apply_changes([0, x.size - 1], [1.0, -2.0])
        assert np.allclose(state.acf(), state.recompute_acf(), atol=1e-9)

    def test_zero_delta_is_noop(self):
        x = _random_series(3)
        state = ACFAggregateState(x, 10)
        before = state.acf()
        state.apply_changes([10], [0.0])
        assert np.array_equal(before, state.acf())

    def test_out_of_range_position_raises(self):
        state = ACFAggregateState(_random_series(4), 5)
        with pytest.raises(IndexError):
            state.apply_changes([1000], [1.0])

    def test_shape_mismatch_raises(self):
        state = ACFAggregateState(_random_series(5), 5)
        with pytest.raises(ValueError):
            state.apply_changes([1, 2], [1.0])


class TestBatchUpdates:
    def test_overlapping_lag_batch_exact(self):
        # Positions closer than the lag exercise the cross-term of Eq. 9.
        x = _random_series(6)
        state = ACFAggregateState(x, 15)
        positions = np.array([100, 101, 102, 103, 110])
        deltas = np.array([0.5, -0.3, 0.8, -0.2, 0.4])
        state.apply_changes(positions, deltas)
        modified = x.copy()
        modified[positions] += deltas
        assert np.allclose(state.acf(), acf(modified, 15), atol=1e-9)

    def test_preview_does_not_mutate(self):
        x = _random_series(7)
        state = ACFAggregateState(x, 10)
        before_acf = state.acf()
        before_current = state.current.copy()
        state.preview_acf([50, 51], [0.4, -0.4])
        assert np.array_equal(before_acf, state.acf())
        assert np.array_equal(before_current, state.current)

    def test_preview_equals_apply(self):
        x = _random_series(8)
        state = ACFAggregateState(x, 10)
        positions = [20, 21, 22, 40]
        deltas = [0.3, 0.1, -0.5, 0.9]
        preview = state.preview_acf(positions, deltas)
        state.apply_changes(positions, deltas)
        assert np.allclose(preview, state.acf(), atol=1e-12)

    def test_sequential_single_updates_equal_batch(self):
        x = _random_series(9)
        state_batch = ACFAggregateState(x, 12)
        state_single = ACFAggregateState(x, 12)
        positions = [5, 6, 7]
        deltas = [1.0, -0.5, 0.25]
        state_batch.apply_changes(positions, deltas)
        for position, delta in zip(positions, deltas):
            state_single.apply_changes([position], [delta])
        assert np.allclose(state_batch.acf(), state_single.acf(), atol=1e-12)

    def test_copy_is_independent(self):
        x = _random_series(10)
        state = ACFAggregateState(x, 8)
        clone = state.copy()
        state.apply_changes([30], [2.0])
        assert not np.allclose(state.acf(), clone.acf())
        assert np.allclose(clone.acf(), acf(x, 8), atol=1e-10)


class TestContiguousFastPath:
    @pytest.mark.parametrize("start,length", [(100, 7), (0, 3), (295, 5), (1, 1), (240, 60)])
    def test_preview_contiguous_matches_generic(self, start, length):
        x = _random_series(11)
        state = ACFAggregateState(x, 25)
        rng = np.random.default_rng(start + length)
        deltas = rng.normal(0, 0.4, length)
        positions = np.arange(start, start + length)
        fast = state.preview_acf_contiguous(start, deltas)
        slow = state.preview_acf(positions, deltas)
        assert np.allclose(fast, slow, atol=1e-9)

    def test_apply_contiguous_matches_recompute(self):
        x = _random_series(12)
        state = ACFAggregateState(x, 25)
        deltas = np.linspace(-0.5, 0.5, 9)
        state.apply_contiguous(140, deltas)
        assert np.allclose(state.acf(), state.recompute_acf(), atol=1e-9)

    def test_reused_work_buffers_give_a_fresh_states_bits(self):
        """The sums after every accepted pop feed every later heap key, so
        the per-thread buffers reused across calls must not change a bit —
        against a copy (fresh buffers) and the ``np.clip`` formulation of
        the head/tail counts they replaced."""
        rng = np.random.default_rng(15)
        n, max_lag = 120, 24
        state = ACFAggregateState(_random_series(15, n), max_lag)
        lags = state.lags
        for _ in range(80):
            m = int(rng.integers(1, 40))
            start = int(rng.choice([0, n - m, rng.integers(0, n - m + 1)]))
            deltas = rng.normal(0, 0.4, m)
            expected = state.copy()._contiguous_delta_sums(start, deltas)
            reused = state._contiguous_delta_sums(start, deltas)
            for got, want in zip(reused, expected):
                assert np.array_equal(got, want)
            scratch = state._preview_scratch
            assert np.array_equal(
                scratch.head_counts,
                np.clip(np.minimum(start + m, n - lags) - start, 0, m))
            assert np.array_equal(scratch.tail_starts,
                                  np.clip(lags - start, 0, m))
            state.apply_contiguous(start, deltas)
        assert np.allclose(state.acf(), state.recompute_acf(), atol=1e-8)

    @pytest.mark.parametrize("start,length", [
        (60, 9), (30, 1), (0, 5), (0, 120), (3, 30), (115, 5), (96, 24)],
        ids=["interior", "single", "left-edge", "whole", "near-left",
             "right-edge", "near-right"])
    def test_prefix_sums_keep_the_cumsum_bits(self, start, length):
        """``np.add.accumulate`` replaced ``np.cumsum`` for the head/tail
        prefix sums: same ufunc loop, so the four sums built from them must
        not move by a bit."""
        n, max_lag = 120, 24
        state = ACFAggregateState(_random_series(16, n), max_lag)
        deltas = np.random.default_rng(start + length).normal(0, 0.4, length)
        d_sx, d_sxl, d_sx2, d_sx2l, _d_sxxl = state._contiguous_delta_sums(
            start, deltas)
        energy = deltas * (2.0 * state.current[start:start + length] + deltas)
        prefix_d = np.concatenate(([0.0], np.cumsum(deltas)))
        prefix_e = np.concatenate(([0.0], np.cumsum(energy)))
        head_counts = np.clip(n - start - state.lags, 0, length)
        tail_starts = np.clip(state.lags - start, 0, length)
        assert np.array_equal(d_sx, prefix_d[head_counts])
        assert np.array_equal(d_sx2, prefix_e[head_counts])
        assert np.array_equal(d_sxl, prefix_d[length] - prefix_d[tail_starts])
        assert np.array_equal(d_sx2l, prefix_e[length] - prefix_e[tail_starts])

    def test_empty_deltas_is_noop(self):
        x = _random_series(13)
        state = ACFAggregateState(x, 10)
        before = state.acf()
        state.apply_contiguous(5, np.empty(0))
        assert np.array_equal(before, state.acf())

    def test_out_of_bounds_range_raises(self):
        state = ACFAggregateState(_random_series(14), 5)
        with pytest.raises(IndexError):
            state.preview_acf_contiguous(298, np.ones(10))


class TestLagSums:
    """The ``sxxl`` update is one left-to-right expression on every tier:
    the NumPy one the state runs, the scalar twin, the compiled one."""

    N, MAX_LAG = 150, 24

    @staticmethod
    def _ranges(n: int, max_lag: int, m: int) -> dict[str, int]:
        """Where a length-``m`` range meets the lag windows' clipping."""
        return {"left-edge": 0, "near-left": min(3, n - m),
                "interior": (n - m) // 2, "near-right": max(n - m - 3, 0),
                "right-edge": n - m}

    # m crosses the regime edges of what the expression replaced
    # (small_correlate below 12 taps, BLAS ddot kernels at 8/16/32) and of
    # NumPy's own pairwise summation (8)
    @pytest.mark.parametrize("m", range(1, 41))
    def test_numpy_expression_equals_the_scalar_twin_and_the_extension(self, m):
        n, max_lag = self.N, self.MAX_LAG
        rng = np.random.default_rng(m)
        values = rng.normal(0, 1, n) * 10.0 ** rng.integers(-3, 4, n)
        state = ACFAggregateState(values, max_lag)
        native = _kernels._native.MODULE
        for where, start in self._ranges(n, max_lag, m).items():
            deltas = rng.normal(0, 1, m) * 10.0 ** rng.integers(-3, 4, m)
            got = state._contiguous_delta_sums(start, deltas)[4]
            twin = reference_lagged_dot_deltas(state.current, max_lag, start,
                                               deltas)
            assert got.tobytes() == twin.tobytes(), where
            if native is not None:
                compiled = native.lagdot_check(state.current, max_lag, start,
                                               deltas)
                assert got.tobytes() == compiled.tobytes(), where

    @pytest.mark.parametrize("n,max_lag", [(30, 24), (25, 24), (12, 11),
                                           (40, 1), (9, 3)])
    def test_ranges_that_span_both_edges(self, n, max_lag):
        """Short series: one range is clipped on the left for some lags and
        on the right for others — up to the whole series at once."""
        rng = np.random.default_rng(n)
        state = ACFAggregateState(rng.normal(0, 1, n), max_lag)
        native = _kernels._native.MODULE
        for start, m in ((0, n), (1, n - 2), (0, n - 1), (2, n - 3)):
            deltas = rng.normal(0, 1, m)
            got = state._contiguous_delta_sums(start, deltas)[4]
            assert got.tobytes() == reference_lagged_dot_deltas(
                state.current, max_lag, start, deltas).tobytes()
            if native is not None:
                assert got.tobytes() == native.lagdot_check(
                    state.current, max_lag, start, deltas).tobytes()
            state.apply_contiguous(start, deltas)
            assert np.allclose(state.acf(), state.recompute_acf(), atol=1e-9)

    def test_clipped_partners_are_zero_factors(self):
        """Past either end there is nothing to pair with: the update must
        read the margins as zeros, never a neighbouring buffer's values."""
        state = ACFAggregateState(np.arange(1.0, 21.0), 6)
        d_sxxl = state._contiguous_delta_sums(17, np.array([1.0, 1.0, 1.0]))[4]
        # head partners of 18,19,20 at lag l are beyond the end from l=3 on;
        # tail partners are x[17-l..19-l]; cross pairs exist for l=1,2
        expected = [(19.0 + 20.0) + (17 + 18 + 19) + 2,
                    20.0 + (16 + 17 + 18) + 1,
                    15 + 16 + 17, 14 + 15 + 16, 13 + 14 + 15, 12 + 13 + 14]
        assert d_sxxl.tolist() == expected

    def test_a_copy_keeps_its_own_margins(self):
        state = ACFAggregateState(_random_series(31, 60), 8)
        clone = state.copy()
        clone.apply_contiguous(50, np.full(10, 2.0))
        assert not np.shares_memory(clone.current, state.current)
        assert np.array_equal(state.current, _random_series(31, 60))
        fresh = ACFAggregateState(clone.current, 8)
        deltas = np.linspace(-1, 1, 7)
        assert np.array_equal(clone._contiguous_delta_sums(53, deltas)[4],
                              fresh._contiguous_delta_sums(53, deltas)[4])

    @pytest.mark.usefixtures("kernel_tier")
    @pytest.mark.parametrize("config", [
        dict(epsilon=0.01), dict(epsilon=None, target_ratio=25.0),
        dict(epsilon=0.02, batch_size=1)])
    def test_drift_after_a_full_run_stays_below_1e9(self, config):
        """Thousands of incremental updates later the maintained ACF is
        still the recomputed one."""

        class KeepsRun(CameoCompressor):
            def _run(self, values, tracker, hops):
                self.run = super()._run(values, tracker, hops)
                return self.run

        compressor = KeepsRun(max_lag=24, **config)
        result = compressor.compress(_random_series(32, 1500))
        assert result.metadata["removed_points"] > 1000
        state = compressor.run.tracker.state
        assert np.abs(state.acf() - state.recompute_acf()).max() <= 1e-9


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_incremental_always_matches_recompute(self, seed):
        """Property: after arbitrary random batches the incremental ACF equals
        a from-scratch recomputation."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 120))
        max_lag = int(rng.integers(1, min(n - 1, 20)))
        x = rng.normal(0, 1, n)
        state = ACFAggregateState(x, max_lag)
        for _round in range(3):
            count = int(rng.integers(1, 6))
            positions = rng.integers(0, n, count)
            deltas = rng.normal(0, 1, count)
            state.apply_changes(positions, deltas)
        assert np.allclose(state.acf(), state.recompute_acf(), atol=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_contiguous_fast_path_always_matches_generic(self, seed):
        """Property: the closed-form contiguous update equals the sequential
        per-position update for random ranges anywhere in the series."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 150))
        max_lag = int(rng.integers(1, min(n - 1, 25)))
        x = rng.normal(0, 1, n)
        state = ACFAggregateState(x, max_lag)
        start = int(rng.integers(0, n - 1))
        length = int(rng.integers(1, n - start))
        deltas = rng.normal(0, 1, length)
        fast = state.preview_acf_contiguous(start, deltas)
        slow = state.preview_acf(np.arange(start, start + length), deltas)
        assert np.allclose(fast, slow, atol=1e-8)
