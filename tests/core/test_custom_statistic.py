"""Tests for compression under user-provided statistics (repro.core.custom)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CameoCompressor, GenericStatisticTracker, StatisticTracker
from repro.exceptions import InvalidParameterError
from repro.stats import acf
from repro.stats.descriptors import (
    AcfStatistic,
    CompositeStatistic,
    CrossCorrelationStatistic,
    MomentStatistic,
    QuantileStatistic,
    SpectralStatistic,
)

RNG = np.random.default_rng(21)


def _seasonal(n: int = 300, period: int = 24, noise: float = 0.1) -> np.ndarray:
    t = np.arange(n)
    return (np.sin(2 * np.pi * t / period)
            + 0.3 * np.sin(2 * np.pi * t / (period * 4))
            + noise * RNG.standard_normal(n))


class TestGenericStatisticTracker:
    def test_reference_matches_direct_computation(self):
        x = _seasonal()
        tracker = GenericStatisticTracker(x, AcfStatistic(12))
        np.testing.assert_allclose(tracker.reference, acf(x, 12))

    def test_requires_statistic_instance(self):
        with pytest.raises(InvalidParameterError):
            GenericStatisticTracker(_seasonal(), statistic="acf")  # type: ignore[arg-type]

    def test_preview_does_not_mutate_state(self):
        x = _seasonal()
        tracker = GenericStatisticTracker(x, MomentStatistic())
        before = tracker.current_values.copy()
        tracker.preview(10, np.asarray([0.5]))
        np.testing.assert_array_equal(tracker.current_values, before)
        np.testing.assert_allclose(tracker.current_statistic(),
                                   MomentStatistic().compute(x))

    def test_apply_updates_current_statistic(self):
        x = _seasonal()
        tracker = GenericStatisticTracker(x, MomentStatistic())
        tracker.apply(5, np.asarray([1.0, -1.0]))
        modified = x.copy()
        modified[5:7] += np.asarray([1.0, -1.0])
        np.testing.assert_allclose(tracker.current_statistic(),
                                   MomentStatistic().compute(modified))

    def test_preview_equals_recompute_on_modified_copy(self):
        x = _seasonal()
        tracker = GenericStatisticTracker(x, AcfStatistic(8))
        deltas = np.asarray([0.25, -0.5, 0.1])
        preview = tracker.preview(40, deltas)
        modified = x.copy()
        modified[40:43] += deltas
        np.testing.assert_allclose(preview, acf(modified, 8))

    def test_empty_delta_preview_returns_current(self):
        tracker = GenericStatisticTracker(_seasonal(), MomentStatistic())
        np.testing.assert_array_equal(tracker.preview(3, np.asarray([])),
                                      tracker.current_statistic())

    def test_agg_window_wraps_statistic(self):
        x = _seasonal(240)
        tracker = GenericStatisticTracker(x, AcfStatistic(6), agg_window=4, agg="mean")
        aggregated = x[: 240 - 240 % 4].reshape(-1, 4).mean(axis=1)
        np.testing.assert_allclose(tracker.reference, acf(aggregated, 6))

    def test_matches_builtin_acf_tracker_reference(self):
        x = _seasonal()
        generic = GenericStatisticTracker(x, AcfStatistic(16))
        builtin = StatisticTracker(x, 16, statistic="acf")
        np.testing.assert_allclose(generic.reference, builtin.reference, atol=1e-9)

    def test_batch_impacts_match_individual_previews(self):
        x = _seasonal(120)
        tracker = GenericStatisticTracker(x, MomentStatistic())
        changes = [(10, np.asarray([0.3])), (50, np.asarray([-0.7, 0.2])), (90, np.asarray([]))]
        batch = tracker.batch_impacts(changes, "mae")
        for (start, deltas), impact in zip(changes, batch):
            if len(deltas) == 0:
                expected = tracker.deviation("mae", tracker.current_statistic())
            else:
                expected = tracker.deviation("mae", tracker.preview(start, deltas))
            assert impact == pytest.approx(expected)

    def test_gap_impacts_match_individual_previews(self):
        x = _seasonal(120)
        tracker = GenericStatisticTracker(x, MomentStatistic())
        gaps = [(9, 11), (49, 53), (90, 91)]
        impacts = tracker.gap_impacts([left for left, _ in gaps],
                                      [right for _, right in gaps], "mae")
        for (left, right), impact in zip(gaps, impacts):
            line = np.linspace(x[left], x[right], right - left + 1)[1:-1]
            expected = tracker.deviation(
                "mae", tracker.preview(left + 1, line - x[left + 1:right]))
            assert impact == pytest.approx(expected)

    def test_initial_impacts_cover_interior_points(self):
        x = _seasonal(80)
        tracker = GenericStatisticTracker(x, MomentStatistic(["mean", "std"]))
        positions, impacts = tracker.initial_impacts("mae")
        assert positions.size == x.size - 2
        assert np.all(np.isfinite(impacts)) and np.all(impacts >= 0)


class TestCompressionWithCustomStatistics:
    @pytest.mark.parametrize("statistic", [
        MomentStatistic(),
        QuantileStatistic((0.1, 0.5, 0.9)),
        SpectralStatistic(8),
        AcfStatistic(12),
    ], ids=["moments", "quantiles", "spectrum", "acf-object"])
    def test_bound_is_honoured(self, statistic):
        x = _seasonal(250)
        epsilon = 0.02
        compressor = CameoCompressor(max_lag=12, epsilon=epsilon, statistic=statistic,
                                     blocking="3logn")
        result = compressor.compress(x)
        reconstruction = result.decompress()
        deviation = float(np.mean(np.abs(
            statistic.compute(x) - statistic.compute(reconstruction))))
        assert deviation <= epsilon + 1e-9
        assert result.compression_ratio() >= 1.0
        assert result.metadata["statistic"] == statistic.name

    def test_acf_object_tracks_builtin_behaviour(self):
        """The generic path and the incremental path preserve the same bound."""
        x = _seasonal(250)
        epsilon = 0.05
        generic = CameoCompressor(max_lag=12, epsilon=epsilon,
                                  statistic=AcfStatistic(12)).compress(x)
        builtin = CameoCompressor(max_lag=12, epsilon=epsilon,
                                  statistic="acf").compress(x)
        for result in (generic, builtin):
            deviation = float(np.mean(np.abs(
                acf(x, 12) - acf(result.decompress(), 12))))
            assert deviation <= epsilon + 1e-9
        # Both should achieve a non-trivial reduction on a smooth seasonal series.
        assert generic.compression_ratio() > 1.5
        assert builtin.compression_ratio() > 1.5

    def test_composite_statistic_compression(self):
        x = _seasonal(200)
        statistic = CompositeStatistic(
            [AcfStatistic(8), MomentStatistic(["mean", "std"])], weights=[1.0, 0.25])
        result = CameoCompressor(max_lag=8, epsilon=0.03,
                                 statistic=statistic).compress(x)
        deviation = float(np.mean(np.abs(
            statistic.compute(x) - statistic.compute(result.decompress()))))
        assert deviation <= 0.03 + 1e-9

    def test_cross_correlation_statistic_compression(self):
        x = _seasonal(200)
        companion = np.roll(x, -2) + 0.05 * RNG.standard_normal(x.size)
        statistic = CrossCorrelationStatistic(companion, max_lag=4)
        result = CameoCompressor(max_lag=4, epsilon=0.02,
                                 statistic=statistic).compress(x)
        deviation = float(np.mean(np.abs(
            statistic.compute(x) - statistic.compute(result.decompress()))))
        assert deviation <= 0.02 + 1e-9

    def test_target_ratio_mode_with_custom_statistic(self):
        x = _seasonal(240)
        result = CameoCompressor(max_lag=8, epsilon=None, target_ratio=4.0,
                                 statistic=MomentStatistic()).compress(x)
        assert result.compression_ratio() >= 4.0 - 1e-9

    def test_custom_statistic_with_agg_window(self):
        x = _seasonal(320)
        statistic = MomentStatistic(["mean", "std"])
        result = CameoCompressor(max_lag=4, epsilon=0.02, statistic=statistic,
                                 agg_window=4, agg="mean").compress(x)
        original_agg = x[: 320 - 320 % 4].reshape(-1, 4).mean(axis=1)
        recon = result.decompress()
        recon_agg = recon[: 320 - 320 % 4].reshape(-1, 4).mean(axis=1)
        deviation = float(np.mean(np.abs(
            statistic.compute(original_agg) - statistic.compute(recon_agg))))
        assert deviation <= 0.02 + 1e-9

    @given(st.floats(min_value=0.005, max_value=0.1))
    @settings(max_examples=8, deadline=None)
    def test_bound_honoured_across_epsilons(self, epsilon):
        x = _seasonal(150)
        statistic = MomentStatistic(["mean", "std"])
        result = CameoCompressor(max_lag=8, epsilon=epsilon,
                                 statistic=statistic).compress(x)
        deviation = float(np.mean(np.abs(
            statistic.compute(x) - statistic.compute(result.decompress()))))
        assert deviation <= epsilon + 1e-9

    def test_larger_epsilon_never_reduces_compression(self):
        x = _seasonal(200)
        statistic = SpectralStatistic(8)
        tight = CameoCompressor(max_lag=8, epsilon=0.001, statistic=statistic).compress(x)
        loose = CameoCompressor(max_lag=8, epsilon=0.05, statistic=statistic).compress(x)
        assert loose.compression_ratio() >= tight.compression_ratio() - 1e-9
