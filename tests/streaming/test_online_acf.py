"""Tests for the streaming ACF estimator and drift monitor."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import InvalidParameterError, InvalidSeriesError
from repro.stats import acf
from repro.streaming import AcfDriftMonitor, DriftEvent, OnlineAcfEstimator

RNG = np.random.default_rng(5)


def _seasonal(n: int, period: int = 24, noise: float = 0.1) -> np.ndarray:
    t = np.arange(n)
    return np.sin(2 * np.pi * t / period) + noise * RNG.standard_normal(n)


class TestOnlineAcfEstimator:
    def test_matches_batch_acf(self):
        x = _seasonal(600)
        estimator = OnlineAcfEstimator(max_lag=30)
        estimator.update(x)
        np.testing.assert_allclose(estimator.acf(), acf(x, 30), atol=1e-9)

    def test_incremental_batches_equal_single_batch(self):
        x = _seasonal(500)
        whole = OnlineAcfEstimator(max_lag=12)
        whole.update(x)
        parts = OnlineAcfEstimator(max_lag=12)
        for chunk in np.array_split(x, 7):
            parts.update(chunk)
        np.testing.assert_allclose(parts.acf(), whole.acf(), atol=1e-12)
        assert parts.count == x.size

    def test_short_stream_unobservable_lags_are_zero(self):
        estimator = OnlineAcfEstimator(max_lag=10)
        estimator.update([1.0, 2.0, 3.0])
        result = estimator.acf()
        assert result.size == 10
        assert np.all(result[2:] == 0.0)

    def test_constant_stream_yields_zero_acf(self):
        estimator = OnlineAcfEstimator(max_lag=5)
        estimator.update(np.full(100, 7.0))
        np.testing.assert_array_equal(estimator.acf(), np.zeros(5))

    def test_acf_with_smaller_max_lag(self):
        x = _seasonal(200)
        estimator = OnlineAcfEstimator(max_lag=20)
        estimator.update(x)
        np.testing.assert_allclose(estimator.acf(5), acf(x, 20)[:5], atol=1e-9)

    def test_invalid_requested_lag(self):
        estimator = OnlineAcfEstimator(max_lag=5)
        estimator.update(_seasonal(50))
        with pytest.raises(InvalidParameterError):
            estimator.acf(0)

    def test_rejects_non_finite_values(self):
        estimator = OnlineAcfEstimator(max_lag=3)
        with pytest.raises(InvalidSeriesError):
            estimator.push(np.nan)

    def test_invalid_max_lag(self):
        with pytest.raises(InvalidParameterError):
            OnlineAcfEstimator(max_lag=0)

    @given(arrays(np.float64, st.integers(min_value=20, max_value=150),
                  elements=st.floats(min_value=-100, max_value=100,
                                     allow_nan=False, allow_infinity=False)))
    # Found about once in five runs: series std 2.26, yet every lag's tail
    # window is exactly constant; lag 1 came out 1.25e-6 apart.
    @example(np.array([-37.0] + [-51.664571261546925] * 40))
    @settings(max_examples=25, deadline=None)
    def test_streaming_equals_batch_property(self, x):
        # A lag's correlation divides by its two window variances, each
        # computed as m*sum(x^2) - sum(x)^2 (Equation 7).  When a window's
        # std is small against the size of its values that subtraction
        # cancels: the relative error of the variance is about
        # eps * (max|x| / std)^2, so what the batch and the streaming
        # estimator return (the conventional 0, or noise over noise) depends
        # on the order they built the sums in.  Chosen: the *guard*, not the
        # tolerance -- no tolerance is meaningful for 0/0, and a well-posed
        # lag must keep meeting 1e-6.  The guard is relative (std against
        # max |x|) and per lag window, because the whole-series std does not
        # see the pinned input.  At a floor of 1e-4 the bound above is
        # ~1e-8; 20,000 adversarial series measured 1.8e-7 at worst, and
        # 1.6e-5 at a floor of 1e-5.
        scale = float(np.max(np.abs(x)))
        well_posed = np.array([
            min(np.std(x[:-lag]), np.std(x[lag:])) > 1e-4 * scale
            for lag in range(1, 9)])
        estimator = OnlineAcfEstimator(max_lag=8)
        estimator.update(x)
        streaming = estimator.acf()
        assert np.all(np.isfinite(streaming))
        np.testing.assert_allclose(streaming[well_posed],
                                   acf(x, 8)[well_posed], atol=1e-6)


class TestAcfDriftMonitor:
    def test_no_drift_on_stationary_stream(self):
        x = _seasonal(2_000, period=24)
        monitor = AcfDriftMonitor(max_lag=24, window=240, threshold=0.2)
        events = monitor.update(x)
        assert events == []
        assert monitor.reference is not None

    def test_detects_seasonality_change(self):
        stable = _seasonal(1_000, period=24)
        changed = _seasonal(1_000, period=7)
        monitor = AcfDriftMonitor(max_lag=24, window=240, threshold=0.15)
        assert monitor.update(stable) == []
        events = monitor.update(changed)
        assert len(events) >= 1
        assert isinstance(events[0], DriftEvent)
        assert events[0].deviation >= 0.15
        assert events[0].position > 1_000

    def test_explicit_reference(self):
        x = _seasonal(600, period=24)
        reference = acf(x, 24)
        monitor = AcfDriftMonitor(max_lag=24, window=200, threshold=0.15,
                                  reference=reference)
        np.testing.assert_array_equal(monitor.reference, reference)
        assert monitor.update(x) == []

    def test_cooldown_limits_event_rate(self):
        stable = _seasonal(600, period=24)
        noise = RNG.standard_normal(1_200)
        low_cooldown = AcfDriftMonitor(max_lag=24, window=120, threshold=0.1, cooldown=1)
        high_cooldown = AcfDriftMonitor(max_lag=24, window=120, threshold=0.1, cooldown=600)
        for monitor in (low_cooldown, high_cooldown):
            monitor.update(stable)
            monitor.update(noise)
        assert len(high_cooldown.events) <= len(low_cooldown.events)
        assert len(high_cooldown.events) <= 2

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            AcfDriftMonitor(max_lag=24, window=20, threshold=0.1)
        with pytest.raises(InvalidParameterError):
            AcfDriftMonitor(max_lag=24, window=100, threshold=0.0)
        with pytest.raises(InvalidParameterError):
            AcfDriftMonitor(max_lag=24, window=100, threshold=0.1, reference=[0.1, 0.2])

    def test_rejects_non_finite(self):
        monitor = AcfDriftMonitor(max_lag=4, window=20, threshold=0.1)
        with pytest.raises(InvalidSeriesError):
            monitor.push(np.inf)

    def test_events_recorded_on_monitor(self):
        monitor = AcfDriftMonitor(max_lag=12, window=100, threshold=0.1)
        monitor.update(_seasonal(400, period=12))
        monitor.update(RNG.standard_normal(400))
        assert monitor.events == [] or all(isinstance(e, DriftEvent) for e in monitor.events)
