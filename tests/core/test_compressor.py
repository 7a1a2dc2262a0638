"""Tests for the CAMEO compressor (Algorithm 1 and its variants)."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.codecs import get_codec
from repro.core import CameoCompressor, cameo_compress, compress_multivariate
from repro.data import IrregularSeries, TimeSeries
from repro.exceptions import InvalidParameterError
from repro.metrics import chebyshev, mae
from repro.stats import acf, pacf, tumbling_window_aggregate


def _seasonal(n: int = 1200, seed: int = 0, noise: float = 0.3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return 5 + 2 * np.sin(2 * np.pi * t / 24) + rng.normal(0, noise, n)


def acf_dev(x: np.ndarray, result: IrregularSeries, max_lag: int, metric=mae) -> float:
    return metric(acf(x, max_lag), acf(result.decompress(), max_lag))


class TestErrorBoundedMode:
    def test_bound_respected_small_epsilon(self):
        x = _seasonal()
        result = cameo_compress(x, max_lag=24, epsilon=0.005)
        assert acf_dev(x, result, 24) <= 0.005 + 1e-9

    def test_bound_respected_larger_epsilon(self):
        x = _seasonal(seed=1)
        result = cameo_compress(x, max_lag=24, epsilon=0.05)
        assert acf_dev(x, result, 24) <= 0.05 + 1e-9

    def test_larger_epsilon_gives_higher_compression(self):
        x = _seasonal(seed=2)
        small = cameo_compress(x, max_lag=24, epsilon=0.005)
        large = cameo_compress(x, max_lag=24, epsilon=0.05)
        assert large.compression_ratio() >= small.compression_ratio()

    def test_endpoints_always_kept(self):
        x = _seasonal(400, seed=3)
        result = cameo_compress(x, max_lag=12, epsilon=0.05)
        assert result.indices[0] == 0
        assert result.indices[-1] == x.size - 1

    def test_retained_values_are_original(self):
        x = _seasonal(400, seed=4)
        result = cameo_compress(x, max_lag=12, epsilon=0.02)
        assert np.array_equal(result.values, x[result.indices])

    def test_achieves_some_compression_on_smooth_series(self):
        t = np.arange(600)
        x = np.sin(2 * np.pi * t / 50)
        result = cameo_compress(x, max_lag=50, epsilon=0.02)
        assert result.compression_ratio() > 2.0

    def test_metadata_populated(self):
        x = _seasonal(400, seed=5)
        result = cameo_compress(x, max_lag=12, epsilon=0.02)
        for key in ("compressor", "achieved_deviation", "kept_points", "stopped_by",
                    "iterations", "elapsed_seconds"):
            assert key in result.metadata
        assert result.metadata["compressor"] == "CAMEO"
        assert result.metadata["achieved_deviation"] <= 0.02

    def test_accepts_timeseries_container(self):
        x = _seasonal(400, seed=6)
        series = TimeSeries(values=x, name="unit-test", period=24)
        result = CameoCompressor(12, 0.02).compress(series)
        assert "unit-test" in result.name

    def test_on_violation_skip_compresses_at_least_as_much(self):
        x = _seasonal(500, seed=7)
        stop = CameoCompressor(24, 0.01, on_violation="stop").compress(x)
        skip = CameoCompressor(24, 0.01, on_violation="skip").compress(x)
        assert skip.compression_ratio() >= stop.compression_ratio() - 1e-9
        assert acf_dev(x, skip, 24) <= 0.01 + 1e-9


class TestCompressionCentricMode:
    def test_reaches_target_ratio(self):
        x = _seasonal(seed=8)
        result = CameoCompressor(24, epsilon=None, target_ratio=4.0).compress(x)
        assert result.compression_ratio() >= 4.0 - 1e-9

    def test_combined_mode_stops_at_first_constraint(self):
        x = _seasonal(seed=9)
        result = CameoCompressor(24, epsilon=0.001, target_ratio=50.0).compress(x)
        # Either the ratio or the bound stopped it, but the bound always holds.
        assert acf_dev(x, result, 24) <= 0.001 + 1e-9

    def test_no_mode_selected_raises(self):
        with pytest.raises(InvalidParameterError):
            CameoCompressor(10, epsilon=None, target_ratio=None)


class TestAggregatedMode:
    def test_aggregate_bound_respected(self):
        n = 4000
        rng = np.random.default_rng(10)
        x = 50 + 10 * np.sin(2 * np.pi * np.arange(n) / 200) + rng.normal(0, 1, n)
        window = 20
        result = CameoCompressor(10, 0.01, agg_window=window).compress(x)
        original = tumbling_window_aggregate(x, window)
        reconstructed = tumbling_window_aggregate(result.decompress(), window)
        assert mae(acf(original, 10), acf(reconstructed, 10)) <= 0.01 + 1e-9

    def test_aggregated_mode_reaches_high_compression(self):
        n = 3000
        rng = np.random.default_rng(11)
        x = 50 + 10 * np.sin(2 * np.pi * np.arange(n) / 150) + rng.normal(0, 1, n)
        aggregated = CameoCompressor(10, 0.01, agg_window=15).compress(x)
        # Preserving 10 lags of the 15-point window means covering the full
        # 150-sample season; the smooth signal still compresses well.
        assert aggregated.compression_ratio() > 10.0


class TestPacfMode:
    def test_pacf_bound_respected(self):
        x = _seasonal(500, seed=12)
        result = CameoCompressor(8, 0.05, statistic="pacf").compress(x)
        deviation = mae(pacf(x, 8), pacf(result.decompress(), 8))
        assert deviation <= 0.05 + 1e-9


class TestMetricVariants:
    def test_chebyshev_constraint(self):
        x = _seasonal(800, seed=13)
        result = CameoCompressor(24, 0.02, metric="cheb").compress(x)
        deviation = chebyshev(acf(x, 24), acf(result.decompress(), 24))
        assert deviation <= 0.02 + 1e-9

    def test_custom_callable_metric(self):
        x = _seasonal(500, seed=14)
        metric = lambda a, b: float(np.mean((np.asarray(a) - np.asarray(b)) ** 2))  # noqa: E731
        result = CameoCompressor(12, 1e-4, metric=metric).compress(x)
        deviation = metric(acf(x, 12), acf(result.decompress(), 12))
        assert deviation <= 1e-4 + 1e-12


class TestEdgeCases:
    def test_tiny_series_returned_unchanged(self):
        x = np.array([1.0, 2.0, 3.0])
        result = cameo_compress(x, max_lag=2, epsilon=0.1)
        assert len(result) == 3
        assert np.allclose(result.decompress(), x)

    def test_constant_series(self):
        x = np.full(200, 3.14)
        result = cameo_compress(x, max_lag=10, epsilon=0.01)
        assert np.allclose(result.decompress(), x)
        assert result.compression_ratio() > 10

    def test_linear_series_compresses_to_near_two_points(self):
        x = np.linspace(0, 100, 500)
        result = cameo_compress(x, max_lag=10, epsilon=0.01)
        assert len(result) <= 10
        assert np.allclose(result.decompress(), x, atol=1e-8)

    def test_max_lag_clamped_to_series_length(self):
        x = _seasonal(60, seed=15)
        result = cameo_compress(x, max_lag=500, epsilon=0.1)
        assert result.original_length == 60

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            CameoCompressor(10, -0.1)
        with pytest.raises(InvalidParameterError):
            CameoCompressor(10, 0.1, target_ratio=0.5)
        with pytest.raises(InvalidParameterError):
            CameoCompressor(10, 0.1, on_violation="explode")
        with pytest.raises(InvalidParameterError):
            CameoCompressor(10, 0.1, min_keep=1)
        with pytest.raises(InvalidParameterError):
            CameoCompressor(10, 0.1, blocking_window_scale=0)


class TestMultivariate:
    def test_each_column_bounded(self):
        rng = np.random.default_rng(16)
        columns = [
            2 + np.sin(2 * np.pi * np.arange(500) / 25) + rng.normal(0, 0.2, 500),
            5 + np.cos(2 * np.pi * np.arange(500) / 50) + rng.normal(0, 0.2, 500),
        ]
        results = compress_multivariate(columns, max_lag=25, epsilon=0.02)
        assert len(results) == 2
        for column, result in zip(columns, results):
            assert acf_dev(column, result, 25) <= 0.02 + 1e-9


class TestSharedCompressor:
    @pytest.mark.usefixtures("kernel_tier")
    def test_threads_sharing_one_codec_return_the_serial_kept_sets(self):
        """One codec holds one compressor, and the thread backend hands it
        to every worker: nothing of a run may live on the compressor.  More
        threads than cores and a short switch interval make the runs
        interleave at every opportunity."""
        rng = np.random.default_rng(12)
        fleet = [_seasonal(int(rng.integers(150, 320)), seed=seed,
                           noise=float(rng.choice([0.1, 0.3, 1.0])))
                 for seed in range(8)]
        codec = get_codec("cameo", max_lag=12, epsilon=0.03)
        serial = [codec.compress(values) for values in fleet]
        results = [None] * len(fleet)
        errors = []

        def work(index):
            try:
                for _repeat in range(3):
                    results[index] = codec.compress(fleet[index])
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(index,))
                       for index in range(len(fleet))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(thread.is_alive() for thread in threads)
        for got, want in zip(results, serial):
            assert got.indices.tolist() == want.indices.tolist()
            for key in ("iterations", "removed_points", "achieved_deviation",
                        "reheap_updates", "stopped_by", "preview_reuse"):
                assert got.metadata[key] == want.metadata[key], key
