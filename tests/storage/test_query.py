"""Tests for the analytical query layer (repro.storage.query)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, StorageError
from repro.faultinject import inject_bit_flip
from repro.stats import acf
from repro.storage import DurableStore, QueryEngine, TimeSeriesStore
from repro.storage.query import SUPPORTED_AGGREGATES

RNG = np.random.default_rng(17)


def _seasonal(n: int, period: int = 48) -> np.ndarray:
    t = np.arange(n)
    return 100 + 10 * np.sin(2 * np.pi * t / period) + 0.5 * RNG.standard_normal(n)


@pytest.fixture()
def lossless_store():
    store = TimeSeriesStore()
    store.create_series("power", codec="raw", segment_size=100)
    values = _seasonal(520)
    store.append("power", values)
    return store, values


@pytest.fixture()
def cameo_store():
    store = TimeSeriesStore()
    store.create_series("power", codec="cameo", segment_size=480,
                        codec_options={"max_lag": 48, "epsilon": 0.02})
    values = _seasonal(960)
    store.append("power", values)
    store.flush("power")
    return store, values


class TestBasicLookups:
    def test_point_and_range(self, lossless_store):
        store, values = lossless_store
        engine = QueryEngine(store)
        assert engine.point("power", 123) == pytest.approx(values[123])
        np.testing.assert_array_equal(engine.range("power", 50, 150), values[50:150])

    def test_latest(self, lossless_store):
        store, values = lossless_store
        engine = QueryEngine(store)
        np.testing.assert_array_equal(engine.latest("power", 30), values[-30:])

    def test_latest_longer_than_series(self, lossless_store):
        store, values = lossless_store
        engine = QueryEngine(store)
        assert engine.latest("power", 10_000).size == values.size

    def test_requires_store(self):
        with pytest.raises(InvalidParameterError):
            QueryEngine(store=object())  # type: ignore[arg-type]


class TestAggregatePushdown:
    def test_full_range_mean_matches_numpy(self, lossless_store):
        store, values = lossless_store
        result = QueryEngine(store).aggregate("power", "mean")
        assert result.value == pytest.approx(np.mean(values))
        assert result.rows == values.size

    @pytest.mark.parametrize("agg,np_fn", [
        ("sum", np.sum), ("min", np.min), ("max", np.max), ("mean", np.mean),
    ])
    def test_partial_range_aggregates(self, lossless_store, agg, np_fn):
        store, values = lossless_store
        result = QueryEngine(store).aggregate("power", agg, start=130, stop=430)
        assert result.value == pytest.approx(np_fn(values[130:430]))

    def test_count_aggregate(self, lossless_store):
        store, _ = lossless_store
        result = QueryEngine(store).aggregate("power", "count", start=10, stop=60)
        assert result.value == 50

    def test_pushdown_skips_fully_covered_segments(self, lossless_store):
        store, _ = lossless_store
        # Range [100, 400) fully covers segments [100,200), [200,300), [300,400)
        # and touches no partial segment.
        result = QueryEngine(store).aggregate("power", "sum", start=100, stop=400)
        assert result.segments_decoded == 0
        assert result.pushdown_fraction == pytest.approx(1.0)

    def test_partial_coverage_decodes_boundary_segments_only(self, lossless_store):
        store, _ = lossless_store
        result = QueryEngine(store).aggregate("power", "sum", start=150, stop=350)
        assert result.segments_decoded == 2     # the two half-covered ones
        assert result.segments_pruned >= 1      # segments after 400 skipped

    def test_buffer_included_in_aggregate(self, lossless_store):
        store, values = lossless_store
        # 520 points with segment_size 100 leaves 20 buffered values.
        result = QueryEngine(store).aggregate("power", "sum", start=480, stop=520)
        assert result.value == pytest.approx(np.sum(values[480:520]))

    def test_unknown_aggregate_rejected(self, lossless_store):
        store, _ = lossless_store
        with pytest.raises(InvalidParameterError):
            QueryEngine(store).aggregate("power", "median")

    def test_empty_range_rejected(self, lossless_store):
        store, _ = lossless_store
        with pytest.raises(StorageError):
            QueryEngine(store).aggregate("power", "mean", start=100, stop=100)

    def test_negative_bounds_rejected_like_read(self):
        store = TimeSeriesStore()
        store.create_series("y", codec="raw", segment_size=4)
        store.append("y", np.arange(10.0))
        engine = QueryEngine(store)
        for start, stop in ((-5, 4), (0, -1), (-1, None)):
            with pytest.raises(StorageError, match="non-negative") as read:
                engine.range("y", start, stop)
            with pytest.raises(StorageError, match="non-negative") as aggregate:
                engine.aggregate("y", "sum", start, stop)
            assert str(aggregate.value) == str(read.value)

    def test_cameo_aggregate_close_to_truth(self, cameo_store):
        store, values = cameo_store
        result = QueryEngine(store).aggregate("power", "mean")
        assert result.value == pytest.approx(np.mean(values), rel=0.02)


class TestAggregateOverQuarantine:
    """Three 4-value segments, the middle one quarantined: ``[4, 8)`` is a
    hole no segment covers."""

    @pytest.fixture()
    def engine(self, tmp_path):
        root = tmp_path / "store"
        store = DurableStore.create(root, default_segment_size=4)
        store.create_series("x", codec="raw")
        store.append("x", np.arange(12.0))
        store.close()
        inject_bit_flip(sorted(root.glob("segments/*/*/seg-*.seg"))[1], 99)
        with DurableStore.open(root) as reopened:
            assert reopened.holes("x")[0]["start"] == 4
            yield QueryEngine(reopened.memory)

    @pytest.mark.parametrize("agg", SUPPORTED_AGGREGATES)
    def test_ranges_over_the_hole_raise_like_read(self, engine, agg):
        for start, stop in ((0, 12), (2, 10), (4, 8), (7, 9)):
            with pytest.raises(StorageError, match="quarantined") as read:
                engine.range("x", start, stop)
            with pytest.raises(StorageError, match="quarantined") as aggregate:
                engine.aggregate("x", agg, start, stop)
            assert str(aggregate.value) == str(read.value)

    def test_ranges_beside_the_hole_count_each_segment_once(self, engine):
        after = engine.aggregate("x", "sum", 8, 12)
        assert (after.value, after.rows) == (38.0, 4)
        before = engine.aggregate("x", "sum", 0, 4)
        assert (before.value, before.rows) == (6.0, 4)
        assert engine.aggregate("x", "count", 9, 12).value == 3


class TestStatisticalQueries:
    def test_windowed_aggregate(self, lossless_store):
        store, values = lossless_store
        windows = QueryEngine(store).windowed_aggregate("power", window=50, agg="mean")
        expected = values[:500].reshape(-1, 50).mean(axis=1)
        np.testing.assert_allclose(windows[:10], expected)

    def test_windowed_aggregate_window_too_large(self, lossless_store):
        store, _ = lossless_store
        with pytest.raises(StorageError):
            QueryEngine(store).windowed_aggregate("power", window=10_000)

    def test_acf_query_on_lossless_store_is_exact(self, lossless_store):
        store, values = lossless_store
        result = QueryEngine(store).acf("power", max_lag=48)
        np.testing.assert_allclose(result, acf(values, 48))

    def test_acf_query_on_cameo_store_within_bound(self, cameo_store):
        store, values = cameo_store
        result = QueryEngine(store).acf("power", max_lag=48)
        # Each sealed segment honours epsilon=0.02; the ACF of the whole
        # reconstruction stays close to the original (small slack for
        # cross-segment effects).
        deviation = float(np.mean(np.abs(result - acf(values, 48))))
        assert deviation <= 0.05

    def test_acf_query_with_aggregation(self, lossless_store):
        store, values = lossless_store
        result = QueryEngine(store).acf("power", max_lag=8, agg_window=10, agg="mean")
        aggregated = values[:520 - 520 % 10].reshape(-1, 10).mean(axis=1)
        np.testing.assert_allclose(result, acf(aggregated, 8))

    def test_acf_query_too_short(self, lossless_store):
        store, _ = lossless_store
        with pytest.raises(StorageError):
            QueryEngine(store).acf("power", max_lag=4, start=0, stop=2)

    def test_seasonal_profile(self, lossless_store):
        store, values = lossless_store
        profile = QueryEngine(store).seasonal_profile("power", period=48)
        usable = values[: values.size - values.size % 48]
        np.testing.assert_allclose(profile, usable.reshape(-1, 48).mean(axis=0))
        # The seasonal shape of the synthetic signal is a sine: max near 1/4 period.
        assert 6 <= int(np.argmax(profile)) <= 18

    def test_seasonal_profile_period_too_large(self, lossless_store):
        store, _ = lossless_store
        with pytest.raises(StorageError):
            QueryEngine(store).seasonal_profile("power", period=10_000)


class TestEndToEndStorageScenario:
    def test_ingest_query_compact_cycle(self):
        """Integration: ingest with CAMEO, query, compact to a baseline codec."""
        store = TimeSeriesStore()
        store.create_series("sensor", codec="cameo", segment_size=512,
                            codec_options={"max_lag": 24, "epsilon": 0.05})
        values = _seasonal(2_048, period=24)
        store.append("sensor", values)
        store.flush("sensor")

        engine = QueryEngine(store)
        cameo_info = store.info("sensor")
        assert cameo_info.compression_ratio > 1.5

        mean_before = engine.aggregate("sensor", "mean").value
        acf_before = engine.acf("sensor", max_lag=24)

        gorilla_info = store.compact("sensor", codec="gorilla")
        assert gorilla_info.points == values.size
        mean_after = QueryEngine(store).aggregate("sensor", "mean").value
        acf_after = QueryEngine(store).acf("sensor", max_lag=24)

        # Compaction re-encodes the reconstruction losslessly: analytics are unchanged.
        assert mean_after == pytest.approx(mean_before)
        np.testing.assert_allclose(acf_after, acf_before)
