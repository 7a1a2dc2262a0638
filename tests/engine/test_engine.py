"""Batch-engine determinism and fault isolation (ISSUE 5 satellite).

The engine's contract: every backend produces results bit-identical to the
per-series sequential run (kept-point sets for CAMEO, byte-identical
payloads for the XOR codecs), and one poisoned series yields an error
record, never a dead batch.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.codecs import get_codec
from repro.engine import BatchEngine, compress_batch
from repro.engine.supervisor import resolve_workers
from repro.exceptions import InvalidParameterError
from repro.metrics import chebyshev

BACKENDS = ("serial", "thread")

#: Engine runs the determinism tests compare against per-series encodes:
#: ``(backend, workers)``.  ``thread-4`` splits every fleet below into four
#: chunks, so four GIL-free kernel calls run at once instead of two.
RUNS = {"serial": ("serial", 1), "thread": ("thread", 2),
        "thread-4": ("thread", 4)}


def _fleet(count: int, length: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    base = 5.0 + 2.0 * np.sin(2 * np.pi * t / 24)
    return [base + rng.normal(0.0, 0.3, length) for _ in range(count)]


def _mixed_length_fleet() -> list[np.ndarray]:
    """Five 120-point series and one 10-point series: at ``max_lag=16`` the
    effective lags are 16 and 9."""
    rng = np.random.default_rng(13)
    fleet = [2 * np.sin(2 * np.pi * np.arange(120) / 24)
             + rng.normal(0, 0.3, 120) for _ in range(5)]
    fleet.append(2 * np.sin(2 * np.pi * np.arange(10) / 5)
                 + rng.normal(0, 0.1, 10))
    return fleet


def _two_lag_bucket_fleet() -> list[np.ndarray]:
    """Three 150-point and three 12-point series: effective lags 16 and 11."""
    rng = np.random.default_rng(14)
    return ([rng.normal(0, 1, 150) for _ in range(3)]
            + [rng.normal(0, 1, 12) for _ in range(3)])


CAMEO_INPUTS = {
    "uniform": (lambda: _fleet(9, 150, seed=17), dict(max_lag=12, epsilon=0.04)),
    "mixed-length": (_mixed_length_fleet, dict(max_lag=16, epsilon=0.05)),
    "two-lag-buckets": (_two_lag_bucket_fleet, dict(max_lag=16, epsilon=0.05)),
}

# ``chebyshev`` passed as a function object takes the row-wise callable
# path (no closed form, not served by the native loop).
CAMEO_CONFIGS = {
    "acf": dict(statistic="acf"),
    "pacf": dict(statistic="pacf"),
    "callable-metric": dict(metric=chebyshev),
}

# Every input under every configuration, except the one pairing that would
# add ~16 s to tier-1 for no new route: the row-wise callable path costs
# ~0.1 s per 150-point series, and the two short fleets already take it
# through every backend and tier.
CAMEO_CASES = [pytest.param(inputs, config, id=f"{inputs}-{config}")
               for inputs in CAMEO_INPUTS for config in CAMEO_CONFIGS
               if (inputs, config) != ("uniform", "callable-metric")]


class TestDeterminism:
    @pytest.mark.parametrize("run", RUNS)
    @pytest.mark.parametrize("inputs, config", CAMEO_CASES)
    def test_cameo_identical_to_sequential(self, run, inputs, config,
                                           kernel_tier):
        """Fixed-seed batch == per-series ``codec.encode``, block for block:
        a CAMEO series has one route on every backend, width and tier."""
        backend, workers = RUNS[run]
        make_fleet, options = CAMEO_INPUTS[inputs]
        fleet = make_fleet()
        options = {**options, **CAMEO_CONFIGS[config]}
        result = compress_batch(fleet, codec="cameo", codec_options=options,
                                backend=backend, workers=workers)
        codec = get_codec("cameo", **options)
        assert result.report.failed == 0
        assert result.report.chunks == min(len(fleet), workers)
        assert result.report.fastpath_series == 0
        for outcome, series in zip(result, fleet):
            block, reference = outcome.unwrap(), codec.encode(series)
            assert outcome.fastpath is None
            assert (block.payload.indices.tolist()
                    == reference.payload.indices.tolist())
            assert np.array_equal(block.payload.values,
                                  reference.payload.values)
            assert ((block.codec, block.length, block.bits, block.lossless)
                    == (reference.codec, reference.length, reference.bits,
                        reference.lossless))
            for metadata in (block.metadata, reference.metadata):
                metadata.pop("elapsed_seconds")
            assert block.metadata == reference.metadata

    @pytest.mark.parametrize("run", RUNS)
    @pytest.mark.parametrize("codec_name", ["gorilla", "chimp"])
    def test_xor_payloads_byte_identical(self, run, codec_name):
        backend, workers = RUNS[run]
        fleet = [np.round(series, 2) for series in _fleet(7, 220, seed=23)]
        fleet.append(np.round(_fleet(1, 97, seed=5)[0], 2))  # odd length out
        result = compress_batch(fleet, codec=codec_name, backend=backend,
                                workers=workers)
        codec = get_codec(codec_name)
        assert result.report.failed == 0
        for outcome, series in zip(result, fleet):
            assert outcome.unwrap().payload == codec.encode(series).payload

    def test_fastpath_off_matches_fastpath_on(self):
        """``fastpath=`` only switches the stacked XOR encode."""
        fleet = [np.round(series, 2) for series in _fleet(6, 120, seed=9)]
        on = compress_batch(fleet, codec="gorilla", fastpath=True)
        off = compress_batch(fleet, codec="gorilla", fastpath=False)
        assert on.report.fastpath_series == 6
        assert off.report.fastpath_series == 0
        for left, right in zip(on, off):
            assert left.unwrap().payload == right.unwrap().payload

    def test_outcomes_in_input_order(self):
        fleet = _fleet(12, 64, seed=4)
        result = compress_batch(fleet, codec="raw", backend="thread",
                                workers=3)
        assert [outcome.index for outcome in result] == list(range(12))


class TestFaultIsolation:
    @pytest.mark.parametrize("run", RUNS)
    def test_poisoned_series_do_not_kill_the_batch(self, run):
        backend, workers = RUNS[run]
        fleet = _fleet(6, 150, seed=41)
        fleet[2] = np.full(80, np.nan)          # NaN-only
        fleet[4] = np.empty(0, dtype=np.float64)  # length 0
        result = compress_batch(fleet, codec="cameo",
                                codec_options=dict(max_lag=12, epsilon=0.05),
                                backend=backend, workers=workers)
        assert result.report.series == 6
        assert result.report.failed == 2
        errors = result.errors()
        assert sorted(outcome.index for outcome in errors) == [2, 4]
        for outcome in errors:
            assert outcome.error_type == "InvalidSeriesError"
            assert outcome.error
            with pytest.raises(Exception):
                outcome.unwrap()
        healthy = [outcome for outcome in result if outcome.ok]
        assert len(healthy) == 4
        codec = get_codec("cameo", max_lag=12, epsilon=0.05)
        for outcome in healthy:
            reference = codec.encode(fleet[outcome.index])
            assert (outcome.unwrap().payload.indices.tolist()
                    == reference.payload.indices.tolist())

    def test_error_recorded_per_series_with_lossless_codec(self):
        fleet = _fleet(4, 100, seed=2)
        fleet[1] = np.array([1.0, np.inf, 3.0])
        result = compress_batch(fleet, codec="gorilla")
        assert result.report.failed == 1
        assert result[1].error_type == "InvalidSeriesError"
        assert all(result[index].ok for index in (0, 2, 3))


class TestSources:
    def test_named_pairs_and_names_override(self):
        fleet = _fleet(3, 64, seed=8)
        result = compress_batch([("a", fleet[0]), ("b", fleet[1]),
                                 ("c", fleet[2])], codec="raw")
        assert [outcome.name for outcome in result] == ["a", "b", "c"]

    def test_mapping_source(self):
        fleet = _fleet(2, 64, seed=8)
        result = compress_batch({"x": fleet[0], "y": fleet[1]}, codec="raw")
        assert [outcome.name for outcome in result] == ["x", "y"]

    def test_store_source(self):
        from repro.storage import TimeSeriesStore

        store = TimeSeriesStore()
        fleet = [np.round(series, 2) for series in _fleet(3, 128, seed=3)]
        for index, series in enumerate(fleet):
            store.create_series(f"sensor-{index}", codec="raw")
            store.append(f"sensor-{index}", series)
            store.flush(f"sensor-{index}")
        result = compress_batch(store, codec="gorilla")
        assert result.report.failed == 0
        codec = get_codec("gorilla")
        for outcome, series in zip(result, fleet):
            assert outcome.unwrap().payload == codec.encode(series).payload

    def test_dtype_preserved_through_backends(self):
        fleet = [series.astype(np.float32) for series in _fleet(3, 90, seed=6)]
        for backend in BACKENDS:
            result = compress_batch(fleet, codec="gorilla", backend=backend,
                                    workers=2)
            codec = get_codec("gorilla")
            for outcome, series in zip(result, fleet):
                decoded = codec.decode(outcome.unwrap())
                assert decoded.dtype == np.float32
                assert np.array_equal(decoded, series)


class TestReport:
    def test_report_accounting(self):
        fleet = _fleet(5, 128, seed=14)
        engine = BatchEngine("gorilla", backend="serial")
        result = engine.compress(fleet)
        report = result.report
        assert report.series == 5 and report.failed == 0
        assert report.total_points == 5 * 128
        assert report.encoded_bits == sum(
            outcome.unwrap().bits for outcome in result)
        assert report.points_per_sec > 0
        assert report.wall_seconds > 0
        as_dict = report.as_dict()
        assert as_dict["codec"] == "gorilla"
        assert as_dict["series"] == 5

    def test_report_fields_are_the_supervisor_counters(self):
        # as_dict is what /compress returns: every run statistic, the
        # supervisor's counters, and nothing else.
        report = compress_batch(_fleet(3, 64, seed=1), codec="raw",
                                backend="thread", workers=2).report
        assert set(report.as_dict()) == {
            "codec", "backend", "workers", "series", "failed",
            "total_points", "encoded_bits", "chunks", "fastpath_series",
            "wall_seconds", "cpu_seconds", "retries", "timeouts",
            "quarantined_chunks", "degraded_chunks", "degraded_series",
            "sanitized_series", "points_per_sec", "bits_per_value",
            "compression_ratio"}
        assert report.cpu_seconds >= 0.0

    def test_unknown_codec_and_backend_rejected(self):
        with pytest.raises(InvalidParameterError):
            BatchEngine("definitely-not-a-codec")
        with pytest.raises(InvalidParameterError):
            BatchEngine("raw", backend="gpu")


class TestResolveWorkers:
    def test_serial_is_one_worker_whatever_is_asked(self):
        assert resolve_workers("serial", None) == 1
        assert resolve_workers("serial", 8) == 1

    def test_thread_defaults_to_the_cpu_count(self):
        assert resolve_workers("thread", None) == max(os.cpu_count() or 1, 1)
        assert resolve_workers("thread", 3) == 3

    def test_thread_rejects_fewer_than_one_worker(self):
        with pytest.raises(InvalidParameterError, match="workers"):
            resolve_workers("thread", 0)
