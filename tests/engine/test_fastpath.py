"""Cross-series fast paths: stacked XOR encode + lock-step CAMEO.

Both fast paths carry a hard identity contract — byte-identical XOR
payloads, bit-identical CAMEO kept-point sets — verified here against the
per-series implementations, along with the stacked multi-state kernel that
powers the lock-step driver.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CameoCompressor
from repro.core.impact import batched_contiguous_acf, multi_state_contiguous_acf
from repro.engine.cameo_batch import lockstep_compress, lockstep_eligible
from repro.lossless import ChimpCodec, GorillaCodec
from repro.stats.aggregates import ACFAggregateState


class TestStackedXorEncode:
    @pytest.mark.parametrize("codec_cls", [GorillaCodec, ChimpCodec],
                             ids=["gorilla", "chimp"])
    @pytest.mark.parametrize("length", [1, 2, 63, 64, 65, 300])
    def test_batch_byte_identical_to_single(self, codec_cls, length):
        rng = np.random.default_rng(length)
        codec = codec_cls()
        matrix = np.round(rng.normal(100.0, 5.0, (7, length)), 2)
        batch = codec.encode_batch(matrix)
        for row in range(matrix.shape[0]):
            payload, bits, count = codec.encode(matrix[row])
            assert batch[row] == (payload, bits, count)
            assert np.array_equal(codec.decode(*batch[row]), matrix[row])

    def test_constant_and_special_values(self):
        codec = GorillaCodec()
        matrix = np.vstack([
            np.full(50, 3.25),
            np.zeros(50),
            np.round(np.sin(np.arange(50)), 3),
            np.full(50, -0.0),
        ])
        batch = codec.encode_batch(matrix)
        for row in range(matrix.shape[0]):
            assert batch[row] == codec.encode(matrix[row])

    def test_rejects_bad_shapes(self):
        from repro.exceptions import CodecError

        with pytest.raises(CodecError):
            GorillaCodec().encode_batch(np.zeros(5))
        with pytest.raises(CodecError):
            ChimpCodec().encode_batch(np.zeros((2, 0)))


class TestMultiStateKernel:
    def test_bit_identical_to_per_state_calls(self):
        rng = np.random.default_rng(5)
        for _trial in range(20):
            num_lags = int(rng.integers(3, 24))
            states, requests = [], []
            for _state in range(int(rng.integers(1, 6))):
                n = int(rng.integers(num_lags + 3, 300))
                states.append(ACFAggregateState(rng.normal(0, 1, n), num_lags))
                lengths, positions, deltas = [], [], []
                for _segment in range(int(rng.integers(0, 7))):
                    seg_len = int(rng.integers(0, min(10, n)))
                    lengths.append(seg_len)
                    if seg_len:
                        start = int(rng.integers(0, n - seg_len + 1))
                        positions.extend(range(start, start + seg_len))
                        deltas.extend(rng.normal(0, 0.5, seg_len).tolist())
                requests.append((np.asarray(lengths, dtype=np.int64),
                                 np.asarray(positions, dtype=np.int64),
                                 np.asarray(deltas, dtype=np.float64)))
            stacked = multi_state_contiguous_acf(
                states, [request[0] for request in requests],
                [request[1] for request in requests],
                [request[2] for request in requests])
            row = 0
            for state, (lengths, positions, deltas) in zip(states, requests):
                reference = batched_contiguous_acf(state, lengths, positions,
                                                   deltas)
                stop = row + lengths.size
                assert np.array_equal(stacked[row:stop], reference,
                                      equal_nan=True)
                row = stop

    def test_mismatched_lags_rejected(self):
        rng = np.random.default_rng(1)
        states = [ACFAggregateState(rng.normal(0, 1, 50), 5),
                  ACFAggregateState(rng.normal(0, 1, 50), 7)]
        with pytest.raises(ValueError):
            multi_state_contiguous_acf(
                states, [np.array([1]), np.array([1])],
                [np.array([10]), np.array([10])],
                [np.array([0.1]), np.array([0.1])])


def _short_fleet(count, length, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    return [2.0 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.3, length)
            for _ in range(count)]


class TestLockstepCameo:
    @pytest.mark.parametrize("config", [
        dict(max_lag=12, epsilon=0.05),
        dict(max_lag=12, epsilon=0.05, statistic="pacf"),
        dict(max_lag=8, epsilon=None, target_ratio=3.0),
        dict(max_lag=10, epsilon=0.04, metric="cheb"),
        dict(max_lag=10, epsilon=0.04, batch_size=1),
    ], ids=["acf", "pacf", "target-ratio", "cheb", "sequential"])
    def test_identical_to_sequential(self, config):
        compressor = CameoCompressor(**config)
        fleet = _short_fleet(5, 140, seed=33)
        fleet.append(_short_fleet(1, 90, seed=7)[0])  # mixed lengths
        # the per-series reference runs on the default tier: on a built
        # checkout this is the stacked NumPy kernel against native.reheap
        results = lockstep_compress(compressor, fleet)
        for series, result in zip(fleet, results):
            reference = compressor.compress(series)
            assert result.indices.tolist() == reference.indices.tolist()
            assert np.array_equal(result.values, reference.values)
            for key in ("kept_points", "iterations", "removed_points",
                        "stopped_by", "achieved_deviation", "reheap_updates"):
                assert result.metadata[key] == reference.metadata[key], key
            assert (result.metadata["reference_statistic"]
                    == reference.metadata["reference_statistic"])

    @pytest.mark.usefixtures("numpy_tier")
    def test_eligibility_rules(self):
        compressor = CameoCompressor(12, 0.05)
        assert lockstep_eligible(compressor, 200)
        assert not lockstep_eligible(compressor, 3)          # too short
        assert not lockstep_eligible(compressor, 100_000)    # too long
        assert not lockstep_eligible(
            CameoCompressor(12, 0.05, agg_window=4), 200)    # aggregated
        assert not lockstep_eligible(
            CameoCompressor(12, 0.05, on_violation="skip"), 200)
        from repro.stats import make_statistic

        custom = make_statistic("moments")
        assert not lockstep_eligible(
            CameoCompressor(12, 0.05, statistic=custom), 200)

    def test_steps_aside_where_the_native_tier_serves_the_run(self, kernel_tier):
        """Lock-step's stacked kernel is NumPy on either tier; a run that
        would make one compiled call per ReHeap must not be admitted."""
        numpy_tier = kernel_tier == "numpy"
        for served in (dict(), dict(metric="cheb"), dict(statistic="ACF"),
                       dict(batch_size=1), dict(epsilon=None, target_ratio=3.0)):
            config = {"max_lag": 12, "epsilon": 0.05, **served}
            assert lockstep_eligible(CameoCompressor(**config), 200) == numpy_tier
        for unserved in (dict(statistic="pacf"),
                         dict(metric=lambda a, b: float(np.abs(a - b).max()))):
            assert lockstep_eligible(
                CameoCompressor(12, 0.05, **unserved), 200)

    def test_batch_path_follows_the_kernel_tier(self, kernel_tier):
        """The perf harness's lock-step shape (64 x 192, L=16): stacked on
        the NumPy tier, per-series on the native tier, same blocks."""
        from repro.engine import compress_batch

        fleet = _short_fleet(64, 192, seed=31)
        options = dict(max_lag=16, epsilon=0.05)
        on = compress_batch(fleet, codec="cameo", codec_options=options,
                            backend="serial", fastpath=True)
        off = compress_batch(fleet, codec="cameo", codec_options=options,
                             backend="serial", fastpath=False)
        assert on.report.failed == off.report.failed == 0
        assert on.report.fastpath_series == (64 if kernel_tier == "numpy"
                                             else 0)
        for left, right in zip(on, off):
            assert (left.unwrap().payload.indices.tolist()
                    == right.unwrap().payload.indices.tolist())
            assert np.array_equal(left.unwrap().payload.values,
                                  right.unwrap().payload.values)

    def test_speculation_statistics_preserved(self):
        # The lock-step loop must replicate the speculative bookkeeping,
        # not just the kept set: preview-reuse counters match exactly.
        compressor = CameoCompressor(12, 0.05)
        fleet = _short_fleet(3, 150, seed=77)
        results = lockstep_compress(compressor, fleet)
        for series, result in zip(fleet, results):
            reference = compressor.compress(series)
            assert (result.metadata["preview_reuse"]
                    == reference.metadata["preview_reuse"])
            assert result.metadata["batch_size"] == reference.metadata["batch_size"]


@pytest.mark.usefixtures("numpy_tier")
class TestMixedLengthGroups:
    def test_undersized_series_does_not_break_the_group(self):
        """One short series (smaller effective lag) must not drag its whole
        lock-step group back to the per-series path."""
        from repro.engine import compress_batch

        rng = np.random.default_rng(13)
        fleet = [2 * np.sin(2 * np.pi * np.arange(120) / 24)
                 + rng.normal(0, 0.3, 120) for _ in range(5)]
        tiny = 2 * np.sin(2 * np.pi * np.arange(10) / 5) + rng.normal(0, 0.1, 10)
        options = dict(max_lag=16, epsilon=0.05)
        result = compress_batch(fleet + [tiny], codec="cameo",
                                codec_options=options)
        # The five 120-point series (effective lag 16) still stack; the
        # 10-point series (effective lag 9) runs per-series.
        assert result.report.failed == 0
        assert result.report.fastpath_series == 5
        from repro.codecs import get_codec

        codec = get_codec("cameo", **options)
        for outcome, series in zip(result, fleet + [tiny]):
            reference = codec.encode(series)
            if hasattr(reference.payload, "indices"):
                assert (outcome.unwrap().payload.indices.tolist()
                        == reference.payload.indices.tolist())

    def test_two_lag_buckets_both_stack(self):
        from repro.engine import compress_batch

        rng = np.random.default_rng(14)
        long_fleet = [rng.normal(0, 1, 150) for _ in range(3)]
        short_fleet = [rng.normal(0, 1, 12) for _ in range(3)]
        result = compress_batch(long_fleet + short_fleet, codec="cameo",
                                codec_options=dict(max_lag=16, epsilon=0.05))
        # Both buckets (effective lag 16 and 11) have >= 2 members, so all
        # six series ride the lock-step path.
        assert result.report.failed == 0
        assert result.report.fastpath_series == 6
