"""Golden CAMEO kept-sets on the bundled real-data corpus.

The synthetic kept-set digests (``test_pacf_fastpath.py``) pin the
compressor's point selection on generated data; these pin it on *real*
series — the checksum-anchored corpus snapshots of :mod:`repro.ingest` —
so a kernel or heap change that shifts behaviour on real-world structure
(seasonality, nonlinear cycles) cannot slip through the synthetic suite.

The corpus bytes are pinned by SHA-256 and the compressor is deterministic,
so these digests are exact, and the ``kernel_tier`` fixture asserts them
under both the NumPy and native tiers.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import _kernels
from repro.codecs import get_codec
from repro.core.compressor import CameoCompressor
from repro.core.tracker import StatisticTracker
from repro.data.datasets import dataset_names, load_dataset
from repro.ingest import load_corpus_series

# Every golden digest below must hold under both kernel tiers: the native
# extension is only correct if it is indistinguishable from the NumPy tier.
pytestmark = pytest.mark.usefixtures("kernel_tier")


def _kept_digest(series_name: str, **kwargs) -> tuple[int, str]:
    series = load_corpus_series(series_name)
    result = get_codec("cameo", **kwargs).compress(series.values)
    return len(result), hashlib.sha256(result.indices.tobytes()).hexdigest()[:16]


class TestCorpusKeptSets:
    @pytest.mark.parametrize("series_name,kwargs,kept,digest", [
        # The scorecard's own configuration: the series' pinned acf_lags
        # and the registry's fidelity epsilon.
        ("airline", dict(max_lag=24, epsilon=0.05), 10, "c67aa2e5b2cdaaa9"),
        ("sunspots", dict(max_lag=22, epsilon=0.05), 19, "efdb917f97c26d78"),
        # PACF-bounded compression on the same two series.
        ("airline", dict(max_lag=24, epsilon=0.05, statistic="pacf"),
         123, "35ea960dc7c1d6c8"),
        ("sunspots", dict(max_lag=22, epsilon=0.05, statistic="pacf"),
         20, "1bd6f21ddfc227ba"),
        # The on-aggregates variant (tumbling 2-point windows).
        ("airline", dict(max_lag=12, epsilon=0.02, agg_window=2),
         20, "099ab480dc9f61e0"),
    ])
    def test_cameo_kept_set_digests(self, series_name, kwargs, kept, digest):
        assert _kept_digest(series_name, **kwargs) == (kept, digest)

    @pytest.mark.parametrize("length,kept,digest", [
        (256, 204, "74fdf33158aae9fd"),   # the service's chunk size
        (500, 317, "d02404c58c02a741"),   # the fleet benchmark's series
    ])
    def test_benchmark_shape_kept_sets(self, length, kept, digest, kernel_tier,
                                       monkeypatch):
        """The end-to-end benchmark's shapes (eight paper datasets, L=24,
        eps=0.01): short enough that most ReHeaps touch a series boundary,
        which the real-data digests above (eps=0.05) barely exercise.  On
        the native tier every series is one ``native.run_loop`` call; the
        Python loop it replaces — one ``native.reheap`` per ReHeap — and
        the Python ReHeap chain that replaces must land on the same
        digest."""
        def fleet_digest():
            total, sha = 0, hashlib.sha256()
            codec = get_codec("cameo", max_lag=24, epsilon=0.01)
            for name in dataset_names():
                values = np.round(
                    load_dataset(name, length=length, seed=7).values, 2)
                result = codec.compress(values)
                total += len(result)
                sha.update(result.indices.tobytes())
            return total, sha.hexdigest()[:16]

        calls = {"run_loop": [], "reheap": []}
        if kernel_tier == "native":
            native = _kernels.get_native()

            def recording(name):
                compiled = getattr(native, name)

                def recorded(*request):
                    calls[name].append(compiled(*request))
                    return calls[name][-1]
                return recorded

            monkeypatch.setattr(native, "run_loop", recording("run_loop"))
            monkeypatch.setattr(native, "reheap", recording("reheap"))
        assert fleet_digest() == (kept, digest)
        if kernel_tier == "native":
            # one call per series, none of them a yield, no ReHeap outside it
            assert len(calls["run_loop"]) == len(dataset_names())
            assert all(outcome[0] is not None
                       for outcome in calls["run_loop"])
            assert not calls["reheap"]
            monkeypatch.setattr(CameoCompressor, "_native_loop_serves",
                                lambda self, run: False)
            assert fleet_digest() == (kept, digest)
            assert calls["reheap"] and None not in calls["reheap"]
            monkeypatch.setattr(StatisticTracker, "reheap",
                                lambda self, *request: None)
            assert fleet_digest() == (kept, digest)

    def test_decode_round_trips_kept_points(self):
        series = load_corpus_series("airline")
        codec = get_codec("cameo", max_lag=24, epsilon=0.05)
        block = codec.encode(series.values)
        reconstruction = codec.decode(block)
        assert reconstruction.size == series.values.size
        result = block.payload
        for index, value in zip(result.indices, result.values):
            assert reconstruction[index] == value
