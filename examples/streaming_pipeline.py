#!/usr/bin/env python3
"""Streaming pipeline: chunked CAMEO compression with ACF drift monitoring.

Simulates an IoT gateway that receives an unbounded humidity-like feed and

1. compresses it chunk-by-chunk with :class:`repro.streaming.
   MultiStreamCompressor` and the CAMEO codec (per-chunk ACF bound, like
   the paper's coarse-grained parallelization applied over time),
2. tracks the exact ACF of the raw stream with an
   :class:`repro.streaming.OnlineAcfEstimator`, and
3. watches for autocorrelation drift — here the feed's daily cycle abruptly
   switches period half-way through, which the
   :class:`repro.streaming.AcfDriftMonitor` flags so operators can re-tune
   the compressor (lags, bound) for the new regime.

Run with::

    python examples/streaming_pipeline.py
"""

from __future__ import annotations

import numpy as np

from repro.stats import acf
from repro.streaming import (
    AcfDriftMonitor,
    MultiStreamCompressor,
    OnlineAcfEstimator,
    concat_irregular,
)

#: The gateway's one stream.
STREAM = "humidity"


def sensor_feed(rng: np.random.Generator) -> np.ndarray:
    """Two regimes: a 60-sample cycle that later switches to a 24-sample cycle."""
    t1 = np.arange(6_000)
    regime1 = 70 + 12 * np.sin(2 * np.pi * t1 / 60) + 0.8 * rng.standard_normal(t1.size)
    t2 = np.arange(4_000)
    regime2 = 70 + 12 * np.sin(2 * np.pi * t2 / 24) + 0.8 * rng.standard_normal(t2.size)
    return np.concatenate([regime1, regime2])


def main() -> None:
    rng = np.random.default_rng(23)
    feed = sensor_feed(rng)
    max_lag = 60
    epsilon = 0.02

    stream = MultiStreamCompressor(
        chunk_size=1_000, codec="cameo",
        codec_options=dict(max_lag=max_lag, epsilon=epsilon))
    estimator = OnlineAcfEstimator(max_lag)
    monitor = AcfDriftMonitor(max_lag=max_lag, window=1_200, threshold=0.25)

    print(f"streaming {feed.size} values in batches of 500 "
          f"(chunk size 1000, ACF bound {epsilon})\n")
    print(f"{'batch':>6} {'sealed chunks':>14} {'kept points':>12} {'drift?':>8}")
    print("-" * 46)
    for batch_index, start in enumerate(range(0, feed.size, 500)):
        batch = feed[start: start + 500]
        sealed = stream.add(STREAM, batch)
        if sealed:
            stream.drain()
        estimator.update(batch)
        events = monitor.update(batch)
        if sealed or events:
            report = stream.report(STREAM)
            flag = f"at {events[0].position}" if events else ""
            print(f"{batch_index:>6} {report.chunks:>14} {report.kept_points:>12} {flag:>8}")
    stream.flush()

    report = stream.report(STREAM)
    print("\nstream summary")
    print(f"  chunks sealed        : {report.chunks}")
    print(f"  compression ratio    : {report.compression_ratio:.1f}x")
    print(f"  worst chunk deviation: {report.worst_chunk_deviation:.5f} (bound {epsilon})")
    print(f"  drift events         : {len(monitor.events)} "
          f"(first at value {monitor.events[0].position if monitor.events else '-'})")

    # The stitched representation reconstructs the whole session.
    stitched = concat_irregular(
        [chunk.compressed for chunk in stream.results(STREAM)],
        name="humidity-session")
    reconstruction = stitched.decompress()
    deviation = float(np.mean(np.abs(acf(feed, max_lag) - acf(reconstruction, max_lag))))
    online_acf1 = estimator.acf()[0]
    print("\nwhole-session check")
    print(f"  retained points      : {len(stitched)} of {feed.size}")
    print(f"  global ACF deviation : {deviation:.5f}")
    print(f"  streaming ACF(1)     : {online_acf1:.4f} "
          f"(batch recomputation: {acf(feed, 1)[0]:.4f})")

    # The stream compressor is codec-generic: the same pipeline can seal
    # chunks losslessly (e.g. for a raw archival tier) by naming any
    # registered codec instead of CAMEO.
    archive = MultiStreamCompressor(chunk_size=1_000, codec="gorilla")
    archive.add(STREAM, feed)
    archive.flush()
    archive_report = archive.report(STREAM)
    print("\nlossless archival tier (gorilla, same chunking)")
    print(f"  bits/value           : {archive_report.bits_per_value:.2f} (raw: 64)")
    print(f"  exact reconstruction : "
          f"{bool(np.array_equal(archive.reconstruct(STREAM), feed))}")


if __name__ == "__main__":
    main()
