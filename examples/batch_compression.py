"""Fleet-scale batch compression with the engine.

A production ingest tier compresses *many* independent series — the unit of
throughput is series per second across the fleet, not one series' latency.
This example drives :func:`repro.engine.compress_batch` through the typical
workflow:

1. compress a fleet of sensor series with a lossless codec on both backends,
2. compress the same fleet with CAMEO (one route on every backend and
   kernel tier: ``codec.encode`` per series) and verify the results match
   per-series runs,
3. show per-series error isolation (a poisoned series never kills a batch),
4. feed several live streams through the engine-backed
   :class:`repro.streaming.MultiStreamCompressor`.

Run with ``PYTHONPATH=src python examples/batch_compression.py``.
"""

from __future__ import annotations

import numpy as np

from repro.codecs import get_codec
from repro.engine import compress_batch
from repro.streaming import MultiStreamCompressor


def build_fleet(count: int, length: int, seed: int = 42) -> list[np.ndarray]:
    """Synthetic sensor fleet: shared seasonality, independent noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    base = 20.0 + 4.0 * np.sin(2 * np.pi * t / 24) + np.sin(2 * np.pi * t / 168)
    return [np.round(base + rng.normal(0.0, 0.4, length), 2)
            for _ in range(count)]


def main() -> None:
    fleet = build_fleet(count=24, length=256)

    # ------------------------------------------------------------------ #
    # 1. lossless fleet compression on each backend
    # ------------------------------------------------------------------ #
    print("=== Gorilla fleet, both backends ===")
    for backend in ("serial", "thread"):
        result = compress_batch(fleet, codec="gorilla", backend=backend,
                                workers=2)
        report = result.report
        print(f"  {backend:<8} {report.series} series, "
              f"{report.bits_per_value:.2f} bits/value, "
              f"{report.points_per_sec:,.0f} points/s, "
              f"{report.fastpath_series} via stacked fast path")

    # ------------------------------------------------------------------ #
    # 2. CAMEO fleet: identical to per-series runs
    # ------------------------------------------------------------------ #
    print("\n=== CAMEO fleet (max_lag=12, epsilon=0.05) ===")
    short_fleet = build_fleet(count=8, length=256, seed=7)
    options = dict(max_lag=12, epsilon=0.05)
    result = compress_batch(short_fleet, codec="cameo", codec_options=options)
    codec = get_codec("cameo", **options)
    reference = codec.encode(short_fleet[0])
    assert (result[0].unwrap().payload.indices.tolist()
            == reference.payload.indices.tolist()), "batch must equal per-series"
    report = result.report
    print(f"  {report.series} series, ratio {report.compression_ratio:.2f}x, "
          f"{report.points_per_sec:,.0f} points/s "
          f"(kept sets identical to per-series runs)")

    # ------------------------------------------------------------------ #
    # 3. error isolation: one poisoned series, batch completes
    # ------------------------------------------------------------------ #
    print("\n=== Error isolation ===")
    poisoned = list(fleet[:4])
    poisoned[2] = np.full(64, np.nan)
    result = compress_batch(poisoned, codec="gorilla")
    for outcome in result:
        status = ("ok" if outcome.ok
                  else f"FAILED ({outcome.error_type}: {outcome.error})")
        print(f"  series {outcome.index}: {status}")
    assert result.report.failed == 1 and result.report.series == 4

    # ------------------------------------------------------------------ #
    # 4. engine-backed multi-stream ingest
    # ------------------------------------------------------------------ #
    print("\n=== Multi-stream ingest (chunk_size=128) ===")
    multi = MultiStreamCompressor(chunk_size=128, codec="gorilla")
    for index, series in enumerate(fleet[:6]):
        multi.add(f"sensor-{index}", series)
    sealed = multi.flush()
    print(f"  {len(sealed)} chunks sealed across {len(multi.streams)} streams "
          "in one batched engine pass")
    for stream in multi.streams[:2]:
        report = multi.report(stream)
        print(f"  {stream}: {report.chunks} chunks, "
              f"{report.bits_per_value:.2f} bits/value")
    restored = multi.reconstruct("sensor-0")
    assert np.array_equal(restored, fleet[0])
    print("  sensor-0 reconstructs exactly (lossless)")


if __name__ == "__main__":
    main()
