"""Shared configuration constants for the benchmark suite.

The values below define the smoke-scale sweeps; they are deliberately small so
``pytest benchmarks/ --benchmark-only`` completes in minutes.  Scale the
datasets up with ``REPRO_BENCH_SCALE`` for paper-scale runs.
"""

from __future__ import annotations

#: Error bounds swept by the compression-ratio figures (Figures 6, 7, 9).
SWEEP_EPSILONS = (0.005, 0.02)

#: Target compression ratios used by the forecasting experiments (EXP1/EXP2).
FORECAST_RATIOS = (2.0, 6.0)

#: Target compression ratios for the highly seasonal EXP3 sweep.
SEASONAL_RATIOS = (5.0, 15.0)

# --------------------------------------------------------------------- #
# kernel perf-regression harness (test_perf_kernels.py)
# --------------------------------------------------------------------- #

#: Marker name for the opt-in perf benchmarks.  Tests carrying this marker
#: are auto-skipped unless the run selects them with ``-m perf`` (or sets
#: ``REPRO_RUN_PERF=1``), so the tier-1 suite never pays for timing runs.
PERF_MARKER = "perf"

#: Environment variable that force-enables the perf benchmarks.
PERF_ENV = "REPRO_RUN_PERF"

#: Series length for the codec round-trip timings (smoke scale).
PERF_CODEC_LENGTH = 10_000

#: Series length / lag count for the end-to-end CAMEO timing — matches the
#: configuration the kernel-PR acceptance numbers were measured at.
PERF_CAMEO_LENGTH = 10_000
PERF_CAMEO_MAX_LAG = 50
PERF_CAMEO_EPSILON = 0.05

#: Field count for the raw bitstream write/read timings.
PERF_BITSTREAM_FIELDS = 20_000

#: Row / lag counts for the batched Durbin-Levinson (PACF tracking) timing —
#: sized like one fused ReHeap batch of candidate ACF rows.
PERF_PACF_ROWS = 400
PERF_PACF_MAX_LAG = 50

#: Required speedup of the batched Durbin-Levinson kernel over the preserved
#: per-row reference recursion, measured in the same process
#: (hardware-independent, like the codec thresholds).
PERF_MIN_PACF_SPEEDUP = 3.0

#: Series length / lag count for the end-to-end CAMEO ``statistic="pacf"``
#: timing (smaller than the ACF run: the recursion adds an O(L^2) factor).
PERF_CAMEO_PACF_LENGTH = 4_000
PERF_CAMEO_PACF_MAX_LAG = 24

#: Required speedup of the block codecs over the preserved per-bit
#: reference implementations, measured on the same machine in the same run
#: (hardware-independent).
PERF_MIN_CODEC_SPEEDUP = 5.0
PERF_MIN_BITSTREAM_SPEEDUP = 5.0

#: Seed-era end-to-end CAMEO throughput (points/sec) for the configuration
#: above, measured on the original pure-Python implementation (59.1 s for
#: n=10k, max_lag=50, epsilon=0.05, default blocking).  The harness asserts
#: the current implementation is at least ``PERF_MIN_CAMEO_SPEEDUP`` times
#: this on comparable hardware; set ``REPRO_PERF_NO_ABSOLUTE=1`` on slower
#: machines where an absolute baseline is meaningless.
SEED_CAMEO_POINTS_PER_SEC = 169.0
PERF_MIN_CAMEO_SPEEDUP = 2.0

# --------------------------------------------------------------------- #
# speculative-batch loop (PR 4)
# --------------------------------------------------------------------- #

#: Required in-process speedup of the speculative multi-pop loop (default
#: ``batch_size``) over the reconstructed PR 3 loop — ``batch_size=1`` on
#: the preserved reference heap and reference ReHeap kernel, measured in
#: the same run (hardware-independent).  PR 4 measured 1.51x; single-repeat
#: runs on the PR 5 container fluctuate 1.46-1.53x (including on the
#: unmodified PR 4 code), so the floor sits below that noise band rather
#: than at the point estimate.
PERF_MIN_CAMEO_SPECULATIVE_SPEEDUP = 1.35

#: Heap size for the bulk-update benchmark (one full re-key of the heap,
#: the workload the argsort rebuild targets) and its regression floor
#: against the preserved list-based reference heap.
PERF_HEAP_CAPACITY = 10_000
PERF_HEAP_REKEY_ROUNDS = 10
PERF_MIN_HEAP_BULK_SPEEDUP = 3.0

#: Neighbour-hops benchmark: resolve the blocking neighbourhoods of a batch
#: of indices on a heavily compacted list (90% removed), batched gather vs
#: the scalar pointer chase per index.
PERF_HOPS_BATCH_INDICES = 16
PERF_HOPS_H = 67
PERF_MIN_HOPS_BATCH_SPEEDUP = 1.5

# --------------------------------------------------------------------- #
# batch engine (PR 5)
# --------------------------------------------------------------------- #

#: The fleet workload of the engine throughput benchmark: 64 series of
#: 4k points each, compressed with CAMEO in target-ratio mode (bounded
#: iteration count keeps the harness fast while staying CPU-bound).
PERF_ENGINE_SERIES = 64
PERF_ENGINE_LENGTH = 4_000
PERF_ENGINE_MAX_LAG = 16
PERF_ENGINE_TARGET_RATIO = 1.15

#: Workers of the thread-backend run (``PERF_MIN_ENGINE_THREAD_SPEEDUP``).
PERF_ENGINE_WORKERS = 4

#: Stacked XOR encode benchmark: many small series, where per-call
#: NumPy dispatch dominates.  The ratio is recorded (stacked vs per-series
#: execution, identical payloads asserted); no hard floor — the win is
#: size-dependent and modest by design.
PERF_ENGINE_XOR_SERIES = 512
PERF_ENGINE_XOR_LENGTH = 64

# --------------------------------------------------------------------- #
# native kernel tier (PR 7)
# --------------------------------------------------------------------- #

#: Fused ReHeap kernel workloads (gaps in, impacts out), native tier vs
#: the NumPy chain in the same process, >= 2x each (PR 7's floor for the
#: interior-only kernel this one replaced).  *Interior*: a batch of gaps
#: well away from the edges of the 10k-point series, large enough that
#: kernel time, not dispatch, dominates.  *Edge*: one ReHeap's worth of
#: gaps on a 500-point series at L=24 (the end-to-end benchmark's shape),
#: where most segments have boundary-clipped lag ranges.
PERF_NATIVE_ACF_SEGMENTS = 400
PERF_NATIVE_ACF_SEGMENT_LEN = 8
PERF_NATIVE_EDGE_LENGTH = 500
PERF_NATIVE_EDGE_MAX_LAG = 24
PERF_NATIVE_EDGE_GAPS = 80
PERF_MIN_NATIVE_SEGMENT_SPEEDUP = 2.0

#: One whole ReHeap step (``native.reheap_500`` / ``numpy.reheap_500``):
#: the fleet shape below, this many accepted removals into a run, through
#: the one compiled call vs the Python chain on the NumPy tier.
PERF_REHEAP_REMOVALS = 120
PERF_MIN_NATIVE_REHEAP_SPEEDUP = 2.0

#: The whole greedy loop on one fleet-shaped series (``native.run_loop_500``
#: / ``python.loop_500``): the one GIL-free compiled call vs the Python
#: loop on the native tier (one ``native.reheap`` per removal).
PERF_MIN_NATIVE_RUN_LOOP_SPEEDUP = 1.3

#: The thread backend on the native tier, where every series' loop runs
#: with the GIL released: its ratio over the serial backend is gated only
#: on machines with ``PERF_ENGINE_WORKERS`` CPUs — on fewer cores the
#: parallel speedup is physically unreachable and the ratio is recorded
#: without gating.
PERF_MIN_ENGINE_THREAD_SPEEDUP = 2.0

#: The end-to-end benchmark's fleet shape for ``cameo.compress_fleet_500x32``:
#: four copies of the eight paper datasets at 500 points, codec defaults.
PERF_FLEET_LENGTH = 500
PERF_FLEET_COPIES = 4
PERF_FLEET_MAX_LAG = 24
PERF_FLEET_EPSILON = 0.01

#: End-to-end CAMEO with the native tier vs the same run on the NumPy
#: tier (kept-point sets asserted identical).  Measured ~3x on the dev
#: container; the floor is deliberately conservative for slow CI runners.
PERF_MIN_NATIVE_E2E_SPEEDUP = 1.15

#: The storage kernels (PR 18): one 1,024-point storage segment through the
#: compiled Gorilla/Chimp bit streams vs the NumPy-tier loops
#: (``<scheme>.{encode,decode}_{native,numpy}``), and CRC32C of a 64 KiB
#: buffer, compiled vs the Python slicing-by-8 walk
#: (``checksum.crc32c_64k_{native,python}``).  Measured ~85x (decode) /
#: ~42x (encode) / ~180x (CRC) on the dev container; the floors only say
#: "the byte loop left Python".
PERF_NATIVE_XOR_LENGTH = 1_024
PERF_NATIVE_CRC_BYTES = 1 << 16
PERF_MIN_NATIVE_XOR_DECODE_SPEEDUP = 10.0
PERF_MIN_NATIVE_XOR_ENCODE_SPEEDUP = 10.0
PERF_MIN_NATIVE_CRC_SPEEDUP = 10.0

#: The native pop-loop (heapify + full drain) ratio vs the hybrid heap is
#: recorded without a hard floor: single pops are already cheap in the
#: hybrid heap and the win is capacity-dependent.
PERF_NATIVE_HEAP_DRAINS = 5
