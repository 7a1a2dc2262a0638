#!/usr/bin/env python
"""Profile an end-to-end CAMEO compression run with cProfile.

Produces the top-N hotspot table used by ``docs/performance.md`` ("Remaining
hotspots").  Typical invocations::

    PYTHONPATH=src python tools/profile_cameo.py --n 10000 --max-lag 50
    PYTHONPATH=src python tools/profile_cameo.py --n 500 --max-lag 24 \
        --epsilon 0.01 --sort tottime
    PYTHONPATH=src python tools/profile_cameo.py --n 4000 --statistic pacf \
        --max-lag 24 --sort tottime --top 25
    PYTHONPATH=src python tools/profile_cameo.py --n 10000 --batch-size 1
    PYTHONPATH=src python tools/profile_cameo.py --n 256 --max-lag 16 \
        --batch 64 --backend serial

The second is the short-series profile: the end-to-end benchmark's shape
(``fleet_cameo``: 500 points, L=24, eps=0.01), where most ReHeaps touch a
series boundary — n=10k hides that path entirely.

On the native tier the whole greedy loop shows up as one row,
``_nativecore.run_loop`` (pop, preview, state update, unlink and the ReHeap
step — neighbourhood gather, speculative peek, impacts, heap re-key and
version stamps — are all inside it; what is left beside it is set-up:
``initial_impacts`` and ``heapify``).  ``--no-native``, PACF,
``--agg-window`` > 1 and callable metrics show the Python loop it replaces
instead: ``_step`` per iteration, and under it ``apply_contiguous`` and the
ReHeap chain (``_reheap_chain``: ``hops_array``, ``peek_many``,
``gap_impacts``, ``update_many``).

The synthetic signal matches the perf harness
(``benchmarks/test_perf_kernels.py``): two sine components plus Gaussian
noise from a fixed-seed generator, so profiles are reproducible and
comparable across runs.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time


def build_signal(n: int, seed: int):
    import numpy as np

    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return (5.0 + 2.0 * np.sin(2 * np.pi * t / 24)
            + 0.5 * np.sin(2 * np.pi * t / 168)
            + rng.normal(0, 0.3, t.size))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=10_000, help="series length")
    parser.add_argument("--max-lag", type=int, default=50)
    parser.add_argument("--epsilon", type=float, default=0.05)
    parser.add_argument("--statistic", choices=("acf", "pacf"), default="acf")
    parser.add_argument("--blocking", default="5logn")
    parser.add_argument("--agg-window", type=int, default=1)
    parser.add_argument("--metric", default="mae")
    parser.add_argument("--batch-size", default=None,
                        help="speculative batch size (int) or 'auto'; "
                             "1 = sequential escape hatch")
    parser.add_argument("--batch", type=int, default=None, metavar="N",
                        help="profile a batch-engine run over N copies of the "
                             "signal (distinct noise seeds) instead of one "
                             "series")
    parser.add_argument("--backend", default="serial",
                        choices=("serial", "thread"),
                        help="engine backend for --batch (cProfile only sees "
                             "the calling thread; use serial for kernel "
                             "attribution)")
    parser.add_argument("--workers", type=int, default=None,
                        help="engine workers for --batch")
    parser.add_argument("--no-fastpath", action="store_true",
                        help="disable the engine's cross-series fast paths "
                             "for --batch")
    parser.add_argument("--seed", type=int, default=123)
    parser.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime", "ncalls"))
    parser.add_argument("--top", type=int, default=30,
                        help="number of rows to print")
    parser.add_argument("--no-profile", action="store_true",
                        help="only time the run (no cProfile overhead)")
    parser.add_argument("--no-native", action="store_true",
                        help="force the pure-NumPy kernel tier (equivalent "
                             "to REPRO_NATIVE=0) for tier A/B profiling")
    args = parser.parse_args(argv)

    from repro import _kernels
    from repro.core import cameo_compress

    if args.no_native:
        _kernels.set_native_enabled(False)
    tier = _kernels.active_tier()["segment_impacts"]

    kwargs: dict = {
        "max_lag": args.max_lag,
        "epsilon": args.epsilon,
        "statistic": args.statistic,
        "blocking": (int(args.blocking) if str(args.blocking).isdigit()
                     else args.blocking),
        "agg_window": args.agg_window,
        "metric": args.metric,
    }
    if args.batch_size is not None:
        kwargs["batch_size"] = (args.batch_size if args.batch_size == "auto"
                                else int(args.batch_size))

    if args.batch is not None:
        from repro.engine import BatchEngine

        signals = [build_signal(args.n, args.seed + index)
                   for index in range(args.batch)]
        engine = BatchEngine("cameo", codec_options=kwargs,
                             backend=args.backend, workers=args.workers,
                             fastpath=not args.no_fastpath)

        def run():
            return engine.compress(signals)
    else:
        signal = build_signal(args.n, args.seed)

        def run():
            return cameo_compress(signal, **kwargs)

    start = time.perf_counter()
    if args.no_profile:
        result = run()
        elapsed = time.perf_counter() - start
    else:
        profiler = cProfile.Profile()
        result = profiler.runcall(run)
        elapsed = time.perf_counter() - start

    if args.batch is not None:
        report = result.report
        total = args.batch * args.n
        print(f"batch={args.batch} x n={args.n} statistic={args.statistic} "
              f"max_lag={args.max_lag} epsilon={args.epsilon} "
              f"backend={report.backend} workers={report.workers} "
              f"fastpath={'off' if args.no_fastpath else 'on'} tier={tier}")
        print(f"series={report.series} failed={report.failed} "
              f"fastpath_series={report.fastpath_series} "
              f"bits/value={report.bits_per_value:.2f}")
        print(f"wall time: {elapsed:.2f} s "
              f"({total / max(elapsed, 1e-9):.0f} points/s, "
              f"cpu {report.cpu_seconds:.2f} s)\n")
    else:
        meta = result.metadata
        print(f"n={args.n} statistic={args.statistic} max_lag={args.max_lag} "
              f"epsilon={args.epsilon} blocking={args.blocking} tier={tier}")
        print(f"kept={meta['kept_points']} iterations={meta['iterations']} "
              f"stopped_by={meta['stopped_by']} "
              f"achieved_deviation={meta['achieved_deviation']:.6f}")
        print(f"wall time: {elapsed:.2f} s "
              f"({args.n / max(elapsed, 1e-9):.0f} points/s)\n")
    if not args.no_profile:
        stats = pstats.Stats(profiler)
        stats.sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
