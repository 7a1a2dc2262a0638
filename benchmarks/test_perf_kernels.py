"""Kernel perf-regression harness (opt-in: ``pytest benchmarks -m perf``).

Times the vectorized hot-path kernels — block bitstream, Gorilla/Chimp
codecs, and the end-to-end CAMEO compressor — and emits ``BENCH_kernels.json``
(ops/sec + speedup ratios) so future PRs have a trajectory to beat.

The codec/bitstream regression thresholds are *relative*: the block kernels
are compared against the preserved per-bit reference implementations
(:mod:`repro._kernels.reference`) measured in the same process, which makes
the ≥5× assertions hardware-independent.  The end-to-end CAMEO check also
asserts against the recorded seed-era absolute throughput; disable that one
comparison with ``REPRO_PERF_NO_ABSOLUTE=1`` on incomparable hardware.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from bench_config import (
    PERF_BITSTREAM_FIELDS,
    PERF_CAMEO_EPSILON,
    PERF_CAMEO_LENGTH,
    PERF_CAMEO_MAX_LAG,
    PERF_CAMEO_PACF_LENGTH,
    PERF_CAMEO_PACF_MAX_LAG,
    PERF_CODEC_LENGTH,
    PERF_ENGINE_LENGTH,
    PERF_ENGINE_MAX_LAG,
    PERF_ENGINE_SERIES,
    PERF_ENGINE_TARGET_RATIO,
    PERF_ENGINE_WORKERS,
    PERF_ENGINE_XOR_LENGTH,
    PERF_ENGINE_XOR_SERIES,
    PERF_HEAP_CAPACITY,
    PERF_HEAP_REKEY_ROUNDS,
    PERF_HOPS_BATCH_INDICES,
    PERF_HOPS_H,
    PERF_MARKER,
    PERF_MIN_BITSTREAM_SPEEDUP,
    PERF_MIN_CAMEO_SPEEDUP,
    PERF_MIN_CAMEO_SPECULATIVE_SPEEDUP,
    PERF_MIN_CODEC_SPEEDUP,
    PERF_MIN_ENGINE_THREAD_SPEEDUP,
    PERF_MIN_HEAP_BULK_SPEEDUP,
    PERF_MIN_HOPS_BATCH_SPEEDUP,
    PERF_FLEET_COPIES,
    PERF_FLEET_EPSILON,
    PERF_FLEET_LENGTH,
    PERF_FLEET_MAX_LAG,
    PERF_MIN_NATIVE_CRC_SPEEDUP,
    PERF_MIN_NATIVE_E2E_SPEEDUP,
    PERF_MIN_NATIVE_REHEAP_SPEEDUP,
    PERF_MIN_NATIVE_RUN_LOOP_SPEEDUP,
    PERF_MIN_NATIVE_SEGMENT_SPEEDUP,
    PERF_MIN_NATIVE_XOR_DECODE_SPEEDUP,
    PERF_MIN_NATIVE_XOR_ENCODE_SPEEDUP,
    PERF_MIN_PACF_SPEEDUP,
    PERF_NATIVE_ACF_SEGMENT_LEN,
    PERF_NATIVE_ACF_SEGMENTS,
    PERF_NATIVE_EDGE_GAPS,
    PERF_NATIVE_EDGE_LENGTH,
    PERF_NATIVE_EDGE_MAX_LAG,
    PERF_NATIVE_CRC_BYTES,
    PERF_NATIVE_HEAP_DRAINS,
    PERF_NATIVE_XOR_LENGTH,
    PERF_PACF_MAX_LAG,
    PERF_PACF_ROWS,
    PERF_REHEAP_REMOVALS,
    SEED_CAMEO_POINTS_PER_SEC,
)
from repro import _kernels
from repro._kernels import BlockBitReader, BlockBitWriter, pacf_from_acf_batched
from repro._kernels.reference import (
    ReferenceBitReader,
    ReferenceBitWriter,
    ReferenceIndexedMinHeap,
    reference_batched_contiguous_acf,
    reference_chimp_decode,
    reference_chimp_encode,
    reference_gorilla_decode,
    reference_gorilla_encode,
    reference_pacf_from_acf,
)
from repro.benchlib import PerfReport, bench
from repro.core import CameoCompressor, cameo_compress
from repro.core.heap import IndexedMinHeap, NativeIndexedMinHeap
from repro.core.neighbors import NeighborList
from repro.core.tracker import StatisticTracker
from repro.data.datasets import dataset_names, load_dataset
from repro.lossless import ChimpCodec, GorillaCodec

pytestmark = pytest.mark.perf


@pytest.fixture()
def numpy_tier():
    """Force the pure-NumPy kernels for trajectory-comparable entries.

    The PR 1-5 trajectory in ``BENCH_kernels.json`` was recorded on the
    NumPy tier; the existing CAMEO/engine entries keep measuring that tier
    so the numbers stay comparable release over release.  The native tier
    gets its own ``native.*`` / ``cameo.compress_10k_native`` entries.
    """
    _kernels.set_native_enabled(False)
    try:
        yield
    finally:
        _kernels.set_native_enabled(None)


@pytest.fixture(scope="module")
def report():
    """Module-wide report; written to ``BENCH_kernels.json`` at teardown."""
    perf_report = PerfReport()
    yield perf_report
    path = perf_report.write()
    print(f"\n[perf] wrote {path}")
    for name, ratio in perf_report.ratios.items():
        print(f"[perf]   {name}: {ratio:.1f}x")


@pytest.fixture(scope="module")
def codec_signal():
    """Rounded-sensor style data: the codecs' target workload."""
    rng = np.random.default_rng(42)
    return np.round(rng.normal(100, 5, PERF_CODEC_LENGTH), 2)


@pytest.fixture(scope="module")
def bit_fields():
    """Random (value, width) pairs for the raw bitstream timings."""
    rng = np.random.default_rng(7)
    widths = rng.integers(1, 65, PERF_BITSTREAM_FIELDS)
    values = rng.integers(0, 1 << 62, PERF_BITSTREAM_FIELDS, dtype=np.uint64)
    return values, widths.astype(np.int64)


class TestBitstreamKernels:
    def test_block_write_read_vs_reference(self, report, bit_fields):
        values, widths = bit_fields
        value_list = values.tolist()
        width_list = widths.tolist()
        pairs = list(zip(value_list, width_list))

        def block_write():
            writer = BlockBitWriter()
            write = writer.write_bits
            for value, width in pairs:
                write(value, width)
            return writer

        def block_write_array():
            writer = BlockBitWriter()
            writer.write_bits_array(values, widths)
            return writer

        def reference_write():
            writer = ReferenceBitWriter()
            write = writer.write_bits
            for value, width in pairs:
                write(value, width)
            return writer

        fields = len(pairs)
        report.add(bench("bitstream.block_write_bits", block_write, ops=fields))
        report.add(bench("bitstream.block_write_bits_array", block_write_array,
                         ops=fields))
        report.add(bench("bitstream.reference_write_bits", reference_write,
                         ops=fields, repeats=2))

        block_writer = block_write()
        reference_writer = reference_write()
        payload = block_writer.to_bytes()
        assert payload == reference_writer.to_bytes()
        bit_length = block_writer.bit_length

        def block_read():
            reader = BlockBitReader(payload, bit_length)
            read = reader.read_bits
            return [read(width) for width in width_list]

        def block_read_array():
            return BlockBitReader(payload, bit_length).read_bits_array(widths)

        def reference_read():
            reader = ReferenceBitReader(payload, bit_length)
            read = reader.read_bits
            return [read(width) for width in width_list]

        report.add(bench("bitstream.block_read_bits", block_read, ops=fields))
        report.add(bench("bitstream.block_read_bits_array", block_read_array,
                         ops=fields))
        report.add(bench("bitstream.reference_read_bits", reference_read,
                         ops=fields, repeats=2))
        expected = [value & ((1 << width) - 1) for value, width in pairs]
        assert block_read() == expected
        assert block_read_array().tolist() == expected
        assert reference_read() == expected

        write_speedup = report.speedup("bitstream_write", "bitstream.block_write_bits",
                                       "bitstream.reference_write_bits")
        read_speedup = report.speedup("bitstream_read", "bitstream.block_read_bits",
                                      "bitstream.reference_read_bits")
        report.speedup("bitstream_write_array", "bitstream.block_write_bits_array",
                       "bitstream.reference_write_bits")
        report.speedup("bitstream_read_array", "bitstream.block_read_bits_array",
                       "bitstream.reference_read_bits")
        assert write_speedup >= PERF_MIN_BITSTREAM_SPEEDUP
        assert read_speedup >= PERF_MIN_BITSTREAM_SPEEDUP


@pytest.mark.usefixtures("numpy_tier")
class TestCodecKernels:
    """The NumPy-tier codecs against the per-bit originals (the native
    tier's are ``TestNativeTier.test_xor_codec_speedup``)."""

    @pytest.mark.parametrize("codec_cls,reference_encode,reference_decode", [
        (GorillaCodec, reference_gorilla_encode, reference_gorilla_decode),
        (ChimpCodec, reference_chimp_encode, reference_chimp_decode),
    ], ids=["gorilla", "chimp"])
    def test_roundtrip_speedup(self, report, codec_signal, codec_cls,
                               reference_encode, reference_decode):
        codec = codec_cls()
        label = codec.name.lower()
        n = codec_signal.size
        payload, bit_length, count = codec.encode(codec_signal)

        # Byte-identical payloads are a hard requirement of the kernel PR.
        reference_payload, reference_bits, _ = reference_encode(codec_signal)
        assert payload == reference_payload and bit_length == reference_bits
        assert np.array_equal(codec.decode(payload, bit_length, count),
                              codec_signal)

        report.add(bench(f"{label}.encode", lambda: codec.encode(codec_signal),
                         ops=n))
        report.add(bench(f"{label}.decode",
                         lambda: codec.decode(payload, bit_length, count), ops=n))
        report.add(bench(
            f"{label}.roundtrip",
            lambda: codec.decode(*codec.encode(codec_signal)[0:2], count), ops=n))
        report.add(bench(f"{label}.reference_encode",
                         lambda: reference_encode(codec_signal), ops=n, repeats=2))
        report.add(bench(
            f"{label}.reference_decode",
            lambda: reference_decode(payload, bit_length, count), ops=n, repeats=2))
        report.add(bench(
            f"{label}.reference_roundtrip",
            lambda: reference_decode(*reference_encode(codec_signal)[0:2], count),
            ops=n, repeats=2))

        speedup = report.speedup(f"{label}_roundtrip", f"{label}.roundtrip",
                                 f"{label}.reference_roundtrip")
        report.speedup(f"{label}_encode", f"{label}.encode",
                       f"{label}.reference_encode")
        report.speedup(f"{label}_decode", f"{label}.decode",
                       f"{label}.reference_decode")
        assert speedup >= PERF_MIN_CODEC_SPEEDUP, (
            f"{codec.name} round-trip speedup {speedup:.1f}x below the "
            f"{PERF_MIN_CODEC_SPEEDUP}x regression floor")


class TestPacfKernels:
    def test_batched_durbin_levinson_speedup(self, report):
        """Batched PACF tracking vs the preserved per-row recursion."""
        rng = np.random.default_rng(31)
        lags = np.arange(1, PERF_PACF_MAX_LAG + 1)
        # Perturbed geometric-decay rows: the shape of the candidate ACF
        # vectors the fused ReHeap hands to the statistic transform.
        rows = np.clip(0.9 ** lags + rng.normal(0.0, 0.05,
                                                (PERF_PACF_ROWS, lags.size)),
                       -0.99, 0.99)

        def batched():
            return pacf_from_acf_batched(rows)

        def per_row():
            out = np.empty_like(rows)
            for index in range(rows.shape[0]):
                out[index] = reference_pacf_from_acf(rows[index])
            return out

        # The batched kernel must reproduce the reference bit for bit.
        assert np.array_equal(batched(), per_row())

        ops = rows.size
        report.add(bench("pacf.batched_tracking", batched, ops=ops))
        report.add(bench("pacf.reference_tracking", per_row, ops=ops, repeats=2))
        speedup = report.speedup("pacf_tracking", "pacf.batched_tracking",
                                 "pacf.reference_tracking")
        assert speedup >= PERF_MIN_PACF_SPEEDUP, (
            f"batched Durbin-Levinson at {speedup:.1f}x is below the "
            f"{PERF_MIN_PACF_SPEEDUP}x regression floor")


class TestHeapBulkKernels:
    def test_update_many_bulk_speedup(self, report):
        """Full heap re-key: argsort rebuild vs per-item reference sifts."""
        rng = np.random.default_rng(77)
        items = np.arange(PERF_HEAP_CAPACITY)
        initial = rng.normal(0.0, 1.0, PERF_HEAP_CAPACITY)
        rekeys = [rng.normal(0.0, 1.0, PERF_HEAP_CAPACITY)
                  for _ in range(PERF_HEAP_REKEY_ROUNDS)]
        fast = IndexedMinHeap(PERF_HEAP_CAPACITY)
        slow = ReferenceIndexedMinHeap(PERF_HEAP_CAPACITY)
        fast.heapify(items, initial)
        slow.heapify(items, initial)

        def bulk():
            for keys in rekeys:
                fast.update_many(items, keys)

        def reference():
            for keys in rekeys:
                slow.update_many(items, keys)

        ops = PERF_HEAP_CAPACITY * PERF_HEAP_REKEY_ROUNDS
        report.add(bench("heap.update_many_bulk", bulk, ops=ops,
                         capacity=PERF_HEAP_CAPACITY))
        report.add(bench("heap.reference_update_many", reference, ops=ops,
                         repeats=2))
        assert fast.check_invariants()
        # Same final contents either way.
        final = rekeys[-1]
        assert all(fast.key_of(item) == final[item] == slow.key_of(item)
                   for item in range(0, PERF_HEAP_CAPACITY, 997))
        speedup = report.speedup("heap_update_many_bulk",
                                 "heap.update_many_bulk",
                                 "heap.reference_update_many")
        assert speedup >= PERF_MIN_HEAP_BULK_SPEEDUP, (
            f"bulk update_many at {speedup:.1f}x is below the "
            f"{PERF_MIN_HEAP_BULK_SPEEDUP}x regression floor")


class TestNeighborHops:
    def test_hops_batch_speedup(self, report):
        """Batch blocking-neighbourhood resolution vs the pointer chase."""
        rng = np.random.default_rng(88)
        n = PERF_CAMEO_LENGTH
        neighbours = NeighborList(n)
        removals = rng.permutation(np.arange(1, n - 1))[:int(0.9 * n)]
        for index in removals.tolist():
            neighbours.remove(index)
        survivors = np.flatnonzero(neighbours.alive_mask())[1:-1]
        indices = rng.choice(survivors, PERF_HOPS_BATCH_INDICES, replace=False)

        def batch():
            return neighbours.hops_batch(indices, PERF_HOPS_H)

        def scalar():
            return [neighbours.hops(int(index), PERF_HOPS_H)
                    for index in indices.tolist()]

        offsets, flat = batch()
        for position, index in enumerate(indices.tolist()):
            expected = np.asarray(neighbours.hops(index, PERF_HOPS_H),
                                  dtype=np.int64)
            assert np.array_equal(flat[offsets[position]:offsets[position + 1]],
                                  expected)
        ops = int(flat.size)
        report.add(bench("neighbors.hops_batch", batch, ops=ops,
                         indices=PERF_HOPS_BATCH_INDICES, h=PERF_HOPS_H))
        report.add(bench("neighbors.hops_scalar", scalar, ops=ops, repeats=2))
        speedup = report.speedup("neighbors_hops_batch", "neighbors.hops_batch",
                                 "neighbors.hops_scalar")
        assert speedup >= PERF_MIN_HOPS_BATCH_SPEEDUP, (
            f"batched hops at {speedup:.1f}x is below the "
            f"{PERF_MIN_HOPS_BATCH_SPEEDUP}x regression floor")


@pytest.mark.usefixtures("numpy_tier")
class TestCameoEndToEnd:
    def test_cameo_points_per_sec(self, report):
        """Speculative loop vs seed baseline and vs the rebuilt PR 3 loop.

        The PR 3 loop is reconstructed in-process: ``batch_size=1`` (the
        exact sequential code path) on the preserved reference heap and the
        preserved pre-partitioning ReHeap kernel.  Both runs execute in the
        same process, so the ≥1.5x floor is hardware-independent; the
        reconstruction still benefits from this PR's windowed neighbour
        gathers, which only makes the floor conservative.
        """
        rng = np.random.default_rng(123)
        t = np.arange(PERF_CAMEO_LENGTH)
        signal = (5.0 + 2.0 * np.sin(2 * np.pi * t / 24)
                  + 0.5 * np.sin(2 * np.pi * t / 168)
                  + rng.normal(0, 0.3, t.size))

        def run():
            return cameo_compress(signal, max_lag=PERF_CAMEO_MAX_LAG,
                                  epsilon=PERF_CAMEO_EPSILON)

        def run_pr3_loop():
            import repro.core.compressor as compressor_module
            import repro.core.tracker as tracker_module
            saved_heap = compressor_module.make_heap
            saved_kernel = tracker_module.batched_contiguous_acf
            compressor_module.make_heap = ReferenceIndexedMinHeap
            tracker_module.batched_contiguous_acf = (
                reference_batched_contiguous_acf)
            try:
                return cameo_compress(signal, max_lag=PERF_CAMEO_MAX_LAG,
                                      epsilon=PERF_CAMEO_EPSILON, batch_size=1)
            finally:
                compressor_module.make_heap = saved_heap
                tracker_module.batched_contiguous_acf = saved_kernel

        result = run()  # warmup + sanity
        assert result.metadata["stopped_by"] == "error-bound"
        timed = report.add(bench(
            "cameo.compress_10k_speculative", run, ops=PERF_CAMEO_LENGTH,
            repeats=2, warmup=False, max_lag=PERF_CAMEO_MAX_LAG,
            epsilon=PERF_CAMEO_EPSILON, kept=len(result),
            batch_size=result.metadata["batch_size"]))
        pr3_result = run_pr3_loop()
        # The whole stack — speculation, hybrid heap, partitioned kernel —
        # must keep the PR 3 loop's point set exactly.
        assert pr3_result.indices.tolist() == result.indices.tolist()
        timed_pr3 = report.add(bench(
            "cameo.compress_10k_pr3loop", run_pr3_loop, ops=PERF_CAMEO_LENGTH,
            repeats=1, warmup=False, kept=len(pr3_result)))

        points_per_sec = timed.ops_per_sec
        report.ratios["cameo_vs_seed"] = points_per_sec / SEED_CAMEO_POINTS_PER_SEC
        speculative_speedup = report.speedup(
            "cameo_speculative_vs_pr3", "cameo.compress_10k_speculative",
            "cameo.compress_10k_pr3loop")
        assert speculative_speedup >= PERF_MIN_CAMEO_SPECULATIVE_SPEEDUP, (
            f"speculative loop at {speculative_speedup:.2f}x the PR 3 loop is "
            f"below the {PERF_MIN_CAMEO_SPECULATIVE_SPEEDUP}x floor")
        assert timed_pr3.seconds > 0
        if os.environ.get("REPRO_PERF_NO_ABSOLUTE", "0") in ("0", "", "false"):
            assert points_per_sec >= PERF_MIN_CAMEO_SPEEDUP * SEED_CAMEO_POINTS_PER_SEC, (
                f"end-to-end CAMEO at {points_per_sec:.0f} points/s is below "
                f"{PERF_MIN_CAMEO_SPEEDUP}x the recorded seed baseline "
                f"({SEED_CAMEO_POINTS_PER_SEC} points/s)")

    def test_cameo_pacf_points_per_sec(self, report):
        """End-to-end ``statistic="pacf"`` run through the batched DL path."""
        rng = np.random.default_rng(456)
        t = np.arange(PERF_CAMEO_PACF_LENGTH)
        signal = (5.0 + 2.0 * np.sin(2 * np.pi * t / 24)
                  + 0.5 * np.sin(2 * np.pi * t / 168)
                  + rng.normal(0, 0.3, t.size))

        def run():
            return cameo_compress(signal, max_lag=PERF_CAMEO_PACF_MAX_LAG,
                                  epsilon=PERF_CAMEO_EPSILON, statistic="pacf")

        result = run()  # warmup + sanity
        assert result.metadata["stopped_by"] == "error-bound"
        report.add(bench(
            "cameo.compress_pacf_4k", run, ops=PERF_CAMEO_PACF_LENGTH, repeats=1,
            warmup=False, max_lag=PERF_CAMEO_PACF_MAX_LAG,
            epsilon=PERF_CAMEO_EPSILON, statistic="pacf", kept=len(result)))


@pytest.mark.skipif(not _kernels.native_available(),
                    reason="native extension not built")
class TestNativeTier:
    """The compiled tier vs the NumPy tier, measured in the same process."""

    @pytest.fixture(autouse=True)
    def _restore_tier(self):
        yield
        _kernels.set_native_enabled(None)

    @staticmethod
    def _gap_request(case: str):
        """``(tracker, lefts, rights)`` for one fused-kernel entry."""
        rng = np.random.default_rng(2026)
        t = np.arange(PERF_CAMEO_LENGTH)
        signal = (5.0 + 2.0 * np.sin(2 * np.pi * t / 24)
                  + rng.normal(0, 0.3, t.size))
        if case == "interior":
            # every changed position at least max_lag from both ends
            margin = PERF_CAMEO_MAX_LAG + PERF_NATIVE_ACF_SEGMENT_LEN + 1
            lefts = rng.choice(np.arange(margin, PERF_CAMEO_LENGTH - margin),
                               PERF_NATIVE_ACF_SEGMENTS, replace=False)
            return (StatisticTracker(signal, PERF_CAMEO_MAX_LAG), lefts,
                    lefts + PERF_NATIVE_ACF_SEGMENT_LEN + 1)
        # Edge-heavy: one ReHeap on a short series — gap sizes like a run in
        # progress (mostly 1-4 points), three in four within max_lag of an end.
        n, max_lag = PERF_NATIVE_EDGE_LENGTH, PERF_NATIVE_EDGE_MAX_LAG
        gaps = PERF_NATIVE_EDGE_GAPS
        sizes = np.minimum(rng.geometric(0.35, gaps), 20)
        near_left = rng.integers(0, max_lag, gaps)
        lefts = np.where(
            rng.random(gaps) < 0.25,
            rng.integers(max_lag, n - max_lag - 21, gaps),
            np.where(rng.random(gaps) < 0.5, near_left,
                     n - 1 - sizes - 1 - near_left))
        return StatisticTracker(signal[:n], max_lag), lefts, lefts + sizes + 1

    @pytest.mark.parametrize("case", ["interior", "edge_500"])
    def test_segment_impacts_speedup(self, report, case):
        """``native.segment_impacts_*``: one fused C call per ReHeap vs the
        NumPy chain (batched deltas, ACF rows, row-wise deviation).

        The impacts must agree bit for bit before anything is timed.
        """
        tracker, lefts, rights = self._gap_request(case)

        def run():
            return tracker.gap_impacts(lefts, rights, "mae")

        _kernels.set_native_enabled(True)
        native_impacts = run()
        _kernels.set_native_enabled(False)
        assert np.array_equal(native_impacts, run())

        ops = lefts.size * tracker.max_lag
        meta = dict(gaps=int(lefts.size), max_lag=tracker.max_lag,
                    positions=int((rights - lefts - 1).sum()))
        timed_numpy = report.add(bench(f"numpy.segment_impacts_{case}", run,
                                       ops=ops, repeats=7, **meta))
        _kernels.set_native_enabled(True)
        report.add(bench(f"native.segment_impacts_{case}", run, ops=ops,
                         repeats=7, **meta))
        speedup = report.speedup(f"native_segment_impacts_{case}",
                                 f"native.segment_impacts_{case}",
                                 f"numpy.segment_impacts_{case}")
        assert timed_numpy.seconds > 0
        assert speedup >= PERF_MIN_NATIVE_SEGMENT_SPEEDUP, (
            f"fused ReHeap kernel ({case}) at {speedup:.2f}x the NumPy chain "
            f"is below the {PERF_MIN_NATIVE_SEGMENT_SPEEDUP}x floor")

    def test_reheap_step_speedup(self, report):
        """``native.reheap_500``: one whole ReHeap step — neighbourhood
        gather, speculative peek, impacts, heap re-key, version stamps — as
        the one compiled call vs the Python chain on the NumPy tier, on the
        end-to-end benchmark's shape (n=500, L=24, ``5logn`` blocking).

        A re-key with the impacts the heap already holds leaves it as it
        was, so the same step can be timed over and over.
        """
        series = np.round(load_dataset(dataset_names()[0],
                                       length=PERF_FLEET_LENGTH,
                                       seed=7).values, 2)

        class Paused(Exception):
            pass

        class PauseAtStep(CameoCompressor):
            def _reheap_neighbours(self, run, removed):
                if run.state_version == PERF_REHEAP_REMOVALS:
                    self.step = (run, removed)
                    raise Paused
                return super()._reheap_neighbours(run, removed)

        def paused_run(native: bool):
            _kernels.set_native_enabled(native)
            compressor = PauseAtStep(PERF_FLEET_MAX_LAG, None,
                                     target_ratio=PERF_FLEET_LENGTH)
            with pytest.raises(Paused):
                compressor.compress(series)
            super_step = super(PauseAtStep, compressor)._reheap_neighbours
            return compressor.step[0], lambda: super_step(*compressor.step)

        native_run, native_step = paused_run(True)
        numpy_run, numpy_step = paused_run(False)
        refreshed = native_step()
        _kernels.set_native_enabled(False)
        assert numpy_step() == refreshed > 0
        native_heap, numpy_heap = native_run.heap, numpy_run.heap
        assert np.array_equal(native_heap.keys(), numpy_heap.keys())
        assert np.array_equal(native_heap.items(), numpy_heap.items())
        assert np.array_equal(native_run.spec_version, numpy_run.spec_version)

        ops = refreshed * PERF_FLEET_MAX_LAG
        meta = dict(length=PERF_FLEET_LENGTH, max_lag=PERF_FLEET_MAX_LAG,
                    hops=native_run.hops, refreshed=refreshed,
                    heap_size=len(native_heap))
        report.add(bench("numpy.reheap_500", numpy_step, ops=ops, repeats=25,
                         **meta))
        _kernels.set_native_enabled(True)
        report.add(bench("native.reheap_500", native_step, ops=ops,
                         repeats=25, **meta))
        speedup = report.speedup("native_reheap_500", "native.reheap_500",
                                 "numpy.reheap_500")
        assert speedup >= PERF_MIN_NATIVE_REHEAP_SPEEDUP, (
            f"fused ReHeap step at {speedup:.2f}x the NumPy-tier chain is "
            f"below the {PERF_MIN_NATIVE_REHEAP_SPEEDUP}x floor")

    def test_run_loop_speedup(self, report):
        """``native.run_loop_500``: the whole greedy loop of one fleet-shaped
        series (n=500, L=24, eps=0.01) as the one GIL-free compiled call vs
        the Python loop on the native tier — one ``native.reheap`` call,
        one ``apply_contiguous`` and the loop's own bookkeeping per accepted
        removal.  Same kept set, same run statistics."""
        series = np.round(load_dataset(dataset_names()[0],
                                       length=PERF_FLEET_LENGTH,
                                       seed=7).values, 2)

        class PythonLoop(CameoCompressor):
            def _native_loop_serves(self, run):
                return False

        _kernels.set_native_enabled(True)
        compiled = CameoCompressor(PERF_FLEET_MAX_LAG, PERF_FLEET_EPSILON)
        python = PythonLoop(PERF_FLEET_MAX_LAG, PERF_FLEET_EPSILON)
        compiled_result = compiled.compress(series)
        python_result = python.compress(series)
        assert (compiled_result.indices.tolist()
                == python_result.indices.tolist())
        for key in ("iterations", "removed_points", "achieved_deviation",
                    "reheap_updates", "stopped_by", "preview_reuse"):
            assert compiled_result.metadata[key] == python_result.metadata[key]

        meta = dict(length=PERF_FLEET_LENGTH, max_lag=PERF_FLEET_MAX_LAG,
                    epsilon=PERF_FLEET_EPSILON,
                    iterations=compiled_result.metadata["iterations"],
                    kept=len(compiled_result))
        report.add(bench("python.loop_500", lambda: python.compress(series),
                         ops=PERF_FLEET_LENGTH, repeats=9, **meta))
        report.add(bench("native.run_loop_500",
                         lambda: compiled.compress(series),
                         ops=PERF_FLEET_LENGTH, repeats=9, **meta))
        speedup = report.speedup("native_run_loop_500", "native.run_loop_500",
                                 "python.loop_500")
        assert speedup >= PERF_MIN_NATIVE_RUN_LOOP_SPEEDUP, (
            f"compiled greedy loop at {speedup:.2f}x the Python loop on the "
            f"native tier is below the {PERF_MIN_NATIVE_RUN_LOOP_SPEEDUP}x "
            "floor")

    def test_thread_vs_serial_throughput(self, report):
        """``engine.batch_64x4k_thread``: the thread backend vs the serial
        one, both on the native tier, where a series' whole loop runs with
        the GIL released — results identical, ratio gated only where the
        machine has ``PERF_ENGINE_WORKERS`` CPUs."""
        from repro.engine import BatchEngine

        _kernels.set_native_enabled(True)
        fleet = TestBatchEngine._fleet(PERF_ENGINE_SERIES, PERF_ENGINE_LENGTH)
        options = dict(max_lag=PERF_ENGINE_MAX_LAG, epsilon=None,
                       target_ratio=PERF_ENGINE_TARGET_RATIO)
        ops = PERF_ENGINE_SERIES * PERF_ENGINE_LENGTH
        serial_engine = BatchEngine("cameo", codec_options=options,
                                    backend="serial")
        thread_engine = BatchEngine("cameo", codec_options=options,
                                    backend="thread",
                                    workers=PERF_ENGINE_WORKERS)
        serial_result = serial_engine.compress(fleet)
        thread_result = thread_engine.compress(fleet)
        assert serial_result.report.failed == thread_result.report.failed == 0
        for serial_outcome, thread_outcome in zip(serial_result,
                                                  thread_result):
            left = serial_outcome.unwrap().payload
            right = thread_outcome.unwrap().payload
            assert left.indices.tolist() == right.indices.tolist()
            assert np.array_equal(left.values, right.values)
        report.add(bench("engine.batch_64x4k_serial_native",
                         lambda: serial_engine.compress(fleet), ops=ops,
                         repeats=2, warmup=False, series=PERF_ENGINE_SERIES,
                         length=PERF_ENGINE_LENGTH))
        report.add(bench("engine.batch_64x4k_thread",
                         lambda: thread_engine.compress(fleet), ops=ops,
                         repeats=2, warmup=False,
                         workers=PERF_ENGINE_WORKERS))
        speedup = report.speedup("engine_thread_vs_serial",
                                 "engine.batch_64x4k_thread",
                                 "engine.batch_64x4k_serial_native")
        if (os.cpu_count() or 1) >= PERF_ENGINE_WORKERS:
            assert speedup >= PERF_MIN_ENGINE_THREAD_SPEEDUP, (
                f"thread backend at {speedup:.2f}x the serial backend is "
                f"below the {PERF_MIN_ENGINE_THREAD_SPEEDUP}x floor")

    def test_pop_loop_throughput(self, report):
        """``native.pop_loop``: heapify + full drain, C sifts vs hybrid.

        Recorded without a hard floor — single pops are already cheap in
        the hybrid heap; the entry documents the greedy-loop win.
        """
        rng = np.random.default_rng(99)
        items = np.arange(PERF_HEAP_CAPACITY)
        key_rounds = [rng.normal(0.0, 1.0, PERF_HEAP_CAPACITY)
                      for _ in range(PERF_NATIVE_HEAP_DRAINS)]

        def drain(factory):
            out = 0
            for keys in key_rounds:
                heap = factory(PERF_HEAP_CAPACITY)
                heap.heapify(items, keys)
                pop = heap.pop
                while heap:
                    out ^= pop()[0]
            return out

        _kernels.set_native_enabled(True)
        assert drain(NativeIndexedMinHeap) == drain(IndexedMinHeap)
        ops = PERF_HEAP_CAPACITY * PERF_NATIVE_HEAP_DRAINS
        report.add(bench("native.pop_loop",
                         lambda: drain(NativeIndexedMinHeap), ops=ops,
                         capacity=PERF_HEAP_CAPACITY))
        report.add(bench("heap.pop_loop_hybrid",
                         lambda: drain(IndexedMinHeap), ops=ops, repeats=2))
        report.speedup("native_pop_loop", "native.pop_loop",
                       "heap.pop_loop_hybrid")

    def test_cameo_native_end_to_end(self, report):
        """``cameo.compress_10k_native``: the full greedy loop on the
        native tier, kept set identical to the NumPy-tier run."""
        rng = np.random.default_rng(123)
        t = np.arange(PERF_CAMEO_LENGTH)
        signal = (5.0 + 2.0 * np.sin(2 * np.pi * t / 24)
                  + 0.5 * np.sin(2 * np.pi * t / 168)
                  + rng.normal(0, 0.3, t.size))

        def run():
            return cameo_compress(signal, max_lag=PERF_CAMEO_MAX_LAG,
                                  epsilon=PERF_CAMEO_EPSILON)

        _kernels.set_native_enabled(False)
        numpy_result = run()
        _kernels.set_native_enabled(True)
        native_result = run()
        # Hard requirement of the native tier: not one kept point differs.
        assert native_result.indices.tolist() == numpy_result.indices.tolist()
        assert np.array_equal(native_result.values, numpy_result.values)

        timed = report.add(bench(
            "cameo.compress_10k_native", run, ops=PERF_CAMEO_LENGTH,
            repeats=2, warmup=False, max_lag=PERF_CAMEO_MAX_LAG,
            epsilon=PERF_CAMEO_EPSILON, kept=len(native_result)))
        report.ratios["cameo_native_vs_seed"] = (
            timed.ops_per_sec / SEED_CAMEO_POINTS_PER_SEC)
        if "cameo.compress_10k_speculative" in report.results:
            speedup = report.speedup("cameo_native_vs_numpy",
                                     "cameo.compress_10k_native",
                                     "cameo.compress_10k_speculative")
            assert speedup >= PERF_MIN_NATIVE_E2E_SPEEDUP, (
                f"native end-to-end at {speedup:.2f}x the NumPy tier is "
                f"below the {PERF_MIN_NATIVE_E2E_SPEEDUP}x floor")


    def test_cameo_fleet_500x32(self, report):
        """``cameo.compress_fleet_500x32_native``: the end-to-end benchmark's
        ``fleet_cameo`` shape (32 short series, where most ReHeaps touch a
        series boundary), per series, kept sets identical across tiers."""
        fleet = [np.round(load_dataset(name, length=PERF_FLEET_LENGTH,
                                       seed=7 + copy).values, 2)
                 for copy in range(PERF_FLEET_COPIES)
                 for name in dataset_names()]

        def run():
            return [cameo_compress(series, max_lag=PERF_FLEET_MAX_LAG,
                                   epsilon=PERF_FLEET_EPSILON)
                    for series in fleet]

        _kernels.set_native_enabled(False)
        numpy_results = run()
        _kernels.set_native_enabled(True)
        for native_result, numpy_result in zip(run(), numpy_results):
            assert (native_result.indices.tolist()
                    == numpy_result.indices.tolist())
        ops = len(fleet) * PERF_FLEET_LENGTH
        meta = dict(series=len(fleet), length=PERF_FLEET_LENGTH,
                    max_lag=PERF_FLEET_MAX_LAG, epsilon=PERF_FLEET_EPSILON,
                    kept=sum(len(result) for result in numpy_results))
        report.add(bench("cameo.compress_fleet_500x32_native", run, ops=ops,
                         repeats=3, **meta))
        _kernels.set_native_enabled(False)
        report.add(bench("cameo.compress_fleet_500x32_numpy", run, ops=ops,
                         repeats=2, warmup=False, **meta))
        report.speedup("cameo_fleet_native_vs_numpy",
                       "cameo.compress_fleet_500x32_native",
                       "cameo.compress_fleet_500x32_numpy")

    @pytest.mark.parametrize("codec_cls", [GorillaCodec, ChimpCodec],
                             ids=["gorilla", "chimp"])
    def test_xor_codec_speedup(self, report, codec_cls):
        """``<scheme>.{encode,decode}_native``: one storage segment through
        the compiled bit streams vs the NumPy-tier loops, payloads equal."""
        codec = codec_cls()
        label = codec.name.lower()
        rng = np.random.default_rng(42)
        signal = np.round(rng.normal(100, 5, PERF_NATIVE_XOR_LENGTH), 2)
        n = signal.size
        encoded = {}
        for tier, enabled in (("native", True), ("numpy", False)):
            _kernels.set_native_enabled(enabled)
            encoded[tier] = payload, bit_length, count = codec.encode(signal)
            assert np.array_equal(codec.decode(payload, bit_length, count),
                                  signal)
            report.add(bench(f"{label}.encode_{tier}",
                             lambda: codec.encode(signal), ops=n))
            report.add(bench(
                f"{label}.decode_{tier}",
                lambda: codec.decode(payload, bit_length, count), ops=n))
        assert encoded["native"] == encoded["numpy"]
        encode = report.speedup(f"{label}_encode_native",
                                f"{label}.encode_native",
                                f"{label}.encode_numpy")
        decode = report.speedup(f"{label}_decode_native",
                                f"{label}.decode_native",
                                f"{label}.decode_numpy")
        assert encode >= PERF_MIN_NATIVE_XOR_ENCODE_SPEEDUP
        assert decode >= PERF_MIN_NATIVE_XOR_DECODE_SPEEDUP

    def test_crc32c_speedup(self, report):
        """``checksum.crc32c_64k_*``: the compiled table walk vs the Python
        one on a segment-document-sized buffer."""
        from repro.codecs.checksum import crc32c

        data = np.random.default_rng(5).integers(
            0, 256, PERF_NATIVE_CRC_BYTES, dtype=np.uint8).tobytes()
        values = {}
        for tier, enabled in (("native", True), ("python", False)):
            _kernels.set_native_enabled(enabled)
            values[tier] = crc32c(data)
            report.add(bench(f"checksum.crc32c_64k_{tier}",
                             lambda: crc32c(data), ops=len(data)))
        assert values["native"] == values["python"]
        speedup = report.speedup("crc32c_native", "checksum.crc32c_64k_native",
                                 "checksum.crc32c_64k_python")
        assert speedup >= PERF_MIN_NATIVE_CRC_SPEEDUP

    def test_xor_stacked_vs_native_perseries(self, report):
        """``engine_xor_stacked_native``: what the stacked XOR fast path is
        worth where ``encode_batch`` is a compiled call per row (ROADMAP
        item 6(j)); recorded, not gated."""
        _kernels.set_native_enabled(True)
        _bench_xor_stacked(report, "_native")


def _bench_xor_stacked(report, suffix: str) -> float:
    """Time the stacked XOR encode vs per-series execution on the active
    tier (payloads asserted byte-identical) as
    ``engine.xor_{stack,perseries}_512x64<suffix>``; returns their ratio,
    recorded as ``engine_xor_stacked<suffix>``."""
    from repro.codecs import get_codec
    from repro.engine import BatchEngine

    rng = np.random.default_rng(11)
    fleet = [np.round(rng.normal(100.0, 5.0, PERF_ENGINE_XOR_LENGTH), 2)
             for _ in range(PERF_ENGINE_XOR_SERIES)]
    ops = PERF_ENGINE_XOR_SERIES * PERF_ENGINE_XOR_LENGTH
    stacked_engine = BatchEngine("gorilla", backend="serial", fastpath=True)
    scalar_engine = BatchEngine("gorilla", backend="serial", fastpath=False)
    stacked = stacked_engine.compress(fleet)
    assert stacked.report.fastpath_series == PERF_ENGINE_XOR_SERIES
    codec = get_codec("gorilla")
    for outcome, series in zip(stacked, fleet):
        assert outcome.unwrap().payload == codec.encode(series).payload
    report.add(bench(f"engine.xor_stack_512x64{suffix}",
                     lambda: stacked_engine.compress(fleet), ops=ops))
    report.add(bench(f"engine.xor_perseries_512x64{suffix}",
                     lambda: scalar_engine.compress(fleet), ops=ops,
                     repeats=2))
    return report.speedup(f"engine_xor_stacked{suffix}",
                          f"engine.xor_stack_512x64{suffix}",
                          f"engine.xor_perseries_512x64{suffix}")


@pytest.mark.usefixtures("numpy_tier")
class TestBatchEngine:
    """Fleet throughput: the batch engine's stacked XOR fast path."""

    @staticmethod
    def _fleet(count: int, length: int, seed: int = 2026) -> list[np.ndarray]:
        rng = np.random.default_rng(seed)
        t = np.arange(length)
        base = (5.0 + 2.0 * np.sin(2 * np.pi * t / 24)
                + 0.5 * np.sin(2 * np.pi * t / 168))
        return [base + rng.normal(0.0, 0.3, length) for _ in range(count)]

    def test_xor_stacked_fastpath(self, report):
        """``engine.xor_stack``: stacked encode vs per-series, byte-identical."""
        _bench_xor_stacked(report, "")


# Keep a module-level reference so static analysers see the marker is used.
_ = PERF_MARKER
