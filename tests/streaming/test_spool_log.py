"""The ingest spool is the store: what an acknowledged append costs, as counts.

Pins the storage hot path of ``MultiStreamCompressor(spool_to=...)`` — one
fsync per acknowledged append, none for a drain's commit, no segment files
and no manifest swaps on the request path — plus the bound that keeps the
WAL from growing, and the layout older spools were written in.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.faultinject import InjectedFault, StorageFaultAction, active_plan
from repro.storage import DurableStore
from repro.storage.durable import WAL_CHECKPOINT_BYTES
from repro.streaming import MultiStreamCompressor

STREAMS = tuple(f"sensor-{i}" for i in range(8))
CHUNK, BATCH = 256, 32
#: One cycle: every stream fills one chunk, request by request.
REQUESTS = len(STREAMS) * CHUNK // BATCH

PARENT_SPOOL = Path(__file__).parent / "fixtures" / "parent_spool"


def _cycle(multi, rng) -> int:
    """64 adds (8 streams in lock step, 32 values each), then one drain."""
    for _ in range(CHUNK // BATCH):
        for stream in STREAMS:
            multi.add(stream, rng.normal(size=BATCH))
    assert len(multi.drain()) == len(STREAMS)
    return REQUESTS


class TestRequestPathCosts:
    def test_fsyncs_and_swaps_of_one_cycle(self, tmp_path, io_counts):
        spool = tmp_path / "spool"
        rng = np.random.default_rng(0)
        with MultiStreamCompressor(CHUNK, "gorilla", spool_to=spool) as multi:
            _cycle(multi, rng)
            # The empty store's first manifest, then one per series created.
            assert io_counts["manifest_swaps"] == 1 + len(STREAMS)
            io_counts.update(fsyncs=0, manifest_swaps=0)
            appends = _cycle(multi, rng)   # the steady state
            # A commit installs in memory: it writes no record at all.
            assert io_counts == {"fsyncs": appends, "manifest_swaps": 0}
            assert not any((spool / "segments").rglob("*")), (
                "the request path published a segment file")
            for stream in STREAMS:
                assert multi.spool.length(stream) == 2 * CHUNK
                assert multi.spool.info(stream).segments == 2
                assert multi.report(stream).buffered_points == 0
        # Closing publishes every installed chunk.
        assert len(list(spool.rglob("seg-*.seg"))) == 2 * len(STREAMS)

    def test_keyed_request_costs_its_intent_and_its_append(self, tmp_path,
                                                           io_counts):
        with MultiStreamCompressor(CHUNK, "gorilla",
                                   spool_to=tmp_path / "spool") as multi:
            multi.add_idempotent("s", [1.0, 2.0], "warm-up")
            io_counts.update(fsyncs=0, manifest_swaps=0)
            multi.add_idempotent("s", [3.0, 4.0], "key")
            assert io_counts == {"fsyncs": 2, "manifest_swaps": 0}


class TestBoundedLog:
    def test_wal_size_and_replay_stay_bounded(self, tmp_path):
        spool = tmp_path / "spool"
        rng = np.random.default_rng(1)
        values = rng.normal(size=BATCH)
        with MultiStreamCompressor(CHUNK, "raw", spool_to=spool,
                                   spool_fsync="never") as multi:
            for _ in range(200):
                for _ in range(CHUNK // BATCH):
                    for stream in STREAMS:
                        multi.add(stream, values)
                multi.drain()
            for stream in STREAMS:
                multi.add(stream, values)          # an undrained tail
        record_bytes = 8 * BATCH                    # and a 30-byte frame
        written = 200 * REQUESTS * record_bytes
        shards = len({path.name.split(".")[0]
                      for path in (spool / "wal").iterdir()})
        # A shard keeps only its current generation, cut off by the append
        # that crossed WAL_CHECKPOINT_BYTES; the installed chunks live in
        # segment files, by design.
        generation = WAL_CHECKPOINT_BYTES + 64 * 1024
        bound = shards * generation
        assert bound < written, "the workload is too small to tell"
        size = sum(path.stat().st_size for path in (spool / "wal").iterdir())
        assert size < bound
        with DurableStore.open(spool) as store:
            assert store.recovery.clean
            assert (store.recovery.replayed_records * record_bytes
                    < shards * generation)
            for stream in STREAMS:
                assert np.array_equal(store.read(stream),
                                      np.tile(values, 200 * 8 + 1))


class TestUninstalledTail:
    """A commit installs exactly the chunks it took; the rest of the
    stream stays raw in its series, cut where it was cut."""

    def test_a_chunk_sealed_mid_encode_stays_queued_and_raw(self, tmp_path):
        with MultiStreamCompressor(4, "raw",
                                   spool_to=tmp_path / "spool") as multi:
            multi.add("s", [1.0, 2.0, 3.0, 4.0])
            batch = multi.take()
            multi.add("s", [5.0, 6.0, 7.0, 8.0, 9.0])   # seals mid-encode
            multi.commit(batch, multi.encode(batch))
            assert multi.pending_chunks == 1
            assert multi.spool.read("s").tolist() == [1, 2, 3, 4, 5, 6, 7,
                                                      8, 9]
            info = multi.spool.info("s")
            assert (info.segments, info.buffered_points) == (1, 5)
            assert multi.spool.metadata("s") == {}

    def test_split_boundaries_are_absolute_and_pruned_once_published(
            self, tmp_path):
        from repro.sanitize import InputPolicy

        policy = InputPolicy(on_nan="split")
        spool = tmp_path / "spool"
        with MultiStreamCompressor(4, "raw", policy=policy,
                                   spool_to=spool) as multi:
            multi.add("s", [1.0, 2.0, 3.0, 4.0])
            batch = multi.take()
            multi.add("s", [5.0, np.nan, 6.0])          # seals [5] mid-encode
            multi.commit(batch, multi.encode(batch))
            assert multi.spool.metadata("s") == {"splits": [5]}
        with MultiStreamCompressor(4, "raw", policy=policy,
                                   spool_to=spool) as again:
            assert again.pending_chunks == 1            # [5], cut at 5
            again.flush()
            assert [r.length for r in again.results("s")] == [4, 1, 1]
            # Installed but unpublished: a crash could still need split 5.
            again.add("s", [7.0, np.nan, 8.0])
            assert again.spool.metadata("s") == {"splits": [5, 7]}
            again.drain()                               # installs [7]
            again.spool.flush()                         # publishes [0, 7)
            again.add("s", [9.0, np.nan, 10.0])
            assert again.spool.metadata("s") == {"splits": [9]}


class TestParentLayout:
    """A spool written before it became a log: raw segment files, a
    ``drained`` watermark and ``splits`` in the manifest's series metadata,
    the whole idempotency journal under one ``keys`` entry."""

    @pytest.fixture
    def spool(self, tmp_path):
        return shutil.copytree(PARENT_SPOOL, tmp_path / "spool")

    def test_every_acked_value_is_readable(self, spool):
        with MultiStreamCompressor(4, "raw", spool_to=spool) as multi:
            assert multi.spool.recovery.clean
            # Stream s: 10 spooled, 4 drained, a policy split at 7.  The
            # values below the watermark were encoded only in the memory of
            # the process that wrote it: the watermark goes, they stay.
            assert "drained" not in multi.spool.metadata("s")
            assert [r.length for r in multi.results("s")] == [4, 4]
            assert multi.report("s").ingested_points == 10
            multi.flush()
            assert multi.reconstruct("s").tolist() == list(range(1, 11))
            assert multi.reconstruct("t").tolist() == [11, 12]
            # key-1's append landed before the crash: the retry dedupes.
            assert multi.add_idempotent("t", [11, 12], "key-1") == (0, True)

    def test_the_first_checkpoint_records_the_log_layout(self, spool):
        with MultiStreamCompressor(4, "raw", spool_to=spool) as multi:
            multi.add("s", [13.0, 14.0, 15.0])       # [9, 10, 13, 14] seals
            multi.drain()
        with MultiStreamCompressor(4, "raw", spool_to=spool) as again:
            assert again.spool.recovery.clean
            assert [r.start for r in again.results("s")] == [0, 4, 8]
            assert again.report("s").buffered_points == 1
            assert again.add_idempotent("t", [11, 12], "key-1") == (0, True)
        with DurableStore.open(spool) as store:
            assert store.recovery.clean
            assert "keys" not in store.metadata("__idempotency__")
            assert store.append("s", [16.0] * 4) == 0    # a log: no seal
            assert store.read("s").tolist() == [*range(1, 11), 13, 14, 15,
                                                16, 16, 16, 16]


class TestFailedAppendAccounting:
    def test_refused_append_leaves_no_phantom_points(self, tmp_path):
        with MultiStreamCompressor(4, "raw",
                                   spool_to=tmp_path / "spool") as multi:
            multi.add("s", [1.0, 2.0])
            with active_plan([StorageFaultAction(kind="raise",
                                                 site="wal_append")]):
                with pytest.raises(InjectedFault):
                    multi.add("s", [3.0, 4.0, 5.0])
            report = multi.report("s")
            assert report.ingested_points == 2
            assert report.buffered_points == 2
            multi.add("s", [6.0, 7.0])
            multi.drain()
            assert report.buffered_points == 0
            assert multi.reconstruct("s").tolist() == [1.0, 2.0, 6.0, 7.0]

    def test_refused_policy_batch_is_not_accounted(self, tmp_path):
        from repro.sanitize import InputPolicy

        policy = InputPolicy(on_nan="split")
        with MultiStreamCompressor(4, "raw", policy=policy,
                                   spool_to=tmp_path / "spool") as multi:
            multi.add("s", [1.0])
            with active_plan([StorageFaultAction(kind="raise",
                                                 site="wal_append")]):
                with pytest.raises(InjectedFault):
                    multi.add("s", [2.0, np.nan, 3.0])
            report = multi.report("s")
            assert (report.ingested_points, report.dropped_points,
                    report.nan_runs) == (1, 0, 0)

    def test_refused_keyed_append_can_be_retried(self, tmp_path):
        spool = tmp_path / "spool"
        with MultiStreamCompressor(4, "raw", spool_to=spool) as multi:
            # skip_hits=1: the intent record lands, the append is refused.
            with active_plan([StorageFaultAction(kind="raise", skip_hits=1,
                                                 site="wal_append")]):
                with pytest.raises(InjectedFault):
                    multi.add_idempotent("s", [1.0, 2.0], "key")
            assert multi.add_idempotent("s", [1.0, 2.0], "key") == (0, False)
            assert multi.add_idempotent("s", [1.0, 2.0], "key") == (0, True)
            assert multi.report("s").ingested_points == 2
        with MultiStreamCompressor(4, "raw", spool_to=spool) as again:
            assert again.report("s").ingested_points == 2
            assert again.add_idempotent("s", [1.0, 2.0], "key") == (0, True)


class TestSplitsOfValuesThatNeverLanded:
    """A split boundary is recorded ahead of the values it splits; one whose
    values never landed must not cut the stream where no gap is."""

    def _open(self, spool):
        from repro.sanitize import InputPolicy

        return MultiStreamCompressor(8, "raw",
                                     policy=InputPolicy(on_nan="split"),
                                     spool_to=spool)

    def _reopened_chunks(self, spool):
        with self._open(spool) as again:
            again.flush()
            return [(r.start, r.length) for r in again.results("s")]

    def test_a_refused_append_takes_its_splits_back_out(self, tmp_path):
        spool = tmp_path / "spool"
        multi = self._open(spool)
        multi.add("s", [0.0, 1.0, 2.0])
        # skip_hits=1: the split record lands, the append is refused.
        with active_plan([StorageFaultAction(kind="raise", skip_hits=1,
                                             site="wal_append")]):
            with pytest.raises(InjectedFault):
                multi.add("s", [3.0, np.nan, 4.0, 5.0])
        assert "splits" not in multi.spool.metadata("s")
        multi.add("s", np.arange(20.0))
        live = [(r.start, r.length) for _stream, r in multi.flush()]
        assert live == [(0, 8), (8, 8), (16, 7)]
        multi.spool.abandon()
        assert self._reopened_chunks(spool) == live

    def test_open_drops_a_split_past_the_series_end(self, tmp_path):
        spool = tmp_path / "spool"
        multi = self._open(spool)
        multi.add("s", [0.0, 1.0, 2.0])
        # What a crash between an add's split record and its append leaves.
        multi.spool.update_metadata({"s": {"splits": [5]}})
        multi.spool.abandon()
        again = self._open(spool)
        assert "splits" not in again.spool.metadata("s")
        again.add("s", np.arange(20.0))
        live = [(r.start, r.length) for _stream, r in again.flush()]
        assert live == [(0, 8), (8, 8), (16, 7)]
        again.spool.abandon()
        assert self._reopened_chunks(spool) == live

    def test_an_append_failing_after_its_values_landed_keeps_its_splits(
            self, tmp_path, monkeypatch):
        # Every append is due a checkpoint; its manifest write refuses, after
        # the add's values are in the WAL and the series.
        monkeypatch.setattr("repro.storage.durable.WAL_CHECKPOINT_BYTES", 1)
        spool = tmp_path / "spool"
        multi = self._open(spool)
        multi.add("s", [0.0, 1.0, 2.0])
        with active_plan([StorageFaultAction(kind="raise",
                                             site="manifest_write")]):
            with pytest.raises(InjectedFault):
                multi.add("s", [3.0, np.nan, 4.0, 5.0])
        assert multi.spool.length("s") == 6
        assert multi.spool.metadata("s") == {"splits": [4]}
        multi.spool.abandon()
        assert self._reopened_chunks(spool) == [(0, 4), (4, 2)]
