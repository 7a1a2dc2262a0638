"""The ingest spool is a log: what an acknowledged append costs, as counts.

Pins the storage hot path of ``MultiStreamCompressor(spool_to=...)`` — one
fsync per acknowledged append, one per drained stream, no segment files and
no manifest swaps on the request path — plus the bound that keeps the log
from growing, and the layout older spools were written in.
"""

from __future__ import annotations

import os
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


@pytest.fixture
def io_counts(monkeypatch):
    """Count ``os.fsync`` calls and ``os.replace`` onto ``manifest.json``."""
    counts = {"fsyncs": 0, "manifest_swaps": 0}
    fsync, replace = os.fsync, os.replace

    def counting_fsync(fd):
        counts["fsyncs"] += 1
        return fsync(fd)

    def counting_replace(source, target, **kwargs):
        counts["manifest_swaps"] += os.path.basename(target) == "manifest.json"
        return replace(source, target, **kwargs)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    monkeypatch.setattr(os, "replace", counting_replace)
    return counts


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
            assert io_counts["fsyncs"] <= appends + len(STREAMS) + 1
            assert io_counts["manifest_swaps"] == 0
            assert not any((spool / "segments").rglob("*")), (
                "a spool series sealed a segment file")
            for stream in STREAMS:
                assert multi.spool.length(stream) == 0
                assert multi.report(stream).buffered_points == 0

    def test_keyed_request_costs_its_intent_and_its_append(self, tmp_path,
                                                           io_counts):
        with MultiStreamCompressor(CHUNK, "gorilla",
                                   spool_to=tmp_path / "spool") as multi:
            multi.add_idempotent("s", [1.0, 2.0], "warm-up")
            io_counts.update(fsyncs=0, manifest_swaps=0)
            multi.add_idempotent("s", [3.0, 4.0], "key")
            assert io_counts == {"fsyncs": 2, "manifest_swaps": 0}


class TestBoundedLog:
    def test_spool_size_and_replay_stay_bounded(self, tmp_path):
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
                multi._results = {stream: [] for stream in STREAMS}
            for stream in STREAMS:
                multi.add(stream, values)          # an undrained tail
        record_bytes = 8 * BATCH                    # and a 30-byte frame
        written = 200 * REQUESTS * record_bytes
        shards = len({path.name.split(".")[0]
                      for path in (spool / "wal").iterdir()})
        # A shard keeps its current generation and the one before it, each
        # cut off by the append that crossed WAL_CHECKPOINT_BYTES.
        generation = WAL_CHECKPOINT_BYTES + 64 * 1024
        bound = 2 * shards * generation
        assert bound < written, "the workload is too small to tell"
        size = sum(path.stat().st_size for path in spool.rglob("*")
                   if path.is_file())
        assert size < bound
        with DurableStore.open(spool) as store:
            assert store.recovery.clean
            assert (store.recovery.replayed_records * record_bytes
                    < shards * generation)
            for stream in STREAMS:
                assert np.array_equal(store.read(stream), values)


class TestUndrainedTail:
    """A commit cuts each drained stream back to what is still undrained:
    the chunks sealed while its batch encoded, then the buffer."""

    def test_retained_full_chunks_are_reset_into_the_log(self, tmp_path):
        with MultiStreamCompressor(4, "raw",
                                   spool_to=tmp_path / "spool") as multi:
            multi.add("s", [1.0, 2.0, 3.0, 4.0])
            batch = multi.take()
            multi.add("s", [5.0, 6.0, 7.0, 8.0, 9.0])   # seals mid-encode
            multi.commit(batch, multi.encode(batch))
            assert multi.pending_chunks == 1
            assert multi.spool.read("s").tolist() == [5, 6, 7, 8, 9]
            assert multi.spool.metadata("s") == {}

    def test_a_retained_short_chunk_keeps_its_split(self, tmp_path):
        from repro.sanitize import InputPolicy

        policy = InputPolicy(on_nan="split")
        spool = tmp_path / "spool"
        with MultiStreamCompressor(4, "raw", policy=policy,
                                   spool_to=spool) as multi:
            multi.add("s", [1.0, 2.0, 3.0, 4.0])
            batch = multi.take()
            multi.add("s", [5.0, np.nan, 6.0])          # seals [5] mid-encode
            multi.commit(batch, multi.encode(batch))
            # A reset would drop the split at 5: the watermark keeps it.
            assert multi.spool.metadata("s") == {"drained": 4, "splits": [5]}
        with MultiStreamCompressor(4, "raw", policy=policy,
                                   spool_to=spool) as again:
            assert again.replay_spool() == 2
            again.flush()
            assert [r.length for r in again.results("s")] == [1, 1]
            again.add("s", [7.0, 8.0, 9.0, 10.0])
            again.drain()                               # nothing short left
            assert again.spool.metadata("s") == {}


class TestParentLayout:
    """A spool written before it became a log: raw segment files, a
    ``drained`` watermark and ``splits`` in the manifest's series metadata,
    the whole idempotency journal under one ``keys`` entry."""

    @pytest.fixture
    def spool(self, tmp_path):
        return shutil.copytree(PARENT_SPOOL, tmp_path / "spool")

    def test_replays_the_undrained_suffix(self, spool):
        with MultiStreamCompressor(4, "raw", spool_to=spool) as multi:
            assert multi.spool.recovery.clean
            # Stream s: 10 spooled, 4 drained, a policy split recorded at 7.
            assert multi.replay_spool() == 6 + 2
            multi.flush()
            assert [r.length for r in multi.results("s")] == [3, 3]
            assert multi.reconstruct("s").tolist() == [5, 6, 7, 8, 9, 10]
            assert multi.reconstruct("t").tolist() == [11, 12]
            # key-1's append landed before the crash: the retry dedupes.
            assert multi.add_idempotent("t", [11, 12], "key-1") == (0, True)

    def test_first_drain_moves_the_series_into_the_log_layout(self, spool):
        with MultiStreamCompressor(4, "raw", spool_to=spool) as multi:
            multi.replay_spool()
            multi.add("s", [13.0, 14.0, 15.0])       # [8, 9, 10, 13] seals
            multi.drain()
            assert multi.spool.read("s").tolist() == [14.0, 15.0]
            assert multi.spool.metadata("s") == {}
        with MultiStreamCompressor(4, "raw", spool_to=spool) as again:
            assert again.spool.recovery.clean
            assert not any((spool / "segments").rglob("seg-*")), (
                "the drained segment files outlived the reset")
            assert again.replay_spool() == 2 + 2
            assert again.add_idempotent("t", [11, 12], "key-1") == (0, True)
        with DurableStore.open(spool) as store:
            assert store.recovery.clean
            assert "keys" not in store.metadata("__idempotency__")


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
            assert again.replay_spool() == 2
            assert again.add_idempotent("s", [1.0, 2.0], "key") == (0, True)
