"""DurableStore: round trips, recovery, quarantine, migration, spool."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.exceptions import SeriesNotFoundError, StorageError
from repro.faultinject import (
    InjectedCrash,
    InjectedFault,
    StorageFaultAction,
    active_plan,
    inject_bit_flip,
    inject_torn_write,
)
from repro.storage import (
    DurableStore,
    TimeSeriesStore,
    fsck,
    load_store,
    recover,
    save_store,
)
from repro.codecs.checksum import crc32c_hex
from repro.storage.durable import attach_footer, split_footer
from repro.codecs import get_codec
from repro.storage.wal import RESET, WalRecord, encode_record, scan_wal


@pytest.fixture()
def root(tmp_path):
    return tmp_path / "store"


def _values(n, seed=0):
    return np.round(np.random.default_rng(seed).normal(size=n), 3)


def _crash_after_manifest_rename():
    """A crash between the manifest rename and the ``.prev`` write."""
    return active_plan([StorageFaultAction(kind="crash", site="after_rename",
                                           target="manifest.json")])


class TestFooter:
    def test_roundtrip(self):
        payload = b'{"k": 1}'
        data, written_crc = attach_footer(payload)
        verified, verified_crc, reason, _ = split_footer(data)
        assert verified == payload and reason == ""
        assert written_crc == verified_crc == crc32c_hex(payload)

    def test_missing_footer(self):
        payload, _, reason, _ = split_footer(b"just bytes")
        assert payload is None and reason == "truncated-footer"

    def test_corrupt_payload(self):
        data = bytearray(attach_footer(b'{"k": 1}')[0])
        data[2] ^= 0x01
        payload, crc, reason, _ = split_footer(bytes(data))
        assert payload is None and crc == "" and reason == "checksum-mismatch"


class TestRoundTrip:
    def test_create_append_read(self, root):
        with DurableStore.create(root, default_segment_size=32) as store:
            store.create_series("a", codec="raw")
            values = _values(100)
            store.append("a", values)
            assert np.array_equal(store.read("a"), values)

    def test_reopen_reads_identical(self, root):
        values = _values(100)
        with DurableStore.create(root, default_segment_size=32) as store:
            store.create_series("a", codec="raw")
            store.append("a", values)
        with DurableStore.open(root) as reopened:
            assert reopened.recovery.clean
            assert np.array_equal(reopened.read("a"), values)

    def test_buffer_tail_survives_reopen(self, root):
        with DurableStore.create(root, default_segment_size=64) as store:
            store.create_series("a", codec="raw")
            store.append("a", [1.0, 2.0, 3.0])  # never sealed
        with DurableStore.open(root) as reopened:
            assert reopened.recovery.replayed_records == 1
            assert np.array_equal(reopened.read("a"),
                                  np.asarray([1.0, 2.0, 3.0]))

    def test_lossy_codec_roundtrips_its_reconstruction(self, root):
        values = np.sin(np.arange(200) / 5.0)
        with DurableStore.create(root, default_segment_size=64) as store:
            store.create_series("c", codec="cameo",
                                codec_options={"max_lag": 8, "epsilon": 0.05})
            store.append("c", values)
            store.flush("c")
            expected = store.read("c")
        with DurableStore.open(root) as reopened:
            assert np.array_equal(reopened.read("c"), expected)

    def test_multiple_series_across_shards(self, root):
        data = {f"series-{i}": _values(40, seed=i) for i in range(12)}
        with DurableStore.create(root, default_segment_size=16,
                                 shards=4) as store:
            for name, values in data.items():
                store.create_series(name, codec="raw")
                store.append(name, values)
        with DurableStore.open(root) as reopened:
            for name, values in data.items():
                assert np.array_equal(reopened.read(name), values)

    def test_flush_then_reopen(self, root):
        with DurableStore.create(root, default_segment_size=64) as store:
            store.create_series("a", codec="gorilla")
            store.append("a", _values(30))
            assert store.flush() == 1
        with DurableStore.open(root) as reopened:
            assert reopened.recovery.replayed_records == 0
            assert reopened.length("a") == 30

    def test_scalar_append_and_empty_append(self, root):
        with DurableStore.create(root) as store:
            store.create_series("a", codec="raw")
            store.append("a", 4.5)
            assert store.append("a", []) == 0
            assert store.read("a").tolist() == [4.5]

    def test_open_missing_directory_raises(self, tmp_path):
        with pytest.raises(StorageError, match="no store manifest"):
            DurableStore.open(tmp_path / "absent")

    def test_create_twice_raises(self, root):
        DurableStore.create(root).close()
        with pytest.raises(StorageError, match="already contains"):
            DurableStore.create(root)

    def test_append_unknown_series_raises(self, root):
        with DurableStore.create(root) as store:
            with pytest.raises(SeriesNotFoundError):
                store.append("ghost", [1.0])

    def test_closed_store_rejects_writes(self, root):
        store = DurableStore.create(root)
        store.close()
        with pytest.raises(StorageError, match="closed"):
            store.create_series("a")

    def test_closed_store_rejects_reads(self, root):
        """A closed handle answers nothing: another handle may have moved
        the store on since, and its memory would be stale."""
        store = DurableStore.create(root)
        store.create_series("a", codec="raw")
        store.append("a", np.arange(10.0))
        store.close()
        with DurableStore.open(root) as other:
            other.append("a", [99.0, 98.0])
            assert other.length("a") == 12
            for read in (lambda: store.read("a"), lambda: store.value_at("a", 9),
                         lambda: store.length("a"), lambda: store.info("a")):
                with pytest.raises(StorageError, match="closed"):
                    read()

    def test_invalid_fsync_policy_rejected(self, root):
        with pytest.raises(StorageError, match="fsync_policy"):
            DurableStore.create(root, fsync_policy="later")

    @pytest.mark.parametrize("policy", ["interval", "never"])
    def test_relaxed_fsync_policies_work(self, root, policy):
        with DurableStore.create(root, fsync_policy=policy,
                                 default_segment_size=8) as store:
            store.create_series("a", codec="raw")
            store.append("a", _values(20))
        with DurableStore.open(root) as reopened:
            assert reopened.length("a") == 20


_DIE_BEFORE_CLOSE = """
import os, sys
import numpy as np
from repro.storage import DurableStore
store = DurableStore.create(sys.argv[1], default_segment_size=8)
store.create_series("a", codec="raw")
values = np.load(sys.argv[2])
for start in range(0, values.size, 5):
    store.append("a", values[start:start + 5])
os._exit(0)
"""


class TestPublication:
    """Sealing is in memory; ``flush``, ``close`` and oversize WALs publish."""

    def test_a_sealing_append_costs_its_one_wal_fsync(self, root, io_counts):
        with DurableStore.create(root, default_segment_size=8) as store:
            store.create_series("a", codec="raw")
            io_counts.update(fsyncs=0, manifest_swaps=0)
            assert store.append("a", _values(16)) == 2
            assert io_counts == {"fsyncs": 1, "manifest_swaps": 0}
            assert not list(root.glob("segments/*/*/seg-*.seg"))
            # Nothing is buffered, and flush still publishes both.
            assert store.flush() == 0
            assert len(list(root.glob("segments/*/*/seg-*.seg"))) == 2

    def test_close_publishes_every_sealed_segment(self, root):
        data = {f"s{i}": _values(20, seed=i) for i in range(4)}
        with DurableStore.create(root, default_segment_size=8,
                                 shards=2) as store:
            for name, values in data.items():
                store.create_series(name, codec="raw")
                assert store.append(name, values) == 2
        assert len(list(root.glob("segments/*/*/seg-*.seg"))) == 8
        shards = [path.name.split(".")[0]
                  for path in (root / "wal").glob("*.wal")]
        assert len(shards) == len(set(shards))   # one generation a shard
        assert ((root / "manifest.json").read_bytes()
                == (root / "manifest.json.prev").read_bytes())
        with DurableStore.open(root) as reopened:
            report = reopened.recovery
            assert report.clean and report.resealed_segments == 0
            assert report.segments_verified == 8
            assert report.replayed_records == 4   # the buffered tails
            for name, values in data.items():
                assert np.array_equal(reopened.read(name), values)

    def test_process_death_before_close_reopens_bit_identical(self, root,
                                                              tmp_path):
        values = _values(61)
        np.save(tmp_path / "values.npy", values)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(repro.__file__).resolve().parents[1]),
             os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", _DIE_BEFORE_CLOSE, str(root),
                        str(tmp_path / "values.npy")],
                       env=env, check=True, timeout=120)
        assert not list(root.glob("segments/*/*/seg-*.seg"))
        with DurableStore.open(root) as store:
            assert store.recovery.clean
            assert store.recovery.resealed_segments == 7
            assert np.array_equal(store.read("a"), values)
        with DurableStore.open(root) as again:
            assert again.recovery.clean
            assert again.recovery.resealed_segments == 0
            assert np.array_equal(again.read("a"), values)

    def test_exit_on_an_injected_crash_publishes_nothing(self, root,
                                                         io_counts):
        with DurableStore.create(root, default_segment_size=8) as store:
            store.create_series("a", codec="raw")
        manifest = (root / "manifest.json").read_bytes()
        with pytest.raises(InjectedCrash):
            with DurableStore.open(root) as store:
                store.append("a", _values(20))
                io_counts.update(fsyncs=0, manifest_swaps=0)
                raise InjectedCrash("process death")
        # The WAL handle's close, nothing more.
        assert io_counts == {"fsyncs": 1, "manifest_swaps": 0}
        assert (root / "manifest.json").read_bytes() == manifest
        assert not list(root.glob("segments/*/*/seg-*.seg"))
        with DurableStore.open(root) as store:   # the lock was released
            assert store.recovery.resealed_segments == 2
            assert np.array_equal(store.read("a"), _values(20))

    def test_a_simulated_process_death_runs_nothing(self, root, io_counts):
        store = DurableStore.create(root, default_segment_size=8)
        store.create_series("a", codec="raw")
        store.append("a", _values(20))
        io_counts.update(fsyncs=0, manifest_swaps=0)
        del store                  # dropped, never closed
        gc.collect()
        assert io_counts == {"fsyncs": 0, "manifest_swaps": 0}
        assert not list(root.glob("segments/*/*/seg-*.seg"))
        with DurableStore.open(root) as store:
            assert store.recovery.resealed_segments == 2
            assert np.array_equal(store.read("a"), _values(20))

    def test_an_oversize_wal_publishes_sealed_segments(self, root,
                                                       monkeypatch):
        monkeypatch.setattr("repro.storage.durable.WAL_CHECKPOINT_BYTES", 500)
        with DurableStore.create(root, default_segment_size=8,
                                 shards=1) as store:
            store.create_series("a", codec="raw")
            for i in range(10):
                store.append("a", _values(6, seed=i))   # ~80 B a record
            published = len(list(root.glob("segments/*/*/seg-*.seg")))
            assert 0 < published < store.info("a").segments
            store.flush()
            assert len(list(root.glob("segments/*/*/seg-*.seg"))) == 8

    def test_a_lagging_prev_keeps_every_generation_it_may_need(self, root):
        # Two handles in a row die between the manifest rename and the
        # .prev write, so .prev is two swaps behind; a clean open in
        # between writes nothing and prunes nothing.
        values = _values(40)
        for part in (values[:20], values[20:]):
            with pytest.raises(InjectedCrash):
                with DurableStore.open(root, create=True,
                                       default_segment_size=8) as store:
                    if "a" not in store:
                        store.create_series("a", codec="raw")
                    store.append("a", part)
                    with _crash_after_manifest_rename():
                        store.flush()
        DurableStore.open(root).close()
        assert len(list((root / "wal").glob("*.wal"))) == 3
        inject_bit_flip(root / "manifest.json", 400)
        with DurableStore.open(root) as store:
            assert store.recovery.used_prev_manifest
            assert store.recovery.extra_wal_generations == 2
            assert np.array_equal(store.read("a"), values)
        # That recovery published both manifests: only its generation stays.
        assert len(list((root / "wal").glob("*.wal"))) == 1
        with DurableStore.open(root) as store:
            assert store.recovery.clean
            assert np.array_equal(store.read("a"), values)


class TestQuarantine:
    def _seeded(self, root, n=64, segment_size=16):
        values = _values(n)
        store = DurableStore.create(root, default_segment_size=segment_size)
        store.create_series("x", codec="raw")
        store.append("x", values)
        store.close()
        return values

    def _segment_files(self, root):
        return sorted(root.glob("segments/*/*/seg-*.seg"))

    def test_bit_flip_is_quarantined(self, root):
        self._seeded(root)
        inject_bit_flip(self._segment_files(root)[1], 200)
        with DurableStore.open(root) as store:
            report = store.recovery
            assert len(report.quarantined) == 1
            entry = report.quarantined[0]
            assert entry.series == "x"
            assert entry.reason == "checksum-mismatch"
            assert (entry.start, entry.length) == (16, 16)
            assert not report.clean

    def test_torn_segment_is_quarantined(self, root):
        self._seeded(root)
        target = self._segment_files(root)[0]
        inject_torn_write(target, target.stat().st_size * 2 // 3)
        with DurableStore.open(root) as store:
            assert store.recovery.quarantined[0].reason == "truncated-footer"

    def test_missing_segment_is_quarantined(self, root):
        self._seeded(root)
        self._segment_files(root)[2].unlink()
        with DurableStore.open(root) as store:
            assert store.recovery.quarantined[0].reason == "missing-file"

    def test_read_of_quarantined_range_raises(self, root):
        values = self._seeded(root)
        inject_bit_flip(self._segment_files(root)[1], 99)
        with DurableStore.open(root) as store:
            with pytest.raises(StorageError, match="quarantined"):
                store.read("x")
            with pytest.raises(StorageError, match="quarantined"):
                store.value_at("x", 20)
            # Ranges outside the hole still read, bit-identical.
            assert np.array_equal(store.read("x", 0, 16), values[:16])
            assert np.array_equal(store.read("x", 32, 64), values[32:64])
            for position in (0, 15, 32, 47, 48):
                assert store.value_at("x", position) == values[position]
            for position in (16, 31):
                with pytest.raises(StorageError, match="quarantined"):
                    store.value_at("x", position)

    def test_quarantine_dir_holds_file_and_reason(self, root):
        self._seeded(root)
        inject_bit_flip(self._segment_files(root)[1], 99)
        with DurableStore.open(root) as store:
            quarantined = store.recovery.quarantined[0]
        names = sorted(p.name for p in (root / "quarantine").iterdir())
        assert len(names) == 2  # the segment + its reason sidecar
        reason_doc = json.loads(
            (root / "quarantine" / names[1]).read_text())
        assert reason_doc["reason"] == "checksum-mismatch"
        assert reason_doc["series"] == "x"
        assert reason_doc["original_path"] == quarantined.file

    def test_second_open_is_clean_with_prior_hole(self, root):
        self._seeded(root)
        inject_bit_flip(self._segment_files(root)[1], 99)
        DurableStore.open(root).close()
        with DurableStore.open(root) as store:
            assert store.recovery.clean
            assert store.recovery.prior_holes == 1
            assert store.holes("x")[0]["start"] == 16

    def test_appends_continue_after_quarantine(self, root):
        self._seeded(root)
        inject_bit_flip(self._segment_files(root)[1], 99)
        with DurableStore.open(root) as store:
            store.append("x", [7.0, 8.0])
            assert store.length("x") == 66
        with DurableStore.open(root) as store:
            assert np.array_equal(store.read("x", 64, 66),
                                  np.asarray([7.0, 8.0]))

    def test_trailing_hole_decides_the_sealed_end(self, root):
        """The last segment quarantined: only the hole says where the
        sealed positions end."""
        values = self._seeded(root)
        inject_bit_flip(self._segment_files(root)[3], 99)
        more = _values(16, seed=1)
        with DurableStore.open(root) as store:
            assert store.holes("x")[0]["start"] == 48
            assert store.length("x") == 64
            assert np.array_equal(store.read("x", 0, 48), values[:48])
            with pytest.raises(StorageError, match="quarantined"):
                store.read("x", 48, 64)
            assert store.append("x", more) == 1
            assert store.memory.segments("x")[-1].start == 64
            assert store.length("x") == 80
        with DurableStore.open(root) as store:
            assert store.recovery.clean
            assert [(hole["start"], hole["length"])
                    for hole in store.holes("x")] == [(48, 16)]
            assert store.length("x") == 80
            assert np.array_equal(store.read("x", 64, 80), more)

    def test_every_bit_flip_position_is_rejected(self, root, tmp_path):
        """Checksum verification rejects 100% of injected bit flips."""
        import shutil

        self._seeded(root, n=16, segment_size=16)
        pristine = tmp_path / "pristine"
        shutil.copytree(root, pristine)
        bits = self._segment_files(root)[0].stat().st_size * 8
        for bit in range(0, bits, 97):
            shutil.rmtree(root)
            shutil.copytree(pristine, root)
            inject_bit_flip(self._segment_files(root)[0], bit)
            report = fsck(root)
            assert len(report.quarantined) == 1, f"bit {bit} not rejected"

    def test_every_torn_write_position_is_rejected(self, root, tmp_path):
        """Checksum verification rejects 100% of injected torn writes."""
        import shutil

        self._seeded(root, n=16, segment_size=16)
        pristine = tmp_path / "pristine"
        shutil.copytree(root, pristine)
        size = self._segment_files(root)[0].stat().st_size
        for keep in range(0, size, 53):
            shutil.rmtree(root)
            shutil.copytree(pristine, root)
            inject_torn_write(self._segment_files(root)[0], keep)
            report = fsck(root)
            assert len(report.quarantined) == 1, f"cut at {keep} not rejected"


class TestManifestFallback:
    def test_torn_manifest_recovers_from_prev(self, root):
        values = _values(20)
        with DurableStore.create(root, default_segment_size=8) as store:
            store.create_series("z", codec="raw")
            store.append("z", values)
        manifest = root / "manifest.json"
        inject_torn_write(manifest, manifest.stat().st_size // 2)
        store, report = recover(root)
        assert report.used_prev_manifest
        assert np.array_equal(store.read("z"), values)
        store.close()
        with DurableStore.open(root) as repaired:
            assert repaired.recovery.clean
            assert np.array_equal(repaired.read("z"), values)

    def test_bit_flipped_manifest_recovers_from_prev(self, root):
        values = _values(20)
        with DurableStore.create(root, default_segment_size=8) as store:
            store.create_series("z", codec="raw")
            store.append("z", values)
        inject_bit_flip(root / "manifest.json", 400)
        report = fsck(root)
        assert report.used_prev_manifest and report.corruption_found
        assert fsck(root).clean

    def test_torn_publication_never_reaches_prev(self, root):
        values = _values(20)
        with DurableStore.create(root, default_segment_size=8) as store:
            store.create_series("z", codec="raw")
            store.append("z", values)
            with active_plan([StorageFaultAction(kind="torn_write",
                                                 site="manifest_write")]):
                store.flush()   # half of the last manifest reaches the disk
        store, report = recover(root)
        assert report.used_prev_manifest and report.segments_verified == 3
        assert np.array_equal(store.read("z"), values)
        store.close()

    def test_both_manifests_gone_raises(self, root):
        with DurableStore.create(root) as store:
            store.create_series("z", codec="raw")
        (root / "manifest.json").write_bytes(b"garbage")
        (root / "manifest.json.prev").unlink()
        with pytest.raises(StorageError, match="cannot read store manifest"):
            DurableStore.open(root)

    def test_fallback_replays_newer_wal_generations(self, root):
        # A crash between the manifest rename and the .prev write leaves
        # manifest.json.prev behind the current WAL generation; appends
        # acknowledged after the fallback manifest was published must
        # still be replayed, not pruned or overwritten.
        head, tail = np.arange(10.0), np.array([100.0, 101.0, 102.0])
        with pytest.raises(InjectedCrash):
            with DurableStore.create(root, default_segment_size=8) as store:
                store.create_series("z", codec="raw")
                store.append("z", head)   # seals a segment in memory
                with _crash_after_manifest_rename():
                    store.flush()         # publishes, rotates the WAL, dies
        assert ((root / "manifest.json").read_bytes()
                != (root / "manifest.json.prev").read_bytes())
        with DurableStore.open(root) as store:
            assert store.recovery.clean
            store.append("z", tail)  # lands in the newer generation
        inject_bit_flip(root / "manifest.json", 400)
        store, report = recover(root)
        assert report.used_prev_manifest
        assert report.extra_wal_generations >= 1
        assert "generation(s) newer" in report.summary()
        assert np.array_equal(store.read("z"), np.concatenate([head, tail]))
        store.close()
        with DurableStore.open(root) as repaired:
            assert repaired.recovery.clean
            assert np.array_equal(repaired.read("z"),
                                  np.concatenate([head, tail]))


class TestLocking:
    def test_second_open_raises_while_locked(self, root):
        with DurableStore.create(root) as store:
            store.create_series("a", codec="raw")
            with pytest.raises(StorageError, match="already open"):
                DurableStore.open(root)

    def test_lock_released_on_close(self, root):
        store = DurableStore.create(root)
        store.create_series("a", codec="raw")
        store.append("a", _values(5))
        store.close()
        with DurableStore.open(root) as again:
            assert again.recovery.clean
            assert again.length("a") == 5

    def test_lock_error_names_path_and_holder_pid(self, root):
        import os

        with DurableStore.create(root):
            with pytest.raises(StorageError) as error:
                DurableStore.open(root)
            message = str(error.value)
            # Diagnosable contention: the message must say which lock file
            # is held and by whom, so an operator can find the holder.
            assert str(root / ".lock") in message
            assert f"held by pid {os.getpid()}" in message

    def test_lock_contention_does_not_clobber_holder_pid(self, root):
        import os

        with DurableStore.create(root):
            for _ in range(3):   # repeated losers must not truncate the pid
                with pytest.raises(StorageError, match="already open"):
                    DurableStore.open(root)
            recorded = (root / ".lock").read_text().strip()
            assert recorded == str(os.getpid())

    def test_failed_open_releases_lock(self, root):
        values = _values(5)
        with DurableStore.create(root) as store:
            store.create_series("z", codec="raw")
            store.append("z", values)
        manifest = root / "manifest.json"
        good = manifest.read_bytes()
        manifest.write_bytes(b"garbage")
        (root / "manifest.json.prev").unlink()
        with pytest.raises(StorageError):
            DurableStore.open(root)
        # The failed recovery must not leave the store wedged.
        manifest.write_bytes(good)
        with DurableStore.open(root) as again:
            assert np.array_equal(again.read("z"), values)


class TestV1Migration:
    def _v1_store(self, directory):
        store = TimeSeriesStore(default_segment_size=16)
        store.create_series("g", codec="gorilla")
        store.create_series("r", codec="raw", segment_size=8)
        store.append("g", _values(40, seed=1))
        store.append("r", _values(20, seed=2))
        save_store(store, directory)
        return store

    def test_v1_opens_and_migrates(self, root):
        original = self._v1_store(root)
        with DurableStore.open(root) as migrated:
            assert migrated.recovery.migrated_from_v1
            for name in ("g", "r"):
                assert np.array_equal(migrated.read(name),
                                      original.read(name))
        # The rewrite is the current layout: segment files exist, next
        # open is an ordinary clean recovery.
        assert list(root.glob("segments/*/*/seg-*.seg"))
        with DurableStore.open(root) as again:
            assert again.recovery.clean
            assert not again.recovery.migrated_from_v1

    def test_empty_v1_store_migrates(self, root):
        save_store(TimeSeriesStore(), root)
        with DurableStore.open(root) as migrated:
            assert migrated.recovery.migrated_from_v1
            assert migrated.list_series() == []
        with DurableStore.open(root) as again:
            assert again.recovery.clean
            again.create_series("late", codec="raw")
            again.append("late", _values(5))

    def test_load_store_reads_v2_directories(self, root):
        values = _values(30)
        with DurableStore.create(root, default_segment_size=8) as store:
            store.create_series("a", codec="raw")
            store.append("a", values)
        memory = load_store(root)
        assert isinstance(memory, TimeSeriesStore)
        assert np.array_equal(memory.read("a"), values)


class TestFsck:
    def test_clean_report(self, root):
        with DurableStore.create(root, default_segment_size=8) as store:
            store.create_series("a", codec="raw")
            store.append("a", _values(20))
        report = fsck(root)
        assert report.clean
        assert "store is clean" in report.summary()

    def test_corrupt_then_repaired(self, root):
        with DurableStore.create(root, default_segment_size=8) as store:
            store.create_series("a", codec="raw")
            store.append("a", _values(20))
        target = sorted(root.glob("segments/*/*/seg-*.seg"))[0]
        inject_bit_flip(target, 50)
        report = fsck(root)
        assert report.corruption_found
        assert "quarantined 1 segment(s)" in report.summary()
        assert fsck(root).clean

    def test_torn_wal_tail_reported(self, root):
        with DurableStore.create(root, default_segment_size=100) as store:
            store.create_series("a", codec="raw")
            store.append("a", _values(10))
        wal = next((root / "wal").glob("*.wal"))
        inject_torn_write(wal, wal.stat().st_size - 5)
        report = fsck(root)
        assert report.truncated_wal_files == 1
        assert report.truncated_wal_bytes > 0
        assert fsck(root).clean


class TestFailedAppend:
    """A failed append must not cost the appends acknowledged after it."""

    @pytest.mark.parametrize("site", ["wal_append", "wal_sync"])
    def test_later_acknowledged_appends_survive_reopen(self, root, site):
        with DurableStore.create(root, default_segment_size=100) as store:
            store.create_series("a", codec="raw")
            store.append("a", [1.0, 2.0])
            with active_plan([StorageFaultAction(kind="raise", site=site)]):
                with pytest.raises(InjectedFault):
                    store.append("a", [3.0])
            store.append("a", [4.0, 5.0])
            store.append("a", [6.0])
            live = store.read("a")
        assert live.tolist() == [1.0, 2.0, 4.0, 5.0, 6.0]
        with DurableStore.open(root) as reopened:
            assert reopened.recovery.clean, reopened.recovery.summary()
            assert np.array_equal(reopened.read("a"), live)

    def test_fsync_error_does_not_poison_the_sequence(self, root,
                                                      monkeypatch):
        with DurableStore.create(root, default_segment_size=100) as store:
            store.create_series("a", codec="raw")
            store.append("a", [1.0])
            with monkeypatch.context() as patch:
                def failing_fsync(_fd):
                    raise OSError(5, "Input/output error")
                patch.setattr("os.fsync", failing_fsync)
                with pytest.raises(OSError):
                    store.append("a", [2.0])
            store.append("a", [3.0])
        with DurableStore.open(root) as reopened:
            assert reopened.recovery.clean
            assert reopened.read("a").tolist() == [1.0, 3.0]


class TestLogSeries:
    def test_appends_never_seal_and_survive_reopen(self, root):
        values = _values(50)
        with DurableStore.create(root, default_segment_size=8) as store:
            store.create_series("log", codec="raw", log=True)
            assert store.append("log", values[:30]) == 0
            assert store.append("log", values[30:]) == 0
            assert store.flush() == 0
            assert store.info("log").segments == 0
        assert not list(root.glob("segments/*/*/seg-*.seg"))
        with DurableStore.open(root) as reopened:
            assert reopened.recovery.clean
            assert reopened.recovery.replayed_records == 2
            assert np.array_equal(reopened.read("log"), values)
            assert reopened.append("log", [1.0]) == 0     # still a log

    def test_installed_values_leave_the_wal_at_a_checkpoint(self, root,
                                                            monkeypatch):
        monkeypatch.setattr("repro.storage.durable.WAL_CHECKPOINT_BYTES", 500)
        raw = get_codec("raw")
        with DurableStore.create(root, shards=1) as store:
            store.create_series("log", codec="raw", log=True)
            store.update_metadata({"log": {"unit": "K"}})
            for i in range(40):
                store.append("log", [float(i)] * 4)       # ~60 B a record
                if i % 8 == 7:
                    store.install("log", raw.encode(
                        np.repeat(np.arange(i - 7.0, i + 1.0), 4)))
            wal = list((root / "wal").glob("*.wal"))
            assert len(wal) == 1                          # the current one
            assert wal[0].stat().st_size < 700
        with DurableStore.open(root) as reopened:
            assert reopened.recovery.clean
            assert reopened.recovery.replayed_records < 12
            assert reopened.info("log").segments == 5
            assert reopened.read("log").tolist() == np.repeat(
                np.arange(40.0), 4).tolist()
            assert reopened.metadata("log") == {"unit": "K"}

    def test_abandoned_installs_come_back_as_buffered_values(self, root):
        values = _values(20, seed=4)
        gorilla = get_codec("gorilla")
        store = DurableStore.create(root)
        store.create_series("log", codec="gorilla", log=True)
        store.append("log", values)
        store.install("log", gorilla.encode(values[:8]))
        assert store.info("log").buffered_points == 12
        store.abandon()                       # a process death: no publish
        assert not list(root.glob("segments/*/*/seg-*.seg"))
        with DurableStore.open(root) as reopened:
            assert reopened.recovery.clean
            info = reopened.info("log")
            assert (info.segments, info.buffered_points) == (0, 20)
            assert np.array_equal(reopened.read("log"), values)
            reopened.install("log", gorilla.encode(values[:8]))
        with DurableStore.open(root) as published:
            assert published.recovery.segments_verified == 1
            assert published.info("log").buffered_points == 12
            assert np.array_equal(published.read("log"), values)

    def test_reset_records_of_older_stores_still_replay(self, root):
        """Older ingest spools cut a series with a reset record: replay
        drops its content, segments included, and makes it a log."""
        values = _values(20, seed=3)
        with DurableStore.create(root, default_segment_size=8,
                                 shards=1) as store:
            store.create_series("a", codec="raw", metadata={"drained": 16})
            store.append("a", values)
            store.flush()                             # three segment files
        wal = max((root / "wal").glob("*.wal"))
        with open(wal, "ab") as handle:
            handle.write(encode_record(WalRecord(
                sequence=1000, series="a", values=values[16:], kind=RESET)))
            handle.write(encode_record(WalRecord(
                sequence=1001, series="a", values=values[:2])))
        assert len(list(root.glob("segments/*/*/seg-*.seg"))) == 3
        with DurableStore.open(root) as reopened:
            assert reopened.recovery.replayed_reset_records == 1
            assert np.array_equal(reopened.read("a"),
                                  np.concatenate([values[16:], values[:2]]))
            assert reopened.metadata("a") == {}
            assert reopened.append("a", values[:12]) == 0   # a log now
        assert not list(root.glob("segments/*/*/seg-*.seg"))
        with DurableStore.open(root) as again:
            assert again.recovery.clean
            assert again.length("a") == 18

    def test_large_log_content_is_not_rewritten_by_every_append(
            self, root, monkeypatch):
        monkeypatch.setattr("repro.storage.durable.WAL_CHECKPOINT_BYTES", 500)
        rotations = []
        rotate = DurableStore._rotate_wal
        monkeypatch.setattr(
            DurableStore, "_rotate_wal",
            lambda store, shard: rotations.append(shard) or rotate(store,
                                                                   shard))
        with DurableStore.create(root, shards=1) as store:
            store.create_series("log", codec="raw", log=True)
            for i in range(200):
                store.append("log", [float(i)] * 4)       # 6.4 kB of content
        # Each rotation rewrites the content, so the next one waits until
        # the generation has doubled: a handful, not one per append.
        assert 3 <= len(rotations) <= 8
        with DurableStore.open(root) as reopened:
            assert reopened.recovery.clean
            assert reopened.length("log") == 800


class TestMetadataAndDrop:
    def test_update_metadata_is_a_wal_record_not_a_manifest_swap(self, root):
        with DurableStore.create(root) as store:
            store.create_series("a", codec="raw")
            manifest = (root / "manifest.json").read_bytes()
            store.update_metadata({"a": {"site": "lab", "unit": "K"}})
            store.update_metadata({"a": {"unit": None, "rack": 4}})
            assert store.metadata("a") == {"site": "lab", "rack": 4}
            assert (root / "manifest.json").read_bytes() == manifest
        with DurableStore.open(root) as again:
            assert again.recovery.replayed_metadata_records == 2
            assert again.metadata("a") == {"site": "lab", "rack": 4}

    def test_torn_metadata_record_is_never_half_applied(self, root, tmp_path):
        import shutil

        with DurableStore.create(root) as store:
            store.create_series("a", codec="raw")
            store.update_metadata({"a": {"site": "lab"}})
            store.append("a", [1.0])
            store.update_metadata({"a": {"site": "roof", "rack": 4}})
        (root / ".lock").unlink()
        wal = next((root / "wal").glob("*.wal")).relative_to(root)
        intact = (root / wal).read_bytes()
        record = len(intact) - len(
            encode_record(scan_wal(root / wal).records[-1]))
        for cut in range(record, len(intact)):
            copy = shutil.copytree(root, tmp_path / f"cut-{cut}")
            (copy / wal).write_bytes(intact[:cut])
            with DurableStore.open(copy) as torn:
                report = torn.recovery
                assert report.replayed_metadata_records == 1
                assert (report.truncated_wal_bytes > 0) == (cut > record)
                # Truncated at the record, all of it: never one key of two.
                assert torn.metadata("a") == {"site": "lab"}
                assert torn.read("a").tolist() == [1.0]
            assert fsck(copy).clean

    def test_update_metadata_persists_across_reopen(self, root):
        with DurableStore.create(root) as store:
            store.create_series("a", codec="raw", metadata={"unit": "C"})
            store.update_metadata({"a": {"site": "lab", "unit": "K"}})
            assert store.metadata("a") == {"unit": "K", "site": "lab"}
        with DurableStore.open(root) as again:
            assert again.metadata("a") == {"unit": "K", "site": "lab"}

    def test_update_metadata_unknown_series_changes_nothing(self, root):
        with DurableStore.create(root) as store:
            store.create_series("a", codec="raw")
            with pytest.raises(SeriesNotFoundError):
                store.update_metadata({"a": {"k": 1}, "ghost": {"k": 2}})
            assert "k" not in store.metadata("a")

    def test_drop_series_is_durable(self, root):
        with DurableStore.create(root, default_segment_size=8) as store:
            store.create_series("a", codec="raw")
            store.create_series("b", codec="raw")
            store.append("a", _values(20, seed=1))
            store.append("b", _values(20, seed=2))
            store.drop_series("a")
            assert store.list_series() == ["b"]
        with DurableStore.open(root) as again:
            assert again.recovery.clean
            assert again.list_series() == ["b"]
            assert np.array_equal(again.read("b"), _values(20, seed=2))
            with pytest.raises(SeriesNotFoundError):
                again.read("a")


class TestSpool:
    def test_multistream_spool_survives_a_crash(self, tmp_path):
        from repro.streaming import MultiStreamCompressor

        x = _values(300, seed=3)
        spool = tmp_path / "spool"
        multi = MultiStreamCompressor(chunk_size=128, codec="gorilla",
                                      spool_to=spool)
        multi.add("a", x)
        multi.add("b", x[:50])
        del multi  # ingest tier crashes before drain/flush

        with MultiStreamCompressor(chunk_size=128, codec="gorilla",
                                   spool_to=spool) as fresh:
            assert fresh.pending_chunks == 2          # queued again at open
            fresh.flush()
            assert np.array_equal(fresh.reconstruct("a"), x)
            assert np.array_equal(fresh.reconstruct("b"), x[:50])

    def test_drained_values_are_readable_after_a_clean_close(self, tmp_path):
        from repro.streaming import MultiStreamCompressor

        values = np.arange(20.0)
        spool = tmp_path / "spool"
        with MultiStreamCompressor(chunk_size=8, codec="gorilla",
                                   spool_to=spool) as multi:
            multi.add("s", values)
            assert len(multi.drain()) == 2
        with DurableStore.open(spool) as store:
            assert store.recovery.clean
            assert [s.chunk.codec for s in store.memory.segments("s")] == [
                "gorilla", "gorilla"]
            assert np.array_equal(store.read("s"), values)

    def test_a_failed_encode_is_installed_raw(self, tmp_path):
        from repro.engine.report import SeriesOutcome
        from repro.streaming import MultiStreamCompressor

        values = np.arange(20.0)
        spool = tmp_path / "spool"
        with MultiStreamCompressor(chunk_size=8, codec="gorilla",
                                   spool_to=spool) as multi:
            multi.add("s", values)
            batch = multi.take()
            outcomes = list(multi.encode(batch))
            outcomes[0] = SeriesOutcome(index=0, name="s", length=8,
                                        error="injected", error_type="X")
            multi.commit(batch, outcomes)
            assert len(multi.errors) == 1
        with DurableStore.open(spool) as store:
            assert store.recovery.clean
            segments = store.memory.segments("s")
            assert [s.chunk.codec for s in segments] == ["raw", "gorilla"]
            assert np.array_equal(segments[0].decode(), values[:8])
            assert np.array_equal(store.read("s"), values)

    def test_drained_chunks_survive_a_crash(self, tmp_path):
        from repro.streaming import MultiStreamCompressor

        x = _values(300, seed=4)
        spool = tmp_path / "spool"
        multi = MultiStreamCompressor(chunk_size=128, codec="gorilla",
                                      spool_to=spool)
        multi.add("a", x)                 # seals 2x128, 44 stay buffered
        emitted = multi.drain()           # two chunks installed in memory
        assert len(emitted) == 2
        del multi                         # crash before any checkpoint

        with MultiStreamCompressor(chunk_size=128, codec="gorilla",
                                   spool_to=spool) as fresh:
            # The installs were never published: their values reopen raw
            # and are queued again, nothing lost and nothing duplicated.
            assert fresh.results("a") == []
            assert fresh.report("a").ingested_points == 300
            fresh.flush()
            assert np.array_equal(fresh.reconstruct("a"), x)

    def test_drained_chunks_stay_in_the_stream_series(self, tmp_path):
        from repro.streaming import MultiStreamCompressor

        x = _values(256, seed=5)
        spool = tmp_path / "spool"
        multi = MultiStreamCompressor(chunk_size=128, codec="gorilla",
                                      spool_to=spool)
        multi.add("a", x)
        multi.drain()                     # everything spooled was installed
        assert multi.spool.length("a") == 256
        assert multi.spool.info("a").buffered_points == 0
        tail = _values(30, seed=6)
        multi.add("a", tail)
        assert multi.spool.length("a") == 286
        multi.close()

        with MultiStreamCompressor(chunk_size=128, codec="gorilla",
                                   spool_to=spool) as fresh:
            assert [r.start for r in fresh.results("a")] == [0, 128]
            assert fresh.report("a").buffered_points == 30
            fresh.flush()
            assert np.array_equal(fresh.reconstruct("a"),
                                  np.concatenate([x, tail]))

    def test_reopen_preserves_policy_splits(self, tmp_path):
        from repro.sanitize import InputPolicy
        from repro.streaming import MultiStreamCompressor

        head, tail = _values(50, seed=7), _values(30, seed=8)
        x = np.concatenate([head, [np.nan], tail])
        spool = tmp_path / "spool"
        multi = MultiStreamCompressor(chunk_size=64, codec="raw",
                                      policy=InputPolicy(on_nan="split"),
                                      spool_to=spool)
        multi.add("a", x)                 # policy splits at the NaN
        del multi                         # crash before any drain

        with MultiStreamCompressor(chunk_size=64, codec="raw",
                                   policy=InputPolicy(on_nan="split"),
                                   spool_to=spool) as fresh:
            fresh.flush()
            # The recorded boundary keeps the reopened chunks from
            # bridging the gap: [50, 30], never [64, 16].
            assert [r.length for r in fresh.results("a")] == [50, 30]
            assert np.array_equal(fresh.reconstruct("a"),
                                  np.concatenate([head, tail]))
