"""Version-2 directories (``seg-*.json``, hex-in-JSON) open under v3 code.

Opening is recovery: the JSON segments are read by the reader kept for
this, re-published as ``.seg`` through the one segment writer, and a single
manifest swap makes the directory version 3.  A crash before that swap
reopens as version 2 and migrates again.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.codecs import get_codec
from repro.codecs.serialize import unpack_block
from repro.faultinject import (
    InjectedCrash,
    StorageFaultAction,
    active_plan,
    inject_bit_flip,
)
from repro.storage import DurableStore, load_store
from repro.storage.durable import attach_footer, split_footer
from repro.storage.persistence import (
    DURABLE_FORMAT_VERSION,
    MAX_FORMAT_VERSION,
    _segment_to_document,
)
from repro.storage.segment import Segment, SegmentSummary

pytestmark = pytest.mark.usefixtures("kernel_tier")

PARENT_SPOOL = (Path(__file__).parent.parent / "streaming" / "fixtures"
                / "parent_spool")


def _manifest(root: Path) -> dict:
    payload, _crc, reason, _detail = split_footer(
        (root / "manifest.json").read_bytes())
    assert payload is not None, reason
    return json.loads(payload)


def _segment_suffixes(root: Path) -> set[str]:
    return {path.suffix for path in (root / "segments").rglob("seg-*")}


def _downgrade_to_v2(root: Path) -> None:
    """Rewrite a closed store the way the last version-2 writer left one:
    each segment a sorted-keys JSON document with a CRC32C footer line,
    the manifest naming it with that CRC and a copy of the summary."""
    document = _manifest(root)
    document["version"] = 2
    for entry in document["series"].values():
        codec = get_codec(entry["codec"]["name"], **entry["codec"]["options"])
        for ref in entry["segments"]:
            packed = root / ref["file"]
            block, start, summary = unpack_block(packed.read_bytes())
            segment = Segment(start, block, codec,
                              summary=SegmentSummary(*summary))
            segment_document = _segment_to_document(segment)
            data, crc = attach_footer(json.dumps(
                segment_document, sort_keys=True,
                default=float).encode("utf-8"))
            packed.with_suffix(".json").write_bytes(data)
            packed.unlink()
            ref.update(file=ref["file"][:-len(".seg")] + ".json", crc32c=crc,
                       summary=segment_document["summary"])
    (root / "manifest.json").write_bytes(attach_footer(json.dumps(
        document, sort_keys=True, default=float).encode("utf-8"))[0])
    (root / "manifest.json.prev").unlink(missing_ok=True)


def _fresh_v2(root: Path) -> dict[str, np.ndarray]:
    """A version-2 directory with every payload kind, buffered tails, a log
    series and a WAL metadata record; returns what it reads as."""
    rng = np.random.default_rng(21)
    with DurableStore.create(root, default_segment_size=16) as store:
        store.create_series("g", codec="gorilla")
        store.create_series("h", codec="chimp", metadata={"unit": "kW"})
        store.create_series("r", codec="raw", segment_size=8)
        store.create_series("c", codec="cameo", segment_size=64,
                            codec_options={"max_lag": 4, "epsilon": 0.05})
        store.create_series("l", codec="raw", log=True)
        store.append("g", np.round(rng.normal(size=40), 2))
        store.append("h", np.round(rng.normal(size=33), 3))
        store.append("r", rng.normal(size=20))
        store.append("c", np.sin(np.arange(130) / 5.0))
        store.append("l", [1.0, 2.0, 3.0])
        store.update_metadata({"g": {"site": "north"}})
        reads = {name: store.read(name) for name in store.list_series()}
    _downgrade_to_v2(root)
    assert _segment_suffixes(root) == {".json"}
    return reads


def _assert_migrated(root: Path, reads: dict[str, np.ndarray]) -> None:
    assert _segment_suffixes(root) <= {".seg"}
    manifest = _manifest(root)
    assert manifest["version"] == DURABLE_FORMAT_VERSION == 3
    for entry in manifest["series"].values():
        for ref in entry["segments"]:
            assert set(ref) == {"file", "crc32c", "start", "length"}
    with DurableStore.open(root) as again:
        assert again.recovery.clean
        assert again.recovery.migrated_segments == 0
        for name, values in reads.items():
            assert np.array_equal(again.read(name), values)


class TestOpenMigrates:
    def test_fresh_v2_directory(self, tmp_path):
        root = tmp_path / "v2"
        reads = _fresh_v2(root)
        with DurableStore.open(root) as store:
            assert store.recovery.clean
            assert store.recovery.migrated_segments == 2 + 2 + 2 + 2
            assert "as .seg" in store.recovery.summary()
            for name, values in reads.items():
                assert np.array_equal(store.read(name), values)
            assert store.metadata("g") == {"site": "north"}
            assert store.metadata("h") == {"unit": "kW"}
            assert store.info("c").segments == 2
            # The migrated store is an ordinary one: it keeps sealing.
            store.append("r", np.arange(4.0))
            reads["r"] = np.concatenate((reads["r"], np.arange(4.0)))
        _assert_migrated(root, reads)

    def test_committed_parent_fixture(self, tmp_path):
        root = tmp_path / "spool"
        shutil.copytree(PARENT_SPOOL, root)
        assert _manifest(root)["version"] == 2
        reads = {"s": np.arange(1.0, 11.0), "t": np.array([11.0, 12.0]),
                 "__idempotency__": np.empty(0)}
        with DurableStore.open(root) as store:
            assert store.recovery.clean
            assert store.recovery.migrated_segments == 2
            for name, values in reads.items():
                assert np.array_equal(store.read(name), values)
            assert store.metadata("s") == {"drained": 4, "splits": [7]}
        _assert_migrated(root, reads)

    def test_prev_is_version_3_right_after_migration(self, tmp_path):
        root = tmp_path / "v2"
        reads = _fresh_v2(root)
        DurableStore.open(root).close()
        payload, _crc, reason, _detail = split_footer(
            (root / "manifest.json.prev").read_bytes())
        assert payload is not None, reason
        assert json.loads(payload)["version"] == 3
        # Falling back to it finds every .seg file it names.
        inject_bit_flip(root / "manifest.json", 400)
        with DurableStore.open(root) as store:
            assert store.recovery.used_prev_manifest
            assert store.recovery.quarantined == []
            for name, values in reads.items():
                assert np.array_equal(store.read(name), values)

    def test_corrupt_json_segment_is_quarantined_not_migrated(self, tmp_path):
        root = tmp_path / "v2"
        reads = _fresh_v2(root)
        target = sorted(root.glob("segments/*/r-*/seg-*.json"))[0]
        data = bytearray(target.read_bytes())
        data[40] ^= 0x04
        target.write_bytes(bytes(data))
        with DurableStore.open(root) as store:
            (entry,) = store.recovery.quarantined
            assert (entry.series, entry.reason) == ("r", "checksum-mismatch")
            assert store.recovery.migrated_segments == 7
            assert np.array_equal(store.read("r", 8, 20), reads["r"][8:])
        assert _segment_suffixes(root) == {".seg"}

    @pytest.mark.parametrize("version", [2, 3])
    def test_load_store_follows_the_durable_version(self, tmp_path, version):
        assert MAX_FORMAT_VERSION == DURABLE_FORMAT_VERSION
        root = tmp_path / "store"
        reads = _fresh_v2(root)
        if version == 3:
            DurableStore.open(root).close()
        assert _manifest(root)["version"] == version
        memory = load_store(root)
        for name, values in reads.items():
            assert np.array_equal(memory.read(name), values)


class TestCrashDuringMigration:
    @pytest.mark.parametrize("site", ["segment_write", "before_rename",
                                      "manifest_write"])
    def test_kill_reopens_with_every_value(self, site, tmp_path):
        pristine = tmp_path / "pristine"
        reads = _fresh_v2(pristine)
        crash_points = 0
        for k in range(40):
            root = tmp_path / f"{site}-{k}"
            shutil.copytree(pristine, root)
            with active_plan([StorageFaultAction(kind="crash", site=site,
                                                 skip_hits=k)]):
                try:
                    DurableStore.open(root).close()
                except InjectedCrash:
                    crash_points += 1
                else:
                    break
            # Nothing was published: it is still a version-2 directory,
            # with every JSON segment in place.
            assert _manifest(root)["version"] == 2
            assert len(list(root.rglob("seg-*.json"))) == 8
            with DurableStore.open(root) as store:
                assert store.recovery.quarantined == []
                assert store.recovery.migrated_segments == 8
                for name, values in reads.items():
                    assert np.array_equal(store.read(name), values)
            _assert_migrated(root, reads)
            shutil.rmtree(root)
        else:
            pytest.fail(f"site {site} fired more than 40 times")
        assert crash_points > 0, f"site {site} never fired during migration"
        _assert_migrated(root, reads)
