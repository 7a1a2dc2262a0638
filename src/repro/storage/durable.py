"""Crash-consistent durable store: WAL + checksummed segments + manifest.

:class:`DurableStore` wraps the in-memory
:class:`~repro.storage.store.TimeSeriesStore` with an on-disk layout built
for crashes (ARIES/LevelDB-style write-ahead discipline applied to the
paper's compressed-block model)::

    <root>/
      manifest.json            atomic catalog (CRC32C footer, tmp->fsync->
      manifest.json.prev       rename swap; .prev is the last-known-good
                               fallback for torn manifest publications)
      segments/<shard>/<series>/seg-000000.seg
                               one sealed segment per file: the packed block
                               (repro.codecs.serialize.pack_block) — binary
                               header with position + summary, codec name,
                               metadata, raw payload bytes, CRC32C over all
      wal/shard-<shard>.<generation>.wal
                               per-shard append WAL holding the unsealed
                               buffer tails, the whole content of log
                               series, and metadata updates since the last
                               checkpoint (see repro.storage.wal)
      quarantine/              corrupt segments moved here by recovery, each
                               with a machine-readable .reason.json sidecar

Durability contract
-------------------
* ``append`` returns only after the values are in the shard WAL (fsynced
  under ``fsync_policy="always"``) — that return is the acknowledgement.
* Sealed segments and the manifest are updated *after* the WAL, via
  tmp-file → fsync → rename → directory fsync, so a crash at any point
  leaves either the old or the new state, never a torn hybrid.
* Sealing happens in memory; the values it sealed stay in the shard WAL
  until a checkpoint (``flush``, ``close``, or a shard's WAL generation
  outgrowing :data:`WAL_CHECKPOINT_BYTES`) publishes every sealed segment
  of its shards and rotates each shard WAL to a fresh generation holding
  only the current buffers.  The manifest references segment files by
  name + checksum and the WAL generation, so recovery replays exactly
  what the manifest does not hold, re-sealing as it goes.
* A *log series* (``create_series(..., log=True)``) never seals: its
  values live only in the shard WAL and the in-memory buffer, an append
  costs its one WAL record, and :meth:`DurableStore.reset` replaces its
  content with one more.  ``update_metadata`` is a WAL record too, so the
  manifest is swapped only by ``create_series``/``drop_series``, recovery
  and checkpoints.
* Opening a store is always a recovery scan (see
  :mod:`repro.storage.recovery`): checksums verified, corrupt segments
  quarantined with a reason (reads of their range *raise*, they are never
  silently dropped), torn WAL tails truncated at the last intact record.

Every write-path syncpoint calls :func:`repro.faultinject.fire_storage`,
so the kill-at-every-syncpoint harness in ``tests/storage/`` can prove the
contract by crashing at each site and diffing the reopened store against
the acknowledged state.

Older layouts open transparently, because opening is recovery: a
version-1 manifest (the monolithic :func:`repro.storage.persistence.
save_store` format) is loaded through the v1 reader, a version-2 directory
(segments as hex-in-JSON ``seg-*.json`` documents) through the JSON segment
reader kept for that purpose, and either is re-published in the current
layout before the constructor returns.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

import numpy as np

from .._validation import as_float_array
from ..codecs import get_codec
from ..codecs.checksum import crc32c, crc32c_hex
from ..codecs.serialize import pack_block, unpack_block
from ..exceptions import BlockFormatError, StorageError
from ..faultinject import fire_storage
from .persistence import (
    DURABLE_FORMAT_VERSION,
    MANIFEST_NAME,
    _codec_spec,
    _fsync_dir,
    _segment_from_document,
    _store_from_manifest,
)
from .recovery import QuarantinedSegment, RecoveryReport
from .segment import Segment, SegmentSummary
from .store import DEFAULT_SEGMENT_SIZE, TimeSeriesStore
from .wal import (
    COMPACTION,
    FSYNC_POLICIES,
    METADATA,
    RESET,
    WalRecord,
    WriteAheadLog,
    encode_record,
    scan_wal,
)

__all__ = [
    "DURABLE_FORMAT_VERSION",
    "DurableStore",
    "PREV_MANIFEST_NAME",
    "QUARANTINE_DIR",
    "WAL_CHECKPOINT_BYTES",
]

#: Last-known-good manifest kept beside the live one.
PREV_MANIFEST_NAME = "manifest.json.prev"

#: Directory names inside a durable store root.
SEGMENTS_DIR = "segments"
WAL_DIR = "wal"
QUARANTINE_DIR = "quarantine"

#: Advisory lock file guarding a store root against concurrent handles.
LOCK_NAME = ".lock"

#: A shard is checkpointed after the append that grows its current WAL
#: generation this many bytes past what the rotation put there (and at
#: least doubles it, so large log content is not rewritten over and over):
#: WAL size and reopen time stay bounded for log series, which never seal,
#: and for metadata records.
WAL_CHECKPOINT_BYTES = 1 << 18

#: Footer marker separating a checksummed file's payload from its CRC32C.
FOOTER_PREFIX = b"\n#crc32c="


# --------------------------------------------------------------------- #
# checksummed file helpers
# --------------------------------------------------------------------- #
def attach_footer(payload: bytes) -> tuple[bytes, str]:
    """``payload`` with its CRC32C footer line, and that CRC in hex."""
    crc = crc32c_hex(payload)
    return payload + FOOTER_PREFIX + crc.encode("ascii") + b"\n", crc


def split_footer(data: bytes) -> tuple[bytes | None, str, str, str]:
    """Verify a checksummed file's bytes.

    Returns ``(payload, payload_crc_hex, reason, detail)`` — ``payload`` is
    ``None`` when verification fails, with a machine-readable ``reason``
    code (``truncated-footer`` / ``checksum-mismatch``).
    """
    position = data.rfind(FOOTER_PREFIX)
    if position < 0:
        return None, "", "truncated-footer", "no checksum footer found"
    payload = bytes(data[:position])
    tail = data[position + len(FOOTER_PREFIX):].strip()
    try:
        stored = int(tail.decode("ascii"), 16)
    except (UnicodeDecodeError, ValueError):
        return None, "", "truncated-footer", "unparseable checksum footer"
    actual = crc32c(payload)
    if stored != actual:
        return (None, "", "checksum-mismatch",
                f"stored {stored:08x}, computed {actual:08x}")
    return payload, f"{actual:08x}", "", ""


def _read_bytes(path: Path) -> tuple[bytes | None, str]:
    """A file's bytes, or ``None`` and why there are none."""
    try:
        return path.read_bytes(), ""
    except FileNotFoundError:
        return None, f"{path.name} does not exist"
    except OSError as exc:  # pragma: no cover - environment-specific
        return None, str(exc)


def _trailing_crc_hex(packed: bytes) -> str:
    """The CRC32C a packed block ends with, as manifest refs spell it."""
    return f"{int.from_bytes(packed[-4:], 'little'):08x}"


def _json_segment(data: bytes, codec) -> tuple[Segment, str]:
    """Read a version-2 segment file: a footer-checksummed JSON document.

    Nothing writes this form any more; the v2 → v3 migration is the only
    caller.  Returns the segment and its payload CRC in hex.
    """
    payload, payload_crc, reason, detail = split_footer(data)
    if payload is None:
        raise BlockFormatError(reason, detail)
    return _segment_from_document(json.loads(payload.decode("utf-8")),
                                  codec), payload_crc


def _series_slug(name: str) -> str:
    """Filesystem-safe, collision-free directory name for a series."""
    cleaned = "".join(ch if ch.isalnum() or ch in "._-" else "_"
                      for ch in name)[:40] or "series"
    return f"{cleaned}-{crc32c_hex(name.encode('utf-8'))[:8]}"


def _merge_metadata(metadata: dict, updates: dict) -> None:
    """Merge ``updates`` into ``metadata``; a ``None`` value deletes."""
    for key, value in updates.items():
        if value is None:
            metadata.pop(key, None)
        else:
            metadata[key] = value


class DurableStore:
    """Crash-consistent on-disk wrapper around :class:`TimeSeriesStore`.

    Use :meth:`create` for a fresh directory and :meth:`open` for an
    existing one (``open(..., create=True)`` does open-or-create).  Every
    open runs a recovery scan whose findings land in :attr:`recovery`.

    Parameters
    ----------
    fsync_policy:
        WAL durability: ``"always"`` (default — every acknowledged append
        survives power loss), ``"interval"``, or ``"never"``; see
        :data:`repro.storage.wal.FSYNC_POLICIES`.
    shards:
        Number of WAL/segment shard directories (1-256; fixed at store
        creation and recorded in the manifest).

    Examples
    --------
    >>> import numpy as np, tempfile
    >>> root = tempfile.mkdtemp()
    >>> store = DurableStore.create(root, default_segment_size=64)
    >>> store.create_series("sensor", codec="raw")
    >>> _ = store.append("sensor", np.arange(100.0))
    >>> store.close()
    >>> reopened = DurableStore.open(root)
    >>> bool(np.array_equal(reopened.read("sensor"), np.arange(100.0)))
    True
    >>> reopened.recovery.clean
    True
    >>> reopened.close()
    """

    def __init__(self, directory, *, create: bool = False,
                 must_create: bool = False, fsync_policy: str = "always",
                 fsync_interval: int = 16,
                 default_segment_size: int | None = None, shards: int = 8):
        if fsync_policy not in FSYNC_POLICIES:
            raise StorageError(
                f"unknown fsync_policy {fsync_policy!r}; "
                f"choose from {', '.join(FSYNC_POLICIES)}")
        if not 1 <= int(shards) <= 256:
            raise StorageError("shards must be between 1 and 256")
        self.directory = Path(directory)
        self.fsync_policy = fsync_policy
        self.fsync_interval = int(fsync_interval)
        self._closed = False
        self._memory = TimeSeriesStore(
            default_segment_size=default_segment_size or DEFAULT_SEGMENT_SIZE)
        self._shards = int(shards)
        self._series_shard: dict[str, str] = {}
        self._refs: dict[str, list[dict]] = {}
        self._next_file_index: dict[str, int] = {}
        self._generations: dict[str, int] = {}
        self._next_sequence: dict[str, int] = {}
        self._wals: dict[str, WriteAheadLog] = {}
        # Bytes the last rotation wrote at the head of each shard's current
        # generation (unknown, so 0, for a generation found at open).
        self._wal_floor: dict[str, int] = {}
        self._logs: set[str] = set()
        # Segment files no manifest should reference any more; unlinked
        # after the next manifest swap.
        self._garbage: list[str] = []
        self._lock_handle = None
        self.recovery = RecoveryReport()

        manifest_path = self.directory / MANIFEST_NAME
        prev_path = self.directory / PREV_MANIFEST_NAME
        exists = manifest_path.exists() or prev_path.exists()
        if must_create and exists:
            raise StorageError(
                f"{self.directory} already contains a store manifest")
        if not exists and not (create or must_create):
            raise StorageError(
                f"no store manifest in {self.directory}; use "
                "DurableStore.create(...) or open(..., create=True)")
        self.directory.mkdir(parents=True, exist_ok=True)
        self._acquire_lock()
        try:
            if not exists:
                self._write_manifest()
            else:
                self._recover()
        except BaseException:
            self._release_lock()
            raise

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def create(cls, directory, **options) -> "DurableStore":
        """Initialize a fresh durable store (fails on an existing one)."""
        return cls(directory, must_create=True, **options)

    @classmethod
    def open(cls, directory, *, create: bool = False, **options) -> "DurableStore":
        """Open an existing store with a full recovery scan.

        ``create=True`` initializes an empty store when the directory has
        no manifest yet (open-or-create).
        """
        return cls(directory, create=create, **options)

    # ------------------------------------------------------------------ #
    # catalog and ingest
    # ------------------------------------------------------------------ #
    def create_series(self, name: str, codec="cameo", *,
                      segment_size: int | None = None,
                      codec_options: dict | None = None,
                      metadata: dict | None = None,
                      log: bool = False) -> None:
        """Register a new series (durably — the manifest is swapped).

        A ``log`` series never seals: appends only ever cost their WAL
        record, and :meth:`reset` replaces the content.
        """
        self._check_open()
        self._memory.create_series(name, codec, segment_size=segment_size,
                                   codec_options=codec_options,
                                   metadata=metadata)
        name = str(name).strip()
        shard = self._shard_of(name)
        self._series_shard[name] = shard
        self._refs[name] = []
        self._next_file_index[name] = 0
        self._generations.setdefault(shard, 0)
        self._next_sequence.setdefault(shard, 0)
        if log:
            self._logs.add(name)
        self._write_manifest()

    def append(self, name, values) -> int:
        """Durably append values; returns the number of segments sealed.

        The values are acknowledged once they are in the shard WAL (fsynced
        under ``fsync_policy="always"``).  Sealing happens in memory: the
        next checkpoint publishes the segments, and until then WAL replay
        re-seals them on open.  A log series never seals (returns 0).
        """
        self._check_open()
        name = str(name)
        self._memory._state(name)  # noqa: SLF001 - existence check
        if np.isscalar(values):
            values = [float(values)]
        if np.asarray(values, dtype=np.float64).size == 0:
            return 0  # an empty append is acknowledged trivially
        values = as_float_array(values, name="values")
        self._log(name, values=values)
        sealed = self._apply_values(name, values)
        self._checkpoint_if_due(name)
        return sealed

    def reset(self, name, values=()) -> None:
        """Durably replace a series' whole content: it starts over as a log.

        One WAL record (fsynced per ``fsync_policy``, like an append)
        replaces everything the series held — sealed segments included —
        with ``values`` and clears its metadata, which described positions
        in the old content.  The series is a log from here on.
        """
        self._check_open()
        name = str(name)
        self._memory._state(name)  # noqa: SLF001 - existence check
        values = np.asarray(values, dtype=np.float64).ravel()
        self._log(name, values=values, kind=RESET)
        self._checkpoint_if_due(name, force=self._apply_reset(name, values))

    def flush(self, name: str | None = None) -> int:
        """Seal buffered values into (possibly short) segments and publish
        every sealed segment of their shards, durably."""
        self._check_open()
        names = [str(name)] if name is not None else self.list_series()
        sealed = 0
        for series_name in names:
            state = self._memory._state(series_name)  # noqa: SLF001
            if state.buffer and series_name not in self._logs:
                sealed += self._memory.flush(series_name)
        self._publish(names)
        return sealed

    # ------------------------------------------------------------------ #
    # reads (delegated to the in-memory store)
    # ------------------------------------------------------------------ #
    @property
    def memory(self) -> TimeSeriesStore:
        """The in-memory store view (for the query engine and reporting)."""
        return self._memory

    def list_series(self) -> list[str]:
        """Names of all stored series, sorted alphabetically."""
        return self._memory.list_series()

    def __contains__(self, name: str) -> bool:
        return name in self._memory

    def __len__(self) -> int:
        return len(self._memory)

    def read(self, name, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Reconstruct ``[start, stop)``; raises on quarantined ranges."""
        return self._memory.read(name, start, stop)

    def value_at(self, name, position: int) -> float:
        """Reconstructed value at one global position."""
        return self._memory.value_at(name, position)

    def length(self, name) -> int:
        """Number of ingested values (sealed + quarantined + buffered)."""
        return self._memory.length(name)

    def info(self, name):
        """Per-series footprint summary (see :class:`SeriesInfo`)."""
        return self._memory.info(name)

    def holes(self, name) -> list[dict]:
        """Quarantined position ranges of a series (empty when intact)."""
        return [dict(hole)
                for hole in self._memory._state(str(name)).holes]  # noqa: SLF001

    @property
    def quarantine_dir(self) -> Path:
        """Directory holding quarantined segment files and reasons."""
        return self.directory / QUARANTINE_DIR

    def metadata(self, name) -> dict:
        """A copy of one series' metadata dict."""
        return dict(self._memory._state(str(name)).metadata)  # noqa: SLF001

    def update_metadata(self, entries: dict) -> None:
        """Durably merge metadata updates into one or more series.

        ``entries`` maps series name to a dict of metadata keys to merge
        (a ``None`` value deletes the key).  Each series' update is one
        WAL metadata record, fsynced under every ``fsync_policy`` and
        applied atomically on replay.  Unknown series raise before
        anything is modified.
        """
        self._check_open()
        states = [(self._memory._state(str(name)), dict(updates))  # noqa: SLF001
                  for name, updates in entries.items()]
        for state, updates in states:
            self._log(state.name, kind=METADATA, metadata=updates)
            _merge_metadata(state.metadata, updates)
            self._checkpoint_if_due(state.name)

    def drop_series(self, name: str) -> None:
        """Durably remove a series: manifest entry, segments, WAL records.

        The shard WAL is rotated (so stale records for the dropped series
        are never replayed), the manifest is swapped without the series,
        and only then are its segment files unlinked — a crash in between
        leaks unreferenced files, it never resurrects the series.
        """
        self._check_open()
        name = str(name)
        self._memory.drop_series(name)
        shard = self._series_shard.pop(name)
        self._garbage.extend(
            str(ref.get("file", "")) for ref in self._refs.pop(name, []))
        self._next_file_index.pop(name, None)
        self._logs.discard(name)
        self._checkpoint({shard})

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def sync(self) -> None:
        """Force-fsync every open WAL handle (regardless of policy)."""
        for wal in self._wals.values():
            wal.sync()

    def close(self) -> None:
        """Publish every sealed segment, close WAL handles and release the
        store lock.  Buffers stay durable in the WAL."""
        if self._closed:
            return
        try:
            self._publish(self.list_series())
        finally:
            self._abandon()

    def _abandon(self) -> None:
        """Close without publishing, as a process death would: the WAL
        holds every acknowledged value and the next open replays it."""
        for wal in self._wals.values():
            wal.close()
        self._wals.clear()
        self._closed = True
        self._release_lock()

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        # An exception on the way out (an injected crash above all) is not
        # a graceful close: publish nothing and leave it to recovery.
        if exc_type is None:
            self.close()
        else:
            self._abandon()

    def __del__(self):  # pragma: no cover - GC safety net
        self._release_lock()

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("the durable store has been closed")

    def _acquire_lock(self) -> None:
        """Take the root's exclusive advisory lock (one handle per store).

        Two live handles would interleave WAL sequences and each handle's
        manifest swap would silently drop the other's acknowledged state.
        The lock is ``flock``-based, so the OS releases it when a holder
        crashes — a dead writer never wedges recovery.  The holder's PID is
        written into the lock file (best-effort, purely diagnostic) so a
        contention error can name who to look at — typically a service
        restart racing an unfinished drain.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            return
        lock_path = self.directory / LOCK_NAME
        # a+b: creates without truncating — a failed contender must never
        # wipe the holder's PID while losing the flock race.
        handle = open(lock_path, "a+b")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            try:
                handle.seek(0)
                holder = handle.read(64).decode("ascii", "replace").strip()
            except OSError:  # pragma: no cover - unreadable lock file
                holder = ""
            handle.close()
            held_by = (f"held by pid {holder}" if holder
                       else "holder pid unknown")
            raise StorageError(
                f"store at {self.directory} is already open: another "
                f"DurableStore handle holds the lock at {lock_path} "
                f"({held_by})") from None
        try:
            handle.seek(0)
            handle.truncate()
            handle.write(str(os.getpid()).encode("ascii"))
            handle.flush()
        except OSError:  # pragma: no cover - diagnostic only
            pass
        self._lock_handle = handle

    def _release_lock(self) -> None:
        handle = getattr(self, "_lock_handle", None)
        if handle is not None:
            try:
                handle.close()  # closing the fd releases the flock
            except OSError:  # pragma: no cover - already closed
                pass
            self._lock_handle = None

    # ------------------------------------------------------------------ #
    # write path
    # ------------------------------------------------------------------ #
    def _shard_of(self, name: str) -> str:
        return format(crc32c(name.encode("utf-8")) % self._shards, "02x")

    def _series_dir(self, name: str) -> str:
        return f"{SEGMENTS_DIR}/{self._series_shard[name]}/{_series_slug(name)}"

    def _wal_relpath(self, shard: str, generation: int) -> str:
        return f"{WAL_DIR}/shard-{shard}.{generation:06d}.wal"

    def _wal(self, shard: str) -> WriteAheadLog:
        if shard not in self._wals:
            path = self.directory / self._wal_relpath(
                shard, self._generations[shard])
            path.parent.mkdir(parents=True, exist_ok=True)
            self._wals[shard] = WriteAheadLog(
                path, fsync_policy=self.fsync_policy,
                fsync_interval=self.fsync_interval)
        return self._wals[shard]

    def _log(self, name: str, **record) -> None:
        """Append one record for series ``name`` to its shard's WAL."""
        shard = self._series_shard[name]
        sequence = self._next_sequence[shard]
        self._wal(shard).append(
            WalRecord(sequence=sequence, series=name, **record))
        self._next_sequence[shard] = sequence + 1

    def _apply_values(self, name: str, values: np.ndarray) -> int:
        """Apply a value record in memory; returns the segments sealed."""
        if name in self._logs:
            self._memory._state(name).buffer.extend(values.tolist())  # noqa: SLF001
            return 0
        return self._memory.append(name, values)

    def _apply_reset(self, name: str, values: np.ndarray) -> bool:
        """Apply a reset record in memory.

        Returns True when the series held sealed segments or holes — their
        files are garbage once a manifest without them is published, so
        the caller owes a checkpoint.
        """
        state = self._memory._state(name)  # noqa: SLF001
        sealed = bool(state.segments or state.holes)
        self._garbage.extend(
            str(ref.get("file", "")) for ref in self._refs[name])
        self._refs[name] = []
        state.segments.clear()
        state.holes.clear()
        state.buffer[:] = values.tolist()
        state.metadata.clear()
        self._logs.add(name)
        return sealed

    def _checkpoint_if_due(self, name: str, force: bool = False) -> None:
        """Checkpoint ``name``'s shard when forced or its WAL is oversize."""
        shard = self._series_shard[name]
        floor = self._wal_floor.get(shard, 0)
        if force or (self._wals[shard].size
                     > floor + max(WAL_CHECKPOINT_BYTES, floor)):
            self._checkpoint({shard})

    def _publish(self, names) -> None:
        """Checkpoint the shards of ``names`` that hold sealed segments no
        manifest references yet."""
        shards = {self._series_shard[name] for name in names
                  if len(self._memory._state(name).segments)  # noqa: SLF001
                  > len(self._refs[name])}
        if shards:
            self._checkpoint(shards)

    def _atomic_write(self, relpath: str, data: bytes, site: str) -> None:
        """tmp-file → fsync → rename → dir fsync, with fault hooks."""
        final = self.directory / relpath
        final.parent.mkdir(parents=True, exist_ok=True)
        data = fire_storage(site, path=relpath, data=data)
        tmp = final.with_name(final.name + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        fire_storage("before_rename", path=relpath)
        os.replace(tmp, final)
        fire_storage("after_rename", path=relpath)
        _fsync_dir(final.parent)

    def _write_segment(self, name: str, segment) -> dict:
        """Persist one sealed segment; returns its manifest reference."""
        index = self._next_file_index[name]
        self._next_file_index[name] = index + 1
        data = pack_block(segment.chunk, start=segment.start,
                          summary=dataclasses.astuple(segment.summary))
        relpath = f"{self._series_dir(name)}/seg-{index:06d}.seg"
        self._atomic_write(relpath, data, site="segment_write")
        return {"file": relpath, "crc32c": _trailing_crc_hex(data),
                "start": int(segment.start), "length": int(segment.length)}

    def _manifest_document(self) -> dict:
        series_documents = {}
        for name in self._memory.list_series():
            state = self._memory._state(name)  # noqa: SLF001
            series_documents[name] = {
                "codec": _codec_spec(state.codec),
                "segment_size": state.segment_size,
                "metadata": state.metadata,
                "shard": self._series_shard[name],
                "segments": self._refs[name],
                "holes": state.holes,
                "next_segment_file": self._next_file_index[name],
            }
            if name in self._logs:
                series_documents[name]["log"] = True
        return {
            "format": "repro.timeseries-store",
            "version": DURABLE_FORMAT_VERSION,
            "default_segment_size": self._memory.default_segment_size,
            "shards": self._shards,
            "wal": {shard: {"generation": generation,
                            "next_sequence": self._next_sequence.get(shard, 0)}
                    for shard, generation in sorted(self._generations.items())},
            "series": series_documents,
        }

    def _write_manifest(self) -> int:
        """Atomic manifest swap, then its fallback copy, then cleanup.

        ``manifest.json.prev`` is written from the bytes just published,
        never re-read from disk, so corrupt bytes cannot reach the
        fallback a torn or corrupt manifest is recovered from.  Only once
        both name the current WAL generations are retired segment files
        and older generations removed — after a crash before the ``.prev``
        write, the generations a fallback to it replays stay on disk.
        Returns the number of WAL files removed.
        """
        data = attach_footer(json.dumps(
            self._manifest_document(), sort_keys=True,
            default=float).encode("utf-8"))[0]
        self._atomic_write(MANIFEST_NAME, data, site="manifest_write")
        with open(self.directory / PREV_MANIFEST_NAME, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        while self._garbage:
            try:
                (self.directory / self._garbage.pop()).unlink()
            except OSError:  # pragma: no cover - already gone
                pass
        return self._prune_wals()

    def _rotate_wal(self, shard: str) -> None:
        """Write the next WAL generation holding only current buffers.

        The new generation is not referenced until the following manifest
        swap, so a crash here is invisible to recovery.
        """
        new_generation = self._generations[shard] + 1
        records: list[WalRecord] = []
        for name in self._memory.list_series():
            if self._series_shard[name] != shard:
                continue
            buffer = self._memory._state(name).buffer  # noqa: SLF001
            if buffer:
                sequence = self._next_sequence[shard]
                self._next_sequence[shard] = sequence + 1
                records.append(WalRecord(
                    sequence=sequence, series=name,
                    values=np.asarray(buffer, dtype=np.float64),
                    kind=COMPACTION))
        blob = b"".join(encode_record(record) for record in records)
        relpath = self._wal_relpath(shard, new_generation)
        path = self.directory / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = fire_storage("wal_compact", path=relpath, data=blob)
        with open(path, "wb") as handle:
            if blob:
                handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        _fsync_dir(path.parent)
        if shard in self._wals:
            self._wals.pop(shard).close()
        self._generations[shard] = new_generation
        self._wal_floor[shard] = len(blob)

    def _wal_files(self, shard: str = "*"):
        """``(shard, generation, path)`` of each WAL file on disk."""
        for path in (self.directory / WAL_DIR).glob(f"shard-{shard}.*.wal"):
            name, _, generation = path.name[:-len(".wal")].partition(".")
            if generation.isdigit():
                yield name[len("shard-"):], int(generation), path

    def _prune_wals(self) -> int:
        """Remove every WAL generation older than its shard's current one
        (best effort); only called once both manifests name the current."""
        removed = 0
        for shard, generation, path in self._wal_files():
            if generation < self._generations.get(shard, -1):
                try:
                    path.unlink()
                    removed += 1
                except OSError:  # pragma: no cover - race/permissions
                    pass
        return removed

    def _checkpoint(self, shards: set[str]) -> int:
        """Persist sealed segments, rotate WALs, swap the manifest; returns
        the number of WAL files pruned."""
        for name in self._memory.list_series():
            if self._series_shard[name] not in shards:
                continue
            state = self._memory._state(name)  # noqa: SLF001
            refs = self._refs[name]
            for segment in state.segments[len(refs):]:
                refs.append(self._write_segment(name, segment))
        for shard in sorted(shards):
            self._rotate_wal(shard)
        return self._write_manifest()

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #
    def _recover(self) -> None:
        report = self.recovery
        report.removed_tmp_files = self._remove_tmp_files()
        document, used_prev = self._load_manifest()
        report.used_prev_manifest = used_prev
        version = int(document.get("version", 0))
        if version == 1:
            self._migrate_v1(document)
            return
        if version > DURABLE_FORMAT_VERSION:
            raise StorageError(
                f"manifest version {version} is newer than supported "
                f"({DURABLE_FORMAT_VERSION})")

        self._shards = int(document.get("shards", self._shards))
        self._memory = TimeSeriesStore(default_segment_size=int(
            document.get("default_segment_size", DEFAULT_SEGMENT_SIZE)))
        for shard, info in (document.get("wal") or {}).items():
            self._generations[str(shard)] = int(info.get("generation", 0))
            self._next_sequence[str(shard)] = int(info.get("next_sequence", 0))

        series_items = document.get("series")
        if not isinstance(series_items, dict):
            raise StorageError("manifest has no series catalog")
        for name, entry in series_items.items():
            self._load_series(str(name), entry, report)

        touched = self._replay_wals(report)
        if version == 2:
            self._migrate_v2()
        dirty = (bool(report.quarantined) or used_prev
                 or report.removed_tmp_files > 0 or version == 2)
        # A clean, untouched open writes nothing and so prunes nothing: a
        # ``.prev`` left behind by a crash keeps every generation a fallback
        # to it would replay.
        if touched:
            report.removed_stale_wals = self._checkpoint(touched)
        elif dirty:
            report.removed_stale_wals = self._write_manifest()

    def _remove_tmp_files(self) -> int:
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.rglob("*.tmp"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:  # pragma: no cover - race/permissions
                    pass
        return removed

    def _load_manifest(self) -> tuple[dict, bool]:
        """Parse + verify the manifest, falling back to the previous one."""
        primary = self.directory / MANIFEST_NAME
        document, reason = self._parse_manifest_file(primary)
        if document is not None:
            return document, False
        fallback = self.directory / PREV_MANIFEST_NAME
        recovered, fallback_reason = self._parse_manifest_file(fallback)
        if recovered is None:
            raise StorageError(
                f"cannot read store manifest at {primary}: {reason}; "
                f"fallback {fallback.name}: {fallback_reason}")
        # Preserve the corrupt primary for forensics, out of the way.
        self._quarantine_file(primary, reason="manifest-corrupt",
                              detail=reason, series="")
        return recovered, True

    def _parse_manifest_file(self, path: Path) -> tuple[dict | None, str]:
        data, detail = _read_bytes(path)
        if data is None:
            return None, detail
        payload, _crc, reason, detail = split_footer(data)
        if payload is None:
            # No footer: accept plain version-1 JSON (the legacy format).
            try:
                document = json.loads(data.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                return None, f"{reason}: {detail}"
            if (isinstance(document, dict)
                    and document.get("format") == "repro.timeseries-store"
                    and int(document.get("version", 0)) == 1):
                return document, ""
            return None, f"{reason}: {detail}"
        try:
            document = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return None, f"parse-error: {exc}"
        if not isinstance(document, dict) or document.get(
                "format") != "repro.timeseries-store":
            return None, "not a repro.timeseries-store manifest"
        return document, ""

    def _migrate_v1(self, document: dict) -> None:
        """Load a version-1 manifest and rewrite it as the current layout."""
        self._memory = _store_from_manifest(
            document, self.directory / MANIFEST_NAME)
        for name in self._memory.list_series():
            shard = self._shard_of(name)
            self._series_shard[name] = shard
            self._refs[name] = []
            self._next_file_index[name] = 0
            self._generations.setdefault(shard, 0)
            self._next_sequence.setdefault(shard, 0)
        if not self._generations:
            # A v1 store with zero series still needs one seeded shard so
            # the migration checkpoint has a WAL to rotate.
            shard = self._shard_of("")
            self._generations[shard] = 0
            self._next_sequence[shard] = 0
        self.recovery.migrated_from_v1 = True
        # Persist everything: segments to files, buffers to WALs, the
        # manifest.  Touch every shard so empty ones are recorded too.
        self._checkpoint(set(self._generations))

    def _migrate_v2(self) -> None:
        """Re-publish a version-2 directory's JSON segments as ``.seg``.

        Runs after the segments are verified and the WALs replayed, before
        recovery's manifest swap — that swap publishes the new references
        as version 3 and only then unlinks the JSON files, so a crash
        anywhere in here reopens as version 2 and migrates again.
        """
        for name, refs in self._refs.items():
            segments = self._memory._state(name).segments  # noqa: SLF001
            for position, ref in enumerate(refs):
                self._garbage.append(str(ref.get("file", "")))
                refs[position] = self._write_segment(name, segments[position])
                self.recovery.migrated_segments += 1

    def _load_series(self, name: str, entry, report: RecoveryReport) -> None:
        if not isinstance(entry, dict):
            raise StorageError(f"manifest entry for series {name!r} "
                               "is not an object")
        spec = entry.get("codec") or {}
        codec = get_codec(spec["name"], **spec.get("options", {}))
        self._memory.create_series(
            name, codec=codec, segment_size=int(entry["segment_size"]),
            metadata=dict(entry.get("metadata", {})))
        state = self._memory._state(name)  # noqa: SLF001
        state.holes = [dict(hole) for hole in entry.get("holes", [])]
        report.prior_holes += len(state.holes)
        shard = str(entry.get("shard") or self._shard_of(name))
        self._series_shard[name] = shard
        self._generations.setdefault(shard, 0)
        self._next_sequence.setdefault(shard, 0)
        if entry.get("log"):
            self._logs.add(name)

        kept_refs: list[dict] = []
        for ref in entry.get("segments", []):
            segment, failure = self._verify_segment(name, ref, codec)
            if segment is not None:
                state.segments.append(segment)
                kept_refs.append(ref)
                report.segments_verified += 1
                continue
            reason, detail = failure
            self._quarantine_segment(name, ref, reason, detail, report)
        self._refs[name] = kept_refs
        self._next_file_index[name] = int(
            entry.get("next_segment_file", len(entry.get("segments", []))))
        self._validate_geometry(name, state)

    def _verify_segment(self, name: str, ref: dict, codec):
        """Verify one manifest segment reference against its file.

        Returns ``(segment, None)`` on success or ``(None, (reason,
        detail))`` when the segment must be quarantined.
        """
        relpath = str(ref.get("file", ""))
        data, detail = _read_bytes(self.directory / relpath)
        if data is None:
            return None, ("missing-file", detail)
        try:
            if relpath.endswith(".json"):
                segment, file_crc = _json_segment(data, codec)
            else:
                block, start, summary = unpack_block(data)
                segment = Segment(start, block, codec,
                                  summary=SegmentSummary(*summary))
                file_crc = _trailing_crc_hex(data)
        except BlockFormatError as exc:
            return None, (exc.reason, exc.detail)
        except (KeyError, TypeError, ValueError, StorageError) as exc:
            return None, ("parse-error", f"cannot rebuild segment: {exc}")
        expected_crc = str(ref.get("crc32c", ""))
        if file_crc != expected_crc:
            return None, ("manifest-mismatch",
                          f"manifest records crc32c {expected_crc}, "
                          f"file has {file_crc}")
        if (segment.start != int(ref.get("start", -1))
                or segment.length != int(ref.get("length", -1))):
            return None, ("manifest-mismatch",
                          f"segment covers [{segment.start}, {segment.end})"
                          f", manifest says start={ref.get('start')} "
                          f"length={ref.get('length')}")
        if segment.summary.count != segment.length:
            return None, ("invalid-geometry",
                          f"summary.count {segment.summary.count} != "
                          f"length {segment.length}")
        return segment, None

    def _quarantine_segment(self, name: str, ref: dict, reason: str,
                            detail: str, report: RecoveryReport) -> None:
        relpath = str(ref.get("file", ""))
        start = int(ref.get("start", 0))
        length = int(ref.get("length", 0))
        quarantined_name = self._quarantine_file(
            self.directory / relpath, reason=reason, detail=detail,
            series=name)
        state = self._memory._state(name)  # noqa: SLF001
        state.holes.append({"start": start, "length": length,
                            "file": quarantined_name or relpath,
                            "reason": reason})
        report.quarantined.append(QuarantinedSegment(
            series=name, file=relpath, reason=reason, detail=detail,
            start=start, length=length))

    def _quarantine_file(self, path: Path, *, reason: str, detail: str,
                         series: str) -> str | None:
        """Move a corrupt file into ``quarantine/`` with a reason sidecar.

        Returns the quarantine-relative name, or ``None`` when the file
        does not exist (missing-file corruption has nothing to move).
        """
        quarantine = self.quarantine_dir
        quarantine.mkdir(parents=True, exist_ok=True)
        flat = str(path.relative_to(self.directory)).replace(
            "/", "__") if path.is_relative_to(self.directory) else path.name
        target = quarantine / flat
        moved = None
        if path.exists():
            os.replace(path, target)
            moved = f"{QUARANTINE_DIR}/{flat}"
        reason_document = {"series": series, "file": flat,
                           "original_path": str(path.relative_to(self.directory))
                           if path.is_relative_to(self.directory)
                           else str(path),
                           "reason": reason, "detail": detail}
        (quarantine / f"{flat}.reason.json").write_text(
            json.dumps(reason_document, sort_keys=True), encoding="utf-8")
        return moved

    def _validate_geometry(self, name: str, state) -> None:
        """Segments + holes must tile ``[0, sealed_points)`` contiguously."""
        pieces = ([(segment.start, segment.length, "segment")
                   for segment in state.segments]
                  + [(int(hole["start"]), int(hole["length"]), "hole")
                     for hole in state.holes])
        pieces.sort()
        position = 0
        for start, length, kind in pieces:
            if start != position or length <= 0:
                raise StorageError(
                    f"manifest geometry of series {name!r} is broken: "
                    f"{kind} at {start} (length {length}) does not continue "
                    f"from position {position}")
            position += length
        state.segments.sort(key=lambda segment: segment.start)

    def _replay_wals(self, report: RecoveryReport) -> set[str]:
        """Replay every shard's WAL chain, oldest generation first.

        The chain is the manifest's referenced generation plus every newer
        generation still on disk — newer generations hold appends that were
        fsync-acknowledged after the recovered manifest was published (the
        ``manifest.json.prev`` fallback case, or a crash between a WAL
        rotation and its manifest swap); skipping them would silently lose
        acknowledged data.  Compaction records (each rotated generation's
        re-encoding of the buffers at rotation time) *replace* the series'
        buffer instead of appending, so replaying multiple generations
        never duplicates values an earlier generation already carried
        (sequences stay strictly increasing across the chain).

        Returns the shards whose replay sealed segments, spanned extra
        generations, or hit a corrupt tail (they need a checkpoint to
        converge).
        """
        touched: set[str] = set()
        for shard in sorted(self._generations):
            referenced = self._generations[shard]
            newer = sorted(generation
                           for _, generation, _ in self._wal_files(shard)
                           if generation > referenced)
            last_sequence = -1
            broken = False
            for position, generation in enumerate([referenced, *newer]):
                if position:
                    report.extra_wal_generations += 1
                    touched.add(shard)
                scan = scan_wal(self.directory / self._wal_relpath(
                    shard, generation))
                if scan.truncated_bytes:
                    report.truncated_wal_bytes += scan.truncated_bytes
                    report.truncated_wal_files += 1
                    report.truncation_reasons.append(
                        f"shard {shard} generation {generation}: "
                        f"{scan.truncation_reason}")
                    touched.add(shard)
                for record in scan.records:
                    if record.sequence <= last_sequence:
                        report.truncation_reasons.append(
                            f"shard {shard} generation {generation}: "
                            f"sequence {record.sequence} not past "
                            f"{last_sequence} from the previous generation")
                        touched.add(shard)
                        broken = True
                        break
                    last_sequence = record.sequence
                    if record.series not in self._memory:
                        # A record for a series the (possibly fallback)
                        # manifest does not know.  Count it; never guess a
                        # codec for it.
                        report.orphan_records += 1
                        continue
                    state = self._memory._state(record.series)  # noqa: SLF001
                    if record.kind == METADATA:
                        _merge_metadata(state.metadata, record.metadata)
                        report.replayed_metadata_records += 1
                        continue
                    if record.kind == RESET:
                        if self._apply_reset(record.series, record.values):
                            touched.add(shard)
                        report.replayed_reset_records += 1
                        continue
                    report.replayed_records += 1
                    report.replayed_values += int(record.values.size)
                    if record.kind == COMPACTION:
                        # A rotation's authoritative buffer re-encoding:
                        # replace the buffer so values an earlier generation
                        # already replayed are not duplicated.
                        state.buffer[:] = record.values.tolist()
                        continue
                    sealed = self._apply_values(record.series, record.values)
                    if sealed:
                        report.resealed_segments += sealed
                        touched.add(shard)
                if broken:
                    break
            # Future rotations must start past every generation seen on
            # disk, so an existing file is never overwritten.
            self._generations[shard] = max([referenced, *newer])
            self._next_sequence[shard] = max(
                self._next_sequence.get(shard, 0), last_sequence + 1)
        return touched
