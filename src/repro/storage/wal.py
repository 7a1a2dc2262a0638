"""Write-ahead log for the durable store: buffer tails, log series, metadata.

A :class:`repro.storage.durable.DurableStore` acknowledges an append once
the values are in its shard's WAL; sealed segments and the manifest are
only updated afterwards.  Losing the buffer tail on a crash would silently
drop acknowledged data, so the WAL is the durability floor: binary,
append-only, one CRC32C per record, replayed front-to-back on recovery and
truncated at the first record that fails its checksum.

Record layout (little-endian)::

    u32  magic       0x4C415752 ("RWAL")
    u64  sequence    per-shard, strictly increasing
    u16  name_len    length of the series name (utf-8 bytes)
    u32  count       number of 8-byte payload words
    u8   flags       record kind (see below); unknown bits are rejected
    ...  name        utf-8 series name
    ...  payload     count * 8 bytes
    u32  crc32c      over every preceding byte of the record

Record kinds, by ``flags``:

``0x00`` value record
    The payload is ``count`` IEEE-754 float64 values appended to the
    series (sealing segments as the buffer fills, except on a log series).
``0x01`` compaction record
    Written at the head of a rotated WAL generation: the payload re-encodes
    a series' entire unsealed buffer at rotation time, and replay of the
    manifest's generation *replaces* the buffer with it instead of
    appending; a newer generation's are skipped (see
    ``DurableStore._replay_wals``), so no value is replayed twice.
``0x02`` metadata record
    The payload is a UTF-8 JSON object padded with spaces to a whole number
    of words; replay merges it into the series' metadata (a ``null`` value
    deletes the key).  Always fsynced, whatever the policy — it stands
    where a manifest swap used to.
``0x04`` reset record
    Written only by older stores, to cut an ingest spool; still replayed.
    The series starts over as a log: replay replaces its whole content
    (sealed segments included) with the payload values and clears its
    metadata, which described positions in the old content.

Every kind is applied in sequence order, so "record A was fsynced before
record B was written" is the only ordering primitive a caller needs: the
ingest spool's one rule, intent before the append it describes, is of
that form.

A torn write leaves a truncated final record (header or CRC missing); a
flipped bit fails the CRC.  Both stop the scan at the *previous* record —
the replayed prefix is exactly the acknowledged-durable data, never more,
and no record is ever half-applied.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..codecs.checksum import crc32c
from ..exceptions import StorageError
from ..faultinject import InjectedCrash, fire_storage

__all__ = [
    "COMPACTION",
    "FSYNC_POLICIES",
    "METADATA",
    "RECORD_MAGIC",
    "RESET",
    "VALUES",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "decode_record",
    "encode_record",
    "scan_wal",
]

#: Per-record magic ("RWAL" little-endian), a cheap first corruption check.
RECORD_MAGIC = 0x4C415752

#: Fixed-size record header: magic, sequence, name length, payload words,
#: flags byte.
_HEADER = struct.Struct("<IQHIB")
_CRC = struct.Struct("<I")

#: Record kinds — the values of the flags byte (see the module docstring).
VALUES = 0x00
COMPACTION = 0x01
METADATA = 0x02
RESET = 0x04
_KINDS = (VALUES, COMPACTION, METADATA, RESET)

#: Supported WAL fsync policies.
#:
#: ``always``
#:     flush + fsync after every record — every acknowledged append
#:     survives a power loss (the durability contract's default).
#: ``interval``
#:     fsync every ``fsync_interval`` records (and on ``sync``/``close``)
#:     — bounded data loss, amortized fsync cost.
#: ``never``
#:     flush to the OS but never fsync — survives process crashes, not
#:     power loss.  For spools whose source can replay.
#:
#: Metadata records are fsynced under every policy.
FSYNC_POLICIES = ("always", "interval", "never")


@dataclass(frozen=True)
class WalRecord:
    """One WAL record: ``kind`` says what replay does with it.

    :data:`VALUES` appends ``values`` to the series, :data:`COMPACTION`
    replaces the series' buffer with them, :data:`RESET` replaces its whole
    content and clears its metadata, :data:`METADATA` merges the
    ``metadata`` dict (``None`` values delete keys) and carries no values.
    """

    sequence: int
    series: str
    values: np.ndarray = ()
    kind: int = VALUES
    metadata: dict | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "values",
            np.ascontiguousarray(np.asarray(self.values, dtype=np.float64)))
        if int(self.sequence) < 0:
            raise StorageError("WAL sequence must be non-negative")
        if self.kind not in _KINDS:
            raise StorageError(f"unknown WAL record kind {self.kind:#04x}")
        if (self.kind == METADATA) != (self.metadata is not None):
            raise StorageError(
                "a metadata dict belongs to exactly the metadata records")


def encode_record(record: WalRecord) -> bytes:
    """Binary form of ``record`` (header + name + payload + CRC32C)."""
    name = record.series.encode("utf-8")
    if len(name) > 0xFFFF:
        raise StorageError(
            f"series name too long for a WAL record ({len(name)} bytes)")
    if record.kind == METADATA:
        payload = json.dumps(record.metadata, sort_keys=True,
                             default=float).encode("utf-8")
        payload += b" " * (-len(payload) % 8)
    else:
        payload = record.values.astype("<f8", copy=False).tobytes()
    body = (_HEADER.pack(RECORD_MAGIC, int(record.sequence), len(name),
                         len(payload) // 8, record.kind)
            + name + payload)
    return body + _CRC.pack(crc32c(body))


def decode_record(buffer: bytes, offset: int = 0) -> tuple[WalRecord, int]:
    """Decode one record at ``offset``; returns ``(record, next_offset)``.

    Raises :class:`~repro.exceptions.StorageError` on a truncated record,
    a bad magic, a CRC mismatch, or an unknown kind — the scan layer turns
    that into a truncation point, it is never silently skipped.
    """
    view = memoryview(buffer)
    if offset + _HEADER.size > len(view):
        raise StorageError("truncated WAL record header")
    magic, sequence, name_len, count, flags = _HEADER.unpack_from(view, offset)
    if magic != RECORD_MAGIC:
        raise StorageError(f"bad WAL record magic {magic:#010x}")
    body_end = offset + _HEADER.size + name_len + count * 8
    if body_end + _CRC.size > len(view):
        raise StorageError("truncated WAL record body")
    (stored_crc,) = _CRC.unpack_from(view, body_end)
    actual_crc = crc32c(view[offset:body_end])
    if stored_crc != actual_crc:
        raise StorageError(
            f"WAL record CRC mismatch (stored {stored_crc:#010x}, "
            f"computed {actual_crc:#010x})")
    if flags not in _KINDS:
        raise StorageError(f"unknown WAL record flags {flags:#04x}")
    name_start = offset + _HEADER.size
    payload_start = name_start + name_len
    series = bytes(view[name_start:payload_start]).decode("utf-8")
    values, metadata = (), None
    if flags == METADATA:
        try:
            metadata = json.loads(bytes(view[payload_start:body_end]))
        except ValueError as exc:
            raise StorageError(f"unparseable WAL metadata record: {exc}") \
                from exc
        if not isinstance(metadata, dict):
            raise StorageError("WAL metadata record is not a JSON object")
    else:
        values = np.frombuffer(view, dtype="<f8", count=count,
                               offset=payload_start).astype(np.float64)
    return WalRecord(sequence=int(sequence), series=series, values=values,
                     kind=flags, metadata=metadata), body_end + _CRC.size


@dataclass
class WalScan:
    """Result of scanning one WAL file front-to-back."""

    #: The intact record prefix, in file order.
    records: list[WalRecord]
    #: Bytes covered by the intact prefix.
    valid_bytes: int
    #: Bytes past the intact prefix (torn/corrupt tail; 0 when clean).
    truncated_bytes: int
    #: Why the scan stopped early (empty when the file is clean).
    truncation_reason: str = ""


def scan_wal(path) -> WalScan:
    """Scan a WAL file, returning its intact record prefix.

    The scan stops at the first record that is truncated, has a bad magic
    or CRC, or breaks the strictly-increasing sequence invariant; the tail
    beyond that point is reported, never decoded.  A missing file scans as
    empty (a shard that never received an append has no WAL yet).
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return WalScan(records=[], valid_bytes=0, truncated_bytes=0)
    except OSError as exc:
        raise StorageError(f"cannot read WAL {path}: {exc}") from exc
    records: list[WalRecord] = []
    offset = 0
    previous_sequence = -1
    while offset < len(data):
        try:
            record, next_offset = decode_record(data, offset)
        except StorageError as exc:
            return WalScan(records=records, valid_bytes=offset,
                           truncated_bytes=len(data) - offset,
                           truncation_reason=str(exc))
        if record.sequence <= previous_sequence:
            return WalScan(records=records, valid_bytes=offset,
                           truncated_bytes=len(data) - offset,
                           truncation_reason=(
                               f"non-monotonic WAL sequence {record.sequence} "
                               f"after {previous_sequence}"))
        previous_sequence = record.sequence
        records.append(record)
        offset = next_offset
    return WalScan(records=records, valid_bytes=offset, truncated_bytes=0)


class WriteAheadLog:
    """Append-only WAL file handle with a configurable fsync policy."""

    def __init__(self, path, *, fsync_policy: str = "always",
                 fsync_interval: int = 16):
        if fsync_policy not in FSYNC_POLICIES:
            raise StorageError(
                f"unknown fsync_policy {fsync_policy!r}; "
                f"choose from {', '.join(FSYNC_POLICIES)}")
        if int(fsync_interval) < 1:
            raise StorageError("fsync_interval must be >= 1")
        self.path = Path(path)
        self.fsync_policy = fsync_policy
        self.fsync_interval = int(fsync_interval)
        self._handle = open(self.path, "ab")
        #: Bytes of acknowledged records in the file.
        self.size = os.fstat(self._handle.fileno()).st_size
        self._unsynced = 0
        self._failed = False

    def append(self, record: WalRecord) -> int:
        """Append one record; returns its encoded size in bytes.

        With ``fsync_policy="always"`` the record is durable when this
        returns — that return is the store's acknowledgement point.
        Metadata records are fsynced under every policy.

        An append that fails after any of its bytes may have reached the
        file is cut back out, so the file never holds a record the caller
        was told did not happen (it would replay on reopen, and the next
        append would reuse its sequence number).  When even that fails the
        handle is fail-stopped: every later append raises.
        """
        if self._failed:
            raise StorageError(
                f"WAL {self.path} failed an append it could not undo; "
                "reopen the store to recover")
        data = encode_record(record)
        data = fire_storage("wal_append", path=self.path, data=data)
        try:
            self._handle.write(data)
            self._handle.flush()
            fire_storage("wal_sync", path=self.path)
            if self.fsync_policy == "always" or record.kind == METADATA:
                os.fsync(self._handle.fileno())
                self._unsynced = 0
            elif self.fsync_policy == "interval":
                self._unsynced += 1
                if self._unsynced >= self.fsync_interval:
                    os.fsync(self._handle.fileno())
                    self._unsynced = 0
        except InjectedCrash:
            raise  # simulated process death: nothing runs after it
        except Exception:
            try:
                self._handle.truncate(self.size)
            except Exception:
                self._failed = True
            raise
        self.size += len(data)
        return len(data)

    def sync(self) -> None:
        """Force an fsync regardless of policy (except after close)."""
        if self._handle.closed:
            return
        self._handle.flush()
        if self.fsync_policy != "never":
            os.fsync(self._handle.fileno())
        self._unsynced = 0

    def close(self) -> None:
        """Sync (per policy) and close the file handle."""
        if self._handle.closed:
            return
        self.sync()
        self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
