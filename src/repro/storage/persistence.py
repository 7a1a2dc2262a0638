"""Persistence of :class:`repro.storage.store.TimeSeriesStore` to disk.

This module is the *format-v1* path: one monolithic ``manifest.json``
holding the catalog of every series — codec specification, segment size,
metadata, the (raw) write-buffer tail, and one entry per sealed segment
with its summary and encoded payload.  The manifest is published with a
tmp-file → fsync → rename swap, so a crash during :func:`save_store`
leaves either the old manifest or the new one, never a torn hybrid.

The crash-consistent sharded layout (format v2 and up: WAL + checksummed
segment files) lives in :mod:`repro.storage.durable`; :func:`load_store`
reads both, delegating every newer-than-v1 directory to a
:class:`~repro.storage.durable.DurableStore` recovery scan and returning
the recovered in-memory view.

Payloads are stored in the codec's *encoded* form, so a CAMEO- or
Gorilla-backed store keeps its compression benefit: irregular segments
persist their retained indices/values, XOR codecs persist the bit stream
(hex-encoded in this JSON format), raw segments persist the values.  The
functional-approximation codecs (PMC, SWING, Sim-Piece, FFT) keep closures as
payloads and therefore do not support persistence; attempting to save such a
store raises :class:`repro.exceptions.StorageError` with a pointer to
:meth:`TimeSeriesStore.compact` as the workaround (re-encode with a
persistable codec first).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ..codecs import CompressedBlock, get_codec
from ..codecs.serialize import payload_from_document, payload_to_document
from ..exceptions import StorageError
from .segment import Segment, SegmentSummary
from .store import TimeSeriesStore

__all__ = ["save_store", "load_store", "MANIFEST_NAME", "FORMAT_VERSION",
           "DURABLE_FORMAT_VERSION", "MAX_FORMAT_VERSION"]

MANIFEST_NAME = "manifest.json"
#: Version written by :func:`save_store` (the monolithic format).
FORMAT_VERSION = 1
#: Version written by :class:`~repro.storage.durable.DurableStore`: 3 since
#: segment files are packed blocks (``.seg``; version 2 held hex-in-JSON
#: documents).  The bump is what makes a version-2 binary refuse such a
#: directory instead of quarantining every segment in it.
DURABLE_FORMAT_VERSION = 3
#: Newest version :func:`load_store` can read: whatever the durable store
#: writes.
MAX_FORMAT_VERSION = DURABLE_FORMAT_VERSION


def _codec_spec(codec) -> dict:
    """Build a ``get_codec``-compatible specification for ``codec``."""
    options: dict = {}
    for attribute in ("max_lag", "epsilon", "error_bound", "keep_fraction", "variant"):
        if hasattr(codec, attribute):
            options[attribute] = getattr(codec, attribute)
    extra = getattr(codec, "options", None)
    if isinstance(extra, dict):
        options.update(extra)
    return {"name": codec.name, "options": options}


def _segment_to_document(segment: Segment) -> dict:
    chunk = segment.chunk
    return {
        "start": segment.start,
        "codec": chunk.codec,
        "length": chunk.length,
        "bits": chunk.bits,
        "lossless": chunk.lossless,
        "metadata": chunk.metadata,
        "payload": payload_to_document(chunk.payload),
        "summary": {
            "count": segment.summary.count,
            "minimum": segment.summary.minimum,
            "maximum": segment.summary.maximum,
            "total": segment.summary.total,
        },
    }


def _segment_from_document(document: dict, codec) -> Segment:
    chunk = CompressedBlock(
        codec=str(document["codec"]),
        payload=payload_from_document(document["payload"]),
        length=int(document["length"]),
        bits=int(document["bits"]),
        lossless=bool(document["lossless"]),
        metadata=dict(document.get("metadata", {})))
    summary_doc = document["summary"]
    summary = SegmentSummary(count=int(summary_doc["count"]),
                             minimum=float(summary_doc["minimum"]),
                             maximum=float(summary_doc["maximum"]),
                             total=float(summary_doc["total"]))
    return Segment(int(document["start"]), chunk, codec, summary=summary)


def _fsync_dir(path: Path) -> None:
    """fsync a directory so a rename inside it survives power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """tmp-file → fsync → rename → directory fsync."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)


# ---------------------------------------------------------------------- #
# public API
# ---------------------------------------------------------------------- #
def save_store(store: TimeSeriesStore, directory) -> Path:
    """Persist ``store`` into ``directory`` (created if missing).

    The manifest is swapped atomically (tmp file + fsync + rename), so an
    interrupted save never corrupts an existing manifest.  Returns the path
    of the written manifest.  Every series must use a codec with a
    serializable encoded form (see module docstring).
    """
    if not isinstance(store, TimeSeriesStore):
        raise StorageError("save_store expects a TimeSeriesStore")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    series_documents = {}
    for name in store.list_series():
        state = store._state(name)  # noqa: SLF001 - persistence is a store companion
        series_documents[name] = {
            "codec": _codec_spec(state.codec),
            "segment_size": state.segment_size,
            "metadata": state.metadata,
            "buffer": list(state.buffer),
            "segments": [_segment_to_document(segment) for segment in state.segments],
        }

    manifest = {
        "format": "repro.timeseries-store",
        "version": FORMAT_VERSION,
        "default_segment_size": store.default_segment_size,
        "series": series_documents,
    }
    path = directory / MANIFEST_NAME
    _atomic_write_bytes(path, json.dumps(manifest, default=float).encode("utf-8"))
    return path


def load_store(directory) -> TimeSeriesStore:
    """Load a store previously written by :func:`save_store`.

    Durable-layout directories (every version past 1) are opened through a
    :class:`~repro.storage.durable.DurableStore` recovery scan and the
    recovered in-memory view is returned; mutate a durable store through
    :class:`DurableStore` itself, not through this snapshot.
    """
    directory = Path(directory)
    path = directory / MANIFEST_NAME if directory.is_dir() else directory
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise StorageError(f"cannot read store manifest at {path}: {exc}") from exc
    if b"\n#crc32c=" in raw:
        # A checksum footer marks the durable layout.
        return _load_durable(path.parent)
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageError(
            f"store manifest at {path} is truncated or not valid JSON: "
            f"{exc}") from exc
    if not isinstance(manifest, dict) or manifest.get(
            "format") != "repro.timeseries-store":
        raise StorageError(f"{path} is not a repro.timeseries-store manifest")
    version = int(manifest.get("version", 0))
    if version > MAX_FORMAT_VERSION:
        raise StorageError(
            f"manifest version {version} is newer than supported "
            f"({MAX_FORMAT_VERSION})")
    if version > FORMAT_VERSION:
        return _load_durable(path.parent)
    return _store_from_manifest(manifest, path)


def _load_durable(directory: Path) -> TimeSeriesStore:
    from .durable import DurableStore  # circular: durable builds on this module

    store = DurableStore.open(directory)
    memory = store.memory
    store.close()
    return memory


def _store_from_manifest(manifest: dict, path) -> TimeSeriesStore:
    """Build a :class:`TimeSeriesStore` from a parsed v1 manifest document.

    Validates the catalog before trusting it: segment starts must be
    contiguous from 0, every segment's length must agree with its summary
    count, and buffers must be shorter than the segment size.  Violations
    raise :class:`StorageError` naming the offending series and segment.
    """
    series_documents = manifest.get("series", {})
    if not isinstance(series_documents, dict):
        raise StorageError(f"{path}: manifest series catalog is not an object")
    store = TimeSeriesStore(
        default_segment_size=int(manifest.get("default_segment_size", 1_024)))
    for name, document in series_documents.items():
        try:
            _load_series_document(store, str(name), document)
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageError(
                f"{path}: series {name!r} has a malformed manifest entry: "
                f"{exc!r}") from exc
    return store


def _load_series_document(store: TimeSeriesStore, name: str, document) -> None:
    if not isinstance(document, dict):
        raise StorageError(f"series {name!r}: manifest entry is not an object")
    spec = document["codec"]
    codec = get_codec(spec["name"], **spec.get("options", {}))
    segment_size = int(document["segment_size"])
    store.create_series(name, codec=codec, segment_size=segment_size,
                        metadata=dict(document.get("metadata", {})))
    state = store._state(name)  # noqa: SLF001

    position = 0
    for index, segment_doc in enumerate(document.get("segments", [])):
        segment = _segment_from_document(segment_doc, codec)
        if segment.start != position:
            raise StorageError(
                f"series {name!r}: segment {index} starts at {segment.start}, "
                f"expected {position} (segments must be contiguous from 0)")
        if segment.length <= 0:
            raise StorageError(
                f"series {name!r}: segment {index} has non-positive length "
                f"{segment.length}")
        if segment.summary.count != segment.length:
            raise StorageError(
                f"series {name!r}: segment {index} length {segment.length} "
                f"disagrees with its summary count {segment.summary.count}")
        state.segments.append(segment)
        position += segment.length

    buffer = [float(value) for value in document.get("buffer", [])]
    if len(buffer) >= segment_size:
        raise StorageError(
            f"series {name!r}: buffered tail holds {len(buffer)} values but "
            f"the segment size is {segment_size}; a buffer that long should "
            "have been sealed")
    state.buffer = buffer
