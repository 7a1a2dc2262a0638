"""(De)serialization of :class:`~repro.codecs.base.CompressedBlock` objects.

A block has two portable forms.  The *document* (:func:`block_to_document`)
is JSON: the wire and inspection form of ``/compress`` responses and the
CLI.  The *container* (:func:`pack_block`) is binary:
the one on-disk form, a sealed segment file of the durable store — the
payload costs the bytes the codec produced, not their hex spelling.

Three payload shapes serialize natively in both, keeping their compression
benefit:

``irregular``
    Retained indices/values of an :class:`~repro.data.timeseries.
    IrregularSeries` (CAMEO and the line simplifiers).
``values``
    A verbatim ``float64`` array (the raw codec and short segments).
``bits``
    The ``(bytes, bit_length, count)`` triple of the XOR codecs
    (the payload bytes round-trip exactly; hex in a document).

The functional-approximation codecs (PMC, SWING, Sim-Piece, FFT) keep Python
closures as payloads, which are not portable.  :func:`payload_to_document`
refuses them — the storage engine's persistence keeps that strict behaviour —
while :func:`block_to_document` can *materialize* such a block instead: the
document stores the model's reconstruction (``dense``) next to the original
bits accounting, so a CLI ``compress`` → ``decompress`` round trip reproduces
``codec.decode(block)`` exactly even though the on-disk form is not the
model itself.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Callable

import numpy as np

from ..compressors.base import CompressedModel
from ..data.timeseries import IrregularSeries
from ..exceptions import (
    BlockFormatError,
    DecompressionError,
    InvalidSeriesError,
    StorageError,
)
from .base import CompressedBlock
from .checksum import crc32c

__all__ = [
    "payload_to_document",
    "payload_from_document",
    "block_to_document",
    "block_from_document",
    "save_block_json",
    "load_block_json",
    "pack_block",
    "unpack_block",
    "BLOCK_FORMAT",
    "BLOCK_MAGIC",
]

#: Marker stored in every serialized block document.
BLOCK_FORMAT = "repro.codec-block"
_FORMAT_VERSION = 1


def _jsonify(value):
    """Recursively convert numpy scalars/arrays to native JSON types.

    Metadata dictionaries routinely carry ``np.float64`` deviations or small
    arrays; stringifying them (``json.dumps(default=str)``) would silently
    change their type across a save/load round trip, so they are normalized
    explicitly instead.  Genuinely unserializable values still raise.
    """
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    return value


# ---------------------------------------------------------------------- #
# payloads
# ---------------------------------------------------------------------- #
def payload_to_document(payload) -> dict:
    """Serialize a natively-persistable block payload to a JSON-able dict.

    Raises :class:`~repro.exceptions.StorageError` for payload types without
    a portable encoded form (the model-based codecs); see
    :func:`block_to_document` for the materializing alternative.
    """
    if isinstance(payload, IrregularSeries):
        return {
            "type": "irregular",
            "indices": payload.indices.tolist(),
            "values": payload.values.tolist(),
            "original_length": payload.original_length,
            "name": payload.name,
            "metadata": payload.metadata,
        }
    if isinstance(payload, np.ndarray):
        return {"type": "values", "values": payload.tolist()}
    if _is_bits_payload(payload):
        data, bit_length, count = payload
        return {"type": "bits", "data": bytes(data).hex(),
                "bit_length": int(bit_length), "count": int(count)}
    raise _not_persistable(payload)


def _is_bits_payload(payload) -> bool:
    return (isinstance(payload, tuple) and len(payload) == 3
            and isinstance(payload[0], (bytes, bytearray)))


def _not_persistable(payload) -> StorageError:
    return StorageError(
        f"payload of type {type(payload).__name__} cannot be persisted; "
        "compact the series with a persistable codec (cameo, a line "
        "simplifier, gorilla, chimp or raw) first")


def payload_from_document(document: dict):
    """Inverse of :func:`payload_to_document` (plus the ``dense`` form)."""
    kind = document.get("type")
    if kind == "irregular":
        return IrregularSeries(
            indices=np.asarray(document["indices"], dtype=np.int64),
            values=np.asarray(document["values"], dtype=np.float64),
            original_length=int(document["original_length"]),
            name=str(document.get("name", "compressed")),
            metadata=dict(document.get("metadata", {})))
    if kind == "values":
        return np.asarray(document["values"], dtype=np.float64)
    if kind == "bits":
        return (bytes.fromhex(document["data"]), int(document["bit_length"]),
                int(document["count"]))
    if kind == "dense":
        values = np.asarray(document["values"], dtype=np.float64)
        return CompressedModel(
            reconstruct=lambda: values.copy(),
            stored_values=int(document.get("stored_values", values.size)),
            original_length=values.size,
            name=str(document.get("name", "model")),
            metadata=dict(document.get("metadata", {})))
    raise StorageError(f"unknown payload type {kind!r} in document")


# ---------------------------------------------------------------------- #
# blocks
# ---------------------------------------------------------------------- #
def block_to_document(block: CompressedBlock, *,
                      materialize: Callable[[], np.ndarray] | None = None) -> dict:
    """Serialize a block (header + payload) to a JSON-able dict.

    ``materialize`` — typically ``lambda: codec.decode(block)`` — enables the
    ``dense`` fallback for payloads without a portable encoded form; without
    it such payloads raise :class:`~repro.exceptions.StorageError`.
    """
    if isinstance(block.payload, CompressedModel):
        if materialize is None:
            # Same refusal as payload_to_document, for a uniform error path.
            payload_document = payload_to_document(block.payload)
        else:
            model = block.payload
            payload_document = {
                "type": "dense",
                "values": np.asarray(materialize(), dtype=np.float64).tolist(),
                "stored_values": int(model.stored_values),
                "name": model.name,
                "metadata": model.metadata,
            }
    else:
        payload_document = payload_to_document(block.payload)
    return _jsonify({
        "format": BLOCK_FORMAT,
        "version": _FORMAT_VERSION,
        "codec": block.codec,
        "length": int(block.length),
        "bits": int(block.bits),
        "lossless": bool(block.lossless),
        "metadata": block.metadata,
        "payload": payload_document,
    })


def block_from_document(document: dict) -> CompressedBlock:
    """Inverse of :func:`block_to_document`."""
    if document.get("format") != BLOCK_FORMAT:
        raise DecompressionError("not a repro.codec-block document")
    if int(document.get("version", 0)) > _FORMAT_VERSION:
        raise DecompressionError(
            f"codec-block version {document.get('version')} is newer than "
            f"supported ({_FORMAT_VERSION})")
    try:
        return CompressedBlock(
            codec=str(document["codec"]),
            payload=payload_from_document(document["payload"]),
            length=int(document["length"]),
            bits=int(document["bits"]),
            lossless=bool(document["lossless"]),
            metadata=dict(document.get("metadata", {})))
    except (KeyError, ValueError, TypeError) as exc:
        raise DecompressionError(f"cannot parse codec-block document: {exc}") from exc


def save_block_json(block: CompressedBlock, path, *,
                    materialize: Callable[[], np.ndarray] | None = None) -> Path:
    """Write the JSON document of ``block`` to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = block_to_document(block, materialize=materialize)
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


def load_block_json(path) -> CompressedBlock:
    """Read a block document written by :func:`save_block_json`."""
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DecompressionError(f"cannot read codec block from {path}: {exc}") from exc
    return block_from_document(document)


# ---------------------------------------------------------------------- #
# the binary container
# ---------------------------------------------------------------------- #
#: First four bytes of every packed block.
BLOCK_MAGIC = b"RSEG"
_CONTAINER_VERSION = 1

#: Fixed header, little-endian like a WAL record: magic, format byte,
#: payload kind, lossless, codec-name bytes, start, length, bits, the
#: summary (count, minimum, maximum, total), metadata bytes, payload bytes.
_HEADER = struct.Struct("<4sBBBBQIQIdddII")
_CRC = struct.Struct("<I")
#: What precedes the bitstream of a ``bits`` payload: bit_length, count.
_BITS_HEAD = struct.Struct("<QI")
#: What precedes the arrays of an ``irregular`` payload: retained points,
#: original_length, series-name bytes, series-metadata bytes.
_IRREGULAR_HEAD = struct.Struct("<IIHI")
_KIND_BITS, _KIND_VALUES, _KIND_IRREGULAR = 1, 2, 3


def _json_bytes(metadata: dict) -> bytes:
    return json.dumps(_jsonify(metadata), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _pack_payload(payload) -> tuple[int, bytes]:
    if isinstance(payload, IrregularSeries):
        name = payload.name.encode("utf-8")
        metadata = _json_bytes(payload.metadata)
        return _KIND_IRREGULAR, b"".join((
            _IRREGULAR_HEAD.pack(len(payload), payload.original_length,
                                 len(name), len(metadata)),
            # Every index is below original_length, a u32 in the head.
            payload.indices.astype("<u4").tobytes(),
            payload.values.astype("<f8").tobytes(), name, metadata))
    if isinstance(payload, np.ndarray):
        return _KIND_VALUES, np.asarray(payload, dtype="<f8").tobytes()
    if _is_bits_payload(payload):
        data, bit_length, count = payload
        return _KIND_BITS, _BITS_HEAD.pack(bit_length, count) + bytes(data)
    raise _not_persistable(payload)


def pack_block(block: CompressedBlock, *, start: int = 0,
               summary=(0, 0.0, 0.0, 0.0)) -> bytes:
    """The binary container of ``block``: header, variable parts, CRC32C.

    Layout (little-endian; ``docs/storage.md`` has the byte offsets): the
    fixed header, the codec name, the block metadata as a UTF-8 JSON blob,
    the payload as raw bytes, then a u32 CRC32C over every preceding byte.
    ``start`` and ``summary`` — ``(count, minimum, maximum, total)`` of the
    reconstruction — are the block's position and pruning summary in a
    stored series; they ride in the checksummed header.

    Raises :class:`~repro.exceptions.StorageError` for payloads without a
    portable encoded form, exactly as :func:`payload_to_document` does.
    """
    codec = block.codec.encode("utf-8")
    metadata = _json_bytes(block.metadata)
    count, minimum, maximum, total = summary
    try:
        kind, payload = _pack_payload(block.payload)
        header = _HEADER.pack(
            BLOCK_MAGIC, _CONTAINER_VERSION, kind, bool(block.lossless),
            len(codec), int(start), int(block.length), int(block.bits),
            int(count), minimum, maximum, total, len(metadata), len(payload))
    except struct.error as exc:
        raise StorageError(
            f"block does not fit the segment container: {exc}") from exc
    body = b"".join((header, codec, metadata, payload))
    return body + _CRC.pack(crc32c(body))


def _unpack_payload(kind: int, view: memoryview):
    if kind == _KIND_VALUES:
        return np.frombuffer(view, dtype="<f8").astype(np.float64)
    if kind == _KIND_BITS:
        bit_length, count = _BITS_HEAD.unpack_from(view)
        return bytes(view[_BITS_HEAD.size:]), bit_length, count
    if kind == _KIND_IRREGULAR:
        points, original_length, name_len, metadata_len = \
            _IRREGULAR_HEAD.unpack_from(view)
        values_at = _IRREGULAR_HEAD.size + 4 * points
        name_at = values_at + 8 * points
        metadata_at = name_at + name_len
        if metadata_at + metadata_len != len(view):
            raise ValueError("irregular payload lengths do not add up")
        return IrregularSeries(
            indices=np.frombuffer(view, dtype="<u4", count=points,
                                  offset=_IRREGULAR_HEAD.size),
            values=np.frombuffer(view, dtype="<f8", count=points,
                                 offset=values_at).astype(np.float64),
            original_length=original_length,
            name=str(view[name_at:metadata_at], "utf-8"),
            metadata=dict(json.loads(bytes(view[metadata_at:]))))
    raise ValueError(f"unknown payload kind {kind}")


def unpack_block(data) -> tuple[CompressedBlock, int, tuple]:
    """Inverse of :func:`pack_block`: ``(block, start, summary)``.

    Nothing is decoded before the CRC holds.  Every refusal is a
    :class:`~repro.exceptions.BlockFormatError` whose ``reason`` is
    ``truncated-header`` (too short to hold a header and its CRC),
    ``truncated-footer`` (shorter than its own header declares — a torn
    write), ``checksum-mismatch``, or ``parse-error`` (the bytes are the
    ones written, but not by this format).
    """
    view = memoryview(data)
    if len(view) < _HEADER.size + _CRC.size:
        raise BlockFormatError(
            "truncated-header",
            f"{len(view)} bytes cannot hold the {_HEADER.size}-byte header "
            "and its checksum")
    (magic, version, kind, lossless, codec_len, start, length, bits, count,
     minimum, maximum, total, metadata_len, payload_len) = \
        _HEADER.unpack_from(view)
    body_end = len(view) - _CRC.size
    declared = _HEADER.size + codec_len + metadata_len + payload_len
    (stored,) = _CRC.unpack_from(view, body_end)
    actual = crc32c(view[:body_end])
    if stored != actual:
        if magic == BLOCK_MAGIC and declared > body_end:
            raise BlockFormatError(
                "truncated-footer",
                f"header declares {declared + _CRC.size} bytes, "
                f"{len(view)} present")
        raise BlockFormatError(
            "checksum-mismatch", f"stored {stored:08x}, computed {actual:08x}")
    try:
        if magic != BLOCK_MAGIC or version != _CONTAINER_VERSION:
            raise ValueError(f"not a version-{_CONTAINER_VERSION} packed "
                             f"block (magic {magic!r}, version {version})")
        if declared != body_end:
            raise ValueError(f"header declares {declared} body bytes, "
                             f"{body_end} present")
        metadata_at = _HEADER.size + codec_len
        payload_at = metadata_at + metadata_len
        block = CompressedBlock(
            codec=str(view[_HEADER.size:metadata_at], "utf-8"),
            payload=_unpack_payload(kind, view[payload_at:body_end]),
            length=length, bits=bits, lossless=bool(lossless),
            metadata=dict(json.loads(bytes(view[metadata_at:payload_at]))))
    except (ValueError, TypeError, struct.error, InvalidSeriesError) as exc:
        raise BlockFormatError("parse-error", str(exc)) from exc
    return block, start, (count, minimum, maximum, total)
