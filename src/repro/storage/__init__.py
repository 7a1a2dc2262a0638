"""Compression-aware time series storage engine.

The paper motivates CAMEO with storage and I/O pressure in time series
databases; this subpackage provides that substrate so the compressor can be
exercised end-to-end: buffered ingest into sealed segments, pluggable codecs
(CAMEO, every baseline, and the lossless codecs), per-series footprint
accounting, and an analytical query layer with aggregate pushdown.

:class:`DurableStore` adds the crash-consistent on-disk tier: appends are
acknowledged through a per-shard write-ahead log, sealed segments persist
as CRC32C-checksummed sharded files behind an atomically swapped manifest,
and opening a store is a recovery scan that replays the WAL and
quarantines corruption instead of returning it (``docs/storage.md``).
"""

from ..codecs import RawCodec, available_codecs, register_codec
from ..codecs.checksum import crc32c, crc32c_hex
from .durable import DurableStore
from .persistence import load_store, save_store
from .query import AggregateResult, QueryEngine, SUPPORTED_AGGREGATES
from .recovery import QuarantinedSegment, RecoveryReport, fsck, recover
from .segment import Segment, SegmentSummary
from .store import DEFAULT_SEGMENT_SIZE, SeriesInfo, TimeSeriesStore
from .wal import WalRecord, WriteAheadLog, scan_wal

__all__ = [
    "RawCodec",
    "register_codec",
    "available_codecs",
    "Segment",
    "SegmentSummary",
    "TimeSeriesStore",
    "SeriesInfo",
    "DEFAULT_SEGMENT_SIZE",
    "QueryEngine",
    "AggregateResult",
    "SUPPORTED_AGGREGATES",
    "save_store",
    "load_store",
    "DurableStore",
    "RecoveryReport",
    "QuarantinedSegment",
    "recover",
    "fsck",
    "WalRecord",
    "WriteAheadLog",
    "scan_wal",
    "crc32c",
    "crc32c_hex",
]
