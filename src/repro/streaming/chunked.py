"""Chunked compression of many concurrent, unbounded streams.

The offline algorithms need a full series; for streams,
:class:`MultiStreamCompressor` cuts every stream into fixed-size chunks and
encodes each sealed chunk independently with **any registered codec**
(:mod:`repro.codecs`) — the same local-budget idea as the paper's
coarse-grained parallelization (Section 4.4), applied over time instead of
over threads.  A single stream is simply one stream name.

With CAMEO, each chunk's ACF deviation is bounded by ``epsilon``, so the
autocorrelation structure within every chunk is preserved; chunk
boundaries are always retained points, so reconstructions of adjacent
chunks join exactly.  To follow the raw stream's global ACF, feed the same
values to a :class:`repro.streaming.OnlineAcfEstimator`.

:func:`concat_irregular` stitches per-chunk point-retaining results back
into one :class:`repro.data.timeseries.IrregularSeries` over the whole
stream, which is convenient for persisting a long session as a single
object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .._validation import as_float_array, check_positive_int
from ..codecs import CompressedBlock, get_codec
from ..data.timeseries import BITS_PER_VALUE_RAW, IrregularSeries
from ..exceptions import InvalidParameterError
from ..faultinject import InjectedCrash
from ..sanitize import InputPolicy, sanitize

__all__ = [
    "ChunkResult",
    "IDEMPOTENCY_SERIES",
    "StreamReport",
    "MultiStreamCompressor",
    "concat_irregular",
]

#: Reserved spool series whose metadata journals idempotency keys.  It never
#: holds values and is not a stream.
IDEMPOTENCY_SERIES = "__idempotency__"

#: Metadata key of one journal entry: this prefix plus the idempotency key.
_JOURNAL_KEY = "key:"


@dataclass(frozen=True)
class ChunkResult:
    """One sealed chunk's compression outcome."""

    index: int
    start: int
    block: CompressedBlock

    @property
    def length(self) -> int:
        """Number of raw values in the chunk."""
        return int(self.block.length)

    @property
    def kept_points(self) -> int:
        """Stored cost in 64-bit-value equivalents.

        Point-retaining codecs report their retained points, model codecs
        their stored scalars; for bit-level codecs the encoded bits are
        expressed in 64-bit values so the report's point accounting stays
        comparable across codecs.
        """
        metadata = self.block.metadata
        if "kept_points" in metadata:
            return int(metadata["kept_points"])
        if "stored_values" in metadata:
            return int(metadata["stored_values"])
        return int(math.ceil(self.block.bits / BITS_PER_VALUE_RAW))

    @property
    def achieved_deviation(self) -> float:
        """Statistic deviation reached inside the chunk (0 when exact)."""
        return float(self.block.metadata.get("achieved_deviation") or 0.0)

    @property
    def compressed(self) -> IrregularSeries:
        """The chunk's point-retaining representation.

        Available for codecs whose payload is an
        :class:`IrregularSeries` (CAMEO, the line simplifiers) and for
        verbatim blocks of at least two values (which become identity
        representations); other blocks raise
        :class:`~repro.exceptions.InvalidParameterError`.
        """
        payload = self.block.payload
        if isinstance(payload, IrregularSeries):
            return payload
        if isinstance(payload, np.ndarray):
            if payload.size < 2:
                raise InvalidParameterError(
                    f"chunk {self.index} holds {payload.size} value(s) and an "
                    "IrregularSeries needs at least two points; decode the "
                    "chunk through the stream's codec instead")
            return IrregularSeries(
                indices=np.arange(payload.size, dtype=np.int64),
                values=np.asarray(payload, dtype=np.float64).copy(),
                original_length=int(payload.size),
                name=f"{self.block.codec}-chunk-{self.index}",
                metadata=dict(self.block.metadata))
        raise InvalidParameterError(
            f"codec {self.block.codec!r} does not produce a point-retaining "
            "representation; decode the chunk through the stream's codec instead")


@dataclass
class StreamReport:
    """Aggregate statistics over everything the stream compressor sealed."""

    chunks: int = 0
    ingested_points: int = 0
    sealed_points: int = 0
    kept_points: int = 0
    encoded_bits: int = 0
    worst_chunk_deviation: float = 0.0
    chunk_deviations: list[float] = field(default_factory=list)
    # Input-policy accounting (all zero when no policy is configured).
    #: Values dropped at ingest by the NaN/inf policy.
    dropped_points: int = 0
    #: NaN runs whose positions were recorded (``on_nan="split"``).
    nan_runs: int = 0
    #: ``add()`` calls whose timestamps required reordering.
    reordered_adds: int = 0
    #: Timestamp gaps observed (``on_gap="ignore"``/``"split"``).
    gaps: int = 0

    @property
    def buffered_points(self) -> int:
        """Values received but not yet sealed into a chunk."""
        return self.ingested_points - self.sealed_points - self.dropped_points

    @property
    def compression_ratio(self) -> float:
        """Sealed raw points over retained 64-bit-value equivalents."""
        if self.kept_points == 0:
            return 1.0
        return self.sealed_points / float(self.kept_points)

    @property
    def bits_per_value(self) -> float:
        """Encoded bits per sealed raw value."""
        return self.encoded_bits / float(max(self.sealed_points, 1))


def _record(report: StreamReport, result: ChunkResult) -> None:
    """Add one sealed chunk to the stream report."""
    report.chunks += 1
    report.sealed_points += result.length
    report.kept_points += result.kept_points
    report.encoded_bits += result.block.bits
    deviation = result.achieved_deviation
    report.chunk_deviations.append(deviation)
    report.worst_chunk_deviation = max(report.worst_chunk_deviation, deviation)


class MultiStreamCompressor:
    """Many concurrent streams, compressed through the batch engine.

    An ingest tier rarely serves one stream: a gateway handles hundreds of
    sensors at once, and sealing each stream's chunks independently wastes
    both parallel hardware and the engine's stacked XOR encode.  This
    class cuts every stream into chunks and encodes *all* queued chunks —
    across every stream — in batched :class:`repro.engine.BatchEngine`
    passes: same-length lossless chunks stack through the XOR batch
    encoder.  Every chunk's block is identical to
    ``get_codec(codec, **codec_options).encode`` of the chunk's values;
    only the execution is batched.

    Each stream is a log series of one store: a
    :class:`repro.storage.durable.DurableStore` under ``spool_to``, an
    in-memory :class:`repro.storage.store.TimeSeriesStore` otherwise.
    :meth:`add` appends the raw values to it, and :meth:`commit` installs
    each encoded chunk as the series' next segment, so the store's segments
    are what :meth:`results` and :meth:`reconstruct` read.

    Parameters
    ----------
    chunk_size:
        Values per sealed chunk (shared by every stream).
    codec, codec_options:
        Registered codec for every sealed chunk.
    policy:
        Optional :class:`~repro.sanitize.InputPolicy` applied to every
        :meth:`add` batch.  Required for timestamp-aware ingestion; split
        boundaries (NaN runs, timestamp gaps) seal the stream's chunk so no
        chunk bridges a gap.  ``None`` (default) raises on hostile input
        and keeps the clean-input path bit-identical.
    spool_to:
        Optional directory of the durable store: an :meth:`add` returns
        once the store's WAL holds its values (``spool_fsync`` sets the
        WAL's fsync policy, default ``"always"``; see
        :data:`repro.storage.wal.FSYNC_POLICIES`), and the store's
        checkpoints publish the installed chunks as segment files.  A
        compressor opened on the directory again, after a close or a crash,
        cuts every value the store holds past its installed chunks into the
        same chunks as before — input-policy split boundaries are recorded
        ahead of the values they split — and queues them.  The store is
        exclusively locked while the compressor holds it.
    idempotency_cap:
        Maximum retained idempotency-journal entries (see
        :meth:`add_idempotent`); the oldest *applied* entries are evicted
        beyond it.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.streaming import MultiStreamCompressor
    >>> multi = MultiStreamCompressor(chunk_size=128, codec="gorilla")
    >>> x = np.round(np.sin(np.arange(300) / 7.0), 3)
    >>> for sensor in ("a", "b"):
    ...     _ = multi.add(sensor, x)
    >>> sealed = multi.flush()
    >>> sorted(multi.streams), multi.report("a").chunks
    (['a', 'b'], 3)
    >>> np.array_equal(multi.reconstruct("b"), x)
    True
    """

    def __init__(self, chunk_size: int, codec: str = "cameo", *,
                 codec_options: dict | None = None,
                 policy: InputPolicy | None = None,
                 spool_to=None, spool_fsync: str = "always",
                 idempotency_cap: int = 1024):
        from ..engine import BatchEngine
        from ..storage.store import TimeSeriesStore

        self.chunk_size = check_positive_int(chunk_size, "chunk_size")
        if policy is not None and not isinstance(policy, InputPolicy):
            raise InvalidParameterError(
                f"policy must be an InputPolicy or None, got {type(policy).__name__}")
        self.policy = policy
        self.engine = BatchEngine(codec, codec_options=codec_options)
        self.codec = get_codec(self.engine.codec, **(codec_options or {}))
        # Chunks cut but not taken yet, as (stream, start, length) spans of
        # the stream's series, and per stream the position cut up to.
        self._pending: list[tuple[str, int, int]] = []
        self._cut_at: dict[str, int] = {}
        self._reports: dict[str, StreamReport] = {}
        self.errors: list = []
        # Idempotency journal: key -> {stream, start, count, applied, seq},
        # and the keys whose entry changed since the journal was persisted.
        self._idem_keys: dict[str, dict] = {}
        self._idem_seq = 0
        self._idem_dirty: set[str] = set()
        self._idem_cap = check_positive_int(idempotency_cap, "idempotency_cap")
        if spool_to is None:
            self.spool = None
            self._store = self._memory = TimeSeriesStore()
            return
        from ..storage.durable import DurableStore

        self.spool = self._store = DurableStore.open(
            spool_to, create=True, fsync_policy=spool_fsync)
        self._memory = self.spool.memory
        self._load_idempotency()
        for name in self.spool.list_series():
            if name != IDEMPOTENCY_SERIES:
                self._reopen(name)

    # ------------------------------------------------------------------ #
    @property
    def streams(self) -> list[str]:
        """Every stream seen so far (ingest order)."""
        return list(self._reports)

    def _stream(self, name: str) -> StreamReport:
        """Stream ``name``'s report; its first use creates its log series."""
        if name not in self._reports:
            if name == IDEMPOTENCY_SERIES:
                raise InvalidParameterError(
                    f"{IDEMPOTENCY_SERIES!r} is reserved for the idempotency "
                    "journal and cannot be used as a stream name")
            if name not in self._store:
                self._store.create_series(name, self.codec, log=True)
            self._reports[name] = StreamReport()
            self._cut_at[name] = 0
        return self._reports[name]

    def add(self, stream: str, values, timestamps=None) -> int:
        """Feed values into one stream; returns chunks sealed by this call.

        The (sanitized) values are appended to the stream's series first —
        with a spool, durably — and sealed chunks are queued; call
        :meth:`drain` (or :meth:`flush`) to encode everything queued across
        all streams in one engine batch.  With an input policy, split
        boundaries seal the stream's chunk early (possibly short) so no
        chunk bridges a gap.
        """
        name = str(stream)
        report = self._stream(name)
        if np.isscalar(values):
            values = [float(values)]
        record, boundaries = None, []
        if self.policy is None:
            if timestamps is not None:
                raise InvalidParameterError(
                    "timestamps require an input policy (pass policy=... "
                    "to enable timestamp-aware ingestion)")
            batch = as_float_array(values, name="values")
        else:
            result = sanitize(values, self.policy, timestamps=timestamps,
                              name="values")
            batch, record = result.values, result.report
            start = self._store.length(name)
            boundaries = [start + int(s) for s in result.segment_starts]
        before = None
        if boundaries and self.spool is not None:
            # Recorded ahead of the values they split: a reopen must cut
            # its chunks at the same positions.
            before = self._splits(name)
            self._write_splits(name, before.union(boundaries))
        try:
            if batch.size:
                self._store.append(name, batch)
        except InjectedCrash:
            raise  # simulated process death: nothing runs after it
        except Exception:
            if before is not None and self._store.length(name) == start:
                # The values never landed, so neither may the boundaries
                # between them.  (An append can also fail after they did,
                # in the checkpoint it triggers; then the boundaries stay.)
                self._write_splits(name, before)
            raise
        # Account only now: an append the store refused was never ingested.
        if record is None:
            report.ingested_points += batch.size
        else:
            report.ingested_points += record.original_length
            report.dropped_points += record.dropped_nan + record.dropped_inf
            report.nan_runs += len(record.nan_runs)
            report.reordered_adds += int(record.sorted)
            report.gaps += record.gaps
        return self._cut(name, boundaries)

    def _splits(self, name: str) -> set[int]:
        """Stream ``name``'s durably recorded split boundaries."""
        return {int(s) for s in self.spool.metadata(name).get("splits", [])}

    def _write_splits(self, name: str, splits) -> None:
        """Durably set stream ``name``'s split boundaries.

        Boundaries at or below the series' published end are pruned: a
        reopen never cuts there again.  (Installed chunks past it are not
        durable yet — a crash hands their values back raw to be cut anew.)
        """
        published = self.spool.published_points(name)
        self.spool.update_metadata({name: {"splits": sorted(
            s for s in splits if s > published) or None}})

    def _cut(self, name: str, boundaries=()) -> int:
        """Queue stream ``name``'s uncut values as chunks: every
        ``chunk_size`` values, and a short chunk up to each boundary; what
        follows the last boundary stays uncut unless it fills a chunk.
        Returns the number of chunks queued."""
        position, queued = self._cut_at[name], len(self._pending)
        stops = [(int(stop), True) for stop in boundaries]
        for stop, seal in stops + [(self._store.length(name), False)]:
            while position < stop and (seal
                                       or stop - position >= self.chunk_size):
                length = min(self.chunk_size, stop - position)
                self._pending.append((name, position, length))
                position += length
        self._cut_at[name] = position
        return len(self._pending) - queued

    @property
    def pending_chunks(self) -> int:
        """Sealed chunks queued for the next drain."""
        return len(self._pending)

    def drain(self) -> list[tuple[str, ChunkResult]]:
        """Encode every queued sealed chunk in one batched engine pass.

        Returns ``(stream, chunk_result)`` pairs in seal order (see
        :meth:`commit`).

        This is :meth:`take` → :meth:`encode` → :meth:`commit` in one call.
        A caller that ingests from other threads runs the three steps
        itself: take and commit under its ingest lock, encode outside it.
        """
        batch = self.take()
        if not batch:
            return []
        return self.commit(batch, self.encode(batch))

    def take(self, count: int | None = None) -> list[tuple[str, np.ndarray]]:
        """Dequeue the ``count`` oldest sealed chunks (default: all of them).

        Returns ``(stream, values)`` pairs in seal order: the batch that
        :meth:`encode` and then :meth:`commit` consume.
        """
        count = len(self._pending) if count is None else int(count)
        spans, self._pending = self._pending[:count], self._pending[count:]
        return [(name, self._memory.read(name, start, start + length))
                for name, start, length in spans]

    def encode(self, batch):
        """Run one engine pass over a taken batch.

        Reads nothing the compressor mutates, so it may run while other
        threads :meth:`add`; returns the engine's ordered outcomes.
        """
        return self.engine.compress([values for _stream, values in batch],
                                    names=[stream for stream, _values in batch])

    def commit(self, batch, outcomes) -> list[tuple[str, ChunkResult]]:
        """Install a taken batch's chunks as segments of their streams'
        series, in seal order; batches commit in the order they were taken.

        A chunk that failed to encode is recorded in :attr:`errors` and
        installed raw — lossless, so no acknowledged value is dropped and
        the stream's later chunks install behind it.  Writes nothing to
        disk: the store's next checkpoint publishes the segments.  Returns
        the ``(stream, chunk_result)`` pairs.
        """
        installed: list[tuple[str, ChunkResult]] = []
        for (stream, values), outcome in zip(batch, outcomes):
            block = outcome.block
            if not outcome.ok:
                self.errors.append(outcome)
                block = get_codec("raw").encode(values)
            segment = self._store.install(stream, block)
            report = self._reports[stream]
            result = ChunkResult(index=report.chunks, start=segment.start,
                                 block=block)
            _record(report, result)
            installed.append((stream, result))
        return installed

    def flush(self) -> list[tuple[str, ChunkResult]]:
        """Seal every stream's uncut values and drain the whole queue."""
        for name in self._reports:
            self._cut(name, [self._store.length(name)])
        return self.drain()

    # ------------------------------------------------------------------ #
    def results(self, stream: str) -> list[ChunkResult]:
        """Installed chunks of one stream, in stream order."""
        return [ChunkResult(index=index, start=segment.start,
                            block=segment.chunk)
                for index, segment in enumerate(self._segments(stream))]

    def report(self, stream: str) -> StreamReport:
        """Per-stream ingest/compression statistics."""
        if str(stream) not in self._reports:
            raise InvalidParameterError(f"unknown stream {stream!r}")
        return self._reports[str(stream)]

    def reconstruct(self, stream: str) -> np.ndarray:
        """Reconstruction of one stream's installed chunks, in order.

        Values not drained yet are not included; call :meth:`flush` first
        to cover the whole stream.
        """
        segments = self._segments(stream)
        if not segments:
            return np.empty(0, dtype=np.float64)
        return np.concatenate([segment.decode() for segment in segments])

    def _segments(self, stream: str) -> list:
        name = str(stream)
        return self._memory.segments(name) if name in self._reports else []

    def _reopen(self, name: str) -> None:
        """Take up a stream the store already holds.

        Its segments are its installed chunks; every value past them is cut
        into chunks again, at the recorded split boundaries, and queued.
        """
        state = self._memory._state(name)  # noqa: SLF001
        if not state.log:
            # Spooled before the spool became a log: its raw segments stay
            # as installed chunks, and the next checkpoint records the log.
            state.log = True
        if "drained" in self.spool.metadata(name):
            # The values below this watermark were encoded only in the
            # memory of a process that is gone: they are queued again.
            self.spool.update_metadata({name: {"drained": None}})
        report = self._reports[name] = StreamReport(
            ingested_points=state.total_points)
        for result in self.results(name):
            _record(report, result)
        splits = self._splits(name)
        landed = {s for s in splits if s <= state.total_points}
        if landed != splits:
            # Recorded by an add that crashed before its values landed: no
            # gap is there, and values appended later must not be cut at it.
            self._write_splits(name, landed)
        self._cut_at[name] = state.sealed_points
        self._cut(name, sorted(s for s in landed if s > state.sealed_points))

    # ------------------------------------------------------------------ #
    # idempotent ingest
    # ------------------------------------------------------------------ #
    def add_idempotent(self, stream: str, values,
                       key: str) -> tuple[int, bool]:
        """Feed values exactly once per ``key``; returns ``(sealed, dup)``.

        The exactly-once protocol journals an *intent* record — stream,
        series start position, value count — into the reserved
        :data:`IDEMPOTENCY_SERIES` metadata with a fsynced WAL metadata
        record *before* the values are appended to the stream's series.  A
        journaled key is acknowledged as a duplicate without touching the
        stream.  A key whose append fails is taken back out of the journal
        (the caller was told it failed), and the crash window — intent
        durable, append or its applied flag possibly not — is reconciled at
        construction by the landed check ``series length >= start + count``
        (see :meth:`_load_idempotency`); series positions are never reused,
        so a crashed-then-retried ingest is applied exactly once.

        Requires a spool and ``policy=None`` — an input policy may drop
        values from a batch, which would make the landed check ambiguous.
        """
        if self.spool is None:
            raise InvalidParameterError(
                "idempotent ingest requires a spool (pass spool_to=... at "
                "construction)")
        if self.policy is not None:
            raise InvalidParameterError(
                "idempotent ingest requires policy=None: a policy may drop "
                "values from a batch, which breaks the landed check")
        key = str(key)
        if not key:
            raise InvalidParameterError("idempotency key must be non-empty")
        name = str(stream)
        if key in self._idem_keys:
            # Outside this method every journaled entry is applied: a
            # pending one is reconciled when the spool opens and dropped
            # when its append fails.
            return 0, True
        if np.isscalar(values):
            values = [float(values)]
        segment = as_float_array(values, name="values")
        if not segment.size:
            raise InvalidParameterError(
                "idempotent ingest requires at least one value")
        self._stream(name)
        self._idem_seq += 1
        self._idem_keys[key] = {
            "stream": name, "start": int(self.spool.length(name)),
            "count": int(segment.size), "applied": False,
            "seq": self._idem_seq}
        self._idem_dirty.add(key)
        self._evict_idempotency()
        # Intent must be durable before the append it describes.
        self._persist_idempotency()
        try:
            sealed = self.add(name, segment)
        except Exception:
            # The append never landed and the caller is told so: a retry
            # must apply fresh.
            del self._idem_keys[key]
            self._idem_dirty.add(key)
            raise
        self._idem_keys[key]["applied"] = True
        self._idem_dirty.add(key)
        return sealed, False

    def _load_idempotency(self) -> None:
        """Load the journal and reconcile the crash window at open.

        A pending entry whose values landed in the spool covers an append
        that was acknowledged durable but whose applied flag never
        persisted — flip it, the retry must dedupe.  A pending entry whose
        values did not land covers an append that never happened, so the
        original caller was never acknowledged — drop it, the retry
        applies fresh.
        """
        if IDEMPOTENCY_SERIES not in self.spool:
            return
        meta = self.spool.metadata(IDEMPOTENCY_SERIES)
        # "keys" is the layout of spools written before the journal became
        # one metadata entry per key; such a journal is rewritten below.
        entries = dict(meta.get("keys") or {})
        entries.update((name[len(_JOURNAL_KEY):], entry)
                       for name, entry in meta.items()
                       if name.startswith(_JOURNAL_KEY))
        self._idem_seq = int(meta.get("next_seq") or 0)
        legacy = "keys" in meta
        if legacy:
            self._idem_dirty.update(entries)
        for key, entry in entries.items():
            entry = dict(entry)
            if not entry.get("applied"):
                self._idem_dirty.add(key)
                stream = str(entry.get("stream", ""))
                if not (stream in self.spool
                        and self.spool.length(stream)
                        >= int(entry["start"]) + int(entry["count"])):
                    continue
                entry["applied"] = True
            self._idem_keys[str(key)] = entry
        if self._idem_dirty:
            self._persist_idempotency()
        if legacy:
            self.spool.update_metadata({IDEMPOTENCY_SERIES: {"keys": None}})

    def _persist_idempotency(self) -> None:
        """Durably journal every entry that changed: one metadata record."""
        if IDEMPOTENCY_SERIES not in self.spool:
            self.spool.create_series(IDEMPOTENCY_SERIES, codec="raw",
                                     log=True)
        updates = {_JOURNAL_KEY + key: self._idem_keys.get(key)
                   for key in self._idem_dirty}
        updates["next_seq"] = self._idem_seq
        self.spool.update_metadata({IDEMPOTENCY_SERIES: updates})
        self._idem_dirty.clear()

    def _evict_idempotency(self) -> None:
        """Drop the oldest *applied* entries once the journal exceeds cap."""
        excess = len(self._idem_keys) - self._idem_cap
        if excess <= 0:
            return
        applied = sorted(
            (int(entry.get("seq", 0)), key)
            for key, entry in self._idem_keys.items() if entry.get("applied"))
        for _seq, key in applied[:excess]:
            del self._idem_keys[key]
            self._idem_dirty.add(key)

    def close(self) -> None:
        """Persist pending journal flips and close the spool, if any: its
        checkpoint publishes every installed chunk."""
        if self.spool is not None:
            if self._idem_dirty:
                self._persist_idempotency()
            self.spool.close()

    def __enter__(self) -> "MultiStreamCompressor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def concat_irregular(chunks, name: str = "stream") -> IrregularSeries:
    """Concatenate per-chunk irregular series into one global representation.

    The chunks must describe consecutive, non-overlapping ranges in stream
    order (the ``compressed`` views of what
    :meth:`MultiStreamCompressor.results` returns, for point-retaining
    codecs).  Chunk boundary points are always retained, so the
    concatenation reconstructs each chunk independently of its neighbours.
    """
    chunks = list(chunks)
    if not chunks:
        raise InvalidParameterError("at least one chunk is required")
    indices: list[np.ndarray] = []
    values: list[np.ndarray] = []
    offset = 0
    for chunk in chunks:
        if not isinstance(chunk, IrregularSeries):
            raise InvalidParameterError("chunks must be IrregularSeries instances")
        indices.append(chunk.indices + offset)
        values.append(chunk.values)
        offset += chunk.original_length
    return IrregularSeries(
        indices=np.concatenate(indices), values=np.concatenate(values),
        original_length=offset, name=name,
        metadata={"compressor": "CAMEO-streaming", "chunks": len(chunks)})
