"""Chunked (streaming) compression for unbounded streams.

The offline algorithms need a full series; for streams,
:class:`StreamingCompressor` buffers values into fixed-size chunks and
encodes each sealed chunk independently with **any registered codec**
(:mod:`repro.codecs`) — the same local-budget idea as the paper's
coarse-grained parallelization (Section 4.4), applied over time instead of
over threads.

:class:`StreamingCameoCompressor` is the CAMEO specialization (and the
historical entry point): each chunk's ACF deviation is bounded by
``epsilon``, so the autocorrelation structure within every chunk is
preserved; chunk boundaries are always retained points, so reconstructions
of adjacent chunks join exactly.

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
from ..codecs import CameoCodec, Codec, CompressedBlock, get_codec
from ..data.timeseries import BITS_PER_VALUE_RAW, IrregularSeries
from ..exceptions import InvalidParameterError, InvalidSeriesError
from ..sanitize import InputPolicy, sanitize
from .online_acf import OnlineAcfEstimator

__all__ = [
    "ChunkResult",
    "IDEMPOTENCY_SERIES",
    "StreamReport",
    "StreamingCompressor",
    "StreamingCameoCompressor",
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
        verbatim blocks (which become identity representations); other
        codecs raise :class:`~repro.exceptions.InvalidParameterError`.
        """
        payload = self.block.payload
        if isinstance(payload, IrregularSeries):
            return payload
        if isinstance(payload, np.ndarray) and payload.size >= 2:
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


def _policy_segments(values, timestamps, policy: InputPolicy):
    """Sanitize one ``add()`` batch; returns ``(segments, sanitize report)``.

    The segments come back in stream order.  A batch with recorded segment
    boundaries (NaN runs under ``split``, timestamp gaps under ``split``)
    comes back as multiple segments — the caller seals its buffer between
    them so no sealed chunk ever bridges a gap.
    """
    result = sanitize(values, policy, timestamps=timestamps, name="values")
    if result.segment_starts:
        return np.split(result.values, result.segment_starts), result.report
    return [result.values], result.report


def _account_policy(report: StreamReport, record) -> None:
    """Add one sanitized batch's counters to the stream report."""
    report.ingested_points += record.original_length
    report.dropped_points += record.dropped_nan + record.dropped_inf
    report.nan_runs += len(record.nan_runs)
    if record.sorted:
        report.reordered_adds += 1
    report.gaps += record.gaps


def _record(report: StreamReport, result: ChunkResult) -> None:
    """Add one sealed chunk to the stream report."""
    report.chunks += 1
    report.sealed_points += result.length
    report.kept_points += result.kept_points
    report.encoded_bits += result.block.bits
    deviation = result.achieved_deviation
    report.chunk_deviations.append(deviation)
    report.worst_chunk_deviation = max(report.worst_chunk_deviation, deviation)


class StreamingCompressor:
    """Compress an unbounded stream chunk-by-chunk with any registered codec.

    Parameters
    ----------
    chunk_size:
        Values per sealed chunk.
    codec:
        A registered codec name (``codec_options`` are forwarded to
        :func:`repro.codecs.get_codec`) or a ready
        :class:`repro.codecs.Codec` instance.  Defaults to ``"cameo"``;
        for CAMEO-specific ergonomics (``max_lag``/``epsilon`` up front,
        global ACF tracking) prefer :class:`StreamingCameoCompressor`.
    codec_options:
        Keyword arguments for the registry factory when ``codec`` is a name.
    track_acf_lags:
        When set, an :class:`OnlineAcfEstimator` with that many lags follows
        the raw stream so :meth:`global_acf` can report the reference ACF of
        all data seen so far without retaining it.
    policy:
        Optional :class:`~repro.sanitize.InputPolicy` applied to every
        :meth:`add` batch.  Required for timestamp-aware ingestion; split
        boundaries (NaN runs, timestamp gaps) seal the buffer so no chunk
        bridges a gap.  ``None`` (default) keeps the historical
        raise-on-hostile behaviour and a bit-identical clean-input path.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.streaming import StreamingCompressor
    >>> stream = StreamingCompressor(chunk_size=256, codec="gorilla")
    >>> x = np.sin(np.arange(1000) * 2 * np.pi / 24)
    >>> chunks = stream.add(x) + stream.flush()
    >>> sum(c.length for c in chunks)
    1000
    >>> np.array_equal(stream.reconstruct(), x)
    True
    """

    def __init__(self, chunk_size: int, codec="cameo", *,
                 codec_options: dict | None = None,
                 track_acf_lags: int | None = None,
                 policy: InputPolicy | None = None):
        self.chunk_size = check_positive_int(chunk_size, "chunk_size")
        if policy is not None and not isinstance(policy, InputPolicy):
            raise InvalidParameterError(
                f"policy must be an InputPolicy or None, got {type(policy).__name__}")
        self.policy = policy
        if isinstance(codec, Codec):
            if codec_options:
                raise InvalidParameterError(
                    "codec_options only apply when codec is given by name")
            self.codec = codec
        else:
            self.codec = get_codec(str(codec), **(codec_options or {}))
        self._buffer: list[float] = []
        self._results: list[ChunkResult] = []
        self._report = StreamReport()
        self._estimator = None
        if track_acf_lags is not None:
            self._estimator = OnlineAcfEstimator(
                check_positive_int(track_acf_lags, "track_acf_lags"))

    # ------------------------------------------------------------------ #
    # ingest
    # ------------------------------------------------------------------ #
    def add(self, values, timestamps=None) -> list[ChunkResult]:
        """Feed values into the stream; returns chunks sealed by this call.

        With an :class:`~repro.sanitize.InputPolicy` configured, hostile
        input is handled per the policy (and ``timestamps`` enable the
        ordering/gap policies); recorded split boundaries seal the buffer
        early so no sealed chunk bridges a NaN run or timestamp gap.
        """
        if np.isscalar(values):
            values = [float(values)]
        if self.policy is None:
            if timestamps is not None:
                raise InvalidParameterError(
                    "timestamps require an input policy (pass policy=... "
                    "to enable timestamp-aware ingestion)")
            segments = [as_float_array(values, name="values")]
            self._report.ingested_points += segments[0].size
        else:
            segments, record = _policy_segments(values, timestamps,
                                                self.policy)
            _account_policy(self._report, record)

        sealed: list[ChunkResult] = []
        for position, segment in enumerate(segments):
            if position:
                # Segment boundary (NaN run / timestamp gap): seal whatever
                # is buffered so no chunk bridges the gap.
                sealed.extend(self.flush())
            if segment.size == 0:
                continue
            if self._estimator is not None:
                self._estimator.update(segment)
            self._buffer.extend(segment.tolist())
            while len(self._buffer) >= self.chunk_size:
                chunk_values = np.asarray(self._buffer[: self.chunk_size],
                                          dtype=np.float64)
                del self._buffer[: self.chunk_size]
                sealed.append(self._seal(chunk_values))
        return sealed

    def flush(self) -> list[ChunkResult]:
        """Seal whatever remains in the buffer (possibly a short chunk).

        Returns an empty list when nothing is buffered.
        """
        if not self._buffer:
            return []
        chunk_values = np.asarray(self._buffer, dtype=np.float64)
        self._buffer.clear()
        return [self._seal(chunk_values)]

    def finalize(self) -> list[ChunkResult]:
        """Alias of :meth:`flush` (the historical streaming name)."""
        return self.flush()

    def _seal(self, values: np.ndarray) -> ChunkResult:
        start = self._report.sealed_points
        block = self.codec.encode(values)
        result = ChunkResult(index=len(self._results), start=start, block=block)
        self._results.append(result)
        _record(self._report, result)
        return result

    # ------------------------------------------------------------------ #
    # inspection and reconstruction
    # ------------------------------------------------------------------ #
    @property
    def results(self) -> list[ChunkResult]:
        """All sealed chunks, in stream order."""
        return list(self._results)

    def report(self) -> StreamReport:
        """Aggregate ingest/compression statistics so far."""
        return self._report

    def global_acf(self) -> np.ndarray:
        """Exact ACF of the raw stream observed so far (needs tracking enabled)."""
        if self._estimator is None:
            raise InvalidParameterError(
                "global ACF tracking was not enabled (set track_acf_lags)")
        return self._estimator.acf()

    def decode_chunk(self, result: ChunkResult) -> np.ndarray:
        """Reconstruct one sealed chunk through the stream's codec."""
        return self.codec.decode(result.block)

    def reconstruct(self) -> np.ndarray:
        """Reconstruction of every *sealed* value, in stream order.

        Buffered (not yet sealed) values are not included; call
        :meth:`flush` first to cover the whole stream.
        """
        if not self._results:
            return np.empty(0, dtype=np.float64)
        return np.concatenate([self.decode_chunk(result) for result in self._results])

    def to_irregular(self, name: str = "stream") -> IrregularSeries:
        """Stitch every sealed chunk into one irregular series.

        Only meaningful for point-retaining codecs (see
        :attr:`ChunkResult.compressed`).
        """
        return concat_irregular([result.compressed for result in self._results],
                                name=name)


class StreamingCameoCompressor(StreamingCompressor):
    """CAMEO streaming: per-chunk ACF/PACF bound over an unbounded stream.

    Parameters
    ----------
    chunk_size:
        Values per sealed chunk.  Must comfortably exceed ``max_lag`` (at
        least twice), otherwise the per-chunk ACF is meaningless.
    max_lag, epsilon, **cameo_options:
        Forwarded to :class:`repro.core.CameoCompressor` for every chunk.
    track_global_acf:
        When ``True`` (default) the raw stream's ACF over ``max_lag`` lags
        is tracked online (see :meth:`StreamingCompressor.global_acf`).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.streaming import StreamingCameoCompressor
    >>> stream = StreamingCameoCompressor(chunk_size=256, max_lag=24, epsilon=0.05)
    >>> x = np.sin(np.arange(1000) * 2 * np.pi / 24)
    >>> chunks = stream.add(x) + stream.finalize()
    >>> sum(c.length for c in chunks)
    1000
    """

    def __init__(self, chunk_size: int, max_lag: int, epsilon: float | None = 0.01, *,
                 track_global_acf: bool = True,
                 policy: InputPolicy | None = None, **cameo_options):
        chunk_size = check_positive_int(chunk_size, "chunk_size")
        self.max_lag = check_positive_int(max_lag, "max_lag")
        if chunk_size < 2 * self.max_lag:
            raise InvalidParameterError(
                "chunk_size should be at least twice max_lag "
                f"(got chunk_size={chunk_size}, max_lag={self.max_lag})")
        self.epsilon = epsilon
        super().__init__(
            chunk_size,
            codec=CameoCodec(self.max_lag, epsilon, **cameo_options),
            track_acf_lags=self.max_lag if track_global_acf else None,
            policy=policy)

    def flush(self) -> list[ChunkResult]:
        if len(self._buffer) == 1:
            raise InvalidSeriesError(
                "cannot seal a final chunk with fewer than two values; "
                "feed at least two values before finalizing")
        return super().flush()


class MultiStreamCompressor:
    """Many concurrent streams, compressed through the batch engine.

    An ingest tier rarely serves one stream: a gateway handles hundreds of
    sensors at once, and sealing each stream's chunks independently wastes
    both parallel hardware and the engine's stacked XOR encode.  This
    class cuts every stream into chunks and encodes *all* queued chunks —
    across every stream — in batched :class:`repro.engine.BatchEngine`
    passes: same-length lossless chunks stack through the XOR batch
    encoder, and the thread backend spreads the work over cores.

    Chunks are sealed exactly like :class:`StreamingCompressor` seals them
    (same values, same codec), so every chunk's block is identical to the
    single-stream result; only the execution is batched.

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
    backend, workers, fastpath, timeout, retries, on_degrade:
        Engine execution and fault-handling knobs (see
        :class:`repro.engine.BatchEngine`).
    policy:
        Optional :class:`~repro.sanitize.InputPolicy` applied per
        :meth:`add` batch, exactly as in :class:`StreamingCompressor`.
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
                 codec_options: dict | None = None, backend: str = "serial",
                 workers: int | None = None, fastpath: bool = True,
                 timeout: float | None = None, retries: int = 1,
                 on_degrade: str = "degrade",
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
        self.engine = BatchEngine(codec, codec_options=codec_options,
                                  backend=backend, workers=workers,
                                  fastpath=fastpath, timeout=timeout,
                                  retries=retries, on_degrade=on_degrade)
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
        record = None
        if self.policy is None:
            if timestamps is not None:
                raise InvalidParameterError(
                    "timestamps require an input policy (pass policy=... "
                    "to enable timestamp-aware ingestion)")
            segments = [as_float_array(values, name="values")]
        else:
            segments, record = _policy_segments(values, timestamps,
                                                self.policy)
        boundaries = []
        if len(segments) > 1:
            boundaries = (self._store.length(name) + np.cumsum(
                [segment.size for segment in segments[:-1]])).tolist()
            if self.spool is not None:
                self._record_splits(name, boundaries)
        batch = segments[0] if len(segments) == 1 else np.concatenate(segments)
        if batch.size:
            self._store.append(name, batch)
        # Account only now: an append the store refused was never ingested.
        if record is None:
            report.ingested_points += batch.size
        else:
            _account_policy(report, record)
        return self._cut(name, boundaries)

    def _record_splits(self, name: str, boundaries) -> None:
        """Durably record an add's split boundaries before its values: a
        reopen must cut its chunks at the same positions.

        Boundaries at or below the series' published end are pruned: a
        reopen never cuts there again.  (Installed chunks past it are not
        durable yet — a crash hands their values back raw to be cut anew.)
        """
        published = self.spool.published_points(name)
        splits = {int(s) for s in self.spool.metadata(name).get("splits", [])}
        splits.update(boundaries)
        self.spool.update_metadata({name: {"splits": sorted(
            s for s in splits if s > published)}})

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
        meta = self.spool.metadata(name)
        if "drained" in meta:
            # The values below this watermark were encoded only in the
            # memory of a process that is gone: they are queued again.
            self.spool.update_metadata({name: {"drained": None}})
        report = self._reports[name] = StreamReport(
            ingested_points=state.total_points)
        for result in self.results(name):
            _record(report, result)
        self._cut_at[name] = state.sealed_points
        self._cut(name, sorted(
            s for s in map(int, meta.get("splits", []))
            if state.sealed_points < s <= report.ingested_points))

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
    order (exactly what the streaming compressors produce for point-retaining
    codecs).  Chunk boundary points are always retained, so the concatenation
    reconstructs each chunk independently of its neighbours.
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
