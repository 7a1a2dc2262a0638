"""An in-process, compression-aware time series store.

The store keeps one catalog entry per series.  Appended values accumulate in
a small write buffer; once the buffer reaches the series' segment size it is
*sealed*: encoded with the series' codec (CAMEO, a baseline, or a lossless
codec) and turned into an immutable :class:`repro.storage.segment.Segment`.
This mirrors how time series databases (the paper's motivating setting)
organise data into compressed blocks, and lets the benchmarks compare the
storage footprint of every method under identical ingest conditions.

Main operations
---------------
* :meth:`TimeSeriesStore.create_series` / :meth:`drop_series`
* :meth:`TimeSeriesStore.append` — buffered ingest with automatic sealing
* :meth:`TimeSeriesStore.flush` — seal a partial buffer
* :meth:`TimeSeriesStore.install` — seal a log series' oldest values as a
  block encoded elsewhere
* :meth:`TimeSeriesStore.read` — reconstruct a value range
* :meth:`TimeSeriesStore.info` — per-series footprint (Table 2 style)
* :meth:`TimeSeriesStore.compact` — re-encode a series with another codec
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .._validation import as_float_array, check_positive_int
from ..codecs import Codec, get_codec
from ..data.timeseries import BITS_PER_VALUE_RAW
from ..exceptions import InvalidParameterError, SeriesNotFoundError, StorageError
from .segment import Segment

__all__ = ["SeriesInfo", "TimeSeriesStore", "DEFAULT_SEGMENT_SIZE"]

#: Default number of values per sealed segment.
DEFAULT_SEGMENT_SIZE = 1_024

#: The bisect key of a range read's first segment (built once, not per read).
_segment_start = attrgetter("start")


@dataclass
class SeriesInfo:
    """Footprint and layout summary of one stored series."""

    name: str
    codec: str
    points: int
    sealed_points: int
    buffered_points: int
    segments: int
    encoded_bits: int
    raw_bits: int
    metadata: dict = field(default_factory=dict)

    @property
    def bits_per_value(self) -> float:
        """Bits of storage per ingested value (buffered values count as raw)."""
        return self.encoded_bits / float(max(self.points, 1))

    @property
    def compression_ratio(self) -> float:
        """Raw storage bits over actual storage bits."""
        return self.raw_bits / float(max(self.encoded_bits, 1))


@dataclass
class _SeriesState:
    """Internal catalog entry."""

    name: str
    codec: Codec
    segment_size: int
    segments: list[Segment] = field(default_factory=list)
    buffer: list[float] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    #: Position ranges lost to quarantined (corrupt) segments — recorded by
    #: durable-store recovery as ``{"start", "length", "file", "reason"}``.
    #: Reads overlapping a hole raise instead of silently skipping it.
    holes: list[dict] = field(default_factory=list)
    #: A log series never seals its buffer itself: values stay buffered
    #: until :meth:`TimeSeriesStore.install` seals them as a given block.
    log: bool = False

    @property
    def sealed_points(self) -> int:
        """Global position one past the last sealed (or quarantined) value.

        Segments and holes tile ``[0, sealed_points)`` — sealing only
        appends at the end, and the durable store checks the tiling at open
        — so this is the end of the last piece, found without a walk.
        """
        end = self.segments[-1].end if self.segments else 0
        for hole in self.holes:
            end = max(end, int(hole["start"]) + int(hole["length"]))
        return end

    @property
    def total_points(self) -> int:
        return self.sealed_points + len(self.buffer)

    def first_segment_reaching(self, position: int) -> int:
        """Index of the segment holding ``position``, or the next one after.

        Segments are in position order (holes leave gaps between them), so
        the segment whose start is the last one ``<= position`` is the only
        one that can hold it; a range read starts its walk there.
        """
        index = bisect_right(self.segments, position, key=_segment_start)
        return index - 1 if index else 0

    def refuse_holes(self, start: int, stop: int) -> None:
        """Raise if ``[start, stop)`` overlaps a quarantine hole."""
        for hole in self.holes:
            hole_start = int(hole["start"])
            if hole_start < stop and start < hole_start + int(hole["length"]):
                raise StorageError(
                    f"range [{start}, {stop}) of series {self.name!r} overlaps "
                    f"the quarantined segment {hole.get('file', '?')} "
                    f"[{hole.get('reason', 'corrupt')}]; the data was corrupt "
                    "and is preserved in the store's quarantine/ directory")


class TimeSeriesStore:
    """In-memory, segment-oriented storage engine with pluggable codecs."""

    def __init__(self, *, default_segment_size: int = DEFAULT_SEGMENT_SIZE):
        self.default_segment_size = check_positive_int(
            default_segment_size, "default_segment_size")
        self._catalog: dict[str, _SeriesState] = {}

    # ------------------------------------------------------------------ #
    # catalog management
    # ------------------------------------------------------------------ #
    def create_series(self, name: str, codec="cameo", *, segment_size: int | None = None,
                      codec_options: dict | None = None, metadata: dict | None = None,
                      log: bool = False) -> None:
        """Register a new series.

        ``codec`` is either a registered codec name (``codec_options`` are
        forwarded to :func:`repro.codecs.get_codec`) or a
        :class:`~repro.codecs.Codec` instance.  A ``log`` series never
        seals: see :meth:`install`.
        """
        name = self._valid_name(name)
        if name in self._catalog:
            raise StorageError(f"series {name!r} already exists")
        if isinstance(codec, Codec):
            codec_instance = codec
            if codec_options:
                raise InvalidParameterError(
                    "codec_options only apply when codec is given by name")
        else:
            codec_instance = get_codec(str(codec), **(codec_options or {}))
        segment_size = (self.default_segment_size if segment_size is None
                        else check_positive_int(segment_size, "segment_size"))
        self._catalog[name] = _SeriesState(
            name=name, codec=codec_instance, segment_size=segment_size,
            metadata=dict(metadata or {}), log=bool(log))

    def drop_series(self, name: str) -> None:
        """Remove a series and all its segments."""
        self._state(name)
        del self._catalog[name]

    def list_series(self) -> list[str]:
        """Names of all stored series, sorted alphabetically."""
        return sorted(self._catalog)

    def __contains__(self, name: str) -> bool:
        return str(name) in self._catalog

    def __len__(self) -> int:
        return len(self._catalog)

    # ------------------------------------------------------------------ #
    # ingest
    # ------------------------------------------------------------------ #
    def append(self, name: str, values) -> int:
        """Append values to a series, sealing full segments along the way.

        Returns the number of segments sealed by this call (always 0 for a
        log series).  Scalars and iterables are both accepted.
        """
        state = self._state(name)
        if np.isscalar(values):
            values = [float(values)]
        values = as_float_array(values, name="values")
        state.buffer.extend(values.tolist())
        if state.log:
            return 0
        sealed = 0
        while len(state.buffer) >= state.segment_size:
            chunk_values = np.asarray(state.buffer[: state.segment_size], dtype=np.float64)
            del state.buffer[: state.segment_size]
            self._seal(state, chunk_values)
            sealed += 1
        return sealed

    def flush(self, name: str | None = None) -> int:
        """Seal any buffered values into (possibly short) segments.

        Flushes one series, or every series when ``name`` is ``None``; a
        log series keeps its buffer.  Returns the number of segments sealed.
        """
        names = [name] if name is not None else self.list_series()
        sealed = 0
        for series_name in names:
            state = self._state(series_name)
            if not state.buffer or state.log:
                continue
            chunk_values = np.asarray(state.buffer, dtype=np.float64)
            state.buffer.clear()
            self._seal(state, chunk_values)
            sealed += 1
        return sealed

    def _seal(self, state: _SeriesState, values: np.ndarray) -> None:
        chunk = state.codec.encode(values)
        if chunk.length != values.size:
            raise StorageError(
                f"codec {state.codec.name!r} encoded {chunk.length} values, "
                f"expected {values.size}")
        state.segments.append(Segment(state.sealed_points, chunk, state.codec))

    def install(self, name: str, block) -> Segment:
        """Seal the oldest ``block.length`` buffered values of a log series
        as ``block``, which encodes them; returns the new segment.

        The block was encoded elsewhere (the ingest drainer encodes outside
        every lock), so the store only checks its geometry.  A block whose
        codec differs from the series' (a raw fallback for a chunk that
        failed to encode) decodes with its own codec.
        """
        state = self._state(name)
        if not state.log:
            raise StorageError(
                f"series {state.name!r} is not a log: it seals itself")
        length = int(block.length)
        if not 0 < length <= len(state.buffer):
            raise StorageError(
                f"cannot install a {length}-value block over the "
                f"{len(state.buffer)} buffered values of {state.name!r}")
        codec = (state.codec if block.codec == state.codec.name
                 else get_codec(block.codec))
        segment = Segment(state.sealed_points, block, codec)
        if segment.summary.count != length:
            raise StorageError(
                f"block claims {length} values of {state.name!r} but "
                f"decodes to {segment.summary.count}")
        del state.buffer[:length]
        state.segments.append(segment)
        return segment

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def length(self, name: str) -> int:
        """Number of ingested values (sealed + buffered)."""
        return self._state(name).total_points

    def segments(self, name: str) -> list[Segment]:
        """The sealed segments of a series, in position order."""
        return list(self._state(name).segments)

    def read(self, name: str, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Reconstruct the values of ``[start, stop)`` (default: everything).

        Lossy codecs return the reconstruction of their compressed segments;
        buffered (not yet sealed) values are returned verbatim.
        """
        state = self._state(name)
        sealed_points = state.sealed_points
        start, stop = self._resolve_range(start, stop,
                                          sealed_points + len(state.buffer))
        if start >= stop:
            return np.empty(0, dtype=np.float64)
        state.refuse_holes(start, stop)

        pieces: list[np.ndarray] = []
        segments = state.segments
        for index in range(state.first_segment_reaching(start), len(segments)):
            segment = segments[index]
            if segment.start >= stop:
                break
            if segment.overlaps(start, stop):
                pieces.append(segment.slice(start, stop))
        if stop > sealed_points and state.buffer:
            buffer_start = max(start, sealed_points) - sealed_points
            buffer_stop = stop - sealed_points
            pieces.append(np.asarray(state.buffer[buffer_start:buffer_stop],
                                     dtype=np.float64))
        if not pieces:
            return np.empty(0, dtype=np.float64)
        # Every piece is a fresh array (a decode or a copy of the buffer),
        # so a lone piece is returned as is: the caller owns it.
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    def value_at(self, name: str, position: int) -> float:
        """Reconstructed value at a single global position."""
        state = self._state(name)
        sealed_points = state.sealed_points
        total = sealed_points + len(state.buffer)
        if not 0 <= position < total:
            raise StorageError(f"position {position} out of range [0, {total})")
        if position >= sealed_points:
            return float(state.buffer[position - sealed_points])
        state.refuse_holes(position, position + 1)
        segment = state.segments[state.first_segment_reaching(position)]
        return segment.value_at(position)

    # ------------------------------------------------------------------ #
    # maintenance and reporting
    # ------------------------------------------------------------------ #
    def info(self, name: str) -> SeriesInfo:
        """Footprint summary of one series (bits/value, compression ratio)."""
        state = self._state(name)
        encoded_bits = sum(segment.bits() for segment in state.segments)
        buffered_bits = len(state.buffer) * BITS_PER_VALUE_RAW
        total_points = state.total_points
        return SeriesInfo(
            name=state.name, codec=state.codec.name, points=total_points,
            sealed_points=state.sealed_points, buffered_points=len(state.buffer),
            segments=len(state.segments), encoded_bits=encoded_bits + buffered_bits,
            raw_bits=total_points * BITS_PER_VALUE_RAW, metadata=dict(state.metadata))

    def compact(self, name: str, *, codec=None, codec_options: dict | None = None,
                segment_size: int | None = None) -> SeriesInfo:
        """Re-encode a series, optionally with a different codec or segment size.

        All sealed segments are decoded and re-ingested through the (new)
        codec in segments of the (new) segment size.  The write buffer is
        flushed first so the compacted series covers every ingested value.
        Note that re-encoding a lossy codec's reconstruction does not recover
        information lost at ingest time.
        """
        state = self._state(name)
        self.flush(name)
        values = self.read(name)
        if codec is None:
            new_codec = state.codec
            if codec_options:
                raise InvalidParameterError(
                    "codec_options require an explicit codec name")
        elif isinstance(codec, Codec):
            new_codec = codec
        else:
            new_codec = get_codec(str(codec), **(codec_options or {}))
        new_size = (state.segment_size if segment_size is None
                    else check_positive_int(segment_size, "segment_size"))

        state.codec = new_codec
        state.segment_size = new_size
        state.segments = []
        state.buffer = []
        if values.size:
            self.append(name, values)
            self.flush(name)
        return self.info(name)

    def total_bits(self) -> int:
        """Encoded bits across every series (buffered values count as raw)."""
        return sum(self.info(name).encoded_bits for name in self.list_series())

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _state(self, name: str) -> _SeriesState:
        try:
            return self._catalog[str(name)]
        except KeyError as exc:
            raise SeriesNotFoundError(f"series {name!r} does not exist") from exc

    @staticmethod
    def _valid_name(name) -> str:
        name = str(name).strip()
        if not name:
            raise InvalidParameterError("series name must not be empty")
        return name

    @staticmethod
    def _resolve_range(start: int, stop: int | None, total: int) -> tuple[int, int]:
        if start < 0 or (stop is not None and stop < 0):
            raise StorageError("start and stop must be non-negative")
        # compares rather than min(): this runs once per range read
        stop = total if stop is None or stop > total else int(stop)
        return (total if start > total else int(start)), stop
