"""Sealed storage segments and their pruning summaries.

A :class:`Segment` couples a :class:`repro.codecs.CompressedBlock` with
its global position inside a series and a small :class:`SegmentSummary` of
the *reconstruction*.  The summary is computed once, when the segment is
sealed, so aggregate queries over fully covered segments never need to decode
them again (aggregate pushdown), and range queries can skip segments outside
the requested window (pruning).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codecs import Codec, CompressedBlock
from ..exceptions import StorageError

__all__ = ["SegmentSummary", "Segment"]


@dataclass(frozen=True)
class SegmentSummary:
    """Aggregates of a segment's reconstruction, used for query pushdown."""

    count: int
    minimum: float
    maximum: float
    total: float

    @property
    def mean(self) -> float:
        """Mean of the reconstructed segment values."""
        return self.total / float(self.count) if self.count else 0.0

    @classmethod
    def from_values(cls, values: np.ndarray) -> "SegmentSummary":
        """Summarise a reconstructed value chunk."""
        if values.size == 0:
            raise StorageError("cannot summarise an empty segment")
        return cls(count=int(values.size), minimum=float(np.min(values)),
                   maximum=float(np.max(values)), total=float(np.sum(values)))


class Segment:
    """A sealed, immutable run of consecutive values of one series."""

    __slots__ = ("start", "length", "end", "chunk", "summary", "_codec")

    def __init__(self, start: int, chunk: CompressedBlock, codec: Codec,
                 summary: SegmentSummary | None = None):
        if start < 0:
            raise StorageError("segment start must be >= 0")
        if chunk.length <= 0:
            raise StorageError("segment must contain at least one value")
        #: Geometry, fixed at seal time: ``length`` original values covering
        #: the global positions ``[start, end)``.
        self.start = int(start)
        self.length = int(chunk.length)
        self.end = self.start + self.length
        self.chunk = chunk
        self._codec = codec
        if summary is None:
            summary = SegmentSummary.from_values(codec.decode(chunk))
        self.summary = summary

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #
    def contains(self, position: int) -> bool:
        """Whether the global ``position`` falls inside this segment."""
        return self.start <= position < self.end

    def overlaps(self, start: int, stop: int) -> bool:
        """Whether the segment intersects the half-open range ``[start, stop)``."""
        return self.start < stop and start < self.end

    def covered_by(self, start: int, stop: int) -> bool:
        """Whether ``[start, stop)`` fully contains the segment."""
        return start <= self.start and self.end <= stop

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def bits(self) -> int:
        """Encoded size of the segment in bits."""
        return int(self.chunk.bits)

    def decode(self) -> np.ndarray:
        """Reconstruct all values of the segment."""
        values = self._codec.decode(self.chunk)
        if values.size != self.length:
            raise StorageError(
                f"codec {self._codec.name!r} returned {values.size} values, "
                f"expected {self.length}")
        return values

    def slice(self, start: int, stop: int) -> np.ndarray:
        """Reconstructed values of the global range ``[start, stop)`` ∩ segment.

        The codec is asked for the values up to the local stop only
        (:meth:`~repro.codecs.Codec.decode_prefix`).
        """
        if not self.overlaps(start, stop):
            return np.empty(0, dtype=np.float64)
        local_start = max(start, self.start) - self.start
        return self._decode_prefix(min(stop, self.end) - self.start)[local_start:]

    def value_at(self, position: int) -> float:
        """Reconstructed value at one global position."""
        if not self.contains(position):
            raise StorageError(
                f"position {position} outside segment [{self.start}, {self.end})")
        return float(self._decode_prefix(position - self.start + 1)[-1])

    def _decode_prefix(self, count: int) -> np.ndarray:
        """The segment's first ``count`` reconstructed values: one codec call."""
        if count == self.length:
            # the whole segment: the codec's own decode, as for decode()
            return self.decode()
        values = self._codec.decode_prefix(self.chunk, count)
        if values.size != count:
            raise StorageError(
                f"codec {self._codec.name!r} returned {values.size} values, "
                f"expected {count}")
        return values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Segment(start={self.start}, length={self.length}, "
                f"codec={self.chunk.codec!r}, bits={self.bits()})")
