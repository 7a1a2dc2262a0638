"""Result containers for the batch-compression engine.

A batch run produces one :class:`SeriesOutcome` per input series — either a
:class:`~repro.codecs.base.CompressedBlock` or a recorded error (one failing
series never kills the batch) — plus an aggregate :class:`BatchReport` with
the fleet-level numbers the ROADMAP cares about: total points/second,
per-codec encoded bits, wall and CPU time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..codecs.base import CompressedBlock
from ..data.timeseries import BITS_PER_VALUE_RAW
from ..exceptions import ReproError

__all__ = ["SeriesOutcome", "BatchReport", "BatchResult"]


@dataclass
class SeriesOutcome:
    """Outcome of compressing one series of a batch.

    Exactly one of :attr:`block` / :attr:`error` is set.  ``index`` is the
    position of the series in the batch input, so ordered collection holds
    regardless of which backend or chunk produced the outcome.
    """

    index: int
    name: str
    length: int
    block: CompressedBlock | None = None
    error: str | None = None
    error_type: str | None = None
    fastpath: str | None = None
    #: ``"serial"`` when the supervisor re-encoded this outcome's quarantined
    #: thread-backend chunk on the serial rung.
    degraded_to: str | None = None

    @property
    def ok(self) -> bool:
        """Whether the series was compressed successfully."""
        return self.block is not None

    def unwrap(self) -> CompressedBlock:
        """The compressed block, raising the recorded error if there is none."""
        if self.block is None:
            raise ReproError(
                f"series {self.name!r} (index {self.index}) failed: "
                f"{self.error_type}: {self.error}")
        return self.block


@dataclass
class BatchReport:
    """Aggregate accounting over one engine run."""

    codec: str
    backend: str
    workers: int
    series: int = 0
    failed: int = 0
    total_points: int = 0
    encoded_bits: int = 0
    chunks: int = 0
    fastpath_series: int = 0
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    # Supervisor accounting (see repro.engine.supervisor.SupervisorStats).
    retries: int = 0
    timeouts: int = 0
    quarantined_chunks: int = 0
    degraded_chunks: int = 0
    degraded_series: int = 0
    #: Series whose input was modified by the input policy (dropped values,
    #: reordering, casts) before compression.
    sanitized_series: int = 0

    @property
    def points_per_sec(self) -> float:
        """Successfully compressed raw points per wall-clock second."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.total_points / self.wall_seconds

    @property
    def bits_per_value(self) -> float:
        """Encoded bits per successfully compressed raw value."""
        return self.encoded_bits / float(max(self.total_points, 1))

    @property
    def compression_ratio(self) -> float:
        """Raw float64 bits over encoded bits, across the whole batch."""
        return (self.total_points * BITS_PER_VALUE_RAW) / float(max(self.encoded_bits, 1))

    def as_dict(self) -> dict:
        return {
            "codec": self.codec,
            "backend": self.backend,
            "workers": self.workers,
            "series": self.series,
            "failed": self.failed,
            "total_points": self.total_points,
            "encoded_bits": self.encoded_bits,
            "chunks": self.chunks,
            "fastpath_series": self.fastpath_series,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "quarantined_chunks": self.quarantined_chunks,
            "degraded_chunks": self.degraded_chunks,
            "degraded_series": self.degraded_series,
            "sanitized_series": self.sanitized_series,
            "points_per_sec": self.points_per_sec,
            "bits_per_value": self.bits_per_value,
            "compression_ratio": self.compression_ratio,
        }


@dataclass
class BatchResult:
    """Everything a batch run returns: ordered outcomes plus the report."""

    outcomes: list[SeriesOutcome] = field(default_factory=list)
    report: BatchReport | None = None

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    def __getitem__(self, index: int) -> SeriesOutcome:
        return self.outcomes[index]

    def blocks(self) -> list[CompressedBlock]:
        """Blocks of every successful series, in input order (raises on errors)."""
        return [outcome.unwrap() for outcome in self.outcomes]

    def errors(self) -> list[SeriesOutcome]:
        """The failed outcomes, in input order."""
        return [outcome for outcome in self.outcomes if not outcome.ok]
