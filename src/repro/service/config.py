"""Service configuration: one validated, frozen bundle of knobs."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..codecs import codec_spec
from ..engine.supervisor import resolve_workers
from ..exceptions import InvalidParameterError

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a :class:`~repro.service.server.CompressionService` needs.

    Parameters
    ----------
    host, port:
        Bind address (``port=0`` picks a free port; read it back from
        :attr:`~repro.service.server.CompressionService.port`).
    workers:
        Job-executor threads consuming the admission queue.
    queue_depth:
        Hard cap on queued jobs.  ``high_watermark`` (default: 75 % of the
        depth) enters shedding mode, ``low_watermark`` (default: 50 %)
        leaves it — hysteresis so the service does not flap at the edge.
    per_tenant_inflight:
        Maximum admitted-but-unfinished jobs per ``X-Tenant`` value.
    default_deadline, max_deadline:
        Request budget in seconds when the client sends none, and the cap
        applied to whatever the client asks for.
    drain_timeout:
        Graceful-drain budget: queued jobs get this long to finish before
        the remainder is shed.
    codec:
        Default codec for ``/compress`` requests and the ingest pipeline.
    chunk_size:
        Values per sealed ingest chunk (see
        :class:`~repro.streaming.MultiStreamCompressor`).
    backend, engine_workers, chunk_timeout, retries:
        Engine execution knobs for ``/compress`` jobs.  The default
        ``thread`` backend keeps per-chunk waits preemptible, which is what
        lets a deadline cut a slow chunk loose.
    store:
        Optional durable-store directory enabling ``/ingest`` spooling and
        idempotency journaling.  ``spool_fsync`` is its WAL fsync policy.
    drain_batch:
        Pending sealed ingest chunks that wake the background drainer; it
        encodes whole multiples of this many at a time, and ``/ingest``
        jobs wait for it beyond
        :data:`~repro.service.server.BACKLOG_BATCHES` times as many.
    breaker_threshold, breaker_cooldown:
        Consecutive degraded runs that open a codec's circuit breaker, and
        the seconds before a half-open probe is allowed.
    max_body_bytes:
        Request-body size cap (413 beyond it — bounded memory, always).
    """

    host: str = "127.0.0.1"
    port: int = 8765
    workers: int = 2
    queue_depth: int = 64
    high_watermark: int | None = None
    low_watermark: int | None = None
    per_tenant_inflight: int = 8
    default_deadline: float = 30.0
    max_deadline: float = 300.0
    drain_timeout: float = 10.0
    codec: str = "gorilla"
    codec_options: dict = field(default_factory=dict)
    chunk_size: int = 256
    backend: str = "thread"
    engine_workers: int | None = None
    chunk_timeout: float | None = 10.0
    retries: int = 1
    store: str | None = None
    spool_fsync: str = "always"
    drain_batch: int = 8
    breaker_threshold: int = 3
    breaker_cooldown: float = 5.0
    max_body_bytes: int = 8 << 20

    def __post_init__(self):
        codec_spec(self.codec)  # validates the default codec name early
        resolve_workers(self.backend, self.engine_workers)  # and the engine's
        for name in ("workers", "queue_depth", "per_tenant_inflight",
                     "chunk_size", "drain_batch", "breaker_threshold",
                     "max_body_bytes"):
            if int(getattr(self, name)) < 1:
                raise InvalidParameterError(
                    f"{name} must be >= 1, got {getattr(self, name)!r}")
        for name in ("default_deadline", "max_deadline", "breaker_cooldown"):
            if not float(getattr(self, name)) > 0:
                raise InvalidParameterError(
                    f"{name} must be positive, got {getattr(self, name)!r}")
        if float(self.drain_timeout) < 0:
            raise InvalidParameterError(
                f"drain_timeout must be >= 0, got {self.drain_timeout!r}")
        if not 0 <= int(self.port) <= 65535:
            raise InvalidParameterError(
                f"port must be in [0, 65535], got {self.port!r}")
        high = self.high_watermark
        low = self.low_watermark
        if high is None:
            high = max(int(self.queue_depth * 3 // 4), 1)
        if low is None:
            low = max(int(self.queue_depth // 2), 0)
        if not 0 <= int(low) <= int(high) <= int(self.queue_depth):
            raise InvalidParameterError(
                f"watermarks must satisfy 0 <= low ({low}) <= high ({high}) "
                f"<= queue_depth ({self.queue_depth})")
        object.__setattr__(self, "high_watermark", int(high))
        object.__setattr__(self, "low_watermark", int(low))
