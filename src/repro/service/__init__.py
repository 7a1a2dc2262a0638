"""Crash-tolerant compression service over the durable store.

This package turns the library into a long-running process: a stdlib-only
threaded HTTP service fronting :class:`repro.engine.BatchEngine` (request
compression), :class:`repro.streaming.MultiStreamCompressor` (durable,
idempotent ingest through the PR 9 WAL spool), and
:class:`repro.storage.durable.DurableStore`.  The headline is the
robustness machinery, not the routing:

* **admission control** (:mod:`repro.service.admission`) — a bounded job
  queue with watermark-hysteresis load shedding (429 + ``Retry-After``,
  never unbounded memory) and per-tenant in-flight caps;
* **deadline propagation** (:mod:`repro.service.deadlines`) — each request
  carries a budget that flows into the engine supervisor's chunk waits, so
  a slow chunk never holds a connection past its deadline;
* **idempotent retries** — client idempotency keys journaled through the
  WAL spool (:meth:`repro.streaming.MultiStreamCompressor.add_idempotent`),
  so a crashed-then-retried ingest is applied exactly once after a reboot;
* **background ingest drainer** (:mod:`repro.service.server`) — sealed
  ingest chunks are encoded by one thread outside the ingest lock, never
  on a request, behind a bounded backlog;
* **graceful drain** (:mod:`repro.service.lifecycle`) — SIGTERM stops
  admission, finishes or sheds queued jobs under a drain deadline,
  checkpoints the store, then exits; ``/readyz`` flips before
  ``/healthz``;
* **circuit breaker** (:mod:`repro.service.breaker`) — repeated backend
  degradations trip a per-codec breaker that fails fast with 503 until a
  half-open probe succeeds.

Failure behaviour is proven by the deterministic service fault sites in
:mod:`repro.faultinject` (``request_parse`` / ``enqueue`` /
``mid_job_crash`` / ``drain`` / ``response_write``) — see
``docs/service.md`` for the endpoint reference and the failure matrix.
"""

from .admission import AdmissionController, Job, Shed
from .breaker import CircuitBreaker
from .config import ServiceConfig
from .deadlines import Deadline
from .lifecycle import Lifecycle, install_signal_handlers
from .metrics import ServiceMetrics
from .server import CompressionService, DrainReport

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "CompressionService",
    "Deadline",
    "DrainReport",
    "Job",
    "Lifecycle",
    "ServiceConfig",
    "ServiceMetrics",
    "Shed",
    "install_signal_handlers",
]
