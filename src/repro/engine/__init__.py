"""Multi-series batch-compression engine (fleet-scale throughput).

The paper's evaluation — and every production deployment of Gorilla-style
per-series codecs — compresses *many* independent series; the scaling unit
is series per second across a fleet, not one series' latency.  This package
provides that layer:

* :class:`~repro.engine.engine.BatchEngine` /
  :func:`~repro.engine.engine.compress_batch` — N series × any registered
  codec on a ``serial`` or ``thread`` backend, with size-aware chunking,
  per-series error isolation, and an aggregate
  :class:`~repro.engine.report.BatchReport`;
* one cross-series fast path — the stacked XOR encode
  (:meth:`GorillaCodec.encode_batch`) — whose payloads are byte-identical
  to per-series runs; every other codec, CAMEO included, has exactly one
  route: ``codec.encode`` per series;
* fault-tolerant supervision (:mod:`repro.engine.supervisor`) — per-chunk
  timeouts, bounded retry, and a ``thread → serial`` degradation ladder,
  so a batch always terminates with per-series outcomes.

See ``docs/architecture.md`` ("The batch engine") for the data flow and
``docs/robustness.md`` for the failure semantics.
"""

from .chunking import plan_chunks
from .engine import BatchEngine, compress_batch
from .report import BatchReport, BatchResult, SeriesOutcome
from .supervisor import SupervisorPolicy, SupervisorStats

__all__ = [
    "BatchEngine",
    "compress_batch",
    "BatchReport",
    "BatchResult",
    "SeriesOutcome",
    "SupervisorPolicy",
    "SupervisorStats",
    "plan_chunks",
]
