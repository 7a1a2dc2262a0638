"""Fault-tolerant chunk supervision for the batch engine.

A bare ``pool.map`` lets one hung chunk stall the batch forever and one
chunk-level exception abandon the rest of the run.  This module runs every
chunk as a *supervised future* so a batch **always terminates with
per-series outcomes**:

* **per-chunk timeouts** — a thread-backend chunk that exceeds ``timeout``
  seconds is abandoned and retried or written off as
  :class:`~repro.exceptions.ChunkTimeoutError` outcomes;
* **bounded retry with exponential backoff** — chunk-level failures are
  retried up to ``retries`` times (retry *k* sleeps ``backoff * 2**(k-1)``,
  so the first retry sleeps ``backoff``) before the chunk is given up;
* **graceful degradation** — a thread-backend chunk that exhausts its
  attempts is quarantined and, under ``on_degrade="degrade"``, re-encoded
  once on the in-process serial rung; per-series error isolation inside
  :func:`repro.engine.worker.encode_chunk` then guarantees the chunk's
  series yield outcomes even when the fault is a poisoned series itself.

One deliberate asymmetry: a chunk whose *last* failure is a timeout never
falls through to the untimed serial rung — a genuinely hung computation
would hang the whole engine there — and becomes timeout outcomes instead.

Every decision is counted in :class:`SupervisorStats`, which
:class:`~repro.engine.engine.BatchEngine` folds into the
:class:`~repro.engine.report.BatchReport`.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass

import numpy as np

from ..exceptions import (
    ChunkTimeoutError,
    DeadlineExceededError,
    InvalidParameterError,
)
from .report import SeriesOutcome
from .worker import encode_chunk

__all__ = ["BACKENDS", "SupervisorPolicy", "SupervisorStats",
           "resolve_workers", "run_supervised"]

#: Recognised backend names.
BACKENDS = ("serial", "thread")

#: Recognised degradation modes.
ON_DEGRADE = ("degrade", "error")


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise InvalidParameterError(
            f"unknown backend {backend!r}; choose from {', '.join(BACKENDS)}")


def resolve_workers(backend: str, workers: int | None) -> int:
    """Worker count for a backend (defaults to the machine's CPU count)."""
    _check_backend(backend)
    if backend == "serial":
        return 1
    if workers is None:
        return max(os.cpu_count() or 1, 1)
    if workers < 1:
        raise InvalidParameterError("workers must be >= 1")
    return int(workers)


@dataclass(frozen=True)
class SupervisorPolicy:
    """Fault-handling knobs for one engine run.

    Parameters
    ----------
    timeout:
        Per-chunk wall-clock budget in seconds (``None`` = unbounded, the
        historical behaviour).  Enforced on the thread backend; the serial
        backend runs untimed by construction.
    retries:
        Chunk-level retry budget before the chunk is quarantined.
    backoff:
        Base sleep between retries; retry *k* (1-based) sleeps
        ``backoff * 2**(k-1)``, so the first retry sleeps ``backoff``.
    on_degrade:
        What to do with a quarantined thread-backend chunk: ``degrade``
        (default — re-encode it once on the serial rung) or ``error``
        (record error outcomes immediately).
    deadline:
        Absolute ``time.monotonic()`` instant after which no further work
        may start (``None`` = unbounded).  Both backends clamp their waits
        to the remaining budget, skip retries once the budget is gone, and
        record :class:`~repro.exceptions.DeadlineExceededError` outcomes
        for chunks abandoned at expiry — so a request-level deadline
        bounds the whole run regardless of per-chunk ``timeout``.
    """

    timeout: float | None = None
    retries: int = 1
    backoff: float = 0.05
    on_degrade: str = "degrade"
    deadline: float | None = None

    def __post_init__(self):
        if self.timeout is not None and not float(self.timeout) > 0:
            raise InvalidParameterError(
                f"timeout must be positive or None, got {self.timeout!r}")
        if self.deadline is not None:
            try:
                float(self.deadline)
            except (TypeError, ValueError):
                raise InvalidParameterError(
                    f"deadline must be a monotonic instant or None, "
                    f"got {self.deadline!r}") from None
        if int(self.retries) < 0:
            raise InvalidParameterError(
                f"retries must be >= 0, got {self.retries!r}")
        if float(self.backoff) < 0:
            raise InvalidParameterError(
                f"backoff must be >= 0, got {self.backoff!r}")
        if self.on_degrade not in ON_DEGRADE:
            raise InvalidParameterError(
                f"on_degrade must be one of {', '.join(ON_DEGRADE)}; "
                f"got {self.on_degrade!r}")


@dataclass
class SupervisorStats:
    """Accounting of every recovery decision taken during one run."""

    retries: int = 0
    timeouts: int = 0
    quarantined_chunks: int = 0
    degraded_chunks: int = 0
    degraded_series: int = 0


@dataclass
class _Job:
    """Everything needed to (re-)encode any chunk of the batch."""

    series: list
    names: list[str]
    codec_name: str
    codec_options: dict | None
    use_fastpath: bool


def _encode(job: _Job, chunk: list[int]) -> list[SeriesOutcome]:
    return encode_chunk(
        [job.series[index] for index in chunk],
        [job.names[index] for index in chunk], chunk, job.codec_name,
        job.codec_options, use_fastpath=job.use_fastpath)


def _series_length(series) -> int:
    try:
        return int(np.asarray(series).size)
    except Exception:  # pragma: no cover - exotic inputs
        return 0


def _error_outcomes(job: _Job, chunk: list[int], exc: BaseException,
                    degraded_to: str | None = None) -> list[SeriesOutcome]:
    return [SeriesOutcome(index=index, name=job.names[index],
                          length=_series_length(job.series[index]),
                          error=str(exc), error_type=type(exc).__name__,
                          degraded_to=degraded_to)
            for index in chunk]


def _sleep_backoff(policy: SupervisorPolicy, attempt: int) -> None:
    if policy.backoff > 0:
        sleep = policy.backoff * (2 ** max(attempt - 1, 0))
        remaining = _remaining(policy)
        if remaining is not None:
            sleep = min(sleep, max(remaining, 0.0))
        time.sleep(sleep)


# --------------------------------------------------------------------- #
# deadline accounting
# --------------------------------------------------------------------- #
def _remaining(policy: SupervisorPolicy) -> float | None:
    """Seconds left in the run budget, or ``None`` when unbounded."""
    if policy.deadline is None:
        return None
    return policy.deadline - time.monotonic()


def _expired(policy: SupervisorPolicy) -> bool:
    remaining = _remaining(policy)
    return remaining is not None and remaining <= 0


def _wait_timeout(policy: SupervisorPolicy) -> float | None:
    """The effective future-wait timeout: per-chunk cap ∧ remaining budget."""
    remaining = _remaining(policy)
    if remaining is None:
        return policy.timeout
    remaining = max(remaining, 0.0)
    if policy.timeout is None:
        return remaining
    return min(policy.timeout, remaining)


def _deadline_outcomes(job: _Job, chunk: list[int]) -> list[SeriesOutcome]:
    error = DeadlineExceededError(
        f"run deadline expired before the chunk of {len(chunk)} series "
        f"completed")
    return _error_outcomes(job, chunk, error)


def _timeout_failure(policy: SupervisorPolicy,
                     chunk_size: int) -> ChunkTimeoutError:
    """The right error for a future wait that ran out of time."""
    if _expired(policy):
        return DeadlineExceededError(
            f"chunk of {chunk_size} series abandoned on the thread backend: "
            f"the run deadline expired")
    return ChunkTimeoutError(
        f"chunk of {chunk_size} series exceeded the {policy.timeout:g}s "
        f"timeout on the thread backend")


# --------------------------------------------------------------------- #
# serial tier
# --------------------------------------------------------------------- #
def _serial_chunk(job: _Job, chunk: list[int], policy: SupervisorPolicy,
                  stats: SupervisorStats) -> list[SeriesOutcome]:
    """One chunk in-process, with chunk-level retry then error outcomes."""
    failure: BaseException | None = None
    for attempt in range(policy.retries + 1):
        if _expired(policy):
            stats.timeouts += 1
            return _deadline_outcomes(job, chunk)
        if attempt:
            stats.retries += 1
            _sleep_backoff(policy, attempt)
        try:
            return _encode(job, chunk)
        except Exception as exc:
            failure = exc
    # Serial is the bottom of the ladder: exhaustion means quarantine
    # straight to error outcomes.
    stats.quarantined_chunks += 1
    return _error_outcomes(job, chunk, failure)


def _run_serial(job: _Job, chunks, policy, stats) -> list[SeriesOutcome]:
    outcomes: list[SeriesOutcome] = []
    for chunk in chunks:
        outcomes.extend(_serial_chunk(job, chunk, policy, stats))
    return outcomes


# --------------------------------------------------------------------- #
# degradation ladder
# --------------------------------------------------------------------- #
def _degrade_chunk(job: _Job, chunk: list[int], policy: SupervisorPolicy,
                   stats: SupervisorStats, failure: BaseException
                   ) -> list[SeriesOutcome]:
    """Quarantine one thread-backend chunk, then re-encode it serially."""
    stats.quarantined_chunks += 1
    if policy.on_degrade == "error":
        return _error_outcomes(job, chunk, failure)
    stats.degraded_chunks += 1
    stats.degraded_series += len(chunk)
    if _expired(policy):
        stats.timeouts += 1
        return _deadline_outcomes(job, chunk)
    # The untimed serial rung would hang forever on a genuinely stuck
    # chunk, so timeouts stop here and become timeout outcomes.
    if isinstance(failure, ChunkTimeoutError):
        return _error_outcomes(job, chunk, failure)
    try:
        outcomes = _encode(job, chunk)
    except Exception as exc:
        return _error_outcomes(job, chunk, exc, degraded_to="serial")
    for outcome in outcomes:
        outcome.degraded_to = "serial"
    return outcomes


# --------------------------------------------------------------------- #
# thread tier
# --------------------------------------------------------------------- #
def _run_thread(job: _Job, chunks, workers: int, policy: SupervisorPolicy,
                stats: SupervisorStats) -> list[SeriesOutcome]:
    count = len(chunks)
    results: dict[int, list[SeriesOutcome]] = {}
    attempts = [0] * count
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        inflight = {cid: pool.submit(_encode, job, chunks[cid])
                    for cid in range(count)}
        queue = deque(range(count))
        while queue:
            cid = queue.popleft()
            try:
                results[cid] = inflight[cid].result(
                    timeout=_wait_timeout(policy))
                continue
            except FutureTimeoutError:
                stats.timeouts += 1
                failure: BaseException = _timeout_failure(
                    policy, len(chunks[cid]))
                if _expired(policy):
                    # The budget is gone: no retry, no degrade — record
                    # deadline outcomes and let the abandoned task die with
                    # the pool shutdown below.
                    results[cid] = _error_outcomes(job, chunks[cid], failure)
                    continue
            except Exception as exc:
                failure = exc
            attempts[cid] += 1
            if attempts[cid] <= policy.retries and not _expired(policy):
                stats.retries += 1
                _sleep_backoff(policy, attempts[cid])
                inflight[cid] = pool.submit(_encode, job, chunks[cid])
                queue.append(cid)
            else:
                results[cid] = _degrade_chunk(job, chunks[cid], policy,
                                              stats, failure)
    finally:
        # wait=False: an abandoned (timed-out) task must not block return.
        pool.shutdown(wait=False, cancel_futures=True)
    return [outcome for cid in range(count) for outcome in results[cid]]


# --------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------- #
def run_supervised(backend: str, chunks, series, names, codec_name: str,
                   codec_options: dict | None, use_fastpath: bool,
                   workers: int, policy: SupervisorPolicy | None = None
                   ) -> tuple[list[SeriesOutcome], SupervisorStats]:
    """Run every chunk to a per-series outcome on the chosen backend.

    Returns ``(outcomes, stats)``; outcomes arrive in chunk order (the
    engine re-sorts by batch index).  This function never raises for
    chunk- or worker-level failures — that is its contract.
    """
    _check_backend(backend)
    if policy is None:
        policy = SupervisorPolicy()
    stats = SupervisorStats()
    job = _Job(series=series, names=names, codec_name=codec_name,
               codec_options=codec_options, use_fastpath=use_fastpath)
    if backend == "serial":
        outcomes = _run_serial(job, chunks, policy, stats)
    else:
        outcomes = _run_thread(job, chunks, workers, policy, stats)
    return outcomes, stats
