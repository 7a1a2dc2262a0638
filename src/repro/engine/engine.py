"""The batch-compression engine facade.

:class:`BatchEngine` takes N series — a list/iterator of arrays, ``(name,
values)`` pairs, :class:`~repro.data.timeseries.TimeSeries` objects, a
mapping, or a whole :class:`~repro.storage.store.TimeSeriesStore` — plus any
registered codec name, and runs them to completion on the chosen backend:

* size-aware chunking (:mod:`repro.engine.chunking`) keeps a giant series
  from straggling behind a pile of tiny ones;
* the ``thread`` backend spreads chunks over a thread pool — on the native
  kernel tier a CAMEO encode is one GIL-free call, so threads scale
  without pickling or shared memory;
* same-length lossless series take the one cross-series fast path (the
  stacked XOR encode) — payloads stay byte-identical to per-series runs;
* every series is error-isolated: one poisoned input yields an error
  outcome, the rest of the batch completes;
* the :class:`~repro.engine.report.BatchReport` aggregates points/sec,
  encoded bits, and wall/CPU time.

Example
-------
>>> import numpy as np
>>> from repro.engine import compress_batch
>>> batch = [np.round(np.sin(np.arange(200) / 7.0), 3) for _ in range(8)]
>>> result = compress_batch(batch, codec="gorilla")
>>> len(result), result.report.series, result.report.failed
(8, 8, 0)
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from ..codecs import codec_spec
from ..data.timeseries import TimeSeries
from ..exceptions import InvalidParameterError
from ..sanitize import SANITIZE_METADATA_KEY, InputPolicy, sanitize
from .chunking import DEFAULT_OVERSUBSCRIBE, plan_chunks
from .report import BatchReport, BatchResult, SeriesOutcome
from .supervisor import SupervisorPolicy, resolve_workers, run_supervised

__all__ = ["BatchEngine", "compress_batch"]


def _normalize_source(source, names) -> tuple[list, list[str]]:
    """Turn any supported batch source into ``(series_list, names)``."""
    # A storage engine: read every (or the named) series.
    if hasattr(source, "list_series") and hasattr(source, "read"):
        wanted = list(names) if names is not None else source.list_series()
        return [source.read(name) for name in wanted], [str(name) for name in wanted]
    if isinstance(source, dict):
        if names is not None:
            raise InvalidParameterError(
                "names only applies to unnamed sequence sources")
        return list(source.values()), [str(key) for key in source.keys()]

    series_list: list = []
    series_names: list[str] = []
    for position, item in enumerate(source):
        if isinstance(item, TimeSeries):
            series_list.append(item.values)
            series_names.append(item.name)
        elif (isinstance(item, tuple) and len(item) == 2
                and isinstance(item[0], str)):
            series_list.append(item[1])
            series_names.append(item[0])
        else:
            series_list.append(item)
            series_names.append(f"series-{position}")
    if names is not None:
        names = list(names)
        if len(names) != len(series_list):
            raise InvalidParameterError(
                f"{len(names)} names for {len(series_list)} series")
        series_names = [str(name) for name in names]
    return series_list, series_names


class BatchEngine:
    """Fleet-scale batch compression over any registered codec.

    Parameters
    ----------
    codec:
        Registered codec name (see :func:`repro.codecs.available_codecs`).
    codec_options:
        Keyword arguments for the codec factory (e.g. ``max_lag``,
        ``epsilon`` for CAMEO).
    backend:
        ``"serial"`` (default) or ``"thread"``.
    workers:
        Parallel workers for the thread backend (defaults to the CPU
        count; ignored by ``serial``).
    fastpath:
        Enable the stacked XOR encode for same-length lossless series
        (the only cross-series fast path; no other codec family is
        affected).  Results are identical either way; the switch exists
        for benchmarking and bisection.
    oversubscribe:
        Chunks planned per worker (see :func:`repro.engine.chunking.plan_chunks`).
    timeout:
        Per-chunk wall-clock budget in seconds (``None`` = unbounded).  A
        thread-backend chunk that exceeds it is abandoned, retried, then
        quarantined; the serial backend runs untimed.
    retries:
        Chunk-level retry budget before a chunk is quarantined.
    backoff:
        Base sleep between chunk retries (exponential; the first retry
        sleeps ``backoff``).
    on_degrade:
        What happens to a quarantined thread-backend chunk: ``"degrade"``
        (default — re-encode it once on the serial rung) or ``"error"``
        (record error outcomes).
    policy:
        Optional :class:`~repro.sanitize.InputPolicy` applied to every
        series before chunk planning.  Policy rejections become per-series
        error outcomes; modified inputs record their
        :class:`~repro.sanitize.SanitizeReport` in block metadata so decode
        stays self-describing.  ``None`` (default) skips sanitization
        entirely — clean-input runs are bit-identical with or without it.
    """

    def __init__(self, codec: str = "cameo", *, codec_options: dict | None = None,
                 backend: str = "serial", workers: int | None = None,
                 fastpath: bool = True,
                 oversubscribe: int = DEFAULT_OVERSUBSCRIBE,
                 timeout: float | None = None, retries: int = 1,
                 backoff: float = 0.05, on_degrade: str = "degrade",
                 policy: InputPolicy | None = None):
        spec = codec_spec(codec)  # validates the name early
        self.codec = spec.name
        self.codec_options = dict(codec_options or {})
        self.backend = backend
        self.workers = resolve_workers(backend, workers)
        self.fastpath = bool(fastpath)
        self.oversubscribe = int(oversubscribe)
        self.supervisor_policy = SupervisorPolicy(
            timeout=timeout, retries=int(retries), backoff=float(backoff),
            on_degrade=on_degrade)
        if policy is not None and not isinstance(policy, InputPolicy):
            raise InvalidParameterError(
                f"policy must be an InputPolicy or None, got {type(policy).__name__}")
        self.policy = policy

    # ------------------------------------------------------------------ #
    def _sanitize_inputs(self, series_list, series_names
                         ) -> tuple[dict[int, SeriesOutcome], dict[int, dict]]:
        """Apply the input policy in place; returns (pre-errors, metadata)."""
        pre_errors: dict[int, SeriesOutcome] = {}
        sanitize_meta: dict[int, dict] = {}
        for index, item in enumerate(series_list):
            try:
                result = sanitize(item, self.policy, name=series_names[index])
            except Exception as exc:
                try:
                    length = int(np.asarray(item).size)
                except Exception:
                    length = 0
                pre_errors[index] = SeriesOutcome(
                    index=index, name=series_names[index], length=length,
                    error=str(exc), error_type=type(exc).__name__)
            else:
                series_list[index] = result.values
                if not result.report.clean:
                    sanitize_meta[index] = result.report.as_metadata()
        return pre_errors, sanitize_meta

    def compress(self, source, *, names=None,
                 deadline: float | None = None) -> BatchResult:
        """Compress every series of ``source``; outcomes in input order.

        ``deadline`` is an optional wall-clock budget in seconds for this
        call.  The supervisor clamps every chunk wait to the remaining
        budget and writes chunks abandoned at expiry off as
        :class:`~repro.exceptions.DeadlineExceededError` outcomes — the
        call still returns a full :class:`BatchResult`, with whatever
        completed in time reported per series.
        """
        policy = self.supervisor_policy
        if deadline is not None:
            if not float(deadline) > 0:
                raise InvalidParameterError(
                    f"deadline must be positive or None, got {deadline!r}")
            policy = dataclasses.replace(
                policy, deadline=time.monotonic() + float(deadline))
        series_list, series_names = _normalize_source(source, names)
        pre_errors: dict[int, SeriesOutcome] = {}
        sanitize_meta: dict[int, dict] = {}
        if self.policy is not None:
            pre_errors, sanitize_meta = self._sanitize_inputs(series_list,
                                                              series_names)
        good = [index for index in range(len(series_list))
                if index not in pre_errors]
        sizes = []
        for index in good:
            try:
                sizes.append(int(np.asarray(series_list[index]).size))
            except Exception:
                sizes.append(1)
        chunks = [[good[position] for position in chunk]
                  for chunk in plan_chunks(sizes, self.workers,
                                           oversubscribe=self.oversubscribe)]

        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        outcomes, stats = run_supervised(
            self.backend, chunks, series_list, series_names, self.codec,
            self.codec_options, self.fastpath, self.workers,
            policy=policy)
        wall = time.perf_counter() - wall_start
        cpu = time.process_time() - cpu_start

        outcomes.extend(pre_errors.values())
        outcomes.sort(key=lambda outcome: outcome.index)
        for index, record in sanitize_meta.items():
            block = outcomes[index].block
            if block is not None:
                block.metadata[SANITIZE_METADATA_KEY] = record
        report = BatchReport(codec=self.codec, backend=self.backend,
                             workers=self.workers, chunks=len(chunks),
                             wall_seconds=wall, cpu_seconds=cpu,
                             retries=stats.retries, timeouts=stats.timeouts,
                             quarantined_chunks=stats.quarantined_chunks,
                             degraded_chunks=stats.degraded_chunks,
                             degraded_series=stats.degraded_series,
                             sanitized_series=len(sanitize_meta))
        for outcome in outcomes:
            report.series += 1
            if outcome.ok:
                report.total_points += int(outcome.block.length)
                report.encoded_bits += int(outcome.block.bits)
                if outcome.fastpath:
                    report.fastpath_series += 1
            else:
                report.failed += 1
        return BatchResult(outcomes=outcomes, report=report)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BatchEngine(codec={self.codec!r}, backend={self.backend!r}, "
                f"workers={self.workers})")


def compress_batch(source, codec: str = "cameo", *, names=None,
                   codec_options: dict | None = None, backend: str = "serial",
                   workers: int | None = None, fastpath: bool = True,
                   timeout: float | None = None, retries: int = 1,
                   on_degrade: str = "degrade",
                   policy: InputPolicy | None = None,
                   deadline: float | None = None) -> BatchResult:
    """One-shot convenience wrapper around :class:`BatchEngine`.

    Parameters
    ----------
    source:
        Arrays, an iterator, ``(name, values)`` pairs,
        :class:`~repro.data.timeseries.TimeSeries` objects, a mapping, or a
        :class:`~repro.storage.store.TimeSeriesStore`.
    codec, codec_options:
        Registered codec name and its factory options.
    names:
        Optional per-series names (sequence sources), or the subset of
        store series to read.
    backend, workers, fastpath, timeout, retries, on_degrade, policy:
        See :class:`BatchEngine`.
    deadline:
        Optional wall-clock budget in seconds for this call (see
        :meth:`BatchEngine.compress`).

    Returns
    -------
    BatchResult
        Ordered per-series outcomes plus the aggregate
        :class:`~repro.engine.report.BatchReport`.
    """
    engine = BatchEngine(codec, codec_options=codec_options, backend=backend,
                         workers=workers, fastpath=fastpath, timeout=timeout,
                         retries=retries, on_degrade=on_degrade, policy=policy)
    return engine.compress(source, names=names, deadline=deadline)
