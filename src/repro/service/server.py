"""The compression service: transport, worker pool, drain, and crash paths.

:class:`CompressionService` wires the pieces together:

* a :class:`http.server.ThreadingHTTPServer` transport (stdlib only) whose
  handler delegates every request to :func:`repro.service.routes.handle_request`;
* a pool of worker threads consuming the admission queue — ``/compress``
  jobs run a per-request :class:`~repro.engine.BatchEngine` bounded by the
  request deadline, ``/ingest`` jobs feed the shared
  :class:`~repro.streaming.MultiStreamCompressor` (each stream a log series
  of the durable store, idempotency-journaled, when one is configured);
* one background drainer thread that encodes the ingest queue's sealed
  chunks whenever ``drain_batch`` of them are pending: it takes them under
  the ingest lock, encodes them holding no lock, and installs the encoded
  chunks in the store under the lock again, so no ``/ingest`` request
  waits for an encode unless the backlog passes ``BACKLOG_BATCHES``
  batches;
* the graceful drain sequence (``initiate_drain``): readiness flips first,
  admission stops, queued jobs get ``drain_timeout`` to finish, the
  remainder is shed with well-formed 503s, the drainer finishes the batches
  due and stops, the journal is persisted and the store checkpointed, then
  the listener shuts down;
* the crash path (``abort``): an injected ``mid_job_crash`` (or any other
  service-site crash) abandons the store — no journal persistence, no
  checkpoint, an in-flight encode's batch dropped uncommitted — so on-disk
  state is exactly what the WAL acknowledged and the last checkpoint
  published, which is what the chaos tests reopen and fsck.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from .. import faultinject
from ..engine import BatchEngine
from ..faultinject import InjectedCrash, InjectedFault
from ..streaming import MultiStreamCompressor
from .admission import AdmissionController, Job
from .breaker import CircuitBreaker
from .config import ServiceConfig
from .lifecycle import Lifecycle
from .metrics import ServiceMetrics
from .routes import CRASHED_STATUS, handle_request

__all__ = ["BACKLOG_BATCHES", "CompressionService", "DrainReport"]

#: Backpressure: an ``/ingest`` job waits for the drainer while this many
#: times ``drain_batch`` sealed chunks are pending, so the queue of raw
#: chunks in memory stays bounded however far ingest outruns the encode.
BACKLOG_BATCHES = 4


@dataclass(frozen=True)
class DrainReport:
    """What a finished drain (or abort) looked like."""

    reason: str
    #: True when every admitted job finished inside ``drain_timeout``.
    clean: bool
    #: Queued jobs answered with a shed 503 instead of being run.
    shed_jobs: int
    duration: float
    aborted: bool = False


class CompressionService:
    """A crash-tolerant HTTP compression service over the durable store.

    Construction opens the durable store (when configured) and encodes the
    chunks it holds but had not installed — a
    :class:`~repro.exceptions.StorageError` here means the store is locked
    or corrupt and maps to the CLI's exit code 4, the same as a failed bind
    in :meth:`start`.
    """

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.metrics = ServiceMetrics()
        self.lifecycle = Lifecycle()
        self.admission = AdmissionController(self.config, self.metrics)
        self.breaker = CircuitBreaker(threshold=self.config.breaker_threshold,
                                      cooldown=self.config.breaker_cooldown)
        # One lock serializes every touch of the shared ingest compressor's
        # state: worker appends, the drainer's take and commit, /streams
        # snapshots, the final close and an abort.  The drainer's encode
        # runs outside it.  `_ingest_changed` is signalled whenever the
        # pending count or the drainer's state changes.
        self._spool_lock = threading.RLock()
        self._ingest_changed = threading.Condition(self._spool_lock)
        # Drainer state, guarded by `_spool_lock`: `_drainer_live` from
        # start() until the drainer exits or the ingest side closes,
        # `_encoding` while a taken batch is outside the lock.
        self._drainer: threading.Thread | None = None
        self._drainer_live = False
        self._drainer_stop = False
        self._encoding = False
        self.drainer_error: str | None = None
        self.multi = MultiStreamCompressor(
            self.config.chunk_size, self.config.codec,
            codec_options=dict(self.config.codec_options),
            spool_to=self.config.store,
            spool_fsync=self.config.spool_fsync)
        # The compressor re-queued every value its store holds past the
        # installed chunks; encode that backlog before admitting anything.
        self.replayed = sum(self.multi.report(name).buffered_points
                            for name in self.multi.streams)
        if self.multi.pending_chunks:
            self.multi.drain()
        self._httpd: ThreadingHTTPServer | None = None
        self._workers: list[threading.Thread] = []
        self._workers_stop = threading.Event()
        self._drain_lock = threading.Lock()
        self._drain_thread: threading.Thread | None = None
        self._aborted = False
        self._serving = False
        self.drain_report: DrainReport | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Bind the listener and start the workers (OSError propagates)."""
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), _make_handler(self))
        self._drainer_live = True
        self._drainer = threading.Thread(target=self._drainer_loop,
                                         daemon=True, name="repro-drainer")
        self._drainer.start()
        for position in range(self.config.workers):
            worker = threading.Thread(target=self._worker_loop, daemon=True,
                                      name=f"repro-worker-{position}")
            worker.start()
            self._workers.append(worker)
        self.lifecycle.mark_running()

    @property
    def is_ready(self) -> bool:
        """Readiness: running, and no exception has killed the drainer."""
        return self.lifecycle.is_ready and self.drainer_error is None

    @property
    def port(self) -> int:
        if self._httpd is None:
            return int(self.config.port)
        return int(self._httpd.server_address[1])

    def serve_forever(self) -> DrainReport:
        """Block until a drain (or abort) shuts the listener down."""
        if self._httpd is None:
            self.start()
        self._serving = True
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        finally:
            self._serving = False
            self.lifecycle.drained.wait(timeout=self.config.drain_timeout + 30)
        return self.drain_report or DrainReport(
            reason="unknown", clean=False, shed_jobs=0, duration=0.0)

    def stop(self, timeout: float = 30.0) -> bool:
        """Drain and wait (test convenience); True once fully stopped."""
        self.initiate_drain(reason="stop")
        return self.lifecycle.drained.wait(timeout)

    # ------------------------------------------------------------------ #
    # drain
    # ------------------------------------------------------------------ #
    def initiate_drain(self, reason: str = "requested") -> threading.Thread:
        """Kick off the graceful drain exactly once (signal-handler safe)."""
        with self._drain_lock:
            if self._drain_thread is None:
                self._drain_thread = threading.Thread(
                    target=self._drain, args=(str(reason),),
                    daemon=True, name="repro-drain")
                self._drain_thread.start()
            return self._drain_thread

    def _drain(self, reason: str) -> None:
        started = time.monotonic()
        if not self.lifecycle.begin_drain():
            return  # already draining or aborted
        self.metrics.inc("repro_drains_total")
        # Readiness is already off; now nothing new gets queued.
        self.admission.stop("draining")
        try:
            faultinject.fire_service("drain", detail=reason)
        except InjectedCrash:
            self.abort()
            return
        except InjectedFault:
            # An injected drain failure must not leave the service wedged:
            # count it and keep draining.
            self.metrics.inc("repro_drain_faults_total")
        clean = self.admission.wait_idle(self.config.drain_timeout)
        shed = self.admission.shed_queued(status=503, reason="draining")
        self._workers_stop.set()
        for worker in self._workers:
            worker.join(timeout=5.0)
        # Nothing adds any more: the drainer commits the batches still due
        # and exits.
        if self._drainer is not None:
            with self._ingest_changed:
                self._drainer_stop = True
                self._ingest_changed.notify_all()
            self._drainer.join(timeout=self.config.drain_timeout + 5.0)
        with self._spool_lock:
            # A drainer that outlived its join must not commit to a closed
            # store; its batch is queued again on the next boot.
            self._drainer_live = False
            # Deliberately no flush of partial chunks: undrained acked
            # values stay raw in the store and are queued again on the next
            # boot.  close() persists the idempotency journal and
            # checkpoints the store, publishing the installed chunks.
            self.multi.close()
        self.lifecycle.mark_stopped()
        self._shutdown_listener()
        self.drain_report = DrainReport(
            reason=reason, clean=clean, shed_jobs=len(shed),
            duration=time.monotonic() - started)
        self.lifecycle.drained.set()

    def abort(self) -> None:
        """Simulated process death: the store is abandoned, nothing graceful.

        On-disk state afterwards is exactly what the WAL acknowledged plus
        the last manifest swap — chunks installed since are not published
        and the idempotency journal is *not* persisted (its intents were
        already durable before each append), which is the state
        :meth:`~repro.storage.durable.DurableStore.open` recovery and
        journal reconciliation are built for.
        """
        with self._drain_lock:
            if self._aborted:
                return
            self._aborted = True
        self.metrics.inc("repro_aborts_total")
        self.lifecycle.begin_drain()
        self.admission.stop("aborted")
        self._workers_stop.set()
        with self._ingest_changed:
            # An encode in flight finishes outside the lock and then finds
            # the drainer dead: its batch is dropped uncommitted, and the
            # store, which still holds its values raw, queues it on the
            # next boot.
            self._drainer_live = False
            self._ingest_changed.notify_all()
            if self.multi.spool is not None:
                try:
                    # NOT multi.close(): no journal persist, no checkpoint.
                    self.multi.spool.abandon()
                except Exception:
                    pass
        # Waiters must not hang on jobs that will never run.
        self.admission.shed_queued(status=503, reason="aborted")
        self.lifecycle.mark_stopped()
        self._shutdown_listener()
        self.drain_report = DrainReport(reason="aborted", clean=False,
                                        shed_jobs=0, duration=0.0,
                                        aborted=True)
        self.lifecycle.drained.set()

    def _shutdown_listener(self) -> None:
        httpd = self._httpd
        if httpd is None:
            return
        serving = self._serving

        def _close() -> None:
            if serving:
                # shutdown() blocks forever unless serve_forever is live,
                # and deadlocks if called from a handler thread — hence
                # this helper thread and the `serving` guard.
                httpd.shutdown()
            httpd.server_close()

        threading.Thread(target=_close, daemon=True).start()

    # ------------------------------------------------------------------ #
    # the ingest drainer
    # ------------------------------------------------------------------ #
    def _drainer_loop(self) -> None:
        """Encode the ingest queue in the background, one batch at a time.

        A batch is the largest whole multiple of ``drain_batch`` at the
        front of the queue, so what is left pending once ingest stops does
        not depend on how encodes and requests interleaved: the sealed
        chunks modulo ``drain_batch``.
        """
        multi, batch_size = self.multi, self.config.drain_batch
        try:
            while True:
                with self._ingest_changed:
                    self._ingest_changed.wait_for(
                        lambda: (not self._drainer_live or self._drainer_stop
                                 or multi.pending_chunks >= batch_size))
                    due = multi.pending_chunks // batch_size * batch_size
                    if not (self._drainer_live and due):
                        return
                    batch = multi.take(due)
                    self._encoding = True
                started = time.monotonic()
                outcomes = multi.encode(batch)
                with self._ingest_changed:
                    self._encoding = False
                    if not self._drainer_live:
                        return  # aborted mid-encode: the next boot queues it
                    multi.commit(batch, outcomes)
                    self._ingest_changed.notify_all()
                self.metrics.inc("repro_ingest_drains_total")
                self.metrics.inc("repro_ingest_drain_seconds_total",
                                 time.monotonic() - started)
        except InjectedCrash:
            self.abort()  # an injected crash: process death
        except Exception as exc:  # never a silently dead drainer
            self.metrics.inc("repro_ingest_drain_errors_total")
            self.drainer_error = f"{type(exc).__name__}: {exc}"
        finally:
            with self._ingest_changed:
                self._encoding = False
                self._drainer_live = False
                self._ingest_changed.notify_all()

    # ------------------------------------------------------------------ #
    # workers
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        while not self._workers_stop.is_set():
            job = self.admission.next_job(timeout=0.1)
            if job is None:
                continue
            started = time.monotonic()
            try:
                self._execute(job)
            except InjectedCrash:
                job.finish(CRASHED_STATUS, {"error": "service crashed"})
                self.admission.finish(job, started_at=started)
                self.abort()
                return
            except InjectedFault as exc:
                job.finish(500, {"error": f"injected fault: {exc}"})
            except Exception as exc:  # the pool must survive anything
                self.metrics.inc("repro_worker_errors_total")
                job.finish(500, {"error": f"internal error: "
                                          f"{type(exc).__name__}: {exc}"})
            self.admission.finish(job, started_at=started)

    def _execute(self, job: Job) -> None:
        if job.cancelled.is_set() or job.deadline.expired():
            # The request thread already answered 504; just account it.
            self.metrics.inc("repro_jobs_discarded_total")
            job.finish(504, {"error": "deadline expired while queued"})
            return
        if job.kind == "compress":
            self._execute_compress(job)
        else:
            self._execute_ingest(job)

    def _execute_compress(self, job: Job) -> None:
        payload = job.payload
        faultinject.fire_service(
            "mid_job_crash", detail=f"/compress {' '.join(payload['names'])}")
        engine = BatchEngine(payload["codec"],
                             codec_options=payload["codec_options"],
                             backend=self.config.backend,
                             workers=self.config.engine_workers,
                             timeout=self.config.chunk_timeout,
                             retries=self.config.retries)
        remaining = job.deadline.remaining()
        if remaining <= 0:
            self.metrics.inc("repro_jobs_discarded_total")
            job.finish(504, {"error": "deadline expired while queued"})
            return
        result = engine.compress(payload["series"], names=payload["names"],
                                 deadline=remaining)
        report = result.report
        self.metrics.absorb_report(report)
        # Breaker signal: backend degradation only — quarantines and
        # degraded series.  Timeouts are excluded (a tight client
        # deadline must not trip the breaker) and so are per-series input
        # errors (isolation means bad input never implicates the backend).
        healthy = not (report.quarantined_chunks or report.degraded_series)
        self.breaker.record(payload["codec"], healthy)
        include_blocks = payload["include_blocks"]
        outcomes = []
        for outcome in result:
            entry = {"name": outcome.name, "length": outcome.length,
                     "ok": outcome.ok}
            if outcome.ok:
                entry["bits"] = outcome.block.bits
                if include_blocks:
                    from ..codecs.serialize import block_to_document
                    entry["block"] = block_to_document(outcome.block)
            else:
                entry["error"] = outcome.error
                entry["error_type"] = outcome.error_type
            if outcome.degraded_to:
                entry["degraded_to"] = outcome.degraded_to
            outcomes.append(entry)
        status = 200 if report.failed == 0 else 207
        job.finish(status, {
            "codec": report.codec,
            "series": report.series,
            "failed": report.failed,
            "total_points": report.total_points,
            "encoded_bits": report.encoded_bits,
            "timeouts": report.timeouts,
            "degraded_series": report.degraded_series,
            "outcomes": outcomes,
        })

    def _execute_ingest(self, job: Job) -> None:
        payload = job.payload
        stream, values, key = (payload["stream"], payload["values"],
                               payload["key"])
        backlog = BACKLOG_BATCHES * self.config.drain_batch
        with self._ingest_changed:
            self._ingest_changed.wait_for(
                lambda: (self.multi.pending_chunks < backlog
                         or not self._drainer_live),
                timeout=max(job.deadline.remaining(), 0.0))
            if self.multi.pending_chunks >= backlog:
                # The deadline passed first, or no drainer is left to wait
                # for: refuse before the store append, so nothing landed.
                job.finish(503, {"error": "ingest backlog full: "
                                          f"{backlog} chunks await the "
                                          "drainer"}, {"Retry-After": "1"})
                return
            if key is not None:
                sealed, duplicate = self.multi.add_idempotent(
                    stream, values, key)
            else:
                sealed = self.multi.add(stream, values)
                duplicate = False
            # Fired *after* the store append: the crash window where the
            # WAL acknowledged the values but the client never got its 200
            # — exactly what the idempotency journal must absorb on retry.
            faultinject.fire_service("mid_job_crash", detail=f"/ingest {stream}")
            if self.multi.pending_chunks >= self.config.drain_batch:
                self._ingest_changed.notify_all()
        self.metrics.inc("repro_ingested_values_total",
                         0 if duplicate else len(values))
        if duplicate:
            self.metrics.inc("repro_idempotent_duplicates_total")
        job.finish(200, {
            "stream": stream,
            "ingested": 0 if duplicate else len(values),
            "duplicate": duplicate,
            "sealed_chunks": sealed,
        })

    # ------------------------------------------------------------------ #
    # observability surfaces
    # ------------------------------------------------------------------ #
    def render_metrics(self) -> str:
        gauges = {
            "repro_queue_depth": float(self.admission.depth),
            "repro_jobs_running": float(self.admission.running),
            "repro_shedding": 1.0 if self.admission.shedding else 0.0,
            "repro_ready": 1.0 if self.is_ready else 0.0,
            "repro_spool_replayed_values": float(self.replayed),
            "repro_ingest_pending_chunks": float(self.multi.pending_chunks),
        }
        for position, (key, state) in enumerate(
                sorted(self.breaker.snapshot().items())):
            gauges[f"repro_breaker_open#{position}"] = {
                "value": 1.0 if state["state"] == "open" else 0.0,
                "labels": {"codec": key}}
            gauges[f"repro_breaker_rejections#{position}"] = {
                "value": float(state["rejected_total"]),
                "labels": {"codec": key}}
        return self.metrics.render(gauges)

    def stream_summary(self) -> dict:
        """Per-stream accounting, once no drain is in flight or due.

        The wait makes the snapshot a barrier: every batch due when it was
        asked for is encoded and committed before it answers, so a client
        timing writes up to it pays for the encodes it caused.
        """
        batch_size = self.config.drain_batch
        with self._ingest_changed:
            self._ingest_changed.wait_for(
                lambda: not self._drainer_live or not (
                    self._encoding or self.multi.pending_chunks >= batch_size),
                timeout=self.config.default_deadline)
            streams = {}
            for name in self.multi.streams:
                report = self.multi.report(name)
                streams[name] = {
                    "chunks": report.chunks,
                    "ingested_points": report.ingested_points,
                    "sealed_points": report.sealed_points,
                    "buffered_points": report.buffered_points,
                    "encoded_bits": report.encoded_bits,
                }
            pending = self.multi.pending_chunks
        return {"streams": streams, "pending_chunks": pending,
                "replayed_values": self.replayed,
                "store": self.config.store}


# --------------------------------------------------------------------- #
# transport
# --------------------------------------------------------------------- #
def _make_handler(service: CompressionService):
    """A request-handler class bound to one service instance."""

    class Handler(BaseHTTPRequestHandler):
        # HTTP/1.0: one request per connection, close after the response —
        # the simplest transport that can never leave a client hanging on
        # a keep-alive after a crash.
        server_version = "repro-service"

        def log_message(self, *_args) -> None:  # quiet by default
            pass

        def do_GET(self) -> None:
            self._dispatch("GET")

        def do_POST(self) -> None:
            self._dispatch("POST")

        def do_PUT(self) -> None:
            self._dispatch("PUT")

        def do_DELETE(self) -> None:
            self._dispatch("DELETE")

        def _read_body(self) -> bytes | None:
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                return b""
            if length > service.config.max_body_bytes:
                return None  # routes answer 413
            return self.rfile.read(max(length, 0))

        def _dispatch(self, method: str) -> None:
            started = time.monotonic()
            path = urlsplit(self.path).path
            status = None
            try:
                body = self._read_body() if method == "POST" else b""
                status, payload, headers = handle_request(
                    service, method, path, self.headers, body)
                self._respond(status, payload, headers, path)
            except InjectedCrash:
                # Simulated process death: the client gets a dropped
                # connection, never a half-written response.
                service.abort()
                self.close_connection = True
            finally:
                if status is not None:
                    service.metrics.observe(
                        path, status, time.monotonic() - started)

        def _respond(self, status: int, payload, headers: dict,
                     path: str) -> None:
            headers = dict(headers)
            try:
                faultinject.fire_service("response_write", detail=path)
            except InjectedCrash:
                raise
            except InjectedFault as exc:
                # Nothing written yet — degrade to a well-formed 500.
                status, payload = 500, {"error": f"response write failed: "
                                                 f"{exc}"}
            if isinstance(payload, str):
                data = payload.encode("utf-8")
                content_type = headers.pop("Content-Type", "text/plain")
            else:
                data = json.dumps(payload, sort_keys=True).encode("utf-8")
                content_type = "application/json"
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            for name, value in headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(data)

    return Handler
