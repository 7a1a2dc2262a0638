"""Request routing and validation for the compression service.

Every function returns ``(status, body, headers)`` where ``body`` is a
JSON-able dict (or a plain string for ``/metrics``).  The transport layer
(:mod:`repro.service.server`) owns the socket; this module owns the
contract that *every* refusal — malformed input, overload, open breaker,
blown deadline, draining — is a well-formed error response with the right
status code, never a hung connection:

=========  =======================================================
status     meaning
=========  =======================================================
400        malformed request (bad JSON, bad series, bad deadline)
404 / 405  unknown endpoint / method
413        request body beyond ``max_body_bytes``
429        shed: queue watermark latched, queue full, or tenant cap
503        draining, circuit breaker open, injected enqueue fail, or
           ingest backlog full
504        request deadline expired before the job finished
=========  =======================================================

429 and 503 shed responses always carry ``Retry-After``.
"""

from __future__ import annotations

import json

from .. import faultinject
from ..codecs import codec_spec
from ..exceptions import InvalidParameterError
from ..faultinject import InjectedCrash, InjectedFault
from .admission import Job
from .deadlines import DEADLINE_HEADER, Deadline, parse_budget

__all__ = ["handle_request"]

TENANT_HEADER = "X-Tenant"
IDEMPOTENCY_HEADER = "Idempotency-Key"
DEFAULT_TENANT = "public"

#: Sentinel status a crashed-in-flight job is finished with so its waiter
#: can tell "the service died" apart from any real response.
CRASHED_STATUS = 599


class _BadRequest(Exception):
    """Validation failure carrying the client-facing message."""


def handle_request(service, method: str, path: str, headers,
                   body: bytes | None) -> tuple[int, object, dict]:
    """Dispatch one request; never raises except for injected crashes."""
    try:
        faultinject.fire_service("request_parse", detail=path)
    except InjectedCrash:
        raise
    except InjectedFault as exc:
        return 400, {"error": f"request parse failed: {exc}"}, {}

    if method == "GET":
        return _handle_get(service, path)
    if method != "POST":
        return 405, {"error": f"method {method} is not allowed"}, {}
    if path not in ("/compress", "/ingest"):
        return 404, {"error": f"unknown endpoint {path}"}, {}
    if body is None:
        return 413, {"error": "request body exceeds the configured "
                              f"cap of {service.config.max_body_bytes} "
                              "bytes"}, {}
    try:
        document = json.loads(body.decode("utf-8") or "{}")
        if not isinstance(document, dict):
            raise _BadRequest("request body must be a JSON object")
        if path == "/compress":
            return _submit_compress(service, document, headers)
        return _submit_ingest(service, document, headers)
    except _BadRequest as exc:
        return 400, {"error": str(exc)}, {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return 400, {"error": f"request body is not valid JSON: {exc}"}, {}


# --------------------------------------------------------------------- #
# GET surface
# --------------------------------------------------------------------- #
def _handle_get(service, path: str) -> tuple[int, object, dict]:
    if path == "/healthz":
        alive = service.lifecycle.is_alive
        return (200 if alive else 503), {
            "alive": alive, "state": service.lifecycle.state}, {}
    if path == "/readyz":
        ready = service.is_ready
        body = {"ready": ready, "state": service.lifecycle.state}
        if service.drainer_error is not None:
            body["drainer_error"] = service.drainer_error
        if ready:
            return 200, body, {}
        return 503, body, {"Retry-After": "1"}
    if path == "/metrics":
        text = service.render_metrics()
        return 200, text, {"Content-Type": "text/plain; version=0.0.4"}
    if path == "/streams":
        return 200, service.stream_summary(), {}
    return 404, {"error": f"unknown endpoint {path}"}, {}


# --------------------------------------------------------------------- #
# POST /compress
# --------------------------------------------------------------------- #
def _normalize_series(document) -> tuple[list, list[str]]:
    raw = document.get("series")
    if isinstance(raw, dict) and raw:
        names = [str(name) for name in raw]
        rows = list(raw.values())
    elif isinstance(raw, list) and raw:
        rows = raw
        names = document.get("names")
        if names is None:
            names = [f"series-{position}" for position in range(len(rows))]
        elif (not isinstance(names, list)
              or len(names) != len(rows)):
            raise _BadRequest(
                f"names must be a list of {len(rows)} strings")
        names = [str(name) for name in names]
    else:
        raise _BadRequest(
            "series must be a non-empty JSON array of value arrays "
            "or an object mapping names to value arrays")
    series = []
    for position, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise _BadRequest(
                f"series[{position}] must be a non-empty array of numbers")
        try:
            series.append([float(value) for value in row])
        except (TypeError, ValueError):
            raise _BadRequest(
                f"series[{position}] contains non-numeric values") from None
    return series, names


def _request_deadline(service, document, headers) -> Deadline:
    raw = headers.get(DEADLINE_HEADER)
    if raw is None:
        raw = document.get("deadline_ms")
    try:
        budget = parse_budget(raw, default=service.config.default_deadline,
                              maximum=service.config.max_deadline)
    except ValueError as exc:
        raise _BadRequest(str(exc)) from None
    return Deadline.after(budget)


def _submit_and_wait(service, job: Job, endpoint: str
                     ) -> tuple[int, object, dict]:
    try:
        shed = service.admission.submit(job)
    except InjectedCrash:
        raise
    except InjectedFault as exc:
        return 503, {"error": f"enqueue failed: {exc}"}, {"Retry-After": "1"}
    if shed is not None:
        return shed.status, {
            "error": f"request shed: {shed.reason}", "reason": shed.reason,
        }, {"Retry-After": f"{max(shed.retry_after, 1):.0f}"}
    finished = job.done.wait(timeout=job.deadline.remaining() + 0.25)
    if not finished:
        # The worker may still be grinding; it checks `cancelled` (and its
        # engine run is bounded by the same deadline) — the connection is
        # released now either way.
        job.cancelled.set()
        service.metrics.inc("repro_deadline_timeouts_total",
                            labels={"endpoint": endpoint})
        return 504, {
            "error": "deadline expired before the job completed",
            "deadline_seconds": job.deadline.budget,
        }, {"Retry-After": "1"}
    if job.status == CRASHED_STATUS:
        raise InjectedCrash("service crashed while the job was in flight")
    return job.status, job.body, job.headers


def _submit_compress(service, document, headers) -> tuple[int, object, dict]:
    deadline = _request_deadline(service, document, headers)
    series, names = _normalize_series(document)
    codec = str(document.get("codec") or service.config.codec)
    try:
        codec = codec_spec(codec).name
    except InvalidParameterError as exc:
        raise _BadRequest(str(exc)) from None
    codec_options = document.get("codec_options") or {}
    if not isinstance(codec_options, dict):
        raise _BadRequest("codec_options must be a JSON object")
    allowed, retry_after = service.breaker.allow(codec)
    if not allowed:
        service.metrics.inc("repro_breaker_rejected_total",
                            labels={"codec": codec})
        return 503, {
            "error": f"circuit breaker open for codec {codec!r}",
            "codec": codec, "breaker": service.breaker.state_of(codec),
        }, {"Retry-After": f"{max(retry_after, 1):.0f}"}
    job = Job(kind="compress",
              tenant=str(headers.get(TENANT_HEADER) or DEFAULT_TENANT),
              deadline=deadline,
              payload={"series": series, "names": names, "codec": codec,
                       "codec_options": codec_options,
                       "include_blocks":
                           bool(document.get("include_blocks", False))})
    return _submit_and_wait(service, job, "/compress")


# --------------------------------------------------------------------- #
# POST /ingest
# --------------------------------------------------------------------- #
def _submit_ingest(service, document, headers) -> tuple[int, object, dict]:
    deadline = _request_deadline(service, document, headers)
    stream = document.get("stream")
    if not isinstance(stream, str) or not stream:
        raise _BadRequest("stream must be a non-empty string")
    values = document.get("values")
    if not isinstance(values, list) or not values:
        raise _BadRequest("values must be a non-empty array of numbers")
    try:
        values = [float(value) for value in values]
    except (TypeError, ValueError):
        raise _BadRequest("values contains non-numeric entries") from None
    key = headers.get(IDEMPOTENCY_HEADER)
    if key is None:
        key = document.get("idempotency_key")
    if key is not None and (not isinstance(key, str) or not key):
        raise _BadRequest("idempotency key must be a non-empty string")
    if service.multi.spool is None and key is not None:
        return 503, {"error": "idempotent ingest requires a durable store "
                              "(start the service with --store)"}, {}
    job = Job(kind="ingest",
              tenant=str(headers.get(TENANT_HEADER) or DEFAULT_TENANT),
              deadline=deadline,
              payload={"stream": stream, "values": values, "key": key})
    return _submit_and_wait(service, job, "/ingest")
