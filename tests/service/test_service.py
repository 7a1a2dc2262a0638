"""Behavioural tests for the compression service.

Each robustness mechanism is tested twice where practical: a deterministic
unit test of the component (admission hysteresis, breaker state machine,
lifecycle ordering) and an end-to-end HTTP test of the same promise
through a real booted service.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine import BatchReport
from repro.exceptions import InvalidParameterError
from repro.faultinject import FaultAction, ServiceFaultAction, active_plan
from repro.service import (AdmissionController, CircuitBreaker, Deadline,
                           Job, Lifecycle, ServiceConfig, ServiceMetrics)
from repro.service.server import BACKLOG_BATCHES
from repro.storage.durable import DurableStore


# --------------------------------------------------------------------- #
# health + lifecycle
# --------------------------------------------------------------------- #
class TestLifecycle:
    def test_states_are_monotonic(self):
        lifecycle = Lifecycle()
        assert lifecycle.state == "starting"
        assert lifecycle.mark_running()
        assert lifecycle.begin_drain()
        assert not lifecycle.mark_running()      # no going back
        assert lifecycle.mark_stopped()
        assert not lifecycle.begin_drain()

    def test_readiness_outlives_nothing_liveness_outlives_drain(self):
        lifecycle = Lifecycle()
        lifecycle.mark_running()
        assert lifecycle.is_ready and lifecycle.is_alive
        lifecycle.begin_drain()
        assert not lifecycle.is_ready and lifecycle.is_alive
        lifecycle.mark_stopped()
        assert not lifecycle.is_alive

    def test_health_endpoints(self, service_factory):
        _service, client = service_factory()
        status, body, _headers = client.get("/healthz")
        assert status == 200 and body["alive"] and body["state"] == "running"
        status, body, _headers = client.get("/readyz")
        assert status == 200 and body["ready"]

    def test_readyz_flips_before_healthz_during_drain(self, service_factory):
        # An injected drain-site hang holds the service in `draining` long
        # enough to observe readiness off while liveness is still on.
        with active_plan([ServiceFaultAction(kind="hang", site="drain",
                                             seconds=1.0)]):
            service, client = service_factory()
            service.initiate_drain(reason="test")
            deadline = time.monotonic() + 0.8
            seen = None
            while time.monotonic() < deadline:
                status, body, _h = client.get("/readyz", timeout=2)
                if status == 503:
                    seen = (status, body)
                    break
                time.sleep(0.02)
            assert seen is not None, "readiness never flipped during drain"
            assert seen[1]["state"] == "draining"
            status, body, _h = client.get("/healthz", timeout=2)
            assert status == 200 and body["alive"]
            assert service.lifecycle.drained.wait(10)


# --------------------------------------------------------------------- #
# /compress
# --------------------------------------------------------------------- #
class TestCompressEndpoint:
    def test_round_trip(self, service_factory):
        _service, client = service_factory()
        status, body, _h = client.post("/compress", {
            "series": [[1.0, 2.0, 3.0] * 30, [5.0] * 64]})
        assert status == 200
        assert body["series"] == 2 and body["failed"] == 0
        assert body["encoded_bits"] > 0
        assert len(body["outcomes"]) == 2
        assert all(entry["ok"] and entry["bits"] > 0
                   for entry in body["outcomes"])

    def test_named_series_and_blocks(self, service_factory):
        _service, client = service_factory()
        status, body, _h = client.post("/compress", {
            "series": {"hot": [1.5] * 40, "cold": [2.5] * 40},
            "include_blocks": True})
        assert status == 200
        names = [entry["name"] for entry in body["outcomes"]]
        assert names == ["hot", "cold"]
        assert all("payload" in entry["block"] for entry in body["outcomes"])

    @pytest.mark.parametrize("document", (
        {"series": []},
        {"series": [[]]},
        {"series": [[1.0, "x"]]},
        {"series": [[1.0]], "names": ["a", "b"]},
        {"series": [[1.0]], "codec": "no-such-codec"},
        {"series": [[1.0]], "deadline_ms": -5},
        {"series": [[1.0]], "codec_options": "nope"},
        ["not", "an", "object"],
    ))
    def test_malformed_requests_get_400(self, service_factory, document):
        _service, client = service_factory()
        status, body, _h = client.post("/compress", document)
        assert status == 400
        assert "error" in body

    def test_unknown_endpoint_and_method(self, service_factory):
        _service, client = service_factory()
        assert client.post("/nope", {})[0] == 404
        assert client.request("PUT", "/compress", body={})[0] == 405

    def test_oversize_body_gets_413(self, service_factory):
        _service, client = service_factory(max_body_bytes=128)
        status, body, _h = client.post("/compress",
                                       {"series": [[1.0] * 500]})
        assert status == 413
        assert "error" in body


# --------------------------------------------------------------------- #
# /ingest
# --------------------------------------------------------------------- #
class TestIngestEndpoint:
    def test_plain_ingest_seals_chunks(self, service_factory):
        _service, client = service_factory()
        status, body, _h = client.post("/ingest",
                                       {"stream": "s", "values": [1.5] * 20})
        assert status == 200
        assert body["ingested"] == 20 and body["sealed_chunks"] == 2
        assert not body["duplicate"]

    def test_idempotency_key_dedupes(self, service_factory):
        _service, client = service_factory()
        headers = {"Idempotency-Key": "batch-1"}
        first = client.post("/ingest", {"stream": "s", "values": [2.0] * 20},
                            headers=headers)
        again = client.post("/ingest", {"stream": "s", "values": [2.0] * 20},
                            headers=headers)
        assert first[0] == again[0] == 200
        assert not first[1]["duplicate"] and again[1]["duplicate"]
        assert again[1]["ingested"] == 0

    @pytest.mark.parametrize("document", (
        {"values": [1.0]},
        {"stream": "", "values": [1.0]},
        {"stream": "s"},
        {"stream": "s", "values": []},
        {"stream": "s", "values": ["x"]},
        {"stream": "s", "values": [1.0], "idempotency_key": ""},
    ))
    def test_malformed_requests_get_400(self, service_factory, document):
        _service, client = service_factory()
        assert client.post("/ingest", document)[0] == 400

    def test_idempotency_without_store_is_503(self, service_factory):
        _service, client = service_factory(store=None)
        status, body, _h = client.post(
            "/ingest", {"stream": "s", "values": [1.0] * 4},
            headers={"Idempotency-Key": "k"})
        assert status == 503
        assert "durable store" in body["error"]

    def test_streams_summary(self, service_factory):
        _service, client = service_factory()
        client.post("/ingest", {"stream": "s", "values": [1.0] * 20})
        status, body, _h = client.get("/streams")
        assert status == 200
        assert body["streams"]["s"]["ingested_points"] == 20


# --------------------------------------------------------------------- #
# the background ingest drainer
# --------------------------------------------------------------------- #
def _in_thread(call, *args, **kwargs):
    """Start ``call`` on a thread; returns (thread, list its result lands in)."""
    answers: list = []
    thread = threading.Thread(
        target=lambda: answers.append(call(*args, **kwargs)), daemon=True)
    thread.start()
    return thread, answers


class TestIngestDrainer:
    def test_streams_waits_for_the_drain_in_flight(self, service_factory,
                                                   encode_gate):
        service, client = service_factory(drain_batch=2)
        gate = encode_gate(service)
        # The request that seals the second chunk is answered while its
        # drain is still encoding: the encode is off the request path.
        status, body, _h = client.post("/ingest",
                                       {"stream": "s", "values": [1.5] * 20})
        assert status == 200 and body["sealed_chunks"] == 2
        assert "drained_chunks" not in body
        assert gate.entered.wait(10)
        reader, answers = _in_thread(client.get, "/streams")
        reader.join(timeout=0.3)
        assert reader.is_alive() and not answers, \
            "/streams answered while a drain was in flight"
        gate.release.set()
        reader.join(timeout=10)
        assert not reader.is_alive()
        status, body, _h = answers[0]
        assert status == 200 and body["pending_chunks"] == 0
        assert body["streams"]["s"]["chunks"] == 2
        assert body["streams"]["s"]["buffered_points"] == 4

    def test_ingest_past_the_backlog_bound_waits(self, service_factory,
                                                 encode_gate):
        service, client = service_factory(drain_batch=1)
        gate = encode_gate(service)
        one_chunk = {"stream": "s", "values": [2.5] * 8}
        assert client.post("/ingest", one_chunk)[0] == 200
        assert gate.entered.wait(10)               # the drainer holds it
        bound = BACKLOG_BATCHES * service.config.drain_batch
        for _ in range(bound):
            assert client.post("/ingest", one_chunk)[0] == 200
        assert service.multi.pending_chunks == bound
        # One more waits for the drainer instead of growing the queue...
        writer, answers = _in_thread(client.post, "/ingest", one_chunk)
        writer.join(timeout=0.3)
        assert writer.is_alive() and service.multi.pending_chunks == bound
        # ...and one whose deadline passes first is refused unapplied.
        status, body, headers = client.post(
            "/ingest", one_chunk, headers={"X-Deadline-Ms": "200"})
        assert status == 503 and "backlog" in body["error"]
        assert "Retry-After" in headers
        gate.release.set()
        writer.join(timeout=10)
        assert not writer.is_alive() and answers[0][0] == 200
        status, body, _h = client.get("/streams")
        assert body["streams"]["s"]["ingested_points"] == 8 * (bound + 2)
        assert body["pending_chunks"] == 0

    def test_what_stays_pending_does_not_depend_on_timing(
            self, service_factory, encode_gate):
        # The drainer takes whole batches, so once ingest stops the barrier
        # finds sealed chunks modulo drain_batch pending — here none —
        # however the encodes and the requests interleaved.
        service, client = service_factory(drain_batch=2)
        gate = encode_gate(service)
        one_chunk = {"stream": "s", "values": [3.5] * 8}
        for _ in range(2):
            assert client.post("/ingest", one_chunk)[0] == 200
        assert gate.entered.wait(10)
        for _ in range(3):                       # sealed during the encode
            assert client.post("/ingest", one_chunk)[0] == 200
        gate.release.set()
        deadline = time.monotonic() + 10
        while service.multi.pending_chunks == 3 and time.monotonic() < deadline:
            time.sleep(0.01)                     # the next take happened
        assert client.post("/ingest", one_chunk)[0] == 200
        status, body, _h = client.get("/streams")
        assert status == 200 and body["pending_chunks"] == 0
        assert body["streams"]["s"]["chunks"] == 6

    def test_drains_show_on_metrics(self, service_factory):
        _service, client = service_factory(drain_batch=2)
        client.post("/ingest", {"stream": "s", "values": [1.0] * 20})
        client.get("/streams")             # returns once the drain committed
        lines = client.get("/metrics")[1].splitlines()
        for needle in ("repro_ingest_drains_total 1",
                       "repro_ingest_pending_chunks 0"):
            assert needle in lines, f"{needle!r} missing from scrape"
        assert any(line.startswith("repro_ingest_drain_seconds_total ")
                   for line in lines)

    def test_a_failed_drainer_is_counted_and_fails_readiness(
            self, service_factory):
        service, client = service_factory(drain_batch=1)

        def broken(*_args, **_kwargs):
            raise RuntimeError("encoder exploded")

        service.multi.engine.compress = broken
        assert client.post("/ingest", {"stream": "s", "values": [1.0] * 8},
                           )[0] == 200
        service._drainer.join(timeout=10)
        assert not service._drainer.is_alive()
        status, body, _h = client.get("/readyz")
        assert status == 503
        assert "encoder exploded" in body["drainer_error"]
        lines = client.get("/metrics")[1].splitlines()
        assert "repro_ingest_drain_errors_total 1" in lines
        assert "repro_ready 0" in lines
        # Nothing waits on a dead drainer: the barrier answers at once.
        assert client.get("/streams", timeout=5)[0] == 200


# --------------------------------------------------------------------- #
# admission control
# --------------------------------------------------------------------- #
def _job(tenant: str = "t") -> Job:
    return Job(kind="compress", tenant=tenant, deadline=Deadline.after(30))


class TestServiceConfig:
    @pytest.mark.parametrize("knobs, choices", [
        (dict(backend="process"), "serial, thread"),
        (dict(engine_workers=0), "workers must be >= 1"),
    ], ids=["process-backend", "zero-workers"])
    def test_engine_knobs_rejected_at_construction(self, knobs, choices):
        # Refused when the config is built, not at the first /compress.
        with pytest.raises(InvalidParameterError, match=choices):
            ServiceConfig(**knobs)


class TestAdmissionUnit:
    def make(self, **overrides) -> AdmissionController:
        settings = dict(queue_depth=4, high_watermark=3, low_watermark=1,
                        per_tenant_inflight=8, workers=1)
        settings.update(overrides)
        return AdmissionController(ServiceConfig(**settings),
                                   ServiceMetrics())

    def test_watermark_hysteresis_latches_and_unlatches(self):
        admission = self.make()
        jobs = [_job(f"t{i}") for i in range(3)]
        assert all(admission.submit(job) is None for job in jobs)
        # depth hit high_watermark=3: shedding latches.
        shed = admission.submit(_job("late"))
        assert shed is not None and shed.status == 429
        assert shed.reason == "overload" and shed.retry_after >= 1
        # Draining one job (depth 2 > low) must NOT unlatch...
        finished = admission.next_job()
        admission.finish(finished)
        assert admission.submit(_job("still")).status == 429
        # ...but reaching low_watermark=1 does.
        admission.finish(admission.next_job())
        assert admission.submit(_job("ok")) is None

    def test_queue_never_exceeds_depth(self):
        admission = self.make(high_watermark=4, low_watermark=0)
        outcomes = [admission.submit(_job(f"t{i}")) for i in range(10)]
        assert admission.depth <= 4
        assert sum(1 for shed in outcomes if shed is not None) == 6

    def test_per_tenant_cap(self):
        admission = self.make(per_tenant_inflight=2)
        assert admission.submit(_job("hot")) is None
        assert admission.submit(_job("hot")) is None
        shed = admission.submit(_job("hot"))
        assert shed is not None and shed.status == 429
        assert shed.reason == "tenant-cap"
        assert admission.submit(_job("cold")) is None

    def test_stop_refuses_everything(self):
        admission = self.make()
        admission.stop("draining")
        shed = admission.submit(_job())
        assert shed.status == 503 and shed.reason == "draining"

    def test_shed_queued_answers_every_waiter(self):
        admission = self.make()
        jobs = [_job(f"t{i}") for i in range(3)]
        for job in jobs:
            admission.submit(job)
        shed = admission.shed_queued(status=503, reason="draining")
        assert len(shed) == 3
        for job in jobs:
            assert job.done.is_set() and job.status == 503
            assert "Retry-After" in job.headers
        assert admission.depth == 0


class TestAdmissionHTTP:
    def test_overload_sheds_with_429_and_retry_after(self, service_factory):
        # One worker held by an injected 1 s hang; a burst beyond
        # queue_depth=2 must shed with well-formed 429s, never hang.
        with active_plan([ServiceFaultAction(kind="hang",
                                             site="mid_job_crash",
                                             target="/compress",
                                             seconds=1.0)]):
            _service, client = service_factory(
                workers=1, queue_depth=2, high_watermark=2, low_watermark=0)
            results = []
            lock = threading.Lock()

            def fire():
                outcome = client.post("/compress",
                                      {"series": [[1.0] * 64]}, timeout=30)
                with lock:
                    results.append(outcome)

            threads = [threading.Thread(target=fire) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            statuses = sorted(status for status, _b, _h in results)
            assert len(statuses) == 6
            assert statuses.count(200) <= 3          # 1 running + 2 queued
            shed = [(status, body, headers)
                    for status, body, headers in results if status == 429]
            assert shed, f"no 429 in {statuses}"
            for _status, body, headers in shed:
                assert body["reason"] == "overload"
                assert int(float(headers["Retry-After"])) >= 1

    def test_tenant_cap_spares_other_tenants(self, service_factory):
        with active_plan([ServiceFaultAction(kind="hang",
                                             site="mid_job_crash",
                                             target="/compress",
                                             seconds=1.0)]):
            _service, client = service_factory(workers=1,
                                               per_tenant_inflight=1)
            results = {}

            def fire(name, tenant):
                results[name] = client.post(
                    "/compress", {"series": [[1.0] * 64]},
                    headers={"X-Tenant": tenant}, timeout=30)

            hog = threading.Thread(target=fire, args=("hog-1", "hog"))
            hog.start()
            time.sleep(0.3)      # let the hog's job reach the worker
            fire("hog-2", "hog")
            fire("other", "fair")
            hog.join(timeout=30)
            assert results["hog-2"][0] == 429
            assert results["hog-2"][1]["reason"] == "tenant-cap"
            assert results["other"][0] == 200
            assert results["hog-1"][0] == 200


# --------------------------------------------------------------------- #
# deadlines over HTTP
# --------------------------------------------------------------------- #
class TestDeadlineHTTP:
    def test_blown_deadline_is_a_prompt_504(self, service_factory):
        with active_plan([ServiceFaultAction(kind="hang",
                                             site="mid_job_crash",
                                             target="/compress",
                                             seconds=3.0)]):
            service, client = service_factory(workers=1)
            started = time.monotonic()
            status, body, headers = client.post(
                "/compress", {"series": [[1.0] * 64]},
                headers={"X-Deadline-Ms": "300"}, timeout=30)
            elapsed = time.monotonic() - started
        assert status == 504
        assert "deadline" in body["error"]
        assert "Retry-After" in headers
        assert elapsed < 2.0, "504 must arrive at the deadline, not the hang"
        assert service.metrics.counter(
            "repro_deadline_timeouts_total",
            labels={"endpoint": "/compress"}) == 1


# --------------------------------------------------------------------- #
# circuit breaker
# --------------------------------------------------------------------- #
class TestBreakerUnit:
    def test_closed_open_halfopen_cycle(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=2, cooldown=5.0,
                                 clock=lambda: clock[0])
        assert breaker.allow("gorilla") == (True, 0.0)
        breaker.record("gorilla", False)
        assert breaker.state_of("gorilla") == "closed"
        breaker.record("gorilla", False)
        assert breaker.state_of("gorilla") == "open"
        allowed, retry_after = breaker.allow("gorilla")
        assert not allowed and retry_after == pytest.approx(5.0)
        clock[0] = 6.0
        assert breaker.allow("gorilla") == (True, 0.0)   # the probe
        assert breaker.state_of("gorilla") == "half-open"
        assert not breaker.allow("gorilla")[0]           # one probe at a time
        breaker.record("gorilla", True)
        assert breaker.state_of("gorilla") == "closed"

    def test_failed_probe_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=1, cooldown=2.0,
                                 clock=lambda: clock[0])
        breaker.record("k", False)
        clock[0] = 3.0
        assert breaker.allow("k")[0]
        breaker.record("k", False)
        assert breaker.state_of("k") == "open"
        assert not breaker.allow("k")[0]

    def test_healthy_run_resets_failure_streak(self):
        breaker = CircuitBreaker(threshold=3)
        breaker.record("k", False)
        breaker.record("k", False)
        breaker.record("k", True)
        breaker.record("k", False)
        assert breaker.state_of("k") == "closed"

    def test_keys_are_independent(self):
        breaker = CircuitBreaker(threshold=1)
        breaker.record("bad", False)
        assert not breaker.allow("bad")[0]
        assert breaker.allow("good")[0]


class TestBreakerHTTP:
    def test_open_breaker_fails_fast_then_probes(self, service_factory):
        service, client = service_factory(breaker_threshold=2,
                                          breaker_cooldown=0.3)
        for _ in range(2):
            service.breaker.record("gorilla", False)
        status, body, headers = client.post("/compress",
                                            {"series": [[1.0] * 32]})
        assert status == 503
        assert body["breaker"] == "open"
        assert "Retry-After" in headers
        time.sleep(0.4)
        # Cooldown elapsed: the probe goes through, succeeds, and closes.
        status, _body, _h = client.post("/compress",
                                        {"series": [[1.0] * 32]})
        assert status == 200
        assert service.breaker.state_of("gorilla") == "closed"

    def test_degraded_engine_runs_open_the_breaker(self, service_factory):
        # The real path: each /compress run's BatchReport feeds the breaker.
        service, client = service_factory(retries=0, breaker_threshold=2)
        with active_plan([FaultAction(kind="raise", series=0, site="chunk",
                                      max_hits=None)]):
            for _ in range(2):
                status, body, _h = client.post("/compress",
                                                {"series": [[1.0] * 32]})
                assert status == 207 and body["degraded_series"] == 1
            assert service.breaker.state_of("gorilla") == "open"
            status, body, headers = client.post("/compress",
                                                {"series": [[1.0] * 32]})
        assert status == 503 and body["breaker"] == "open"
        assert "Retry-After" in headers
        # Refused before the engine ran: only the two degraded runs counted.
        assert service.metrics.counter("repro_engine_series_total") == 2


# --------------------------------------------------------------------- #
# /metrics
# --------------------------------------------------------------------- #
class TestMetricsEndpoint:
    def test_scrape_after_traffic(self, service_factory):
        _service, client = service_factory()
        client.post("/compress", {"series": [[1.0] * 64]})
        client.post("/ingest", {"stream": "s", "values": [2.0] * 20},
                    headers={"Idempotency-Key": "k"})
        client.post("/ingest", {"stream": "s", "values": [2.0] * 20},
                    headers={"Idempotency-Key": "k"})
        status, text, headers = client.get("/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        lines = text.splitlines()
        wanted = (
            'repro_requests_total{endpoint="/compress",status="200"} 1',
            'repro_requests_total{endpoint="/ingest",status="200"} 2',
            "repro_idempotent_duplicates_total 1",
            "repro_queue_depth 0",
            "repro_ready 1",
            "repro_ingest_pending_chunks 2",
        )
        for needle in wanted:
            assert needle in lines, f"{needle!r} missing from scrape"
        assert any(line.startswith('repro_request_seconds{endpoint="/compress"')
                   and 'quantile="0.99"' in line for line in lines)
        assert any(line.startswith("repro_engine_series_total")
                   for line in lines)

    def test_absorbed_report_renders_every_engine_counter(self):
        metrics = ServiceMetrics()
        metrics.absorb_report(BatchReport(
            codec="gorilla", backend="thread", workers=2, series=5, failed=1,
            retries=2, timeouts=1, degraded_series=3))
        engine_lines = sorted(line for line in metrics.render().splitlines()
                              if line.startswith("repro_engine_"))
        assert engine_lines == ["repro_engine_degraded_series_total 3",
                                "repro_engine_failed_series_total 1",
                                "repro_engine_retries_total 2",
                                "repro_engine_series_total 5",
                                "repro_engine_timeouts_total 1"]


# --------------------------------------------------------------------- #
# graceful drain
# --------------------------------------------------------------------- #
class TestDrain:
    def test_drain_finishes_inflight_work_and_checkpoints(self, tmp_path,
                                                          service_factory):
        service, client = service_factory(store=str(tmp_path / "drain-store"))
        client.post("/ingest", {"stream": "s", "values": [1.0] * 20},
                    headers={"Idempotency-Key": "k"})
        assert service.stop(timeout=15)
        report = service.drain_report
        assert report is not None and report.clean and not report.aborted
        assert report.shed_jobs == 0
        # The store is checkpointed and unlocked: reopen + verify contents.
        with DurableStore.open(str(tmp_path / "drain-store")) as store:
            assert store.recovery.clean
            assert store.length("s") == 20

    def test_drain_never_loses_acked_values(self, tmp_path, service_factory):
        store = str(tmp_path / "conserve-store")
        service, client = service_factory(store=store)
        # 20 values, chunk_size 8: 2 sealed pending + 4 buffered — none of
        # it drained to blocks yet.  All 20 must survive the stop.
        client.post("/ingest", {"stream": "s", "values": [1.0] * 20})
        assert service.stop(timeout=15)
        rebooted, client2 = service_factory(store=store)
        assert rebooted.replayed == 20
        status, body, _h = client2.get("/streams")
        assert status == 200
        summary = body["streams"]["s"]
        assert summary["ingested_points"] == 20

    def test_drain_under_load_sheds_queued_jobs(self, service_factory):
        with active_plan([ServiceFaultAction(kind="hang",
                                             site="mid_job_crash",
                                             target="/compress",
                                             seconds=1.0)]):
            service, client = service_factory(workers=1, drain_timeout=0.05)
            results = []
            lock = threading.Lock()

            def fire():
                outcome = client.post("/compress",
                                      {"series": [[1.0] * 64]}, timeout=30)
                with lock:
                    results.append(outcome)

            threads = [threading.Thread(target=fire) for _ in range(3)]
            for thread in threads:
                thread.start()
            time.sleep(0.3)      # first job reaches the worker, rest queue
            service.initiate_drain(reason="test")
            for thread in threads:
                thread.join(timeout=30)
            assert service.lifecycle.drained.wait(15)
            assert len(results) == 3
            shed = [body for status, body, _h in results if status == 503]
            assert service.drain_report.shed_jobs == len(shed)
            assert shed, "nothing was shed under a 50 ms drain budget"
            for body in shed:
                assert body["reason"] in ("draining", "aborted")

    def test_submissions_after_drain_get_503(self, service_factory):
        with active_plan([ServiceFaultAction(kind="hang", site="drain",
                                             seconds=1.0)]):
            service, client = service_factory()
            service.initiate_drain(reason="test")
            time.sleep(0.1)
            status, body, _h = client.post("/compress",
                                           {"series": [[1.0] * 16]},
                                           timeout=10)
            assert status == 503
            assert body["reason"] == "draining"
            assert service.lifecycle.drained.wait(10)
