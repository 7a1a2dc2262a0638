"""Gating chaos matrix: every service fault site × kind.

For each ``(site, kind)`` pair the contract is checked end to end:

* **crash** — the client sees a dropped connection (never a half-written
  response), the service aborts with the store abandoned (nothing
  published), the store reopens with a clean recovery/fsck, and a retried
  idempotent ingest is applied exactly once;
* **raise** — a well-formed JSON error with the documented status code;
* **hang** — a delayed but otherwise correct response (or a 504 when the
  hang outlives the request deadline — tested separately).

The matrix runs in-process: ``InjectedCrash`` at a service site makes the
service abandon its store (no journal persistence, no drain, no
checkpoint), which leaves the same on-disk state as a killed process.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from pathlib import Path

import pytest

from repro.faultinject import SERVICE_KINDS, SERVICE_SITES, \
    ServiceFaultAction, active_plan
from repro.storage.durable import DurableStore
from repro.storage.recovery import fsck

INGEST = {"stream": "s", "values": [2.5] * 20}
KEY = {"Idempotency-Key": "chaos-key"}


def _assert_connection_dropped(client, path, body, headers):
    """The request must fail at the transport layer, not half-respond."""
    with pytest.raises((http.client.HTTPException, ConnectionError,
                        socket.timeout, OSError)):
        status, payload, _h = client.post(path, body, headers=headers,
                                          timeout=10)
        raise AssertionError(
            f"expected a dropped connection, got {status}: {payload}")


def _assert_store_recovers_exactly_once(service_factory, store,
                                        expect_duplicate):
    """Reboot on ``store``; the retried ingest lands exactly once, and
    the store alone reads it back once the service stops."""
    rebooted, client = service_factory(store=store)
    status, body, _h = client.post("/ingest", INGEST, headers=KEY)
    assert status == 200
    assert body["duplicate"] is expect_duplicate
    status, body, _h = client.get("/streams")
    assert body["streams"]["s"]["ingested_points"] == 20
    assert rebooted.stop(timeout=15)
    report = fsck(store)
    assert report.clean, report.summary()
    with DurableStore.open(store) as reopened:
        assert reopened.read("s").tolist() == INGEST["values"]


class TestChaosMatrix:
    """One deterministic scenario per (site, kind) combination."""

    def test_matrix_is_total(self):
        covered = {
            ("request_parse", "crash"), ("request_parse", "raise"),
            ("request_parse", "hang"),
            ("enqueue", "crash"), ("enqueue", "raise"), ("enqueue", "hang"),
            ("mid_job_crash", "crash"), ("mid_job_crash", "raise"),
            ("mid_job_crash", "hang"),
            ("drain", "crash"), ("drain", "raise"), ("drain", "hang"),
            ("response_write", "crash"), ("response_write", "raise"),
            ("response_write", "hang"),
        }
        assert covered == {(site, kind) for site in SERVICE_SITES
                           for kind in SERVICE_KINDS}

    # ------------------------------ crash ------------------------------ #
    @pytest.mark.parametrize("site,landed", (
        ("request_parse", False),   # crash before anything happened
        ("enqueue", False),         # crash before the job was queued
        ("mid_job_crash", True),    # crash after the WAL acked the append
        ("response_write", True),   # crash after the job, before the 200
    ))
    def test_crash_sites_recover_exactly_once(self, tmp_path,
                                              service_factory, site, landed):
        store = str(tmp_path / f"crash-{site}")
        with active_plan([ServiceFaultAction(kind="crash", site=site,
                                             target="/ingest")]):
            service, client = service_factory(store=store)
            _assert_connection_dropped(client, "/ingest", INGEST, KEY)
            assert service.lifecycle.drained.wait(10)
            assert service.drain_report.aborted
        # The abort skipped every graceful step; recovery must still be
        # clean and the retry applied exactly once (a duplicate ack when
        # the crash hit after the append, a fresh apply when before).
        _assert_store_recovers_exactly_once(service_factory, store,
                                            expect_duplicate=landed)

    def test_crash_during_drain_leaves_store_recoverable(self, tmp_path,
                                                         service_factory):
        store = str(tmp_path / "crash-drain")
        with active_plan([ServiceFaultAction(kind="crash", site="drain")]):
            service, client = service_factory(store=store, drain_batch=2)
            status, _body, _h = client.post("/ingest", INGEST, headers=KEY)
            assert status == 200
            # The barrier: both sealed chunks are installed, in memory.
            status, body, _h = client.get("/streams")
            assert body["streams"]["s"]["chunks"] == 2
            service.initiate_drain(reason="test")
            assert service.lifecycle.drained.wait(10)
            assert service.drain_report.aborted
        # A crash publishes nothing: the installed chunks died with the
        # process, and their values reopen raw from the WAL.
        assert not list(Path(store).rglob("*.seg"))
        _assert_store_recovers_exactly_once(service_factory, store,
                                            expect_duplicate=True)

    # ------------------------------ raise ------------------------------ #
    @pytest.mark.parametrize("site,status,fragment", (
        ("request_parse", 400, "request parse failed"),
        ("enqueue", 503, "enqueue failed"),
        ("mid_job_crash", 500, "injected fault"),
        ("response_write", 500, "response write failed"),
    ))
    def test_raise_sites_yield_wellformed_errors(self, tmp_path,
                                                 service_factory, site,
                                                 status, fragment):
        store = str(tmp_path / f"raise-{site}")
        with active_plan([ServiceFaultAction(kind="raise", site=site,
                                             target="/ingest")]):
            service, client = service_factory(store=store)
            got_status, body, _h = client.post("/ingest", INGEST, headers=KEY)
            assert got_status == status
            assert fragment in body["error"]
            # The fault was absorbed, not fatal: the service still serves.
            assert client.get("/readyz")[0] == 200
            assert service.stop(timeout=15)
        assert fsck(store).clean

    def test_raise_during_drain_still_converges(self, tmp_path,
                                                service_factory):
        store = str(tmp_path / "raise-drain")
        with active_plan([ServiceFaultAction(kind="raise", site="drain")]):
            service, client = service_factory(store=store)
            client.post("/ingest", INGEST, headers=KEY)
            service.initiate_drain(reason="test")
            assert service.lifecycle.drained.wait(10)
            report = service.drain_report
            assert report is not None and not report.aborted
            assert service.metrics.counter("repro_drain_faults_total") == 1
        assert fsck(store).clean

    # ------------------------------ hang ------------------------------- #
    @pytest.mark.parametrize("site", ("request_parse", "enqueue",
                                      "mid_job_crash", "response_write"))
    def test_hang_sites_delay_but_answer(self, tmp_path, service_factory,
                                         site):
        store = str(tmp_path / f"hang-{site}")
        with active_plan([ServiceFaultAction(kind="hang", site=site,
                                             target="/ingest",
                                             seconds=0.3)]):
            service, client = service_factory(store=store)
            status, body, _h = client.post("/ingest", INGEST, headers=KEY,
                                           timeout=15)
            assert status == 200 and body["ingested"] == 20
            assert service.stop(timeout=15)
        assert fsck(store).clean

    def test_hang_during_drain_still_converges(self, tmp_path,
                                               service_factory):
        store = str(tmp_path / "hang-drain")
        with active_plan([ServiceFaultAction(kind="hang", site="drain",
                                             seconds=0.3)]):
            service, client = service_factory(store=store)
            client.post("/ingest", INGEST, headers=KEY)
            assert service.stop(timeout=15)
            assert not service.drain_report.aborted
        assert fsck(store).clean


class TestAbortMidEncode:
    """An abort while the drainer encodes drops the batch uncommitted."""

    def test_abort_while_the_drainer_encodes(self, tmp_path, service_factory,
                                             encode_gate):
        store = str(tmp_path / "abort-mid-encode")
        service, client = service_factory(store=store, drain_batch=2)
        gate = encode_gate(service)
        status, _body, _h = client.post("/ingest", INGEST, headers=KEY)
        assert status == 200
        assert gate.entered.wait(10)
        aborter = threading.Thread(target=service.abort, daemon=True)
        aborter.start()
        aborter.join(timeout=10)
        assert not aborter.is_alive(), "abort waited for the encode"
        assert service.drain_report.aborted
        gate.release.set()
        service._drainer.join(timeout=10)
        assert not service._drainer.is_alive()
        # Never committed: nothing installed, and the store still holds the
        # batch raw, so the reboot queues it again and the retry dedupes.
        assert service.multi.results("s") == []
        _assert_store_recovers_exactly_once(service_factory, store,
                                            expect_duplicate=True)


class TestCompressCrash:
    """A mid-job crash on /compress drops the connection and aborts."""

    def test_crash_mid_compress(self, tmp_path, service_factory):
        store = str(tmp_path / "crash-compress")
        with active_plan([ServiceFaultAction(kind="crash",
                                             site="mid_job_crash",
                                             target="/compress")]):
            service, client = service_factory(store=store)
            _assert_connection_dropped(client, "/compress",
                                       {"series": [[1.0] * 64]}, {})
            assert service.lifecycle.drained.wait(10)
            assert service.drain_report.aborted
        # Nothing of the compress touched the store; it reopens clean.
        with DurableStore.open(store) as reopened:
            assert reopened.recovery.clean


class TestCrashDoesNotDoubleApply:
    """The acked-exactly-once invariant under a crash-then-retry loop."""

    def test_repeated_crash_retry_cycles(self, tmp_path, service_factory):
        store = str(tmp_path / "cycles")
        # Crash the first ingest attempt of each of two boots, then let a
        # third boot succeed; the stream must hold exactly one batch.
        for _round in range(2):
            with active_plan([ServiceFaultAction(kind="crash",
                                                 site="mid_job_crash",
                                                 target="/ingest")]):
                service, client = service_factory(store=store)
                _assert_connection_dropped(client, "/ingest", INGEST, KEY)
                assert service.lifecycle.drained.wait(10)
        final, client = service_factory(store=store)
        status, body, _h = client.post("/ingest", INGEST, headers=KEY)
        assert status == 200 and body["duplicate"]
        status, body, _h = client.get("/streams")
        # Every boot reopens all 20 values: a double-apply would show 40
        # here, a lost batch 0.
        assert body["streams"]["s"]["ingested_points"] == 20
        assert final.stop(timeout=15)
        assert fsck(store).clean
