"""Seeded service chaos soaks (opt-in: ``-m stress`` / REPRO_RUN_STRESS=1).

Each soak derives a service fault plan from its seed
(:func:`repro.faultinject.random_service_plan` — crashes, hangs, and
raises at random service sites) and runs a randomized request workload
against a real booted service.  Whatever the plan does, the invariants
hold:

* every answered request is well-formed — a documented status code with a
  JSON body — and every unanswered one is a dropped connection (a crash),
  never a hang past the client timeout;
* after the run (drain or abort), the durable store reopens with a clean
  recovery and a follow-up fsck converges;
* idempotent ingests are applied exactly once: however many retries a
  crash forces, a final reboot sees every key's batch exactly once.

The long-ingest soak holds the drainer's bound instead: many clients
out-ingesting a slowed encode never queue more than ``BACKLOG_BATCHES``
batches of sealed chunks, and lose or repeat no value.

A failing seed replays exactly: the plan is a pure function of the seed.
"""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.faultinject import active_plan, random_service_plan
from repro.service import CompressionService, ServiceConfig
from repro.service.server import BACKLOG_BATCHES
from repro.storage.recovery import fsck
from repro.streaming import MultiStreamCompressor

STRESS_SEEDS = tuple(range(12))

#: Statuses a well-formed service response may carry.
ALLOWED_STATUSES = {200, 207, 400, 429, 500, 503, 504}


def _boot(store: str) -> CompressionService:
    service = CompressionService(ServiceConfig(
        port=0, workers=2, chunk_size=8, queue_depth=8,
        default_deadline=5.0, drain_timeout=2.0, store=store))
    service.start()
    threading.Thread(target=service.serve_forever, daemon=True).start()
    return service


def _post(port: int, path: str, body: dict, headers: dict):
    """One request; returns (status, parsed) or None for a dropped conn."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}" + path, data=json.dumps(body).encode(),
        method="POST", headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=20) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode())
    except (http.client.HTTPException, ConnectionError, socket.timeout,
            urllib.error.URLError, OSError):
        return None


@pytest.mark.stress
@pytest.mark.parametrize("seed", STRESS_SEEDS, ids=lambda s: f"seed{s}")
def test_service_chaos_soak(seed, tmp_path):
    store = str(tmp_path / "store")
    rng = np.random.default_rng(seed)
    acked_keys: set[str] = set()
    with active_plan(random_service_plan(seed)):
        for _boot_round in range(3):
            service = _boot(store)
            port = service.port
            for request_index in range(int(rng.integers(4, 10))):
                key = f"seed{seed}-key{int(rng.integers(0, 4))}"
                if rng.random() < 0.6:
                    outcome = _post(port, "/ingest",
                                    {"stream": f"s{int(rng.integers(0, 2))}",
                                     "values": [float(request_index)] * 12},
                                    {"Idempotency-Key": key})
                else:
                    outcome = _post(port, "/compress",
                                    {"series": [[1.0] * 32]}, {})
                if outcome is None:
                    break  # crash: this boot is dead, start the next
                status, body = outcome
                assert status in ALLOWED_STATUSES, (status, body)
                assert isinstance(body, dict) and (
                    status in (200, 207) or "error" in body), (status, body)
                if status == 200 and "stream" in body:
                    acked_keys.add(key)
            if service.lifecycle.is_alive:
                service.stop(timeout=15)
            assert service.lifecycle.drained.wait(15), "drain never converged"

    # Out of the fault plan: the store must recover and every acked key
    # must dedupe (its batch landed exactly once).
    report = fsck(store)
    assert report.clean, report.summary()
    service = _boot(store)
    for key in sorted(acked_keys):
        outcome = _post(service.port, "/ingest",
                        {"stream": "s0", "values": [9.9] * 12},
                        {"Idempotency-Key": key})
        assert outcome is not None
        status, body = outcome
        assert status == 200 and body["duplicate"], (key, status, body)
    assert service.stop(timeout=15)
    assert fsck(store).clean


@pytest.mark.stress
def test_long_ingest_soak_bounds_the_backlog(tmp_path):
    """More clients than cores out-ingest a slowed drainer for a long run:
    the pending backlog never passes its bound, and every acked value is
    emitted or left in the spool exactly once."""
    store = str(tmp_path / "store")
    service = CompressionService(ServiceConfig(
        port=0, workers=4, chunk_size=8, drain_batch=2, queue_depth=32,
        default_deadline=30.0, store=store))
    multi = service.multi
    encode, add = multi.engine.compress, multi.add
    peak = [0]

    def slow_encode(*args, **kwargs):
        time.sleep(0.02)
        return encode(*args, **kwargs)

    def tracked_add(*args, **kwargs):
        sealed = add(*args, **kwargs)
        peak[0] = max(peak[0], multi.pending_chunks)
        return sealed

    multi.engine.compress, multi.add = slow_encode, tracked_add
    service.start()
    threading.Thread(target=service.serve_forever, daemon=True).start()
    streams, requests = 6, 250
    acked: dict[str, list[float]] = {f"s{i}": [] for i in range(streams)}

    def client(stream: str, offset: int) -> None:
        for request in range(requests):
            # One chunk's worth per request: each add seals at most one.
            values = [float(offset + request * 8 + k) for k in range(8)]
            outcome = _post(service.port, "/ingest",
                            {"stream": stream, "values": values}, {})
            assert outcome is not None and outcome[0] == 200, outcome
            acked[stream].extend(values)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(name, i * 10**6))
                   for i, name in enumerate(acked)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(previous)
    bound = BACKLOG_BATCHES * service.config.drain_batch
    assert service.config.drain_batch < peak[0] <= bound, peak[0]
    assert all(len(values) == 8 * requests for values in acked.values())
    assert (service.stream_summary()["pending_chunks"]
            < service.config.drain_batch)
    assert service.stop(timeout=30)

    with MultiStreamCompressor(8, "gorilla", spool_to=store) as rebooted:
        rebooted.flush()
        for name, values in acked.items():
            assert rebooted.reconstruct(name).tolist() == values, name


@pytest.mark.stress
def test_overload_soak_never_grows_the_queue(tmp_path):
    """A sustained burst far past capacity: bounded queue, bounded memory."""
    service = _boot(str(tmp_path / "store"))
    port = service.port
    results: list = []
    lock = threading.Lock()

    def fire(index: int) -> None:
        outcome = _post(port, "/compress",
                        {"series": [[float(index)] * 256] * 4}, {})
        with lock:
            results.append(outcome)

    threads = [threading.Thread(target=fire, args=(index,))
               for index in range(64)]
    for thread in threads:
        thread.start()
    peak = 0
    while any(thread.is_alive() for thread in threads):
        peak = max(peak, service.admission.depth)
    for thread in threads:
        thread.join(timeout=60)
    assert peak <= service.config.queue_depth
    assert len(results) == 64
    statuses = sorted(status for status, _body in results)
    assert set(statuses) <= {200, 429, 503, 504}
    assert service.stop(timeout=15)
