"""Fixtures for the compression-service tests: boot helpers + HTTP client."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import CompressionService, ServiceConfig


class Client:
    """A tiny urllib wrapper returning ``(status, parsed_body, headers)``."""

    def __init__(self, port: int):
        self.base = f"http://127.0.0.1:{port}"

    def request(self, method: str, path: str, body=None, headers=None,
                timeout: float = 15.0):
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(self.base + path, data=data,
                                         method=method, headers=headers or {})
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                raw = response.read().decode()
                status, resp_headers = response.status, dict(response.headers)
        except urllib.error.HTTPError as error:
            raw = error.read().decode()
            status, resp_headers = error.code, dict(error.headers)
        try:
            parsed = json.loads(raw)
        except json.JSONDecodeError:
            parsed = raw
        return status, parsed, resp_headers

    def get(self, path, **kwargs):
        return self.request("GET", path, **kwargs)

    def post(self, path, body, **kwargs):
        return self.request("POST", path, body=body, **kwargs)


@pytest.fixture()
def service_factory(tmp_path):
    """Boot services on free ports; everything booted is drained at exit."""
    booted: list[CompressionService] = []

    def boot(**overrides) -> tuple[CompressionService, Client]:
        settings = dict(port=0, workers=2, chunk_size=8,
                        default_deadline=5.0, drain_timeout=5.0,
                        store=str(tmp_path / "store"))
        settings.update(overrides)
        service = CompressionService(ServiceConfig(**settings))
        service.start()
        threading.Thread(target=service.serve_forever, daemon=True).start()
        booted.append(service)
        return service, Client(service.port)

    yield boot
    for service in booted:
        if service.lifecycle.is_alive:
            service.stop(timeout=15.0)
        service.lifecycle.drained.wait(timeout=15.0)


class EncodeGate:
    """A stub for the ingest engine's encode that holds it until released.

    ``entered`` is set once the drainer is inside an encode, which then
    waits for ``release`` before running the real one.
    """

    def __init__(self, service):
        self.entered = threading.Event()
        self.release = threading.Event()
        self._compress = service.multi.engine.compress
        service.multi.engine.compress = self

    def __call__(self, *args, **kwargs):
        self.entered.set()
        self.release.wait(timeout=30.0)
        return self._compress(*args, **kwargs)


@pytest.fixture()
def encode_gate():
    """Install an :class:`EncodeGate` on a service; all open at teardown."""
    gates: list[EncodeGate] = []

    def install(service) -> EncodeGate:
        gates.append(EncodeGate(service))
        return gates[-1]

    yield install
    for gate in gates:
        gate.release.set()
