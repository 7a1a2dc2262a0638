"""The four workloads: what each sends to the program and how it is checked.

Every workload is closed loop with one client and default configurations.  A
*round* starts from fresh state, sends a fixed list of operations through
``clock.time(kind, ...)`` (kinds: ``op`` the primary write op, ``barrier`` the
final wait-until-sealed op, ``read`` the read-back path), and checks what the
program produced outside every timer; the :class:`Round` it returns carries
the counts the metrics need and the number of failed checks.

Sizes are given for ``--seconds 20`` and scale linearly with ``--seconds``.

Values: the CAMEO workloads compress a fixed corpus (the eight paper datasets
of ``repro.data.datasets`` at generator seed ``CORPUS_SEED``); ``--seed`` only
orders the operations.  CAMEO's greedy stop is chaotic in its input -- a fresh
noise realisation moves the fleet's compression ratio by +-6 % and flips single
series between "keeps 9 %" and "keeps 90 %" -- so a per-seed corpus would need
a ratio bound too wide to catch anything.  The lossless workloads draw their
values from ``--seed`` as well (their ratio moves by 0.5 % between seeds).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import shutil
import threading
from pathlib import Path

import numpy as np

from repro.codecs import get_codec
from repro.data.datasets import dataset_names, load_dataset
from repro.engine import BatchEngine
from repro.service import CompressionService, ServiceConfig
from repro.stats.acf import acf
from repro.storage import DEFAULT_SEGMENT_SIZE
from repro.storage.durable import DurableStore

CORPUS_SEED = 7
REFERENCE_SECONDS = 20.0
REQUEST_VALUES = 32


def _values(dataset: str, length: int, seed: int) -> np.ndarray:
    return np.round(load_dataset(dataset, length=length, seed=seed).values, 2)


def _scaled(base: int, scale: float, quantum: int) -> int:
    return max(quantum, int(base * scale) // quantum * quantum)


def _acf_deviation(original, reconstruction, max_lag: int) -> float:
    """The statistic CAMEO bounds: mean absolute ACF difference over the lags."""
    return float(np.mean(np.abs(acf(reconstruction, max_lag)
                                - acf(original, max_lag))))


def _disk_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*")
               if path.is_file())


class Round:
    """What one round produced: counts for the metrics, failed checks."""

    def __init__(self):
        self.points_written = 0
        self.points_read = 0
        self.points_stored = 0
        self.stored_bytes = 0.0
        self.disk_bytes = 0
        self.acf_deviation = 0.0
        self.failed = 0
        self.digest = ""

    def check(self, condition: bool) -> None:
        if not condition:
            self.failed += 1


# --------------------------------------------------------------------- #
class FleetCameo:
    """One ``BatchEngine("cameo").compress([series])`` per op."""

    name = "fleet_cameo"
    tail = 0.75

    def __init__(self, seed: int, scale: float, workdir: Path):
        # Many short series rather than few long ones: the clock samples the
        # machine between ops, and ops of ~0.1 s leave it less time to drift.
        length = _scaled(500, scale, 50)
        self.series = [_values(dataset, length, CORPUS_SEED + copy)
                       for copy in range(4) for dataset in dataset_names()]
        self.order = np.random.default_rng(seed).permutation(len(self.series))
        self.codec = get_codec("cameo")
        self.read_repeats = max(1, int(4000 * scale))

    def prepare(self) -> None:
        pass

    def ready(self, clock) -> None:
        def build():
            BatchEngine("cameo", backend="serial").compress(
                [self.series[0][:64]])
        clock.time("ready", build)

    def round(self, clock) -> Round:
        out = Round()
        engine = BatchEngine("cameo", backend="serial")
        results = [clock.time("op", engine.compress, [self.series[index]])
                   for index in self.order]
        blocks = []
        for result in results:
            out.check(result.report.failed == 0)
            blocks.extend(outcome.block for outcome in result if outcome.ok)
        for _ in range(self.read_repeats):
            decoded = clock.time("read", self._decode, blocks)
            out.points_read += sum(values.size for values in decoded)
        digest = hashlib.sha1()
        for index, block, values in zip(self.order, blocks, decoded):
            original = self.series[index]
            out.check(values.size == original.size)
            deviation = _acf_deviation(original, values, self.codec.max_lag)
            out.check(deviation <= self.codec.epsilon + 1e-9)
            out.acf_deviation = max(out.acf_deviation, deviation)
            out.points_written += original.size
            out.points_stored += original.size
            out.stored_bytes += block.bits / 8.0
            digest.update(np.asarray(block.payload.indices).tobytes())
        out.digest = digest.hexdigest()
        return out

    def _decode(self, blocks) -> list:
        return [self.codec.decode(block) for block in blocks]


# --------------------------------------------------------------------- #
def _boot(store: Path, codec: str):
    """Start a service on ``store``; ready once ``/readyz`` answers 200."""
    service = CompressionService(ServiceConfig(port=0, codec=codec,
                                               store=str(store)))
    service.start()
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    status, _body = _request(service.port, "GET", "/readyz")
    if status != 200:
        raise RuntimeError(f"service not ready: /readyz answered {status}")
    return service, thread


def _shutdown(service, thread) -> None:
    if not service.stop(timeout=60.0):
        raise RuntimeError("service did not drain within 60 s")
    thread.join(timeout=60.0)
    if thread.is_alive():
        raise RuntimeError("service listener did not stop")


def _body(stream: str, values: np.ndarray) -> bytes:
    return json.dumps({"stream": str(stream),
                       "values": values.tolist()}).encode()


def _request(port: int, method: str, path: str, body: bytes | None = None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        connection.request(method, path, body,
                           {"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class Ingest:
    """``POST /ingest`` of 32 values per request into a durable service."""

    tail = 0.99

    def __init__(self, codec: str, seed: int, scale: float, workdir: Path):
        self.codec_name = codec
        self.name = "ingest_cameo" if codec == "cameo" else "ingest_xor"
        self.workdir = workdir
        chunk = ServiceConfig().chunk_size
        points = _scaled(1536 if codec == "cameo" else 6144, scale, chunk)
        value_seed = CORPUS_SEED if codec == "cameo" else seed
        self.streams = {dataset: _values(dataset, points, value_seed)
                        for dataset in dataset_names()}
        # The streams report in lock step, in an order the seed picks, so
        # every inline drain holds one chunk of each stream: the p99 lands
        # on a homogeneous population of drains, not on a seed's luck.
        order = np.random.default_rng(seed).permutation(list(self.streams))
        self.bodies = [
            _body(name, self.streams[name][start:start + REQUEST_VALUES])
            for start in range(0, points, REQUEST_VALUES) for name in order]
        self.read_repeats = max(1, int((2000 if codec == "cameo" else 24) * scale))
        self.chunk = chunk

    def prepare(self) -> None:
        """On-disk state a boot recovers: one drained batch, a spooled tail."""
        self.state = self.workdir / "state"
        service, thread = _boot(self.state, self.codec_name)
        for name, values in self.streams.items():
            values = np.resize(values, self.chunk + 2 * REQUEST_VALUES)
            for batch in values.reshape(-1, REQUEST_VALUES):
                self._post(service.port, _body(name, batch))
        _shutdown(service, thread)

    def _post(self, port: int, body: bytes):
        status, document = _request(port, "POST", "/ingest", body)
        if status != 200:
            raise RuntimeError(f"/ingest answered {status}: {document}")
        return document

    def ready(self, clock) -> None:
        store = self.workdir / "boot"
        shutil.copytree(self.state, store)
        booted = []

        def boot():
            booted.extend(_boot(store, self.codec_name))
            self._post(booted[0].port, self.bodies[0])
        try:
            clock.time("ready", boot)
        finally:
            if booted:
                _shutdown(*booted)
            shutil.rmtree(store)

    def round(self, clock) -> Round:
        out = Round()
        store = self.workdir / "round"
        service, thread = _boot(store, self.codec_name)
        try:
            port = service.port
            for body in self.bodies:
                status, _doc = clock.time("op", _request, port, "POST",
                                          "/ingest", body)
                out.check(status == 200)
            status, summary = clock.time("barrier", _request, port, "GET",
                                         "/streams")
            out.check(status == 200 and summary["pending_chunks"] == 0
                      and all(stream["buffered_points"] == 0
                              for stream in summary["streams"].values()))
            for _ in range(self.read_repeats):
                decoded = clock.time("read", self._reconstruct, service.multi)
                out.points_read += sum(values.size for values in decoded)
            self._verify(out, service.multi, decoded)
        finally:
            _shutdown(service, thread)
        out.disk_bytes = _disk_bytes(store)
        shutil.rmtree(store)
        return out

    def _reconstruct(self, multi) -> list:
        return [multi.reconstruct(name) for name in self.streams]

    def _verify(self, out: Round, multi, decoded) -> None:
        digest = hashlib.sha1()
        for (name, original), values in zip(self.streams.items(), decoded):
            out.points_written += original.size
            out.points_stored += original.size
            out.stored_bytes += multi.report(name).encoded_bits / 8.0
            if self.codec_name != "cameo":
                out.check(np.array_equal(values, original))
                continue
            out.check(values.size == original.size)
            if values.size != original.size:
                continue
            for result in multi.results(name):
                span = slice(result.start, result.start + result.length)
                deviation = _acf_deviation(original[span], values[span],
                                           multi.codec.max_lag)
                out.check(deviation <= multi.codec.epsilon + 1e-9)
                out.acf_deviation = max(out.acf_deviation, deviation)
                digest.update(np.asarray(
                    result.block.payload.indices).tobytes())
        out.digest = digest.hexdigest()


# --------------------------------------------------------------------- #
class StoreRW:
    """``DurableStore`` direct: append 64 values, read a random 512-range."""

    name = "store_rw"
    tail = 0.99
    APPEND = 64
    READ = 512
    PRELOAD = 8192

    def __init__(self, seed: int, scale: float, workdir: Path):
        self.workdir = workdir
        names = dataset_names()
        # Whole segments per series, so the barrier finds nothing buffered.
        self.pairs = _scaled(
            2048, scale, len(names) * DEFAULT_SEGMENT_SIZE // self.APPEND)
        appended = self.pairs // len(names) * self.APPEND
        self.series = {dataset: _values(dataset, self.PRELOAD + appended, seed)
                       for dataset in names}
        rng = np.random.default_rng(seed)
        self.turns = [names[i] for i in
                      np.tile(rng.permutation(len(names)),
                              self.pairs // len(names))]
        self.reads = [(names[i], float(u)) for i, u in
                      zip(rng.integers(0, len(names), self.pairs),
                          rng.random(self.pairs))]

    def prepare(self) -> None:
        self.state = self.workdir / "state"
        with DurableStore.create(self.state) as store:
            for name, values in self.series.items():
                store.create_series(name, codec="gorilla")
                store.append(name, values[:self.PRELOAD])

    def ready(self, clock) -> None:
        directory = self.workdir / "boot"
        shutil.copytree(self.state, directory)
        name, values = next(iter(self.series.items()))
        opened = []

        def open_store():
            opened.append(DurableStore.open(directory))
            opened[0].append(name, values[self.PRELOAD:
                                          self.PRELOAD + self.APPEND])
            opened[0].read(name, 0, self.READ)
        try:
            clock.time("ready", open_store)
        finally:
            for store in opened:
                store.close()
            shutil.rmtree(directory)

    def round(self, clock) -> Round:
        out = Round()
        directory = self.workdir / "round"
        shutil.copytree(self.state, directory)
        length = dict.fromkeys(self.series, self.PRELOAD)
        with DurableStore.open(directory) as store:
            for name, (read_name, where) in zip(self.turns, self.reads):
                start = length[name]
                clock.time("op", store.append, name,
                           self.series[name][start:start + self.APPEND])
                length[name] = start + self.APPEND
                begin = int(where * (length[read_name] - self.READ))
                values = clock.time("read", store.read, read_name, begin,
                                    begin + self.READ)
                out.check(np.array_equal(
                    values, self.series[read_name][begin:begin + self.READ]))
                out.points_read += values.size
            clock.time("barrier", store.flush)
            out.check(all(store.info(name).buffered_points == 0
                          for name in self.series))
        out.points_written = self.pairs * self.APPEND
        out.points_stored = sum(values.size for values in self.series.values())
        out.disk_bytes = _disk_bytes(directory)
        out.stored_bytes = float(out.disk_bytes)
        reopened = clock.time("reopen", DurableStore.open, directory)
        with reopened:
            out.check(reopened.recovery.clean)
            for name, values in self.series.items():
                out.check(np.array_equal(reopened.read(name), values))
        shutil.rmtree(directory)
        return out


WORKLOADS = {
    "fleet_cameo": FleetCameo,
    "ingest_cameo": lambda *args: Ingest("cameo", *args),
    "ingest_xor": lambda *args: Ingest("gorilla", *args),
    "store_rw": StoreRW,
}
