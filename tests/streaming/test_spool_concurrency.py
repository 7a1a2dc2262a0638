"""Concurrency coverage for the WAL spool: live ingest, crash, reopen.

The service serializes every touch of its shared
:class:`~repro.streaming.MultiStreamCompressor`'s state behind one lock
(only a drain's encode runs outside it); these tests pin down the contracts
that discipline relies on:

* concurrent locked ingest across threads conserves every acked value
  through an abandoned (crash-like) store and a fresh compressor: each is
  readable exactly once from the reopened store;
* concurrent retries of one idempotency key apply its batch exactly once.

The ``-m stress`` soak repeats the crash/reopen cycle across seeds and
rounds; the unmarked tests are the deterministic tier-1 subset.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.streaming import MultiStreamCompressor


def _fresh(tmp_path, **kwargs):
    kwargs.setdefault("spool_to", tmp_path / "spool")
    return MultiStreamCompressor(8, "gorilla", **kwargs)


def _concurrent_ingest(multi, *, threads: int, batches: int, seed: int):
    """Locked multi-thread ingest, one stream per thread; returns acked."""
    lock = threading.Lock()
    acked: dict[str, list[float]] = {f"t{i}": [] for i in range(threads)}
    errors: list[BaseException] = []

    def run(stream: str, worker_seed: int) -> None:
        rng = np.random.default_rng(worker_seed)
        try:
            for _ in range(batches):
                values = [float(v) for v in
                          np.round(rng.normal(size=int(rng.integers(1, 14))),
                                   3)]
                with lock:
                    multi.add(stream, values)
                    acked[stream].extend(values)
                    if rng.random() < 0.3:
                        multi.drain()
        except BaseException as error:  # surfaced by the main thread
            errors.append(error)

    workers = [threading.Thread(target=run, args=(f"t{i}", seed * 101 + i))
               for i in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
    assert not errors, errors
    return acked


class TestConcurrentIngestThenReopen:
    def test_crash_reopen_conserves_every_acked_value(self, tmp_path):
        multi = _fresh(tmp_path)
        acked = _concurrent_ingest(multi, threads=4, batches=12, seed=7)
        # Crash: abandon the store, skipping every graceful step.
        multi.spool.abandon()

        rebooted = _fresh(tmp_path)
        assert rebooted.pending_chunks > 0
        rebooted.flush()
        for stream, values in acked.items():
            # Every acked value exactly once — drained before the crash or
            # not — never duplicated, reordered, or corrupted.
            assert rebooted.reconstruct(stream).tolist() == values
        rebooted.close()

    def test_concurrent_retries_of_one_key_apply_once(self, tmp_path):
        multi = _fresh(tmp_path)
        lock = threading.Lock()
        outcomes: list[bool] = []

        def retry() -> None:
            with lock:
                _sealed, duplicate = multi.add_idempotent(
                    "s", [4.2] * 12, "the-key")
            outcomes.append(duplicate)

        workers = [threading.Thread(target=retry) for _ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
        assert len(outcomes) == 8
        assert outcomes.count(False) == 1, "key applied more than once"
        assert multi.report("s").ingested_points == 12
        multi.close()


@pytest.mark.stress
@pytest.mark.parametrize("seed", tuple(range(8)), ids=lambda s: f"seed{s}")
def test_spool_concurrency_soak(seed, tmp_path):
    """Rounds of concurrent ingest + crash + replay, across seeds."""
    rng = np.random.default_rng(seed)
    acked_total: dict[str, list[float]] = {}
    for round_index in range(3):
        multi = _fresh(tmp_path)
        acked = _concurrent_ingest(
            multi, threads=int(rng.integers(2, 6)),
            batches=int(rng.integers(6, 20)), seed=seed * 13 + round_index)
        for stream, values in acked.items():
            acked_total.setdefault(stream, []).extend(values)
        multi.spool.abandon()   # crash between rounds

    final = _fresh(tmp_path)
    final.flush()
    for stream, values in acked_total.items():
        assert final.reconstruct(stream).tolist() == values
    final.close()
