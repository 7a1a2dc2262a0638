"""Deadline propagation through the supervised engine.

A request-level budget (``BatchEngine.compress(deadline=...)``) becomes an
absolute instant on the supervisor policy: every chunk wait is bounded by
the remaining budget, expiry writes the chunk off with
:class:`~repro.exceptions.DeadlineExceededError` outcomes instead of
retrying or degrading, and the run returns promptly with partial results —
it never blocks until a hung chunk's own timeout.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.engine import BatchEngine, SupervisorPolicy
from repro.exceptions import (ChunkTimeoutError, DeadlineExceededError,
                              InvalidParameterError)
from repro.faultinject import FaultAction, active_plan

#: Generous per-chunk budget so only the deadline can cut waits short.
SAFE_TIMEOUT = 20.0


def make_batch(count: int = 6, base: int = 120) -> list[np.ndarray]:
    return [np.round(np.sin(np.arange(base + 13 * index) / 7.0), 3)
            for index in range(count)]


class TestDeadlineSemantics:
    def test_deadline_exceeded_is_a_timeout(self):
        assert issubclass(DeadlineExceededError, ChunkTimeoutError)

    def test_engine_rejects_non_positive_deadline(self):
        engine = BatchEngine("gorilla")
        for bad in (0, -1, -0.5):
            with pytest.raises(InvalidParameterError):
                engine.compress(make_batch(2), deadline=bad)

    def test_policy_rejects_non_numeric_deadline(self):
        with pytest.raises(InvalidParameterError):
            SupervisorPolicy(deadline="soon")

    def test_generous_deadline_changes_nothing(self):
        batch = make_batch()
        engine = BatchEngine("gorilla", backend="thread", workers=2,
                             timeout=SAFE_TIMEOUT)
        result = engine.compress(batch, deadline=60.0)
        assert result.report.failed == 0
        assert result.report.timeouts == 0


class TestDeadlineBoundsWaits:
    def test_thread_backend_returns_at_deadline_with_partials(self):
        batch = make_batch(count=4)
        engine = BatchEngine("gorilla", backend="thread", workers=2,
                             timeout=SAFE_TIMEOUT, retries=3)
        with active_plan([FaultAction(kind="hang", series=0, seconds=3.0,
                                      max_hits=None)]):
            started = time.monotonic()
            result = engine.compress(batch, deadline=0.4)
            elapsed = time.monotonic() - started
        # The hang sleeps 3 s; the deadline must cut the wait loose long
        # before that, without burning the retry budget on expired waits.
        assert elapsed < 2.0
        bad = result.errors()
        assert bad
        assert all(outcome.error_type == "DeadlineExceededError"
                   for outcome in bad)
        assert len(result) == len(batch)

    def test_serial_backend_writes_off_expired_chunks(self):
        # Serial planning is one chunk per run, so drive the serial rung
        # directly with an already-expired policy: the chunk must be
        # written off without ever being attempted.
        from repro.engine.supervisor import run_supervised

        batch = make_batch(count=3)
        policy = SupervisorPolicy(timeout=None,
                                  deadline=time.monotonic() - 1.0)
        outcomes, stats = run_supervised(
            "serial", [[0, 1, 2]], batch, ["a", "b", "c"], "gorilla",
            None, False, 1, policy=policy)
        assert len(outcomes) == len(batch)
        assert all(outcome.error_type == "DeadlineExceededError"
                   for outcome in outcomes)
        assert stats.timeouts >= 1
