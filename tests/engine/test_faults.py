"""Fault-injection matrix for the supervised batch engine.

Every recovery path the supervisor promises is exercised with a
deterministic :mod:`repro.faultinject` plan, on every backend where the
fault is meaningful: per-series isolation of injected encode failures,
chunk-level retry and its backoff schedule, hang/timeout recovery, and the
``thread → serial`` degradation ladder.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import BatchEngine, SupervisorPolicy, compress_batch
from repro.exceptions import InvalidParameterError
from repro.faultinject import FaultAction, active_plan, random_plan

BACKENDS = ("serial", "thread")

#: Generous per-chunk budget for tests that must not time out.
SAFE_TIMEOUT = 20.0


def make_batch(count: int = 6, base: int = 120) -> list[np.ndarray]:
    return [np.round(np.sin(np.arange(base + 13 * index) / 7.0), 3)
            for index in range(count)]


def run(batch, backend, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("timeout", SAFE_TIMEOUT)
    return compress_batch(batch, codec="gorilla", backend=backend, **kwargs)


class TestEncodeSiteIsolation:
    """An injected per-series failure costs exactly that series."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_raise_mid_encode_is_one_error_outcome(self, backend):
        batch = make_batch()
        with active_plan([FaultAction(kind="raise", series=2, site="encode",
                                      max_hits=None)]):
            result = run(batch, backend, retries=0, fastpath=False)
        assert len(result) == len(batch)
        assert result.report.failed == 1
        assert not result[2].ok
        assert result[2].error_type == "InjectedFault"
        for index in (0, 1, 3, 4, 5):
            assert result[index].ok, result[index].error


class TestChunkRetry:
    """A once-only chunk fault is absorbed by the in-tier retry."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_transient_raise_recovers(self, backend):
        batch = make_batch()
        with active_plan([FaultAction(kind="raise", series=1, site="chunk")]):
            result = run(batch, backend, retries=1)
        assert result.report.failed == 0
        assert result.report.retries >= 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exhausted_retries_still_terminate(self, backend):
        batch = make_batch()
        with active_plan([FaultAction(kind="raise", series=1, site="chunk",
                                      max_hits=None)]):
            result = run(batch, backend, retries=1, on_degrade="error")
        assert len(result) == len(batch)
        assert result.report.failed >= 1
        assert result.report.quarantined_chunks >= 1

    def test_backoff_doubles_from_base(self, monkeypatch):
        # Retry k sleeps backoff * 2**(k-1): the first retry sleeps backoff.
        sleeps = []
        monkeypatch.setattr("repro.engine.supervisor.time.sleep",
                            sleeps.append)
        with active_plan([FaultAction(kind="raise", series=0, site="chunk",
                                      max_hits=None)]):
            result = run(make_batch(), "serial", retries=2)
        assert result.report.retries == 2
        assert sleeps == [0.05, 0.1]

    def test_thread_retries_follow_the_same_schedule(self, monkeypatch):
        # Only the chunk holding series 0 fails, so only it sleeps.
        sleeps = []
        monkeypatch.setattr("repro.engine.supervisor.time.sleep",
                            sleeps.append)
        with active_plan([FaultAction(kind="raise", series=0, site="chunk",
                                      max_hits=None)]):
            result = run(make_batch(), "thread", retries=2,
                         on_degrade="error")
        assert result.report.retries == 2
        assert sleeps == [0.05, 0.1]


class TestCrashRecovery:
    """An injected crash in the plan-activating process is an exception."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_in_process_crash_becomes_exception(self, backend):
        # In the plan-activating process a crash degrades to InjectedCrash,
        # so the same plan exercises serial/thread without killing pytest.
        batch = make_batch()
        with active_plan([FaultAction(kind="crash", series=1)]):
            result = run(batch, backend, retries=1)
        assert result.report.failed == 0
        assert result.report.retries >= 1


class TestHangTimeout:
    """A hung chunk is abandoned at the timeout and retried or written off."""

    def test_persistent_hang_terminates_with_timeout_outcomes(self):
        # Short sleeps: abandoned thread-rung tasks outlive the call and are
        # joined at interpreter exit, so they must run out quickly.
        batch = make_batch(count=4)
        with active_plan([FaultAction(kind="hang", series=0, seconds=1.2,
                                      max_hits=None)]):
            result = run(batch, "thread", timeout=0.3, retries=0)
        assert len(result) == len(batch)
        bad = result.errors()
        assert bad and all(outcome.error_type == "ChunkTimeoutError"
                           for outcome in bad)
        # A hang must never reach the untimed serial rung.
        assert all(outcome.degraded_to != "serial" for outcome in bad)

    def test_no_timeout_means_unbounded(self):
        batch = make_batch(count=3)
        with active_plan([FaultAction(kind="hang", series=0, seconds=0.4)]):
            result = run(batch, "thread", timeout=None, retries=0)
        assert result.report.failed == 0
        assert result.report.timeouts == 0


class TestDegradationLadder:
    """A quarantined thread-backend chunk is re-encoded on the serial rung."""

    def test_exhausted_thread_chunk_degrades_to_serial(self):
        # The fault outlasts every thread attempt (retries + 1 hits), so the
        # chunk is quarantined; the serial rung's attempt then succeeds.
        retries = 1
        batch = make_batch()
        with active_plan([FaultAction(kind="raise", series=1, site="chunk",
                                      max_hits=retries + 1)]):
            result = run(batch, "thread", retries=retries)
        assert result.report.failed == 0
        degraded = [outcome for outcome in result if outcome.degraded_to]
        assert degraded
        assert all(outcome.degraded_to == "serial" for outcome in degraded)
        assert result.report.degraded_series == len(degraded)
        assert result.report.degraded_chunks >= 1

    def test_on_degrade_error_records_failures(self):
        batch = make_batch()
        with active_plan([FaultAction(kind="raise", series=1, site="chunk",
                                      max_hits=None)]):
            result = run(batch, "thread", retries=0, on_degrade="error")
        assert len(result) == len(batch)
        bad = result.errors()
        assert bad and all(outcome.error_type == "InjectedFault"
                           for outcome in bad)
        assert result.report.degraded_chunks == 0


class TestRandomPlanSmoke:
    """Gating smoke subset of the stress soak: a few fixed seeds."""

    @pytest.mark.parametrize("seed", (3, 7))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_random_plan_always_terminates(self, seed, backend):
        batch = make_batch()
        actions = random_plan(seed, len(batch))
        with active_plan(actions):
            result = run(batch, backend, timeout=1.5, retries=1)
        assert len(result) == len(batch), f"seed {seed} lost outcomes"
        assert sorted(outcome.index for outcome in result) == list(range(len(batch)))


class TestPolicyValidation:
    def test_supervisor_policy_rejects_bad_values(self):
        with pytest.raises(InvalidParameterError):
            SupervisorPolicy(timeout=0.0)
        with pytest.raises(InvalidParameterError):
            SupervisorPolicy(retries=-1)
        with pytest.raises(InvalidParameterError):
            SupervisorPolicy(backoff=-0.1)
        for bad in ("explode", "serial"):
            with pytest.raises(InvalidParameterError, match="degrade, error"):
                SupervisorPolicy(on_degrade=bad)

    def test_engine_rejects_bad_knobs(self):
        with pytest.raises(InvalidParameterError):
            BatchEngine("gorilla", timeout=-1.0)
        with pytest.raises(InvalidParameterError):
            BatchEngine("gorilla", on_degrade="explode")
        with pytest.raises(InvalidParameterError, match="serial, thread"):
            BatchEngine("gorilla", backend="process")
        with pytest.raises(InvalidParameterError):
            BatchEngine("gorilla", policy="skip")


#: The library entry points that take the engine's execution knobs.
ENTRY_POINTS = {
    "BatchEngine": lambda **knobs: BatchEngine("gorilla", **knobs),
    "compress_batch": lambda **knobs: compress_batch(
        make_batch(count=2), codec="gorilla", **knobs),
}


class TestRemovedOptions:
    """``backend="process"`` and ``on_degrade="serial"`` are gone everywhere."""

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("knob, value, choices", [
        ("backend", "process", "serial, thread"),
        ("on_degrade", "serial", "degrade, error"),
    ], ids=["backend-process", "on_degrade-serial"])
    def test_rejected_naming_the_remaining_choices(self, entry, knob, value,
                                                   choices):
        with pytest.raises(InvalidParameterError, match=choices):
            ENTRY_POINTS[entry](**{knob: value})

    @pytest.mark.parametrize("fields", [dict(kind="corrupt"),
                                        dict(kind="raise", site="manifest")],
                             ids=["kind-corrupt", "site-manifest"])
    def test_fault_plan_rejects_the_shared_memory_faults(self, fields):
        with pytest.raises(ValueError, match="choose from"):
            FaultAction(series=0, **fields)


class TestCleanPathIdentity:
    """Supervision must not change results when nothing goes wrong."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_knobs_do_not_change_clean_results(self, backend):
        batch = make_batch()
        baseline = compress_batch(batch, codec="gorilla")
        supervised = run(batch, backend, retries=2)
        assert [outcome.block.payload for outcome in baseline] \
            == [outcome.block.payload for outcome in supervised]
        report = supervised.report
        assert report.retries == 0 and report.timeouts == 0
        assert report.degraded_chunks == 0
