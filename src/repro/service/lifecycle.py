"""Service lifecycle: readiness, liveness, and signal-driven drain.

The state machine is deliberately tiny — ``starting → running → draining
→ stopped`` — because its ordering contract is what matters:

* ``/readyz`` answers 200 only in ``running`` (and, in the service, only
  while its ingest drainer has not died).  Entering ``draining``
  flips readiness *first*, before admission stops, so a load balancer
  stops routing new traffic ahead of the first 503.
* ``/healthz`` answers 200 in every state the process can still respond
  from — liveness outlasts readiness by design, so an orchestrator does
  not kill a pod that is busy draining.
"""

from __future__ import annotations

import signal
import threading

__all__ = ["Lifecycle", "install_signal_handlers"]

STARTING = "starting"
RUNNING = "running"
DRAINING = "draining"
STOPPED = "stopped"

_ORDER = (STARTING, RUNNING, DRAINING, STOPPED)


class Lifecycle:
    """Monotonic service state with waitable drain completion."""

    def __init__(self):
        self._lock = threading.Lock()
        self._state = STARTING
        #: Set once the drain sequence (graceful or aborted) has finished.
        self.drained = threading.Event()

    @property
    def state(self) -> str:
        return self._state

    @property
    def is_ready(self) -> bool:
        return self._state == RUNNING

    @property
    def is_alive(self) -> bool:
        return self._state != STOPPED

    def _advance(self, target: str) -> bool:
        """Move forward to ``target``; False if already at or past it."""
        with self._lock:
            if _ORDER.index(target) <= _ORDER.index(self._state):
                return False
            self._state = target
            return True

    def mark_running(self) -> bool:
        return self._advance(RUNNING)

    def begin_drain(self) -> bool:
        """Flip readiness off.  True only for the first caller."""
        return self._advance(DRAINING)

    def mark_stopped(self) -> bool:
        return self._advance(STOPPED)


def install_signal_handlers(service, signals=(signal.SIGTERM, signal.SIGINT)):
    """SIGTERM/SIGINT → graceful drain (only callable from the main thread).

    The handler must return immediately (a drain can take seconds), so it
    only kicks off the service's background drain thread.  Returns the
    previous handlers so callers can restore them.
    """
    previous = {}
    for signum in signals:
        previous[signum] = signal.signal(
            signum, lambda _signum, _frame: service.initiate_drain(
                reason=f"signal-{_signum}"))
    return previous
