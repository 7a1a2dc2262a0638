"""A per-key circuit breaker over backend degradation signals.

States follow the classic closed → open → half-open cycle:

* **closed** — traffic flows; consecutive degraded runs are counted and
  reset by any healthy run.
* **open** — after ``threshold`` consecutive degradations every request
  for the key fails fast with 503 (+ ``Retry-After``) instead of burning a
  worker on a backend that is already struggling.
* **half-open** — once ``cooldown`` has passed, exactly one probe request
  is let through; success closes the breaker, another degradation re-opens
  it (and restarts the cooldown).

The service keys breakers by codec and feeds them the supervisor's
degradation accounting (quarantined chunks, degraded series), not HTTP
status codes, which keeps client errors (bad input, blown deadlines) from tripping it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..exceptions import InvalidParameterError

__all__ = ["CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass
class _KeyState:
    state: str = CLOSED
    failures: int = 0
    opened_at: float = 0.0
    probing: bool = False
    opened_total: int = 0
    rejected_total: int = 0


@dataclass
class CircuitBreaker:
    """Thread-safe breaker registry (one state machine per key)."""

    threshold: int = 3
    cooldown: float = 5.0
    clock: callable = time.monotonic
    _states: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def __post_init__(self):
        if int(self.threshold) < 1:
            raise InvalidParameterError(
                f"threshold must be >= 1, got {self.threshold!r}")
        if not float(self.cooldown) > 0:
            raise InvalidParameterError(
                f"cooldown must be positive, got {self.cooldown!r}")

    def _state(self, key: str) -> _KeyState:
        return self._states.setdefault(str(key), _KeyState())

    # ------------------------------------------------------------------ #
    def allow(self, key: str) -> tuple[bool, float]:
        """May a request for ``key`` proceed?  Returns ``(allowed, retry_after)``.

        ``retry_after`` is only meaningful when ``allowed`` is False.  An
        open breaker past its cooldown admits exactly one probe (moving to
        half-open); concurrent requests keep failing fast until the probe
        reports back.
        """
        now = self.clock()
        with self._lock:
            state = self._state(key)
            if state.state == CLOSED:
                return True, 0.0
            if state.state == OPEN:
                waited = now - state.opened_at
                if waited >= self.cooldown:
                    state.state = HALF_OPEN
                    state.probing = True
                    return True, 0.0
                state.rejected_total += 1
                return False, max(self.cooldown - waited, 0.1)
            # half-open: one probe at a time
            if state.probing:
                state.rejected_total += 1
                return False, max(self.cooldown, 0.1)
            state.probing = True
            return True, 0.0

    def record(self, key: str, ok: bool) -> None:
        """Report the outcome of a run admitted for ``key``."""
        with self._lock:
            state = self._state(key)
            if ok:
                state.state = CLOSED
                state.failures = 0
                state.probing = False
                return
            state.failures += 1
            state.probing = False
            if state.state == HALF_OPEN or state.failures >= self.threshold:
                state.state = OPEN
                state.opened_at = self.clock()
                state.opened_total += 1

    # ------------------------------------------------------------------ #
    def state_of(self, key: str) -> str:
        with self._lock:
            return self._states.get(str(key), _KeyState()).state

    def snapshot(self) -> dict[str, dict]:
        """Per-key state for the metrics surface."""
        with self._lock:
            return {key: {"state": st.state, "failures": st.failures,
                          "opened_total": st.opened_total,
                          "rejected_total": st.rejected_total}
                    for key, st in self._states.items()}
