"""Service metrics: counters, gauges, and latency quantiles.

Plain-text exposition in the Prometheus line format (no dependencies):
``name{label="value"} 123``.  Latency quantiles come from a fixed-size
ring reservoir per endpoint — bounded memory no matter how long the
service runs, which is the same discipline as the admission queue.
"""

from __future__ import annotations

import threading
from collections import defaultdict

__all__ = ["LatencyReservoir", "ServiceMetrics"]

#: Quantiles reported per endpoint.
QUANTILES = (0.5, 0.9, 0.99)


class LatencyReservoir:
    """A fixed-size ring of recent observations (seconds)."""

    def __init__(self, size: int = 512):
        self._ring: list[float] = [0.0] * max(int(size), 1)
        self._count = 0

    def record(self, seconds: float) -> None:
        self._ring[self._count % len(self._ring)] = float(seconds)
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the retained window (0.0 when empty)."""
        held = min(self._count, len(self._ring))
        if not held:
            return 0.0
        window = sorted(self._ring[:held])
        rank = min(int(q * held), held - 1)
        return window[rank]


def _render_labels(labels: dict | None) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))
    return "{" + inner + "}"


class ServiceMetrics:
    """Thread-safe counter/latency registry with text exposition."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, tuple], float] = defaultdict(float)
        self._latency: dict[str, LatencyReservoir] = {}

    # ------------------------------------------------------------------ #
    def inc(self, name: str, value: float = 1,
            labels: dict | None = None) -> None:
        key = (name, tuple(sorted((labels or {}).items())))
        with self._lock:
            self._counters[key] += value

    def observe(self, endpoint: str, status: int, seconds: float) -> None:
        """Record one finished request: count by status plus latency."""
        self.inc("repro_requests_total",
                 labels={"endpoint": endpoint, "status": str(int(status))})
        with self._lock:
            reservoir = self._latency.get(endpoint)
            if reservoir is None:
                reservoir = self._latency[endpoint] = LatencyReservoir()
            reservoir.record(seconds)

    def absorb_report(self, report) -> None:
        """Fold one :class:`~repro.engine.report.BatchReport` in."""
        self.inc("repro_engine_series_total", report.series)
        self.inc("repro_engine_failed_series_total", report.failed)
        self.inc("repro_engine_retries_total", report.retries)
        self.inc("repro_engine_timeouts_total", report.timeouts)
        self.inc("repro_engine_degraded_series_total", report.degraded_series)
        self.inc("repro_compressed_points_total", report.total_points)
        self.inc("repro_encoded_bits_total", report.encoded_bits)

    def counter(self, name: str, labels: dict | None = None) -> float:
        key = (name, tuple(sorted((labels or {}).items())))
        with self._lock:
            return self._counters.get(key, 0)

    # ------------------------------------------------------------------ #
    def render(self, gauges: dict | None = None) -> str:
        """The plain-text exposition; ``gauges`` are point-in-time values.

        A gauge value may be a plain number or ``{"value": x, "labels":
        {...}}``; gauge names may repeat across label sets by suffixing
        ``#anything`` (stripped on render).
        """
        lines: list[str] = []
        with self._lock:
            counters = sorted(self._counters.items())
            latency = {endpoint: [(q, res.quantile(q)) for q in QUANTILES]
                       for endpoint, res in sorted(self._latency.items())}
        for (name, label_items), value in counters:
            rendered = f"{value:g}" if isinstance(value, float) else str(value)
            lines.append(f"{name}{_render_labels(dict(label_items))} {rendered}")
        for endpoint, quantiles in latency.items():
            for q, seconds in quantiles:
                labels = _render_labels(
                    {"endpoint": endpoint, "quantile": f"{q:g}"})
                lines.append(f"repro_request_seconds{labels} {seconds:.6f}")
        for name, value in sorted((gauges or {}).items()):
            clean = name.split("#", 1)[0]
            if isinstance(value, dict):
                labels = _render_labels(value.get("labels"))
                lines.append(f"{clean}{labels} {float(value['value']):g}")
            else:
                lines.append(f"{clean} {float(value):g}")
        return "\n".join(lines) + "\n"
