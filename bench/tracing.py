"""Spans around the public entry points of each layer, recorded from outside.

Nothing under ``src/`` knows about tracing: :class:`Tracer` replaces the
entry points listed in :func:`install` with wrappers that record one span per
call (name, start, end, parent span, op id) in memory.  The harness drives one
client, so at any moment there is one logical call stack even when it crosses
threads (client -> HTTP handler thread -> worker thread): a span that starts
on a thread with no open span of its own is adopted by the innermost span open
anywhere, and carries the op id the harness set for the request in flight.

A span's *self time* is its duration minus the durations of its direct
children, so the self times of all spans under an op add up to the op.
"""

from __future__ import annotations

import functools
import os
import threading
import time

from calibrate import Clock


class Span:
    """One call: ``parent`` is an index into ``Tracer.spans`` (-1 for a root),
    ``value`` whatever the wrapper's ``measure`` made of the result."""

    __slots__ = ("name", "start", "end", "parent", "op_id", "value")

    def __init__(self, name: str, parent: int, op_id: int):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.op_id = op_id
        self.value = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op_id = -1
        # Spans are recorded only while the harness times an operation, so
        # boot, shutdown and verification never count towards a layer.
        self.active = False
        self._open: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self._span(name, None, fn, args, kwargs)

    def _span(self, name, measure, fn, args, kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            parent = stack[-1] if stack else (self._open[-1] if self._open else -1)
            index = len(self.spans)
            span = Span(name, parent, self.op_id)
            self.spans.append(span)
            self._open.append(index)
        stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if measure is not None:
                span.value = measure(result, *args)
            return result
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self._open.remove(index)

    def wrap(self, owner, attribute: str, name: str, measure=None) -> None:
        """Replace ``owner.attribute`` by a wrapper that records ``name``.

        ``measure(result, *args)`` may compute a value kept with the span (a
        count of points or bytes), so ratios are taken where the work happens.
        """
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        function = original.__func__ if isinstance(original, classmethod) \
            else original

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self.active:
                return function(*args, **kwargs)
            return self._span(name, measure, function, args, kwargs)

        self._restore.append((owner, attribute, original))
        setattr(owner, attribute,
                classmethod(traced) if isinstance(original, classmethod)
                else traced)

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    def named(self, *names: str) -> list[Span]:
        return [span for span in self.spans if span.name in names]

    def self_seconds(self, *names: str) -> float:
        """Total self time of the spans called ``names``: their durations
        minus the durations of their direct children."""
        wanted = {index for index, span in enumerate(self.spans)
                  if span.name in names}
        return (sum(self.spans[index].duration for index in wanted)
                - sum(span.duration for span in self.spans
                      if span.parent in wanted))


class TracedClock(Clock):
    """A clock whose every timed call is a root span with its own op id."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self._tracer = tracer

    def time(self, kind: str, fn, *args):
        tracer = self._tracer
        tracer.op_id += 1
        tracer.active = True
        try:
            return super().time(kind, tracer.span, f"harness.{kind}", fn,
                                *args)
        finally:
            tracer.active = False


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every layer (see bench/README.md)."""
    from repro.codecs import adapters
    from repro.core import CameoCompressor
    from repro.engine import BatchEngine
    from repro.service import server
    from repro.storage.durable import DurableStore
    from repro.storage.wal import WriteAheadLog
    from repro.streaming import MultiStreamCompressor

    def blocks(result, *_args):
        """(blocks, bits, points) of an encode or encode_many result."""
        produced = result if isinstance(result, list) else [result]
        return (len(produced), sum(block.bits for block in produced),
                sum(block.length for block in produced))

    def size(result, *_args):
        return len(result)

    tracer.wrap(server, "handle_request", "service.handle_request",
                lambda result, *_args: result[0])
    tracer.wrap(MultiStreamCompressor, "add", "streaming.add",
                lambda sealed, *_args: sealed)
    tracer.wrap(MultiStreamCompressor, "add_idempotent", "streaming.add",
                lambda result, *_args: 0)  # the nested add() counts the seals
    tracer.wrap(MultiStreamCompressor, "drain", "streaming.drain", size)
    tracer.wrap(MultiStreamCompressor, "reconstruct", "streaming.reconstruct",
                size)
    tracer.wrap(DurableStore, "open", "storage.open")
    tracer.wrap(DurableStore, "append", "storage.append",
                lambda sealed, *_args: sealed)
    tracer.wrap(DurableStore, "read", "storage.read", size)
    for method in ("flush", "update_metadata", "close"):
        tracer.wrap(DurableStore, method, f"storage.{method}")
    tracer.wrap(WriteAheadLog, "append", "storage.wal_append",
                lambda written, *_args: written)
    tracer.wrap(BatchEngine, "compress", "engine.compress",
                lambda result, *_args: (result.report.fastpath_series,
                                        result.report.series,
                                        result.report.total_points))
    # The spool stores raw segments; keep them apart from the codec proper.
    tracer.wrap(adapters.RawCodec, "encode", "codecs.raw_encode")
    tracer.wrap(adapters.RawCodec, "decode", "codecs.raw_decode")
    tracer.wrap(adapters._XorCodec, "encode", "codecs.encode", blocks)
    tracer.wrap(adapters._XorCodec, "encode_many", "codecs.encode", blocks)
    tracer.wrap(adapters._XorCodec, "decode", "codecs.decode", size)
    tracer.wrap(adapters.CameoCodec, "encode", "codecs.encode", blocks)
    tracer.wrap(adapters._IrregularCodec, "decode", "codecs.decode", size)
    tracer.wrap(CameoCompressor, "compress", "core.compress",
                lambda kept, *_args: (len(kept), kept.original_length))
    tracer.wrap(os, "fsync", "os.fsync")
    tracer.wrap(os, "replace", "os.replace",
                lambda _none, _source, target, *_args:
                os.path.basename(target) == "manifest.json")
