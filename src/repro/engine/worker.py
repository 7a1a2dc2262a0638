"""Chunk encoding shared by both engine backends.

:func:`encode_chunk` compresses one work chunk of series with per-series
error isolation and routes same-length lossless series through the one
cross-series fast path (the stacked XOR encode).
"""

from __future__ import annotations

import numpy as np

from .. import faultinject
from ..codecs import codec_spec, get_codec
from ..codecs.base import SOURCE_DTYPE_KEY, ingest_values
from .report import SeriesOutcome

__all__ = ["encode_chunk", "XOR_STACK_MAX_LENGTH"]

#: Series-length ceiling for the stacked XOR fast path.  Stacking amortizes
#: per-call NumPy dispatch, which dominates only for short series; beyond
#: this length the sequential control-code loop dominates and the batched
#: 2-D preparation costs more than it saves (measured: ~1.9x at length 64,
#: parity at 256, a slowdown at 1024).
XOR_STACK_MAX_LENGTH = 256


def _error_outcome(index: int, name: str, length: int, exc: BaseException
                   ) -> SeriesOutcome:
    return SeriesOutcome(index=index, name=name, length=length,
                         error=str(exc), error_type=type(exc).__name__)


def _series_length(series) -> int:
    try:
        return int(np.asarray(series).size)
    except Exception:  # pragma: no cover - exotic inputs
        return 0


def encode_chunk(series_list, names, indices, codec_name: str,
                 codec_options: dict | None, *, use_fastpath: bool = True
                 ) -> list[SeriesOutcome]:
    """Compress one chunk of series; one outcome per input, in chunk order.

    A failing series (NaN values, empty array, codec error, ...) yields an
    error outcome; the rest of the chunk still completes.
    """
    # Chunk-level injection site: fires *before* per-series isolation, so
    # whatever happens here (crash, hang, raise) is the supervisor's problem.
    faultinject.fire("chunk", indices=list(indices))
    spec = codec_spec(codec_name)
    codec = get_codec(spec.name, **(codec_options or {}))
    count = len(series_list)
    outcomes: dict[int, SeriesOutcome] = {}
    pending = list(range(count))

    if use_fastpath and count > 1 and spec.family == "lossless":
        pending = _xor_fastpath(series_list, names, indices, codec,
                                outcomes, pending)

    for position in pending:
        index, name = indices[position], names[position]
        series = series_list[position]
        try:
            # Per-series injection site: an InjectedFault here must become
            # one error outcome while the rest of the chunk completes.
            faultinject.fire("encode", index=index)
            block = codec.encode(series)
        except Exception as exc:
            outcomes[position] = _error_outcome(index, name,
                                                _series_length(series), exc)
        else:
            outcomes[position] = SeriesOutcome(index=index, name=name,
                                               length=int(block.length),
                                               block=block)
    return [outcomes[position] for position in range(count)]


def _validated(series_list, names, indices, outcomes, pending):
    """Validate pending series; failures become error outcomes in place."""
    good: list[tuple[int, np.ndarray, str | None]] = []
    for position in pending:
        try:
            values, source_dtype = ingest_values(series_list[position],
                                                 name="series")
        except Exception as exc:
            outcomes[position] = _error_outcome(
                indices[position], names[position],
                _series_length(series_list[position]), exc)
        else:
            good.append((position, values, source_dtype))
    return good


def _xor_fastpath(series_list, names, indices, codec, outcomes, pending):
    """Stack same-length series through the XOR codecs' batched encode."""
    good = _validated(series_list, names, indices, outcomes, pending)
    by_length: dict[int, list[tuple[int, np.ndarray, str | None]]] = {}
    for entry in good:
        by_length.setdefault(entry[1].size, []).append(entry)
    remaining: list[int] = []
    for length, group in sorted(by_length.items()):
        if len(group) < 2 or length > XOR_STACK_MAX_LENGTH:
            remaining.extend(position for position, _v, _d in group)
            continue
        matrix = np.vstack([values for _p, values, _d in group])
        try:
            blocks = codec.encode_many(matrix)
        except Exception:
            # Unexpected batch failure: per-series path preserves isolation.
            remaining.extend(position for position, _v, _d in group)
            continue
        for (position, _values, source_dtype), block in zip(group, blocks):
            if source_dtype:
                block.metadata[SOURCE_DTYPE_KEY] = source_dtype
            outcomes[position] = SeriesOutcome(
                index=indices[position], name=names[position],
                length=int(block.length), block=block, fastpath="xor-stacked")
    remaining.sort()
    return remaining

