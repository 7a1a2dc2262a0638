"""Streaming extensions: chunked multi-stream compression, online ACF tooling."""

from .chunked import (
    IDEMPOTENCY_SERIES,
    ChunkResult,
    MultiStreamCompressor,
    StreamReport,
    concat_irregular,
)
from .online_acf import AcfDriftMonitor, DriftEvent, OnlineAcfEstimator

__all__ = [
    "MultiStreamCompressor",
    "ChunkResult",
    "IDEMPOTENCY_SERIES",
    "StreamReport",
    "concat_irregular",
    "OnlineAcfEstimator",
    "AcfDriftMonitor",
    "DriftEvent",
]
