"""Exception hierarchy for the CAMEO reproduction library.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class.  Errors are grouped by the subsystem that raises
them (compression, statistics, data handling, codecs).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class InvalidSeriesError(ReproError):
    """A time series input is malformed (empty, non-finite, wrong shape)."""


class PolicyViolationError(InvalidSeriesError):
    """Input violated an explicit :class:`repro.sanitize.InputPolicy` rule.

    Subclasses :class:`InvalidSeriesError` so callers that already treat
    malformed series as recoverable per-series failures keep working; the
    distinct type records that the rejection came from a configured policy,
    not from built-in validation.
    """


class ChunkTimeoutError(ReproError):
    """A batch-engine chunk exceeded its per-chunk execution timeout."""


class DeadlineExceededError(ChunkTimeoutError):
    """A request-level deadline expired before the work completed.

    Subclasses :class:`ChunkTimeoutError` so the supervisor's timeout
    discipline applies unchanged — work abandoned for a blown deadline must
    never fall through to the untimed serial rung.
    """


class InvalidParameterError(ReproError):
    """A user-provided parameter is outside its valid domain."""


class CompressionError(ReproError):
    """A compressor failed to produce a valid compressed representation."""


class ConstraintViolationError(CompressionError):
    """A compressed output violates the requested statistical constraint."""


class DecompressionError(ReproError):
    """A compressed representation cannot be reconstructed."""


class BlockFormatError(DecompressionError):
    """Packed block bytes were refused; ``reason`` is the machine-readable
    code (``truncated-header`` | ``truncated-footer`` |
    ``checksum-mismatch`` | ``parse-error``), ``detail`` the human one."""

    def __init__(self, reason: str, detail: str):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


class CodecError(ReproError):
    """A lossless codec (Gorilla/Chimp) failed to encode or decode."""


class ModelError(ReproError):
    """A forecasting or anomaly-detection model failed to fit or predict."""


class DatasetError(ReproError):
    """A dataset could not be generated or loaded."""


class IngestError(DatasetError):
    """A dataset-ingest pipeline failed (fetch, cache, parse, or verify).

    Subclasses :class:`DatasetError` so callers that already treat dataset
    problems uniformly keep working; the distinct type marks failures of the
    real-data ingest layer (:mod:`repro.ingest`).
    """


class ChecksumMismatchError(IngestError):
    """Fetched or cached dataset bytes do not match the pinned SHA-256."""


class ScorecardError(ReproError):
    """A fidelity-scorecard document is malformed or incomplete."""


class StorageError(ReproError):
    """A storage-engine operation (ingest, query, compaction) failed."""


class CodecMismatchError(CodecError, StorageError):
    """A compressed block was handed to a codec that did not produce it.

    Subclasses both :class:`CodecError` (it is a codec-layer failure) and
    :class:`StorageError` (the storage engine historically raised the latter
    for foreign chunks), so both catch styles keep working.
    """


class SeriesNotFoundError(StorageError):
    """The requested series does not exist in the store."""
