"""Concrete :class:`~repro.codecs.base.Codec` adapters for every family.

One adapter per compression method the paper studies:

* :class:`RawCodec` — the identity representation (64 bits per value),
* :class:`GorillaXorCodec` / :class:`ChimpXorCodec` — the lossless XOR
  codecs of :mod:`repro.lossless` (payloads stay byte-identical to the
  underlying codecs),
* :class:`CameoCodec` — CAMEO (:class:`repro.core.CameoCompressor`) with a
  per-block statistic bound,
* :class:`SimplifierCodec` — the ACF-constrained line-simplification
  baselines (VW, TPs, TPm, PIPv, PIPe, RDP),
* :class:`PmcCodec` / :class:`SwingCodec` / :class:`SimPieceCodec` /
  :class:`FftCodec` — the functional-approximation baselines.

The built-ins are registered with :func:`repro.codecs.registry.register_codec`
at import time, tagged with their family so consumers (storage, streaming,
CLI, benchmarks) can iterate them generically.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .._validation import check_positive_int
from ..compressors import FFTCompressor, PoorMansCompressionMean, SimPiece, SwingFilter
from ..compressors.base import CompressedModel, LossyCompressor
from ..core import CameoCompressor
from ..data.timeseries import BITS_PER_VALUE_RAW, IrregularSeries
from ..lossless import ChimpCodec, GorillaCodec
from ..simplify import AcfConstrainedSimplifier, make_simplifier
from .base import SOURCE_DTYPE_KEY, Codec, CompressedBlock, ingest_values, restore_dtype
from .registry import register_codec

__all__ = [
    "RawCodec",
    "GorillaXorCodec",
    "ChimpXorCodec",
    "CameoCodec",
    "SimplifierCodec",
    "PmcCodec",
    "SwingCodec",
    "SimPieceCodec",
    "FftCodec",
]


def _tag_dtype(block: CompressedBlock, source_dtype: str | None) -> CompressedBlock:
    """Record a narrower input dtype on the block so decode can restore it."""
    if source_dtype:
        block.metadata[SOURCE_DTYPE_KEY] = source_dtype
    return block


class RawCodec(Codec):
    """Identity codec: stores the values verbatim at 64 bits each."""

    name = "raw"
    lossless = True

    def encode(self, values) -> CompressedBlock:
        values, source_dtype = ingest_values(values)
        return _tag_dtype(CompressedBlock(codec=self.name, payload=values.copy(),
                                          length=values.size,
                                          bits=values.size * BITS_PER_VALUE_RAW,
                                          lossless=True), source_dtype)

    def decode(self, block: CompressedBlock) -> np.ndarray:
        self._check_block(block)
        return restore_dtype(block, np.asarray(block.payload, dtype=np.float64).copy())

    def decode_prefix(self, block: CompressedBlock, count: int) -> np.ndarray:
        # slice before copying: only the prefix is materialised
        self._check_block(block)
        values = np.asarray(block.payload, dtype=np.float64)[:count]
        return restore_dtype(block, values.copy())


class _XorCodec(Codec):
    """Shared adapter for the bit-level lossless codecs."""

    lossless = True
    _codec_factory: Callable

    def __init__(self) -> None:
        self._codec = self._codec_factory()

    def encode(self, values) -> CompressedBlock:
        values, source_dtype = ingest_values(values)
        payload, bit_length, count = self._codec.encode(values)
        return _tag_dtype(CompressedBlock(codec=self.name,
                                          payload=(payload, bit_length, count),
                                          length=count, bits=bit_length,
                                          lossless=True), source_dtype)

    def decode(self, block: CompressedBlock) -> np.ndarray:
        self._check_block(block)
        payload, bit_length, count = block.payload
        return restore_dtype(block, self._codec.decode(payload, bit_length, count))

    def decode_prefix(self, block: CompressedBlock, count: int) -> np.ndarray:
        # The decoders are sequential and take a count: the values past
        # ``count`` are never read.
        self._check_block(block)
        payload, bit_length, _ = block.payload
        return restore_dtype(block, self._codec.decode(payload, bit_length, count))

    def encode_many(self, matrix) -> list[CompressedBlock]:
        """Encode many same-length float64 series in one stacked kernel pass.

        Used by the batch engine's cross-series fast path; every block is
        byte-identical to :meth:`encode` on the matching row (the rows must
        already be validated float64 series — dtype bookkeeping is the
        caller's job).
        """
        return [
            CompressedBlock(codec=self.name, payload=(payload, bit_length, count),
                            length=count, bits=bit_length, lossless=True)
            for payload, bit_length, count in self._codec.encode_batch(matrix)
        ]


class GorillaXorCodec(_XorCodec):
    """Gorilla XOR compression behind the unified codec interface."""

    name = "gorilla"
    _codec_factory = GorillaCodec


class ChimpXorCodec(_XorCodec):
    """Chimp XOR compression behind the unified codec interface."""

    name = "chimp"
    _codec_factory = ChimpCodec


class _IrregularCodec(Codec):
    """Shared decode/accounting for codecs producing an IrregularSeries."""

    #: Charge 64 bits per retained value plus 32 bits per retained index,
    #: the honest on-disk accounting for an irregular representation.
    store_indices: bool = True

    def decode(self, block: CompressedBlock) -> np.ndarray:
        self._check_block(block)
        if isinstance(block.payload, np.ndarray):
            # Blocks too short for line simplification are kept verbatim.
            return restore_dtype(block, np.asarray(block.payload, dtype=np.float64).copy())
        return restore_dtype(block, block.payload.decompress())

    def _short_block(self, values: np.ndarray) -> CompressedBlock:
        """Verbatim block for chunks too short to simplify (< 4 points)."""
        return CompressedBlock(codec=self.name, payload=values.copy(),
                               length=values.size,
                               bits=values.size * BITS_PER_VALUE_RAW, lossless=True,
                               metadata={"short_segment": True})

    def _block_from_irregular(self, result: IrregularSeries) -> CompressedBlock:
        # Carry the compression run's configuration and statistics into the
        # block so per-chunk settings (blocking, batch_size, stopped_by, ...)
        # survive the chunk boundary and are inspectable downstream; only
        # the bulky reference-statistic vector is dropped.
        metadata = {key: value for key, value in result.metadata.items()
                    if key != "reference_statistic"}
        metadata["kept_points"] = len(result)
        return CompressedBlock(
            codec=self.name, payload=result, length=result.original_length,
            bits=result.bits(store_indices=self.store_indices), lossless=False,
            metadata=metadata)


class CameoCodec(_IrregularCodec):
    """CAMEO behind the unified codec interface: ACF/PACF-bounded per block.

    Parameters are forwarded to :class:`repro.core.CameoCompressor`; every
    encoded block is compressed under the same statistic bound, so the
    deviation guarantee holds per block.
    """

    name = "cameo"

    def __init__(self, max_lag: int = 24, epsilon: float | None = 0.01, **kwargs):
        self.max_lag = check_positive_int(max_lag, "max_lag")
        self.epsilon = epsilon
        self.options = dict(kwargs)
        self._agg_window = int(kwargs.get("agg_window", 1))
        self._compressor = CameoCompressor(max_lag, epsilon, **kwargs)

    def encode(self, values) -> CompressedBlock:
        values, source_dtype = ingest_values(values)
        # Blocks shorter than a few aggregation windows cannot track the
        # statistic meaningfully; keep them verbatim (typically only the
        # final, partially filled chunk of a series).
        if values.size < max(4, 3 * self._agg_window):
            return _tag_dtype(self._short_block(values), source_dtype)
        return _tag_dtype(self._block_from_irregular(self.compress(values)),
                          source_dtype)

    def compress(self, values) -> IrregularSeries:
        """The underlying point-retaining compression (no block wrapping)."""
        return self._compressor.compress(values)

    @property
    def compressor(self) -> CameoCompressor:
        """The configured :class:`~repro.core.CameoCompressor` behind this codec."""
        return self._compressor


class SimplifierCodec(_IrregularCodec):
    """ACF-constrained line-simplification baselines (VW, TP, PIP, RDP)."""

    def __init__(self, method: str, max_lag: int = 24, epsilon: float = 0.01, **kwargs):
        self.method = str(method)
        self.name = self.method.lower()
        self.max_lag = check_positive_int(max_lag, "max_lag")
        self.epsilon = epsilon
        self._agg_window = int(kwargs.get("agg_window", 1))
        self._simplifier = AcfConstrainedSimplifier(
            make_simplifier(self.method), max_lag, epsilon, **kwargs)

    def encode(self, values) -> CompressedBlock:
        values, source_dtype = ingest_values(values)
        if values.size < max(4, 3 * self._agg_window):
            return _tag_dtype(self._short_block(values), source_dtype)
        return _tag_dtype(self._block_from_irregular(self.compress(values)),
                          source_dtype)

    def compress(self, values) -> IrregularSeries:
        """The underlying point-retaining compression (no block wrapping)."""
        return self._simplifier.compress(values)


class _ModelCodec(Codec):
    """Shared adapter for the functional-approximation baselines.

    The payload keeps the :class:`repro.compressors.base.CompressedModel`
    produced by the baseline, so decoding simply calls its reconstruction.
    """

    def encode(self, values) -> CompressedBlock:
        values, source_dtype = ingest_values(values)
        model = self.compressor().compress(values)
        return _tag_dtype(
            CompressedBlock(codec=self.name, payload=model, length=values.size,
                            bits=model.bits(), lossless=False,
                            metadata={"stored_values": model.stored_values}),
            source_dtype)

    def decode(self, block: CompressedBlock) -> np.ndarray:
        self._check_block(block)
        return restore_dtype(block, block.payload.decompress())

    def model(self, values) -> CompressedModel:
        """The underlying model-based compression (no block wrapping)."""
        return self.compressor().compress(values)

    def compressor(self) -> LossyCompressor:  # pragma: no cover - overridden
        """Construct the underlying :class:`LossyCompressor`."""
        raise NotImplementedError

    def _compressor(self) -> LossyCompressor:
        """Backwards-compatible spelling used by the old storage adapters."""
        return self.compressor()


class PmcCodec(_ModelCodec):
    """Poor Man's Compression (constant segments) as a unified codec."""

    name = "pmc"

    def __init__(self, error_bound: float = 0.01, variant: str = "midrange"):
        self.error_bound = float(error_bound)
        self.variant = variant

    def compressor(self) -> LossyCompressor:
        return PoorMansCompressionMean(self.error_bound, variant=self.variant)


class SwingCodec(_ModelCodec):
    """SWING filter (connected linear segments) as a unified codec."""

    name = "swing"

    def __init__(self, error_bound: float = 0.01):
        self.error_bound = float(error_bound)

    def compressor(self) -> LossyCompressor:
        return SwingFilter(self.error_bound)


class SimPieceCodec(_ModelCodec):
    """Sim-Piece (grouped linear segments) as a unified codec."""

    name = "simpiece"

    def __init__(self, error_bound: float = 0.01):
        self.error_bound = float(error_bound)

    def compressor(self) -> LossyCompressor:
        return SimPiece(self.error_bound)


class FftCodec(_ModelCodec):
    """FFT top-coefficient compression as a unified codec."""

    name = "fft"

    def __init__(self, keep_fraction: float = 0.1):
        self.keep_fraction = float(keep_fraction)

    def compressor(self) -> LossyCompressor:
        return FFTCompressor(self.keep_fraction)


# ---------------------------------------------------------------------- #
# built-in registrations (paper order within each family)
# ---------------------------------------------------------------------- #
#: Display labels of the line-simplification baselines, in the paper's order.
_SIMPLIFIER_LABELS = ("VW", "TPs", "TPm", "PIPv", "PIPe", "RDP")


def _register_builtins() -> None:
    register_codec("raw", RawCodec, family="raw", label="Raw",
                   description="identity representation, 64 bits/value")
    register_codec("gorilla", GorillaXorCodec, family="lossless", label="Gorilla",
                   description="lossless XOR compression (Gorilla)")
    register_codec("chimp", ChimpXorCodec, family="lossless", label="Chimp",
                   description="lossless XOR compression (Chimp)")
    register_codec("cameo", CameoCodec, family="cameo", label="CAMEO",
                   fidelity={"epsilon": 0.05},
                   description="ACF/PACF-bounded line simplification (the paper)")
    for method in _SIMPLIFIER_LABELS:
        register_codec(method, lambda max_lag=24, epsilon=0.01, _m=method, **kw:
                       SimplifierCodec(_m, max_lag, epsilon, **kw),
                       family="simplify", label=method,
                       fidelity={"epsilon": 0.05},
                       description=f"ACF-constrained {method} line simplification")
    register_codec("pmc", PmcCodec, family="model", label="PMC",
                   tune="error_bound", fidelity={"error_bound_fraction": 0.05},
                   description="constant-segment functional approximation")
    register_codec("swing", SwingCodec, family="model", label="SWING",
                   tune="error_bound", fidelity={"error_bound_fraction": 0.05},
                   description="connected linear-segment approximation")
    register_codec("simpiece", SimPieceCodec, family="model", label="SP",
                   tune="error_bound", fidelity={"error_bound_fraction": 0.05},
                   description="grouped linear-segment approximation")
    register_codec("fft", FftCodec, family="model", label="FFT",
                   tune="keep_fraction", fidelity={"keep_fraction": 0.25},
                   description="top-coefficient frequency-domain approximation")


_register_builtins()
