"""The :class:`Codec` protocol and its :class:`CompressedBlock` result.

The paper evaluates CAMEO against three other compressor families — line
simplification, model-based (PMC/SWING/Sim-Piece/FFT), and lossless
(Gorilla/Chimp) — under a single size/deviation accounting.  Historically
each family exposed its own interface (:class:`~repro.data.timeseries.
IrregularSeries`, :class:`~repro.compressors.base.CompressedModel`, raw
``(bytes, bit_length, count)`` triples), and every consumer re-adapted them.
This module defines the one interface they all share:

* :meth:`Codec.encode` turns a value chunk into a :class:`CompressedBlock`
  that knows its size in bits, whether it is exact, and how it was produced;
* :meth:`Codec.decode` reconstructs the regular values from a block, and
  :meth:`Codec.decode_prefix` only the first of them.

Storage segments, streaming chunks, the CLI, and the benchmark harness all
speak this interface; the concrete adapters live in
:mod:`repro.codecs.adapters` and are discovered through
:mod:`repro.codecs.registry`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .._validation import as_float_array
from ..data.timeseries import BITS_PER_VALUE_RAW
from ..exceptions import CodecMismatchError

__all__ = ["CompressedBlock", "Codec", "ingest_values", "restore_dtype"]

#: Metadata key recording a narrower-than-float64 input dtype.
SOURCE_DTYPE_KEY = "source_dtype"


def ingest_values(values, name: str = "values") -> tuple[np.ndarray, str | None]:
    """Normalise codec input to ``float64``, remembering a narrower dtype.

    Every codec computes on (and stores payloads as) ``float64`` — the XOR
    codecs operate on the 64-bit IEEE bit pattern and the raw codec's
    accounting is 64 bits per value, so the *encoded payloads* are
    inherently float64.  To keep ``encode``/``decode`` round trips
    dtype-preserving, narrower float inputs (``float16``/``float32``, which
    convert to ``float64`` exactly) are remembered here and restored by
    :func:`restore_dtype` on decode.  Wider-than-64-bit floats are *not*
    recorded: casting them to ``float64`` already lost precision, so
    claiming their dtype back would be dishonest.

    Returns
    -------
    (values, source_dtype):
        The validated ``float64`` array and the dtype name to restore on
        decode (``None`` when the input was already ``float64``-like).
    """
    dtype = getattr(values, "dtype", None)
    source_dtype = None
    if (dtype is not None and np.issubdtype(dtype, np.floating)
            and np.dtype(dtype).itemsize < 8):
        source_dtype = np.dtype(dtype).name
    return as_float_array(values, name=name), source_dtype


def restore_dtype(block: "CompressedBlock", values: np.ndarray) -> np.ndarray:
    """Cast a decoded ``float64`` array back to the block's recorded dtype.

    The inverse of :func:`ingest_values`: when the block's metadata carries
    a ``source_dtype``, the reconstruction is cast to it (exact for
    lossless codecs, since narrow-float inputs embed into ``float64``
    without rounding); otherwise the array is returned unchanged.
    """
    source_dtype = block.metadata.get(SOURCE_DTYPE_KEY)
    if source_dtype:
        return values.astype(source_dtype)
    return values


@dataclass
class CompressedBlock:
    """One encoded value chunk plus the accounting every consumer needs.

    Attributes
    ----------
    codec:
        Name of the codec that produced the block.
    payload:
        Codec-specific representation (an :class:`IrregularSeries`, a
        ``(bytes, bit_length, count)`` triple, a
        :class:`~repro.compressors.base.CompressedModel`, a verbatim array).
    length:
        Number of original values the block represents.
    bits:
        Size of the encoded representation in bits.
    lossless:
        Whether decoding reproduces the original values exactly.
    metadata:
        Codec-specific details (error bounds, achieved deviations, ...).
    """

    codec: str
    payload: object
    length: int
    bits: int
    lossless: bool
    metadata: dict = field(default_factory=dict)

    def bits_per_value(self) -> float:
        """Bits of encoded storage per original value.

        Returns
        -------
        float
            ``bits / length`` (a raw float64 value costs 64).
        """
        return self.bits / float(max(self.length, 1))

    def compression_ratio(self) -> float:
        """Raw bits over encoded bits.

        Returns
        -------
        float
            ``(length * 64) / bits`` — how many times smaller the encoded
            form is than storing every value as a raw float64.
        """
        return (self.length * BITS_PER_VALUE_RAW) / float(max(self.bits, 1))


class Codec(ABC):
    """Encode/decode interface every compression method implements.

    Subclasses set :attr:`name` (the registry identifier) and
    :attr:`lossless`, and implement :meth:`encode` / :meth:`decode`.
    Instances are stateless with respect to the data: the same codec object
    may encode any number of independent blocks.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.codecs import get_codec
    >>> codec = get_codec("gorilla")
    >>> block = codec.encode(np.round(np.sin(np.arange(512) / 10.0), 3))
    >>> block.lossless, block.length
    (True, 512)
    >>> np.array_equal(codec.decode(block), np.round(np.sin(np.arange(512) / 10.0), 3))
    True
    """

    #: Registry / metadata identifier.
    name: str = "codec"
    #: Whether decoding is bit-exact.
    lossless: bool = False

    @abstractmethod
    def encode(self, values) -> CompressedBlock:
        """Encode a chunk of values.

        Parameters
        ----------
        values:
            1-D array-like of float values (one regularly sampled chunk).

        Returns
        -------
        CompressedBlock
            The encoded block, carrying its size-in-bits accounting and
            codec-specific metadata.
        """

    @abstractmethod
    def decode(self, block: CompressedBlock) -> np.ndarray:
        """Reconstruct the values of an encoded block.

        Parameters
        ----------
        block:
            A block previously produced by this codec's :meth:`encode`.

        Returns
        -------
        numpy.ndarray
            The reconstructed values (``block.length`` floats); bit-exact
            when :attr:`lossless` is true.

        Raises
        ------
        repro.exceptions.CodecMismatchError
            If ``block`` was encoded by a different codec.
        """

    def decode_prefix(self, block: CompressedBlock, count: int) -> np.ndarray:
        """The first ``count`` values of :meth:`decode` (``1 <= count <= length``).

        A range read that stops inside a block needs no value past its stop.
        This default decodes the whole block and slices it; codecs whose
        decoders are sequential (the XOR codecs) or whose payload is the
        values themselves (raw) override it to stop early.
        """
        return self.decode(block)[:count]

    # ------------------------------------------------------------------ #
    # uniform accounting helpers
    # ------------------------------------------------------------------ #
    def bits(self, values) -> int:
        """Encoded size of ``values`` in bits (one-shot convenience)."""
        return int(self.encode(values).bits)

    def bits_per_value(self, values) -> float:
        """Bits of encoded storage per original value of ``values``."""
        return self.encode(values).bits_per_value()

    def compression_ratio(self, values) -> float:
        """Raw bits over encoded bits for ``values``."""
        return self.encode(values).compression_ratio()

    # ------------------------------------------------------------------ #
    def _check_block(self, block: CompressedBlock) -> None:
        if block.codec != self.name:
            raise CodecMismatchError(
                f"block was encoded with {block.codec!r}, not {self.name!r}")

    #: Backwards-compatible spelling used by the storage layer's subclasses.
    _check_chunk = _check_block

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.__class__.__name__}(name={self.name!r})"
