"""Unified codec layer: one :class:`Codec` protocol for every compressor.

The paper compares four compressor families — CAMEO, line simplification,
model-based approximation, and lossless XOR coding — under one
size/deviation accounting.  This package gives them one programmatic
interface to match:

* :mod:`repro.codecs.base` — the :class:`Codec` protocol
  (``encode(values) -> CompressedBlock``, ``decode(block) -> ndarray``) and
  the uniform bits / compression-ratio / metadata accounting;
* :mod:`repro.codecs.registry` — name-based discovery
  (:func:`register_codec`, :func:`get_codec`, :func:`available_codecs`),
  with family/label metadata so consumers can iterate codecs generically;
* :mod:`repro.codecs.adapters` — the built-in adapters for all four
  families;
* :mod:`repro.codecs.serialize` — a block's two portable forms: the JSON
  document of the CLI and the wire, and the binary container the durable
  store's segment files are (checksummed by :mod:`repro.codecs.checksum`).

The storage engine (:mod:`repro.storage`), the streaming layer
(:mod:`repro.streaming`), the CLI (:mod:`repro.cli`), and the benchmark
harness (:mod:`repro.benchlib`) are all thin consumers of this package.
"""

from .base import Codec, CompressedBlock
from .registry import (
    CodecSpec,
    available_codecs,
    codec_families,
    codec_spec,
    codec_specs,
    get_codec,
    register_codec,
)
from .adapters import (
    CameoCodec,
    ChimpXorCodec,
    FftCodec,
    GorillaXorCodec,
    PmcCodec,
    RawCodec,
    SimPieceCodec,
    SimplifierCodec,
    SwingCodec,
)
from .serialize import (
    block_from_document,
    block_to_document,
    save_block_json,
)

__all__ = [
    "Codec",
    "CompressedBlock",
    "CodecSpec",
    "register_codec",
    "get_codec",
    "available_codecs",
    "codec_spec",
    "codec_specs",
    "codec_families",
    "RawCodec",
    "GorillaXorCodec",
    "ChimpXorCodec",
    "CameoCodec",
    "SimplifierCodec",
    "PmcCodec",
    "SwingCodec",
    "SimPieceCodec",
    "FftCodec",
    "block_to_document",
    "block_from_document",
    "save_block_json",
]
