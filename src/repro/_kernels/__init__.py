"""Vectorized hot-path kernels and the native-tier dispatch.

This package hosts the low-level, performance-critical primitives the rest
of the library routes through:

* :mod:`repro._kernels.bitpack` — block-wise (word-at-a-time) bitstream
  writer/reader with batch pack/unpack APIs,
* :mod:`repro._kernels.bitops` — vectorized ``uint64`` bit manipulation
  (leading/trailing-zero counts, XOR streams) used by the Gorilla and Chimp
  encoders,
* :mod:`repro._kernels.pacf` — the batched Durbin-Levinson recursion that
  turns many candidate ACF rows into PACF rows at once (the
  ``statistic="pacf"`` hot path),
* :mod:`repro._kernels.lagdot` — the left-to-right lag sums of the
  aggregate update (the ``sxxl`` delta of a contiguous change), whose
  accumulation order every tier reproduces,
* :mod:`repro._kernels._native` — the *optional* compiled tier: the whole
  greedy loop (pop, decide, apply, remove, ReHeap — one GIL-free call), the
  whole ReHeap step (removed index in, heap updated out), its evaluation
  kernel on its own (gaps in, impacts out), the indexed-min-heap
  primitives, and the greedy-pop gap deltas as C loops (OpenMP when
  available), plus the storage layer's byte loops (the Gorilla/Chimp bit
  streams and CRC32C), verified bit-identical to the NumPy kernels at
  import time,
* :mod:`repro._kernels.reference` — the original per-bit / per-row
  implementations, kept as the ground truth for bit-exact cross-checks and
  as the baseline the perf harness measures speedups against.

Kernel tiers resolve here.  The NumPy kernels work everywhere (a
source-only install never needs a compiler); when the native extension is
built *and* passes its import-time bit-identity self-check, the hot paths
in :mod:`repro.core` route through it instead.  ``REPRO_NATIVE=0``
force-disables the native tier (kill switch); :func:`active_tier` reports
what each kernel resolved to, and :func:`set_native_enabled` flips the
tier in-process (used by the tests that run both tiers).
"""

from __future__ import annotations

import os

from . import _native
from .bitops import clz64, ctz64, xor_stream
from .bitpack import BlockBitReader, BlockBitWriter, pack_bits, words_to_bytes
from .pacf import pacf_from_acf_batched

__all__ = [
    "BlockBitWriter",
    "BlockBitReader",
    "pack_bits",
    "words_to_bytes",
    "clz64",
    "ctz64",
    "xor_stream",
    "pacf_from_acf_batched",
    "native_available",
    "native_enabled",
    "set_native_enabled",
    "get_native",
    "active_tier",
    "describe_tiers",
    "native_build_info",
]

#: Kill switch: ``REPRO_NATIVE=0`` (or ``false``/``off``) forces the
#: pure-NumPy kernels even when the extension is built.
NATIVE_ENV = "REPRO_NATIVE"

#: The kernels with a native implementation (reported by active_tier).
_NATIVE_KERNELS = ("run_loop", "reheap", "segment_impacts", "heap",
                   "gap_deltas", "xor_codec", "crc32c")


def _env_allows_native() -> bool:
    return os.environ.get(NATIVE_ENV, "1").lower() not in ("0", "false", "off")


_native_enabled = _env_allows_native()


def native_available() -> bool:
    """Is the compiled extension built and admitted by its self-check?"""
    return _native.MODULE is not None


def native_enabled() -> bool:
    """Is the native tier both available and not disabled?"""
    return _native_enabled and _native.MODULE is not None


def set_native_enabled(enabled: bool | None = None) -> None:
    """Enable/disable the native tier in-process.

    ``None`` re-reads the ``REPRO_NATIVE`` environment variable.  Enabling
    has no effect when the extension is not built — the tier stays
    ``numpy`` and :func:`active_tier` says so.
    """
    global _native_enabled
    _native_enabled = _env_allows_native() if enabled is None else bool(enabled)


def get_native():
    """The native module when the tier is active, else ``None``.

    This is the hot-path dispatch hook: callers fetch it once per kernel
    invocation and fall back to their NumPy formulation on ``None``.
    """
    return _native.MODULE if _native_enabled else None


def native_build_info() -> dict:
    """Compiler / OpenMP / admission metadata of the native build."""
    return dict(_native.BUILD_INFO)


def active_tier() -> dict[str, str]:
    """Which tier (``"native"``/``"numpy"``) each kernel resolves to."""
    tier = "native" if native_enabled() else "numpy"
    return {kernel: tier for kernel in _NATIVE_KERNELS}


def describe_tiers() -> str:
    """One-line human-readable tier summary for CLI output."""
    info = _native.BUILD_INFO
    if native_enabled():
        threads = info.get("max_threads", 1)
        omp = f"OpenMP x{threads}" if info.get("openmp") else "no OpenMP"
        return (f"native ({', '.join(_NATIVE_KERNELS)}; "
                f"{info.get('compiler', 'unknown')}, {omp})")
    if native_available():
        return "numpy (native extension built but disabled via REPRO_NATIVE=0)"
    return f"numpy (native extension {info.get('status', 'unavailable')})"
