"""Loader for the optional compiled kernel tier.

Importing this package never fails: when the ``_nativecore`` extension is
absent (source-only install) or unusable, :data:`MODULE` is ``None`` and
the callers fall back to the pure-NumPy kernels.

Beyond the plain import, the loader runs a bit-identity self-check before
admitting the extension:

* ``reduceat_check`` — the extension's transcription of NumPy's pairwise
  segment summation must reproduce ``np.add.reduceat`` *bit for bit* on a
  battery of segment lengths crossing every accumulation-regime boundary
  (sequential < 8, unrolled <= 128, recursive splits above), both 1-D and
  down the columns of a C-contiguous matrix (``axis=0``, the masked
  ``(T, L)`` sums of the ReHeap kernel).  A NumPy build whose reduction
  order differs (e.g. a SIMD pairwise path the C model does not cover)
  disqualifies the native tier on that machine rather than silently
  changing kept-point sets.
* ``rowwise_check`` — the extension's closed-form deviations must
  reproduce ``np.mean``/``np.max`` along the contiguous axis (the
  pairwise sum *without* reduceat's first-element seed).
* ``stable_order_check`` — the extension's stable sort (the heap rebuild
  inside ``reheap``) must reproduce ``np.argsort(kind="stable")`` on keys
  with duplicates, NaN, ±inf and ±0.0: a different tie order would change
  which of two equal-impact points is removed first.
* ``lagdot_check`` — the extension's left-to-right lag sums (the ``sxxl``
  update ``run_loop`` applies after every accepted removal) must reproduce
  :func:`repro._kernels.lagdot.lagged_dot_deltas`, whose order rests on
  this NumPy reducing a matrix along axis 0 row after row; ranges at both
  series ends and lengths across NumPy's pairwise-summation regime edges
  (8, 128) are in the battery, and the whole series at once.
* ``fma_probe`` — ``a*b - a*b`` must be exactly ``0.0``; a non-zero
  result means the compiler contracted a product into a fused
  multiply-add, which rounds differently from NumPy's separate ops.
* CRC32C known answers — ``crc32c`` must give the check value of
  ``b"123456789"``, the four 32-byte iSCSI vectors of RFC 3720 B.4, and
  the same value for a buffer hashed whole or in two running pieces.
* ``xor_check`` — ``xor_encode`` must turn a fixed battery of bit patterns
  (every control code of both schemes, NaN/inf/denormal patterns, fields
  across 64-bit word boundaries) into the payloads the NumPy-tier
  encoders produce, and ``xor_decode`` must return the battery — and
  refuse it when the stream is one bit or one byte short.  The
  expected payloads are pinned by length and checksum rather than
  recomputed: :mod:`repro.lossless` imports this package, and they are
  integer code whose answer no NumPy build can move
  (``tests/lossless/test_native_xor.py`` holds the pins to the NumPy tier
  and to :mod:`repro._kernels.reference`).

The outcome (and the reason for a refusal) is recorded in
:data:`BUILD_INFO` so ``repro._kernels.active_tier()`` stays diagnosable.

Set ``REPRO_NATIVE_THREADS=<n>`` to pin the OpenMP thread count before
first use (no-op for builds without OpenMP).
"""

from __future__ import annotations

import os

import numpy as np

from ...exceptions import CodecError
from ..lagdot import lagged_dot_deltas

__all__ = ["MODULE", "BUILD_INFO"]

#: OpenMP thread-count override, applied at import.
THREADS_ENV = "REPRO_NATIVE_THREADS"

#: The admitted extension module, or ``None`` (absent or failed check).
MODULE = None

#: Build/diagnostic metadata: ``status`` is one of ``"active"``,
#: ``"unavailable"`` (not compiled) or ``"rejected: <reason>"``.
BUILD_INFO: dict = {"status": "unavailable", "compiler": None,
                    "openmp": False, "max_threads": 1}


def _check_reduceat_model(mod) -> bool:
    """Does the extension's summation model match this NumPy, bit for bit?"""
    rng = np.random.default_rng(0xCA3E0)
    for total in (1, 2, 7, 8, 9, 31, 127, 128, 129, 257, 1000, 4099):
        # wide magnitude spread so any reassociation shows up in the bits
        values = rng.normal(0.0, 1.0, total) * 10.0 ** rng.integers(
            -6, 7, total)
        for num_segments in {1, 2, 3, min(17, total)}:
            if total > 1 and num_segments > 1:
                # strictly increasing cuts: the kernels only ever reduce
                # non-empty segments
                cuts = np.unique(rng.integers(1, total, num_segments - 1))
            else:
                cuts = np.empty(0, dtype=np.int64)
            offsets = np.concatenate(([0], cuts)).astype(np.int64)
            expected = np.add.reduceat(values, offsets)
            got = mod.reduceat_check(values, offsets)
            if expected.tobytes() != got.tobytes():
                return False
    # axis=0 over a C-contiguous matrix: every column is summed with the
    # same model, strided
    matrix = rng.normal(0.0, 1.0, (150, 3)) * 10.0 ** rng.integers(
        -6, 7, (150, 3))
    offsets = np.array([0, 1, 8, 20], dtype=np.int64)
    expected = np.add.reduceat(matrix, offsets, axis=0)
    return all(
        np.array_equal(expected[:, column], mod.reduceat_check(
            np.ascontiguousarray(matrix[:, column]), offsets))
        for column in range(matrix.shape[1]))


def _check_rowwise_model(mod) -> bool:
    """Do the extension's row deviations match this NumPy, bit for bit?"""
    rng = np.random.default_rng(0xCA3E1)
    for num_lags in (1, 7, 8, 9, 24, 129, 300):
        rows = rng.normal(0.0, 1.0, (3, num_lags)) * 10.0 ** rng.integers(
            -6, 7, (3, num_lags))
        reference = rng.normal(0.0, 1.0, num_lags)
        diff = rows - reference
        expected = {"mae": np.mean(np.abs(diff), axis=1),
                    "cheb": np.max(np.abs(diff), axis=1),
                    "mse": np.mean(diff * diff, axis=1),
                    "rmse": np.sqrt(np.mean(diff * diff, axis=1))}
        for kind, values in expected.items():
            if not np.array_equal(values,
                                  mod.rowwise_check(reference, rows, kind)):
                return False
    return True


def _check_stable_order(mod) -> bool:
    """Does the extension's stable sort order keys as this NumPy does?"""
    rng = np.random.default_rng(0xCA3E2)
    # few distinct values: mostly ties, with every special key among them
    values = np.concatenate(([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0],
                             rng.normal(0.0, 1.0, 4)))
    tied = values[rng.integers(0, values.size, 300)]
    batteries = [tied[:total] for total in (1, 2, 8, 9, 70, 300)]
    batteries.append(rng.normal(0.0, 1.0, 257))
    return all(np.argsort(keys, kind="stable").tobytes()
               == mod.stable_order_check(keys).tobytes()
               for keys in batteries)


def _check_lagdot_model(mod) -> bool:
    """Do the extension's lag sums match the NumPy expression, bit for bit?"""
    rng = np.random.default_rng(0xCA3E3)
    for max_lag, n in ((1, 40), (3, 40), (24, 160)):
        padded = np.zeros(n + 2 * max_lag)
        current = padded[max_lag:max_lag + n]
        current[:] = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-6, 7, n)
        work = np.zeros(n + max_lag)
        for m in (1, 2, 7, 8, 9, 33, 129, n):
            if m > n:
                continue
            for start in {0, (n - m) // 2, n - m}:
                deltas = rng.normal(0.0, 1.0, m) * 10.0 ** rng.integers(
                    -6, 7, m)
                expected = lagged_dot_deltas(padded, max_lag, start, deltas,
                                             work)
                got = mod.lagdot_check(current, max_lag, start, deltas)
                if expected.tobytes() != got.tobytes():
                    return False
    return True


#: CRC32C known answers: the check value and RFC 3720 B.4's iSCSI vectors.
_CRC_ANSWERS = (
    (b"", 0x00000000),
    (b"123456789", 0xE3069283),
    (bytes(32), 0x8A9136AA),
    (b"\xff" * 32, 0x62A8AB43),
    (bytes(range(32)), 0x46DD794E),
    (bytes(range(31, -1, -1)), 0x113FDB5C),
)


def _check_crc32c(mod) -> bool:
    """Does the extension's CRC32C give the published answers?"""
    if any(mod.crc32c(data) != answer for data, answer in _CRC_ANSWERS):
        return False
    data = bytes(range(256)) * 3 + b"tail!"     # 8-byte strides + a tail
    return all(mod.crc32c(data[cut:], mod.crc32c(data[:cut]))
               == mod.crc32c(data) for cut in (0, 1, 7, 8, 9, 300, len(data)))


def xor_battery() -> np.ndarray:
    """The float64 bit patterns the XOR codec self-check encodes.

    Built from exactly rounded arithmetic and an integer generator, so it
    is the same array on every machine.  Narrow XORs come first — a Gorilla
    window only ever widens until a value falls outside it, and arbitrary
    patterns open it all the way: neighbouring bit patterns (more than 31
    leading zeros, Chimp flags ``01``/``10``), the same with every value
    repeated (flag ``00`` between two equal leading codes), steps of 64
    (exactly six trailing zeros, Chimp's flag ``11`` threshold), integers
    (long trailing-zero runs), two-decimal values (full mantissas), ±0.0,
    denormals, ±inf, a NaN and arbitrary 64-bit patterns — the codecs move
    bits, whatever float they spell.
    """
    base = int(np.float64(1234.5).view(np.uint64))
    state, noise = 0x9E3779B97F4A7C15, []
    for _ in range(24):
        state = (state * 6364136223846793005 + 1442695040888963407) % 2 ** 64
        noise.append(state)
    patterns = ([base + 3 * step * step for step in range(40)]
                + [base + 5 * (step // 2) for step in range(24)]
                + [base + 64 * step for step in range(12)])
    specials = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 1e308]
    return np.concatenate((
        np.array(patterns, dtype=np.uint64).view(np.float64),
        np.arange(40.0), np.round(np.arange(40) * 0.37, 2), specials,
        np.array(noise, dtype=np.uint64).view(np.float64)))


#: ``scheme -> (bit_length, crc32c(payload))`` of :func:`xor_battery` under
#: the NumPy-tier encoders.
XOR_ANSWERS = {"gorilla": (9326, 0x5618EEBD), "chimp": (7508, 0x68DBEC69)}


def _decoded_bytes(mod, scheme, payload, bit_length, count) -> bytes | None:
    """The decoded values' bytes, or ``None`` when the decoder refuses."""
    try:
        return mod.xor_decode(scheme, payload, bit_length, count).tobytes()
    except CodecError:
        return None


def _check_xor_codecs(mod) -> bool:
    """Do both schemes encode the battery to the pinned payloads, and back?"""
    battery = xor_battery()
    for scheme, answer in XOR_ANSWERS.items():
        payload, bit_length = mod.xor_encode(scheme, battery)
        if (bit_length, mod.crc32c(payload)) != answer:
            return False
        if _decoded_bytes(mod, scheme, payload, bit_length,
                          battery.size) != battery.tobytes():
            return False
        # one bit or one byte short, the last value must be refused
        for short in ((payload, bit_length - 1), (payload[:-1], bit_length)):
            if _decoded_bytes(mod, scheme, *short, battery.size) is not None:
                return False
    return True


def _self_check(mod) -> str | None:
    """Return a rejection reason, or ``None`` when the module is usable."""
    try:
        if mod.fma_probe(1.0000000001e8, 3.0000000003) != 0.0:
            return "build contracted multiplies into FMA"
        if not _check_reduceat_model(mod):
            return "np.add.reduceat accumulation order not reproduced"
        if not _check_rowwise_model(mod):
            return "np.mean/np.max row reductions not reproduced"
        if not _check_stable_order(mod):
            return "np.argsort(kind='stable') order not reproduced"
        if not _check_lagdot_model(mod):
            return "axis-0 np.add.reduce lag sums not reproduced"
        if not _check_crc32c(mod):
            return "crc32c known answers not reproduced"
        if not _check_xor_codecs(mod):
            return "XOR codec payloads not reproduced"
    except Exception as exc:  # pragma: no cover - defensive
        return f"self-check crashed: {exc!r}"
    return None


def _load():
    global MODULE, BUILD_INFO
    try:
        from . import _nativecore
    except ImportError:
        return
    info = _nativecore.build_info()
    BUILD_INFO.update(compiler=info["compiler"], openmp=bool(info["openmp"]),
                      max_threads=info["max_threads"])
    threads = os.environ.get(THREADS_ENV)
    if threads and threads.isdigit() and int(threads) > 0:
        _nativecore.set_num_threads(int(threads))
        BUILD_INFO["max_threads"] = _nativecore.get_max_threads()
    reason = _self_check(_nativecore)
    if reason is not None:
        BUILD_INFO["status"] = f"rejected: {reason}"
        return
    BUILD_INFO["status"] = "active"
    MODULE = _nativecore


_load()
