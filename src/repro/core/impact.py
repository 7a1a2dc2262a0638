"""ACF-impact evaluation (Algorithm 2 and the ReHeap look-ahead).

Entry points:

* :func:`batched_single_change_impacts` — the vectorised ``GetAllImpact`` of
  Algorithm 2: for many candidate points at once, compute the deviation the
  ACF would suffer if that point alone changed by its interpolation delta.
  Works directly on the per-lag aggregate vectors, so each candidate costs
  O(L) and the whole batch is a handful of NumPy operations per chunk.
* :func:`batched_contiguous_acf` — the fused ReHeap kernel: the ACF each of
  many *contiguous-range* changes would produce, evaluated for all segments
  in one vectorized pass (single-point segments reproduce
  :func:`batched_single_change_impacts` bit for bit).
* :func:`segment_interpolation_deltas` / ``..._batched`` — the exact
  multi-point deltas used in the inner loop: when point ``i`` is removed,
  every already-removed point in the surviving gap ``(left, right)`` is
  re-interpolated on the new segment.  The batched variant computes the
  deltas of many gaps in one pass over a concatenated position array.
* :func:`native_gap_impacts` — the compiled tier's whole ReHeap evaluation
  (batched deltas, :func:`batched_contiguous_acf` rows and the closed-form
  deviation) as one call, bit-identical to chaining the three above.
* :func:`native_reheap` — the compiled tier's whole ReHeap *step*: the
  neighbourhood gather, the speculative peek, that evaluation and the heap
  re-key as one call — removed index in, heap updated out.
* :func:`native_run_loop` — the compiled tier's greedy *loop*: pop, decide,
  apply, remove and ReHeap, iteration after iteration, in one GIL-free call.

The deviation measure ``D`` is vectorised for the common metrics (MAE,
Chebyshev, RMSE/MSE); any other callable falls back to a row-wise loop.
:func:`resolve_rowwise_metric` hoists the name-string dispatch out of the
hot loop: the compressor resolves the metric once per run and every
downstream call takes the pre-resolved object.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from .._kernels import get_native as _get_native
from ..metrics import get_metric
from ..stats.aggregates import ACFAggregateState
from .heap import NativeIndexedMinHeap
from .neighbors import NeighborList

__all__ = [
    "ResolvedMetric",
    "resolve_rowwise_metric",
    "metric_rowwise",
    "batched_single_change_impacts",
    "batched_contiguous_acf",
    "segment_interpolation_deltas",
    "segment_interpolation_deltas_batched",
    "initial_interpolation_deltas",
    "native_gap_impacts",
    "native_reheap",
    "native_run_loop",
    "native_serves",
]

_VECTORISED_METRICS = {"mae", "cheb", "chebyshev", "max", "rmse", "mse"}

#: Upper bound on ``total_positions * max_lag`` per vectorized block in
#: :func:`batched_contiguous_acf`.  Bounds both the per-call working set and
#: the thread-local scratch pool retained across ReHeap calls (a few dozen
#: MB; blocks forced larger by a single long segment use a one-off scratch
#: that is not retained).
_MAX_BLOCK_CELLS = 1 << 21


class ResolvedMetric:
    """A deviation measure with its dispatch decided once, not per call.

    ``kind`` is one of ``"mae"``, ``"cheb"``, ``"mse"``, ``"rmse"`` (closed
    NumPy forms) or ``"callable"`` (row-wise application of ``fn``).
    """

    __slots__ = ("kind", "fn", "name")

    def __init__(self, kind: str, fn: Callable[..., float] | None, name: str):
        self.kind = kind
        self.fn = fn
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResolvedMetric({self.name!r})"

    # ------------------------------------------------------------------ #
    def rowwise(self, reference: np.ndarray, candidates: np.ndarray, *,
                overwrite: bool = False) -> np.ndarray:
        """``D(reference, row)`` for every row of a 2-D ``candidates``.

        ``overwrite=True`` lets the closed-form metrics reuse ``candidates``
        as workspace (identical results; pass it only for arrays that are
        dead after the call, like a freshly computed statistic matrix).
        """
        kind = self.kind
        if kind == "callable":
            fn = self.fn
            return np.array([fn(reference, row) for row in candidates],
                            dtype=np.float64)
        if overwrite and candidates.dtype == np.float64:
            diff = np.subtract(candidates, reference[np.newaxis, :],
                               out=candidates)
        else:
            diff = candidates - reference[np.newaxis, :]
        if kind == "mae":
            return np.mean(np.abs(diff, out=diff), axis=1)
        if kind == "cheb":
            return np.max(np.abs(diff, out=diff), axis=1)
        if kind == "mse":
            return np.mean(np.multiply(diff, diff, out=diff), axis=1)
        return np.sqrt(np.mean(np.multiply(diff, diff, out=diff), axis=1))

    def single(self, reference: np.ndarray, candidate: np.ndarray) -> float:
        """Scalar ``D(reference, candidate)`` without 2-D reshaping."""
        kind = self.kind
        if kind == "callable":
            return float(self.fn(reference, candidate))
        diff = candidate - reference
        if kind == "mae":
            return float(np.mean(np.abs(diff)))
        if kind == "cheb":
            return float(np.max(np.abs(diff)))
        if kind == "mse":
            return float(np.mean(diff * diff))
        return float(np.sqrt(np.mean(diff * diff)))


def resolve_rowwise_metric(metric) -> ResolvedMetric:
    """Resolve a metric name/callable into a :class:`ResolvedMetric`.

    Resolving once per compression run removes the per-call string
    normalisation and registry lookup from the inner loop.
    """
    if isinstance(metric, ResolvedMetric):
        return metric
    if isinstance(metric, str):
        name = metric.strip().lower()
        if name in _VECTORISED_METRICS:
            if name in ("cheb", "chebyshev", "max"):
                kind = "cheb"
            else:
                kind = name
            return ResolvedMetric(kind, None, name)
        return ResolvedMetric("callable", get_metric(metric), name)
    fn = get_metric(metric)
    return ResolvedMetric("callable", fn, getattr(fn, "__name__", "custom"))


def metric_rowwise(metric, reference: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Evaluate ``D(reference, row)`` for every row of ``candidates``.

    ``metric`` may be a registered metric name, a callable ``(x, y) ->
    float``, or a pre-resolved :class:`ResolvedMetric`.  Common names use
    closed-form NumPy expressions; callables are applied row by row.
    """
    resolved = resolve_rowwise_metric(metric)
    return resolved.rowwise(reference, np.atleast_2d(candidates))


def batched_single_change_impacts(state: ACFAggregateState, positions, deltas,
                                  reference: np.ndarray, metric="mae", *,
                                  chunk_size: int = 16384) -> np.ndarray:
    """Deviation of the ACF if each candidate position changed independently.

    Parameters
    ----------
    state:
        The aggregate state whose sums describe the *current* series.
    positions, deltas:
        Candidate positions (into the state's series) and the value change
        each candidate would apply.  Each candidate is evaluated in
        isolation.
    reference:
        The reference ACF vector the deviation is measured against (the ACF
        of the *original* series, ``P_L`` in Algorithm 1).
    metric:
        Deviation measure ``D`` (name, callable, or resolved metric).
    chunk_size:
        Number of candidates evaluated per NumPy batch; bounds memory at
        ``chunk_size * L`` floats.
    """
    positions = np.asarray(positions, dtype=np.int64)
    deltas = np.asarray(deltas, dtype=np.float64)
    if positions.shape != deltas.shape:
        raise ValueError("positions and deltas must have the same shape")
    if positions.size == 0:
        return np.empty(0, dtype=np.float64)
    metric = resolve_rowwise_metric(metric)

    sums = state.sums
    lags = state.lags
    counts = sums.counts
    current = state.current
    n = state.n
    out = np.empty(positions.size, dtype=np.float64)

    for start in range(0, positions.size, chunk_size):
        stop = min(start + chunk_size, positions.size)
        pos = positions[start:stop, np.newaxis]      # (m, 1)
        delta = deltas[start:stop, np.newaxis]       # (m, 1)
        head = pos + lags[np.newaxis, :] <= n - 1    # (m, L) position is in the lag head
        tail = pos - lags[np.newaxis, :] >= 0        # (m, L) position is in the lag tail

        own = current[pos]                           # (m, 1)
        square_term = delta * (2.0 * own + delta)

        new_sx = sums.sx + np.where(head, delta, 0.0)
        new_sxl = sums.sxl + np.where(tail, delta, 0.0)
        new_sx2 = sums.sx2 + np.where(head, square_term, 0.0)
        new_sx2l = sums.sx2l + np.where(tail, square_term, 0.0)

        right_idx = np.minimum(pos + lags[np.newaxis, :], n - 1)
        left_idx = np.maximum(pos - lags[np.newaxis, :], 0)
        new_sxxl = (sums.sxxl
                    + np.where(head, delta * current[right_idx], 0.0)
                    + np.where(tail, delta * current[left_idx], 0.0))

        numerator = counts * new_sxxl - new_sx * new_sxl
        var_head = counts * new_sx2 - new_sx * new_sx
        var_tail = counts * new_sx2l - new_sxl * new_sxl
        acf_new = np.zeros_like(numerator)
        valid = (var_head > 0.0) & (var_tail > 0.0)
        denom = np.sqrt(np.where(valid, var_head * var_tail, 1.0))
        np.divide(numerator, denom, out=acf_new, where=valid)

        out[start:stop] = metric.rowwise(reference, acf_new, overwrite=True)
    return out


def batched_contiguous_acf(state: ACFAggregateState, lengths, positions, deltas
                           ) -> np.ndarray:
    """ACF each of many contiguous-range changes would produce, vectorized.

    The ``k`` hypothetical changes are given in concatenated form:
    ``lengths[s]`` positions belong to segment ``s`` and the segments'
    positions/deltas are stored back to back in ``positions``/``deltas``
    (each segment's positions must be consecutive integers).  Returns a
    ``(k, L)`` matrix whose row ``s`` is the ACF after applying segment
    ``s`` alone; zero-length segments get the current ACF.

    Single-position segments reproduce the arithmetic of
    :func:`batched_single_change_impacts` exactly.  The cross terms
    ``delta_p * delta_{p+l}`` inside each segment are accumulated per lag
    with a bincount over same-segment pairs.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    positions = np.asarray(positions, dtype=np.int64)
    deltas = np.asarray(deltas, dtype=np.float64)
    k = lengths.size
    num_lags = state.lags.size
    out = np.empty((k, num_lags), dtype=np.float64)
    if k == 0:
        return out

    nonzero = lengths > 0
    if not bool(nonzero.all()):
        out[~nonzero] = state.acf()
    lens = lengths[nonzero]
    if lens.size == 0:
        return out
    row_index = np.flatnonzero(nonzero)

    cum = np.concatenate(([0], np.cumsum(lens)))
    # Split into blocks so temp arrays stay ~_MAX_BLOCK_CELLS elements.
    budget = max(_MAX_BLOCK_CELLS // max(num_lags, 1), int(lens.max()))
    start_seg = 0
    while start_seg < lens.size:
        stop_seg = int(np.searchsorted(cum, cum[start_seg] + budget, side="right")) - 1
        stop_seg = max(stop_seg, start_seg + 1)
        block_rows = row_index[start_seg:stop_seg]
        lo, hi = int(cum[start_seg]), int(cum[stop_seg])
        out[block_rows] = _contiguous_acf_block(
            state, lens[start_seg:stop_seg], positions[lo:hi], deltas[lo:hi])
        start_seg = stop_seg
    return out


class _BlockScratch:
    """Reusable ``(T, L)`` scratch buffers for :func:`_contiguous_acf_block`.

    One ReHeap call allocated ~8 ``(T, L)`` temporaries; the pool keeps a
    float64, two int64, and two bool buffers per ``(thread, L)`` — plus one
    ``(T, 2L)`` float/int pair for the interior path's fused head+tail
    gather — and grows their row capacity geometrically, so steady-state
    ReHeap calls allocate no ``(T, L)`` arrays at all.
    """

    __slots__ = ("rows", "f1", "f2", "i1", "i2", "b1", "b2", "fw", "iw")

    def __init__(self, rows: int, num_lags: int):
        self.rows = rows
        self.f1 = np.empty((rows, num_lags), dtype=np.float64)
        self.f2 = np.empty((rows, num_lags), dtype=np.float64)
        self.i1 = np.empty((rows, num_lags), dtype=np.int64)
        self.i2 = np.empty((rows, num_lags), dtype=np.int64)
        self.b1 = np.empty((rows, num_lags), dtype=bool)
        self.b2 = np.empty((rows, num_lags), dtype=bool)
        self.fw = np.empty((rows, 2 * num_lags), dtype=np.float64)
        self.iw = np.empty((rows, 2 * num_lags), dtype=np.int64)


_block_scratch_tls = threading.local()


def _block_scratch(rows: int, num_lags: int) -> _BlockScratch:
    """Fetch (or grow) this thread's scratch pool for ``num_lags`` lags.

    The retained pool is bounded by roughly ``2 * _MAX_BLOCK_CELLS`` cells
    per ``(thread, num_lags)`` pair: blocks forced larger than that by a
    single long segment get a one-off scratch that is not kept, so a
    long-lived process cannot accumulate unbounded buffers.
    """
    pools = getattr(_block_scratch_tls, "pools", None)
    if pools is None:
        pools = {}
        _block_scratch_tls.pools = pools
    scratch = pools.get(num_lags)
    if scratch is None or scratch.rows < rows:
        capacity = max(rows, 2 * scratch.rows) if scratch is not None else rows
        scratch = _BlockScratch(capacity, num_lags)
        if capacity * num_lags <= 2 * _MAX_BLOCK_CELLS:
            pools[num_lags] = scratch
    return scratch


def _masked_segment_sums(values, mask: np.ndarray, scratch_rows: np.ndarray,
                         offsets: np.ndarray) -> np.ndarray:
    """``np.add.reduceat(np.where(mask, values, 0.0), offsets, axis=0)``
    without allocating the masked ``(T, L)`` temporary.

    Multiplying by the boolean mask zeroes the masked slots in one pass;
    the products differ from ``np.where`` only in the sign of masked zeros,
    which cannot change the segment sums' final values.
    """
    np.multiply(values, mask, out=scratch_rows)
    return np.add.reduceat(scratch_rows, offsets, axis=0)


def _contiguous_acf_block(state: ACFAggregateState, lens: np.ndarray,
                          positions: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """One vectorized block of :func:`batched_contiguous_acf`.

    Segments whose positions sit at least ``max_lag`` away from both series
    ends (the overwhelming majority) take the *interior* fast path: their
    head/tail lag masks are all-true, so the four masked ``(T, L)`` segment
    sums collapse to two 1-D ``reduceat`` calls over the concatenated
    deltas/energies — multiplying by an all-true mask is exact (``x * 1.0 ==
    x``) and the accumulation order is unchanged, so the fast path is
    bit-identical to the masked formulation.  Segments touching a boundary
    keep the full masked path (:func:`_edge_acf_block`).
    """
    lags = state.lags
    num_segments = lens.size
    offsets = np.concatenate(([0], np.cumsum(lens[:-1])))
    seg_start = positions[offsets]
    seg_end = positions[offsets + lens - 1]
    max_lag = lags.size  # lags are 1..L
    interior = (seg_start >= max_lag) & (seg_end + max_lag <= state.n - 1)
    # The cross-term path choice (bincount vs partner matrix) depends on the
    # longest segment; decide it once for the whole block so partitioning a
    # block into interior/edge subsets cannot flip a subset onto the other
    # path (the two accumulate in different orders).
    max_len = int(lens.max())
    if bool(interior.all()):
        return _interior_acf_block(state, lens, offsets, positions, deltas,
                                   max_len)
    if not bool(interior.any()):
        return _edge_acf_block(state, lens, positions, deltas, max_len)
    member = np.repeat(interior, lens)
    out = np.empty((num_segments, lags.size), dtype=np.float64)
    interior_lens = lens[interior]
    interior_offsets = np.concatenate(([0], np.cumsum(interior_lens[:-1])))
    out[interior] = _interior_acf_block(state, interior_lens, interior_offsets,
                                        positions[member], deltas[member],
                                        max_len)
    out[~interior] = _edge_acf_block(state, lens[~interior],
                                     positions[~member], deltas[~member],
                                     max_len)
    return out


def _segment_cross_terms(deltas: np.ndarray, lens: np.ndarray, lags: np.ndarray,
                         total: int, max_len: int) -> np.ndarray | None:
    """Per-lag ``delta_p * delta_{p+l}`` sums of same-segment pairs.

    Positions within a segment are consecutive, so lag-l pairs are exactly
    the concatenated entries at distance l that share a segment; one (T, L)
    partner gather + segment-reduce covers every lag at once.  Returns
    ``None`` when no segment is long enough to have cross terms.

    ``max_len`` is the longest segment of the *whole* block (not just this
    subset): it selects between the bincount and partner-matrix paths, which
    accumulate in different orders, so the choice must not depend on how the
    block was partitioned.
    """
    if max_len <= 1:
        return None
    num_segments = lens.size
    offsets = np.concatenate(([0], np.cumsum(lens[:-1])))
    segment_ids = np.repeat(np.arange(num_segments, dtype=np.int64), lens)
    num_cross_lags = min(max_len - 1, lags.size)
    if num_cross_lags <= 8:
        # Few lags carry cross terms: a short per-lag bincount beats
        # materialising the full (T, L) pair matrix.
        cross = np.zeros((num_segments, lags.size), dtype=np.float64)
        for lag_index in range(num_cross_lags):
            shift = lag_index + 1
            same = segment_ids[shift:] == segment_ids[:-shift]
            products = deltas[shift:] * deltas[:-shift]
            cross[:, lag_index] = np.bincount(
                segment_ids[shift:][same], weights=products[same],
                minlength=num_segments)
        return cross
    # Lags beyond the longest segment cannot pair, so the partner matrix
    # only needs the first ``num_cross_lags`` columns; the remaining lag
    # columns of the returned cross matrix stay exactly zero.  The narrow
    # temporaries are freshly allocated *contiguous* arrays — column-sliced
    # scratch views make ``take``/``reduceat`` fall off their fast paths
    # (measured ~14x slower) and the arrays are small.
    width = num_cross_lags
    partner = np.add(np.arange(total, dtype=np.int64)[:, np.newaxis],
                     lags[np.newaxis, :width])
    in_range = partner < total
    np.minimum(partner, total - 1, out=partner)
    pair_ids = np.take(segment_ids, partner, mode="clip")
    pair = pair_ids == segment_ids[:, np.newaxis]
    np.logical_and(pair, in_range, out=pair)
    products = np.take(deltas, partner, mode="clip")
    np.multiply(deltas[:, np.newaxis], products, out=products)
    np.multiply(products, pair, out=products)
    cross = np.zeros((num_segments, lags.size), dtype=np.float64)
    cross[:, :width] = np.add.reduceat(products, offsets, axis=0)
    return cross


def _interior_acf_block(state: ACFAggregateState, lens: np.ndarray,
                        offsets: np.ndarray, positions: np.ndarray,
                        deltas: np.ndarray, max_len: int) -> np.ndarray:
    """Fast path for segments whose lag windows never leave the series."""
    sums = state.sums
    lags = state.lags
    counts = sums.counts
    current = state.current
    total = positions.size
    num_lags = lags.size
    scratch = _block_scratch(total, num_lags)

    # All-true head/tail masks: the four masked head/tail sums equal the
    # plain per-segment sums of the deltas / energy terms.
    old = current[positions]
    energy = deltas * (2.0 * old + deltas)
    d_seg = np.add.reduceat(deltas, offsets)[:, np.newaxis]       # (S, 1)
    e_seg = np.add.reduceat(energy, offsets)[:, np.newaxis]       # (S, 1)

    # Fused head+tail gather: one (T, 2L) take / multiply / reduceat pass
    # covers d_head (columns :L) and d_tail (columns L:) — per column the
    # arithmetic is identical to two separate (T, L) passes.
    pos = positions[:, np.newaxis]
    fw = scratch.fw[:total]
    iw = scratch.iw[:total]
    np.add(pos, lags[np.newaxis, :], out=iw[:, :num_lags])        # pos + lag
    np.subtract(pos, lags[np.newaxis, :], out=iw[:, num_lags:])   # pos - lag
    np.take(current, iw, out=fw, mode="clip")
    np.multiply(deltas[:, np.newaxis], fw, out=fw)
    d_both = np.add.reduceat(fw, offsets, axis=0)
    d_head = d_both[:, :num_lags]
    d_tail = d_both[:, num_lags:]

    new_sx = sums.sx + d_seg
    new_sxl = sums.sxl + d_seg
    new_sx2 = sums.sx2 + e_seg
    new_sx2l = sums.sx2l + e_seg
    # Summed in the same association order as the single-change kernel so
    # single-position segments stay bit-identical to it.
    new_sxxl = (sums.sxxl + d_head) + d_tail
    cross = _segment_cross_terms(deltas, lens, lags, total, max_len)
    if cross is not None:
        new_sxxl = new_sxxl + cross

    numerator = counts * new_sxxl - new_sx * new_sxl
    var_head = counts * new_sx2 - new_sx * new_sx
    var_tail = counts * new_sx2l - new_sxl * new_sxl
    acf_new = np.zeros_like(numerator)
    valid = (var_head > 0.0) & (var_tail > 0.0)
    denom = np.sqrt(np.where(valid, var_head * var_tail, 1.0))
    np.divide(numerator, denom, out=acf_new, where=valid)
    return acf_new


def _edge_acf_block(state: ACFAggregateState, lens: np.ndarray,
                    positions: np.ndarray, deltas: np.ndarray,
                    max_len: int) -> np.ndarray:
    """Masked path for segments whose lag windows are clipped by a boundary.

    All ``(T, L)`` intermediates live in the thread-local scratch pool
    (:func:`_block_scratch`); the arithmetic — and therefore the result, bit
    for bit — matches the original allocation-per-call formulation.
    """
    sums = state.sums
    lags = state.lags
    counts = sums.counts
    current = state.current
    n = state.n
    offsets = np.concatenate(([0], np.cumsum(lens[:-1])))

    total = positions.size
    scratch = _block_scratch(total, lags.size)
    f1 = scratch.f1[:total]
    f2 = scratch.f2[:total]
    i1 = scratch.i1[:total]
    i2 = scratch.i2[:total]
    b1 = scratch.b1[:total]
    b2 = scratch.b2[:total]

    pos = positions[:, np.newaxis]                   # (T, 1)
    delta = deltas[:, np.newaxis]                    # (T, 1)
    np.add(pos, lags[np.newaxis, :], out=i1)         # pos + lag
    np.subtract(pos, lags[np.newaxis, :], out=i2)    # pos - lag
    head = np.less_equal(i1, n - 1, out=b1)          # (T, L)
    tail = np.greater_equal(i2, 0, out=b2)

    own = current[pos]
    square_term = delta * (2.0 * own + delta)

    d_sx = _masked_segment_sums(delta, head, f1, offsets)
    d_sxl = _masked_segment_sums(delta, tail, f1, offsets)
    d_sx2 = _masked_segment_sums(square_term, head, f1, offsets)
    d_sx2l = _masked_segment_sums(square_term, tail, f1, offsets)

    # Indices are pre-clipped into range, so mode="clip" is semantically a
    # no-op; it lets np.take skip the slow bounds-checked buffered path.
    right_idx = np.minimum(i1, n - 1, out=i1)
    left_idx = np.maximum(i2, 0, out=i2)
    np.take(current, right_idx, out=f2, mode="clip")
    np.multiply(delta, f2, out=f2)                   # delta * current[right]
    d_head = _masked_segment_sums(f2, head, f1, offsets)
    np.take(current, left_idx, out=f2, mode="clip")
    np.multiply(delta, f2, out=f2)                   # delta * current[left]
    d_tail = _masked_segment_sums(f2, tail, f1, offsets)

    new_sx = sums.sx + d_sx
    new_sxl = sums.sxl + d_sxl
    new_sx2 = sums.sx2 + d_sx2
    new_sx2l = sums.sx2l + d_sx2l
    # Summed in the same association order as the single-change kernel so
    # single-position segments stay bit-identical to it.
    new_sxxl = (sums.sxxl + d_head) + d_tail

    cross = _segment_cross_terms(deltas, lens, lags, total, max_len)
    if cross is not None:
        new_sxxl = new_sxxl + cross

    numerator = counts * new_sxxl - new_sx * new_sxl
    var_head = counts * new_sx2 - new_sx * new_sx
    var_tail = counts * new_sx2l - new_sxl * new_sxl
    acf_new = np.zeros_like(numerator)
    valid = (var_head > 0.0) & (var_tail > 0.0)
    denom = np.sqrt(np.where(valid, var_head * var_tail, 1.0))
    np.divide(numerator, denom, out=acf_new, where=valid)
    return acf_new


def initial_interpolation_deltas(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-point delta if each interior point were replaced by the average of
    its immediate neighbours (the linear interpolation at removal time).

    Returns ``(positions, deltas)`` for positions ``1..n-2``; this is the
    ``ΔX`` vector of Algorithm 2.
    """
    positions = np.arange(1, values.size - 1, dtype=np.int64)
    deltas = 0.5 * (values[2:] + values[:-2]) - values[1:-1]
    return positions, deltas


def segment_interpolation_deltas(current: np.ndarray, left: int, right: int
                                 ) -> tuple[int, np.ndarray]:
    """Deltas to re-interpolate every point strictly inside ``(left, right)``.

    ``current`` is the reconstructed series; ``left`` and ``right`` are the
    surviving anchors of the segment after the candidate removal.  Every
    position in between (the candidate plus previously removed points) gets
    the value of the straight line from ``current[left]`` to
    ``current[right]``; the returned deltas are *new minus current* for the
    contiguous range starting at ``left + 1`` (the first returned value).
    """
    if right - left < 2:
        return left + 1, np.empty(0, dtype=np.float64)
    native = _get_native()
    if native is not None and current.flags.c_contiguous:
        return left + 1, native.gap_deltas(current, left, right)
    positions = np.arange(left + 1, right, dtype=np.int64)
    span = float(right - left)
    weights = (positions - left) / span
    new_values = current[left] * (1.0 - weights) + current[right] * weights
    deltas = new_values - current[positions]
    return left + 1, deltas


def segment_interpolation_deltas_batched(current: np.ndarray, lefts, rights
                                         ) -> tuple[np.ndarray, np.ndarray,
                                                    np.ndarray, np.ndarray]:
    """Vectorized :func:`segment_interpolation_deltas` for many gaps at once.

    Returns ``(starts, lengths, positions, deltas)`` in concatenated form:
    segment ``s`` re-interpolates the ``lengths[s]`` consecutive positions
    beginning at ``starts[s]``; ``positions``/``deltas`` hold all segments
    back to back.  Element-for-element the deltas match the per-gap
    function exactly.
    """
    lefts = np.asarray(lefts, dtype=np.int64)
    rights = np.asarray(rights, dtype=np.int64)
    starts = lefts + 1
    lengths = np.maximum(rights - lefts - 1, 0)
    total = int(lengths.sum())
    if total == 0:
        return (starts, lengths, np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64))
    repeats = np.repeat(np.arange(lefts.size, dtype=np.int64), lengths)
    offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    intra = np.arange(total, dtype=np.int64) - offsets[repeats]
    positions = starts[repeats] + intra
    span = (rights - lefts).astype(np.float64)[repeats]
    weights = (intra + 1) / span
    left_values = current[lefts[repeats]]
    right_values = current[rights[repeats]]
    new_values = left_values * (1.0 - weights) + right_values * weights
    deltas = new_values - current[positions]
    return starts, lengths, positions, deltas


def native_serves(statistic: str, agg_window: int, metric: ResolvedMetric) -> bool:
    """Does the compiled tier evaluate this configuration's ReHeap?

    It models the raw series' ACF under a closed-form metric and nothing
    else: PACF, aggregated windows and callable metrics run the NumPy
    kernels on either tier.
    """
    return (statistic == "acf" and agg_window == 1
            and metric.kind != "callable" and _get_native() is not None)


def native_gap_impacts(state: ACFAggregateState, reference: np.ndarray,
                       lefts: np.ndarray, rights: np.ndarray,
                       metric: ResolvedMetric) -> np.ndarray | None:
    """Impacts of re-interpolating each gap, through the compiled tier.

    One fused C call replaces :func:`segment_interpolation_deltas_batched`
    → :func:`batched_contiguous_acf` → :meth:`ResolvedMetric.rowwise` and
    reproduces that chain bit for bit without its ``(T, L)`` and ``(k, L)``
    intermediates.  ``lefts``/``rights`` must be C-contiguous ``int64``
    arrays.  Returns ``None`` when the chain has to run instead: the native
    tier is not active, the metric is a callable, or the request is large
    enough for :func:`batched_contiguous_acf` to split it into several
    ``_MAX_BLOCK_CELLS`` blocks (each block picks its own cross-term path).
    """
    native = _get_native()
    if native is None or metric.kind == "callable":
        return None
    sums = state.sums
    return native.segment_impacts(
        state.current, sums.counts, sums.sx, sums.sxl, sums.sx2, sums.sx2l,
        sums.sxxl, reference, lefts, rights, metric.kind,
        _MAX_BLOCK_CELLS // state.lags.size)


def native_reheap(state: ACFAggregateState, reference: np.ndarray,
                  metric: ResolvedMetric, neighbours: NeighborList, heap,
                  removed: int, hops: int, peek: int, state_version: int,
                  key_version: np.ndarray | None,
                  spec_version: np.ndarray | None,
                  spec_deviation: np.ndarray | None) -> int | None:
    """One whole ReHeap step through the compiled tier.

    From the removed index: gather the ``hops`` survivors each side that are
    still in ``heap``, append the ``peek`` cheapest heap items not among
    them, evaluate the combined request exactly as
    :func:`native_gap_impacts` would, re-key the neighbourhood in place as
    ``heap.update_many`` would, and stamp the speculation arrays
    (``key_version`` for re-keyed neighbours; ``spec_version`` /
    ``spec_deviation`` for the peeked items, whose impacts never enter the
    heap).  Returns the number of re-keyed neighbours.

    For a configuration :func:`native_serves` admits.  Returns ``None``,
    with nothing written, when the Python chain has to run all the same:
    ``heap`` is not the native heap, or the request is over one
    ``_MAX_BLOCK_CELLS`` block.
    """
    native = _get_native()
    if native is None or not isinstance(heap, NativeIndexedMinHeap):
        return None
    sums = state.sums
    return native.reheap(
        state.current, sums.counts, sums.sx, sums.sxl, sums.sx2, sums.sx2l,
        sums.sxxl, reference, metric.kind,
        _MAX_BLOCK_CELLS // state.lags.size,
        *neighbours.pointer_arrays(), *heap.storage(),
        removed, hops, peek, state_version,
        key_version, spec_version, spec_deviation)


def native_run_loop(state: ACFAggregateState, reference: np.ndarray,
                    metric: ResolvedMetric, neighbours: NeighborList,
                    heap: NativeIndexedMinHeap, hops: int, peek: int,
                    state_version: int, key_version: np.ndarray | None,
                    spec_version: np.ndarray | None,
                    spec_deviation: np.ndarray | None,
                    epsilon: float | None, kept: int, removed_points: int,
                    max_removable: int, target_kept: int | None,
                    achieved_deviation: float) -> tuple:
    """The greedy loop through the compiled tier, until it stops or yields.

    For a configuration :func:`native_serves` admits, on the native heap,
    with ``on_violation="stop"`` semantics (one pop per iteration, the first
    violation of ``epsilon`` ends the run).  Iteration by iteration the call
    does what ``CameoCompressor._step`` does — and reproduces it bit for
    bit: the state update goes through the same left-to-right lag sums
    (:mod:`repro._kernels.lagdot`), the ReHeap through the code behind
    :func:`native_reheap` — directly on the tracker's, the neighbour list's
    and the heap's arrays, with the GIL released throughout.

    Returns ``(reason, heap_size, accepted, pops, reheap_updates,
    fresh_key_hits, speculative_hits, scalar_previews,
    achieved_deviation)``, the counters being those of this call.
    ``reason`` is the run's ``stopped_by`` string, or ``None`` when the call
    yields: the top candidate's ReHeap request may exceed one
    ``_MAX_BLOCK_CELLS`` block (judged before the pop from an upper bound
    on its size), nothing of that iteration has happened, and the caller
    runs it — through :func:`native_reheap` or the NumPy chain, whichever
    the exact request admits — before calling again.  A request that is
    malformed (arrays of the wrong shape, a heap or neighbour list that is
    not consistent) raises with nothing written.
    """
    sums = state.sums
    result = _get_native().run_loop(
        state.current, sums.counts, sums.sx, sums.sxl, sums.sx2, sums.sx2l,
        sums.sxxl, reference, metric.kind,
        _MAX_BLOCK_CELLS // state.lags.size,
        *neighbours.pointer_arrays(), *heap.storage(), hops, peek,
        state_version, key_version, spec_version, spec_deviation, epsilon,
        kept, removed_points, max_removable,
        -1 if target_kept is None else target_kept, achieved_deviation)
    heap.resize(result[1])
    neighbours.note_removed(result[2])
    return result
