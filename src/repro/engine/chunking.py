"""Size-aware work chunking for the batch engine.

Naive round-robin assignment makes one million-point series straggle behind
a pile of ten-thousand-point ones: the worker that drew the giant finishes
long after the rest idle out.  :func:`plan_chunks` balances instead by
longest-processing-time (LPT) greedy assignment on the per-series point
counts — series are placed, largest first, into the currently lightest
chunk — with enough chunks per worker that late imbalances can still be
smoothed by work stealing from the task queue.
"""

from __future__ import annotations

import numpy as np

__all__ = ["plan_chunks"]

#: Chunks created per worker: oversubscription lets the executor's task queue
#: absorb per-chunk cost estimation error (point count is a proxy, not a
#: perfect predictor of compression time).
DEFAULT_OVERSUBSCRIBE = 4

#: Soft floor on series per chunk: the stacked XOR encode stacks series
#: *within* a chunk, so oversubscription must not shatter a batch into
#: single-series chunks.  Parallelism still wins the tie — the floor only
#: binds once the batch exceeds ``workers * MIN_SERIES_PER_CHUNK`` series;
#: below that, worker utilisation (up to ``workers``x) beats the
#: ~1.5-3x stacking gain, so small batches may still get chunks too
#: small to stack.
MIN_SERIES_PER_CHUNK = 8


def plan_chunks(sizes, workers: int, *,
                oversubscribe: int = DEFAULT_OVERSUBSCRIBE) -> list[list[int]]:
    """Partition series indices into balanced chunks.

    Parameters
    ----------
    sizes:
        Per-series point counts, in batch input order.
    workers:
        Parallel workers the chunks will be distributed over; ``workers <= 1``
        returns a single chunk (one sequential pass maximizes the
        stacked XOR encode's stacking opportunities).
    oversubscribe:
        Target chunks per worker.

    Returns
    -------
    list of list of int
        Chunks of series indices.  Every index appears exactly once; chunks
        are ordered by descending estimated load (so the heaviest work is
        dispatched first), and indices within a chunk stay in input order
        (deterministic, and keeps same-length runs together for the
        stacked XOR encode).
    """
    sizes = np.asarray(list(sizes), dtype=np.int64)
    count = int(sizes.size)
    if count == 0:
        return []
    if workers <= 1:
        return [list(range(count))]
    workers = max(1, int(workers))
    num_chunks = min(count, workers * max(1, int(oversubscribe)),
                     max(workers, count // MIN_SERIES_PER_CHUNK))
    loads = np.zeros(num_chunks, dtype=np.int64)
    members: list[list[int]] = [[] for _ in range(num_chunks)]
    # Largest first; ties broken by input order (stable argsort) so the plan
    # is deterministic for equal-length batches.
    order = np.argsort(-sizes, kind="stable")
    for index in order.tolist():
        target = int(np.argmin(loads))
        members[target].append(index)
        loads[target] += max(int(sizes[index]), 1)
    chunks = [(int(loads[i]), sorted(members[i])) for i in range(num_chunks)
              if members[i]]
    chunks.sort(key=lambda entry: (-entry[0], entry[1]))
    return [indices for _load, indices in chunks]
