"""Size-aware work chunking."""

from __future__ import annotations

import numpy as np

from repro.engine.chunking import MIN_SERIES_PER_CHUNK, plan_chunks


class TestPlanChunks:
    def test_every_index_exactly_once(self):
        rng = np.random.default_rng(3)
        sizes = rng.integers(10, 10_000, 57).tolist()
        chunks = plan_chunks(sizes, workers=4)
        flat = sorted(index for chunk in chunks for index in chunk)
        assert flat == list(range(len(sizes)))

    def test_serial_gets_one_chunk(self):
        assert plan_chunks([10, 20, 30], workers=1) == [[0, 1, 2]]

    def test_empty(self):
        assert plan_chunks([], workers=4) == []

    def test_deterministic(self):
        sizes = [100, 5, 5, 100, 50, 50, 5, 100] * 4
        assert plan_chunks(sizes, workers=3) == plan_chunks(sizes, workers=3)

    def test_giant_series_does_not_straggle(self):
        # One million-point series among tiny ones: the giant must sit in a
        # chunk whose total load is not (much) more than the giant itself —
        # i.e. the tiny series are spread over the *other* chunks.
        sizes = [1_000_000] + [10_000] * 40
        chunks = plan_chunks(sizes, workers=4)
        loads = [sum(sizes[index] for index in chunk) for chunk in chunks]
        giant_chunk = next(chunk for chunk in chunks if 0 in chunk)
        giant_load = sum(sizes[index] for index in giant_chunk)
        assert giant_load <= 1_000_000 + 10_000
        # The rest of the work is balanced within a factor of ~2.
        rest = sorted(load for chunk, load in zip(chunks, loads)
                      if chunk is not giant_chunk)
        if len(rest) > 1:
            assert rest[-1] <= 2 * rest[0] + 10_000

    def test_heaviest_chunk_first(self):
        sizes = [10, 10, 10, 10_000, 10, 10]
        chunks = plan_chunks(sizes, workers=2)
        loads = [sum(sizes[index] for index in chunk) for chunk in chunks]
        assert loads == sorted(loads, reverse=True)

    def test_small_batches_stay_stackable(self):
        # 12 equal series over 4 workers must not shatter into 12 singleton
        # chunks — the stacked XOR encode stacks within a chunk.
        chunks = plan_chunks([256] * 12, workers=4, oversubscribe=4)
        assert len(chunks) <= max(4, 12 // MIN_SERIES_PER_CHUNK + 4)
        assert max(len(chunk) for chunk in chunks) >= 2
