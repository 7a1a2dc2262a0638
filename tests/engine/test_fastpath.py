"""The cross-series fast path: the stacked XOR encode.

It carries a hard identity contract — payloads byte-identical to the
per-series encoders — verified here row by row.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lossless import ChimpCodec, GorillaCodec


class TestStackedXorEncode:
    @pytest.mark.parametrize("codec_cls", [GorillaCodec, ChimpCodec],
                             ids=["gorilla", "chimp"])
    @pytest.mark.parametrize("length", [1, 2, 63, 64, 65, 300])
    def test_batch_byte_identical_to_single(self, codec_cls, length):
        rng = np.random.default_rng(length)
        codec = codec_cls()
        matrix = np.round(rng.normal(100.0, 5.0, (7, length)), 2)
        batch = codec.encode_batch(matrix)
        for row in range(matrix.shape[0]):
            payload, bits, count = codec.encode(matrix[row])
            assert batch[row] == (payload, bits, count)
            assert np.array_equal(codec.decode(*batch[row]), matrix[row])

    def test_constant_and_special_values(self):
        codec = GorillaCodec()
        matrix = np.vstack([
            np.full(50, 3.25),
            np.zeros(50),
            np.round(np.sin(np.arange(50)), 3),
            np.full(50, -0.0),
        ])
        batch = codec.encode_batch(matrix)
        for row in range(matrix.shape[0]):
            assert batch[row] == codec.encode(matrix[row])

    def test_rejects_bad_shapes(self):
        from repro.exceptions import CodecError

        with pytest.raises(CodecError):
            GorillaCodec().encode_batch(np.zeros(5))
        with pytest.raises(CodecError):
            ChimpCodec().encode_batch(np.zeros((2, 0)))
