"""Lag sums of a contiguous change: the ``sxxl`` update of Equation 9.

When the values at ``start .. start+m-1`` move by ``d``, the lagged dot
product ``sxxl`` at lag ``l`` changes by three sums over the changed
positions ``k``:

* head — ``d_k * x[start+k+l]`` (the changed value is the left factor),
* tail — ``d_k * x[start+k-l]`` (it is the right factor),
* cross — ``d_k * d_{k+l}`` (both factors changed),

combined as ``(head + tail) + cross``.

Order of accumulation is the contract
-------------------------------------
Each sum is accumulated **left to right from 0.0**, and a partner outside
the series (or outside the changed range, for the cross term) is a ``0.0``
factor, so a range at a series boundary goes through the same expression
as an interior one.  The greedy compressor turns a last-bit difference in
these sums into a different kept-point set, so the three implementations
— :func:`lagged_dot_deltas` here, the scalar twin
:func:`repro._kernels.reference.reference_lagged_dot_deltas` and the
compiled tier's ``lagged_dot_deltas`` — are held bit-identical.  (The
formulation they replace accumulated through ``np.correlate`` and
``np.dot``, i.e. in whatever order NumPy's small-correlate loop or the
BLAS ``ddot`` kernel picked for this machine use, which no other tier can
model.)

On the NumPy side the order comes from reducing a C-contiguous matrix of
products along axis 0: the ufunc machinery adds row after row into the
output, starting from the additive identity.  That only holds while the
matrix is more than one column wide (a single column collapses to a 1-D
pairwise sum), which three sums per lag guarantee; the native loader
cross-checks it against the running NumPy at import time (``lagdot_check``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["lagged_dot_deltas"]

#: The row-after-row reduction (see the module docstring).
_sum_rows = np.add.reduce


def lagged_dot_deltas(padded: np.ndarray, max_lag: int, start: int,
                      deltas: np.ndarray, padded_deltas: np.ndarray
                      ) -> np.ndarray:
    """Change of ``sxxl`` at lags ``1..max_lag`` for one contiguous change.

    Parameters
    ----------
    padded:
        The series between two margins of ``max_lag`` zeros (C-contiguous
        float64): position ``p`` of the series is ``padded[max_lag + p]``.
    max_lag, start, deltas:
        The range ``start .. start+len(deltas)-1`` moves by ``deltas``
        (non-empty, inside the series).
    padded_deltas:
        Work buffer of at least ``len(deltas) + max_lag`` float64 values.
    """
    m = deltas.size
    width = 2 * max_lag + 1
    itemsize = padded.itemsize
    padded_deltas[:m] = deltas
    padded_deltas[m:m + max_lag] = 0.0
    # windows[k, i] = x[start + k + i - L]: column L - l holds lag l's tail
    # partner, column L + l its head partner (column L, the value itself,
    # rides along unused).
    windows = np.ndarray((m, width), dtype=np.float64, buffer=padded,
                         offset=start * itemsize, strides=(itemsize, itemsize))
    # partners[k, j] = d[k + j + 1]
    partners = np.ndarray((m, max_lag), dtype=np.float64, buffer=padded_deltas,
                          offset=itemsize, strides=(itemsize, itemsize))
    column = deltas[:, np.newaxis]
    products = np.empty((m, width + max_lag), dtype=np.float64)
    np.multiply(windows, column, out=products[:, :width])
    np.multiply(partners, column, out=products[:, width:])
    totals = _sum_rows(products, axis=0)
    head = totals[max_lag + 1:width]
    tail = totals[max_lag - 1::-1]
    return (head + tail) + totals[width:]
