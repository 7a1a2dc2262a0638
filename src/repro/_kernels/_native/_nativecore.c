/* Compiled kernel tier for the CAMEO hot path.
 *
 * Implements, in portable C99:
 *
 *   - ``run_loop``: the compressor's greedy loop as one call on the
 *     caller's arrays, the GIL released throughout — per iteration the
 *     pop, the candidate's deviation (fresh heap key, speculative cache or
 *     a preview of the aggregates), the error-bound test, the state update
 *     of Equations 8-9, the unlink and the ``reheap`` step below — until
 *     the compression stops or an iteration has to run in Python;
 *   - ``reheap``: the compressor's whole ReHeap step as one call — removed
 *     index in, heap updated out.  Chases the blocking neighbourhood over
 *     the neighbour list's pointers, peeks the speculative items, runs the
 *     ``segment_impacts`` evaluation below on the combined request, re-keys
 *     the heap in place (sequential sifts, or a stable-sort rebuild that
 *     reproduces ``np.argsort(kind="stable")``) and stamps the speculation
 *     arrays;
 *   - ``segment_impacts``: the whole ReHeap evaluation as one call — gaps
 *     in, impacts out.  Per gap: the re-interpolation deltas, the ACF row
 *     of the changed segment (boundary-clipped head/tail lag ranges and
 *     the pairable-lag cross terms included) and its deviation from the
 *     reference, parallelised over the segment axis with OpenMP when
 *     available, with no ``(T, L)`` or ``(k, L)`` temporaries;
 *   - the indexed-min-heap primitives (sift, push, pop, remove, update,
 *     bulk push/update, destructive multi-pop, non-destructive frontier
 *     peek) operating on flat float64/int64 arrays owned by the caller;
 *   - ``gap_deltas``: the per-gap linear re-interpolation deltas of the
 *     greedy pop step;
 *   - the storage layer's byte loops: ``crc32c`` (table-driven, any
 *     buffer) and ``xor_encode`` / ``xor_decode``, the Gorilla and Chimp
 *     bit streams over one MSB-first bit reader/writer.
 *
 * Bit-identity contract: every function reproduces the NumPy formulation
 * of the same computation *bit for bit*.  Three ingredients make that
 * possible:
 *
 *   1. Segment reductions replicate ``np.add.reduceat``'s accumulation
 *      order exactly: the segment's first element plus NumPy's scalar
 *      pairwise summation of the rest (sequential below 8 elements, an
 *      8-accumulator unrolled block up to 128, and a recursive split at a
 *      multiple-of-8 midpoint above that).  The loader cross-checks this
 *      model against the running NumPy at import time and refuses the
 *      native tier on mismatch (e.g. a NumPy built with a SIMD pairwise
 *      path for strides this file does not model).  Row means replicate
 *      ``np.mean(axis=1)``: the same pairwise sum, without the seed.
 *   2. The build disables floating-point contraction (``-ffp-contract=off``
 *      and the ``FP_CONTRACT OFF`` pragma): a fused multiply-add would
 *      round differently from NumPy's separate multiply and add.  The
 *      loader probes for contraction at import time as well.
 *   3. The lag sums of the state update are *defined* as left-to-right
 *      sums of products (repro/_kernels/lagdot.py): plain loops here, an
 *      axis-0 ``np.add.reduce`` on the NumPy side, cross-checked against
 *      each other at import time.
 *
 * Everything else (multiply, divide, sqrt, compares) is IEEE-754-exact and
 * therefore matches NumPy's elementwise ufuncs operand for operand; the
 * heap rebuild sorts under NumPy's key comparison with ties broken by
 * slot, a total order whose result no sorting algorithm can change (also
 * cross-checked at import time).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>

#include <math.h>
#include <stdlib.h>
#include <string.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#ifdef __STDC_VERSION__
#if __STDC_VERSION__ >= 199901L
#pragma STDC FP_CONTRACT OFF
#endif
#endif

/* ------------------------------------------------------------------ */
/* argument validation helpers                                         */
/* ------------------------------------------------------------------ */

static int
check_1d(PyArrayObject *arr, int typenum, const char *name, const char *tyname)
{
    if (PyArray_TYPE(arr) != typenum || PyArray_NDIM(arr) != 1
            || !PyArray_IS_C_CONTIGUOUS(arr)) {
        PyErr_Format(PyExc_ValueError,
                     "%s must be a C-contiguous 1-D %s array", name, tyname);
        return 0;
    }
    return 1;
}

#define CHECK_F64(arr, name) check_1d((arr), NPY_FLOAT64, (name), "float64")
#define CHECK_I64(arr, name) check_1d((arr), NPY_INT64, (name), "int64")

/* ------------------------------------------------------------------ */
/* np.add.reduceat accumulation model                                  */
/* ------------------------------------------------------------------ */

/* NumPy's scalar pairwise summation (numpy/_core/src/umath/loops.c.src,
 * ``pairwise_sum_DOUBLE``), transcribed for unit stride.  The 8
 * partial-sum chains are kept in distinct variables and combined in the
 * exact association order NumPy uses; without -ffast-math the compiler
 * may not reassociate them. */
static double
pairwise_sum(const double *a, npy_intp n)
{
    npy_intp i;

    if (n < 8) {
        double res = 0.0;
        for (i = 0; i < n; i++) {
            res += a[i];
        }
        return res;
    }
    if (n <= 128) {
        double res;
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        double r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        for (i = 8; i < n - (n % 8); i += 8) {
            r0 += a[i + 0];
            r1 += a[i + 1];
            r2 += a[i + 2];
            r3 += a[i + 3];
            r4 += a[i + 4];
            r5 += a[i + 5];
            r6 += a[i + 6];
            r7 += a[i + 7];
        }
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++) {
            res += a[i];
        }
        return res;
    }
    {
        /* divide by two but avoid non-multiples of unroll factor */
        npy_intp n2 = n / 2;
        n2 -= n2 % 8;
        return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
    }
}

/* One ``np.add.reduceat`` segment: the reduction is seeded with the
 * segment's first element, then the pairwise sum of the remainder is
 * added. */
static double
reduceat_sum(const double *a, npy_intp n)
{
    if (n <= 0) {
        return 0.0;
    }
    return a[0] + pairwise_sum(a + 1, n - 1);
}

/* ------------------------------------------------------------------ */
/* fused ReHeap kernel: gaps in, impacts out                           */
/* ------------------------------------------------------------------ */

enum { METRIC_MAE, METRIC_CHEB, METRIC_MSE, METRIC_RMSE };

/* Everything one ReHeap evaluation shares across its segments. */
typedef struct {
    const double *current;
    npy_intp n;
    const double *counts, *sx, *sxl, *sx2, *sx2l, *sxxl;
    const double *reference;
    npy_intp num_lags;
    int metric;
    /* cross-term path selection, decided for the whole request exactly as
     * _segment_cross_terms does from the longest segment */
    int has_cross;
    npy_intp num_cross_lags;
    int use_bincount;
} reheap_ctx;

/* One segment of ``np.add.reduceat(values * mask, offsets, axis=0)`` for a
 * boolean mask that is true exactly on ``[lo, hi)``.  The masked slots
 * stay in the buffer as ``x * 0.0`` because dropping them would change
 * the pairwise blocking of the sum; ``x * 1.0 == x`` makes the all-true
 * case the plain segment sum. */
static double
masked_reduceat_sum(const double *values, npy_intp len, npy_intp lo,
                    npy_intp hi, double *buf)
{
    npy_intp t;

    if (lo == 0 && hi == len) {
        return reduceat_sum(values, len);
    }
    for (t = 0; t < lo; t++) {
        buf[t] = values[t] * 0.0;
    }
    for (; t < hi; t++) {
        buf[t] = values[t];
    }
    for (; t < len; t++) {
        buf[t] = values[t] * 0.0;
    }
    return reduceat_sum(buf, len);
}

/* ACF row after changing positions ``start .. start+len-1`` by ``d`` —
 * the masked NumPy kernel (_edge_acf_block) one segment at a time.  Its
 * head mask (pos + lag <= n-1) is true on a prefix of the segment and its
 * tail mask (pos - lag >= 0) on a suffix, so interior segments, whose
 * masks are all-true, fall out of the same code. */
static void
segment_row(const reheap_ctx *c, npy_intp start, npy_intp len,
            const double *d, const double *energy, double *buf, double *row)
{
    const double *current = c->current;
    const double d_seg = reduceat_sum(d, len);
    const double e_seg = reduceat_sum(energy, len);
    npy_intp t, j;

    for (j = 0; j < c->num_lags; j++) {
        const npy_intp lag = j + 1;
        npy_intp head_count = c->n - lag - start;
        npy_intp tail_start = lag - start;
        double d_sx, d_sxl, d_sx2, d_sx2l, d_head, d_tail;
        double new_sx, new_sxl, new_sx2, new_sx2l, new_sxxl;
        double numerator, var_head, var_tail;

        head_count = head_count < 0 ? 0 : head_count > len ? len : head_count;
        tail_start = tail_start < 0 ? 0 : tail_start > len ? len : tail_start;

        if (head_count == len) {
            d_sx = d_seg;
            d_sx2 = e_seg;
        }
        else {
            d_sx = masked_reduceat_sum(d, len, 0, head_count, buf);
            d_sx2 = masked_reduceat_sum(energy, len, 0, head_count, buf);
        }
        if (tail_start == 0) {
            d_sxl = d_seg;
            d_sx2l = e_seg;
        }
        else {
            d_sxl = masked_reduceat_sum(d, len, tail_start, len, buf);
            d_sx2l = masked_reduceat_sum(energy, len, tail_start, len, buf);
        }

        /* masked slots gather the clipped index, as np.take does */
        for (t = 0; t < head_count; t++) {
            buf[t] = d[t] * current[start + t + lag];
        }
        for (; t < len; t++) {
            buf[t] = (d[t] * current[c->n - 1]) * 0.0;
        }
        d_head = reduceat_sum(buf, len);
        for (t = 0; t < tail_start; t++) {
            buf[t] = (d[t] * current[0]) * 0.0;
        }
        for (; t < len; t++) {
            buf[t] = d[t] * current[start + t - lag];
        }
        d_tail = reduceat_sum(buf, len);

        new_sx = c->sx[j] + d_sx;
        new_sxl = c->sxl[j] + d_sxl;
        new_sx2 = c->sx2[j] + d_sx2;
        new_sx2l = c->sx2l[j] + d_sx2l;
        /* same association order as the NumPy kernel */
        new_sxxl = (c->sxxl[j] + d_head) + d_tail;

        if (c->has_cross) {
            double cross = 0.0;
            if (j < c->num_cross_lags) {
                if (c->use_bincount) {
                    /* np.bincount accumulates sequentially in increasing
                     * index order, starting from zero. */
                    for (t = lag; t < len; t++) {
                        cross += d[t] * d[t - lag];
                    }
                }
                else {
                    /* Partner-matrix path: products with the partner
                     * ``lag`` slots on, masked where it leaves the
                     * segment, reduced with the reduceat model.  NumPy
                     * clips the partner at the end of the concatenation
                     * rather than of the segment; either way the slot is
                     * a zero whose sign cannot reach the sum's value. */
                    for (t = 0; t + lag < len; t++) {
                        buf[t] = d[t] * d[t + lag];
                    }
                    for (; t < len; t++) {
                        buf[t] = (d[t] * d[len - 1]) * 0.0;
                    }
                    cross = reduceat_sum(buf, len);
                }
            }
            new_sxxl = new_sxxl + cross;
        }

        numerator = c->counts[j] * new_sxxl - new_sx * new_sxl;
        var_head = c->counts[j] * new_sx2 - new_sx * new_sx;
        var_tail = c->counts[j] * new_sx2l - new_sxl * new_sxl;
        if (var_head > 0.0 && var_tail > 0.0) {
            row[j] = numerator / sqrt(var_head * var_tail);
        }
        else {
            row[j] = 0.0;
        }
    }
}

/* ``ACFAggregateState._acf_from`` over explicit aggregate vectors. */
static void
sums_row(const double *counts, const double *sx, const double *sxl,
         const double *sx2, const double *sx2l, const double *sxxl,
         npy_intp num_lags, double *row)
{
    npy_intp j;

    for (j = 0; j < num_lags; j++) {
        const double numerator = counts[j] * sxxl[j] - sx[j] * sxl[j];
        const double var_head = counts[j] * sx2[j] - sx[j] * sx[j];
        const double var_tail = counts[j] * sx2l[j] - sxl[j] * sxl[j];
        row[j] = 0.0;
        if (var_head > 0.0 && var_tail > 0.0) {
            const double denom = sqrt(var_head * var_tail);
            if (denom != 0.0) {
                row[j] = numerator / denom;
            }
        }
    }
}

/* ACF of the unchanged state: the row of a zero-length segment. */
static void
current_row(const reheap_ctx *c, double *row)
{
    sums_row(c->counts, c->sx, c->sxl, c->sx2, c->sx2l, c->sxxl,
             c->num_lags, row);
}

/* ``ResolvedMetric.rowwise`` for one row (overwritten as workspace).
 * ``np.mean(..., axis=1)`` of a C-contiguous matrix is the plain pairwise
 * sum of the row — no first-element seed, unlike reduceat — over its
 * length; ``np.max`` is ``np.maximum.reduce`` (NaN-propagating). */
static double
row_deviation(int metric, const double *reference, npy_intp num_lags,
              double *row)
{
    npy_intp j;
    double result;

    if (metric == METRIC_CHEB) {
        result = fabs(row[0] - reference[0]);
        for (j = 1; j < num_lags; j++) {
            const double value = fabs(row[j] - reference[j]);
            if (!(result >= value || result != result)) {
                result = value;
            }
        }
        return result;
    }
    for (j = 0; j < num_lags; j++) {
        const double diff = row[j] - reference[j];
        row[j] = metric == METRIC_MAE ? fabs(diff) : diff * diff;
    }
    result = pairwise_sum(row, num_lags) / (double)num_lags;
    return metric == METRIC_RMSE ? sqrt(result) : result;
}

static int
parse_metric(const char *name, int *metric)
{
    static const char *const names[] = {"mae", "cheb", "mse", "rmse"};
    int code;

    for (code = 0; code < 4; code++) {
        if (strcmp(name, names[code]) == 0) {
            *metric = code;
            return 1;
        }
    }
    PyErr_Format(PyExc_ValueError, "unknown closed-form metric '%s'", name);
    return 0;
}

/* Validate the eight tracker arrays every ReHeap request carries and
 * point ``ctx`` at them (the cross-term path is chosen later, from the
 * request's longest gap).  Returns 0 and sets an exception on failure. */
static int
ctx_from_objects(PyArrayObject *current, PyArrayObject *counts,
                 PyArrayObject *sx, PyArrayObject *sxl, PyArrayObject *sx2,
                 PyArrayObject *sx2l, PyArrayObject *sxxl,
                 PyArrayObject *reference, const char *metric_name,
                 reheap_ctx *ctx)
{
    if (!CHECK_F64(current, "current") || !CHECK_F64(counts, "counts")
            || !CHECK_F64(sx, "sx") || !CHECK_F64(sxl, "sxl")
            || !CHECK_F64(sx2, "sx2") || !CHECK_F64(sx2l, "sx2l")
            || !CHECK_F64(sxxl, "sxxl") || !CHECK_F64(reference, "reference")
            || !parse_metric(metric_name, &ctx->metric)) {
        return 0;
    }
    ctx->n = PyArray_DIM(current, 0);
    ctx->num_lags = PyArray_DIM(counts, 0);
    if (ctx->num_lags < 1 || PyArray_DIM(sx, 0) != ctx->num_lags
            || PyArray_DIM(sxl, 0) != ctx->num_lags
            || PyArray_DIM(sx2, 0) != ctx->num_lags
            || PyArray_DIM(sx2l, 0) != ctx->num_lags
            || PyArray_DIM(sxxl, 0) != ctx->num_lags
            || PyArray_DIM(reference, 0) != ctx->num_lags) {
        PyErr_SetString(PyExc_ValueError,
                        "inconsistent tracker array shapes");
        return 0;
    }
    ctx->current = (const double *)PyArray_DATA(current);
    ctx->counts = (const double *)PyArray_DATA(counts);
    ctx->sx = (const double *)PyArray_DATA(sx);
    ctx->sxl = (const double *)PyArray_DATA(sxl);
    ctx->sx2 = (const double *)PyArray_DATA(sx2);
    ctx->sx2l = (const double *)PyArray_DATA(sx2l);
    ctx->sxxl = (const double *)PyArray_DATA(sxxl);
    ctx->reference = (const double *)PyArray_DATA(reference);
    return 1;
}

/* Validate a request's gap anchors and measure it: ``total`` changed
 * positions, the longest gap ``max_len``.  Returns 0 on an anchor outside
 * the series (no Python object is touched: the caller raises). */
static int
scan_gaps(npy_intp n, const npy_int64 *lefts, const npy_int64 *rights,
          npy_intp num_gaps, npy_intp *total, npy_intp *max_len)
{
    npy_intp s;

    *total = 0;
    *max_len = 0;
    for (s = 0; s < num_gaps; s++) {
        const npy_int64 left = lefts[s], right = rights[s];
        npy_intp len;
        /* [-1, n] admits a neighbour list's end sentinels on gaps that
         * hold no point, and keeps the subtraction from overflowing; a
         * gap that holds points needs both anchors inside the series */
        if (left < -1 || left > n || right < -1 || right > n
                || (right - left > 1 && (left < 0 || right >= n))) {
            return 0;
        }
        len = (npy_intp)(right - left - 1);
        if (len <= 0) {
            continue;
        }
        *total += len;
        if (len > *max_len) {
            *max_len = len;
        }
    }
    return 1;
}

/* A request whose positions exceed the cell budget is one that
 * batched_contiguous_acf splits into blocks, each with its own cross-term
 * path choice; there is no block splitter here. */
static int
over_one_block(npy_intp total, npy_intp max_len, npy_intp cell_budget)
{
    return total > (cell_budget > max_len ? cell_budget : max_len);
}

/* Per thread: deltas, energies and a product buffer of the longest
 * segment, plus one ACF row. */
static double *
alloc_gap_scratch(npy_intp max_len, npy_intp num_lags)
{
    int nthreads = 1;
#ifdef _OPENMP
    nthreads = omp_get_max_threads();
#endif
    return (double *)malloc((size_t)nthreads
                            * (size_t)(3 * max_len + num_lags)
                            * sizeof(double));
}

/* Impacts of a scanned request (no Python object is touched: callable
 * with the GIL released). */
static void
evaluate_gaps(reheap_ctx *c, const npy_int64 *lefts, const npy_int64 *rights,
              npy_intp num_gaps, npy_intp total, npy_intp max_len,
              double *scratch, double *out)
{
    const npy_intp stride = 3 * max_len + c->num_lags;
    double current_deviation;
    npy_intp s;

    c->has_cross = max_len > 1;
    c->num_cross_lags = max_len - 1 < c->num_lags ? max_len - 1 : c->num_lags;
    c->use_bincount = c->num_cross_lags <= 8;

    /* zero-length gaps change nothing: they get the current deviation */
    current_row(c, scratch);
    current_deviation = row_deviation(c->metric, c->reference, c->num_lags,
                                      scratch);
#ifdef _OPENMP
#pragma omp parallel for schedule(static) \
    if (num_gaps > 1 && total * c->num_lags > 16384)
#endif
    for (s = 0; s < num_gaps; s++) {
        const npy_intp left = (npy_intp)lefts[s];
        const npy_intp len = (npy_intp)(rights[s] - lefts[s] - 1);
        int tid = 0;
        double *d, *energy, *buf, *row;
        double span, cl, cr;
        npy_intp t;

        if (len <= 0) {
            out[s] = current_deviation;
            continue;
        }
#ifdef _OPENMP
        tid = omp_get_thread_num();
#endif
        d = scratch + (npy_intp)tid * stride;
        energy = d + max_len;
        buf = energy + max_len;
        row = buf + max_len;
        /* segment_interpolation_deltas_batched, one gap */
        span = (double)(len + 1);
        cl = c->current[left];
        cr = c->current[left + len + 1];
        for (t = 0; t < len; t++) {
            const double w = (double)(t + 1) / span;
            const double old = c->current[left + 1 + t];
            d[t] = (cl * (1.0 - w) + cr * w) - old;
            /* energy = delta * (2*old + delta) */
            energy[t] = d[t] * (2.0 * old + d[t]);
        }
        segment_row(c, left + 1, len, d, energy, buf, row);
        out[s] = row_deviation(c->metric, c->reference, c->num_lags, row);
    }
}

/* segment_impacts(current, counts, sx, sxl, sx2, sx2l, sxxl, reference,
 *                 lefts, rights, metric, cell_budget) -> impacts | None
 *
 * Gap ``s`` re-interpolates the points strictly inside
 * ``(lefts[s], rights[s])`` on the line between its two anchors; the
 * result is the deviation of the ACF each gap alone would produce from
 * ``reference``.  Returns ``None`` when the request is over one block, so
 * the caller can take the NumPy path instead. */
static PyObject *
py_segment_impacts(PyObject *self, PyObject *args)
{
    PyArrayObject *current, *counts, *sx, *sxl, *sx2, *sx2l, *sxxl;
    PyArrayObject *reference, *lefts, *rights;
    const char *metric_name;
    Py_ssize_t cell_budget;
    reheap_ctx ctx;
    const npy_int64 *lefts_p, *rights_p;
    npy_intp num_gaps, total, max_len;
    npy_intp dims[1];
    PyObject *out;
    double *out_p, *scratch;

    if (!PyArg_ParseTuple(args, "O!O!O!O!O!O!O!O!O!O!sn",
                          &PyArray_Type, &current, &PyArray_Type, &counts,
                          &PyArray_Type, &sx, &PyArray_Type, &sxl,
                          &PyArray_Type, &sx2, &PyArray_Type, &sx2l,
                          &PyArray_Type, &sxxl, &PyArray_Type, &reference,
                          &PyArray_Type, &lefts, &PyArray_Type, &rights,
                          &metric_name, &cell_budget)) {
        return NULL;
    }
    if (!ctx_from_objects(current, counts, sx, sxl, sx2, sx2l, sxxl,
                          reference, metric_name, &ctx)
            || !CHECK_I64(lefts, "lefts") || !CHECK_I64(rights, "rights")) {
        return NULL;
    }
    num_gaps = PyArray_DIM(lefts, 0);
    if (PyArray_DIM(rights, 0) != num_gaps) {
        PyErr_SetString(PyExc_ValueError,
                        "lefts and rights must have one length");
        return NULL;
    }
    lefts_p = (const npy_int64 *)PyArray_DATA(lefts);
    rights_p = (const npy_int64 *)PyArray_DATA(rights);
    if (!scan_gaps(ctx.n, lefts_p, rights_p, num_gaps, &total, &max_len)) {
        PyErr_SetString(PyExc_ValueError, "gap anchors out of range");
        return NULL;
    }
    if (over_one_block(total, max_len, (npy_intp)cell_budget)) {
        Py_RETURN_NONE;
    }

    dims[0] = num_gaps;
    out = PyArray_SimpleNew(1, dims, NPY_FLOAT64);
    if (out == NULL) {
        return NULL;
    }
    out_p = (double *)PyArray_DATA((PyArrayObject *)out);
    scratch = alloc_gap_scratch(max_len, ctx.num_lags);
    if (scratch == NULL) {
        Py_DECREF(out);
        return PyErr_NoMemory();
    }

    Py_BEGIN_ALLOW_THREADS
    evaluate_gaps(&ctx, lefts_p, rights_p, num_gaps, total, max_len, scratch,
                  out_p);
    Py_END_ALLOW_THREADS

    free(scratch);
    return out;
}

/* ------------------------------------------------------------------ */
/* gap re-interpolation deltas                                         */
/* ------------------------------------------------------------------ */

/* ``segment_interpolation_deltas``: new minus current for the points
 * strictly inside ``(left, right)``, put on the line between the anchors. */
static void
fill_gap_deltas(const double *current, npy_intp left, npy_intp right,
                double *out)
{
    const double span = (double)(right - left);
    const double cl = current[left], cr = current[right];
    npy_intp i;

    for (i = 0; i < right - left - 1; i++) {
        const double w = (double)(i + 1) / span;
        out[i] = (cl * (1.0 - w) + cr * w) - current[left + 1 + i];
    }
}

static PyObject *
py_gap_deltas(PyObject *self, PyObject *args)
{
    PyArrayObject *current;
    long left_arg, right_arg;
    npy_intp left, right, n;
    npy_intp dims[1];
    PyObject *out;

    if (!PyArg_ParseTuple(args, "O!ll", &PyArray_Type, &current,
                          &left_arg, &right_arg)) {
        return NULL;
    }
    if (!CHECK_F64(current, "current")) {
        return NULL;
    }
    left = (npy_intp)left_arg;
    right = (npy_intp)right_arg;
    n = PyArray_DIM(current, 0);
    if (left < 0 || right >= n || right - left < 2) {
        PyErr_SetString(PyExc_ValueError, "invalid gap bounds");
        return NULL;
    }
    dims[0] = right - left - 1;
    out = PyArray_SimpleNew(1, dims, NPY_FLOAT64);
    if (out == NULL) {
        return NULL;
    }
    fill_gap_deltas((const double *)PyArray_DATA(current), left, right,
                    (double *)PyArray_DATA((PyArrayObject *)out));
    return out;
}

/* ------------------------------------------------------------------ */
/* indexed min-heap on flat arrays                                     */
/* ------------------------------------------------------------------ */

#define HEAP_ABSENT (-1)

typedef struct {
    double *keys;
    npy_int64 *items;
    npy_int64 *slot_of;
    npy_intp capacity;
} heap_t;

/* Parse and validate the three storage arrays shared by every heap
 * function.  Returns 0 and sets an exception on failure. */
static int
heap_from_objects(PyArrayObject *keys, PyArrayObject *items,
                  PyArrayObject *slot_of, heap_t *heap)
{
    if (!CHECK_F64(keys, "keys") || !CHECK_I64(items, "items")
            || !CHECK_I64(slot_of, "slot_of")) {
        return 0;
    }
    if (PyArray_DIM(keys, 0) != PyArray_DIM(items, 0)
            || PyArray_DIM(keys, 0) != PyArray_DIM(slot_of, 0)) {
        PyErr_SetString(PyExc_ValueError,
                        "heap storage arrays must share one capacity");
        return 0;
    }
    heap->keys = (double *)PyArray_DATA(keys);
    heap->items = (npy_int64 *)PyArray_DATA(items);
    heap->slot_of = (npy_int64 *)PyArray_DATA(slot_of);
    heap->capacity = PyArray_DIM(keys, 0);
    return 1;
}

static void
heap_swap(heap_t *h, npy_intp a, npy_intp b)
{
    const double key = h->keys[a];
    const npy_int64 item = h->items[a];
    h->keys[a] = h->keys[b];
    h->items[a] = h->items[b];
    h->keys[b] = key;
    h->items[b] = item;
    h->slot_of[h->items[a]] = a;
    h->slot_of[h->items[b]] = b;
}

static void
heap_sift_up(heap_t *h, npy_intp slot)
{
    while (slot > 0) {
        const npy_intp parent = (slot - 1) / 2;
        if (h->keys[slot] < h->keys[parent]) {
            heap_swap(h, slot, parent);
            slot = parent;
        }
        else {
            break;
        }
    }
}

static void
heap_sift_down(heap_t *h, npy_intp size, npy_intp slot)
{
    for (;;) {
        const npy_intp left = 2 * slot + 1;
        const npy_intp right = left + 1;
        npy_intp smallest = slot;
        if (left < size && h->keys[left] < h->keys[smallest]) {
            smallest = left;
        }
        if (right < size && h->keys[right] < h->keys[smallest]) {
            smallest = right;
        }
        if (smallest == slot) {
            return;
        }
        heap_swap(h, slot, smallest);
        slot = smallest;
    }
}

/* Mirror of IndexedMinHeap._remove_slot; returns the new size. */
static npy_intp
heap_remove_slot(heap_t *h, npy_intp size, npy_intp slot)
{
    const npy_intp last = size - 1;
    h->slot_of[h->items[slot]] = HEAP_ABSENT;
    if (slot != last) {
        h->items[slot] = h->items[last];
        h->keys[slot] = h->keys[last];
        h->slot_of[h->items[slot]] = slot;
    }
    if (slot < last) {
        /* the moved entry may need to travel either direction */
        heap_sift_down(h, last, slot);
        heap_sift_up(h, slot);
    }
    return last;
}

static npy_intp
heap_do_push(heap_t *h, npy_intp size, npy_int64 item, double key)
{
    h->items[size] = item;
    h->keys[size] = key;
    h->slot_of[item] = size;
    heap_sift_up(h, size);
    return size + 1;
}

static PyObject *
py_heap_heapify(PyObject *self, PyObject *args)
{
    PyArrayObject *keys, *items, *slot_of;
    Py_ssize_t size;
    heap_t h;
    npy_intp slot;

    if (!PyArg_ParseTuple(args, "O!O!O!n", &PyArray_Type, &keys,
                          &PyArray_Type, &items, &PyArray_Type, &slot_of,
                          &size)) {
        return NULL;
    }
    if (!heap_from_objects(keys, items, slot_of, &h)) {
        return NULL;
    }
    for (slot = (npy_intp)size / 2 - 1; slot >= 0; slot--) {
        heap_sift_down(&h, (npy_intp)size, slot);
    }
    Py_RETURN_NONE;
}

static PyObject *
py_heap_push(PyObject *self, PyObject *args)
{
    PyArrayObject *keys, *items, *slot_of;
    Py_ssize_t size;
    long long item;
    double key;
    heap_t h;

    if (!PyArg_ParseTuple(args, "O!O!O!nLd", &PyArray_Type, &keys,
                          &PyArray_Type, &items, &PyArray_Type, &slot_of,
                          &size, &item, &key)) {
        return NULL;
    }
    if (!heap_from_objects(keys, items, slot_of, &h)) {
        return NULL;
    }
    if (item < 0 || item >= h.capacity) {
        PyErr_Format(PyExc_ValueError, "item %lld out of range [0, %ld)",
                     item, (long)h.capacity);
        return NULL;
    }
    if (h.slot_of[item] != HEAP_ABSENT) {
        PyErr_Format(PyExc_ValueError,
                     "item %lld is already in the heap; use update()", item);
        return NULL;
    }
    return PyLong_FromSsize_t(
        (Py_ssize_t)heap_do_push(&h, (npy_intp)size, (npy_int64)item, key));
}

static PyObject *
py_heap_pop(PyObject *self, PyObject *args)
{
    PyArrayObject *keys, *items, *slot_of;
    Py_ssize_t size;
    heap_t h;
    npy_int64 item;
    double key;
    npy_intp new_size;

    if (!PyArg_ParseTuple(args, "O!O!O!n", &PyArray_Type, &keys,
                          &PyArray_Type, &items, &PyArray_Type, &slot_of,
                          &size)) {
        return NULL;
    }
    if (!heap_from_objects(keys, items, slot_of, &h)) {
        return NULL;
    }
    if (size <= 0) {
        PyErr_SetString(PyExc_IndexError, "pop from an empty heap");
        return NULL;
    }
    item = h.items[0];
    key = h.keys[0];
    new_size = heap_remove_slot(&h, (npy_intp)size, 0);
    return Py_BuildValue("Ldn", (long long)item, key, (Py_ssize_t)new_size);
}

static PyObject *
py_heap_pop_many(PyObject *self, PyObject *args)
{
    PyArrayObject *keys, *items, *slot_of, *out_items, *out_keys;
    Py_ssize_t size, k;
    heap_t h;
    npy_intp cur, i, take;
    npy_int64 *oi;
    double *ok;

    if (!PyArg_ParseTuple(args, "O!O!O!nnO!O!", &PyArray_Type, &keys,
                          &PyArray_Type, &items, &PyArray_Type, &slot_of,
                          &size, &k, &PyArray_Type, &out_items,
                          &PyArray_Type, &out_keys)) {
        return NULL;
    }
    if (!heap_from_objects(keys, items, slot_of, &h)
            || !CHECK_I64(out_items, "out_items")
            || !CHECK_F64(out_keys, "out_keys")) {
        return NULL;
    }
    take = (npy_intp)(k < size ? k : size);
    if (PyArray_DIM(out_items, 0) < take || PyArray_DIM(out_keys, 0) < take) {
        PyErr_SetString(PyExc_ValueError, "pop_many output arrays too small");
        return NULL;
    }
    oi = (npy_int64 *)PyArray_DATA(out_items);
    ok = (double *)PyArray_DATA(out_keys);
    cur = (npy_intp)size;
    for (i = 0; i < take; i++) {
        oi[i] = h.items[0];
        ok[i] = h.keys[0];
        cur = heap_remove_slot(&h, cur, 0);
    }
    return PyLong_FromSsize_t((Py_ssize_t)cur);
}

/* Non-destructive frontier walk.  The frontier is a little (key, slot)
 * min-heap ordered lexicographically — the same order heapq gives the
 * (key, slot) tuples in the Python implementation.  Each extraction
 * removes the unique minimum, so the produced sequence is identical. */
typedef struct {
    double key;
    npy_intp slot;
} frontier_entry;

static int
frontier_less(const frontier_entry *a, const frontier_entry *b)
{
    if (a->key != b->key) {
        return a->key < b->key;
    }
    return a->slot < b->slot;
}

static void
frontier_push(frontier_entry *f, npy_intp *count, double key, npy_intp slot)
{
    npy_intp i = (*count)++;
    f[i].key = key;
    f[i].slot = slot;
    while (i > 0) {
        const npy_intp parent = (i - 1) / 2;
        if (frontier_less(&f[i], &f[parent])) {
            const frontier_entry tmp = f[i];
            f[i] = f[parent];
            f[parent] = tmp;
            i = parent;
        }
        else {
            break;
        }
    }
}

static frontier_entry
frontier_pop(frontier_entry *f, npy_intp *count)
{
    const frontier_entry result = f[0];
    npy_intp size = --(*count);
    npy_intp i = 0;
    f[0] = f[size];
    for (;;) {
        const npy_intp left = 2 * i + 1;
        const npy_intp right = left + 1;
        npy_intp smallest = i;
        if (left < size && frontier_less(&f[left], &f[smallest])) {
            smallest = left;
        }
        if (right < size && frontier_less(&f[right], &f[smallest])) {
            smallest = right;
        }
        if (smallest == i) {
            break;
        }
        {
            const frontier_entry tmp = f[i];
            f[i] = f[smallest];
            f[smallest] = tmp;
            i = smallest;
        }
    }
    return result;
}

/* The ``take`` cheapest entries of a non-empty heap in pop order
 * (``take <= size``); ``frontier`` holds ``2 * take + 2`` entries. */
static void
heap_peek_many(const double *keys, const npy_int64 *items, npy_intp size,
               npy_intp take, frontier_entry *frontier, npy_int64 *out_items,
               double *out_keys)
{
    npy_intp count = 0, index;

    frontier_push(frontier, &count, keys[0], 0);
    for (index = 0; index < take; index++) {
        const frontier_entry top = frontier_pop(frontier, &count);
        const npy_intp left = 2 * top.slot + 1;
        out_items[index] = items[top.slot];
        out_keys[index] = top.key;
        if (left < size) {
            frontier_push(frontier, &count, keys[left], left);
            if (left + 1 < size) {
                frontier_push(frontier, &count, keys[left + 1], left + 1);
            }
        }
    }
}

static PyObject *
py_heap_peek_many(PyObject *self, PyObject *args)
{
    PyArrayObject *keys, *items, *out_items, *out_keys;
    Py_ssize_t size, k;
    npy_intp take;
    frontier_entry *frontier;

    if (!PyArg_ParseTuple(args, "O!O!nnO!O!", &PyArray_Type, &keys,
                          &PyArray_Type, &items, &size, &k,
                          &PyArray_Type, &out_items,
                          &PyArray_Type, &out_keys)) {
        return NULL;
    }
    if (!CHECK_F64(keys, "keys") || !CHECK_I64(items, "items")
            || !CHECK_I64(out_items, "out_items")
            || !CHECK_F64(out_keys, "out_keys")) {
        return NULL;
    }
    take = (npy_intp)(k < size ? k : size);
    if (take <= 0) {
        return PyLong_FromSsize_t(0);
    }
    if (PyArray_DIM(out_items, 0) < take || PyArray_DIM(out_keys, 0) < take) {
        PyErr_SetString(PyExc_ValueError, "peek_many output arrays too small");
        return NULL;
    }
    frontier = (frontier_entry *)malloc((size_t)(2 * take + 2)
                                        * sizeof(frontier_entry));
    if (frontier == NULL) {
        return PyErr_NoMemory();
    }
    heap_peek_many((const double *)PyArray_DATA(keys),
                   (const npy_int64 *)PyArray_DATA(items), (npy_intp)size,
                   take, frontier, (npy_int64 *)PyArray_DATA(out_items),
                   (double *)PyArray_DATA(out_keys));
    free(frontier);
    return PyLong_FromSsize_t((Py_ssize_t)take);
}

static PyObject *
py_heap_remove(PyObject *self, PyObject *args)
{
    PyArrayObject *keys, *items, *slot_of;
    Py_ssize_t size;
    long long item;
    heap_t h;
    npy_int64 slot;

    if (!PyArg_ParseTuple(args, "O!O!O!nL", &PyArray_Type, &keys,
                          &PyArray_Type, &items, &PyArray_Type, &slot_of,
                          &size, &item)) {
        return NULL;
    }
    if (!heap_from_objects(keys, items, slot_of, &h)) {
        return NULL;
    }
    if (item < 0 || item >= h.capacity) {
        PyErr_Format(PyExc_IndexError, "item %lld out of range", item);
        return NULL;
    }
    slot = h.slot_of[item];
    if (slot == HEAP_ABSENT) {
        return PyLong_FromSsize_t(size);
    }
    return PyLong_FromSsize_t(
        (Py_ssize_t)heap_remove_slot(&h, (npy_intp)size, (npy_intp)slot));
}

static PyObject *
py_heap_update(PyObject *self, PyObject *args)
{
    PyArrayObject *keys, *items, *slot_of;
    Py_ssize_t size;
    long long item;
    double key;
    heap_t h;
    npy_int64 slot;

    if (!PyArg_ParseTuple(args, "O!O!O!nLd", &PyArray_Type, &keys,
                          &PyArray_Type, &items, &PyArray_Type, &slot_of,
                          &size, &item, &key)) {
        return NULL;
    }
    if (!heap_from_objects(keys, items, slot_of, &h)) {
        return NULL;
    }
    if (item < 0 || item >= h.capacity) {
        PyErr_Format(PyExc_ValueError, "item %lld out of range [0, %ld)",
                     item, (long)h.capacity);
        return NULL;
    }
    slot = h.slot_of[item];
    if (slot == HEAP_ABSENT) {
        return PyLong_FromSsize_t(
            (Py_ssize_t)heap_do_push(&h, (npy_intp)size, (npy_int64)item,
                                     key));
    }
    {
        const double old = h.keys[slot];
        h.keys[slot] = key;
        if (key < old) {
            heap_sift_up(&h, (npy_intp)slot);
        }
        else if (key > old) {
            heap_sift_down(&h, (npy_intp)size, (npy_intp)slot);
        }
    }
    return PyLong_FromSsize_t(size);
}

/* Sequential per-item updates for update_many's small-batch path.  Every
 * item is known present; slots are re-resolved per item because an
 * earlier sift in the same batch may have moved a later item. */
static void
heap_update_present(heap_t *h, npy_intp size, const npy_int64 *items,
                    const double *keys, npy_intp count)
{
    npy_intp i;

    for (i = 0; i < count; i++) {
        const npy_int64 slot = h->slot_of[items[i]];
        const double old = h->keys[slot];
        const double key = keys[i];
        h->keys[slot] = key;
        if (key < old) {
            heap_sift_up(h, (npy_intp)slot);
        }
        else if (key > old) {
            heap_sift_down(h, size, (npy_intp)slot);
        }
    }
}

static PyObject *
py_heap_update_present(PyObject *self, PyObject *args)
{
    PyArrayObject *keys, *items, *slot_of, *upd_items, *upd_keys;
    Py_ssize_t size;
    heap_t h;

    if (!PyArg_ParseTuple(args, "O!O!O!nO!O!", &PyArray_Type, &keys,
                          &PyArray_Type, &items, &PyArray_Type, &slot_of,
                          &size, &PyArray_Type, &upd_items,
                          &PyArray_Type, &upd_keys)) {
        return NULL;
    }
    if (!heap_from_objects(keys, items, slot_of, &h)
            || !CHECK_I64(upd_items, "items") || !CHECK_F64(upd_keys, "keys")) {
        return NULL;
    }
    heap_update_present(&h, (npy_intp)size,
                        (const npy_int64 *)PyArray_DATA(upd_items),
                        (const double *)PyArray_DATA(upd_keys),
                        PyArray_DIM(upd_items, 0));
    Py_RETURN_NONE;
}

/* Bulk push of pre-validated absent items (push_many / the absent half of
 * update_many).  Returns the new size. */
static PyObject *
py_heap_push_many(PyObject *self, PyObject *args)
{
    PyArrayObject *keys, *items, *slot_of, *new_items, *new_keys;
    Py_ssize_t size;
    heap_t h;
    const npy_int64 *ni;
    const double *nk;
    npy_intp count, i, cur;

    if (!PyArg_ParseTuple(args, "O!O!O!nO!O!", &PyArray_Type, &keys,
                          &PyArray_Type, &items, &PyArray_Type, &slot_of,
                          &size, &PyArray_Type, &new_items,
                          &PyArray_Type, &new_keys)) {
        return NULL;
    }
    if (!heap_from_objects(keys, items, slot_of, &h)
            || !CHECK_I64(new_items, "items") || !CHECK_F64(new_keys, "keys")) {
        return NULL;
    }
    ni = (const npy_int64 *)PyArray_DATA(new_items);
    nk = (const double *)PyArray_DATA(new_keys);
    count = PyArray_DIM(new_items, 0);
    if ((npy_intp)size + count > h.capacity) {
        PyErr_SetString(PyExc_ValueError, "push_many exceeds heap capacity");
        return NULL;
    }
    cur = (npy_intp)size;
    for (i = 0; i < count; i++) {
        cur = heap_do_push(&h, cur, ni[i], nk[i]);
    }
    return PyLong_FromSsize_t((Py_ssize_t)cur);
}

/* ------------------------------------------------------------------ */
/* heap rebuild: np.argsort(kind="stable") of the live keys            */
/* ------------------------------------------------------------------ */

/* ``update_many`` rebuilds instead of sifting when the batch covers at
 * least 1/8 of the heap (core/heap.py ``_REBUILD_FRACTION``). */
#define HEAP_REBUILD_FRACTION 8

/* One slot as the rebuild sorts it: by key under NumPy's sort comparison
 * (``a < b``, NaNs last and equal to each other, -0.0 equal to +0.0),
 * ties by slot.  That is a total order, so its sorted sequence is unique
 * — and is exactly what a stable sort of the keys produces. */
typedef struct {
    double key;
    npy_intp slot;
} sort_entry;

static int
entry_less(const sort_entry *a, const sort_entry *b)
{
    if (a->key < b->key) {
        return 1;
    }
    if (b->key < a->key) {
        return 0;
    }
    if ((a->key != a->key) != (b->key != b->key)) {
        return b->key != b->key;
    }
    return a->slot < b->slot;
}

/* Merge sort: insertion-sorted runs of 8 merged bottom-up, ping-ponging
 * between ``a`` and ``tmp`` (n entries); the result ends up in ``a``. */
static void
sort_entries(sort_entry *a, sort_entry *tmp, npy_intp n)
{
    sort_entry *src = a, *dst = tmp;
    npy_intp lo, width, i, j;

    for (lo = 0; lo < n; lo += 8) {
        const npy_intp hi = lo + 8 < n ? lo + 8 : n;
        for (i = lo + 1; i < hi; i++) {
            const sort_entry e = a[i];
            for (j = i; j > lo && entry_less(&e, &a[j - 1]); j--) {
                a[j] = a[j - 1];
            }
            a[j] = e;
        }
    }
    for (width = 8; width < n; width *= 2) {
        for (lo = 0; lo < n; lo += 2 * width) {
            const npy_intp mid = lo + width < n ? lo + width : n;
            const npy_intp hi = lo + 2 * width < n ? lo + 2 * width : n;
            npy_intp k = lo;
            i = lo;
            j = mid;
            while (i < mid && j < hi) {
                dst[k++] = entry_less(&src[j], &src[i]) ? src[j++] : src[i++];
            }
            while (i < mid) {
                dst[k++] = src[i++];
            }
            while (j < hi) {
                dst[k++] = src[j++];
            }
        }
        {
            sort_entry *swap = src;
            src = dst;
            dst = swap;
        }
    }
    if (src != a) {
        memcpy(a, src, (size_t)n * sizeof(sort_entry));
    }
}

/* ``order[i]`` = the i-th entry of ``keys[0..n)`` in stable sorted order;
 * ``tmp`` holds n entries. */
static void
stable_order(const double *keys, npy_intp n, sort_entry *order,
             sort_entry *tmp)
{
    npy_intp i;

    for (i = 0; i < n; i++) {
        order[i].key = keys[i];
        order[i].slot = i;
    }
    sort_entries(order, tmp, n);
}

/* ``update_many``'s rebuild: re-lay the live prefix in stable key order (a
 * key-sorted slot array is a valid heap).  ``scratch`` holds ``2 * size``
 * sort entries followed by ``size`` items. */
static void
heap_rebuild(heap_t *h, npy_intp size, sort_entry *scratch)
{
    const sort_entry *order = scratch;
    npy_int64 *old_items = (npy_int64 *)(scratch + 2 * size);
    npy_intp i;

    stable_order(h->keys, size, scratch, scratch + size);
    memcpy(old_items, h->items, (size_t)size * sizeof(npy_int64));
    for (i = 0; i < size; i++) {
        const npy_int64 item = old_items[order[i].slot];
        h->keys[i] = order[i].key;
        h->items[i] = item;
        h->slot_of[item] = i;
    }
}

/* ------------------------------------------------------------------ */
/* the whole ReHeap step: removed index in, heap updated out           */
/* ------------------------------------------------------------------ */

/* The neighbour list's live arrays (``NeighborList.pointer_arrays``). */
typedef struct {
    npy_int64 *left, *right;
    npy_bool *alive;
    npy_intp n;
} neighbours_t;

/* The compressor's speculation stamps: all NULL when speculation is off. */
typedef struct {
    npy_int64 *key_version, *spec_version;
    double *spec_deviation;
} stamps_t;

/* An optional per-point stamp array (``None`` when speculation is off). */
static int
stamp_array(PyObject *obj, int typenum, npy_intp n, const char *name,
            const char *tyname, void **data)
{
    *data = NULL;
    if (obj == Py_None) {
        return 1;
    }
    if (!PyArray_Check(obj)
            || !check_1d((PyArrayObject *)obj, typenum, name, tyname)) {
        if (!PyErr_Occurred()) {
            PyErr_Format(PyExc_TypeError, "%s must be an array or None",
                         name);
        }
        return 0;
    }
    if (PyArray_DIM((PyArrayObject *)obj, 0) != n) {
        PyErr_Format(PyExc_ValueError, "%s must have one entry per point",
                     name);
        return 0;
    }
    *data = PyArray_DATA((PyArrayObject *)obj);
    return 1;
}

/* The neighbour, heap and stamp arrays ``reheap`` and ``run_loop`` share:
 * one entry per point each, and speculative peeks need the spec stamps. */
static int
step_arrays_from_objects(npy_intp n, PyArrayObject *left,
                         PyArrayObject *right, PyArrayObject *alive,
                         PyArrayObject *keys, PyArrayObject *items,
                         PyArrayObject *slot_of, PyObject *key_version,
                         PyObject *spec_version, PyObject *spec_deviation,
                         Py_ssize_t peek, neighbours_t *nb, heap_t *h,
                         stamps_t *stamps)
{
    if (!CHECK_I64(left, "left") || !CHECK_I64(right, "right")
            || !check_1d(alive, NPY_BOOL, "alive", "bool")
            || !heap_from_objects(keys, items, slot_of, h)) {
        return 0;
    }
    if (PyArray_DIM(left, 0) != n || PyArray_DIM(right, 0) != n
            || PyArray_DIM(alive, 0) != n || h->capacity != n) {
        PyErr_SetString(PyExc_ValueError,
                        "neighbour and heap arrays must have one entry per "
                        "point");
        return 0;
    }
    if (!stamp_array(key_version, NPY_INT64, n, "key_version", "int64",
                     (void **)&stamps->key_version)
            || !stamp_array(spec_version, NPY_INT64, n, "spec_version",
                            "int64", (void **)&stamps->spec_version)
            || !stamp_array(spec_deviation, NPY_FLOAT64, n, "spec_deviation",
                            "float64", (void **)&stamps->spec_deviation)) {
        return 0;
    }
    if (peek > 0 && (stamps->spec_version == NULL
                     || stamps->spec_deviation == NULL)) {
        PyErr_SetString(PyExc_ValueError,
                        "speculative peeks need the spec stamp arrays");
        return 0;
    }
    nb->left = (npy_int64 *)PyArray_DATA(left);
    nb->right = (npy_int64 *)PyArray_DATA(right);
    nb->alive = (npy_bool *)PyArray_DATA(alive);
    nb->n = n;
    return 1;
}

/* One ReHeap request: the re-keyed candidates, then the speculative items,
 * and the gap of each.  ``items``/``lefts``/``rights`` hold
 * ``2 * side + peek`` entries, ``frontier`` ``2 * peek + 2``. */
typedef struct {
    npy_int64 *items, *lefts, *rights;
    frontier_entry *frontier;
    npy_intp refreshed, count, total, max_len;
} reheap_request;

enum {
    REHEAP_OK = 0,
    REHEAP_OVER_BLOCK,
    REHEAP_BAD_POINTERS,
    REHEAP_BAD_SLOT,
    REHEAP_BAD_ITEM,
    REHEAP_BAD_GAP
};

static void
raise_reheap_error(int status)
{
    static const char *const messages[] = {
        NULL, NULL, "neighbour pointers out of order",
        "heap slot map out of range", "heap item out of range",
        "gap anchors out of range"};
    PyErr_SetString(PyExc_ValueError, messages[status]);
}

static npy_int64 *
alloc_request(reheap_request *rq, npy_intp side, npy_intp peek)
{
    const npy_intp capacity = 2 * side + peek;
    npy_int64 *block = (npy_int64 *)malloc((size_t)(3 * capacity + 1)
                                           * sizeof(npy_int64));
    rq->frontier = (frontier_entry *)malloc((size_t)(2 * peek + 2)
                                            * sizeof(frontier_entry));
    rq->items = block;
    if (block != NULL) {
        rq->lefts = block + capacity;
        rq->rights = rq->lefts + capacity;
    }
    return block;
}

/* The read-only half of a ReHeap step.  From ``removed``: chase ``side``
 * survivors each way over the neighbour list's pointers
 * (``NeighborList.hops``: nearest first, left side then right, series
 * endpoints excluded), keep those in the heap, append the ``peek``
 * cheapest heap items not already among them, and measure their gaps.
 * Writes nothing but ``rq``; touches no Python object. */
static int
reheap_gather(const neighbours_t *nb, const heap_t *h, npy_intp size,
              npy_intp removed, npy_intp side, npy_intp peek,
              npy_intp cell_budget, reheap_request *rq)
{
    const npy_intp n = nb->n;
    npy_int64 la = removed, ra = removed;
    npy_intp refreshed = 0, count, cursor, steps, i, p;

    /* NeighborList.gap: the surviving anchors that bracket ``removed``
     * (its own pointers once removed may reference removed points).  A
     * pointer must move strictly outwards and stay within the sentinels:
     * that bounds every walk and every read below. */
    do {
        const npy_int64 next = nb->left[la];
        if (next < -1 || next >= la) {
            return REHEAP_BAD_POINTERS;
        }
        la = next;
    } while (la >= 0 && !nb->alive[la]);
    do {
        const npy_int64 next = nb->right[ra];
        if (next > n || next <= ra) {
            return REHEAP_BAD_POINTERS;
        }
        ra = next;
    } while (ra < n && !nb->alive[ra]);

    for (cursor = (npy_intp)la, steps = 0; cursor >= 0 && steps < side;
            steps++) {
        const npy_int64 next = nb->left[cursor];
        if (cursor > 0 && cursor < n - 1
                && h->slot_of[cursor] != HEAP_ABSENT) {
            rq->items[refreshed++] = cursor;
        }
        if (next < -1 || next >= cursor) {
            return REHEAP_BAD_POINTERS;
        }
        cursor = (npy_intp)next;
    }
    for (cursor = (npy_intp)ra, steps = 0; cursor < n && steps < side;
            steps++) {
        const npy_int64 next = nb->right[cursor];
        if (cursor > 0 && cursor < n - 1
                && h->slot_of[cursor] != HEAP_ABSENT) {
            rq->items[refreshed++] = cursor;
        }
        if (next > n || next <= cursor) {
            return REHEAP_BAD_POINTERS;
        }
        cursor = (npy_intp)next;
    }
    for (i = 0; i < refreshed; i++) {
        const npy_int64 slot = h->slot_of[rq->items[i]];
        if (slot < 0 || slot >= size) {
            return REHEAP_BAD_SLOT;
        }
    }
    count = refreshed;
    if (peek > 0) {
        /* the peek's own outputs live in the not yet used gap arrays */
        npy_int64 *peeked = rq->lefts;
        double *peeked_keys = (double *)rq->rights;
        heap_peek_many(h->keys, h->items, size, peek, rq->frontier, peeked,
                       peeked_keys);
        for (p = 0; p < peek; p++) {
            const npy_int64 item = peeked[p];
            if (item < 0 || item >= n) {
                return REHEAP_BAD_ITEM;
            }
            for (i = 0; i < refreshed && rq->items[i] != item; i++) {
            }
            if (i == refreshed) {
                rq->items[count++] = item;
            }
        }
    }
    for (i = 0; i < count; i++) {
        rq->lefts[i] = nb->left[rq->items[i]];
        rq->rights[i] = nb->right[rq->items[i]];
    }
    rq->refreshed = refreshed;
    rq->count = count;
    if (!scan_gaps(n, rq->lefts, rq->rights, count, &rq->total,
                   &rq->max_len)) {
        return REHEAP_BAD_GAP;
    }
    if (count > 0 && over_one_block(rq->total, rq->max_len, cell_budget)) {
        return REHEAP_OVER_BLOCK;
    }
    return REHEAP_OK;
}

/* ``update_many`` rebuilds rather than sifts a batch this large. */
static int
reheap_rebuilds(npy_intp refreshed, npy_intp size)
{
    return refreshed > 0 && refreshed * HEAP_REBUILD_FRACTION >= size;
}

static size_t
sort_scratch_bytes(npy_intp size)
{
    return (size_t)size * (2 * sizeof(sort_entry) + sizeof(npy_int64));
}

/* The writing half: evaluate the gathered request as one
 * ``segment_impacts`` call, re-key the neighbourhood in place
 * (``update_many``: stable-sort rebuild for heap-scale batches, sequential
 * sifts otherwise; every candidate is present, so nothing is pushed and
 * the size stands) and stamp the version arrays.  The speculative items'
 * impacts go to ``spec_deviation``, never into the heap.  ``impacts``
 * holds ``rq->count`` values, ``gap_scratch`` serves ``rq->max_len``,
 * ``sort_scratch`` (``sort_scratch_bytes(size)``) a rebuild. */
static void
reheap_commit(reheap_ctx *ctx, heap_t *h, npy_intp size,
              const stamps_t *stamps, npy_int64 state_version,
              const reheap_request *rq, double *impacts, double *gap_scratch,
              sort_entry *sort_scratch)
{
    const npy_intp refreshed = rq->refreshed;
    npy_intp i;

    if (rq->count == 0) {
        return;
    }
    evaluate_gaps(ctx, rq->lefts, rq->rights, rq->count, rq->total,
                  rq->max_len, gap_scratch, impacts);
    if (reheap_rebuilds(refreshed, size)) {
        for (i = 0; i < refreshed; i++) {
            h->keys[h->slot_of[rq->items[i]]] = impacts[i];
        }
        heap_rebuild(h, size, sort_scratch);
    }
    else {
        heap_update_present(h, size, rq->items, impacts, refreshed);
    }
    if (stamps->key_version != NULL) {
        for (i = 0; i < refreshed; i++) {
            stamps->key_version[rq->items[i]] = state_version;
        }
    }
    for (i = refreshed; i < rq->count; i++) {
        stamps->spec_deviation[rq->items[i]] = impacts[i];
        stamps->spec_version[rq->items[i]] = state_version;
    }
}

/* reheap(current, counts, sx, sxl, sx2, sx2l, sxxl, reference, metric,
 *        cell_budget, left, right, alive, keys, items, slot_of, size,
 *        removed, hops, peek, state_version, key_version, spec_version,
 *        spec_deviation) -> refreshed | None
 *
 * ``CameoCompressor._reheap_neighbours`` in one call: ``reheap_gather``
 * around ``removed``, then ``reheap_commit``.
 *
 * Returns the number of re-keyed neighbours, or ``None`` — with nothing
 * written — when the request is over one block.  Every check that can
 * raise runs before the first write as well. */
static PyObject *
py_reheap(PyObject *self, PyObject *args)
{
    PyArrayObject *current, *counts, *sx, *sxl, *sx2, *sx2l, *sxxl;
    PyArrayObject *reference, *left, *right, *alive, *keys, *items, *slot_of;
    PyObject *key_version_o, *spec_version_o, *spec_deviation_o;
    const char *metric_name;
    Py_ssize_t cell_budget, size_arg, removed, hops, peek;
    long long state_version;
    reheap_ctx ctx;
    neighbours_t nb;
    heap_t h;
    stamps_t stamps;
    reheap_request rq;
    npy_int64 *request = NULL;
    double *impacts = NULL, *gap_scratch = NULL;
    sort_entry *sort_scratch = NULL;
    npy_intp n, size;
    int status;
    PyObject *result = NULL;

    if (!PyArg_ParseTuple(args, "O!O!O!O!O!O!O!O!snO!O!O!O!O!O!nnnnLOOO",
                          &PyArray_Type, &current, &PyArray_Type, &counts,
                          &PyArray_Type, &sx, &PyArray_Type, &sxl,
                          &PyArray_Type, &sx2, &PyArray_Type, &sx2l,
                          &PyArray_Type, &sxxl, &PyArray_Type, &reference,
                          &metric_name, &cell_budget,
                          &PyArray_Type, &left, &PyArray_Type, &right,
                          &PyArray_Type, &alive,
                          &PyArray_Type, &keys, &PyArray_Type, &items,
                          &PyArray_Type, &slot_of, &size_arg,
                          &removed, &hops, &peek, &state_version,
                          &key_version_o, &spec_version_o,
                          &spec_deviation_o)) {
        return NULL;
    }
    if (!ctx_from_objects(current, counts, sx, sxl, sx2, sx2l, sxxl,
                          reference, metric_name, &ctx)
            || !step_arrays_from_objects(ctx.n, left, right, alive, keys,
                                         items, slot_of, key_version_o,
                                         spec_version_o, spec_deviation_o,
                                         peek, &nb, &h, &stamps)) {
        return NULL;
    }
    n = ctx.n;
    size = (npy_intp)size_arg;
    if (size < 0 || size > n || removed < 0 || removed >= n || hops < 0
            || peek < 0) {
        PyErr_SetString(PyExc_ValueError, "reheap request out of range");
        return NULL;
    }
    if (hops > n) {
        hops = n;
    }
    if (peek > size) {
        peek = size;
    }
    request = alloc_request(&rq, (npy_intp)hops, (npy_intp)peek);
    if (request == NULL || rq.frontier == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    status = reheap_gather(&nb, &h, size, (npy_intp)removed, (npy_intp)hops,
                           (npy_intp)peek, (npy_intp)cell_budget, &rq);
    if (status == REHEAP_OVER_BLOCK) {
        result = Py_None;
        Py_INCREF(result);
        goto done;
    }
    if (status != REHEAP_OK) {
        raise_reheap_error(status);
        goto done;
    }
    if (rq.count > 0) {
        impacts = (double *)malloc((size_t)rq.count * sizeof(double));
        gap_scratch = alloc_gap_scratch(rq.max_len, ctx.num_lags);
        if (reheap_rebuilds(rq.refreshed, size)) {
            sort_scratch = (sort_entry *)malloc(sort_scratch_bytes(size));
        }
        if (impacts == NULL || gap_scratch == NULL
                || (reheap_rebuilds(rq.refreshed, size)
                    && sort_scratch == NULL)) {
            PyErr_NoMemory();
            goto done;
        }
        Py_BEGIN_ALLOW_THREADS
        reheap_commit(&ctx, &h, size, &stamps, (npy_int64)state_version, &rq,
                      impacts, gap_scratch, sort_scratch);
        Py_END_ALLOW_THREADS
    }
    result = PyLong_FromSsize_t((Py_ssize_t)rq.refreshed);

done:
    free(request);
    free(rq.frontier);
    free(impacts);
    free(gap_scratch);
    free(sort_scratch);
    return result;
}

/* ------------------------------------------------------------------ */
/* the greedy loop: pop, decide, apply, remove, ReHeap                 */
/* ------------------------------------------------------------------ */

/* ``repro._kernels.lagdot.lagged_dot_deltas``: the change of ``sxxl`` at lags
 * ``1..num_lags`` when ``current[start .. start+m)`` moves by ``d``.  Per
 * lag three sums over the changed positions, each accumulated left to
 * right from 0.0 — head ``d_k * x[start+k+lag]``, tail
 * ``d_k * x[start+k-lag]``, cross ``d_k * d_{k+lag}`` — with a partner
 * outside the series (or the range) as a 0.0 factor, combined as
 * ``(head + tail) + cross``. */
/* How many of a range's ``m`` positions a boundary leaves on one side. */
static npy_intp
clip_count(npy_intp count, npy_intp m)
{
    return count < 0 ? 0 : count > m ? m : count;
}

static void
lagged_dot_deltas(const double *current, npy_intp n, npy_intp num_lags,
                  npy_intp start, const double *d, npy_intp m, double *out)
{
    npy_intp j, k;

    for (j = 0; j < num_lags; j++) {
        const npy_intp lag = j + 1;
        const npy_intp head_count = clip_count(n - lag - start, m);
        const npy_intp tail_start = clip_count(lag - start, m);
        const npy_intp cross_count = clip_count(m - lag, m);
        double head = 0.0, tail = 0.0, cross = 0.0;

        for (k = 0; k < head_count; k++) {
            head += d[k] * current[start + k + lag];
        }
        for (; k < m; k++) {
            head += d[k] * 0.0;
        }
        for (k = 0; k < tail_start; k++) {
            tail += d[k] * 0.0;
        }
        for (; k < m; k++) {
            tail += d[k] * current[start + k - lag];
        }
        for (k = 0; k < cross_count; k++) {
            cross += d[k] * d[k + lag];
        }
        for (; k < m; k++) {
            cross += d[k] * 0.0;
        }
        out[j] = (head + tail) + cross;
    }
}

/* Work buffers of one pop: the gap's deltas, their energies and the two
 * prefix sums (``capacity`` changed positions, grown on demand), and per
 * lag the five aggregate deltas, the previewed aggregates and an ACF row. */
typedef struct {
    double *gap_block, *lag_block;
    npy_intp capacity;
    double *d, *energy, *prefix_d, *prefix_e;
    double *d_sx, *d_sxl, *d_sx2, *d_sx2l, *d_sxxl;
    double *p_sx, *p_sxl, *p_sx2, *p_sx2l, *p_sxxl, *row;
} pop_scratch;

static int
pop_scratch_init(pop_scratch *ps, npy_intp num_lags)
{
    double *block = (double *)malloc((size_t)(11 * num_lags)
                                     * sizeof(double));
    memset(ps, 0, sizeof(*ps));
    if (block == NULL) {
        return 0;
    }
    ps->lag_block = block;
    ps->d_sx = block;
    ps->d_sxl = block + num_lags;
    ps->d_sx2 = block + 2 * num_lags;
    ps->d_sx2l = block + 3 * num_lags;
    ps->d_sxxl = block + 4 * num_lags;
    ps->p_sx = block + 5 * num_lags;
    ps->p_sxl = block + 6 * num_lags;
    ps->p_sx2 = block + 7 * num_lags;
    ps->p_sx2l = block + 8 * num_lags;
    ps->p_sxxl = block + 9 * num_lags;
    ps->row = block + 10 * num_lags;
    return 1;
}

static int
pop_scratch_reserve(pop_scratch *ps, npy_intp m)
{
    if (m > ps->capacity) {
        const npy_intp capacity = m > 2 * ps->capacity ? m : 2 * ps->capacity;
        double *block = (double *)realloc(
            ps->gap_block, (size_t)(4 * capacity + 2) * sizeof(double));
        if (block == NULL) {
            return 0;
        }
        ps->gap_block = block;
        ps->capacity = capacity;
        ps->d = block;
        ps->energy = block + capacity;
        ps->prefix_d = ps->energy + capacity;
        ps->prefix_e = ps->prefix_d + capacity + 1;
    }
    return 1;
}

/* ``ACFAggregateState._contiguous_delta_sums`` for the gap whose deltas
 * sit in ``ps->d``: sequential prefix sums of the deltas and energies,
 * read at each lag's clipped head count / tail start, and the lag sums. */
static void
delta_sums(const reheap_ctx *c, npy_intp start, npy_intp m, pop_scratch *ps)
{
    npy_intp t, j;

    for (t = 0; t < m; t++) {
        const double old = c->current[start + t];
        ps->energy[t] = ps->d[t] * (2.0 * old + ps->d[t]);
    }
    ps->prefix_d[0] = 0.0;
    ps->prefix_e[0] = 0.0;
    ps->prefix_d[1] = ps->d[0];
    ps->prefix_e[1] = ps->energy[0];
    for (t = 1; t < m; t++) {
        ps->prefix_d[t + 1] = ps->prefix_d[t] + ps->d[t];
        ps->prefix_e[t + 1] = ps->prefix_e[t] + ps->energy[t];
    }
    for (j = 0; j < c->num_lags; j++) {
        const npy_intp lag = j + 1;
        const npy_intp head_count = clip_count(c->n - start - lag, m);
        const npy_intp tail_start = clip_count(lag - start, m);
        ps->d_sx[j] = ps->prefix_d[head_count];
        ps->d_sx2[j] = ps->prefix_e[head_count];
        ps->d_sxl[j] = ps->prefix_d[m] - ps->prefix_d[tail_start];
        ps->d_sx2l[j] = ps->prefix_e[m] - ps->prefix_e[tail_start];
    }
    lagged_dot_deltas(c->current, c->n, c->num_lags, start, ps->d, m,
                      ps->d_sxxl);
}

/* Why ``run_loop`` came back: a stop (``CompressionStats.stopped_by``),
 * or a yield — the top candidate's ReHeap may not fit one block, nothing
 * of that iteration is done, and the caller runs it. */
static const char *const loop_reasons[] = {
    "heap-exhausted", "error-bound", "min-keep", "target-ratio", NULL};
enum { LOOP_EXHAUSTED, LOOP_ERROR_BOUND, LOOP_MIN_KEEP, LOOP_TARGET_RATIO,
       LOOP_YIELD, LOOP_NO_MEMORY, LOOP_BROKEN };

/* Everything a run_loop call can get wrong about the neighbour list and
 * the heap, checked in one pass before the first write: live points are
 * doubly linked in increasing order between the two (live) endpoints,
 * every heap slot holds a distinct live interior point, and the slot map
 * agrees.  The loop keeps these true itself, so nothing inside it can
 * fail.  Returns the longest run of removed points, or -1. */
static npy_intp
validate_run(const neighbours_t *nb, const heap_t *h, npy_intp size)
{
    const npy_intp n = nb->n;
    npy_intp i, previous = -1, longest = 0, in_heap = 0;

    if (n < 2 || !nb->alive[0] || !nb->alive[n - 1]) {
        return -1;
    }
    for (i = 0; i < n; i++) {
        const npy_int64 slot = h->slot_of[i];
        if (slot != HEAP_ABSENT) {
            if (slot < 0 || slot >= size || h->items[slot] != i
                    || !nb->alive[i] || i == 0 || i == n - 1) {
                return -1;
            }
            in_heap++;
        }
        if (!nb->alive[i]) {
            continue;
        }
        if (nb->left[i] != previous) {
            return -1;
        }
        if (previous >= 0 && nb->right[previous] != i) {
            return -1;
        }
        if (i - previous - 1 > longest) {
            longest = i - previous - 1;
        }
        previous = i;
    }
    if (nb->right[n - 1] != n || in_heap != size) {
        return -1;
    }
    return longest;
}

/* run_loop(current, counts, sx, sxl, sx2, sx2l, sxxl, reference, metric,
 *          cell_budget, left, right, alive, keys, items, slot_of, size,
 *          hops, peek, state_version, key_version, spec_version,
 *          spec_deviation, epsilon, kept, removed, max_removable,
 *          target_kept, achieved_deviation)
 *     -> (reason, size, accepted, pops, reheap_updates, fresh_key_hits,
 *         speculative_hits, scalar_previews, achieved_deviation)
 *
 * ``CameoCompressor``'s greedy loop (``on_violation="stop"``, one pop per
 * iteration) on the caller's arrays, the GIL released throughout.  Per
 * iteration: take the heap's top candidate, re-interpolate its gap
 * (``gap_deltas``), take its deviation from its heap key when that is
 * fresh, else from the speculative cache, else preview it
 * (``preview_acf_contiguous`` + the metric), pop it, stop at ``epsilon``;
 * otherwise apply the change to the aggregates and the series
 * (``apply_contiguous``), unlink the point, bump the state version, stop
 * at ``max_removable`` / ``target_kept``, and run the ReHeap step above.
 *
 * ``reason`` is the ``stopped_by`` string of a finished run, or ``None``
 * for a yield: the top candidate's ReHeap request may exceed one block
 * (judged before the pop, from an upper bound on its size), that
 * iteration has not begun, and the caller runs it before calling again.
 * ``epsilon`` is a float or ``None``, ``target_kept`` negative for none;
 * the counters are those of this call.  Every check that can raise runs
 * before the first write. */
static PyObject *
py_run_loop(PyObject *self, PyObject *args)
{
    PyArrayObject *current, *counts, *sx, *sxl, *sx2, *sx2l, *sxxl;
    PyArrayObject *reference, *left, *right, *alive, *keys, *items, *slot_of;
    PyArrayObject *written[12];
    PyObject *key_version_o, *spec_version_o, *spec_deviation_o, *epsilon_o;
    const char *metric_name;
    Py_ssize_t cell_budget, size_arg, hops, peek, kept, removed;
    Py_ssize_t max_removable, target_kept;
    long long state_version;
    double achieved, epsilon = 0.0;
    int has_epsilon, reason = LOOP_EXHAUSTED;
    reheap_ctx ctx;
    neighbours_t nb;
    heap_t h;
    stamps_t stamps;
    reheap_request rq;
    pop_scratch ps;
    npy_int64 *request = NULL;
    double *impacts = NULL, *gap_scratch = NULL;
    double *sums[5];
    sort_entry *sort_scratch = NULL;
    npy_intp n, size, side, longest, gap_capacity = 0, num_lags, i;
    npy_intp accepted = 0, pops = 0, reheap_updates = 0;
    npy_intp fresh_hits = 0, spec_hits = 0, previews = 0;
    int nthreads = 1;
    PyObject *result = NULL;

    if (!PyArg_ParseTuple(args, "O!O!O!O!O!O!O!O!snO!O!O!O!O!O!nnnLOOOOnnnnd",
                          &PyArray_Type, &current, &PyArray_Type, &counts,
                          &PyArray_Type, &sx, &PyArray_Type, &sxl,
                          &PyArray_Type, &sx2, &PyArray_Type, &sx2l,
                          &PyArray_Type, &sxxl, &PyArray_Type, &reference,
                          &metric_name, &cell_budget,
                          &PyArray_Type, &left, &PyArray_Type, &right,
                          &PyArray_Type, &alive,
                          &PyArray_Type, &keys, &PyArray_Type, &items,
                          &PyArray_Type, &slot_of, &size_arg,
                          &hops, &peek, &state_version,
                          &key_version_o, &spec_version_o,
                          &spec_deviation_o, &epsilon_o, &kept, &removed,
                          &max_removable, &target_kept, &achieved)) {
        return NULL;
    }
    if (!ctx_from_objects(current, counts, sx, sxl, sx2, sx2l, sxxl,
                          reference, metric_name, &ctx)
            || !step_arrays_from_objects(ctx.n, left, right, alive, keys,
                                         items, slot_of, key_version_o,
                                         spec_version_o, spec_deviation_o,
                                         peek, &nb, &h, &stamps)) {
        return NULL;
    }
    has_epsilon = epsilon_o != Py_None;
    if (has_epsilon) {
        epsilon = PyFloat_AsDouble(epsilon_o);
        if (epsilon == -1.0 && PyErr_Occurred()) {
            return NULL;
        }
    }
    n = ctx.n;
    num_lags = ctx.num_lags;
    size = (npy_intp)size_arg;
    if (size < 0 || size > n || hops < 0 || peek < 0 || kept < 0
            || removed < 0 || max_removable < 0 || cell_budget < 0
            || (stamps.key_version == NULL) != (stamps.spec_version == NULL)
            || (stamps.key_version == NULL)
                != (stamps.spec_deviation == NULL)) {
        PyErr_SetString(PyExc_ValueError, "run_loop request out of range");
        return NULL;
    }
    written[0] = current; written[1] = sx; written[2] = sxl;
    written[3] = sx2; written[4] = sx2l; written[5] = sxxl;
    written[6] = left; written[7] = right; written[8] = alive;
    written[9] = keys; written[10] = items; written[11] = slot_of;
    for (i = 0; i < 12; i++) {
        if (!PyArray_ISWRITEABLE(written[i])) {
            PyErr_SetString(PyExc_ValueError,
                            "run_loop updates its arrays in place: they "
                            "must be writeable");
            return NULL;
        }
    }
    if (stamps.key_version != NULL
            && !(PyArray_ISWRITEABLE((PyArrayObject *)key_version_o)
                 && PyArray_ISWRITEABLE((PyArrayObject *)spec_version_o)
                 && PyArray_ISWRITEABLE((PyArrayObject *)spec_deviation_o))) {
        PyErr_SetString(PyExc_ValueError,
                        "run_loop stamps its arrays in place: they must be "
                        "writeable");
        return NULL;
    }
    longest = validate_run(&nb, &h, size);
    if (longest < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "neighbour list and heap are not consistent");
        return NULL;
    }
    /* the state update writes through the context's read-only views */
    sums[0] = (double *)ctx.sx;
    sums[1] = (double *)ctx.sxl;
    sums[2] = (double *)ctx.sx2;
    sums[3] = (double *)ctx.sx2l;
    sums[4] = (double *)ctx.sxxl;

    side = hops < n ? (npy_intp)hops : n;
    if (peek > size) {
        peek = size;
    }
#ifdef _OPENMP
    nthreads = omp_get_max_threads();
#endif
    request = alloc_request(&rq, side, (npy_intp)peek);
    impacts = (double *)malloc((size_t)(2 * side + peek + 1)
                               * sizeof(double));
    sort_scratch = (sort_entry *)malloc(sort_scratch_bytes(size) + 1);
    if (!pop_scratch_init(&ps, num_lags) || request == NULL
            || rq.frontier == NULL || impacts == NULL
            || sort_scratch == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    Py_BEGIN_ALLOW_THREADS
    while (size > 0) {
        const npy_intp candidate = (npy_intp)h.items[0];
        const double key = h.keys[0];
        const npy_intp lc = (npy_intp)nb.left[candidate];
        const npy_intp rc = (npy_intp)nb.right[candidate];
        const npy_intp m = rc - lc - 1;
        const npy_intp peeked = peek < size - 1 ? (npy_intp)peek : size - 1;
        npy_intp gap_total = 0, gap_longest = 0, cursor, steps, t, j;
        double deviation;
        int have_sums = 0, status;

        /* An upper bound on the ReHeap request this removal would make:
         * the blocking neighbourhood's gaps as they will be once
         * ``candidate`` is unlinked, plus — the peek cannot be known
         * before the pop — ``peeked`` gaps of the longest shape any point
         * can have, two longest runs and the point between them. */
        if (m > longest) {
            longest = m;
        }
        for (cursor = lc, steps = 0; cursor >= 0 && steps < side; steps++) {
            if (cursor > 0) {
                const npy_intp len =
                    (cursor == lc ? rc : (npy_intp)nb.right[cursor])
                    - (npy_intp)nb.left[cursor] - 1;
                gap_total += len;
                gap_longest = len > gap_longest ? len : gap_longest;
            }
            cursor = (npy_intp)nb.left[cursor];
        }
        for (cursor = rc, steps = 0; cursor < n && steps < side; steps++) {
            if (cursor < n - 1) {
                const npy_intp len = (npy_intp)nb.right[cursor]
                    - (cursor == rc ? lc : (npy_intp)nb.left[cursor]) - 1;
                gap_total += len;
                gap_longest = len > gap_longest ? len : gap_longest;
            }
            cursor = (npy_intp)nb.right[cursor];
        }
        if (peeked > 0) {
            gap_total += peeked * (2 * longest + 1);
            gap_longest = 2 * longest + 1 > gap_longest ? 2 * longest + 1
                                                        : gap_longest;
        }
        if (gap_total > (npy_intp)cell_budget) {
            reason = LOOP_YIELD;
            break;
        }
        if (gap_longest > gap_capacity) {
            free(gap_scratch);
            gap_capacity = gap_longest > 2 * gap_capacity ? gap_longest
                                                          : 2 * gap_capacity;
            gap_scratch = (double *)malloc(
                (size_t)nthreads * (size_t)(3 * gap_capacity + num_lags)
                * sizeof(double));
            if (gap_scratch == NULL) {
                reason = LOOP_NO_MEMORY;
                break;
            }
        }
        if (!pop_scratch_reserve(&ps, m)) {
            reason = LOOP_NO_MEMORY;
            break;
        }

        fill_gap_deltas(ctx.current, lc, rc, ps.d);
        if (stamps.key_version != NULL
                && stamps.key_version[candidate] == state_version) {
            /* the key was computed against this very state */
            deviation = key;
            fresh_hits++;
        }
        else if (stamps.spec_version != NULL
                 && stamps.spec_version[candidate] == state_version) {
            deviation = stamps.spec_deviation[candidate];
            spec_hits++;
        }
        else {
            delta_sums(&ctx, lc + 1, m, &ps);
            have_sums = 1;
            for (j = 0; j < num_lags; j++) {
                ps.p_sx[j] = ctx.sx[j] + ps.d_sx[j];
                ps.p_sxl[j] = ctx.sxl[j] + ps.d_sxl[j];
                ps.p_sx2[j] = ctx.sx2[j] + ps.d_sx2[j];
                ps.p_sx2l[j] = ctx.sx2l[j] + ps.d_sx2l[j];
                ps.p_sxxl[j] = ctx.sxxl[j] + ps.d_sxxl[j];
            }
            sums_row(ctx.counts, ps.p_sx, ps.p_sxl, ps.p_sx2, ps.p_sx2l,
                     ps.p_sxxl, num_lags, ps.row);
            deviation = row_deviation(ctx.metric, ctx.reference, num_lags,
                                      ps.row);
            previews++;
        }

        size = heap_remove_slot(&h, size, 0);
        pops++;
        if (has_epsilon && deviation >= epsilon) {
            reason = LOOP_ERROR_BOUND;
            break;
        }

        /* apply_contiguous, NeighborList.remove */
        if (!have_sums) {
            delta_sums(&ctx, lc + 1, m, &ps);
        }
        for (j = 0; j < num_lags; j++) {
            sums[0][j] += ps.d_sx[j];
            sums[1][j] += ps.d_sxl[j];
            sums[2][j] += ps.d_sx2[j];
            sums[3][j] += ps.d_sx2l[j];
            sums[4][j] += ps.d_sxxl[j];
        }
        for (t = 0; t < m; t++) {
            ((double *)ctx.current)[lc + 1 + t] += ps.d[t];
        }
        nb.right[lc] = rc;
        nb.left[rc] = lc;
        nb.alive[candidate] = 0;
        kept--;
        removed++;
        accepted++;
        achieved = deviation;
        if (stamps.key_version != NULL) {
            /* every outstanding speculative preview is now stale */
            state_version++;
        }
        if (removed >= max_removable) {
            reason = LOOP_MIN_KEEP;
            break;
        }
        if (target_kept >= 0 && kept <= target_kept) {
            reason = LOOP_TARGET_RATIO;
            break;
        }

        status = reheap_gather(&nb, &h, size, candidate, side, peeked,
                               (npy_intp)cell_budget, &rq);
        if (status != REHEAP_OK) {
            reason = LOOP_BROKEN;
            break;
        }
        reheap_commit(&ctx, &h, size, &stamps, (npy_int64)state_version, &rq,
                      impacts, gap_scratch, sort_scratch);
        reheap_updates += rq.refreshed;
    }
    Py_END_ALLOW_THREADS

    if (reason == LOOP_NO_MEMORY) {
        PyErr_NoMemory();
    }
    else if (reason == LOOP_BROKEN) {
        PyErr_SetString(PyExc_RuntimeError,
                        "run_loop: a validated ReHeap request failed");
    }
    else {
        result = Py_BuildValue("znnnnnnnd", loop_reasons[reason],
                               (Py_ssize_t)size, (Py_ssize_t)accepted,
                               (Py_ssize_t)pops, (Py_ssize_t)reheap_updates,
                               (Py_ssize_t)fresh_hits, (Py_ssize_t)spec_hits,
                               (Py_ssize_t)previews, achieved);
    }

done:
    free(request);
    free(rq.frontier);
    free(impacts);
    free(gap_scratch);
    free(sort_scratch);
    free(ps.lag_block);
    free(ps.gap_block);
    return result;
}

/* ------------------------------------------------------------------ */
/* import-time self-check hooks                                        */
/* ------------------------------------------------------------------ */

/* Per-segment sums under this module's reduceat model, for the loader's
 * bit-identity cross-check against the running NumPy. */
static PyObject *
py_reduceat_check(PyObject *self, PyObject *args)
{
    PyArrayObject *values, *offsets;
    const double *v;
    const npy_int64 *off;
    npy_intp n, s, num_segments;
    npy_intp dims[1];
    PyObject *out;
    double *out_p;

    if (!PyArg_ParseTuple(args, "O!O!", &PyArray_Type, &values,
                          &PyArray_Type, &offsets)) {
        return NULL;
    }
    if (!CHECK_F64(values, "values") || !CHECK_I64(offsets, "offsets")) {
        return NULL;
    }
    v = (const double *)PyArray_DATA(values);
    off = (const npy_int64 *)PyArray_DATA(offsets);
    n = PyArray_DIM(values, 0);
    num_segments = PyArray_DIM(offsets, 0);
    dims[0] = num_segments;
    out = PyArray_SimpleNew(1, dims, NPY_FLOAT64);
    if (out == NULL) {
        return NULL;
    }
    out_p = (double *)PyArray_DATA((PyArrayObject *)out);
    for (s = 0; s < num_segments; s++) {
        const npy_intp start = (npy_intp)off[s];
        const npy_intp stop = s + 1 < num_segments ? (npy_intp)off[s + 1] : n;
        out_p[s] = reduceat_sum(v + start, stop - start);
    }
    return out;
}

/* ``ResolvedMetric.rowwise`` under this module's model, for the loader's
 * cross-check of the contiguous-axis mean against the running NumPy. */
static PyObject *
py_rowwise_check(PyObject *self, PyObject *args)
{
    PyArrayObject *reference, *rows;
    const char *metric_name;
    int metric;
    npy_intp num_rows, num_lags, r;
    npy_intp dims[1];
    PyObject *out;
    double *out_p, *row;

    if (!PyArg_ParseTuple(args, "O!O!s", &PyArray_Type, &reference,
                          &PyArray_Type, &rows, &metric_name)) {
        return NULL;
    }
    if (!CHECK_F64(reference, "reference")
            || !parse_metric(metric_name, &metric)) {
        return NULL;
    }
    num_lags = PyArray_DIM(reference, 0);
    if (PyArray_TYPE(rows) != NPY_FLOAT64 || PyArray_NDIM(rows) != 2
            || !PyArray_IS_C_CONTIGUOUS(rows) || num_lags < 1
            || PyArray_DIM(rows, 1) != num_lags) {
        PyErr_SetString(PyExc_ValueError,
                        "rows must be a C-contiguous (k, L) float64 array");
        return NULL;
    }
    num_rows = PyArray_DIM(rows, 0);
    dims[0] = num_rows;
    out = PyArray_SimpleNew(1, dims, NPY_FLOAT64);
    row = (double *)malloc((size_t)num_lags * sizeof(double));
    if (out == NULL || row == NULL) {
        Py_XDECREF(out);
        free(row);
        return PyErr_NoMemory();
    }
    out_p = (double *)PyArray_DATA((PyArrayObject *)out);
    for (r = 0; r < num_rows; r++) {
        memcpy(row, (const double *)PyArray_DATA(rows) + r * num_lags,
               (size_t)num_lags * sizeof(double));
        out_p[r] = row_deviation(
            metric, (const double *)PyArray_DATA(reference), num_lags, row);
    }
    free(row);
    return out;
}

/* The rebuild's slot order under this module's stable sort, for the
 * loader's cross-check against ``np.argsort(kind="stable")``. */
static PyObject *
py_stable_order_check(PyObject *self, PyObject *args)
{
    PyArrayObject *keys;
    npy_intp n, i;
    npy_intp dims[1];
    PyObject *out;
    npy_int64 *out_p;
    sort_entry *scratch;

    if (!PyArg_ParseTuple(args, "O!", &PyArray_Type, &keys)) {
        return NULL;
    }
    if (!CHECK_F64(keys, "keys")) {
        return NULL;
    }
    n = PyArray_DIM(keys, 0);
    dims[0] = n;
    out = PyArray_SimpleNew(1, dims, NPY_INT64);
    scratch = (sort_entry *)malloc((size_t)(2 * n + 1) * sizeof(sort_entry));
    if (out == NULL || scratch == NULL) {
        Py_XDECREF(out);
        free(scratch);
        return PyErr_NoMemory();
    }
    stable_order((const double *)PyArray_DATA(keys), n, scratch, scratch + n);
    out_p = (npy_int64 *)PyArray_DATA((PyArrayObject *)out);
    for (i = 0; i < n; i++) {
        out_p[i] = (npy_int64)scratch[i].slot;
    }
    free(scratch);
    return out;
}

/* The lag sums of one contiguous change under this module's model, for
 * the loader's cross-check against ``ACFAggregateState``'s NumPy
 * expression. */
static PyObject *
py_lagdot_check(PyObject *self, PyObject *args)
{
    PyArrayObject *current, *deltas;
    Py_ssize_t max_lag, start;
    npy_intp n, m;
    npy_intp dims[1];
    PyObject *out;

    if (!PyArg_ParseTuple(args, "O!nnO!", &PyArray_Type, &current, &max_lag,
                          &start, &PyArray_Type, &deltas)) {
        return NULL;
    }
    if (!CHECK_F64(current, "current") || !CHECK_F64(deltas, "deltas")) {
        return NULL;
    }
    n = PyArray_DIM(current, 0);
    m = PyArray_DIM(deltas, 0);
    if (max_lag < 1 || start < 0 || m < 1 || start + m > n) {
        PyErr_SetString(PyExc_ValueError, "contiguous range out of bounds");
        return NULL;
    }
    dims[0] = max_lag;
    out = PyArray_SimpleNew(1, dims, NPY_FLOAT64);
    if (out == NULL) {
        return NULL;
    }
    lagged_dot_deltas((const double *)PyArray_DATA(current), n,
                      (npy_intp)max_lag, (npy_intp)start,
                      (const double *)PyArray_DATA(deltas), m,
                      (double *)PyArray_DATA((PyArrayObject *)out));
    return out;
}

/* ``a*b - a*b`` in the shape the ACF numerator uses.  Exactly 0.0 unless
 * the compiler contracted one of the products into an FMA. */
static PyObject *
py_fma_probe(PyObject *self, PyObject *args)
{
    double a, b;

    if (!PyArg_ParseTuple(args, "dd", &a, &b)) {
        return NULL;
    }
    {
        /* volatile blocks common-subexpression elimination, so the second
         * product stays eligible for contraction into the subtraction */
        volatile double va = a, vb = b;
        const double first = va * vb;
        const double result = va * vb - first;
        return PyFloat_FromDouble(result);
    }
}

/* ------------------------------------------------------------------ */
/* storage kernels: CRC32C and the XOR codecs' bit streams             */
/* ------------------------------------------------------------------ */

/* Nothing here is floating-point arithmetic: the XOR codecs move IEEE-754
 * bit patterns and the CRC is integer table walking, so identity with the
 * Python tier is a matter of transcription, not of rounding.  The loader
 * still checks both against known answers before admitting the build. */

static npy_uint32 crc32c_tables[8][256];

/* Slicing-by-8 tables of the reflected Castagnoli polynomial; the same
 * construction as repro/codecs/checksum.py::_make_tables. */
static void
crc32c_init(void)
{
    npy_uint32 index, crc;
    int bit, slab;

    for (index = 0; index < 256; index++) {
        crc = index;
        for (bit = 0; bit < 8; bit++) {
            crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
        }
        crc32c_tables[0][index] = crc;
    }
    for (index = 0; index < 256; index++) {
        crc = crc32c_tables[0][index];
        for (slab = 1; slab < 8; slab++) {
            crc = (crc >> 8) ^ crc32c_tables[0][crc & 0xFFu];
            crc32c_tables[slab][index] = crc;
        }
    }
}

/* Bytes are composed one at a time, so the walk is independent of the
 * host's endianness and of the buffer's alignment. */
static npy_uint32
crc32c_update(npy_uint32 crc, const unsigned char *data, Py_ssize_t length)
{
    const npy_uint32 (*t)[256] = crc32c_tables;

    crc ^= 0xFFFFFFFFu;
    while (length >= 8) {
        crc ^= (npy_uint32)data[0] | ((npy_uint32)data[1] << 8)
            | ((npy_uint32)data[2] << 16) | ((npy_uint32)data[3] << 24);
        crc = t[7][crc & 0xFFu] ^ t[6][(crc >> 8) & 0xFFu]
            ^ t[5][(crc >> 16) & 0xFFu] ^ t[4][crc >> 24]
            ^ t[3][data[4]] ^ t[2][data[5]] ^ t[1][data[6]] ^ t[0][data[7]];
        data += 8;
        length -= 8;
    }
    while (length > 0) {
        crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xFFu];
        data++;
        length--;
    }
    return crc ^ 0xFFFFFFFFu;
}

static PyObject *
py_crc32c(PyObject *self, PyObject *args)
{
    Py_buffer view;
    unsigned long long value = 0;
    npy_uint32 crc;

    /* "K" takes the low bits of any int, as `value & 0xFFFFFFFF` does */
    if (!PyArg_ParseTuple(args, "y*|K", &view, &value)) {
        return NULL;
    }
    crc = crc32c_update((npy_uint32)(value & 0xFFFFFFFFu),
                        (const unsigned char *)view.buf, view.len);
    PyBuffer_Release(&view);
    return PyLong_FromUnsignedLong((unsigned long)crc);
}

/* Raise repro.exceptions.CodecError, what the Python decoders raise. */
static PyObject *
raise_codec_error(const char *message)
{
    PyObject *module = PyImport_ImportModule("repro.exceptions");
    PyObject *error = NULL;

    if (module != NULL) {
        error = PyObject_GetAttrString(module, "CodecError");
        Py_DECREF(module);
    }
    if (error != NULL) {
        PyErr_SetString(error, message);
        Py_DECREF(error);
    }
    return NULL;
}

#define XOR_GORILLA 0
#define XOR_CHIMP 1

static int
xor_scheme(const char *name)
{
    if (strcmp(name, "gorilla") == 0) {
        return XOR_GORILLA;
    }
    if (strcmp(name, "chimp") == 0) {
        return XOR_CHIMP;
    }
    PyErr_Format(PyExc_ValueError,
                 "scheme must be 'gorilla' or 'chimp', got '%s'", name);
    return -1;
}

/* Chimp's quantised leading-zero counts (3-bit codes). */
static const int chimp_leading_round[8] = {0, 8, 12, 16, 18, 20, 22, 24};

static int
clz64(npy_uint64 value)         /* value != 0 */
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_clzll(value);
#else
    int count = 0;
    while (!(value >> 63)) {
        value <<= 1;
        count++;
    }
    return count;
#endif
}

static int
ctz64(npy_uint64 value)         /* value != 0 */
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_ctzll(value);
#else
    int count = 0;
    while (!(value & 1u)) {
        value >>= 1;
        count++;
    }
    return count;
#endif
}

/* A double's bit pattern, moved with memcpy: no aliasing or alignment
 * assumption about the caller's array. */
static npy_uint64
load_bits(const double *values, npy_intp index)
{
    npy_uint64 bits;

    memcpy(&bits, values + index, sizeof bits);
    return bits;
}

static void
store_bits(double *values, npy_intp index, npy_uint64 bits)
{
    memcpy(values + index, &bits, sizeof bits);
}

/* MSB-first bit stream over bytes, shared by both schemes.  The reader
 * takes its input from outside the program: it refuses a field that would
 * end past `limit` *before* touching memory, `limit` never exceeds eight
 * times the buffer length, so no byte at or past the end is ever read, and
 * fields are gathered byte by byte, so no shift reaches the width of its
 * operand.  The writer fills a buffer sized for the worst case beforehand
 * and can afford whole words. */
typedef struct {
    const unsigned char *data;
    npy_int64 limit;            /* readable bits */
    npy_int64 position;
} bit_reader;

/* 1 and the next `width` bits (1..64) in *out, or 0 past the limit. */
static int
bits_read(bit_reader *reader, int width, npy_uint64 *out)
{
    const unsigned char *byte;
    npy_uint64 value;
    int offset, take;

    if (reader->position + width > reader->limit) {
        return 0;
    }
    byte = reader->data + (reader->position >> 3);
    offset = (int)(reader->position & 7);
    reader->position += width;
    take = 8 - offset;
    if (take > width) {
        take = width;
    }
    value = ((npy_uint64)*byte >> (8 - offset - take)) & ((1u << take) - 1u);
    width -= take;
    byte++;
    while (width >= 8) {
        value = (value << 8) | *byte++;
        width -= 8;
    }
    if (width > 0) {
        value = (value << width) | ((npy_uint64)*byte >> (8 - width));
    }
    *out = value;
    return 1;
}

typedef struct {
    unsigned char *out;         /* next byte to write */
    npy_uint64 pending;         /* bits not yet written, right-aligned */
    int pending_bits;           /* how many, 0..63 */
    npy_int64 bit_length;
} bit_writer;

static void
bits_flush_word(bit_writer *writer, npy_uint64 word)
{
    int shift;

    for (shift = 56; shift >= 0; shift -= 8) {
        *writer->out++ = (unsigned char)(word >> shift);
    }
}

/* Append the `width` (1..64) low bits of `value`, which has none above. */
static void
bits_write(bit_writer *writer, npy_uint64 value, int width)
{
    const int space = 64 - writer->pending_bits;    /* 1..64 */

    writer->bit_length += width;
    if (width < space) {
        writer->pending = (writer->pending << width) | value;
        writer->pending_bits += width;
    } else {
        const int rest = width - space;             /* 0..63 */

        /* pending is 0 when no bit is pending: a shift by 64 never runs */
        bits_flush_word(writer, (space < 64 ? writer->pending << space : 0)
                        | (value >> rest));
        writer->pending = rest ? value & (((npy_uint64)1 << rest) - 1) : 0;
        writer->pending_bits = rest;
    }
}

/* Write out the pending bits, the last byte zero-padded on the right. */
static void
bits_finish(bit_writer *writer)
{
    int remaining = writer->pending_bits;

    if (remaining > 0) {
        const npy_uint64 word = writer->pending << (64 - remaining);
        int shift;

        for (shift = 56; remaining > 0; shift -= 8, remaining -= 8) {
            *writer->out++ = (unsigned char)(word >> shift);
        }
    }
}

/* Longest field sequence of one value: gorilla `11` + 5 + 6 + 64 bits,
 * chimp `10` + 3 + 64 bits. */
#define XOR_MAX_BITS_PER_VALUE 77

static void
gorilla_encode(bit_writer *writer, const double *values, npy_intp count)
{
    npy_uint64 previous = load_bits(values, 0);
    int previous_leading = 65;  /* force a new window on the first XOR */
    int previous_trailing = 65;
    npy_intp index;

    bits_write(writer, previous, 64);
    for (index = 1; index < count; index++) {
        const npy_uint64 current = load_bits(values, index);
        const npy_uint64 xor = current ^ previous;
        int leading, trailing;

        previous = current;
        if (xor == 0) {
            bits_write(writer, 0, 1);
            continue;
        }
        leading = clz64(xor);
        if (leading > 31) {
            leading = 31;
        }
        trailing = ctz64(xor);
        if (leading >= previous_leading && trailing >= previous_trailing) {
            bits_write(writer, 2, 2);
            bits_write(writer, xor >> previous_trailing,
                       64 - previous_leading - previous_trailing);
        } else {
            const int meaningful = 64 - leading - trailing;

            bits_write(writer, 3, 2);
            bits_write(writer, (npy_uint64)leading, 5);
            bits_write(writer, (npy_uint64)(meaningful - 1), 6);
            bits_write(writer, xor >> trailing, meaningful);
            previous_leading = leading;
            previous_trailing = trailing;
        }
    }
}

static void
chimp_encode(bit_writer *writer, const double *values, npy_intp count)
{
    npy_uint64 previous = load_bits(values, 0);
    int previous_leading_code = -1;
    npy_intp index;

    bits_write(writer, previous, 64);
    for (index = 1; index < count; index++) {
        const npy_uint64 current = load_bits(values, index);
        const npy_uint64 xor = current ^ previous;
        int leading, trailing, code, rounded;

        previous = current;
        if (xor == 0) {
            bits_write(writer, 0, 2);
            previous_leading_code = -1;
            continue;
        }
        leading = clz64(xor);
        trailing = ctz64(xor);
        code = 0;
        while (code < 7 && leading >= chimp_leading_round[code + 1]) {
            code++;
        }
        rounded = chimp_leading_round[code];
        if (trailing > 6) {
            const int centre = 64 - rounded - trailing;

            bits_write(writer, 3, 2);
            bits_write(writer, (npy_uint64)code, 3);
            bits_write(writer, (npy_uint64)centre, 6);
            bits_write(writer, xor >> trailing, centre);
            previous_leading_code = -1;
        } else if (code == previous_leading_code) {
            bits_write(writer, 1, 2);
            bits_write(writer, xor, 64 - rounded);
        } else {
            bits_write(writer, 2, 2);
            bits_write(writer, (npy_uint64)code, 3);
            bits_write(writer, xor, 64 - rounded);
            previous_leading_code = code;
        }
    }
}

static PyObject *
py_xor_encode(PyObject *self, PyObject *args)
{
    const char *scheme_name;
    PyArrayObject *values;
    PyObject *payload;
    bit_writer writer;
    npy_intp count;
    int scheme;

    if (!PyArg_ParseTuple(args, "sO!", &scheme_name,
                          &PyArray_Type, &values)) {
        return NULL;
    }
    scheme = xor_scheme(scheme_name);
    if (scheme < 0 || !CHECK_F64(values, "values")) {
        return NULL;
    }
    count = PyArray_DIM(values, 0);
    if (count < 1) {
        PyErr_SetString(PyExc_ValueError, "values must not be empty");
        return NULL;
    }
    if (count > NPY_MAX_INTP / 128) {
        return PyErr_NoMemory();
    }
    payload = PyBytes_FromStringAndSize(
        NULL, (8 * 8 + (count - 1) * XOR_MAX_BITS_PER_VALUE + 7) / 8);
    if (payload == NULL) {
        return NULL;
    }
    writer.out = (unsigned char *)PyBytes_AS_STRING(payload);
    writer.pending = 0;
    writer.pending_bits = 0;
    writer.bit_length = 0;
    (scheme == XOR_GORILLA ? gorilla_encode : chimp_encode)(
        &writer, (const double *)PyArray_DATA(values), count);
    bits_finish(&writer);
    if (_PyBytes_Resize(&payload, (Py_ssize_t)(
            writer.out - (unsigned char *)PyBytes_AS_STRING(payload))) < 0) {
        return NULL;
    }
    return Py_BuildValue("(NL)", payload, (long long)writer.bit_length);
}

static const char *const XOR_PAST_END =
    "attempt to read past the end of the bit stream";
static const char *const XOR_BAD_WINDOW =
    "XOR window does not fit in 64 bits";

/* NULL when `count` values decoded, else the refusal's message. */
static const char *
gorilla_decode(bit_reader *reader, double *out, npy_intp count)
{
    npy_uint64 previous, field;
    int leading = 0, trailing = 0, width;
    npy_intp index;

    if (!bits_read(reader, 64, &previous)) {
        return XOR_PAST_END;
    }
    store_bits(out, 0, previous);
    for (index = 1; index < count; index++) {
        if (!bits_read(reader, 1, &field)) {
            return XOR_PAST_END;
        }
        if (field == 0) {
            store_bits(out, index, previous);
            continue;
        }
        if (!bits_read(reader, 1, &field)) {
            return XOR_PAST_END;
        }
        if (field == 0) {
            width = 64 - leading - trailing;
        } else {
            if (!bits_read(reader, 11, &field)) {
                return XOR_PAST_END;
            }
            leading = (int)(field >> 6);
            width = (int)(field & 0x3F) + 1;
            trailing = 64 - leading - width;
            if (trailing < 0) {
                return XOR_BAD_WINDOW;
            }
        }
        if (!bits_read(reader, width, &field)) {
            return XOR_PAST_END;
        }
        previous ^= field << trailing;
        store_bits(out, index, previous);
    }
    return NULL;
}

static const char *
chimp_decode(bit_reader *reader, double *out, npy_intp count)
{
    npy_uint64 previous, field;
    int previous_leading_rounded = 0, width, shift;
    npy_intp index;

    if (!bits_read(reader, 64, &previous)) {
        return XOR_PAST_END;
    }
    store_bits(out, 0, previous);
    for (index = 1; index < count; index++) {
        if (!bits_read(reader, 2, &field)) {
            return XOR_PAST_END;
        }
        if (field == 0) {
            store_bits(out, index, previous);
            continue;
        }
        shift = 0;
        if (field == 3) {
            if (!bits_read(reader, 9, &field)) {
                return XOR_PAST_END;
            }
            width = (int)(field & 0x3F);
            shift = 64 - chimp_leading_round[field >> 6] - width;
            if (shift < 0) {
                return XOR_BAD_WINDOW;
            }
            if (width == 0) {   /* no encoder writes it; an empty centre */
                store_bits(out, index, previous);
                continue;
            }
        } else {
            if (field == 2) {
                if (!bits_read(reader, 3, &field)) {
                    return XOR_PAST_END;
                }
                previous_leading_rounded = chimp_leading_round[field];
            }
            width = 64 - previous_leading_rounded;
        }
        if (!bits_read(reader, width, &field)) {
            return XOR_PAST_END;
        }
        previous ^= field << shift;
        store_bits(out, index, previous);
    }
    return NULL;
}

/* A Python int as a C long long, saturating instead of overflowing. */
static int
saturating_int64(PyObject *object, npy_int64 *out)
{
    int overflow = 0;
    const long long value = PyLong_AsLongLongAndOverflow(object, &overflow);

    if (value == -1 && overflow == 0 && PyErr_Occurred()) {
        return 0;
    }
    *out = overflow > 0 ? NPY_MAX_INT64
         : overflow < 0 ? NPY_MIN_INT64 : (npy_int64)value;
    return 1;
}

/* `count` values out of `view`, whose release is the caller's. */
static PyObject *
xor_decode_buffer(int scheme, const Py_buffer *view, npy_int64 bit_length,
                  npy_int64 count)
{
    const char *refusal;
    PyArrayObject *decoded;
    bit_reader reader;
    npy_intp dims[1];

    reader.data = (const unsigned char *)view->buf;
    reader.limit = (npy_int64)view->len * 8;
    if (bit_length < reader.limit) {
        reader.limit = bit_length;
    }
    reader.position = 0;
    if (count <= 0) {
        return raise_codec_error("count must be positive");
    }
    /* every value after the first costs at least one bit (gorilla) or two
     * (chimp): refuse a count the stream cannot hold before sizing the
     * output by it */
    if (reader.limit < 64 || (count - 1) > (reader.limit - 64)
            / (scheme == XOR_GORILLA ? 1 : 2)) {
        return raise_codec_error(XOR_PAST_END);
    }
    dims[0] = (npy_intp)count;
    decoded = (PyArrayObject *)PyArray_SimpleNew(1, dims, NPY_FLOAT64);
    if (decoded == NULL) {
        return NULL;
    }
    refusal = (scheme == XOR_GORILLA ? gorilla_decode : chimp_decode)(
        &reader, (double *)PyArray_DATA(decoded), dims[0]);
    if (refusal != NULL) {
        Py_DECREF(decoded);
        return raise_codec_error(refusal);
    }
    return (PyObject *)decoded;
}

static PyObject *
py_xor_decode(PyObject *self, PyObject *args)
{
    const char *scheme_name;
    PyObject *bit_length_object, *count_object, *decoded = NULL;
    Py_buffer view;
    npy_int64 bit_length, count;
    int scheme;

    if (!PyArg_ParseTuple(args, "sy*OO", &scheme_name, &view,
                          &bit_length_object, &count_object)) {
        return NULL;
    }
    scheme = xor_scheme(scheme_name);
    if (scheme >= 0 && saturating_int64(bit_length_object, &bit_length)
            && saturating_int64(count_object, &count)) {
        decoded = xor_decode_buffer(scheme, &view, bit_length, count);
    }
    PyBuffer_Release(&view);
    return decoded;
}

/* ------------------------------------------------------------------ */
/* build / threading introspection                                     */
/* ------------------------------------------------------------------ */

static PyObject *
py_build_info(PyObject *self, PyObject *args)
{
#if defined(__clang__)
    const char *compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
#define REPRO_STR2(x) #x
#define REPRO_STR(x) REPRO_STR2(x)
    const char *compiler = "gcc " REPRO_STR(__GNUC__) "."
        REPRO_STR(__GNUC_MINOR__) "." REPRO_STR(__GNUC_PATCHLEVEL__);
#elif defined(_MSC_VER)
    const char *compiler = "msvc";
#else
    const char *compiler = "unknown";
#endif
#ifdef _OPENMP
    const int openmp = 1;
    const int threads = omp_get_max_threads();
#else
    const int openmp = 0;
    const int threads = 1;
#endif
    return Py_BuildValue("{s:s, s:i, s:i}", "compiler", compiler,
                         "openmp", openmp, "max_threads", threads);
}

static PyObject *
py_set_num_threads(PyObject *self, PyObject *args)
{
    int n;

    if (!PyArg_ParseTuple(args, "i", &n)) {
        return NULL;
    }
    if (n <= 0) {
        PyErr_SetString(PyExc_ValueError, "thread count must be positive");
        return NULL;
    }
#ifdef _OPENMP
    omp_set_num_threads(n);
#endif
    Py_RETURN_NONE;
}

static PyObject *
py_get_max_threads(PyObject *self, PyObject *args)
{
#ifdef _OPENMP
    return PyLong_FromLong(omp_get_max_threads());
#else
    return PyLong_FromLong(1);
#endif
}

/* ------------------------------------------------------------------ */
/* module                                                              */
/* ------------------------------------------------------------------ */

static PyMethodDef nativecore_methods[] = {
    {"segment_impacts", py_segment_impacts, METH_VARARGS,
     "Fused ReHeap kernel: gaps in, impacts out (None when over budget)."},
    {"reheap", py_reheap, METH_VARARGS,
     "The whole ReHeap step: removed index in, heap re-keyed in place."},
    {"run_loop", py_run_loop, METH_VARARGS,
     "The greedy loop on the caller's arrays, until a stop or a yield."},
    {"gap_deltas", py_gap_deltas, METH_VARARGS,
     "Linear re-interpolation deltas for positions inside (left, right)."},
    {"heap_heapify", py_heap_heapify, METH_VARARGS,
     "Floyd heapify of the first `size` slots."},
    {"heap_push", py_heap_push, METH_VARARGS,
     "Push one (item, key); returns the new size."},
    {"heap_pop", py_heap_pop, METH_VARARGS,
     "Pop the minimum; returns (item, key, new_size)."},
    {"heap_pop_many", py_heap_pop_many, METH_VARARGS,
     "Pop up to k entries into the out arrays; returns the new size."},
    {"heap_peek_many", py_heap_peek_many, METH_VARARGS,
     "Non-destructive k-smallest walk into the out arrays; returns count."},
    {"heap_remove", py_heap_remove, METH_VARARGS,
     "Remove an item if present; returns the new size."},
    {"heap_update", py_heap_update, METH_VARARGS,
     "Update an item's key (push if absent); returns the new size."},
    {"heap_update_present", py_heap_update_present, METH_VARARGS,
     "Sequential per-item updates of known-present items."},
    {"heap_push_many", py_heap_push_many, METH_VARARGS,
     "Push pre-validated absent items; returns the new size."},
    {"reduceat_check", py_reduceat_check, METH_VARARGS,
     "Per-segment sums under the module's np.add.reduceat model."},
    {"rowwise_check", py_rowwise_check, METH_VARARGS,
     "Per-row deviations under the module's ResolvedMetric.rowwise model."},
    {"stable_order_check", py_stable_order_check, METH_VARARGS,
     "Slot order under the module's np.argsort(kind='stable') model."},
    {"lagdot_check", py_lagdot_check, METH_VARARGS,
     "Lag sums of one contiguous change under the module's model."},
    {"crc32c", py_crc32c, METH_VARARGS,
     "CRC32C of a buffer, continuing from an optional running value."},
    {"xor_encode", py_xor_encode, METH_VARARGS,
     "Gorilla/Chimp bit stream of a float64 series: (payload, bit_length)."},
    {"xor_decode", py_xor_decode, METH_VARARGS,
     "The float64 series of a Gorilla/Chimp payload; CodecError past its end."},
    {"fma_probe", py_fma_probe, METH_VARARGS,
     "a*b - a*b; non-zero iff the build contracted to FMA."},
    {"build_info", py_build_info, METH_NOARGS,
     "Compiler / OpenMP metadata of this build."},
    {"set_num_threads", py_set_num_threads, METH_VARARGS,
     "Set the OpenMP thread count (no-op without OpenMP)."},
    {"get_max_threads", py_get_max_threads, METH_NOARGS,
     "Current OpenMP max thread count (1 without OpenMP)."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef nativecore_module = {
    PyModuleDef_HEAD_INIT,
    "_nativecore",
    "Compiled CAMEO hot-path kernels (bit-identical to the NumPy tier).",
    -1,
    nativecore_methods
};

PyMODINIT_FUNC
PyInit__nativecore(void)
{
    PyObject *module;

    import_array();
    crc32c_init();
    module = PyModule_Create(&nativecore_module);
    if (module != NULL && PyModule_AddIntConstant(
            module, "HEAP_REBUILD_FRACTION", HEAP_REBUILD_FRACTION) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
