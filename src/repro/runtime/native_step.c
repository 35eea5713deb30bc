/*
 * Native fused step of a fixed-point batch (repro.runtime.native).
 *
 * One call advances every replica of a BatchedNetwork by one 1 ms step:
 * the integer CSR synaptic scatter, the current sum at scale 2^16, the
 * DCU decay, the one Q15.16 quantiser and all 2^h Izhikevich substeps.
 * It follows the NumPy step of repro/runtime/batch.py term for term and
 * in the same order (BatchedNetwork._fixed_isyn_raw, then
 * _FixedBatchKernel.substep), so both paths are bit-identical; the
 * NumPy step stays the reference.
 *
 * Rules that keep it bit-exact and free of undefined behaviour:
 *   - Built with -O2 -std=c99 -fPIC -shared -fwrapv -ffp-contract=off:
 *     signed overflow wraps as NumPy's int64 does, and no multiply-add
 *     is fused.  Never -ffast-math, never -march=native.
 *   - No negative value is ever shifted left (undefined in C): Q7.8 is
 *     promoted to 16 fractional bits by multiplying with 256.
 *   - >> of a negative int64 is an arithmetic shift on GCC and Clang
 *     (implementation-defined in C99); the NumPy step relies on the same
 *     semantics.
 *   - Floating point appears only in the quantiser; a value is cast to
 *     int64 only after the float-side clip, and a NaN current returns
 *     IZH_NAN_CURRENT instead of reaching the cast.
 *
 * The constants mirror repro.sim.npu (_COEFF_004_Q4_11, _CONST_140_ACC,
 * _VTH_RAW) and repro.fixedpoint (Q7_8, Q15_16); the randomized suite in
 * tests/runtime/test_native_step.py pins them against the reference.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#define IZH_OK 0
#define IZH_NAN_CURRENT 1

#define SYN_NONE 0
#define SYN_SHARED 1
#define SYN_FLAT 2

#define Q7_8_MIN (-32768)
#define Q7_8_MAX 32767
#define Q15_16_MIN (-2147483647LL - 1)
#define Q15_16_MAX 2147483647LL
#define COEFF_004_Q4_11 82      /* 0.04 in Q4.11 */
#define CONST_140_ACC 9175040   /* 140 with 16 fractional bits */
#define VTH_RAW 7680            /* 30 mV in Q7.8 */

/* The per-batch pointer block; every field is 8 bytes, so the ctypes
 * mirror in native.py has no padding to get wrong.  Arrays are C-order
 * (B, N) int64 unless noted. */
typedef struct {
    int64_t cells;          /* B * N */
    int64_t size;           /* N */
    int64_t h_shift;        /* 2^h_shift substeps per step */
    int64_t pin_voltage;
    int64_t decay;          /* current_mode == "decay" */
    int64_t shift_count;    /* len(SHIFT_SELECTIONS[tau_select]) */
    int64_t shifts[4];
    int64_t synapses;       /* SYN_NONE, SYN_SHARED or SYN_FLAT */
    const int64_t *indptr;  /* CSC column pointers (N + 1, or B * N + 1 when flat) */
    const int64_t *indices; /* target rows: local (shared) or global (flat) */
    const int64_t *weights; /* raw Q15.16 weights */
    int64_t *syn;           /* scratch, all zero between calls */
    int64_t *isyn;          /* raw Q15.16 current feed (state) */
    int64_t *v;             /* Q7.8 membrane (state) */
    int64_t *u;             /* Q7.8 recovery (state) */
    const int64_t *a;       /* Q4.11 */
    const int64_t *b;       /* Q4.11 */
    const int64_t *c;       /* Q7.8 */
    const int64_t *d;       /* Q4.11 */
} izh_batch;

static int64_t clip(int64_t x, int64_t lo, int64_t hi)
{
    return x < lo ? lo : (x > hi ? hi : x);
}

/* exact-int: the synaptic scatter (_SynapseBatch.propagate_raw).  The
 * NumPy step sums in float64 through bincount; every partial sum is an
 * integer below 2^53 there, so the int64 sums are equal. */
static void scatter(const izh_batch *k, const unsigned char *last_fired)
{
    const int64_t cells = k->cells, size = k->size;
    const int64_t *indptr = k->indptr, *indices = k->indices, *w = k->weights;
    int64_t *syn = k->syn;
    int64_t col = 0;
    while (col < cells) {
        uint64_t word;
        if (col + 8 <= cells) {
            memcpy(&word, last_fired + col, sizeof word);
            if (word == 0) {    /* 3% of neurons fire: skip quiet runs */
                col += 8;
                continue;
            }
        }
        const int64_t end = col + 8 <= cells ? col + 8 : cells;
        for (; col < end; ++col) {
            if (!last_fired[col])
                continue;
            int64_t column = col, base = 0;
            if (k->synapses == SYN_SHARED) {
                column = col % size;
                base = col - column;
            }
            for (int64_t j = indptr[column]; j < indptr[column + 1]; ++j)
                syn[base + indices[j]] += w[j];
        }
    }
}

/* The current stage (BatchedNetwork._fixed_isyn_raw): decay, the sum at
 * scale 2^16 and the quantiser (_quantize_scaled_q15_16).  Leaves the
 * syn scratch zeroed, also on the NaN return. */
static int current(const izh_batch *k, const double *restrict external)
{
    const int64_t cells = k->cells, h = k->h_shift, decay = k->decay;
    const int64_t shift_count = k->shift_count;
    int64_t shifts[4];
    memcpy(shifts, k->shifts, sizeof shifts);
    int64_t *restrict isyn = k->isyn, *restrict syn = k->syn;
    for (int64_t i = 0; i < cells; ++i) {
        double z = external[i] * 65536.0;
        if (decay) {
            /* exact-int: decay_current_raw, I - (approx(I / tau) >> h). */
            const int64_t raw = isyn[i];
            int64_t delta = raw >> shifts[0];
            for (int64_t s = 1; s < shift_count; ++s)
                delta += raw >> shifts[s];
            z += (double)clip(raw - (delta >> h), Q15_16_MIN, Q15_16_MAX);
        }
        z += (double)syn[i];
        syn[i] = 0;
        if (isnan(z)) {
            memset(syn + i, 0, (size_t)(cells - i) * sizeof *syn);
            return IZH_NAN_CURRENT;
        }
        /* Round half away from zero: copysign(floor(|z| + 0.5), z), then
         * clip to Q15.16.  For 0.5 <= r < 2^31 truncation is floor, and
         * any r >= 2^31 (inf included) saturates, so the cast only ever
         * sees an in-range value. */
        const double r = fabs(z) + 0.5;
        const int64_t q = r < 2147483648.0 ? (int64_t)r : Q15_16_MAX + 1;
        isyn[i] = z < 0.0 ? -q : (q > Q15_16_MAX ? Q15_16_MAX : q);
    }
    return IZH_OK;
}

/* exact-int: 2^h substeps of _FixedBatchKernel.substep
 * (repro.sim.npu.izhikevich_update_raw), spike reset and pin included.
 * Substep-major like the NumPy step: the neurons of one substep are
 * independent, which keeps the CPU's pipelines full.  Without the pin
 * the floor is Q7_8_MIN, which no clipped v is below, so the floor is
 * applied unconditionally (a branch-free max). */
static void substeps(const izh_batch *k, unsigned char *restrict fired)
{
    const int64_t cells = k->cells, h = k->h_shift, count = (int64_t)1 << k->h_shift;
    const int pin = k->pin_voltage != 0;
    const int64_t *restrict isyn = k->isyn, *restrict a = k->a, *restrict b = k->b;
    const int64_t *restrict c = k->c, *restrict d = k->d;
    int64_t *restrict vs = k->v, *restrict us = k->u;
    memset(fired, 0, (size_t)cells);
    for (int64_t s = 0; s < count; ++s) {
        for (int64_t i = 0; i < cells; ++i) {
            const int64_t v0 = vs[i], v_acc = v0 * 256, u_acc = us[i] * 256;
            const int64_t dv = ((((v0 * v0) * COEFF_004_Q4_11) >> 11)
                                + 5 * v_acc + CONST_140_ACC - u_acc + isyn[i]) >> h;
            /* (a (b v >> 3 - u)) >> 11 >> h as one arithmetic shift. */
            const int64_t du = ((((b[i] * v0) >> 3) - u_acc) * a[i]) >> (11 + h);
            int64_t v = clip((v_acc + dv) >> 8, Q7_8_MIN, Q7_8_MAX);
            int64_t u = clip((u_acc + du) >> 8, Q7_8_MIN, Q7_8_MAX);
            if (v >= VTH_RAW) {                 /* rare: a few % of substeps */
                fired[i] = 1;
                u = clip(u + (d[i] >> 3), Q7_8_MIN, Q7_8_MAX);  /* d: Q4.11 -> Q7.8 */
                v = c[i];
            }
            const int64_t floor_v = pin ? c[i] : Q7_8_MIN;
            vs[i] = v < floor_v ? floor_v : v;
            us[i] = u;
        }
    }
}

/* One step of every replica.  `external` is the (B, N) float64 drive,
 * `last_fired` and `fired` are (B, N) bool masks.  On IZH_NAN_CURRENT
 * v, u and `fired` are untouched; the current feed is not. */
int izh_step(const izh_batch *k, const double *external,
             const unsigned char *last_fired, unsigned char *fired)
{
    if (k->synapses != SYN_NONE)
        scatter(k, last_fired);
    if (current(k, external) != IZH_OK)
        return IZH_NAN_CURRENT;
    substeps(k, fired);
    return IZH_OK;
}
