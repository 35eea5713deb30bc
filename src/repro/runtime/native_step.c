/*
 * Native fused step of a fixed-point batch (repro.runtime.native).
 *
 * One call advances every replica of a BatchedNetwork by one 1 ms step:
 * the annealed drive with its Gaussian noise (when the batch's drive is a
 * PortfolioAnnealedDrive), the integer CSR synaptic scatter, the current
 * sum at scale 2^16, the DCU decay, the one Q15.16 quantiser and all 2^h
 * Izhikevich substeps.  It follows the NumPy step of
 * repro/runtime/batch.py term for term and in the same order
 * (PortfolioAnnealedDrive.__call__, BatchedNetwork._fixed_isyn_raw, then
 * _FixedBatchKernel.substep), so both paths are bit-identical; the NumPy
 * step stays the reference.
 *
 * izh_books then updates a SlotEngine's per-row books from the step's
 * fired mask (repro/runtime/slots.py, whose NumPy books stay the
 * reference).
 *
 * Rules that keep it bit-exact and free of undefined behaviour:
 *   - Built with -O3 -std=c99 -fPIC -shared -fwrapv -ffp-contract=off
 *     (FLAGS in native.py): signed overflow wraps as NumPy's int64 does,
 *     and no multiply-add is fused, in any clone.  Never -ffast-math,
 *     never -march=native.
 *   - The per-cell loops store unconditionally and test nothing but
 *     loop-invariant values (which -O3 moves out of the loop) and one
 *     store-free if (which the vectoriser turns into selects); a NaN is
 *     an OR flag.  So -O3 vectorises them, and the default code keeps a
 *     branch that is rarely taken.  Where ifunc exists (x86-64 with
 *     glibc, GCC 12 or later) each one carries IZH_VECTOR: GCC compiles
 *     it twice, for x86-64-v4 (AVX-512) and for the default target, and
 *     the resolver picks one by CPUID when the library is loaded, so a
 *     cached library runs on any x86-64 host.  Every lane does the scalar
 *     code's exact integer or exact IEEE arithmetic, so both clones are
 *     bit-identical.
 *   - No negative value is ever shifted left (undefined in C): Q7.8 is
 *     promoted to 16 fractional bits by multiplying with 256.
 *   - >> of a negative int64 is an arithmetic shift on GCC and Clang
 *     (implementation-defined in C99); the NumPy step relies on the same
 *     semantics.
 *   - Floating point appears only in the drive and the quantiser; a
 *     value is cast to int64 only after the float-side clip, and a NaN
 *     current is never cast: it fails the clip's comparison.
 *   - The anneal period is at least 1 (AnnealedNoiseSpec checks it), so
 *     % never divides by zero.
 *   - A step either commits every replica's new current feed or none: the
 *     quantiser writes into the syn scratch, which is copied into isyn
 *     before the substep passes.  A NaN current still finishes the pass,
 *     so every replica's noise stream advances by one step, as it does on
 *     the NumPy step and in the sequential closures.
 *
 * The normals come from each replica's own NumPy bit generator through
 * normal(), an inline copy of the fast path of NumPy's
 * random_standard_normal (the Marsaglia-Tsang ziggurat of
 * numpy/random/src/distributions/distributions.c): one next_uint64 per
 * value, the low byte picks the layer, bit 8 is the sign and the next 52
 * bits the magnitude.  Its tables are not exported, so izh_probe reads
 * them back through NumPy's own function; every draw that misses the
 * fast path is replayed through that same function, linked from NumPy's
 * libnpyrandom.a.  The loader checks izh_normals against
 * Generator.standard_normal before it binds anything.
 *
 * The constants mirror repro.sim.npu (_COEFF_004_Q4_11, _CONST_140_ACC,
 * _VTH_RAW) and repro.fixedpoint (Q7_8, Q15_16); the randomized suite in
 * tests/runtime/test_native_step.py pins them against the reference.
 */

#include <math.h>
#include <setjmp.h>
#include <stdint.h>
#include <string.h>

#include <numpy/random/bitgen.h>

/* numpy/random/distributions.h declares it beside Python's headers. */
double random_standard_normal(bitgen_t *bitgen_state);

#if defined(__x86_64__) && defined(__GLIBC__) && !defined(__clang__) && __GNUC__ >= 12
#define IZH_VECTOR __attribute__((target_clones("arch=x86-64-v4", "default")))
#else
#define IZH_VECTOR
#endif

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

#define ZIG_LAYERS 256
#define ZIG_MAGNITUDE 0x000fffffffffffffULL   /* 52 bits */
/* Calls one probe may make before it is abandoned (NumPy's makes 3). */
#define PROBE_MAX_CALLS 64

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
    /* The annealed drive (PortfolioAnnealedDrive), or annealed == 0 when
     * the caller passes the drive current instead. */
    int64_t annealed;
    const double *drive;         /* (B, N) float64 */
    const unsigned char *mask;   /* (B, N) bool: free neurons */
    const double *sigma;         /* (B,) float64 */
    const int64_t *period;       /* (B,) int64, >= 1 */
    const double *anneal_floor;  /* (B,) float64 */
    const int64_t *offset;       /* (B,) int64 step offsets */
    bitgen_t *const *rngs;       /* (B,) each row's bit generator */
    double *noise;               /* (N,) float64 scratch */
} izh_batch;

/* A SlotEngine's books (slots._BOOKS) for R live rows of N neurons, and
 * the per-row outputs of the last izh_books call; all 8-byte fields, as
 * izh_batch.  Arrays are C-order, int64 unless noted. */
typedef struct {
    int64_t rows;               /* R */
    int64_t size;               /* N */
    int64_t window;             /* history ring length, >= 1 */
    int64_t check_interval;     /* >= 1 */
    const int64_t *offsets;     /* (R,) admission steps */
    const int64_t *budgets;     /* (R,) local step budgets */
    unsigned char *history;     /* (window, R, N) bool */
    int64_t *window_counts;     /* (R, N) */
    int64_t *last_spike;        /* (R, N) local step, or -1 */
    int64_t *row_spikes;        /* (R,) */
    int64_t *local;             /* (R,) out: local steps */
    unsigned char *at_check;    /* (R,) bool out */
    unsigned char *at_budget;   /* (R,) bool out */
} izh_books_block;

static int64_t clip(int64_t x, int64_t lo, int64_t hi)
{
    return x < lo ? lo : (x > hi ? hi : x);
}

/* ------------------------------------------------------------------ */
/* Standard normals: NumPy's ziggurat, fast path inline               */
/* ------------------------------------------------------------------ */

/* ki_double and wi_double of NumPy's ziggurat, filled by izh_probe. */
static uint64_t zig_k[ZIG_LAYERS];
static double zig_w[ZIG_LAYERS];

/* The replay generator: hands NumPy's sampler the word normal() already
 * drew, then forwards every later draw to the row's own generator. */
typedef struct {
    bitgen_t *source;
    uint64_t word;
    int fresh;
} replay_state;

static uint64_t replay_uint64(void *st)
{
    replay_state *r = st;
    if (r->fresh) {
        r->fresh = 0;
        return r->word;
    }
    return r->source->next_uint64(r->source->state);
}

static uint32_t replay_uint32(void *st)
{
    replay_state *r = st;
    return r->source->next_uint32(r->source->state);
}

static double replay_double(void *st)
{
    replay_state *r = st;
    return r->source->next_double(r->source->state);
}

static uint64_t replay_raw(void *st)
{
    replay_state *r = st;
    return r->source->next_raw(r->source->state);
}

/* One draw of Generator.standard_normal from `bitgen`, whose fields
 * `copy` holds in registers.  The fast path returns rabs * w[idx] with the
 * word's sign bit moved into the IEEE sign bit: the same value as NumPy's
 * `if (sign) x = -x`, without a branch that is mispredicted half the
 * time.  Counts replayed draws in *slow. */
static inline double normal(const bitgen_t *copy, bitgen_t *bitgen, int64_t *slow)
{
    const uint64_t word = copy->next_uint64(copy->state);
    const unsigned idx = (unsigned)(word & 0xff);
    const uint64_t rabs = (word >> 9) & ZIG_MAGNITUDE;
    if (rabs < zig_k[idx]) {
        double x = (double)rabs * zig_w[idx];
        uint64_t bits;
        memcpy(&bits, &x, sizeof bits);
        bits ^= (word & 0x100) << 55;
        memcpy(&x, &bits, sizeof x);
        return x;
    }
    replay_state r = {bitgen, word, 1};
    bitgen_t replay = {&r, replay_uint64, replay_uint32, replay_double, replay_raw};
    ++*slow;
    return random_standard_normal(&replay);
}

/* n successive draws of Generator.standard_normal into out; returns how
 * many missed the fast path and were replayed through NumPy. */
int64_t izh_normals(bitgen_t *bitgen, int64_t n, double *out)
{
    /* NumPy never rewrites a bitgen_t, and a copy whose address does not
     * escape stays in registers across the draws' indirect calls. */
    const bitgen_t copy = *bitgen;
    int64_t slow = 0;
    for (int64_t i = 0; i < n; ++i)
        out[i] = normal(&copy, bitgen, &slow);
    return slow;
}

/* The probe generator: its first word is scripted, and any further call
 * means the sampler left its fast path.  Later words (0: layer 0, zero
 * magnitude) and doubles (0.5) let NumPy's slow paths return at once. */
typedef struct {
    uint64_t word;
    int64_t calls;
} probe_state;

static jmp_buf probe_escape;

static void probe_count(probe_state *p)
{
    if (++p->calls > PROBE_MAX_CALLS)
        longjmp(probe_escape, 1);   /* not the sampler izh_probe knows */
}

static uint64_t probe_uint64(void *st)
{
    probe_state *p = st;
    const uint64_t word = p->calls == 0 ? p->word : 0;
    probe_count(p);
    return word;
}

static uint32_t probe_uint32(void *st)
{
    probe_count(st);
    return 0;
}

static double probe_double(void *st)
{
    probe_count(st);
    return 0.5;
}

static uint64_t probe_raw(void *st)
{
    probe_count(st);
    return 0;
}

/* Whether NumPy's sampler returns the positive word (idx, rabs) on its
 * fast path; its value goes to *x. */
static int probe_fast(unsigned idx, uint64_t rabs, double *x)
{
    probe_state p = {(rabs << 9) | idx, 0};
    bitgen_t probe = {&p, probe_uint64, probe_uint32, probe_double, probe_raw};
    *x = random_standard_normal(&probe);
    return p.calls == 1;
}

/* Kept out of izh_probe's frame, so no local is live across its longjmp. */
static void probe_tables(void)
{
    for (unsigned idx = 0; idx < ZIG_LAYERS; ++idx) {
        uint64_t lo = 0, hi = ZIG_MAGNITUDE + 1;
        double x;
        while (lo < hi) {
            const uint64_t mid = lo + (hi - lo) / 2;
            if (probe_fast(idx, mid, &x))
                lo = mid + 1;
            else
                hi = mid;
        }
        zig_k[idx] = lo;
        zig_w[idx] = 0.0;   /* read only for magnitude 0 when k == 1 */
        if (lo > 1 && probe_fast(idx, 1, &x))
            zig_w[idx] = x;
    }
}

/* Read NumPy's fast-path tables back through its sampler: k[idx] is the
 * first magnitude that leaves the fast path (a bisection), w[idx] the
 * value of magnitude 1.  Returns 0, or -1 when a probe did not return
 * within PROBE_MAX_CALLS draws.  The loader's self-check catches any
 * other departure from the ziggurat assumed here. */
int izh_probe(void)
{
    if (setjmp(probe_escape))
        return -1;
    probe_tables();
    return 0;
}

/* ------------------------------------------------------------------ */
/* The step                                                           */
/* ------------------------------------------------------------------ */

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

/* Row `row` of PortfolioAnnealedDrive.__call__(step), term for term:
 * noise = n * amplitude; noise *= mask; drive + noise. */
static IZH_VECTOR void drive_row(int64_t size, double amplitude, const double *restrict drive,
                                 const unsigned char *restrict mask, double *restrict noise)
{
    for (int64_t i = 0; i < size; ++i) {
        double n = noise[i] * amplitude;
        n *= (double)mask[i];
        noise[i] = drive[i] + n;
    }
}

/* The drive current of row `row` at `step` into k->noise: the floor-mod
 * phase, the amplitude, the row's normals, then drive_row. */
static const double *annealed_row(const izh_batch *k, int64_t row, int64_t step)
{
    const int64_t size = k->size, period = k->period[row];
    int64_t local = (step - k->offset[row]) % period;
    if (local < 0)
        local += period;
    const double phase = (double)local / (double)period;
    const double amplitude = k->sigma[row] * (1.0 - (1.0 - k->anneal_floor[row]) * phase);
    izh_normals(k->rngs[row], size, k->noise);
    drive_row(size, amplitude, k->drive + row * size, k->mask + row * size, k->noise);
    return k->noise;
}

/* One row of the current stage (BatchedNetwork._fixed_isyn_raw): the
 * drive, the decayed feed (when `decay`) and the synaptic sum at scale
 * 2^16, then the quantiser (_quantize_scaled_q15_16), into syn; isyn is
 * only read.  `decay` and the selector's shift count are loop-invariant
 * tests, which -O3 moves out of the loop, so every version of the loop
 * is branch-free.  Returns whether any sum was NaN. */
static IZH_VECTOR int current_row(int64_t size, const double *restrict ext,
                                  const int64_t *restrict isyn, int64_t *restrict syn,
                                  int64_t decay, int64_t count, const int64_t *shifts, int64_t h)
{
    const int64_t s0 = shifts[0], s1 = shifts[1], s2 = shifts[2], s3 = shifts[3];
    int nan = 0;
    for (int64_t j = 0; j < size; ++j) {
        double z = ext[j] * 65536.0;
        if (decay) {
            /* exact-int: decay_current_raw, I - (approx(I / tau) >> h). */
            const int64_t raw = isyn[j];
            int64_t delta = raw >> s0;
            if (count > 1)
                delta += raw >> s1;
            if (count > 2)
                delta += raw >> s2;
            if (count > 3)
                delta += raw >> s3;
            z += (double)clip(raw - (delta >> h), Q15_16_MIN, Q15_16_MAX);
        }
        z += (double)syn[j];
        nan |= z != z;
        /* Round half away from zero: copysign(floor(|z| + 0.5), z), then
         * clip to Q15.16.  For 0.5 <= r < 2^31 truncation is floor; any
         * larger r (inf and NaN included) is held at 2^31 before the
         * cast, so the cast only ever sees an in-range value. */
        const double r = fabs(z) + 0.5;
        const int64_t q = (int64_t)(r < 2147483648.0 ? r : 2147483648.0);
        syn[j] = z < 0.0 ? -q : (q < Q15_16_MAX ? q : Q15_16_MAX);
    }
    return nan;
}

/* The current stage, row by row, into the syn scratch.  On a NaN the
 * pass still runs to its end (the drive's streams advance) and the
 * scratch is zeroed again. */
static int current(const izh_batch *k, int64_t step, const double *external)
{
    const int64_t size = k->size, rows = k->cells / k->size;
    int nan = 0;
    for (int64_t row = 0; row < rows; ++row) {
        const double *ext = k->annealed ? annealed_row(k, row, step) : external + row * size;
        nan |= current_row(size, ext, k->isyn + row * size, k->syn + row * size, k->decay,
                           k->shift_count, k->shifts, k->h_shift);
    }
    if (nan) {
        memset(k->syn, 0, (size_t)k->cells * sizeof *k->syn);
        return IZH_NAN_CURRENT;
    }
    return IZH_OK;
}

/* exact-int: one substep of _FixedBatchKernel.substep
 * (repro.sim.npu.izhikevich_update_raw) over every cell; ORs the spikes
 * into `fired`.  The spike reset stores nothing, so the vectoriser turns
 * it into selects, while the default code keeps a branch that a few % of
 * substeps take (as selects it timed slower in both).  Without the pin
 * the floor is Q7_8_MIN, which no clipped v is below, so the floor is
 * applied unconditionally. */
static IZH_VECTOR void substep(int64_t cells, int64_t h, int64_t pin,
                               const int64_t *restrict a, const int64_t *restrict b,
                               const int64_t *restrict c, const int64_t *restrict d,
                               const int64_t *restrict isyn, int64_t *restrict vs,
                               int64_t *restrict us, unsigned char *restrict fired)
{
    for (int64_t i = 0; i < cells; ++i) {
        const int64_t v0 = vs[i], v_acc = v0 * 256, u_acc = us[i] * 256;
        const int64_t dv = ((((v0 * v0) * COEFF_004_Q4_11) >> 11)
                            + 5 * v_acc + CONST_140_ACC - u_acc + isyn[i]) >> h;
        /* (a (b v >> 3 - u)) >> 11 >> h as one arithmetic shift. */
        const int64_t du = ((((b[i] * v0) >> 3) - u_acc) * a[i]) >> (11 + h);
        int64_t v = clip((v_acc + dv) >> 8, Q7_8_MIN, Q7_8_MAX);
        int64_t u = clip((u_acc + du) >> 8, Q7_8_MIN, Q7_8_MAX);
        const int spike = v >= VTH_RAW;
        if (spike) {
            u = clip(u + (d[i] >> 3), Q7_8_MIN, Q7_8_MAX);  /* d: Q4.11 -> Q7.8 */
            v = c[i];
        }
        const int64_t floor_v = pin ? c[i] : Q7_8_MIN;
        vs[i] = v < floor_v ? floor_v : v;
        us[i] = u;
        fired[i] |= (unsigned char)spike;
    }
}

/* One step of every replica at global step `step`.  `external` is the
 * (B, N) float64 drive current, unread (and may be NULL) when the block
 * carries the annealed drive; `last_fired` and `fired` are (B, N) bool
 * masks.  On IZH_NAN_CURRENT v, u, isyn and `fired` are untouched, and
 * every annealed row has drawn its step's normals. */
int izh_step(const izh_batch *k, int64_t step, const double *external,
             const unsigned char *last_fired, unsigned char *fired)
{
    const int64_t cells = k->cells, count = (int64_t)1 << k->h_shift;
    if (k->synapses != SYN_NONE)
        scatter(k, last_fired);
    if (current(k, step, external) != IZH_OK)
        return IZH_NAN_CURRENT;
    /* Commit the new current feed; the scratch is zero between calls. */
    memcpy(k->isyn, k->syn, (size_t)cells * sizeof *k->syn);
    memset(k->syn, 0, (size_t)cells * sizeof *k->syn);
    memset(fired, 0, (size_t)cells);
    /* Substep-major like the NumPy step: the cells of one substep are
     * independent, which keeps the vector lanes full. */
    for (int64_t s = 0; s < count; ++s)
        substep(cells, k->h_shift, k->pin_voltage != 0, k->a, k->b, k->c, k->d, k->isyn,
                k->v, k->u, fired);
    return IZH_OK;
}

/* ------------------------------------------------------------------ */
/* The slot books                                                     */
/* ------------------------------------------------------------------ */

/* One row of SlotEngine.step's books at local step `local`: the history
 * ring slot, the window counts and the last spike; returns the row's
 * spikes. */
static IZH_VECTOR int64_t books_row(int64_t size, int64_t local,
                                    const unsigned char *restrict fired,
                                    unsigned char *restrict history,
                                    int64_t *restrict counts, int64_t *restrict last)
{
    int64_t spikes = 0;
    for (int64_t j = 0; j < size; ++j) {
        const int64_t f = fired[j];
        counts[j] += f - history[j];
        history[j] = fired[j];
        last[j] = f ? local : last[j];
        spikes += f;
    }
    return spikes;
}

/* SlotEngine.step's books after global step `step` (`fired` is the
 * step's (R, N) bool mask): each row's local step, its history ring
 * slot local % window, window counts, last spike and spike total, and
 * whether it is at a check or at its budget.  Returns how many rows are
 * at a check. */
int64_t izh_books(const izh_books_block *k, int64_t step, const unsigned char *fired)
{
    const int64_t rows = k->rows, size = k->size;
    int64_t checks = 0;
    for (int64_t row = 0; row < rows; ++row) {
        const int64_t local = step - k->offsets[row];
        int64_t slot = local % k->window;
        if (slot < 0)
            slot += k->window;
        k->row_spikes[row] += books_row(size, local, fired + row * size,
                                        k->history + (slot * rows + row) * size,
                                        k->window_counts + row * size,
                                        k->last_spike + row * size);
        const int at_budget = local >= k->budgets[row];
        const int at_check = local % k->check_interval == 0 || at_budget;
        k->local[row] = local;
        k->at_budget[row] = (unsigned char)at_budget;
        k->at_check[row] = (unsigned char)at_check;
        checks += at_check;
    }
    return checks;
}
