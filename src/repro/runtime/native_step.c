/*
 * Native fused step of a fixed-point batch (repro.runtime.native).
 *
 * One call advances every replica of a BatchedNetwork by one 1 ms step:
 * the annealed drive with its Gaussian noise (when the batch's drive is a
 * PortfolioAnnealedDrive), the integer synaptic scatter, the current sum
 * at scale 2^16, the DCU decay, the one Q15.16 quantiser and all 2^h
 * Izhikevich substeps.  The scatter reads one integer grid: the CSC
 * columns of the distinct connectivity structures the batch last built
 * it from, with targets local to a row, and per row the column base of
 * that row's structure, so rows of one structure share its columns.  It follows the NumPy step of
 * repro/runtime/batch.py term for term and in the same order
 * (PortfolioAnnealedDrive.__call__, BatchedNetwork._fixed_isyn_raw, then
 * _FixedBatchKernel.substep), so both paths are bit-identical; the NumPy
 * step stays the reference.
 *
 * izh_books then updates a SlotEngine's per-row books from the step's
 * fired mask (repro/runtime/slots.py, whose NumPy books stay the
 * reference) and, at a check, decodes every row whose decoder declared a
 * winner-take-all plan (slots.DecodePlan) and that is not at its budget:
 * it writes the verdict of the one Python decode
 * (repro.csp.solver.decode_assignment + ConstraintGraph.is_solution),
 * so only the rows that solved, spent their budget or have no plan are
 * decoded in Python, one row at a time.
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
 *   - Floating point appears only in the drive, the quantiser and the
 *     decode's score; a value is cast to int64 only after the float-side
 *     clip, and a NaN current is never cast: it fails the clip's
 *     comparison.
 *   - The decode's score is the reference's float64 expression term for
 *     term: counts + last / scale, each int64 converted exactly as NumPy
 *     converts it, scale = top + 1.0 for a row whose largest last spike
 *     top is positive and +inf otherwise (never a division by zero).  The
 *     scores are finite, so a strict > keeps argmax's first index on a
 *     tie.  The decode reads only what the plan declared: clamp groups
 *     and positions inside the row, and conflict targets below N.
 *   - The anneal period is at least 1 (AnnealedNoiseSpec checks it), so
 *     % never divides by zero.
 *   - Every live row's base is the first column of its structure in the
 *     grid the block points at: the batch rebuilds the grid, and writes
 *     every row's base, whenever an admission brings a structure the grid
 *     lacks, so the scatter never reads past the grid.
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

/* izh_books' per-row verdicts: the row was not decoded (not at a check,
 * at its budget or without a plan), or the decode did not or did solve. */
#define IZH_UNDECODED (-1)
#define IZH_UNSOLVED 0
#define IZH_SOLVED 1

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
 * (B, N) int64 unless noted, B rows of capacity: a call touches the
 * first `rows`, the live rows. */
typedef struct {
    int64_t size;           /* N */
    int64_t h_shift;        /* 2^h_shift substeps per step */
    int64_t pin_voltage;
    int64_t decay;          /* current_mode == "decay" */
    int64_t shift_count;    /* len(SHIFT_SELECTIONS[tau_select]) */
    int64_t shifts[4];
    /* The integer grid; indptr is NULL when the batch has no synapses. */
    const int64_t *indptr;  /* CSC column pointers, N per structure, then one */
    const int64_t *indices; /* each synapse's target within its row */
    const int64_t *weights; /* raw Q15.16 weights */
    const int64_t *base;    /* (B,) each row's first column in indptr */
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

/* A row's decode plan (slots.DecodePlan; PlanBlock in native.py): the
 * group width and the arrays the plan owns, checked when it was made:
 * clamp groups below N / width and positions below width, and a conflict
 * CSR of N + 1 pointers into its targets, each target below N. */
typedef struct {
    int64_t width;              /* candidates per group, >= 1, dividing N */
    int64_t clamp_count;        /* K */
    const int64_t *clamps;      /* (2, K): groups, then positions */
    const int64_t *indptr;      /* (N + 1,) */
    const int64_t *targets;     /* the conflict targets */
} izh_plan;

/* A SlotEngine's books (slots._book_fields) for C rows of capacity, of
 * which a call touches the first `rows`, and the per-row outputs of the
 * last izh_books call; all 8-byte fields, as izh_batch.  Arrays are
 * C-order, int64 unless noted; the history ring's row stride is C. */
typedef struct {
    int64_t capacity;           /* C */
    int64_t size;               /* N */
    int64_t window;             /* history ring length, >= 1 */
    int64_t check_interval;     /* >= 1 */
    const int64_t *offsets;     /* (C,) admission steps */
    const int64_t *budgets;     /* (C,) local step budgets */
    unsigned char *history;     /* (window, C, N) bool */
    int64_t *window_counts;     /* (C, N) */
    int64_t *last_spike;        /* (C, N) local step, or -1 */
    int64_t *row_spikes;        /* (C,) */
    const izh_plan *const *plans;   /* (C,) each row's plan, or NULL */
    int64_t *local;             /* (C,) out: local steps */
    unsigned char *at_check;    /* (C,) bool out */
    unsigned char *at_budget;   /* (C,) bool out */
    signed char *verdict;       /* (C,) out: IZH_SOLVED, IZH_UNSOLVED or IZH_UNDECODED */
    int64_t *picks;             /* (N,) scratch */
    unsigned char *selected;    /* (N,) scratch, all zero between calls */
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

/* exact-int: the synaptic scatter (_SynapseBatch.propagate_raw) of the
 * first `rows` rows: row `row` reads its structure's columns from
 * base[row] on.  The NumPy step sums in float64 through bincount; every
 * partial sum is an integer below 2^53 there, so the int64 sums are
 * equal. */
static void scatter(const izh_batch *k, int64_t rows, const unsigned char *last_fired)
{
    const int64_t size = k->size;
    const int64_t *indices = k->indices, *w = k->weights;
    for (int64_t row = 0; row < rows; ++row) {
        const unsigned char *fired = last_fired + row * size;
        const int64_t *indptr = k->indptr + k->base[row];
        int64_t *syn = k->syn + row * size;
        int64_t col = 0;
        while (col < size) {
            uint64_t word;
            if (col + 8 <= size) {
                memcpy(&word, fired + col, sizeof word);
                if (word == 0) {    /* 3% of neurons fire: skip quiet runs */
                    col += 8;
                    continue;
                }
            }
            const int64_t end = col + 8 <= size ? col + 8 : size;
            for (; col < end; ++col) {
                if (!fired[col])
                    continue;
                for (int64_t j = indptr[col]; j < indptr[col + 1]; ++j)
                    syn[indices[j]] += w[j];
            }
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

/* The current stage of `rows` rows, row by row, into the syn scratch.  On
 * a NaN the pass still runs to its end (the drive's streams advance) and
 * the scratch is zeroed again. */
static int current(const izh_batch *k, int64_t rows, int64_t step, const double *external)
{
    const int64_t size = k->size;
    int nan = 0;
    for (int64_t row = 0; row < rows; ++row) {
        const double *ext = k->annealed ? annealed_row(k, row, step) : external + row * size;
        nan |= current_row(size, ext, k->isyn + row * size, k->syn + row * size, k->decay,
                           k->shift_count, k->shifts, k->h_shift);
    }
    if (nan) {
        memset(k->syn, 0, (size_t)(rows * size) * sizeof *k->syn);
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

/* One step of the first `rows` replicas at global step `step`.  `external`
 * is the (rows, N) float64 drive current, unread (and may be NULL) when
 * the block carries the annealed drive; `last_fired` and `fired` are
 * (rows, N) bool masks.  On IZH_NAN_CURRENT v, u, isyn and `fired` are
 * untouched, and every annealed row has drawn its step's normals. */
int izh_step(const izh_batch *k, int64_t rows, int64_t step, const double *external,
             const unsigned char *last_fired, unsigned char *fired)
{
    const int64_t cells = rows * k->size, count = (int64_t)1 << k->h_shift;
    if (k->indptr != NULL)
        scatter(k, rows, last_fired);
    if (current(k, rows, step, external) != IZH_OK)
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

/* The verdict of the reference decode (repro.csp.solver.decode_assignment
 * + ConstraintGraph.is_solution) on one row's window under its plan: per
 * group of `width` candidates the first argmax of counts + last / scale,
 * decided when any count is nonzero; the clamps force their groups'
 * picks; the row is solved when every group is decided and no pick's
 * conflict list holds a pick.  The clamps are read first, so a row with
 * an undecided free group, most rows at most checks, is unsolved before
 * any score is computed. */
static int decode_row(const izh_books_block *k, int64_t row, const izh_plan *plan)
{
    const int64_t size = k->size, width = plan->width, groups = size / width;
    const int64_t *counts = k->window_counts + row * size, *last = k->last_spike + row * size;
    int64_t *picks = k->picks;   /* a group's pick, or -1 while it is free */
    for (int64_t g = 0; g < groups; ++g)
        picks[g] = -1;
    const int64_t *clamp_groups = plan->clamps, *clamp_positions = clamp_groups + plan->clamp_count;
    for (int64_t i = 0; i < plan->clamp_count; ++i)
        picks[clamp_groups[i]] = clamp_positions[i];
    for (int64_t g = 0; g < groups; ++g) {
        if (picks[g] >= 0)
            continue;
        int64_t any = 0;
        for (int64_t p = 0; p < width; ++p)
            any |= counts[g * width + p];
        if (!any)
            return IZH_UNSOLVED;    /* undecided */
    }
    int64_t top = last[0];
    for (int64_t j = 1; j < size; ++j)
        top = last[j] > top ? last[j] : top;
    /* The reference's scale: last / inf is a signed zero, which leaves a
     * row that never spiked at its exact counts. */
    const double scale = top > 0 ? (double)top + 1.0 : INFINITY;
    for (int64_t g = 0; g < groups; ++g) {
        if (picks[g] >= 0)
            continue;
        const int64_t *c = counts + g * width, *t = last + g * width;
        int64_t best = 0;
        double best_score = (double)c[0] + (double)t[0] / scale;
        for (int64_t p = 1; p < width; ++p) {
            const double score = (double)c[p] + (double)t[p] / scale;
            if (score > best_score) {   /* strict: the first index wins a tie */
                best = p;
                best_score = score;
            }
        }
        picks[g] = best;
    }
    /* Every group decided: the conflict test over the picks' CSR rows. */
    const int64_t *indptr = plan->indptr, *targets = plan->targets;
    unsigned char *selected = k->selected;
    for (int64_t g = 0; g < groups; ++g)
        selected[g * width + picks[g]] = 1;
    int conflict = 0;
    for (int64_t g = 0; g < groups && !conflict; ++g) {
        const int64_t pick = g * width + picks[g];
        for (int64_t j = indptr[pick]; j < indptr[pick + 1]; ++j)
            conflict |= selected[targets[j]];
    }
    for (int64_t g = 0; g < groups; ++g)
        selected[g * width + picks[g]] = 0;
    return conflict ? IZH_UNSOLVED : IZH_SOLVED;
}

/* SlotEngine.step's books of the first `rows` rows after global step
 * `step` (`fired`: its (rows, N) bool mask): each row's local step, its
 * history ring slot local % window, window counts, last spike and spike
 * total, and whether it is at a check or at its budget; then the verdict
 * of every row at a check, not at its budget and with a plan.  Returns
 * how many rows are at a check. */
int64_t izh_books(const izh_books_block *k, int64_t rows, int64_t step,
                  const unsigned char *fired)
{
    const int64_t size = k->size;
    int64_t checks = 0;
    for (int64_t row = 0; row < rows; ++row) {
        const int64_t local = step - k->offsets[row];
        int64_t slot = local % k->window;
        if (slot < 0)
            slot += k->window;
        k->row_spikes[row] += books_row(size, local, fired + row * size,
                                        k->history + (slot * k->capacity + row) * size,
                                        k->window_counts + row * size,
                                        k->last_spike + row * size);
        const int at_budget = local >= k->budgets[row];
        const int at_check = local % k->check_interval == 0 || at_budget;
        k->local[row] = local;
        k->at_budget[row] = (unsigned char)at_budget;
        k->at_check[row] = (unsigned char)at_check;
        const izh_plan *plan = k->plans[row];
        k->verdict[row] = (signed char)(at_check && !at_budget && plan != NULL
                                        ? decode_row(k, row, plan) : IZH_UNDECODED);
        checks += at_check;
    }
    return checks;
}
