/* Classical RK4 on the coupled oscillator, in the compiled grid loops of
   oscillator.integrate (rk4_integrate, one state) and oscillator._rk4_batch
   (rk4_advance, a batch of state columns), and the Monte Carlo normals of
   oscillator.keyed_normals (philox_normals).  Why each gives the bits of
   the Python code it stands in for is argued once, in the labelled
   paragraphs below, to which the Python code points by label.

   Exactness.  rk4_step transliterates oscillator._rk4_substeps line for
   line, with its names and its order of operations, and both loops take
   their sub-steps from it.  Each +, - and * is one IEEE double rounding in
   C as in Python and numpy, provided the library is built with
   -ffp-contract=off, which forbids fusing a product and a sum into one
   rounding, and without -ffast-math, which would reassociate and also turn
   on flush-to-zero for subnormals (oscillator.RK4_FLAGS).  So each loop
   gives the bits that function gives on its caller's operands, signed
   zeros and subnormals included.

   Squaring.  `** 2` alone depends on the caller's operand.  On a Python
   float it is libm pow (an overflowing square raises OverflowError where
   pow returns inf, and integrate counts both as non-finite), so
   rk4_integrate squares with pow(x, 2.0), and -fno-builtin-pow keeps GCC
   from turning that call into x * x, whose last bit differs from glibc's
   pow often enough to change a quarter to a half of random 2001-point
   trajectories.  The flag leaves every other builtin, memset and isfinite
   among them, as it was.  On numpy rows `** 2` is np.square, a product, so
   rk4_advance squares by product, which also vectorises; a batch column
   may differ from its integrate run in the last bits.

   Clones.  With x86-64 GCC, rk4_advance is cloned for AVX-512F, AVX2 and
   the baseline, and the dynamic loader resolves one clone through an ifunc
   when the library loads, so one build serves every x86-64 CPU and its
   cache key names no CPU feature.  AVX-512F carries fused multiply-adds,
   so its clone is the one whose bits a fused product and sum would change
   (the AVX2 clone has no FMA to fuse with).  Another compiler or machine,
   or a build that defines RK4_NO_DISPATCH, gets the one function its flags
   select.  rk4_integrate spends its time in pow and needs no clones.

   Normals.  philox_normals draws many keyed random streams in one call.  A
   Philox4x64-10 generator (Salmon et al., "Parallel random numbers: as easy
   as 1, 2, 3", SC'11) steps as numpy.random.Philox does, behind numpy's
   public bitgen_t, and each row's normals come from
   random_standard_normal_fill, the ziggurat Generator.standard_normal runs,
   from the libnpyrandom.a that numpy ships and the build links.  So the
   bits are numpy's own, not a transliteration of them.  The build defines
   RK4_NORMALS, with numpy's include directory on the path, only where numpy
   ships that archive and numpy/random/bitgen.h.  Without it, or without the
   128-bit integer the Philox rounds multiply in, the library has no
   philox_normals, and keyed_normals draws row by row in numpy.

   Freeze.  The committed references in perfbench/references freeze this
   arithmetic, as the oscillator is chaotic at large hidden amplitudes: a
   one-ulp change to an initial y3 moved the worst of 1000 samples by 1.7e-3
   and the projection's mean by 1.9e-6 at t = 50.  So a reassociation, a
   fused update or another sub-step count should be expected to move the
   mean beyond their tolerance. */
#include <math.h>
#include <stddef.h>

/* columns per block: an inner loop of fixed length the compiler vectorises,
   two AVX-512 vectors of each of the four rows */
#define W 16

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && !defined(RK4_NO_DISPATCH)
#define RK4_DISPATCH
#endif

/* The clone rk4_advance runs: the first of the clones' ISAs this CPU
   supports, or "default" */
const char *rk4_isa(void)
{
#ifdef RK4_DISPATCH
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return "avx512f";
    if (__builtin_cpu_supports("avx2"))
        return "avx2";
#endif
    return "default";
}

/* one state (p, v, q, u) = (y1, y2, y3, y4) */
typedef struct {
    double p, v, q, u;
} state;

static inline double square(double x, int libm)
{
    return libm ? pow(x, 2.0) : x * x;
}

/* One RK4 step of h from y, squaring with libm pow when `libm` is set,
   else by product.  A stage's derivative is (v, a, u, b), with
   accelerations a = p (-1 - q^2) and b = q (-1 - p^2). */
static inline state rk4_step(state y, double h, int libm)
{
    double hh = 0.5 * h, h6 = h / 6.0;
    double p1 = y.p, v1 = y.v, q1 = y.q, u1 = y.u;
    double a1 = p1 * (-1.0 - square(q1, libm)), b1 = q1 * (-1.0 - square(p1, libm));
    double p2 = p1 + hh * v1, v2 = v1 + hh * a1, q2 = q1 + hh * u1, u2 = u1 + hh * b1;
    double a2 = p2 * (-1.0 - square(q2, libm)), b2 = q2 * (-1.0 - square(p2, libm));
    double p3 = p1 + hh * v2, v3 = v1 + hh * a2, q3 = q1 + hh * u2, u3 = u1 + hh * b2;
    double a3 = p3 * (-1.0 - square(q3, libm)), b3 = q3 * (-1.0 - square(p3, libm));
    double p4 = p1 + h * v3, v4 = v1 + h * a3, q4 = q1 + h * u3, u4 = u1 + h * b3;
    double a4 = p4 * (-1.0 - square(q4, libm)), b4 = q4 * (-1.0 - square(p4, libm));
    return (state){p1 + h6 * (((v1 + 2.0 * v2) + 2.0 * v3) + v4),
                   v1 + h6 * (((a1 + 2.0 * a2) + 2.0 * a3) + a4),
                   q1 + h6 * (((u1 + 2.0 * u2) + 2.0 * u3) + u4),
                   u1 + h6 * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)};
}

/* Integrate the state in row 0 of the (n_points, 4) row-major array y over
   the grid, `substeps` RK4 steps of h per grid step, writing grid step k to
   row k.  Returns the number of grid steps finished while the state stayed
   finite: n_points - 1, or the step before the first non-finite row, which
   is the last row written. */
ptrdiff_t rk4_integrate(double *y, ptrdiff_t n_points, int substeps, double h)
{
    state s = {y[0], y[1], y[2], y[3]};
    for (ptrdiff_t k = 1; k < n_points; k++) {
        for (int i = 0; i < substeps; i++)
            s = rk4_step(s, h, 1);
        double *row = y + 4 * k;
        row[0] = s.p, row[1] = s.v, row[2] = s.q, row[3] = s.u;
        if (!(isfinite(s.p) && isfinite(s.v) && isfinite(s.q) && isfinite(s.u)))
            return k - 1;
    }
    return n_points - 1;
}

/* Advance the (4, n) rows (p, v, q, u) at y, row-major, by `steps` grid
   steps of `substeps` RK4 steps of h, writing grid step k's rows to
   out + 4 n k, a (steps, 4, n) row-major array.  y may be out's last
   (4, n), as a block of columns is read before any of it is written.  A
   full block of W columns is copied in and out by loops of the fixed
   length W, so the compiler vectorises every loop.  Only the ragged last
   block, of m < W columns, copies m of them and zero-fills the rest: a
   zero state stays zero, so its padding stays finite and never subnormal,
   and is never written out. */
#ifdef RK4_DISPATCH
__attribute__((target_clones("avx512f", "avx2", "default")))
#endif
void rk4_advance(const double *y, ptrdiff_t n, ptrdiff_t steps, int substeps, double h, double *out)
{
    for (ptrdiff_t c = 0; c < n; c += W) {
        ptrdiff_t m = n - c < W ? n - c : W;
        double s[4][W];
        if (m == W)
            for (int r = 0; r < 4; r++)
                for (int j = 0; j < W; j++)
                    s[r][j] = y[r * n + c + j];
        else
            for (int r = 0; r < 4; r++)
                for (int j = 0; j < W; j++)
                    s[r][j] = j < m ? y[r * n + c + j] : 0.0;
        for (ptrdiff_t k = 0; k < steps; k++) {
            for (int i = 0; i < substeps; i++)
                for (int j = 0; j < W; j++) {
                    state t = rk4_step((state){s[0][j], s[1][j], s[2][j], s[3][j]}, h, 0);
                    s[0][j] = t.p, s[1][j] = t.v, s[2][j] = t.q, s[3][j] = t.u;
                }
            double *rows = out + 4 * n * k;
            if (m == W)
                for (int r = 0; r < 4; r++)
                    for (int j = 0; j < W; j++)
                        rows[r * n + c + j] = s[r][j];
            else
                for (int r = 0; r < 4; r++)
                    for (ptrdiff_t j = 0; j < m; j++)
                        rows[r * n + c + j] = s[r][j];
        }
    }
}

#if defined(RK4_NORMALS) && defined(__SIZEOF_INT128__)
#include <stdint.h>
#include "numpy/random/bitgen.h"

/* numpy's ziggurat, in libnpyrandom.a; declared here, as its header
   numpy/random/distributions.h includes Python.h.  npy_intp is ptrdiff_t. */
void random_standard_normal_fill(bitgen_t *bitgen_state, ptrdiff_t cnt, double *out);

/* numpy's philox_state: a counter, a key and a buffer of the last block's
   four words, of which buffer_pos have been read */
typedef struct {
    uint64_t ctr[4], key[2], buffer[4];
    int buffer_pos, has_uint32;
    uint32_t uinteger;
} philox;

/* one round of Philox4x64 on the block x under key k */
static inline void philox_round(uint64_t x[4], const uint64_t k[2])
{
    unsigned __int128 p0 = (unsigned __int128)0xD2E7470EE14C6C93u * x[0];
    unsigned __int128 p1 = (unsigned __int128)0xCA5A826395121157u * x[2];
    x[0] = (uint64_t)(p1 >> 64) ^ x[1] ^ k[0];
    x[1] = (uint64_t)p1;
    x[2] = (uint64_t)(p0 >> 64) ^ x[3] ^ k[1];
    x[3] = (uint64_t)p0;
}

/* The next word: the buffer's, or the first of a new block, for which the
   counter is bumped (with carry) and encrypted in 10 rounds, the key
   bumped by the Weyl constants between rounds */
static uint64_t philox_next64(void *st)
{
    philox *s = st;
    if (s->buffer_pos < 4)
        return s->buffer[s->buffer_pos++];
    for (int i = 0; i < 4 && ++s->ctr[i] == 0; i++)
        ;
    uint64_t x[4] = {s->ctr[0], s->ctr[1], s->ctr[2], s->ctr[3]}, k[2] = {s->key[0], s->key[1]};
    philox_round(x, k);
    for (int r = 1; r < 10; r++) {
        k[0] += 0x9E3779B97F4A7C15u, k[1] += 0xBB67AE8584CAA73Bu;
        philox_round(x, k);
    }
    for (int i = 0; i < 4; i++)
        s->buffer[i] = x[i];
    s->buffer_pos = 1;
    return s->buffer[0];
}

/* a word's low half, then its high half, as numpy's Philox gives them;
   the double ziggurat draws none, but a bitgen_t carries every source */
static uint32_t philox_next32(void *st)
{
    philox *s = st;
    if (s->has_uint32) {
        s->has_uint32 = 0;
        return s->uinteger;
    }
    uint64_t next = philox_next64(s);
    s->has_uint32 = 1;
    s->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

static double philox_next_double(void *st)
{
    return (double)(philox_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* Fill the (n, size) row-major array out with standard normals, row i
   from the stream of the Philox key keys[2 i], keys[2 i + 1]: the state is
   reset to that key, a zero counter and an empty buffer, the state a
   seeded numpy.random.Philox starts from, and numpy's ziggurat fills the
   row, so row i is Generator(Philox(key=...)).standard_normal(size). */
void philox_normals(const uint64_t *keys, ptrdiff_t n, ptrdiff_t size, double *out)
{
    philox s;
    bitgen_t bitgen = {&s, philox_next64, philox_next32, philox_next_double, philox_next64};
    for (ptrdiff_t i = 0; i < n; i++) {
        s = (philox){.key = {keys[2 * i], keys[2 * i + 1]}, .buffer_pos = 4};
        random_standard_normal_fill(&bitgen, size, out + i * size);
    }
}
#endif
