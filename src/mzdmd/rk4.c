/* Classical RK4 on the coupled oscillator: the compiled grid loops of
   oscillator.integrate (rk4_integrate, one state) and oscillator._rk4_batch
   (rk4_advance, a batch of state columns).  Both take their sub-steps from
   one body, rk4_step, a line-for-line transliteration of
   oscillator._rk4_substeps with its names.  Built with -ffp-contract=off and
   without -ffast-math, each operation is one IEEE double rounding in its
   order, so both give that function's bits; see its docstring.

   The two differ only in how they square, as _rk4_substeps does on its two
   kinds of operand.  On a Python float `** 2` is libm pow, so rk4_integrate
   squares with pow(x, 2.0); -fno-builtin-pow keeps GCC from turning that
   call into x * x, whose last bit differs from glibc's pow often enough to
   change a quarter to a half of random 2001-point trajectories.  On numpy
   rows `** 2` is np.square, a product, so rk4_advance squares by product,
   which also vectorises.

   rk4_advance steps its batch a block of W columns at a time, every loop
   over a full block of the fixed length W, its copies in and out included,
   so the compiler vectorises each.  Only the ragged last block, when W does
   not divide the batch, copies fewer columns, and zero-fills the others.

   With x86-64 GCC, rk4_advance is cloned for AVX-512F, AVX2 and the
   baseline, and the dynamic loader resolves one clone through an ifunc when
   the library loads, so one build serves every x86-64 CPU and its cache key
   names no CPU feature.  AVX-512F carries fused multiply-adds: only
   -ffp-contract=off keeps that clone from fusing a product and a sum, which
   would change the bits (the AVX2 clone has no FMA to fuse with).  Another
   compiler or machine, or a build that defines RK4_NO_DISPATCH, gets the
   one function its flags select.  rk4_integrate spends its time in pow and
   needs no clones. */
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
   length W.  Only the ragged last block, of m < W columns, copies m of
   them and zero-fills the rest: a zero state stays zero, so its padding
   stays finite and never subnormal, and is never written out. */
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
