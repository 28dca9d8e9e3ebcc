/* Classical RK4 on the coupled oscillator: the compiled stepper of
   oscillator._rk4_batch, a line-for-line transliteration of
   oscillator._rk4_substeps with its names.  Built with -ffp-contract=off
   and without -ffast-math, each column takes that function's operations in
   its order on numpy rows, so both give the same bits; see its docstring. */
#include <stddef.h>

/* columns per block: an inner loop of fixed length the compiler vectorises */
#define W 8

/* Advance the (4, n) rows (p, v, q, u) = (y1, y2, y3, y4) at y, row-major,
   by `substeps` RK4 steps of h in place.  A stage's derivative is (v, a, u,
   b), with accelerations a = p (-1 - q^2) and b = q (-1 - p^2).  A block's
   columns past n are zeros, which stay finite and are never written back. */
void rk4_advance(double *y, ptrdiff_t n, int substeps, double h)
{
    double hh = 0.5 * h, h6 = h / 6.0;
    for (ptrdiff_t c = 0; c < n; c += W) {
        ptrdiff_t m = n - c < W ? n - c : W;
        double s[4][W] = {{0.0}};
        for (int r = 0; r < 4; r++)
            for (ptrdiff_t j = 0; j < m; j++)
                s[r][j] = y[r * n + c + j];
        for (int step = 0; step < substeps; step++)
            for (int j = 0; j < W; j++) {
                double p1 = s[0][j], v1 = s[1][j], q1 = s[2][j], u1 = s[3][j];
                double a1 = p1 * (-1.0 - q1 * q1), b1 = q1 * (-1.0 - p1 * p1);
                double p2 = p1 + hh * v1, v2 = v1 + hh * a1, q2 = q1 + hh * u1, u2 = u1 + hh * b1;
                double a2 = p2 * (-1.0 - q2 * q2), b2 = q2 * (-1.0 - p2 * p2);
                double p3 = p1 + hh * v2, v3 = v1 + hh * a2, q3 = q1 + hh * u2, u3 = u1 + hh * b2;
                double a3 = p3 * (-1.0 - q3 * q3), b3 = q3 * (-1.0 - p3 * p3);
                double p4 = p1 + h * v3, v4 = v1 + h * a3, q4 = q1 + h * u3, u4 = u1 + h * b3;
                double a4 = p4 * (-1.0 - q4 * q4), b4 = q4 * (-1.0 - p4 * p4);
                s[0][j] = p1 + h6 * (((v1 + 2.0 * v2) + 2.0 * v3) + v4);
                s[1][j] = v1 + h6 * (((a1 + 2.0 * a2) + 2.0 * a3) + a4);
                s[2][j] = q1 + h6 * (((u1 + 2.0 * u2) + 2.0 * u3) + u4);
                s[3][j] = u1 + h6 * (((b1 + 2.0 * b2) + 2.0 * b3) + b4);
            }
        for (int r = 0; r < 4; r++)
            for (ptrdiff_t j = 0; j < m; j++)
                y[r * n + c + j] = s[r][j];
    }
}
