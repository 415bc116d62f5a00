/* One engine step of each passage lane engine (see passage.py).
 *
 * Each function takes the step's draws, advances every alive lane, writes
 * the results of the lanes that stop by lane id, and compacts the alive
 * state in place, in lane order.  It returns the number of lanes still
 * alive.  Nothing is allocated, so the caller may run it without the
 * interpreter lock.  A lane's last visit of 1, and its occupation up to
 * that visit, are evaluated where its crossing of 1 is recorded, so a
 * lane's results are final when it stops.
 *
 * The arithmetic repeats the numpy operations the engines were first
 * written with, in the same order, so every output is bit-identical to
 * theirs; build with -ffp-contract=off so that no product is fused into
 * an addition.
 *
 * A bridge coin is u < p, p = exp(arg), arg = -2*d_a*d_b/h for the signed
 * distances d_a, d_b to the barrier at the two ends of the step.  numpy
 * clipped arg to [-700, 0] unless the step drew a zero uniform; neither
 * bound changes a decision, since u < 1, and a nonzero u is at least
 * 2**-53 > exp(-36.7), which also absorbs any p below exp(-700) in a sum
 * p + q that can reach u.  For the same reason a coin with u > 0 and
 * -2*d_a*d_b below SKIP*h (arg below about -40) is false, and is decided
 * without the division and exp.  A zero uniform is compared with exp
 * itself: the coin holds while exp(arg) does not underflow.
 */

#include <math.h>
#include <stdint.h>

#define SKIP (-40.0)

/* u < P(a Brownian bridge over the step touches the barrier) */
static inline int coin(double d_a, double d_b, double h, double skip, double u)
{
    double prod = d_a * -2.0 * d_b;
    if (u != 0.0 && prod < skip)
        return 0;
    return u < exp(prod / h);
}

/* fraction of the linear cell from a to b above level */
static inline double occ_cell(double a, double b, double level)
{
    double lo = a < b ? a : b;
    double hi = a < b ? b : a;
    if (hi <= level)
        return 0.0;
    if (lo >= level)
        return 1.0;
    double span = hi - lo;
    if (span < 1e-300)
        span = 1e-300;
    double frac = (hi - level) / span;
    if (frac < 0.0)
        return 0.0;
    return frac > 1.0 ? 1.0 : frac;
}

/* paths.crossing_fraction for one lane */
static inline double crossing_fraction(double a, double b, double barrier, int grid)
{
    if (!grid)
        return 0.5;
    if (b == barrier)
        return 1.0;
    double frac = (barrier - a) / (b - a);
    if (frac < 0.0)
        return 0.0;
    return frac > 1.0 ? 1.0 : frac;
}

/* Record the lane's latest crossing of 1, in cell number `cell` from a to
 * b (grid: placed by linear interpolation; otherwise by a coin, at
 * mid-cell), with occupation oc through the whole cell: its last visit of
 * 1 and, when tracked, the occupation up to that visit.  A later crossing
 * overwrites the record. */
static inline void record_visit(int64_t lane, int64_t cell, double a, double b,
                                int grid, double oc, double h, double L,
                                int track_occ, int64_t *last_cell, double *visit,
                                double *visit_occ)
{
    double frac = crossing_fraction(a, b, 1.0, grid);
    last_cell[lane] = cell;
    visit[lane] = (double)cell * h + frac * h;
    if (track_occ)
        visit_occ[lane] = (oc - occ_cell(a, b, L) * h) + occ_cell(a, 1.0, L) * frac * h;
}

/* One step of the reversed-excursion engine: X' = N - |B| with B a 3-d
 * Brownian motion.  z holds the step's (n, 3) normals, u0 and u1 its
 * level-0 and level-1 coin uniforms (bridge detection only).  xn_rec,
 * if not NULL, receives each position's new value, and stopped the
 * positions of the lanes that stop. */
int64_t is_step(int64_t n, int64_t step, double N, double h, double sq,
                double L, int track_occ, int bridge,
                const double *z, const double *u0, const double *u1,
                int64_t *ids, double *b, double *x, double *int_sq, double *occ,
                double *t0, double *logw, int64_t *last_cell, double *visit,
                double *visit_occ, double *xn_rec, int64_t *stopped)
{
    const double half_h = 0.5 * h;
    const double t_start = (double)(step - 1) * h;
    const double skip = SKIP * h;
    int64_t k = 0, n_stop = 0;
    for (int64_t i = 0; i < n; i++) {
        double b0 = b[3 * i] + z[3 * i] * sq;
        double b1 = b[3 * i + 1] + z[3 * i + 1] * sq;
        double b2 = b[3 * i + 2] + z[3 * i + 2] * sq;
        double xi = x[i];
        double xn = N - sqrt((b0 * b0 + b2 * b2) + b1 * b1);
        if (xn_rec)
            xn_rec[i] = xn;
        double isq = int_sq[i] + (xi * xi + xn * xn) * half_h;
        double oc = 0.0;
        if (track_occ)
            oc = occ[i] + occ_cell(xi, xn, L) * h;

        double xim1 = xi - 1.0, xnm1 = xn - 1.0;
        int sign_chg = xim1 * xnm1 < 0.0 || xn == 1.0;
        int64_t lane = ids[i];
        if (sign_chg || (bridge && coin(xim1, xnm1, h, skip, u1[i])))
            record_visit(lane, step - 1, xi, xn, sign_chg, oc, h, L, track_occ,
                         last_cell, visit, visit_occ);

        int hg = xn <= 0.0;
        if (hg || (bridge && coin(xi, xn, h, skip, u0[i]))) {
            double frac = crossing_fraction(xi, xn, 0.0, hg);
            double tr = t_start + frac * h;
            t0[lane] = tr;
            double isq_hit = isq + (-0.5 * h * (xi * xi + xn * xn)
                                    + 0.5 * (frac * h) * (xi * xi));
            logw[lane] = 0.5 * (N * N + tr - isq_hit);
            /* a lane stopping with no crossing of 1 seen can only have
             * crossed it in its final cell, which runs to the snapped 0 on
             * a coin stop */
            if (last_cell[lane] < 0)
                record_visit(lane, step - 1, xi, hg ? xn : 0.0, 1, oc, h, L,
                             track_occ, last_cell, visit, visit_occ);
            if (stopped)
                stopped[n_stop] = i;
            n_stop++;
            continue;
        }
        ids[k] = lane;
        b[3 * k] = b0;
        b[3 * k + 1] = b1;
        b[3 * k + 2] = b2;
        x[k] = xn;
        int_sq[k] = isq;
        if (track_occ)
            occ[k] = oc;
        k++;
    }
    return k;
}

/* One step of the Euler OU rejection engine from 1 between 0 and N: z
 * holds the step's n normals, u its coin uniforms (bridge detection
 * only).  One uniform serves both barriers: the lane stops at 0 if
 * u < p_dn and at N if p_dn <= u < p_dn + p_up, so the coins are skipped
 * only where both are far.  Alive lanes have 0 < x < N; where xn leaves
 * that range a coin probability is at least 1, which keeps the grid
 * verdict. */
int64_t rej_step(int64_t n, int64_t step, double N, double h, double sq,
                 double a_coef, double L, int track_occ, int bridge,
                 const double *z, const double *u,
                 int64_t *ids, double *x, double *occ,
                 double *dur, uint8_t *hit_up, double *occ_out)
{
    const double t_start = (double)(step - 1) * h;
    const double skip = SKIP * h;
    int64_t k = 0;
    for (int64_t i = 0; i < n; i++) {
        double xi = x[i];
        double xn = a_coef * xi + z[i] * sq;
        int up, done;
        if (bridge) {
            double ui = u[i];
            double prod_dn = xi * -2.0 * xn;
            double prod_up = (N - xi) * -2.0 * (N - xn);
            done = up = 0;
            if (ui == 0.0 || prod_dn >= skip || prod_up >= skip) {
                double p_dn = exp(prod_dn / h);
                done = ui < p_dn;
                up = !done && ui < exp(prod_up / h) + p_dn;
            }
            up = up || xn >= N;
            done = done || up;
        } else {
            up = xn >= N;
            done = up || xn <= 0.0;
        }

        if (done) {
            int64_t lane = ids[i];
            double term = up ? N : 0.0;
            double frac = crossing_fraction(xi, xn, term, xn >= N || xn <= 0.0);
            dur[lane] = t_start + frac * h;
            hit_up[lane] = (uint8_t)up;
            if (track_occ)
                occ_out[lane] = occ[i] + occ_cell(xi, term, L) * frac * h;
            continue;
        }
        ids[k] = ids[i];
        x[k] = xn;
        if (track_occ)
            occ[k] = occ[i] + occ_cell(xi, xn, L) * h;
        k++;
    }
    return k;
}
