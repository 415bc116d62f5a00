/* One step of each passage lane engine (see passage.py) and of the
 * inverse-Bessel family (family_step; diagnostics.py) on the package's one
 * bridge coin (coin), one step of the clamped-drift family (drift_step;
 * diagnostics.py), and numpy's standard normal sampler (normal_fill).
 *
 * Each engine step takes the step's draws, advances every alive lane, writes
 * the results of the lanes that stop by lane id, and compacts the alive
 * state in place, in lane order.  It returns the number of lanes still
 * alive.  No step allocates, so the caller may run it without the
 * interpreter lock.  A lane's last visit of 1, and its occupation up to
 * that visit, are evaluated where its crossing of 1 is recorded, so a
 * lane's results are final when it stops.
 *
 * The passage steps and family_step repeat the numpy operations they were
 * first written with, in the same order, so every output is bit-identical
 * to theirs.  drift_step sums over a lane's components in component order,
 * which at one and two components is the order of the numpy step it
 * replaced.  Build with -ffp-contract=off so that no product is fused into
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
#include <string.h>

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

/* One inverse-Bessel family step: each lane's 3-d position moves by z*sq,
 * and its member m freezes for good where the new radius r <= eps[m] or the
 * coin on d (set to r - eps[m]) and u fires; d, frozen are (members, size) */
void family_step(int64_t members, int64_t size, double h, double sq,
                 const double *eps, const double *z, const double *u,
                 double *pos, double *d, uint8_t *frozen)
{
    for (int64_t i = 0; i < size; i++) {
        double *x = pos + 3 * i;
        for (int c = 0; c < 3; c++)
            x[c] += z[3 * i + c] * sq;
        double r = sqrt((x[0] * x[0] + x[2] * x[2]) + x[1] * x[1]);
        for (int64_t m = 0; m < members; m++) {
            int64_t j = m * size + i;
            double dn = r - eps[m];
            if (!frozen[j])
                frozen[j] = r <= eps[m] || coin(d[j], dn, h, SKIP * h, u[i]);
            d[j] = dn;
        }
    }
}

/* One clamped-drift family step, one pass per lane: member m clamps the
 * lane's drift row to [-bound[m], bound[m]] (NaN stays NaN, as in np.clip),
 * sums quad, the clamped row's square, and lin, its product with dw = z*sq,
 * from 0.0 in component order, adds lin - quad*h/2 to logm and marks hit
 * once logm >= log_n[m]; then w moves by dw and wstar keeps the largest
 * norm of w, its squares summed in component order (NaN wins, as in
 * np.maximum).  drift, z and w are (size, dim); logm and hit are (members,
 * size). */
static inline void drift_lanes(int64_t members, int64_t size, int64_t dim, double h,
                               double sq, const double *bound, const double *log_n,
                               const double *drift, const double *z, double *w,
                               double *wstar, double *logm, uint8_t *hit)
{
    double half_h = 0.5 * h;
    for (int64_t i = 0; i < size; i++) {
        const double *a = drift + dim * i, *dz = z + dim * i;
        double *wi = w + dim * i;
        for (int64_t m = 0; m < members; m++) {
            double b = bound[m], quad = 0.0, lin = 0.0;
            for (int64_t j = 0; j < dim; j++) {
                double c = a[j] < -b ? -b : (a[j] > b ? b : a[j]);
                quad += c * c;
                lin += c * (dz[j] * sq);
            }
            int64_t k = m * size + i;
            logm[k] += lin - quad * half_h;
            hit[k] |= logm[k] >= log_n[m];
        }
        double s = 0.0;
        for (int64_t j = 0; j < dim; j++) {
            wi[j] += dz[j] * sq;
            s += wi[j] * wi[j];
        }
        double r = sqrt(s);
        if (!(wstar[i] >= r || isnan(wstar[i])))
            wstar[i] = r;
    }
}

/* drift_lanes; with a literal dim of 1 the compiler unrolls its loops over
 * components */
void drift_step(int64_t members, int64_t size, int64_t dim, double h, double sq,
                const double *bound, const double *log_n, const double *drift,
                const double *z, double *w, double *wstar, double *logm,
                uint8_t *hit)
{
    if (dim == 1)
        drift_lanes(members, size, 1, h, sq, bound, log_n, drift, z, w, wstar,
                    logm, hit);
    else
        drift_lanes(members, size, dim, h, sq, bound, log_n, drift, z, w, wstar,
                    logm, hit);
}

/* numpy's standard normal: normal_fill(bitgen, n, out) writes to out the n
 * values numpy's Generator.standard_normal(n) draws from the bit generator
 * bitgen, and leaves it in the state numpy leaves.  It is numpy's
 * random_standard_normal, the Marsaglia-Tsang ziggurat (J. Stat. Softw.
 * 5(8), 2000) with 256 layers: the same tables, the same tail (idx == 0)
 * and wedge steps, and next_double as (w >> 11) * 2**-53, so it reads the
 * same words in the same order and returns the same doubles.  Words come
 * only through the bit generator's next_uint64.  The sign is applied by
 * flipping the sign bit, which is -x exactly, without a branch.
 *
 * The tables ki_double, wi_double and fi_double below are numpy's
 * (numpy/random/src/distributions/ziggurat_constants.h), copied bit for
 * bit from numpy 2.4.6's libnpyrandom.a and written as exact hexadecimal
 * literals.  They come under the 3-clause BSD licence of numpy's random
 * module (numpy/random/LICENSE.md):
 *
 * Copyright (c) 2019 Kevin Sheppard. All rights reserved.
 *
 * Redistribution and use in source and binary forms, with or without
 * modification, are permitted provided that the following conditions are met:
 *
 * 1. Redistributions of source code must retain the above copyright notice,
 *    this list of conditions and the following disclaimer.
 *
 * 2. Redistributions in binary form must reproduce the above copyright notice,
 *    this list of conditions and the following disclaimer in the documentation
 *    and/or other materials provided with the distribution.
 *
 * 3. Neither the name of the copyright holder nor the names of its contributors
 *    may be used to endorse or promote products derived from this software
 *    without specific prior written permission.
 *
 * THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS IS"
 * AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED TO, THE
 * IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR A PARTICULAR PURPOSE
 * ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT HOLDER OR CONTRIBUTORS BE
 * LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL, SPECIAL, EXEMPLARY, OR
 * CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT LIMITED TO, PROCUREMENT OF
 * SUBSTITUTE GOODS OR SERVICES; LOSS OF USE, DATA, OR PROFITS; OR BUSINESS
 * INTERRUPTION) HOWEVER CAUSED AND ON ANY THEORY OF LIABILITY, WHETHER IN
 * CONTRACT, STRICT LIABILITY, OR TORT (INCLUDING NEGLIGENCE OR OTHERWISE)
 * ARISING IN ANY WAY OUT OF THE USE OF THIS SOFTWARE, EVEN IF ADVISED OF
 * THE POSSIBILITY OF SUCH DAMAGE.
 */

/* numpy/random/bitgen.h */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* numpy's ziggurat_nor_r (3.6541528853610088, where the tail starts) and
 * ziggurat_nor_inv_r */
#define ZIGGURAT_NOR_R 0x1.d3bb48209ad33p+1
#define ZIGGURAT_NOR_INV_R 0x1.183aa6c20e8c1p-2

static const uint64_t ki_double[256] = {
    0x000ef33d8025ef6a, 0x0000000000000000, 0x000c08be98fbc6a8, 0x000da354fabd8142,
    0x000e51f67ec1eeea, 0x000eb255e9d3f77e, 0x000eef4b817ecab9, 0x000f19470afa44aa,
    0x000f37ed61ffcb18, 0x000f4f469561255c, 0x000f61a5e41ba396, 0x000f707a755396a4,
    0x000f7cb2ec28449a, 0x000f86f10c6357d3, 0x000f8fa6578325de, 0x000f9724c74dd0da,
    0x000f9da907dbf509, 0x000fa360f581fa74, 0x000fa86fde5b4bf8, 0x000facf160d354dc,
    0x000fb0fb6718b90f, 0x000fb49f8d5374c6, 0x000fb7ec2366fe77, 0x000fbaece9a1e50e,
    0x000fbdab9d040bed, 0x000fc03060ff6c57, 0x000fc2821037a248, 0x000fc4a67ae25bd1,
    0x000fc6a2977aee31, 0x000fc87aa92896a4, 0x000fca325e4bde85, 0x000fcbcce902231a,
    0x000fcd4d12f839c4, 0x000fceb54d8fec99, 0x000fd007bf1dc930, 0x000fd1464dd6c4e6,
    0x000fd272a8e2f450, 0x000fd38e4ff0c91e, 0x000fd49a9990b478, 0x000fd598b8920f53,
    0x000fd689c08e99ec, 0x000fd76ea9c8e832, 0x000fd848547b08e8, 0x000fd9178bad2c8c,
    0x000fd9dd07a7add2, 0x000fda9970105e8c, 0x000fdb4d5dc02e20, 0x000fdbf95c5bfcd0,
    0x000fdc9debb99a7d, 0x000fdd3b8118729d, 0x000fddd288342f90, 0x000fde6364369f64,
    0x000fdeee708d514e, 0x000fdf7401a6b42e, 0x000fdff46599ed40, 0x000fe06fe4bc24f2,
    0x000fe0e6c225a258, 0x000fe1593c28b84c, 0x000fe1c78cbc3f99, 0x000fe231e9db1caa,
    0x000fe29885da1b91, 0x000fe2fb8fb54186, 0x000fe35b33558d4a, 0x000fe3b799d0002a,
    0x000fe410e99ead7f, 0x000fe46746d47734, 0x000fe4bad34c095c, 0x000fe50baed29524,
    0x000fe559f74ebc78, 0x000fe5a5c8e41212, 0x000fe5ef3e138689, 0x000fe6366fd91078,
    0x000fe67b75c6d578, 0x000fe6be661e11aa, 0x000fe6ff55e5f4f2, 0x000fe73e5900a702,
    0x000fe77b823e9e39, 0x000fe7b6e37070a2, 0x000fe7f08d774243, 0x000fe8289053f08c,
    0x000fe85efb35173a, 0x000fe893dc840864, 0x000fe8c741f0cebc, 0x000fe8f9387d4ef6,
    0x000fe929cc879b1d, 0x000fe95909d388ea, 0x000fe986fb939aa2, 0x000fe9b3ac714866,
    0x000fe9df2694b6d5, 0x000fea0973abe67c, 0x000fea329cf166a4, 0x000fea5aab32952c,
    0x000fea81a6d5741a, 0x000feaa797de1cf0, 0x000feacc85f3d920, 0x000feaf07865e63c,
    0x000feb13762fec13, 0x000feb3585fe2a4a, 0x000feb56ae3162b4, 0x000feb76f4e284fa,
    0x000feb965fe62014, 0x000febb4f4cf9d7c, 0x000febd2b8f449d0, 0x000febefb16e2e3e,
    0x000fec0be31ebde8, 0x000fec2752b15a15, 0x000fec42049dafd3, 0x000fec5bfd29f196,
    0x000fec75406ceef4, 0x000fec8dd2500cb4, 0x000feca5b6911f12, 0x000fecbcf0c427fe,
    0x000fecd38454fb15, 0x000fece97488c8b3, 0x000fecfec47f91b7, 0x000fed1377358528,
    0x000fed278f844903, 0x000fed3b10242f4c, 0x000fed4dfbad586e, 0x000fed605498c3dd,
    0x000fed721d414fe8, 0x000fed8357e4a982, 0x000fed9406a42cc8, 0x000feda42b85b704,
    0x000fedb3c8746ab4, 0x000fedc2df416652, 0x000fedd171a46e52, 0x000feddf813c8ad3,
    0x000feded0f909980, 0x000fedfa1e0fd414, 0x000fee06ae124bc4, 0x000fee12c0d95a06,
    0x000fee1e579006e0, 0x000fee29734b6524, 0x000fee34150ae4bc, 0x000fee3e3db89b3c,
    0x000fee47ee2982f4, 0x000fee51271db086, 0x000fee59e9407f41, 0x000fee623528b42e,
    0x000fee6a0b5897f1, 0x000fee716c3e077a, 0x000fee7858327b82, 0x000fee7ecf7b06ba,
    0x000fee84d2484ab2, 0x000fee8a60b66343, 0x000fee8f7accc851, 0x000fee94207e25da,
    0x000fee9851a829ea, 0x000fee9c0e13485c, 0x000fee9f557273f4, 0x000feea22762ccae,
    0x000feea4836b42ac, 0x000feea668fc2d71, 0x000feea7d76ed6fa, 0x000feea8ce04fa0a,
    0x000feea94be8333b, 0x000feea950296410, 0x000feea8d9c0075e, 0x000feea7e7897654,
    0x000feea678481d24, 0x000feea48aa29e83, 0x000feea21d22e4da, 0x000fee9f2e352024,
    0x000fee9bbc26af2e, 0x000fee97c524f2e4, 0x000fee93473c0a3a, 0x000fee8e40557516,
    0x000fee88ae369c7a, 0x000fee828e7f3dfd, 0x000fee7bdea7b888, 0x000fee749bff37ff,
    0x000fee6cc3a9bd5e, 0x000fee64529e007e, 0x000fee5b45a32888, 0x000fee51994e57b6,
    0x000fee474a0006cf, 0x000fee3c53e12c50, 0x000fee30b2e02ad8, 0x000fee2462ad8205,
    0x000fee175eb83c5a, 0x000fee09a22a1447, 0x000fedfb27e349cc, 0x000fedebea76216c,
    0x000feddbe422047e, 0x000fedcb0ece39d3, 0x000fedb964042cf4, 0x000feda6dce938c9,
    0x000fed937237e98d, 0x000fed7f1c38a836, 0x000fed69d2b9c02b, 0x000fed538d06ae00,
    0x000fed3c41dea422, 0x000fed23e76a2fd8, 0x000fed0a732fe644, 0x000fecefda07fe34,
    0x000fecd4100eb7b8, 0x000fecb708956eb4, 0x000fec98b61230c1, 0x000fec790a0da978,
    0x000fec57f50f31fe, 0x000fec356686c962, 0x000fec114cb4b335, 0x000febeb948e6fd0,
    0x000febc429a0b692, 0x000feb9af5ee0cdc, 0x000feb6fe1c98542, 0x000feb42d3ad1f9e,
    0x000feb13b00b2d4b, 0x000feae2591a02e9, 0x000feaaeae992257, 0x000fea788d8ee326,
    0x000fea3fcffd73e5, 0x000fea044c8dd9f6, 0x000fe9c5d62f563b, 0x000fe9843ba947a4,
    0x000fe93f471d4728, 0x000fe8f6bd76c5d6, 0x000fe8aa5dc4e8e6, 0x000fe859e07ab1ea,
    0x000fe804f690a940, 0x000fe7ab488233c0, 0x000fe74c751f6aa5, 0x000fe6e8102aa202,
    0x000fe67da0b6abd8, 0x000fe60c9f38307e, 0x000fe5947338f742, 0x000fe51470977280,
    0x000fe48bd436f458, 0x000fe3f9bffd1e37, 0x000fe35d35eeb19c, 0x000fe2b5122fe4fe,
    0x000fe20003995557, 0x000fe13c82788314, 0x000fe068c4ee67b0, 0x000fdf82b02b71aa,
    0x000fde87c57efeaa, 0x000fdd7509c63bfd, 0x000fdc46e529bf13, 0x000fdaf8f82e0282,
    0x000fd985e1b2ba75, 0x000fd7e6ef48cf04, 0x000fd613adbd650b, 0x000fd40149e2f012,
    0x000fd1a1a7b4c7ac, 0x000fcee204761f9e, 0x000fcba8d85e11b2, 0x000fc7d26ecd2d22,
    0x000fc32b2f1e22ed, 0x000fbd6581c0b83a, 0x000fb606c4005434, 0x000fac40582a2874,
    0x000f9e971e014598, 0x000f89fa48a41dfc, 0x000f66c5f7f0302c, 0x000f1a5a4b331c4a
};

static const double wi_double[256] = {
    0x1.f493b7815d979p-51, 0x1.b8d0be3fdf6c6p-55, 0x1.250af3c2c5bb4p-54, 0x1.57cb938443b61p-54,
    0x1.801fce82fa70cp-54, 0x1.a230c2e4cd0bcp-54, 0x1.c004d2f3861f7p-54, 0x1.dac2f5a747274p-54,
    0x1.f32482d4cd5c3p-54, 0x1.04d32278ebbadp-53, 0x1.0f5053b025d43p-53, 0x1.192a697413677p-53,
    0x1.227a28f7a1af5p-53, 0x1.2b52e3863d880p-53, 0x1.33c3fc05791f5p-53, 0x1.3bd9ec1a2b12fp-53,
    0x1.439ef8dff9b55p-53, 0x1.4b1bb363dfea7p-53, 0x1.52575621ad374p-53, 0x1.59580a707ce96p-53,
    0x1.60231cfd97eeap-53, 0x1.66bd261a37c3dp-53, 0x1.6d2a292000570p-53, 0x1.736dad346f8a6p-53,
    0x1.798ad10b32a77p-53, 0x1.7f845ad46f543p-53, 0x1.855cc53430a77p-53, 0x1.8b1649e7b769ap-53,
    0x1.90b2ea94ecf98p-53, 0x1.96347822c1eeap-53, 0x1.9b9c98e38c546p-53, 0x1.a0eccdca4a72cp-53,
    0x1.a62676d77cd59p-53, 0x1.ab4ad6e101630p-53, 0x1.b05b16d136c9cp-53, 0x1.b558487427a29p-53,
    0x1.ba4368e529f3ap-53, 0x1.bf1d62abf8232p-53, 0x1.c3e70f9594ef3p-53, 0x1.c8a13a5323b61p-53,
    0x1.cd4c9fe72268bp-53, 0x1.d1e9f0e80b748p-53, 0x1.d679d29e41f10p-53, 0x1.dafce0023b8c3p-53,
    0x1.df73aa9f17653p-53, 0x1.e3debb5d2edfep-53, 0x1.e83e9337a6f00p-53, 0x1.ec93abdf982cep-53,
    0x1.f0de784f06226p-53, 0x1.f51f654d8f688p-53, 0x1.f956d9e87d7aep-53, 0x1.fd8537dfa2eacp-53,
    0x1.00d56e04234ecp-52, 0x1.02e40f5398f9ap-52, 0x1.04eea9e16a5fcp-52, 0x1.06f565b72a010p-52,
    0x1.08f869071f40bp-52, 0x1.0af7d84bc6113p-52, 0x1.0cf3d664bcc7fp-52, 0x1.0eec84b16086bp-52,
    0x1.10e20329515eep-52, 0x1.12d4707310fbep-52, 0x1.14c3e9f8e9141p-52, 0x1.16b08bfc4201ep-52,
    0x1.189a71a78da34p-52, 0x1.1a81b51ee6d88p-52, 0x1.1c666f8f82acbp-52, 0x1.1e48b93e0d42ep-52,
    0x1.2028a9940a09fp-52, 0x1.2206572c4c6e9p-52, 0x1.23e1d7de9c31fp-52, 0x1.25bb40ca96bfbp-52,
    0x1.2792a661dd37fp-52, 0x1.29681c719d71bp-52, 0x1.2b3bb62b82edap-52, 0x1.2d0d862e1b853p-52,
    0x1.2edd9e8cba98ep-52, 0x1.30ac10d6e48d7p-52, 0x1.3278ee1f4b930p-52, 0x1.3444470265ea1p-52,
    0x1.360e2baca52d5p-52, 0x1.37d6abe05586ap-52, 0x1.399dd6fb2b264p-52, 0x1.3b63bbfb83d03p-52,
    0x1.3d28698561de0p-52, 0x1.3eebede725a83p-52, 0x1.40ae571e09e74p-52, 0x1.426fb2da6745dp-52,
    0x1.44300e83c30a4p-52, 0x1.45ef773cac75dp-52, 0x1.47adf9e66c336p-52, 0x1.496ba32488f2fp-52,
    0x1.4b287f602415dp-52, 0x1.4ce49acb311dcp-52, 0x1.4ea001638a605p-52, 0x1.505abef5e5562p-52,
    0x1.5214df20a8b5ap-52, 0x1.53ce6d56a664fp-52, 0x1.558774e1bb2c8p-52, 0x1.574000e555f78p-52,
    0x1.58f81c60e8514p-52, 0x1.5aafd23241b59p-52, 0x1.5c672d17d733dp-52, 0x1.5e1e37b2f8cd3p-52,
    0x1.5fd4fc89f5e38p-52, 0x1.618b860a31fc3p-52, 0x1.6341de8a2b0a2p-52, 0x1.64f8104b7260bp-52,
    0x1.66ae257c99672p-52, 0x1.6864283b13137p-52, 0x1.6a1a22950b2b1p-52, 0x1.6bd01e8b343bbp-52,
    0x1.6d8626128d352p-52, 0x1.6f3c43161f854p-52, 0x1.70f27f78b68ebp-52, 0x1.72a8e516914c6p-52,
    0x1.745f7dc70eedcp-52, 0x1.7616535e5731fp-52, 0x1.77cd6faeff449p-52, 0x1.7984dc8babd93p-52,
    0x1.7b3ca3c8b1409p-52, 0x1.7cf4cf3db22fbp-52, 0x1.7ead68c73dee7p-52, 0x1.80667a486ea1fp-52,
    0x1.82200dac88676p-52, 0x1.83da2ce899f15p-52, 0x1.8594e1fd1f5bdp-52, 0x1.875036f7a7ec5p-52,
    0x1.890c35f47f72dp-52, 0x1.8ac8e9205c043p-52, 0x1.8c865aba10c9cp-52, 0x1.8e44951446a27p-52,
    0x1.9003a2973b58fp-52, 0x1.91c38dc288347p-52, 0x1.9384612ef0afcp-52, 0x1.954627903a28ap-52,
    0x1.9708ebb70d5eep-52, 0x1.98ccb892e2a31p-52, 0x1.9a919933f99bfp-52, 0x1.9c5798cd5d92cp-52,
    0x1.9e1ec2b6f7411p-52, 0x1.9fe7226fad24ap-52, 0x1.a1b0c39f93692p-52, 0x1.a37bb21a2c85bp-52,
    0x1.a547f9e0bbb88p-52, 0x1.a715a724aa9a4p-52, 0x1.a8e4c64a0313dp-52, 0x1.aab563e9ff108p-52,
    0x1.ac878cd5af5cep-52, 0x1.ae5b4e18bb336p-52, 0x1.b030b4fc3a11ap-52, 0x1.b207cf09a985bp-52,
    0x1.b3e0aa0e00c00p-52, 0x1.b5bb541ce3d03p-52, 0x1.b797db93f8927p-52, 0x1.b9764f1e5f73cp-52,
    0x1.bb56bdb85256ep-52, 0x1.bd3936b2ec0a2p-52, 0x1.bf1dc9b81ae83p-52, 0x1.c10486cec16a0p-52,
    0x1.c2ed7e5f07a2dp-52, 0x1.c4d8c136e0d1cp-52, 0x1.c6c6608ec8705p-52, 0x1.c8b66e0eba617p-52,
    0x1.caa8fbd36a2abp-52, 0x1.cc9e1c73bd690p-52, 0x1.ce95e3068e037p-52, 0x1.d0906328b8f6ep-52,
    0x1.d28db1037ef20p-52, 0x1.d48de1533c647p-52, 0x1.d691096e7f123p-52, 0x1.d8973f4d7fba5p-52,
    0x1.daa0999206e70p-52, 0x1.dcad2f8fc490ep-52, 0x1.debd195522e37p-52, 0x1.e0d06fb49d21cp-52,
    0x1.e2e74c4ea46f6p-52, 0x1.e501c99c1d188p-52, 0x1.e72002f97fe25p-52, 0x1.e94214b2abf0ap-52,
    0x1.eb681c0f76f08p-52, 0x1.ed9237610a73ap-52, 0x1.efc086101eca9p-52, 0x1.f1f328ac25321p-52,
    0x1.f42a40fb74d6dp-52, 0x1.f665f20c90168p-52, 0x1.f8a6604899782p-52, 0x1.faebb187122bfp-52,
    0x1.fd360d22fe785p-52, 0x1.ff859c118f60bp-52, 0x1.00ed447d3a075p-51, 0x1.021a8028fc947p-51,
    0x1.034a983a902abp-51, 0x1.047da4e3ef5c7p-51, 0x1.05b3bf6adb37ep-51, 0x1.06ed023a72668p-51,
    0x1.082988f632e17p-51, 0x1.0969708e8a254p-51, 0x1.0aacd7571c0c4p-51, 0x1.0bf3dd1eed448p-51,
    0x1.0d3ea34aa3d30p-51, 0x1.0e8d4cf116593p-51, 0x1.0fdffefa69fb6p-51, 0x1.1136e04207041p-51,
    0x1.129219bbb5d35p-51, 0x1.13f1d69c4096dp-51, 0x1.1556448602e3bp-51, 0x1.16bf93b9deef3p-51,
    0x1.182df74d21261p-51, 0x1.19a1a564eebacp-51, 0x1.1b1ad777f2f8ep-51, 0x1.1c99ca971a694p-51,
    0x1.1e1ebfbe4ae39p-51, 0x1.1fa9fc2e2d901p-51, 0x1.213bc9d04cc81p-51, 0x1.22d477a6fd3eep-51,
    0x1.24745a4ac9c24p-51, 0x1.261bcc77658e0p-51, 0x1.27cb2faa8592ep-51, 0x1.2982ecd770e78p-51,
    0x1.2b437532a0a52p-51, 0x1.2d0d43196db97p-51, 0x1.2ee0db1a978f5p-51, 0x1.30becd256aeeep-51,
    0x1.32a7b5e68a4a3p-51, 0x1.349c405ae12a3p-51, 0x1.369d27a33a840p-51, 0x1.38ab39256410ap-51,
    0x1.3ac7570ae88fap-51, 0x1.3cf27b31704a6p-51, 0x1.3f2dbaa60f475p-51, 0x1.417a49cb9e5dap-51,
    0x1.43d9815545e94p-51, 0x1.464ce44a73a15p-51, 0x1.48d62759c43bcp-51, 0x1.4b7739d6b5a27p-51,
    0x1.4e3250dcd8902p-51, 0x1.5109f53e9ac41p-51, 0x1.54011523a7e42p-51, 0x1.571b1a94ae41bp-51,
    0x1.5a5c08b718dd9p-51, 0x1.5dc8a243ad0fep-51, 0x1.61669cf861e4cp-51, 0x1.653ce7b006aeap-51,
    0x1.69540be9fe5c3p-51, 0x1.6db6b8d09e232p-51, 0x1.72728f05f7a34p-51, 0x1.7799556090673p-51,
    0x1.7d42df4d6ce8cp-51, 0x1.839030529f234p-51, 0x1.8ab0fbfaa7c14p-51, 0x1.92ee0946f4496p-51,
    0x1.9cbee014057abp-51, 0x1.a8fdc7894775ap-51, 0x1.b981f3878fdb1p-51, 0x1.d3bb48209ad33p-51
};

static const double fi_double[256] = {
    0x1.0000000000000p+0, 0x1.f446ac979f087p-1, 0x1.eb7545b6ca915p-1, 0x1.e3f11e027f077p-1,
    0x1.dd36fa704de95p-1, 0x1.d70920657bcf2p-1, 0x1.d144978a119dcp-1, 0x1.cbd33a8a72debp-1,
    0x1.c6a5ecea9787fp-1, 0x1.c1b1cd9eebaeap-1, 0x1.bceeb4ee1dc82p-1, 0x1.b85653a8ff552p-1,
    0x1.b3e3a8234dd10p-1, 0x1.af92a3f6ce8a2p-1, 0x1.ab5fef17a2504p-1, 0x1.a748bd550c9e1p-1,
    0x1.a34aafdf5af0fp-1, 0x1.9f63bee651fd8p-1, 0x1.9b9228d240681p-1, 0x1.97d4657617ac1p-1,
    0x1.94291c21b7a47p-1, 0x1.908f1bd31714fp-1, 0x1.8d0554fe60aa8p-1, 0x1.898ad48badf02p-1,
    0x1.861ebfc37bcacp-1, 0x1.82c050f56cf6ep-1, 0x1.7f6ed4b20e2cbp-1, 0x1.7c29a779c6858p-1,
    0x1.78f033ca0b0d5p-1, 0x1.75c1f0770d856p-1, 0x1.729e5f43f6d12p-1, 0x1.6f850baea7aeep-1,
    0x1.6c7589e635a89p-1, 0x1.696f75e513b2ap-1, 0x1.667272a92e323p-1, 0x1.637e298550c18p-1,
    0x1.6092498802665p-1, 0x1.5dae86f4aff6ap-1, 0x1.5ad29acc85c89p-1, 0x1.57fe4264c8d8fp-1,
    0x1.55313f08d9e46p-1, 0x1.526b55a656cd5p-1, 0x1.4fac4e820b667p-1, 0x1.4cf3f4f494ec0p-1,
    0x1.4a42172dc5278p-1, 0x1.479685fdf5012p-1, 0x1.44f114a493679p-1, 0x1.425198a355fe3p-1,
    0x1.3fb7e99585b82p-1, 0x1.3d23e10af31a3p-1, 0x1.3a955a662cd0ep-1, 0x1.380c32bda00d5p-1,
    0x1.358848bf550e9p-1, 0x1.33097c9703a35p-1, 0x1.308fafd6438efp-1, 0x1.2e1ac55ea3beep-1,
    0x1.2baaa14d7954ap-1, 0x1.293f28e93cd15p-1, 0x1.26d84290504edp-1, 0x1.2475d5a90db84p-1,
    0x1.2217ca92ff7f2p-1, 0x1.1fbe0a9929620p-1, 0x1.1d687fe549969p-1, 0x1.1b171573fd111p-1,
    0x1.18c9b709b3c50p-1, 0x1.16805128639dap-1, 0x1.143ad105ea99cp-1, 0x1.11f9248311f38p-1,
    0x1.0fbb3a2325913p-1, 0x1.0d810104142a0p-1, 0x1.0b4a68d70d9aep-1, 0x1.091761d995d81p-1,
    0x1.06e7dccf03c36p-1, 0x1.04bbcafa63f2ep-1, 0x1.02931e18b822ap-1, 0x1.006dc85b8cac4p-1,
    0x1.fc9778c7bbda1p-2, 0x1.f859da7a900cap-2, 0x1.f4229cb2f7af3p-2, 0x1.eff1a717e8f95p-2,
    0x1.ebc6e20bd1f54p-2, 0x1.e7a236a4ec3c5p-2, 0x1.e3838ea5f9b85p-2, 0x1.df6ad47763a09p-2,
    0x1.db57f320b56b1p-2, 0x1.d74ad6426de33p-2, 0x1.d3436a1021080p-2, 0x1.cf419b4ae5b6dp-2,
    0x1.cb45573c0a848p-2, 0x1.c74e8bb00d7c7p-2, 0x1.c35d26f1d2cb8p-2, 0x1.bf7117c616a17p-2,
    0x1.bb8a4d6716d91p-2, 0x1.b7a8b7807131bp-2, 0x1.b3cc462b331cap-2, 0x1.aff4e9ea18552p-2,
    0x1.ac2293a5f5a9ep-2, 0x1.a85534aa4d880p-2, 0x1.a48cbea20c04dp-2, 0x1.a0c923946843ep-2,
    0x1.9d0a55e1e93dfp-2, 0x1.995048418c0c6p-2, 0x1.959aedbe09f93p-2, 0x1.91ea39b33cb17p-2,
    0x1.8e3e1fcb9f115p-2, 0x1.8a9693fde9188p-2, 0x1.86f38a8ac5ab6p-2, 0x1.8354f7faa0dd9p-2,
    0x1.7fbad11b8d911p-2, 0x1.7c250aff414b0p-2, 0x1.78939af9252ebp-2, 0x1.7506769c7b1edp-2,
    0x1.717d93ba9614cp-2, 0x1.6df8e86124caap-2, 0x1.6a786ad88de21p-2, 0x1.66fc11a25cbe2p-2,
    0x1.6383d377be515p-2, 0x1.600fa7480d2c8p-2, 0x1.5c9f84376c244p-2, 0x1.5933619d6eebep-2,
    0x1.55cb3703d0100p-2, 0x1.5266fc2533bedp-2, 0x1.4f06a8ebf6d92p-2, 0x1.4baa357109ca2p-2,
    0x1.485199fad6ad4p-2, 0x1.44fccefc324fep-2, 0x1.41abcd1357a19p-2, 0x1.3e5e8d08ed2dbp-2,
    0x1.3b1507cf143aep-2, 0x1.37cf368081379p-2, 0x1.348d125f9d19ep-2, 0x1.314e94d5af62fp-2,
    0x1.2e13b77210766p-2, 0x1.2adc73e963fddp-2, 0x1.27a8c414db11ep-2, 0x1.2478a1f17de89p-2,
    0x1.214c079f7cc9ep-2, 0x1.1e22ef6188116p-2, 0x1.1afd539c2f050p-2, 0x1.17db2ed5454e8p-2,
    0x1.14bc7bb34ee67p-2, 0x1.11a134fcf2423p-2, 0x1.0e895598709c4p-2, 0x1.0b74d88b242dap-2,
    0x1.0863b8f904336p-2, 0x1.0555f2242e9d9p-2, 0x1.024b7f6c7747ep-2, 0x1.fe88b89df93c5p-3,
    0x1.f88108cb83235p-3, 0x1.f27fe6ce998d2p-3, 0x1.ec854a4c99c44p-3, 0x1.e6912b2283cddp-3,
    0x1.e0a3816457184p-3, 0x1.dabc455c7900ap-3, 0x1.d4db6f8b2514fp-3, 0x1.cf00f8a5e6fccp-3,
    0x1.c92cd9971df53p-3, 0x1.c35f0b7d89d47p-3, 0x1.bd9787abe18a1p-3, 0x1.b7d647a8731aap-3,
    0x1.b21b452ccd13ap-3, 0x1.ac667a2571807p-3, 0x1.a6b7e0b19267ep-3, 0x1.a10f7322d7e3dp-3,
    0x1.9b6d2bfd2fe5ap-3, 0x1.95d105f6a7c27p-3, 0x1.903afbf74fa69p-3, 0x1.8aab09192815bp-3,
    0x1.852128a819a38p-3, 0x1.7f9d5621f7175p-3, 0x1.7a1f8d368a323p-3, 0x1.74a7c9c7ab5a6p-3,
    0x1.6f3607e964716p-3, 0x1.69ca43e21f25cp-3, 0x1.64647a2adf19cp-3, 0x1.5f04a76f883f9p-3,
    0x1.59aac88f31d6cp-3, 0x1.5456da9c86835p-3, 0x1.4f08dade31fc1p-3, 0x1.49c0c6cf5ce2dp-3,
    0x1.447e9c20375d5p-3, 0x1.3f4258b6931aep-3, 0x1.3a0bfaae8d7eep-3, 0x1.34db805b4ab88p-3,
    0x1.2fb0e847c2a65p-3, 0x1.2a8c3137a071ap-3, 0x1.256d5a2835eb7p-3, 0x1.2054625183c34p-3,
    0x1.1b41492757d42p-3, 0x1.16340e5a82d63p-3, 0x1.112cb1da26eb9p-3, 0x1.0c2b33d5209bap-3,
    0x1.072f94bb8bf85p-3, 0x1.0239d54067d2ap-3, 0x1.fa93ecb6b222cp-4, 0x1.f0bff29520e1cp-4,
    0x1.e6f7bf29aa54bp-4, 0x1.dd3b56176e88fp-4, 0x1.d38abb9bd91e5p-4, 0x1.c9e5f493b740ap-4,
    0x1.c04d0680b1015p-4, 0x1.b6bff78f2e233p-4, 0x1.ad3ece9caf633p-4, 0x1.a3c9933ea6286p-4,
    0x1.9a604dc9d5b19p-4, 0x1.9103075a4a0abp-4, 0x1.87b1c9dbf2852p-4, 0x1.7e6ca013eefd6p-4,
    0x1.753395aaa1176p-4, 0x1.6c06b73694a4cp-4, 0x1.62e6124854d18p-4, 0x1.59d1b577466a4p-4,
    0x1.50c9b06fa2baep-4, 0x1.47ce1401b2213p-4, 0x1.3edef23269a86p-4, 0x1.35fc5e4d93e70p-4,
    0x1.2d266cf9b3111p-4, 0x1.245d344dd0d91p-4, 0x1.1ba0cbe97897dp-4, 0x1.12f14d0f2179dp-4,
    0x1.0a4ed2c159625p-4, 0x1.01b979e30e497p-4, 0x1.f262c2b6c6e35p-5, 0x1.e16d547b25181p-5,
    0x1.d092efeadf162p-5, 0x1.bfd3e0f282a2cp-5, 0x1.af30790385f70p-5, 0x1.9ea90f9295563p-5,
    0x1.8e3e02a68b5abp-5, 0x1.7defb77af271ep-5, 0x1.6dbe9b398d064p-5, 0x1.5dab23cf2add4p-5,
    0x1.4db5d0e11275dp-5, 0x1.3ddf2ce98eecbp-5, 0x1.2e27ce83df497p-5, 0x1.1e9059f1f6abcp-5,
    0x1.0f1982e968011p-5, 0x1.ff881d718a5c4p-6, 0x1.e121adb828c75p-6, 0x1.c301983cd091ap-6,
    0x1.a529f4e22ebf8p-6, 0x1.879d1b600c10ap-6, 0x1.6a5daf40bbf82p-6, 0x1.4d6eaf2fbb064p-6,
    0x1.30d388dab5e13p-6, 0x1.1490334603012p-6, 0x1.f152a4f72dd49p-7, 0x1.ba48d274f8facp-7,
    0x1.841040d8da478p-7, 0x1.4eb96421acfe0p-7, 0x1.1a59229952f92p-7, 0x1.ce160f8ec6837p-8,
    0x1.69ea8d90cb85dp-8, 0x1.08a1f03b0b1fdp-8, 0x1.55f9f43c1b067p-9, 0x1.4a605b6b9f70fp-10
};

static inline double next_double(bitgen_t *bg)
{
    return (double)(bg->next_uint64(bg->state) >> 11) * 0x1.0p-53;
}

static inline double standard_normal(bitgen_t *bg)
{
    for (;;) {
        uint64_t r = bg->next_uint64(bg->state);
        int idx = (int)(r & 0xff);
        r >>= 8;
        uint64_t rabs = (r >> 1) & 0x000fffffffffffff;
        double x = (double)rabs * wi_double[idx];
        uint64_t bits;
        memcpy(&bits, &x, sizeof bits);
        bits ^= (r & 1) << 63;
        memcpy(&x, &bits, sizeof x);
        if (rabs < ki_double[idx])
            return x;
        if (idx == 0) {
            for (;;) {
                /* 1 - U, so that log1p never sees -1 */
                double xx = -ZIGGURAT_NOR_INV_R * log1p(-next_double(bg));
                double yy = -log1p(-next_double(bg));
                if (yy + yy > xx * xx)
                    return ((rabs >> 8) & 1) ? -(ZIGGURAT_NOR_R + xx) : ZIGGURAT_NOR_R + xx;
            }
        }
        if ((fi_double[idx - 1] - fi_double[idx]) * next_double(bg) + fi_double[idx]
            < exp(-0.5 * x * x))
            return x;
    }
}

void normal_fill(bitgen_t *bg, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = standard_normal(bg);
}
