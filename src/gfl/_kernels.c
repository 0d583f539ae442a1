/* Per-element loops of the fused-lasso solver and its certificate.
 *
 * Each function does the arithmetic of the loop it stands for in the same
 * operations and the same order, so its results are bit for bit those of
 * the class-based reference in tests/solver_reference.py: every max/min is
 * the comparison Python's builtin makes (``b if b > a else a``), ties and
 * signed zeros included.  The file must be compiled with
 * -ffp-contract=off and without -ffast-math, so that no a*b + c is fused
 * into one rounding and no operation is reordered.
 *
 * The caller owns every buffer; nothing here allocates.  Sizes are those
 * the Python wrappers in solver.py pass: n >= 1 elements, lo/hi with n - 1
 * entries, and the scratch each forward pass names.
 */

#include <math.h>
#include <stddef.h>
#include <string.h>

enum {
    GFL_OK = 0,
    GFL_BELOW = 1,        /* derivative stays below target */
    GFL_ABOVE = 2,        /* derivative stays above target */
    GFL_INCONSISTENT = 3, /* negative jump in the step message */
    GFL_UNBOUNDED = 4     /* theta_n is not finite */
};

/* Square loss.  The message derivative is piecewise linear: knots xs[l..r-1]
 * and one coefficient pair per interval in ca/cb[l..r] (knot j separates
 * intervals j and j + 1), the derivative on an interval being
 * (ca + A)*x + (cb + B).  The data term only moves the offset (A, B), and
 * clipping pops what it passes from either end.  Each step pushes at most
 * one knot at each end, so with l = r = n at the start, xs, ca and cb of
 * length 2n never overflow. */
static int square_forward(const double *ys, ptrdiff_t n, double lam, double *lo,
                          double *hi, double *xs, double *ca, double *cb,
                          double *theta_n)
{
    ptrdiff_t l = n, r = n;
    double A = 0.0, B = 0.0, neg_lam = -lam;
    double sl, ic, u, floor_x, ceil_x;

    ca[n] = 0.0;
    cb[n] = 0.0;
    for (ptrdiff_t i = 0; i < n - 1; i++) {
        A += 1.0;
        B -= ys[i];
        /* smallest x with derivative(x+) >= -lam; the left tail becomes -lam */
        floor_x = -INFINITY;
        for (;;) {
            sl = ca[l] + A;
            ic = cb[l] + B;
            if (sl > 0.0)
                u = (neg_lam - ic) / sl;
            else if (ic >= neg_lam)
                u = -INFINITY;
            else
                u = INFINITY;
            if (u <= (l < r ? xs[l] : INFINITY)) {
                if (floor_x > u)
                    u = floor_x;
                break;
            }
            if (l == r)
                return GFL_BELOW;
            floor_x = xs[l++];
        }
        if (u != -INFINITY) {
            if (!(l < r && xs[l] == u))
                xs[--l] = u;
            ca[l] = -A;
            cb[l] = neg_lam - B;
        }
        lo[i] = u;
        /* smallest x with derivative >= lam on [x, inf); the right tail
         * becomes lam */
        ceil_x = INFINITY;
        for (;;) {
            sl = ca[r] + A;
            ic = cb[r] + B;
            if (sl > 0.0)
                u = (lam - ic) / sl;
            else if (ic >= lam)
                u = -INFINITY;
            else
                u = INFINITY;
            if (u >= (l < r ? xs[r - 1] : -INFINITY)) {
                if (ceil_x < u)
                    u = ceil_x;
                break;
            }
            if (l == r)
                return GFL_ABOVE;
            ceil_x = xs[--r];
        }
        if (u != INFINITY) {
            if (!(l < r && xs[r - 1] == u))
                xs[r++] = u;
            ca[r] = -A;
            cb[r] = lam - B;
        }
        hi[i] = u;
    }
    /* theta_n: the left crossing of 0.  It is (0.0 - ic) / sl, not -ic / sl,
     * so that a crossing at zero is +0.0. */
    A += 1.0;
    B -= ys[n - 1];
    floor_x = -INFINITY;
    for (;;) {
        sl = ca[l] + A;
        ic = cb[l] + B;
        if (sl > 0.0)
            u = (0.0 - ic) / sl;
        else if (ic >= 0.0)
            u = -INFINITY;
        else
            u = INFINITY;
        if (u <= (l < r ? xs[l] : INFINITY)) {
            *theta_n = floor_x > u ? floor_x : u;
            return GFL_OK;
        }
        if (l == r)
            return GFL_BELOW;
        floor_x = xs[l++];
    }
}

/* First index in sorted a[0..len) whose value is not below x: the loop of
 * Python's bisect.bisect_left. */
static ptrdiff_t bisect_left(const double *a, ptrdiff_t len, double x)
{
    ptrdiff_t lo = 0, hi = len;
    while (lo < hi) {
        ptrdiff_t mid = (lo + hi) / 2;
        if (a[mid] < x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Quantile loss.  The message derivative is a nondecreasing step function:
 * sorted breakpoints bp[0..nb) with positive jumps jm, value c0 left of
 * every breakpoint and clast right of every one.  Each data point inserts a
 * unit jump in sorted order (memmove, as list.insert does), and clipping
 * deletes the breakpoints it passes from either end, so only live
 * breakpoints are kept and nb <= n.  Each step clips the message of the
 * previous data point, then adds its own. */
static int quantile_forward(const double *ys, ptrdiff_t n, double lam, double tau,
                            double *lo, double *hi, double *bp, double *jm,
                            double *theta_n)
{
    ptrdiff_t nb = 1, h, k, pos;
    double c0 = -tau, clast = c0 + 1.0, neg_lam = -lam, c, yi;

    bp[0] = ys[0];
    jm[0] = 1.0;
    for (ptrdiff_t i = 1; i < n; i++) {
        yi = ys[i];
        /* smallest x with derivative(x+) >= -lam; the left tail becomes -lam */
        if (c0 >= neg_lam) {
            lo[i - 1] = -INFINITY;
        } else {
            c = c0;
            h = 0;
            while (h < nb && c < neg_lam)
                c += jm[h++];
            if (c < neg_lam)
                return GFL_BELOW;
            h -= 1; /* keep the crossing breakpoint with an adjusted jump */
            jm[h] = c - neg_lam;
            if (h) {
                nb -= h;
                memmove(bp, bp + h, (size_t)nb * sizeof *bp);
                memmove(jm, jm + h, (size_t)nb * sizeof *jm);
            }
            c0 = neg_lam;
            lo[i - 1] = bp[0];
        }
        /* smallest x with derivative >= lam on [x, inf); the right tail
         * becomes lam */
        if (clast <= lam) {
            hi[i - 1] = INFINITY;
        } else {
            c = clast;
            k = nb - 1;
            while (k > 0 && c - jm[k] >= lam) {
                c -= jm[k];
                k -= 1;
            }
            /* the piece left of bp[k] is below lam (or k == 0): crossing at bp[k] */
            jm[k] = lam - (c - jm[k]);
            if (jm[k] < 0.0)
                return GFL_INCONSISTENT;
            nb = k + 1;
            clast = lam;
            hi[i - 1] = bp[k];
        }
        c0 -= tau;
        clast -= tau;
        pos = bisect_left(bp, nb, yi);
        if (pos < nb && bp[pos] == yi) {
            jm[pos] += 1.0;
        } else {
            memmove(bp + pos + 1, bp + pos, (size_t)(nb - pos) * sizeof *bp);
            memmove(jm + pos + 1, jm + pos, (size_t)(nb - pos) * sizeof *jm);
            bp[pos] = yi;
            jm[pos] = 1.0;
            nb += 1;
        }
        clast += 1.0;
    }
    /* theta_n: the left crossing of 0 */
    if (c0 >= 0.0) {
        *theta_n = -INFINITY;
        return GFL_OK;
    }
    c = c0;
    for (ptrdiff_t j = 0; j < nb; j++) {
        c += jm[j];
        if (c >= 0.0) {
            *theta_n = bp[j];
            return GFL_OK;
        }
    }
    return GFL_BELOW;
}

/* Clamp each theta_i to the clip window of its step, from theta_n down. */
static int backward_clamp(ptrdiff_t n, double t, const double *lo, const double *hi,
                          double *theta)
{
    if (!isfinite(t))
        return GFL_UNBOUNDED;
    theta[n - 1] = t;
    for (ptrdiff_t i = n - 2; i >= 0; i--) {
        if (lo[i] > t)
            t = lo[i];
        if (hi[i] < t)
            t = hi[i];
        theta[i] = t;
    }
    return GFL_OK;
}

/* The DP for the square loss.  work holds 8n doubles: lo and hi (n each, the
 * last entry unused), then xs, ca and cb (2n each). */
int gfl_square_path(const double *ys, ptrdiff_t n, double lam, double *theta,
                    double *work)
{
    double *lo = work, *hi = work + n, *xs = work + 2 * n;
    double *ca = xs + 2 * n, *cb = ca + 2 * n;
    double t;
    int status = square_forward(ys, n, lam, lo, hi, xs, ca, cb, &t);
    return status ? status : backward_clamp(n, t, lo, hi, theta);
}

/* The DP for the quantile loss.  work holds 4n doubles: lo, hi, bp and jm
 * (n each). */
int gfl_quantile_path(const double *ys, ptrdiff_t n, double lam, double tau,
                      double *theta, double *work)
{
    double *lo = work, *hi = work + n, *bp = work + 2 * n, *jm = work + 3 * n;
    double t;
    int status = quantile_forward(ys, n, lam, tau, lo, hi, bp, jm, &t);
    return status ? status : backward_clamp(n, t, lo, hi, theta);
}

/* Forward pass of the certificate.  state holds 4n - 2 doubles: the
 * stationarity bounds g_lo and g_hi of each element (n each), then the bands
 * band_lo and band_hi of the n - 1 interior edges.  The bounds are
 * -rho'_+(r) and -rho'_-(r) at the residual r = y_i - theta_i, in the
 * operations of the losses' numpy forms: -(r + 0.0) for the square loss (so
 * r = -0.0 gives -0.0), and -tau or -(tau - 1.0), chosen by r >= 0 and by
 * r > 0, for the quantile loss.  The pass then propagates the feasible band
 * of each dual variable z_i (lam on an upward jump of theta, -lam on a
 * downward one, free in [-lam, lam] on a flat edge; z_n = 0 closes the chain)
 * and returns the largest gap met, or -1.0 if some theta_i is not finite.
 * neg_lam is passed in, not computed, because it is the caller's -lam: +0.0
 * for an integer lam of 0. */
double gfl_kkt_bands(const double *y, const double *theta, ptrdiff_t n, int quantile,
                     double tau, double lam, double neg_lam, double *state)
{
    double *g_lo = state, *g_hi = state + n;
    double *band_lo = state + 2 * n, *band_hi = band_lo + (n - 1);
    double resid = 0.0, zlo = 0.0, zhi = 0.0, alo, ahi, gap, r;
    double g_pos = -tau, g_neg = -(tau - 1.0);

    for (ptrdiff_t i = 0; i < n; i++) {
        if (!isfinite(theta[i]))
            return -1.0;
        r = y[i] - theta[i];
        if (quantile) {
            g_lo[i] = r >= 0.0 ? g_pos : g_neg;
            g_hi[i] = r > 0.0 ? g_pos : g_neg;
        } else {
            g_lo[i] = g_hi[i] = -(r + 0.0);
        }
        if (i < n - 1) {
            alo = theta[i + 1] > theta[i] ? lam : neg_lam;
            ahi = theta[i + 1] < theta[i] ? neg_lam : lam;
        } else {
            alo = ahi = 0.0;
        }
        zlo += g_lo[i];
        if (alo > zlo)
            zlo = alo;
        zhi += g_hi[i];
        if (ahi < zhi)
            zhi = ahi;
        if (zlo > zhi) {
            gap = zlo - zhi;
            if (gap > resid)
                resid = gap;
            zlo = zhi = 0.5 * (zlo + zhi);
        }
        /* the last band only closes the chain */
        if (i < n - 1) {
            band_lo[i] = zlo;
            band_hi[i] = zhi;
        }
    }
    return resid;
}

/* Backward pass of the certificate: one z per interior edge, from the state
 * the forward pass wrote.  Runs from z_n = 0, pairing element i's bounds
 * with band i - 1; z is written from z_{n-1} down to z_1. */
void gfl_kkt_dual(const double *state, ptrdiff_t n, double *z)
{
    const double *g_lo = state, *g_hi = state + n;
    const double *band_lo = state + 2 * n, *band_hi = band_lo + (n - 1);
    double cur = 0.0, wlo, whi, slo, shi, blo, bhi;

    for (ptrdiff_t i = n - 1; i > 0; i--) {
        blo = band_lo[i - 1];
        bhi = band_hi[i - 1];
        wlo = cur - g_hi[i];
        whi = cur - g_lo[i];
        slo = wlo > blo ? wlo : blo;
        shi = whi < bhi ? whi : bhi;
        if (slo > shi) {
            cur = 0.5 * (slo + shi);
            slo = blo;
            shi = bhi;
        }
        if (slo > cur)
            cur = slo;
        if (shi < cur)
            cur = shi;
        z[i - 1] = cur;
    }
}
