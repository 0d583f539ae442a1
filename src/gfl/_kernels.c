/* Per-element loops of gfl: the fused-lasso solver and its certificate
 * (called from solver.py), and the reduction of each chunk of
 * partial-sum paths in the iterated-logarithm check (called from lil.py).
 *
 * Each function does the arithmetic of the loop it stands for in the same
 * operations and the same order, so its results are bit for bit those of
 * the reference each names: for the solver, the class-based reference in
 * tests/solver_reference.py, every max/min being the comparison Python's
 * builtin makes (``b if b > a else a``), ties and signed zeros included;
 * for the paths, numpy's cumsum, abs, divide and max.  The file must be
 * compiled with -ffp-contract=off and without -ffast-math, so that no
 * a*b + c is fused into one rounding and no operation is reordered.
 *
 * The caller owns every buffer; nothing here allocates.  Sizes are those
 * the Python wrappers in solver.py and lil.py pass: n >= 1 elements (r >= 1
 * paths of h >= 1 steps), and the work, state or output block each
 * exported function names.
 */

#include <float.h>
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

/* Square loss: _QuadMessage.  The message derivative is piecewise linear:
 * knots xs[l..r-1] and one coefficient pair per interval in ca/cb[l..r]
 * (knot j separates intervals j and j + 1), the derivative on an interval
 * being (ca + A)*x + (cb + B).  The data term only moves the offset (A, B),
 * and a crossing pops what it passes at its end and pushes at most one knot
 * there.  With l = r = n at the start, the n - 1 steps push at most n - 1
 * knots on each side of index n, and the final left crossing one more, at
 * index 0 or above, so xs, ca and cb of length 2n never overflow. */
struct quad {
    double *xs, *ca, *cb;
    ptrdiff_t l, r;
    double A, B;
};

/* Where the derivative on interval j reaches target, as both crossings of
 * _QuadMessage compute it: the root of its line, or -inf (inf) if the line
 * is flat at or above (below) target.  It is (target - ic) / sl, so a
 * crossing of 0.0 at zero is +0.0. */
static inline double quad_root(const struct quad *m, ptrdiff_t j, double target)
{
    double sl = m->ca[j] + m->A, ic = m->cb[j] + m->B;

    if (sl > 0.0)
        return (target - ic) / sl;
    return ic >= target ? -INFINITY : INFINITY;
}

/* _QuadMessage.crossing_left: the smallest x with derivative(x+) >= target;
 * the left tail becomes target from there. */
static inline int quad_left(struct quad *m, double target, double *x)
{
    double floor_x = -INFINITY, u;

    for (;;) {
        u = quad_root(m, m->l, target);
        if (u <= (m->l < m->r ? m->xs[m->l] : INFINITY)) {
            if (floor_x > u)
                u = floor_x;
            break;
        }
        if (m->l == m->r)
            return GFL_BELOW;
        floor_x = m->xs[m->l++];
    }
    if (u != -INFINITY) {
        if (!(m->l < m->r && m->xs[m->l] == u))
            m->xs[--m->l] = u;
        m->ca[m->l] = -m->A;
        m->cb[m->l] = target - m->B;
    }
    *x = u;
    return GFL_OK;
}

/* _QuadMessage.crossing_right: the smallest x with derivative >= target on
 * [x, inf); the right tail becomes target. */
static inline int quad_right(struct quad *m, double target, double *x)
{
    double ceil_x = INFINITY, u;

    for (;;) {
        u = quad_root(m, m->r, target);
        if (u >= (m->l < m->r ? m->xs[m->r - 1] : -INFINITY)) {
            if (ceil_x < u)
                u = ceil_x;
            break;
        }
        if (m->l == m->r)
            return GFL_ABOVE;
        ceil_x = m->xs[--m->r];
    }
    if (u != INFINITY) {
        if (!(m->l < m->r && m->xs[m->r - 1] == u))
            m->xs[m->r++] = u;
        m->ca[m->r] = -m->A;
        m->cb[m->r] = target - m->B;
    }
    *x = u;
    return GFL_OK;
}

/* Quantile loss: _StepMessage.  The message derivative is a nondecreasing
 * step function: breakpoints in sorted order, each with its positive jump,
 * value c0 left of every breakpoint and clast right of every one.  The nb
 * live (breakpoint, jump) pairs are the window w[0..nb), which lies inside
 * a region of 2n pairs and starts at its middle, pair n.  Each data point
 * adds at most one breakpoint; an insertion makes room by moving the
 * shorter side of the window, so it either lowers the window's start or
 * raises its end by one, and a crossing only deletes, raising the start
 * (left) or lowering the end (right).  The start thus falls only on an
 * insertion and the end rises only on one; with at most n insertions the
 * start stays at pair 0 or above and the end at pair 2n or below. */
struct bj {
    double bp, jm;
};

struct step {
    struct bj *w;
    ptrdiff_t nb;
    double c0, clast, tau;
};

/* _StepMessage.add_data: a unit jump at y, inserted in sorted order where
 * bisect_left puts it.  list.insert moves every pair right of the
 * insertion point up one slot; moving the pairs left of it down one slot
 * instead, when they are fewer, leaves the same ordered sequence. */
static inline void step_add(struct step *m, double y)
{
    ptrdiff_t lo = 0, hi = m->nb, mid;

    m->c0 -= m->tau;
    m->clast -= m->tau;
    while (lo < hi) {
        mid = (lo + hi) / 2;
        if (m->w[mid].bp < y)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo < m->nb && m->w[lo].bp == y) {
        m->w[lo].jm += 1.0;
    } else {
        /* no call to move nothing: on inputs that mostly append at one end
         * (a ramp) the call alone costs a fifth of the step */
        if (lo < m->nb - lo) {
            m->w -= 1;
            if (lo > 0)
                memmove(m->w, m->w + 1, (size_t)lo * sizeof *m->w);
        } else if (lo < m->nb) {
            memmove(m->w + lo + 1, m->w + lo, (size_t)(m->nb - lo) * sizeof *m->w);
        }
        m->w[lo].bp = y;
        m->w[lo].jm = 1.0;
        m->nb += 1;
    }
    m->clast += 1.0;
}

/* _StepMessage.crossing_left: the smallest x with derivative(x+) >= target;
 * the breakpoints below it are deleted and the left tail becomes target. */
static inline int step_left(struct step *m, double target, double *x)
{
    ptrdiff_t h = 0;
    double c = m->c0;

    if (c >= target) {
        *x = -INFINITY;
        return GFL_OK;
    }
    while (h < m->nb && c < target)
        c += m->w[h++].jm;
    if (c < target)
        return GFL_BELOW;
    h -= 1; /* keep the crossing breakpoint with an adjusted jump */
    m->w[h].jm = c - target;
    m->w += h;
    m->nb -= h;
    m->c0 = target;
    *x = m->w[0].bp;
    return GFL_OK;
}

/* _StepMessage.crossing_right: the smallest x with derivative >= target on
 * [x, inf); the breakpoints above it are deleted and the right tail becomes
 * target. */
static inline int step_right(struct step *m, double target, double *x)
{
    ptrdiff_t k = m->nb - 1;
    double c = m->clast;

    if (c <= target) {
        *x = INFINITY;
        return GFL_OK;
    }
    while (k > 0 && c - m->w[k].jm >= target) {
        c -= m->w[k].jm;
        k -= 1;
    }
    /* the piece left of breakpoint k is below target (or k == 0): crossing there */
    m->w[k].jm = target - (c - m->w[k].jm);
    if (m->w[k].jm < 0.0)
        return GFL_INCONSISTENT;
    m->nb = k + 1;
    m->clast = target;
    *x = m->w[k].bp;
    return GFL_OK;
}

/* The DP, solve_path: each step adds a data point and clips the message's
 * derivative to [-lam, lam], recording the clip window in lo and hi; theta_n
 * is the left crossing of 0.0, and each theta_i is then clamped to its
 * step's window, from theta_n down.  work holds lo and hi (n each, the last
 * entry unused), then xs, ca and cb (2n each) for the square loss, 8n in
 * all, or the region of 2n (breakpoint, jump) pairs for the quantile loss,
 * 6n in all. */
int gfl_path(const double *ys, ptrdiff_t n, double lam, int quantile, double tau,
             double *theta, double *work)
{
    double *lo = work, *hi = work + n, neg_lam = -lam, t;
    ptrdiff_t i;
    int status;

    if (quantile) {
        struct step m = {(struct bj *)(work + 2 * n) + n, 0, 0.0, 0.0, tau};
        for (i = 0; i < n - 1; i++) {
            step_add(&m, ys[i]);
            if ((status = step_left(&m, neg_lam, &lo[i])) || (status = step_right(&m, lam, &hi[i])))
                return status;
        }
        step_add(&m, ys[n - 1]);
        status = step_left(&m, 0.0, &t);
    } else {
        struct quad m = {work + 2 * n, work + 4 * n, work + 6 * n, n, n, 0.0, 0.0};
        m.ca[n] = m.cb[n] = 0.0;
        for (i = 0; i < n - 1; i++) {
            m.A += 1.0; /* _QuadMessage.add_data */
            m.B -= ys[i];
            if ((status = quad_left(&m, neg_lam, &lo[i])) || (status = quad_right(&m, lam, &hi[i])))
                return status;
        }
        m.A += 1.0;
        m.B -= ys[n - 1];
        status = quad_left(&m, 0.0, &t);
    }
    if (status)
        return status;
    if (!isfinite(t))
        return GFL_UNBOUNDED;
    theta[n - 1] = t;
    for (i = n - 2; i >= 0; i--) {
        if (lo[i] > t)
            t = lo[i];
        if (hi[i] < t)
            t = hi[i];
        theta[i] = t;
    }
    return GFL_OK;
}

/* The certificate.  state holds 4n - 2 doubles: the stationarity bounds
 * g_lo and g_hi of each element (n each), then the bands band_lo and
 * band_hi of the n - 1 interior edges.
 *
 * The forward pass writes state.  The bounds are -rho'_+(r) and -rho'_-(r)
 * at the residual r = y_i - theta_i, in the operations of the losses' numpy
 * forms: -(r + 0.0) for the square loss (so r = -0.0 gives -0.0), and -tau
 * or -(tau - 1.0), chosen by r >= 0 and by r > 0, for the quantile loss.
 * It then propagates the feasible band of each dual variable z_i (lam on an
 * upward jump of theta, -lam on a downward one, free in [-lam, lam] on a
 * flat edge; z_n = 0 closes the chain), and the largest gap met is the
 * residual returned, or -1.0 if some theta_i is not finite.
 *
 * If z is not NULL, the backward pass then picks one z per interior edge
 * from state: it runs from z_n = 0, pairing element i's bounds with band
 * i - 1, and writes z from z_{n-1} down to z_1. */
double gfl_kkt(const double *y, const double *theta, ptrdiff_t n, int quantile, double tau,
               double lam, double *state, double *z)
{
    double *g_lo = state, *g_hi = state + n;
    double *band_lo = state + 2 * n, *band_hi = band_lo + (n - 1);
    double resid = 0.0, zlo = 0.0, zhi = 0.0, neg_lam = -lam, alo, ahi, gap, r;
    double g_pos = -tau, g_neg = -(tau - 1.0), cur = 0.0, wlo, whi, slo, shi, blo, bhi;
    ptrdiff_t i;

    for (i = 0; i < n; i++) {
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
    if (z == NULL)
        return resid;
    for (i = n - 1; i > 0; i--) {
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
    return resid;
}

/* One chunk of the iterated-logarithm check: r paths of h steps each, x
 * holding path i's steps in x[i*h .. i*h + h).  Each path's partial sums
 * are formed in numpy's cumsum order (s = x[0], then s + x[t]) and its
 * ratios |s| / env[t] as np.abs and np.divide form them.  path_max[i] gets
 * the path's largest ratio, or NaN if a ratio is NaN, as ndarray.max gives
 * it, and grid[i*g .. i*g + g) its ratios at t = 1, 2, 4, ..., 2^(g-1),
 * where g is the bit length of h.  x and env are only read.  The NaN test
 * is kept out of the running maximum, so that each step's comparison
 * does not wait for the previous one.
 *
 * A step off the grid whose ratio cannot exceed the running maximum m is
 * not divided.  lil_bar gives mc = fl(m * (1 - 2^-51)) when mc and every
 * fl(mc * env[t]) lie in [2^-900, DBL_MAX] (checked at the least and the
 * largest env[t], as rounding is monotone), and -1 otherwise.  In range,
 * each product is normal, so it is at most 1 + 2^-53 times its exact
 * value, and q = fl(mc * env[t]) < m * env[t] exactly, env[t] >= lo
 * being positive.  Then |s| <= q gives |s| / env[t] < m exactly, and,
 * rounding being monotone and m a double, fl(|s| / env[t]) <= m: the ratio
 * would leave m as it is.  A NaN or infinite |s|, or a NaN env[t], fails
 * the test and is divided, as is every step while mc is -1 (m is then 0,
 * tiny, huge, infinite or NaN, or an env value is not positive). */
static inline double lil_bar(double m, double lo, double hi)
{
    double mc = m * (1.0 - 0x1p-51);

    return mc >= 0x1p-900 && mc * lo >= 0x1p-900 && mc * hi <= DBL_MAX ? mc : -1.0;
}

void gfl_lil_chunk(const double *x, ptrdiff_t r, ptrdiff_t h, const double *env,
                   double *path_max, double *grid)
{
    ptrdiff_t g = 0, i, t, k, next;
    double s, v, m, mc, lo = INFINITY, hi = 0.0;
    int nan;

    for (t = h; t > 0; t >>= 1)
        g++;
    for (t = 0; t < h; t++) {
        lo = env[t] < lo ? env[t] : lo;
        hi = env[t] > hi ? env[t] : hi;
    }
    for (i = 0; i < r; i++, x += h, grid += g) {
        s = x[0];
        m = grid[0] = fabs(s) / env[0];
        mc = lil_bar(m, lo, hi);
        nan = m != m;
        /* the grid steps t = 2^k sit at indices next = 2^k - 1 */
        for (t = 1, k = 1, next = 1; t < h; t++) {
            s = s + x[t];
            if (t != next && fabs(s) <= mc * env[t])
                continue;
            v = fabs(s) / env[t];
            if (v > m) {
                m = v;
                mc = lil_bar(m, lo, hi);
            }
            nan |= v != v;
            if (t == next) {
                grid[k++] = v;
                next = 2 * next + 1;
            }
        }
        path_max[i] = nan ? NAN : m;
    }
}
