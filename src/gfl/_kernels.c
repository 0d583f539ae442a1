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
 * The row writer and the reader at the end (called from cli.py) turn
 * table text into numbers and back.  gfl_write_rows writes a block of rows
 * of a CSV or of a JSON row table, each int64, float64 or bool cell as the
 * bytes of Python's repr (a bool 0 or 1), in integer arithmetic only, and
 * refuses a block holding a float64 it leaves to repr.  cli.py passes it
 * the columns' bytes, a layout of three int64 per column, the k + 1
 * NUL-ended pieces and an output of 24 bytes per cell plus the pieces'
 * bytes per row.  gfl_read_values reads gfl solve's input, a value per
 * line, converting exactly each line it takes and handing every other one
 * back for float() to read; cli.py passes it the file's bytes, an output
 * of one double per line and its three-entry state.
 *
 * gfl_draws, last (called from losses.py), draws Gaussian or Cauchy noise
 * bit for bit as numpy's Generator(PCG64) does, from the generator's
 * 128-bit state, which it advances; losses.py passes it the state and
 * increment as four uint64 and an output of n >= 0 doubles.
 *
 * The caller owns every buffer; nothing here allocates.  Sizes are those
 * the Python wrappers in solver.py, lil.py and losses.py pass: n >= 1
 * elements (r >= 1 paths of h >= 1 steps), and the work, state or output
 * block each exported function names.
 */

#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
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

/* Number cells: repr_double writes a double as Python's repr writes it,
 * and gfl_write_rows an int64 the same way.  repr_double leaves a
 * subnormal, an infinity, a NaN and a magnitude outside [2^-32, 2^151) to
 * repr itself.
 *
 * repr writes David Gay's shortest round trip (dtoa mode 0): the fewest
 * digits that read back as x, the closest to x among those, an exact tie
 * going to the even one.  x = m2 * 2^e2, m2 < 2^53, reads back from the
 * reals between its half-way points to its neighbours: in units of
 * 2^(e2 - 2), from 4*m2 - 2 (4*m2 - 1 at a power of 2 above the least
 * normal, whose lower neighbour is half as far) to 4*m2 + 2, the ends
 * included when m2 is even, as a tie reads back to the even mantissa.
 * Scaled by 10^k, k = floor(q log10 2) + 2 with q = 2 - e2, the interval
 * spans 30 to 400 units.  The digits are Ryu's general case (Adams, PLDI
 * 2018) on the floors vm, vr and vp of its lower end, x and its upper end,
 * each computed exactly from one 128-bit product with 5^|k| (so no table
 * beyond the powers of five, and |k| <= 27), with a flag saying whether
 * the floor is exact: digits are removed while the interval holds a
 * shorter number, at least one as it spans more than 10 units, and vr is
 * rounded by the digits removed from it, to nearest, a tie to even.
 * The layout is CPython's float_repr: with x = 0.d1d2... * 10^decpt, the
 * exponent form exactly when decpt <= -4 or decpt > 16, its exponent
 * signed and of two digits (1e-05, 1e+16), as a magnitude in
 * [2^-32, 2^151) has one from -10 to 45; ".0" after an integral fixed
 * form; -0.0 for negative zero. */
__extension__ typedef unsigned __int128 gfl_u128;

static const uint64_t pow5[28] = {
    UINT64_C(1), UINT64_C(5), UINT64_C(25), UINT64_C(125), UINT64_C(625),
    UINT64_C(3125), UINT64_C(15625), UINT64_C(78125), UINT64_C(390625),
    UINT64_C(1953125), UINT64_C(9765625), UINT64_C(48828125),
    UINT64_C(244140625), UINT64_C(1220703125), UINT64_C(6103515625),
    UINT64_C(30517578125), UINT64_C(152587890625), UINT64_C(762939453125),
    UINT64_C(3814697265625), UINT64_C(19073486328125),
    UINT64_C(95367431640625), UINT64_C(476837158203125),
    UINT64_C(2384185791015625), UINT64_C(11920928955078125),
    UINT64_C(59604644775390625), UINT64_C(298023223876953125),
    UINT64_C(1490116119384765625), UINT64_C(7450580596923828125)
};

/* floor(m * 2^e * 10^k), and in *exact whether it equals m * 2^e * 10^k,
 * for m < 2^55 and |k| <= 27: m * 5^k shifted by e + k for k >= 0, else m
 * shifted left by e + k (which is then positive) and divided by 5^-k.
 * repr_double's exponents keep each product below 2^128 and the floor
 * below 2^63. */
static inline uint64_t scaled(uint64_t m, int e, int k, int *exact)
{
    int s = e + k;
    gfl_u128 p;

    if (k < 0) {
        p = (gfl_u128)m << s;
        *exact = p % pow5[-k] == 0;
        return (uint64_t)(p / pow5[-k]);
    }
    p = (gfl_u128)m * pow5[k];
    if (s >= 0) {
        *exact = 1;
        return (uint64_t)(p << s);
    }
    *exact = (p & (((gfl_u128)1 << -s) - 1)) == 0;
    return (uint64_t)(p >> -s);
}

/* The number of decimal digits of u < 10^19. */
static inline int count_digits(uint64_t u)
{
    int nd = 1;

    while (nd < 19 && u >= pow5[nd] << nd)
        nd++;
    return nd;
}

/* Writes u's nd decimal digits to p, with a '.' after the first point of
 * them when 0 < point < nd, and returns the end.  The cells are written in
 * place, with no library call: a memcpy or memset of variable length adds
 * a 16-byte entry to the library's PLT, which lies before the code, and so
 * moves gfl_path and the rest; the quantile DP measured 2-3% slower when
 * two such entries moved it by 32 bytes.  A libm function (exp and log1p
 * in the draws) is called through a volatile const pointer, which the
 * library loads from its GOT, so it adds no PLT entry either.  For the
 * same reason repr_double has one caller, gfl_write_rows, and the draws'
 * zig_normal is forced inline: GCC emitted either one out of line ahead of
 * gfl_path otherwise, which moved from 0x1110 to 0x1990 (repr_double with
 * a second caller) or to 0x13e0 (zig_normal).
 * test_kernels.py checks that the PLT holds only memmove and
 * __cxa_finalize and that gfl_path is the first function of this file in
 * the library. */
static inline char *put_digits(uint64_t u, int nd, int point, char *p)
{
    char *end = p + nd + (point > 0 && point < nd), *q = end;

    for (; nd > 0; nd--) {
        *--q = (char)('0' + u % 10);
        u /= 10;
        if (nd - 1 == point && point > 0)
            *--q = '.';
    }
    return end;
}

/* Writes the repr of the double of the given bits to out and returns its
 * length, or 0 for a cell left to repr (out may then have been written). */
static inline ptrdiff_t repr_double(uint64_t bits, char *out)
{
    char *p = out;
    uint64_t m2, vr, vp, vm;
    int biased, e, q, k, nd, decpt, gap, accept, vr_exact, vp_exact, vm_exact;
    int last = 0, removed = 0;

    biased = (int)(bits >> 52 & 0x7ff);
    m2 = bits & ((UINT64_C(1) << 52) - 1);
    if (bits >> 63)
        *p++ = '-';
    if (biased == 0 && m2 == 0) {
        memcpy(p, "0.0", 3);
        return p + 3 - out;
    }
    if (biased == 0 || biased == 0x7ff)
        return 0;
    /* x = 4*m2 * 2^e, the interval from 4*m2 - gap to 4*m2 + 2 */
    gap = m2 == 0 && biased > 1 ? 1 : 2;
    m2 |= UINT64_C(1) << 52;
    e = biased - 1077;
    q = -e;
    k = (q >= 0 ? (q * 78913) >> 18 : -((-q * 78913) >> 18) - 1) + 2;
    if (k < -27 || k > 27)
        return 0;
    accept = (m2 & 1) == 0;
    vm = scaled(4 * m2 - (uint64_t)gap, e, k, &vm_exact);
    vr = scaled(4 * m2, e, k, &vr_exact);
    vp = scaled(4 * m2 + 2, e, k, &vp_exact);
    /* the candidates are the integers in (vm, vp], and vm itself when
     * vm_exact; vr_exact says that every digit removed below last is 0 */
    vp -= !accept && vp_exact;
    vm_exact = accept && vm_exact;
    while (vp / 10 > vm / 10) {
        vm_exact &= vm % 10 == 0;
        vr_exact &= last == 0;
        last = (int)(vr % 10);
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed++;
    }
    if (vm_exact) { /* the lower end itself may have fewer digits */
        while (vm % 10 == 0) {
            vr_exact &= last == 0;
            last = (int)(vr % 10);
            vr /= 10;
            vm /= 10;
            removed++;
        }
    }
    if (vr_exact && last == 5 && vr % 2 == 0)
        last = 4;
    /* rounded, or the next number up if vr lies below the interval */
    vr += (vr == vm && !vm_exact) || last >= 5;

    nd = count_digits(vr);
    decpt = nd + removed - k;
    if (decpt <= -4 || decpt > 16) {
        p = put_digits(vr, nd, 1, p);
        *p++ = 'e';
        *p++ = decpt > 0 ? '+' : '-';
        decpt = decpt > 0 ? decpt - 1 : 1 - decpt;
        *p++ = (char)('0' + decpt / 10);
        *p++ = (char)('0' + decpt % 10);
    } else if (decpt <= 0) { /* 0.ddd or 0.000ddd, the digits over the 0s */
        memcpy(p, "0.000", 5);
        p = put_digits(vr, nd, 0, p + 2 - decpt);
    } else if (decpt < nd) {
        p = put_digits(vr, nd, decpt, p);
    } else { /* ddd000.0, the digits over the 0s */
        memcpy(p, "0000000000000000", 16);
        put_digits(vr, nd, 0, p);
        p += decpt;
        *p++ = '.';
        *p++ = '0';
    }
    return p - out;
}

/* The column kinds of gfl_write_rows: int64 and float64 values of 8 bytes,
 * and bools of one byte (0 or 1), each as numpy holds it. */
enum { GFL_INT64 = 0, GFL_FLOAT64 = 1, GFL_BOOL = 2 };

/* Writes rows 0 to rows - 1 of k columns to out and returns the number of
 * bytes written, or -1, with out's bytes then of no use, if a float64 cell
 * is one repr_double leaves to repr.  Row i is piece 0, the cell of column
 * 0, piece 1, ..., the cell of column k - 1, piece k: pieces holds the
 * k + 1 pieces back to back, each ended by a NUL.  layout holds three
 * int64 per column, {kind, byte offset of its values in data, number of
 * values}; a column of fewer values than rows gives an empty cell in each
 * row past its end.  A cell is the value as Python's repr writes it, a
 * bool 0 or 1, and takes at most 24 bytes.  data holds the values' native
 * bytes at any alignment, so that the caller can pass a bytes object
 * (ndarray.tobytes() costs a twentieth of ndarray.ctypes.data, which
 * dominated a short column's call).  Each piece is copied a byte at a
 * time up to its NUL: a loop of known length could be compiled into a
 * call of memcpy (see put_digits). */
ptrdiff_t gfl_write_rows(const void *data, const int64_t *layout, ptrdiff_t k, ptrdiff_t rows,
                         const char *pieces, char *out)
{
    const char *q, *v;
    char *p = out;
    uint64_t bits, u;
    int64_t s;
    ptrdiff_t i, j, len;

    for (i = 0; i < rows; i++) {
        q = pieces;
        for (j = 0;; j++) {
            while (*q)
                *p++ = *q++;
            q++;
            if (j == k)
                break;
            if (i >= layout[3 * j + 2])
                continue;
            v = (const char *)data + layout[3 * j + 1];
            if (layout[3 * j] == GFL_FLOAT64) {
                memcpy(&bits, v + 8 * i, sizeof bits);
                len = repr_double(bits, p);
                if (len == 0)
                    return -1;
                p += len;
            } else if (layout[3 * j] == GFL_INT64) {
                memcpy(&s, v + 8 * i, sizeof s);
                u = (uint64_t)s;
                if (s < 0) {
                    *p++ = '-';
                    u = 0 - u;
                }
                p = put_digits(u, count_digits(u), 0, p);
            } else {
                *p++ = v[i] ? '1' : '0';
            }
        }
    }
    return p - out;
}

/* The bits of the double nearest (q + t) * 2^e, a tie going to the even
 * one, for q >= 1 and 0 <= t < 1, t nonzero exactly when sticky is; the
 * callers' values are normal doubles, from 10^-27 to below 10^46. */
static inline uint64_t round_to_double(gfl_u128 q, int sticky, int e)
{
    uint64_t hi = (uint64_t)(q >> 64), mant;
    int shift = (hi ? 128 - __builtin_clzll(hi) : 64 - __builtin_clzll((uint64_t)q)) - 53;
    gfl_u128 rest, half;

    if (shift > 0) {
        rest = q & (((gfl_u128)1 << shift) - 1);
        half = (gfl_u128)1 << (shift - 1);
        mant = (uint64_t)(q >> shift);
        mant += rest > half || (rest == half && (sticky || (mant & 1)));
    } else {
        mant = (uint64_t)q << -shift;
    }
    e += shift;
    if (mant >> 53) {
        mant >>= 1;
        e++;
    }
    return (uint64_t)(e + 1075) << 52 | (mant & ((UINT64_C(1) << 52) - 1));
}

/* Reads s[0..n) as [+-](digits[.[digits]]|.digits)[(e|E)[+-]digits] into
 * *x and returns 1, or returns 0 for any other text and for a value it
 * does not convert.  The value m * 10^k, m the digits without their
 * leading and trailing zeros, is converted when m has at most 19 digits
 * and |k| <= 27 (or m is 0), exactly (Clinger, PLDI 1990; Lemire, Softw.
 * Pract. Exp. 51(8), 2021): for k >= 0 it is m * 5^k * 2^k, the product
 * below 2^126; for k < 0 it is q * 2^(k - sh), q the quotient of m * 2^sh
 * by 5^-k, sh putting the top bit of m * 2^sh at bit 127, so that q has at
 * least 65 bits, with the remainder as the sticky bit.  Both are rounded
 * to nearest, a tie to even, as float() rounds. */
static inline int read_decimal(const char *s, ptrdiff_t n, double *x)
{
    const char *end = s + n;
    uint64_t m = 0, bits = 0;
    int64_t k = 0, e = 0;
    int neg = 0, eneg = 0, point = 0, digits = 0, nd = 0, zeros = 0, sh;
    gfl_u128 num;

    if (s < end && (*s == '+' || *s == '-'))
        neg = *s++ == '-';
    for (; s < end; s++) {
        if (*s == '.' && !point) {
            point = 1;
            continue;
        }
        if (*s < '0' || *s > '9')
            break;
        digits = 1;
        k -= point;
        if (*s == '0') { /* a leading zero is dropped, a later one held */
            zeros += m > 0;
            continue;
        }
        if (nd + zeros >= 19)
            return 0;
        for (; zeros > 0; zeros--, nd++)
            m *= 10;
        m = 10 * m + (uint64_t)(*s - '0');
        nd++;
    }
    if (!digits)
        return 0;
    if (s < end && (*s == 'e' || *s == 'E')) {
        if (++s < end && (*s == '+' || *s == '-'))
            eneg = *s++ == '-';
        if (s == end)
            return 0;
        for (; s < end && *s >= '0' && *s <= '9'; s++)
            if (e < 1000000)
                e = 10 * e + (*s - '0');
        k += eneg ? -e : e;
    }
    if (s != end)
        return 0;
    k += zeros;
    if (m > 0) {
        if (k < -27 || k > 27)
            return 0;
        if (k >= 0) {
            bits = round_to_double((gfl_u128)m * pow5[k], 0, (int)k);
        } else {
            sh = __builtin_clzll(m) + 64;
            num = (gfl_u128)m << sh;
            bits = round_to_double(num / pow5[-k], num % pow5[-k] != 0, (int)k - sh);
        }
    }
    bits |= (uint64_t)neg << 63;
    memcpy(x, &bits, sizeof bits);
    return 1;
}

/* Whether c is one of the bytes str.strip removes that end no line. */
static inline int blank(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\f') || (c >= '\x1c' && c <= '\x1f');
}

/* The lines of text[0..size), each value written to out in turn.  A line
 * ends at '\n' or '\r' (so "\r\n" ends one line and leaves an empty one),
 * the bytes str.strip removes that end no line (' ', '\t', '\v', '\f' and
 * '\x1c' to '\x1f') are trimmed from its ends, and an empty line is
 * skipped.  state holds {position in text, values written, end}: a call
 * reads from state[0] with state[1] values written, and returns 0 at the
 * end of the text, with state[1] the number of values, or 1 at a line
 * read_decimal does not convert, with state[0] and state[2] the start and
 * end of its trimmed text and state[1] the index of its value, which the
 * caller writes before it calls again from the end of that line.  out
 * holds a value for every line. */
int gfl_read_values(const char *text, ptrdiff_t size, double *out, ptrdiff_t *state)
{
    ptrdiff_t pos = state[0], count = state[1], start, stop, end;

    for (; pos < size; pos = stop + 1) {
        for (stop = pos; stop < size && text[stop] != '\n' && text[stop] != '\r'; stop++)
            ;
        for (start = pos; start < stop && blank(text[start]); start++)
            ;
        for (end = stop; end > start && blank(text[end - 1]); end--)
            ;
        if (start == end)
            continue;
        if (!read_decimal(text + start, end - start, out + count)) {
            state[0] = start;
            state[1] = count;
            state[2] = end;
            return 1;
        }
        count++;
    }
    state[0] = size;
    state[1] = count;
    return 0;
}

/* Noise draws: gfl_draws writes n standard normal draws, or n standard
 * Cauchy draws, bit for bit those numpy's Generator(PCG64) gives for
 * standard_normal(n) or standard_cauchy(n), and advances the generator as
 * those calls do.  The generator is PCG64's XSL-RR step on 128 bits: the
 * state s becomes s * M + inc, and the word is hi ^ lo of the new state,
 * rotated right by its top six bits.  A normal draw is numpy's ziggurat
 * (random_standard_normal in numpy/random/src/distributions): a word r
 * gives the strip idx = r & 0xff, the sign bit r >> 8 & 1 and the 52 bits
 * rabs = r >> 9 & (2^52 - 1); x = rabs * wi[idx], negated for the sign
 * bit, is returned when rabs < ki[idx].  Otherwise strip 0 samples the
 * tail beyond zig_r from two uniforms per try, signed by bit 8 of rabs,
 * and every other strip returns x when its wedge test
 * (fi[idx - 1] - fi[idx]) * U + fi[idx] < exp(-0.5 * x * x) holds, a
 * uniform U being the word's top 53 bits times 2^-53; a rejected word is
 * followed by a fresh one.  A Cauchy draw is a normal draw divided by the
 * next one, as numpy's random_standard_cauchy forms it.
 *
 * The sign is applied as an exclusive or of the sign bit, which negates x
 * exactly as -x does (0.0 included) with no branch on a bit that is set
 * half the time; with numpy's branch the loop ran 2.4 times slower (9.7
 * against 4.1 ns a draw, in calls of 2^17 draws, gcc 12 -O2 on a Xeon).
 *
 * The tables are numpy 2.4.6's, copied bit for bit from the .rodata of
 * src_distributions_distributions.c.o in numpy/random/lib/libnpyrandom.a
 * (fi at offset 0x3000, wi at 0x3800, ki at 0x4000, as the relocations of
 * random_standard_normal place them): ki holds the 52-bit acceptance
 * thresholds of the strips, wi their widths scaled by 2^-52 and fi the
 * density at their edges. */
static const uint64_t zig_ki[256] = {
    0xef33d8025ef6a, 0x0000000000000, 0xc08be98fbc6a8, 0xda354fabd8142, 0xe51f67ec1eeea,
    0xeb255e9d3f77e, 0xeef4b817ecab9, 0xf19470afa44aa, 0xf37ed61ffcb18, 0xf4f469561255c,
    0xf61a5e41ba396, 0xf707a755396a4, 0xf7cb2ec28449a, 0xf86f10c6357d3, 0xf8fa6578325de,
    0xf9724c74dd0da, 0xf9da907dbf509, 0xfa360f581fa74, 0xfa86fde5b4bf8, 0xfacf160d354dc,
    0xfb0fb6718b90f, 0xfb49f8d5374c6, 0xfb7ec2366fe77, 0xfbaece9a1e50e, 0xfbdab9d040bed,
    0xfc03060ff6c57, 0xfc2821037a248, 0xfc4a67ae25bd1, 0xfc6a2977aee31, 0xfc87aa92896a4,
    0xfca325e4bde85, 0xfcbcce902231a, 0xfcd4d12f839c4, 0xfceb54d8fec99, 0xfd007bf1dc930,
    0xfd1464dd6c4e6, 0xfd272a8e2f450, 0xfd38e4ff0c91e, 0xfd49a9990b478, 0xfd598b8920f53,
    0xfd689c08e99ec, 0xfd76ea9c8e832, 0xfd848547b08e8, 0xfd9178bad2c8c, 0xfd9dd07a7add2,
    0xfda9970105e8c, 0xfdb4d5dc02e20, 0xfdbf95c5bfcd0, 0xfdc9debb99a7d, 0xfdd3b8118729d,
    0xfddd288342f90, 0xfde6364369f64, 0xfdeee708d514e, 0xfdf7401a6b42e, 0xfdff46599ed40,
    0xfe06fe4bc24f2, 0xfe0e6c225a258, 0xfe1593c28b84c, 0xfe1c78cbc3f99, 0xfe231e9db1caa,
    0xfe29885da1b91, 0xfe2fb8fb54186, 0xfe35b33558d4a, 0xfe3b799d0002a, 0xfe410e99ead7f,
    0xfe46746d47734, 0xfe4bad34c095c, 0xfe50baed29524, 0xfe559f74ebc78, 0xfe5a5c8e41212,
    0xfe5ef3e138689, 0xfe6366fd91078, 0xfe67b75c6d578, 0xfe6be661e11aa, 0xfe6ff55e5f4f2,
    0xfe73e5900a702, 0xfe77b823e9e39, 0xfe7b6e37070a2, 0xfe7f08d774243, 0xfe8289053f08c,
    0xfe85efb35173a, 0xfe893dc840864, 0xfe8c741f0cebc, 0xfe8f9387d4ef6, 0xfe929cc879b1d,
    0xfe95909d388ea, 0xfe986fb939aa2, 0xfe9b3ac714866, 0xfe9df2694b6d5, 0xfea0973abe67c,
    0xfea329cf166a4, 0xfea5aab32952c, 0xfea81a6d5741a, 0xfeaa797de1cf0, 0xfeacc85f3d920,
    0xfeaf07865e63c, 0xfeb13762fec13, 0xfeb3585fe2a4a, 0xfeb56ae3162b4, 0xfeb76f4e284fa,
    0xfeb965fe62014, 0xfebb4f4cf9d7c, 0xfebd2b8f449d0, 0xfebefb16e2e3e, 0xfec0be31ebde8,
    0xfec2752b15a15, 0xfec42049dafd3, 0xfec5bfd29f196, 0xfec75406ceef4, 0xfec8dd2500cb4,
    0xfeca5b6911f12, 0xfecbcf0c427fe, 0xfecd38454fb15, 0xfece97488c8b3, 0xfecfec47f91b7,
    0xfed1377358528, 0xfed278f844903, 0xfed3b10242f4c, 0xfed4dfbad586e, 0xfed605498c3dd,
    0xfed721d414fe8, 0xfed8357e4a982, 0xfed9406a42cc8, 0xfeda42b85b704, 0xfedb3c8746ab4,
    0xfedc2df416652, 0xfedd171a46e52, 0xfeddf813c8ad3, 0xfeded0f909980, 0xfedfa1e0fd414,
    0xfee06ae124bc4, 0xfee12c0d95a06, 0xfee1e579006e0, 0xfee29734b6524, 0xfee34150ae4bc,
    0xfee3e3db89b3c, 0xfee47ee2982f4, 0xfee51271db086, 0xfee59e9407f41, 0xfee623528b42e,
    0xfee6a0b5897f1, 0xfee716c3e077a, 0xfee7858327b82, 0xfee7ecf7b06ba, 0xfee84d2484ab2,
    0xfee8a60b66343, 0xfee8f7accc851, 0xfee94207e25da, 0xfee9851a829ea, 0xfee9c0e13485c,
    0xfee9f557273f4, 0xfeea22762ccae, 0xfeea4836b42ac, 0xfeea668fc2d71, 0xfeea7d76ed6fa,
    0xfeea8ce04fa0a, 0xfeea94be8333b, 0xfeea950296410, 0xfeea8d9c0075e, 0xfeea7e7897654,
    0xfeea678481d24, 0xfeea48aa29e83, 0xfeea21d22e4da, 0xfee9f2e352024, 0xfee9bbc26af2e,
    0xfee97c524f2e4, 0xfee93473c0a3a, 0xfee8e40557516, 0xfee88ae369c7a, 0xfee828e7f3dfd,
    0xfee7bdea7b888, 0xfee749bff37ff, 0xfee6cc3a9bd5e, 0xfee64529e007e, 0xfee5b45a32888,
    0xfee51994e57b6, 0xfee474a0006cf, 0xfee3c53e12c50, 0xfee30b2e02ad8, 0xfee2462ad8205,
    0xfee175eb83c5a, 0xfee09a22a1447, 0xfedfb27e349cc, 0xfedebea76216c, 0xfeddbe422047e,
    0xfedcb0ece39d3, 0xfedb964042cf4, 0xfeda6dce938c9, 0xfed937237e98d, 0xfed7f1c38a836,
    0xfed69d2b9c02b, 0xfed538d06ae00, 0xfed3c41dea422, 0xfed23e76a2fd8, 0xfed0a732fe644,
    0xfecefda07fe34, 0xfecd4100eb7b8, 0xfecb708956eb4, 0xfec98b61230c1, 0xfec790a0da978,
    0xfec57f50f31fe, 0xfec356686c962, 0xfec114cb4b335, 0xfebeb948e6fd0, 0xfebc429a0b692,
    0xfeb9af5ee0cdc, 0xfeb6fe1c98542, 0xfeb42d3ad1f9e, 0xfeb13b00b2d4b, 0xfeae2591a02e9,
    0xfeaaeae992257, 0xfea788d8ee326, 0xfea3fcffd73e5, 0xfea044c8dd9f6, 0xfe9c5d62f563b,
    0xfe9843ba947a4, 0xfe93f471d4728, 0xfe8f6bd76c5d6, 0xfe8aa5dc4e8e6, 0xfe859e07ab1ea,
    0xfe804f690a940, 0xfe7ab488233c0, 0xfe74c751f6aa5, 0xfe6e8102aa202, 0xfe67da0b6abd8,
    0xfe60c9f38307e, 0xfe5947338f742, 0xfe51470977280, 0xfe48bd436f458, 0xfe3f9bffd1e37,
    0xfe35d35eeb19c, 0xfe2b5122fe4fe, 0xfe20003995557, 0xfe13c82788314, 0xfe068c4ee67b0,
    0xfdf82b02b71aa, 0xfde87c57efeaa, 0xfdd7509c63bfd, 0xfdc46e529bf13, 0xfdaf8f82e0282,
    0xfd985e1b2ba75, 0xfd7e6ef48cf04, 0xfd613adbd650b, 0xfd40149e2f012, 0xfd1a1a7b4c7ac,
    0xfcee204761f9e, 0xfcba8d85e11b2, 0xfc7d26ecd2d22, 0xfc32b2f1e22ed, 0xfbd6581c0b83a,
    0xfb606c4005434, 0xfac40582a2874, 0xf9e971e014598, 0xf89fa48a41dfc, 0xf66c5f7f0302c,
    0xf1a5a4b331c4a
};
static const double zig_wi[256] = {
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
static const double zig_fi[256] = {
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

static const double zig_r = 3.6541528853610087963519472518;
static const double zig_inv_r = 0.27366123732975827203338247596;

/* exp and log1p are called through pointers the compiler cannot fold, so
 * that the library takes them from the GOT and adds no PLT entry (see
 * put_digits). */
static double (*volatile const zig_exp)(double) = exp;
static double (*volatile const zig_log1p)(double) = log1p;

/* The next word of PCG64 at state *s and increment inc. */
static inline uint64_t pcg_next(gfl_u128 *s, gfl_u128 inc)
{
    const gfl_u128 mult = (gfl_u128)UINT64_C(0x2360ed051fc65da4) << 64
                          | UINT64_C(0x4385df649fccf645);
    uint64_t w;
    unsigned rot;

    *s = *s * mult + inc;
    w = (uint64_t)(*s >> 64) ^ (uint64_t)*s;
    rot = (unsigned)(*s >> 122);
    return w >> rot | w << ((64 - rot) & 63);
}

/* numpy's next_double: the word's top 53 bits times 2^-53. */
static inline double pcg_double(gfl_u128 *s, gfl_u128 inc)
{
    return (double)(pcg_next(s, inc) >> 11) * 0x1p-53;
}

/* One normal draw.  It is inlined at both calls in gfl_draws: compiled out
 * of line, GCC put it ahead of gfl_path (see put_digits). */
__attribute__((always_inline)) static inline double zig_normal(gfl_u128 *s, gfl_u128 inc)
{
    uint64_t r, rabs, bits;
    unsigned idx;
    double x, xx, yy;

    for (;;) {
        r = pcg_next(s, inc);
        idx = (unsigned)(r & 0xff);
        rabs = r >> 9 & ((UINT64_C(1) << 52) - 1);
        x = (double)rabs * zig_wi[idx];
        memcpy(&bits, &x, sizeof bits);
        bits ^= (r >> 8 & 1) << 63;
        memcpy(&x, &bits, sizeof x);
        if (rabs < zig_ki[idx])
            return x;
        if (idx == 0) {
            for (;;) {
                xx = -zig_inv_r * zig_log1p(-pcg_double(s, inc));
                yy = -zig_log1p(-pcg_double(s, inc));
                if (yy + yy > xx * xx)
                    return rabs >> 8 & 1 ? -(zig_r + xx) : zig_r + xx;
            }
        }
        if ((zig_fi[idx - 1] - zig_fi[idx]) * pcg_double(s, inc) + zig_fi[idx]
            < zig_exp(-0.5 * x * x))
            return x;
    }
}

/* Writes n draws to out, normal or (cauchy nonzero) Cauchy.  state holds
 * four uint64: the generator's state, high word first, then its increment,
 * high word first; the state words are advanced past the draws, the
 * increment is only read. */
void gfl_draws(uint64_t *state, ptrdiff_t n, int cauchy, double *out)
{
    gfl_u128 s = (gfl_u128)state[0] << 64 | state[1];
    gfl_u128 inc = (gfl_u128)state[2] << 64 | state[3];
    ptrdiff_t i;
    double x;

    for (i = 0; i < n; i++) {
        x = zig_normal(&s, inc);
        out[i] = cauchy ? x / zig_normal(&s, inc) : x;
    }
    state[0] = (uint64_t)(s >> 64);
    state[1] = (uint64_t)s;
}
