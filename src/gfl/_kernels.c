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
 * The caller owns every buffer; nothing here allocates.  Sizes are those
 * the Python wrappers in solver.py and lil.py pass: n >= 1 elements (r >= 1
 * paths of h >= 1 steps), and the work, state or output block each
 * exported function names.
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
 * two such entries moved it by 32 bytes.  For the same reason
 * repr_double has one caller, gfl_write_rows: with a second one GCC
 * emitted it out of line, ahead of gfl_path, which moved from 0x1110 to
 * 0x1990. */
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
