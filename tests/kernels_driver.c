/* A driver for the solver's kernels in _kernels.c, built with
 * AddressSanitizer and UndefinedBehaviorSanitizer by
 * test_kernels.py::test_kernels_run_clean_under_sanitizers.  It includes
 * the kernels' source (compile it with -I and the source's directory), so
 * it calls them by their own definitions.
 *
 * Usage: kernels_driver CASES RESULTS.  CASES holds one record per case: an
 * int64 header {n, quantile, work size in doubles}, then the doubles
 * {lambda, tau} and y[0..n).  For each case the driver runs gfl_path, then
 * gfl_kkt twice, with z NULL and with z, and appends theta (n doubles), the
 * two residuals and z (n - 1 doubles) to RESULTS.  Every buffer is malloc'd
 * at exactly the size the kernels document, so a read or write past its end
 * is reported; a nonzero status from gfl_path, a short read or a failed
 * allocation exits 1.
 */

#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

#include "_kernels.c"

static double *alloc(size_t count)
{
    double *p = malloc(count * sizeof *p);

    if (p == NULL && count > 0) {
        fprintf(stderr, "cannot allocate %zu doubles\n", count);
        exit(1);
    }
    return p;
}

int main(int argc, char **argv)
{
    FILE *in, *out;
    int64_t head[3];
    double par[2], resid[2], *y, *theta, *work, *state, *z;
    size_t n;
    int status;

    if (argc != 3 || !(in = fopen(argv[1], "rb")) || !(out = fopen(argv[2], "wb"))) {
        fprintf(stderr, "usage: kernels_driver CASES RESULTS\n");
        return 1;
    }
    while (fread(head, sizeof head, 1, in) == 1) {
        n = (size_t)head[0];
        y = alloc(n);
        if (fread(par, sizeof par, 1, in) != 1 || fread(y, sizeof *y, n, in) != n) {
            fprintf(stderr, "short case record\n");
            return 1;
        }
        theta = alloc(n);
        work = alloc((size_t)head[2]);
        state = alloc(4 * n - 2);
        z = alloc(n - 1);
        status = gfl_path(y, (ptrdiff_t)n, par[0], (int)head[1], par[1], theta, work);
        if (status) {
            fprintf(stderr, "gfl_path returned status %d at n = %zu\n", status, n);
            return 1;
        }
        resid[0] = gfl_kkt(y, theta, (ptrdiff_t)n, (int)head[1], par[1], par[0], state, NULL);
        resid[1] = gfl_kkt(y, theta, (ptrdiff_t)n, (int)head[1], par[1], par[0], state, z);
        fwrite(theta, sizeof *theta, n, out);
        fwrite(resid, sizeof resid, 1, out);
        if (n > 1)
            fwrite(z, sizeof *z, n - 1, out);
        free(y);
        free(theta);
        free(work);
        free(state);
        free(z);
    }
    fclose(in);
    return fclose(out) != 0;
}
