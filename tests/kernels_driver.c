/* A driver for the kernels in _kernels.c, built with AddressSanitizer and
 * UndefinedBehaviorSanitizer by
 * test_kernels.py::test_kernels_run_clean_under_sanitizers.  It includes
 * the kernels' source (compile it with -I and the source's directory), so
 * it calls them by their own definitions.
 *
 * Usage: kernels_driver CASES RESULTS LIL_CASES LIL_RESULTS REPR_CASES
 * REPR_RESULTS.  CASES holds
 * one record per solver case: an int64 header {n, quantile, work size in
 * doubles}, then the doubles {lambda, tau} and y[0..n).  For each case the
 * driver runs gfl_path, then gfl_kkt twice, with z NULL and with z, and
 * appends theta (n doubles), the two residuals and z (n - 1 doubles) to
 * RESULTS.  LIL_CASES holds one record per chunk of paths: an int64 header
 * {r, h}, then the doubles x[0..r*h) and env[0..h).  For each the driver
 * runs gfl_lil_chunk and appends path_max (r doubles) and grid (r*g
 * doubles, g the bit length of h) to LIL_RESULTS.  REPR_CASES holds one
 * record per array of numbers: an int64 header {n, whether the values are
 * float64}, then the n float64 or int64 values.  For each the driver runs
 * gfl_repr_double or gfl_repr_int64 on the values at an odd address and
 * appends the bytes it wrote to REPR_RESULTS.  Every buffer is malloc'd at exactly the size the kernels
 * document (25 bytes per value for the formatter's text), so a read or
 * write past its end is reported; a nonzero status from gfl_path, a short
 * read or a failed allocation exits 1.
 */

#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

#include "_kernels.c"

static void *alloc_bytes(size_t size)
{
    void *p = malloc(size);

    if (p == NULL && size > 0) {
        fprintf(stderr, "cannot allocate %zu bytes\n", size);
        exit(1);
    }
    return p;
}

static double *alloc(size_t count)
{
    return alloc_bytes(count * sizeof(double));
}

static void short_record(void)
{
    fprintf(stderr, "short case record\n");
    exit(1);
}

static void solver_cases(FILE *in, FILE *out)
{
    int64_t head[3];
    double par[2], resid[2], *y, *theta, *work, *state, *z;
    size_t n;
    int status;

    while (fread(head, sizeof head, 1, in) == 1) {
        n = (size_t)head[0];
        y = alloc(n);
        if (fread(par, sizeof par, 1, in) != 1 || fread(y, sizeof *y, n, in) != n)
            short_record();
        theta = alloc(n);
        work = alloc((size_t)head[2]);
        state = alloc(4 * n - 2);
        z = alloc(n - 1);
        status = gfl_path(y, (ptrdiff_t)n, par[0], (int)head[1], par[1], theta, work);
        if (status) {
            fprintf(stderr, "gfl_path returned status %d at n = %zu\n", status, n);
            exit(1);
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
}

static void lil_cases(FILE *in, FILE *out)
{
    int64_t head[2];
    double *x, *env, *path_max, *grid;
    size_t r, h, g;

    while (fread(head, sizeof head, 1, in) == 1) {
        r = (size_t)head[0];
        h = (size_t)head[1];
        for (g = 0; h >> g; g++)
            ;
        x = alloc(r * h);
        env = alloc(h);
        if (fread(x, sizeof *x, r * h, in) != r * h || fread(env, sizeof *env, h, in) != h)
            short_record();
        path_max = alloc(r);
        grid = alloc(r * g);
        gfl_lil_chunk(x, (ptrdiff_t)r, (ptrdiff_t)h, env, path_max, grid);
        fwrite(path_max, sizeof *path_max, r, out);
        fwrite(grid, sizeof *grid, r * g, out);
        free(x);
        free(env);
        free(path_max);
        free(grid);
    }
}

static void repr_cases(FILE *in, FILE *out)
{
    int64_t head[2];
    char *values, *text;
    size_t n;
    ptrdiff_t size;

    while (fread(head, sizeof head, 1, in) == 1) {
        n = (size_t)head[0];
        /* the values one byte past an aligned address, as the kernels read
         * them at any alignment */
        values = alloc_bytes(8 * n + 1);
        if (fread(values + 1, 8, n, in) != n)
            short_record();
        text = alloc_bytes(25 * n);
        if (head[1])
            size = gfl_repr_double(values + 1, (ptrdiff_t)n, text);
        else
            size = gfl_repr_int64(values + 1, (ptrdiff_t)n, text);
        fwrite(text, 1, (size_t)size, out);
        free(values);
        free(text);
    }
}

int main(int argc, char **argv)
{
    FILE *in, *out, *lil_in, *lil_out, *repr_in, *repr_out;

    if (argc != 7 || !(in = fopen(argv[1], "rb")) || !(out = fopen(argv[2], "wb"))
        || !(lil_in = fopen(argv[3], "rb")) || !(lil_out = fopen(argv[4], "wb"))
        || !(repr_in = fopen(argv[5], "rb")) || !(repr_out = fopen(argv[6], "wb"))) {
        fprintf(stderr, "usage: kernels_driver CASES RESULTS LIL_CASES LIL_RESULTS "
                        "REPR_CASES REPR_RESULTS\n");
        return 1;
    }
    solver_cases(in, out);
    lil_cases(lil_in, lil_out);
    repr_cases(repr_in, repr_out);
    fclose(in);
    fclose(lil_in);
    fclose(repr_in);
    return (fclose(out) != 0) | (fclose(lil_out) != 0) | (fclose(repr_out) != 0);
}
