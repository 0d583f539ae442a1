/* A driver for the kernels in _kernels.c, built with AddressSanitizer and
 * UndefinedBehaviorSanitizer by
 * test_kernels.py::test_kernels_run_clean_under_sanitizers.  It includes
 * the kernels' source (compile it with -I and the source's directory), so
 * it calls them by their own definitions.
 *
 * Usage: kernels_driver CASES RESULTS LIL_CASES LIL_RESULTS ROW_CASES
 * ROW_RESULTS READ_CASES READ_RESULTS DRAW_CASES DRAW_RESULTS.  CASES holds one record per solver
 * case: an int64 header {n, quantile, work size in doubles}, then the
 * doubles {lambda, tau} and y[0..n).  For each case the driver runs
 * gfl_path, then gfl_kkt twice, with z NULL and with z, and appends theta
 * (n doubles), the two residuals and z (n - 1 doubles) to RESULTS.
 * LIL_CASES holds one record per chunk of paths: an int64 header {r, h},
 * then the doubles x[0..r*h) and env[0..h).  For each the driver runs
 * gfl_lil_chunk and appends path_max (r doubles) and grid (r*g doubles, g
 * the bit length of h) to LIL_RESULTS.  ROW_CASES holds one record per
 * table: an int64 header {k, rows}, then {kind, number of values} for each
 * of the k columns, then the columns' values back to back (8 bytes each,
 * 1 for a bool).  For each the driver runs gfl_write_rows on the values
 * one byte past an aligned address, with the pieces "[", ",", ..., "]\n",
 * and appends the int64 it returns and, unless it is -1, the bytes it
 * wrote to ROW_RESULTS.  READ_CASES holds one record per text: an int64
 * size, then its bytes.  For each the driver calls gfl_read_values until
 * it returns 0, and appends {1, start, index, end} (int64) for each line
 * it does not convert, writing 0.0 as that line's value, then {0, number
 * of values} and the values to READ_RESULTS.  DRAW_CASES holds one record
 * per call of gfl_draws: an int64 header {n, cauchy}, then the four
 * uint64 state words.  For each the driver runs gfl_draws and appends the
 * n draws and the four state words to DRAW_RESULTS.  Every buffer is
 * malloc'd at exactly the size the kernels document (24 bytes per cell and
 * the pieces' bytes per row for the row writer's output, the text with no
 * newline or NUL after it and a value per line for the reader, n draws and
 * four state words for gfl_draws), so a read or write past its end is
 * reported; a nonzero status from gfl_path, a short read or a failed
 * allocation exits 1.
 */

#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

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

static void row_cases(FILE *in, FILE *out)
{
    int64_t head[2], *layout, size;
    char *values, *pieces, *text;
    size_t k, rows, j, bytes;

    while (fread(head, sizeof head, 1, in) == 1) {
        k = (size_t)head[0];
        rows = (size_t)head[1];
        layout = alloc_bytes(3 * k * sizeof *layout);
        for (j = 0, bytes = 0; j < k; j++) {
            if (fread(&layout[3 * j], sizeof *layout, 1, in) != 1
                || fread(&layout[3 * j + 2], sizeof *layout, 1, in) != 1)
                short_record();
            layout[3 * j + 1] = (int64_t)bytes;
            bytes += (size_t)layout[3 * j + 2] * (layout[3 * j] == 2 ? 1 : 8);
        }
        /* the values one byte past an aligned address, as the kernel reads
         * them at any alignment */
        values = alloc_bytes(bytes + 1);
        if (fread(values + 1, 1, bytes, in) != bytes)
            short_record();
        /* "[", "," k - 1 times and "]\n", each ended by a NUL */
        pieces = alloc_bytes(2 * k + 3);
        pieces[0] = '[';
        pieces[1] = '\0';
        for (j = 1; j < k; j++) {
            pieces[2 * j] = ',';
            pieces[2 * j + 1] = '\0';
        }
        memcpy(pieces + 2 * k, "]\n", 3);
        text = alloc_bytes(rows * (k + 2 + 24 * k));
        size = gfl_write_rows(values + 1, layout, (ptrdiff_t)k, (ptrdiff_t)rows, pieces, text);
        fwrite(&size, sizeof size, 1, out);
        if (size >= 0)
            fwrite(text, 1, (size_t)size, out);
        free(layout);
        free(values);
        free(pieces);
        free(text);
    }
}

static void read_cases(FILE *in, FILE *out)
{
    int64_t size, refused[4], done[2];
    ptrdiff_t state[3];
    char *text;
    double *values;
    size_t n, i, lines;

    while (fread(&size, sizeof size, 1, in) == 1) {
        n = (size_t)size;
        text = alloc_bytes(n);
        if (fread(text, 1, n, in) != n)
            short_record();
        /* a value per line, the last one without its line end included */
        for (i = 0, lines = 1; i < n; i++)
            lines += text[i] == '\n' || (text[i] == '\r' && !(i + 1 < n && text[i + 1] == '\n'));
        values = alloc(lines);
        state[0] = state[1] = state[2] = 0;
        while (gfl_read_values(text, (ptrdiff_t)n, values, state)) {
            refused[0] = 1;
            refused[1] = state[0];
            refused[2] = state[1];
            refused[3] = state[2];
            fwrite(refused, sizeof refused, 1, out);
            values[state[1]] = 0.0;
            state[0] = state[2];
            state[1] += 1;
        }
        done[0] = 0;
        done[1] = state[1];
        fwrite(done, sizeof done, 1, out);
        fwrite(values, sizeof *values, (size_t)state[1], out);
        free(text);
        free(values);
    }
}

static void draw_cases(FILE *in, FILE *out)
{
    int64_t head[2];
    uint64_t *state;
    double *x;
    size_t n;

    while (fread(head, sizeof head, 1, in) == 1) {
        n = (size_t)head[0];
        state = alloc_bytes(4 * sizeof *state);
        if (fread(state, sizeof *state, 4, in) != 4)
            short_record();
        x = alloc(n);
        gfl_draws(state, (ptrdiff_t)n, (int)head[1], x);
        fwrite(x, sizeof *x, n, out);
        fwrite(state, sizeof *state, 4, out);
        free(state);
        free(x);
    }
}

int main(int argc, char **argv)
{
    FILE *in, *out, *lil_in, *lil_out, *row_in, *row_out, *read_in, *read_out;
    FILE *draw_in, *draw_out;

    if (argc != 11 || !(in = fopen(argv[1], "rb")) || !(out = fopen(argv[2], "wb"))
        || !(lil_in = fopen(argv[3], "rb")) || !(lil_out = fopen(argv[4], "wb"))
        || !(row_in = fopen(argv[5], "rb")) || !(row_out = fopen(argv[6], "wb"))
        || !(read_in = fopen(argv[7], "rb")) || !(read_out = fopen(argv[8], "wb"))
        || !(draw_in = fopen(argv[9], "rb")) || !(draw_out = fopen(argv[10], "wb"))) {
        fprintf(stderr, "usage: kernels_driver CASES RESULTS LIL_CASES LIL_RESULTS "
                        "ROW_CASES ROW_RESULTS READ_CASES READ_RESULTS DRAW_CASES "
                        "DRAW_RESULTS\n");
        return 1;
    }
    solver_cases(in, out);
    lil_cases(lil_in, lil_out);
    row_cases(row_in, row_out);
    read_cases(read_in, read_out);
    draw_cases(draw_in, draw_out);
    fclose(in);
    fclose(lil_in);
    fclose(row_in);
    fclose(read_in);
    fclose(draw_in);
    return (fclose(out) != 0) | (fclose(lil_out) != 0) | (fclose(row_out) != 0)
           | (fclose(read_out) != 0) | (fclose(draw_out) != 0);
}
