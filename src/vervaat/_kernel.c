/* The sampler's per-row loop, as run_ciaftp draws a row: the geometric start,
   the backward walk until W(1) <= 1/(D + 1), then the forward pass.  Uniforms
   are numpy's Philox4x64-10 doubles, and every floating-point operation is the
   Python code's (libm's pow and log), so the rows are the same bytes.  Built
   and loaded by engine.py. */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef unsigned __int128 u128;

/* Substream (seed, index): uniform p is word p % 4 of the Philox4x64-10 block
   with key (seed, index) and counter (p / 4 + 1, 0, 0, 0) (Salmon et al.,
   SC'11), shifted right by 11 bits and scaled by 2^-53. */
typedef struct { uint64_t key[2], block, words[4]; int word; } stream;

#ifdef VERVAAT_SCRIPT
/* Test builds only: uniform at[2i + 1] of substream at[2i] reads values[i]. */
static const uint64_t *at;
static const double *values_at;
static long long n_at;
void vervaat_script(const uint64_t *pairs, const double *values, long long n) {
    at = pairs, values_at = values, n_at = n;
}
#endif

static double uniform(stream *s) {
    if (s->word == 4) {
        uint64_t k0 = s->key[0], k1 = s->key[1], *x = s->words;
        x[0] = ++s->block, x[1] = x[2] = x[3] = 0, s->word = 0;
        for (int r = 0; r < 10; r++, k0 += 0x9E3779B97F4A7C15u, k1 += 0xBB67AE8584CAA73Bu) {
            u128 p0 = (u128)0xD2E7470EE14C6C93u * x[0], p1 = (u128)0xCA5A826395121157u * x[2];
            x[0] = (uint64_t)(p1 >> 64) ^ x[1] ^ k0;
            x[1] = (uint64_t)p1;
            x[2] = (uint64_t)(p0 >> 64) ^ x[3] ^ k1;
            x[3] = (uint64_t)p0;
        }
    }
    double u = (double)(s->words[s->word++] >> 11) * 0x1.0p-53;
#ifdef VERVAAT_SCRIPT
    for (long long i = 0; i < n_at; i++)
        if (at[2 * i] == s->key[1] && at[2 * i + 1] == 4 * (s->block - 1) + s->word - 1)
            u = values_at[i];
#endif
    return u;
}

/* Rows first .. first + n - 1 of seed into values, steps and d0s.  Returns the
   offset of the first row whose walk passes budget steps (the rows before it
   are filled), -1 when every row coalesces, or -2 when memory runs out. */
long long vervaat_rows(uint64_t seed, uint64_t first, long long n, double inv_beta,
                       long long x0, long long budget,
                       double *values, long long *steps, long long *d0s) {
    const double two_thirds = 2.0 / 3.0;
    long long cap = 1024;
    double *w = malloc(cap * sizeof *w), u;  /* W(1) of steps 1 .. T */
    if (!w) return -2;
    for (long long i = 0; i < n; i++) {
        stream s = {{seed, first + i}, 0, {0}, 4};
        while ((u = uniform(&s)) == 0.0) {}
        long long d = x0 - 2 + (long long)ceil(-log(u) / log(2.0)), t = 0;
        d0s[i] = d;
        for (;;) {
            if (t >= budget) { free(w); return i; }
            long long prev = d;
            d = uniform(&s) > two_thirds ? d + 1 : d > x0 - 1 ? d - 1 : x0 - 1;
            while ((u = uniform(&s)) == 0.0) {}
            if (t == cap) {
                double *grown = realloc(w, 2 * cap * sizeof *w);
                if (!grown) { free(w); return -2; }
                w = grown, cap *= 2;
            }
            /* a forward up-move D(-t-1) -> D(-t) imputes on (2/3, 1) */
            w[t] = pow(prev == d + 1 ? two_thirds + u / 3.0 : two_thirds * u, inv_beta);
            if (w[t++] <= 1.0 / (1.0 + (double)d)) break;
        }
        double x = pow(uniform(&s), inv_beta);  /* X(-T+1) = W(-T)(2) */
        for (long long k = t - 2; k >= 0; k--) {
            double y = 1.0 + x;
            x = w[k] <= 1.0 / y ? pow(uniform(&s), inv_beta) : w[k] * y;
        }
        values[i] = x, steps[i] = t;
    }
    free(w);
    return -1;
}
