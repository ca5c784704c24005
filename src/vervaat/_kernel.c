/* The sampler's per-row loop, as run_ciaftp draws a row: the geometric start,
   the backward walk until W(1) <= 1/(D + 1), then the forward pass.  Uniforms
   are numpy's Philox4x64-10 doubles, and every floating-point operation is the
   Python code's (libm's pow and log), so the rows are the same bytes.  Also
   the CSV rows of `sample`.  Built and loaded by engine.py. */
#include <math.h>
#include <stdint.h>
#include <stdio.h>
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

/* "%d" of v, a non-negative integer, at p; returns the end. */
static char *put_uint(char *p, uint64_t v) {
    char d[20];
    int k = 20;
    do d[--k] = (char)('0' + v % 10); while (v /= 10);
    while (k < 20) *p++ = d[k++];
    return p;
}

/* Python's "%.17g" % x at p; returns the end.  For 1e-4 <= x < 1e15 not an
   integer, let e = floor(log10 x), so that 10^(16 - e) (at most 10^21) is an
   exact double.  fma gives hi + lo = x * 10^(16 - e) exactly, and D = hi +
   rint(lo).  Where D has 17 digits, hi >= 2^53 is an even integer, so
   rounding lo half to even rounds the exact product half to even too: D is
   the correctly rounded 17-digit significand that Python prints, and e is its
   exponent.  A log10 off by one near a power of ten, or a product that rounds
   up to 10^17, leaves D with 16 or 18 digits instead.  Those values, the ones
   outside the range (0, subnormals, the exponent form, non-finite values) and
   the integers (written without a '.') go to snprintf, which formats as
   Python does, bar the sign of a NaN, in the "C" numeric locale that the CLI
   never changes. */
static char *put_double(char *p, double x) {
    static const double p10[] = {1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
                                 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21};
    if (x >= 1e-4 && x < 1e15 && x != floor(x)) {
        int e = (int)floor(log10(x));
        double hi = x * p10[16 - e], lo = fma(x, p10[16 - e], -hi);
        long long D = (long long)hi + llrint(lo);
        if (D >= 10000000000000000LL && D < 100000000000000000LL) {
            char d[17];
            int len = 17;
            for (int k = 16; k >= 0; k--, D /= 10) d[k] = (char)('0' + D % 10);
            while (d[len - 1] == '0') len--;
            if (e < 0) *p++ = '0', *p++ = '.';
            for (int k = -1; k > e; k--) *p++ = '0';  /* the zeros after "0." */
            for (int k = 0; k < len; k++) {
                *p++ = d[k];
                if (k == e) *p++ = '.';
            }
            return p;
        }
    }
    if (isnan(x)) x = fabs(x);
    return p + snprintf(p, 25, "%.17g", x);
}

/* Rows first .. first + n - 1 as "%d,%.17g,%d,%d\n" of (index, values,
   steps, d0s), steps and d0s non-negative, into out: at most 86 bytes a row
   (20 + 24 + 19 + 19 + 4).  Returns the bytes written. */
long long vervaat_csv(uint64_t first, long long n, const double *values,
                      const long long *steps, const long long *d0s, char *out) {
    char *p = out;
    for (long long i = 0; i < n; i++) {
        p = put_uint(p, first + (uint64_t)i), *p++ = ',';
        p = put_double(p, values[i]), *p++ = ',';
        p = put_uint(p, (uint64_t)steps[i]), *p++ = ',';
        p = put_uint(p, (uint64_t)d0s[i]), *p++ = '\n';
    }
    return p - out;
}
