/* The Mersenne Twister of CPython's random.Random, shared by the kernels
 * that continue its stream: MT19937 as in _randommodule.c, and
 * random.random() from two of its words.  mt_seed puts a state where
 * random.Random(seed) puts it, for an int seed: init_by_array over the
 * key of random_seed, the 32-bit words of abs(seed) from the least
 * significant one up, or the one word 0 for seed 0.  Besides, now() reads
 * the monotonic clock that the probSAT and CDCL searches poll.
 */

#ifndef SATLAB_MT_H
#define SATLAB_MT_H

#include <stddef.h>
#include <stdint.h>
#include <time.h>

#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t mt[MT_N];
    int mti;
} mt_state;

/* init_genrand, then init_by_array over key[0 .. len), len >= 1 */
static inline void mt_seed(mt_state *s, const uint32_t *key, size_t len)
{
    uint32_t *mt = s->mt;
    size_t i = 1, j = 0, k;
    mt[0] = 19650218U;
    for (k = 1; k < MT_N; k++)
        mt[k] = 1812433253U * (mt[k - 1] ^ (mt[k - 1] >> 30)) + (uint32_t)k;
    for (k = MT_N > len ? MT_N : len; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525U)) + key[j] + (uint32_t)j;
        i++;
        j++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
        if (j >= len)
            j = 0;
    }
    for (k = MT_N - 1; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941U)) - (uint32_t)i;
        i++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
    }
    mt[0] = 0x80000000U; /* a nonzero state */
    s->mti = MT_N;
}

static inline uint32_t genrand_uint32(mt_state *s)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    if (s->mti >= MT_N) {
        uint32_t *mt = s->mt;
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        s->mti = 0;
    }
    y = s->mt[s->mti++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random.random(): 53-bit double in [0, 1) */
static inline double random_double(mt_state *s)
{
    uint32_t a = genrand_uint32(s) >> 5, b = genrand_uint32(s) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* seconds on the monotonic clock, for wall-clock budgets */
static inline double now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

#endif
