/* The Mersenne Twister of CPython's random.Random, shared by the kernels
 * that continue its stream: MT19937 as in _randommodule.c, and
 * random.random() from two of its words.  A state is loaded from
 * random.Random(seed).getstate()[1]: the 624 state words followed by the
 * index.
 */

#ifndef SATLAB_MT_H
#define SATLAB_MT_H

#include <stdint.h>
#include <string.h>

#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t mt[MT_N];
    int mti;
} mt_state;

static inline void mt_load(mt_state *s, const uint32_t *state)
{
    memcpy(s->mt, state, sizeof s->mt);
    s->mti = (int)state[MT_N];
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

#endif
