/* Compiled random k-SAT generation, bit-identical to the Python reference
 * in satlab.generators (_gen_uniform_python and _gen_planted_python).
 *
 * It seeds the Mersenne Twister as random.Random(seed) does (_mt.h) and
 * repeats the reference's draws one by one: the hidden assignment, then
 * per clause the variables of CPython's random.sample(range(1, n + 1), k)
 * and the polarities, with the planted rejection loop.  Clause c is written, in draw order, to
 * lits[c * k .. (c + 1) * k), and off[c] = c * k.
 */

#include <math.h>
#include <stdlib.h>

#include "_mt.h"

enum { OK = 0, OUT_OF_MEMORY = 1 };

/* random.Random._randbelow(bound) for 0 < bound < 2**31:
 * getrandbits(bound.bit_length()), that is the top bits of one word,
 * redrawn until below bound */
static int randbelow(mt_state *s, int bound)
{
    int shift = __builtin_clz((unsigned)bound);
    uint32_t r;
    do
        r = genrand_uint32(s) >> shift;
    while (r >= (uint32_t)bound);
    return (int)r;
}

/* random.sample(range(1, n + 1), k) into vars[0 .. k): with a pool (for
 * n at most sample's set size) the swap over a fresh pool of n, else
 * redraws of randbelow(n) until the variable is new */
static void sample(mt_state *s, int n, int k, int *pool, int *vars)
{
    if (pool) {
        for (int i = 0; i < n; i++)
            pool[i] = i + 1;
        for (int i = 0; i < k; i++) {
            int j = randbelow(s, n - i);
            vars[i] = pool[j];
            pool[j] = pool[n - i - 1];
        }
        return;
    }
    for (int i = 0; i < k; i++) {
        int v, seen;
        do {
            v = randbelow(s, n) + 1;
            for (seen = 0; seen < i && vars[seen] != v; seen++)
                ;
        } while (seen < i);
        vars[i] = v;
    }
}

/* m clauses of k distinct variables out of 1..n, drawn from the MT
 * seeded with key[0 .. key_len) (mt_seed).  use_pool selects
 * random.sample's branch: n is at most its set size for k.  With hidden
 * NULL, polarities are uniform (gen_uniform).  Otherwise hidden[1 .. n]
 * (0 or 1) is drawn first, every clause agrees with it in at least one
 * literal, and a vector with c agreeing literals is kept with probability
 * bias**c (gen_planted).  Returns OUT_OF_MEMORY when the pool cannot be
 * allocated.
 */
int gen_clauses(int n, int k, long long m, int use_pool, double bias, unsigned char *hidden,
                const uint32_t *key, int key_len, int *off, int *lits)
{
    mt_state s;
    int *pool = NULL;
    mt_seed(&s, key, (size_t)key_len);
    if (use_pool && !(pool = malloc((size_t)n * sizeof *pool)))
        return OUT_OF_MEMORY;
    if (hidden)
        for (int v = 1; v <= n; v++)
            hidden[v] = random_double(&s) < 0.5;
    off[0] = 0;
    for (long long c = 0; c < m; c++) {
        int *clause = lits + c * k;
        sample(&s, n, k, pool, clause);
        for (;;) {
            int correct = 0;
            for (int i = 0; i < k; i++) {
                int v = abs(clause[i]), positive = random_double(&s) < 0.5;
                clause[i] = positive ? v : -v;
                if (hidden)
                    correct += positive == hidden[v];
            }
            /* Python's float ** int is libm's pow */
            if (!hidden || (correct && (bias == 1.0 || random_double(&s) < pow(bias, correct))))
                break;
        }
        off[c + 1] = (int)((c + 1) * k);
    }
    free(pool);
    return OK;
}
