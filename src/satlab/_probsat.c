/* Compiled probSAT flip loop, bit-identical to satlab.sls._probsat_python.
 *
 * Every step mirrors the Python reference: the same Mersenne Twister
 * stream (_mt.h, seeded as random.Random(seed) seeds it), the same
 * initial assignment draws, occurrence lists in clause-id order, the
 * same swap-remove falsified registry, the same critical variables and
 * the same floating-point accumulation order when sampling a literal.
 * Build with -ffp-contract=off so no multiply-add is fused.
 *
 * Where the reference rescans a clause for its critical variable, the
 * kernel keeps, per clause, the XOR of the variables of its true
 * literals next to their count.  Whenever the count is 1, the XOR is the
 * variable of the one true literal, which is what the scan finds; a
 * tautology's x and -x toggle it together.  So the kernel reads the XOR
 * exactly where the reference reads its scan's result.
 *
 * `breaks` has 2^ceil(log2(n + 1)) slots, the smallest power of two above
 * n: an XOR of variables 1 .. n stays below it, so a clause's XOR indexes
 * inside `breaks` whatever the clause's count.  That lets the counter
 * updates run without a branch on a count, which is random data and so
 * mispredicts: the init loop writes each clause into the falsified
 * registry's next slot but moves past it only when the clause is
 * falsified, and adds `count == 1` to its XOR's break count; `flip` adds
 * `c == 1` and `c == 2` where the reference updates a break count only
 * for those counts.  A skipped update adds 0 to some slot, so every break
 * count stays exact and the slots above n stay 0.  Sending skipped
 * updates to a sink slot instead (breaks[c == 1 ? x : 0]) chains the
 * stores through breaks[0] and measured slower than the branches.
 *
 * Literals are DIMACS-signed ints; clause c holds lits[off[c] .. off[c+1]).
 * The occurrence lists are Formula's index, passed in and only read: the
 * clause ids of literal l are occ[occ_off[i] .. occ_off[i+1]) with
 * i = lit_index(l) (_clauses.h), in clause-id order.
 */

#include <stdlib.h>
#include <string.h>

#include "_clauses.h"
#include "_mt.h"

typedef struct {
    mt_state rng;
    int n;
    const int *off, *lits;
    const double *table; /* f(0 .. longest occurrence list) */
    long long flips;
    int num_falsified;
    unsigned char *assign; /* n + 1 */
    int *breaks;           /* the smallest power of two above n (header) */
    int *cl;               /* 2m: per clause, its true-literal count and their variables' XOR */
    int *falsified, *where; /* m each; where[c] is read only while c is falsified */
    const int *occ_off, *occ;
} probsat_state;

/* branch-free: literal signs are random, so a branch mispredicts */
static int lit_true(const probsat_state *s, int lit)
{
    return s->assign[abs(lit)] ^ (lit < 0);
}

void probsat_free(probsat_state *s)
{
    if (!s)
        return;
    free(s->assign);
    free(s->breaks);
    free(s->cl);
    free(s);
}

/* New state: draws the initial assignment and builds the counters.  `key`
 * is the seed's key[0 .. key_len) (mt_seed).  NULL when out of memory. */
probsat_state *probsat_new(int n, int m, const int *off, const int *lits,
                           const int *occ_off, const int *occ,
                           const double *table, const uint32_t *key, int key_len)
{
    probsat_state *s = calloc(1, sizeof *s);
    size_t slots = 1;
    int v, c, i, nf = 0;
    if (!s)
        return NULL;
    while (slots <= (size_t)n)
        slots <<= 1;
    s->n = n;
    s->off = off;
    s->lits = lits;
    s->occ_off = occ_off;
    s->occ = occ;
    s->table = table;
    mt_seed(&s->rng, key, (size_t)key_len);
    s->assign = calloc((size_t)n + 1, 1);
    s->breaks = calloc(slots, sizeof(int));
    s->cl = malloc((4 * (size_t)m + 1) * sizeof(int));
    if (!s->assign || !s->breaks || !s->cl) {
        probsat_free(s);
        return NULL;
    }
    s->falsified = s->cl + 2 * (size_t)m;
    s->where = s->falsified + m;

    for (v = 1; v <= n; v++)
        s->assign[v] = random_double(&s->rng) < 0.5;

    for (c = 0; c < m; c++) {
        int count = 0, x = 0;
        for (i = off[c]; i < off[c + 1]; i++) { /* no branch: a literal is true at random */
            int t = lit_true(s, lits[i]);
            count += t;
            x ^= abs(lits[i]) & -t;
        }
        s->cl[2 * c] = count;
        s->cl[2 * c + 1] = x;
        s->where[c] = nf; /* read only if c stays registered */
        s->falsified[nf] = c;
        nf += count == 0;
        s->breaks[x] += count == 1;
    }
    s->num_falsified = nf;
    return s;
}

/* Toggle v.  A clause that gains a true literal and had one loses its
 * critical variable; one that drops from two true literals to one gets
 * the survivor, its XOR, as critical variable. */
static void flip(probsat_state *s, int v)
{
    int *cl = s->cl, *breaks = s->breaks;
    int *falsified = s->falsified, *where = s->where;
    int lt, li, j;
    s->assign[v] = !s->assign[v];
    lt = s->assign[v] ? v : -v;
    li = lit_index(lt);
    for (j = s->occ_off[li]; j < s->occ_off[li + 1]; j++) {
        int cid = s->occ[j], *p = cl + 2 * cid, c = p[0];
        if (c == 0) {
            int idx = where[cid], last = falsified[--s->num_falsified];
            falsified[idx] = last;
            where[last] = idx;
            breaks[v]++;
        }
        breaks[p[1]] -= c == 1;
        p[0] = c + 1;
        p[1] ^= v;
    }
    li = lit_index(-lt);
    for (j = s->occ_off[li]; j < s->occ_off[li + 1]; j++) {
        int cid = s->occ[j], *p = cl + 2 * cid, c = p[0];
        p[0] = c - 1;
        p[1] ^= v;
        if (c == 1) {
            breaks[v]--;
            where[cid] = s->num_falsified;
            falsified[s->num_falsified++] = cid;
        }
        breaks[p[1]] += c == 2;
    }
}

/* Flip until `stop` flips in total are done or no clause is falsified;
 * returns the total flip count.  A break count, exact as the header
 * says, never exceeds the occurrence count of the variable's true
 * literal, because no clause holds a literal twice (Formula drops
 * repeats), so it indexes inside `table`. */
long long probsat_flip(probsat_state *s, long long stop)
{
    const int *lits = s->lits;
    const double *table = s->table;
    while (s->flips < stop && s->num_falsified > 0) {
        int cid = s->falsified[(long long)(random_double(&s->rng) * s->num_falsified)];
        int lo = s->off[cid], hi = s->off[cid + 1], chosen = lits[hi - 1], i;
        double total = 0.0, acc = 0.0, r;
        for (i = lo; i < hi; i++)
            total += table[s->breaks[abs(lits[i])]];
        r = random_double(&s->rng) * total;
        for (i = lo; i < hi; i++) {
            acc += table[s->breaks[abs(lits[i])]];
            if (r < acc) {
                chosen = lits[i];
                break;
            }
        }
        flip(s, abs(chosen));
        s->flips++;
    }
    return s->flips;
}

int probsat_num_falsified(const probsat_state *s)
{
    return s->num_falsified;
}

/* Copy the assignment (n + 1 bytes, index 0 unused) into `out`. */
void probsat_assignment(const probsat_state *s, unsigned char *out)
{
    memcpy(out, s->assign, (size_t)s->n + 1);
}
