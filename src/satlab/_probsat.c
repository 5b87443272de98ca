/* Compiled probSAT, bit-identical to satlab.sls._probsat_python, in one
 * call: probsat_solve draws the start, builds the counters, flips and
 * polls the clock, with its state on its stack.
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
 * i = lit_index(l) (_clauses.h), in clause-id order.  The caller owns the
 * n + 1 bytes of the assignment, which hold the last one on return.
 */

#include <stdlib.h>

#include "_clauses.h"
#include "_mt.h"

#define POLL_FLIPS 4096 /* flips between wall-clock polls, as the reference polls */

typedef struct {
    mt_state rng;
    const int *off, *lits;
    const double *table; /* f(0 .. longest occurrence list) */
    int num_falsified;
    unsigned char *assign; /* n + 1, the caller's */
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

/* Flip from `flips` flips done until `stop` are done or no clause is
 * falsified; returns the flips done.  A break count, exact as the header
 * says, never exceeds the occurrence count of the variable's true
 * literal, because no clause holds a literal twice (Formula drops
 * repeats), so it indexes inside `table`. */
static long long walk(probsat_state *s, long long flips, long long stop)
{
    const int *lits = s->lits;
    const double *table = s->table;
    while (flips < stop && s->num_falsified > 0) {
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
        flips++;
    }
    return flips;
}

/* Draw the start into assign[1 .. n] from the seed's key[0 .. key_len)
 * (mt_seed), build the counters, and flip until `max_flips` flips are
 * done, no clause is falsified, or, polled every POLL_FLIPS flips from
 * flip 0, more than `wall_seconds` have passed since the call began
 * (pass infinity for no limit).  A formula with an empty clause, which
 * no assignment satisfies and whose pick would read outside the clause,
 * gets no flip, as the reference answers it.  Sets *falsified to the
 * falsified clauses left and returns the flips done, or -1 when out of
 * memory. */
long long probsat_solve(int n, int m, const int *off, const int *lits, const int *occ_off, const int *occ,
                        const double *table, const uint32_t *key, int key_len, long long max_flips,
                        double wall_seconds, unsigned char *assign, int *falsified)
{
    double start = now();
    probsat_state s = {.off = off, .lits = lits, .table = table, .assign = assign, .occ_off = occ_off,
                       .occ = occ};
    size_t slots = 1;
    long long flips = 0;
    int v, c, i, nf = 0, empty = 0;
    while (slots <= (size_t)n)
        slots <<= 1;
    s.breaks = calloc(slots, sizeof(int));
    s.cl = malloc((4 * (size_t)m + 1) * sizeof(int));
    if (!s.breaks || !s.cl) {
        free(s.breaks);
        free(s.cl);
        return -1;
    }
    s.falsified = s.cl + 2 * (size_t)m;
    s.where = s.falsified + m;

    mt_seed(&s.rng, key, (size_t)key_len);
    assign[0] = 0;
    for (v = 1; v <= n; v++)
        assign[v] = random_double(&s.rng) < 0.5;

    for (c = 0; c < m; c++) {
        int count = 0, x = 0;
        for (i = off[c]; i < off[c + 1]; i++) { /* no branch: a literal is true at random */
            int t = lit_true(&s, lits[i]);
            count += t;
            x ^= abs(lits[i]) & -t;
        }
        s.cl[2 * c] = count;
        s.cl[2 * c + 1] = x;
        s.where[c] = nf; /* read only if c stays registered */
        s.falsified[nf] = c;
        nf += count == 0;
        s.breaks[x] += count == 1;
        empty |= off[c] == off[c + 1];
    }
    s.num_falsified = nf;

    while (!empty && flips < max_flips && s.num_falsified > 0 && !(now() - start > wall_seconds))
        flips = walk(&s, flips, max_flips - flips > POLL_FLIPS ? flips + POLL_FLIPS : max_flips);
    *falsified = s.num_falsified;
    free(s.breaks);
    free(s.cl);
    return flips;
}
