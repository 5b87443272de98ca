/* Compiled resolvent enumeration: the level-1 and level-2 pools and the
 * ternary closure of satlab.resolution, equal clause for clause to its
 * (pos, neg) mask engine, which stays the readable reference.
 *
 * Clauses are read as Formula stores them: canonical, literals sorted by
 * variable and none repeated, so a tautology is a clause with two
 * adjacent literals on one variable and is skipped.  A resolvent is the
 * merge of its parents without the pivot, given up at a clash on another
 * variable (a tautology) or at the first literal past the width bound.
 * Nothing is held in fixed-width masks, so widths and variables are
 * unbounded.
 *
 * Each pool is one clause set of _clauses.h, which also gives the
 * literal index of the occurrence lists.  The clauses a pool excludes go
 * in first (the base clauses; for level 2 also the level-1 resolvents),
 * so a resolvent equal to one of them is found present, and the pool is
 * every clause added after them.  The empty resolvent is a clause like any
 * other.  Level 2 walks the reference's order:
 *
 * - the level-1 resolvents at any width, in tuple order (signed
 *   lexicographic, a prefix first);
 * - for each, its pivots by ascending variable;
 * - for each pivot, the clashing clauses: the non-tautological base
 *   clauses in id order, a repeated clause as often as it occurs, then
 *   the level-1 resolvents in tuple order;
 *
 * and stops once pair_budget attempts are spent, inside a partner list
 * where the reference's partners[:remaining] cuts it.
 *
 * A constructor returns a pool handle, or NULL when out of memory; the
 * pool is read by one pool_info and one pool_copy call and released with
 * pool_free.  pool_copy hands the clauses back grouped by width, which
 * Python turns into tuples fastest, and the permutation that puts them in
 * tuple order, the order in which Python keeps a pool.
 */

#include <limits.h>
#include <stdlib.h>
#include <string.h>

#include "_clauses.h"

typedef struct {
    long long *ids, size, cap;
} id_list;

typedef struct {
    clause_set set;
    long long first; /* the pool is clauses first .. set.count - 1 */
    long long *order; /* pool_copy's order */
    int max_width;
} pool;

typedef struct {
    unsigned long long head; /* the clause's first two literals, packed by head_of */
    long long c;
} sort_key;

/* The first two literals of a clause, sign bits flipped so that they
 * compare as unsigned as they do signed, the first in the high half, 0
 * where the clause has none (no literal packs to 0): heads compare as
 * their clauses' first two literals do in tuple order. */
static unsigned long long head_of(const clause_set *s, long long c)
{
    const int *lits = lits_of(s, c);
    int width = width_of(s, c);
    unsigned long long first = width > 0 ? ((unsigned)lits[0] ^ 0x80000000U) : 0;
    return first << 32 | (width > 1 ? ((unsigned)lits[1] ^ 0x80000000U) : 0);
}

/* Python's tuple order on canonical clauses: whether x sorts before y */
static int before(const clause_set *s, const sort_key *x, const sort_key *y)
{
    const int *a, *b;
    int i, wa, wb;
    if (x->head != y->head)
        return x->head < y->head;
    a = lits_of(s, x->c);
    b = lits_of(s, y->c);
    wa = width_of(s, x->c);
    wb = width_of(s, y->c);
    for (i = 2; i < wa && i < wb; i++)
        if (a[i] != b[i])
            return a[i] < b[i];
    return wa < wb;
}

/* The distinct clauses first .. first + size - 1 of the set, by id in
 * tuple order (signed lexicographic, a prefix first), into ids, by a
 * bottom-up merge sort; -1 when out of memory. */
static int tuple_sort(const clause_set *s, long long first, long long size, long long *ids)
{
    sort_key *a = malloc((size_t)(size + 1) * sizeof *a), *b = malloc((size_t)(size + 1) * sizeof *b), *t;
    long long i, run;
    if (!a || !b) {
        free(a);
        free(b);
        return -1;
    }
    for (i = 0; i < size; i++) {
        a[i].head = head_of(s, first + i);
        a[i].c = first + i;
    }
    for (run = 1; run < size; run *= 2) { /* merge runs of a into b, then swap them */
        long long lo;
        for (lo = 0; lo < size; lo += 2 * run) {
            long long mid = lo + run < size ? lo + run : size, hi = lo + 2 * run < size ? lo + 2 * run : size;
            long long j = lo, k = mid, out = lo;
            while (j < mid && k < hi)
                b[out++] = before(s, &a[k], &a[j]) ? a[k++] : a[j++];
            while (j < mid)
                b[out++] = a[j++];
            while (k < hi)
                b[out++] = a[k++];
        }
        t = a;
        a = b;
        b = t;
    }
    for (i = 0; i < size; i++)
        ids[i] = a[i].c;
    free(a);
    free(b);
    return 0;
}

/* 0 when the canonical clause has no variable twice, 1 when a tautology */
static int tautology(const int *lits, int width)
{
    int i;
    for (i = 1; i < width; i++)
        if (abs(lits[i - 1]) == abs(lits[i]))
            return 1;
    return 0;
}

/* The non-tautological formula clauses of width <= max_width, in id
 * order: added to the set (once each) or, with dedup 0, appended. */
static int add_base(clause_set *s, int m, const int *off, const int *lits, int max_width, int dedup)
{
    int c;
    for (c = 0; c < m; c++) {
        const int *clause = lits + off[c];
        int width = off[c + 1] - off[c];
        if (width > max_width || tautology(clause, width))
            continue;
        if ((dedup ? add(s, clause, width) : push(s, clause, width, 0)) < 0)
            return -1;
    }
    return 0;
}

/* -- occurrence lists: per literal l, at lit_index(l) as in Formula -------------- */

static int index_clause(id_list *occ, const clause_set *s, long long c)
{
    const int *lits = lits_of(s, c);
    int i, width = width_of(s, c);
    for (i = 0; i < width; i++) {
        id_list *list = &occ[lit_index(lits[i])];
        long long *ids = grow(list->ids, &list->cap, list->size + 1, sizeof *ids);
        if (!ids)
            return -1;
        list->ids = ids;
        ids[list->size++] = c;
    }
    return 0;
}

static void free_index(id_list *occ, int n)
{
    int i;
    if (!occ)
        return;
    for (i = 0; i < 2 * n + 2; i++)
        free(occ[i].ids);
    free(occ);
}

/* Occurrence lists of the set's clauses 0 .. count - 1, each in id order;
 * NULL when out of memory. */
static id_list *index_clauses(const clause_set *s, int n)
{
    id_list *occ = calloc((size_t)2 * n + 2, sizeof *occ);
    long long c;
    for (c = 0; occ && c < s->count; c++)
        if (index_clause(occ, s, c) < 0) {
            free_index(occ, n);
            return NULL;
        }
    return occ;
}

/* Set mark[|l|] = l for each literal l of a clause, or with on 0 clear it. */
static void mark_clause(int *mark, const int *lits, int width, int on)
{
    int i;
    for (i = 0; i < width; i++)
        mark[abs(lits[i])] = on ? lits[i] : 0;
}

/* The resolvent on variable v of clause a, which is marked, and clause b,
 * into `out`: its width, or -1 when it is a tautology or wider than
 * max_width.  Most pairs fail, so b is checked against the marks first and
 * only a resolvent that survives is merged. */
static int resolve(const int *mark, const int *a, int la, const int *b, int lb, int v, int max_width, int *out)
{
    int i = 0, j, w = la - 1;
    for (j = 0; j < lb; j++) {
        int var = abs(b[j]);
        if (!mark[var]) {
            if (++w > max_width)
                return -1;
        } else if (mark[var] != b[j] && var != v)
            return -1;
    }
    if (w > max_width)
        return -1;
    for (w = 0, j = 0;;) {
        while (j < lb && mark[abs(b[j])]) /* the pivot, or a literal of a */
            j++;
        if (i < la && abs(a[i]) == v)
            i++;
        if (i == la && j == lb)
            return w;
        if (j == lb || (i < la && abs(a[i]) < abs(b[j])))
            out[w++] = a[i++];
        else
            out[w++] = b[j++];
    }
}

/* Add to the set every resolvent of width <= max_width of two of its
 * clauses 0 .. count - 1; -1 when out of memory.  mark is zero, n + 1
 * entries, and is left zero. */
static int add_level1(clause_set *s, int n, int max_width, int *mark, int *buf)
{
    id_list *occ = index_clauses(s, n);
    int v;
    if (!occ)
        return -1;
    for (v = 1; v <= n; v++) {
        const id_list *pos = &occ[lit_index(v)], *neg = &occ[lit_index(-v)];
        long long i, j;
        for (i = 0; i < pos->size; i++) {
            long long a = pos->ids[i];
            mark_clause(mark, lits_of(s, a), width_of(s, a), 1);
            for (j = 0; j < neg->size; j++) {
                long long b = neg->ids[j]; /* the set may move its literals on add */
                int w = resolve(mark, lits_of(s, a), width_of(s, a), lits_of(s, b), width_of(s, b), v, max_width,
                                buf);
                if (w >= 0 && add(s, buf, w) < 0) {
                    free_index(occ, n);
                    return -1;
                }
            }
            mark_clause(mark, lits_of(s, a), width_of(s, a), 0);
        }
    }
    free_index(occ, n);
    return 0;
}

static pool *new_pool(int max_width)
{
    pool *p = malloc(sizeof *p);
    if (!p)
        return NULL;
    if (init_set(&p->set) < 0) {
        free_set(&p->set);
        free(p);
        return NULL;
    }
    p->first = 0;
    p->order = NULL;
    p->max_width = max_width;
    return p;
}

void pool_free(pool *p)
{
    if (p) {
        free_set(&p->set);
        free(p->order);
        free(p);
    }
}

/* The finished pool with its order, or NULL, the pool freed, when out of
 * memory: order[i] is the place, in pool_copy's grouping by width and
 * then as found, of the pool's i-th clause in tuple order. */
static pool *with_order(pool *p)
{
    const clause_set *s = &p->set;
    long long size = s->count - p->first, c, i;
    long long *start = calloc((size_t)p->max_width + 2, sizeof *start); /* start[w]: clauses narrower than w */
    long long *at = malloc((size_t)(size + 1) * sizeof *at);
    int w, ok = start && at && (p->order = malloc((size_t)(size + 1) * sizeof *p->order))
                && tuple_sort(s, p->first, size, p->order) == 0;
    if (ok) {
        for (c = p->first; c < s->count; c++)
            start[width_of(s, c) + 1]++;
        for (w = 1; w <= p->max_width; w++)
            start[w] += start[w - 1];
        for (i = 0; i < size; i++)
            at[i] = start[width_of(s, p->first + i)]++;
        for (i = 0; i < size; i++)
            p->order[i] = at[p->order[i] - p->first];
    }
    free(start);
    free(at);
    if (!ok) {
        pool_free(p);
        return NULL;
    }
    return p;
}

/* Non-tautological resolvents of width <= max_width of two base clauses
 * that are not base clauses; max_width <= n. */
pool *level1_pool(int n, int m, const int *off, const int *lits, int max_width)
{
    pool *p = new_pool(max_width);
    int *mark = calloc((size_t)n + 1, sizeof *mark), *buf = malloc(((size_t)max_width + 1) * sizeof *buf);
    if (!p || !mark || !buf || add_base(&p->set, m, off, lits, INT_MAX, 1) < 0)
        goto fail;
    p->first = p->set.count;
    if (add_level1(&p->set, n, max_width, mark, buf) < 0)
        goto fail;
    free(mark);
    free(buf);
    return with_order(p);
fail:
    free(mark);
    free(buf);
    pool_free(p);
    return NULL;
}

/* Non-tautological resolvents of width <= max_width with a level-1 parent
 * that are neither base clauses nor level-1 resolvents, in the walk order
 * of the header, within pair_budget attempts; max_width <= n. */
pool *level2_pool(int n, int m, const int *off, const int *lits, int max_width, long long pair_budget)
{
    pool *p = new_pool(max_width), *result = NULL;
    clause_set walk; /* the base clauses with repeats, then the level-1 resolvents in tuple order */
    long long *sorted = NULL; /* the level-1 resolvents in tuple order */
    id_list *occ = NULL;
    int *mark = calloc((size_t)n + 1, sizeof *mark), *buf = malloc(((size_t)n + 1) * sizeof *buf);
    long long nb, level1, a, i, remaining = pair_budget;
    if (init_set(&walk) < 0 || !p || !mark || !buf || add_base(&p->set, m, off, lits, INT_MAX, 1) < 0)
        goto fail;
    nb = p->set.count;
    if (add_level1(&p->set, n, n, mark, buf) < 0)
        goto fail;
    p->first = p->set.count;
    level1 = p->first - nb;
    if (!(sorted = malloc((size_t)(level1 + 1) * sizeof *sorted)) || tuple_sort(&p->set, nb, level1, sorted) < 0)
        goto fail;
    if (add_base(&walk, m, off, lits, INT_MAX, 0) < 0)
        goto fail;
    nb = walk.count;
    for (i = 0; i < level1; i++)
        if (push(&walk, lits_of(&p->set, sorted[i]), width_of(&p->set, sorted[i]), 0) < 0)
            goto fail;
    if (!(occ = index_clauses(&walk, n)))
        goto fail;
    for (a = nb; a < walk.count; a++) {
        const int *clause = lits_of(&walk, a);
        int width = width_of(&walk, a), k;
        mark_clause(mark, clause, width, 1);
        for (k = 0; k < width; k++) {
            const id_list *partners = &occ[lit_index(-clause[k])];
            long long take = partners->size < remaining ? partners->size : remaining, j;
            for (j = 0; j < take; j++) {
                long long b = partners->ids[j];
                int w = resolve(mark, clause, width, lits_of(&walk, b), width_of(&walk, b), abs(clause[k]),
                                max_width, buf);
                if (w >= 0 && add(&p->set, buf, w) < 0)
                    goto fail;
            }
            if (partners->size > remaining)
                goto done;
            remaining -= partners->size;
        }
        mark_clause(mark, clause, width, 0);
    }
done:
    result = with_order(p);
    p = NULL;
fail:
    free(mark);
    free(sorted);
    free_index(occ, n);
    free_set(&walk);
    free(buf);
    pool_free(p);
    return result;
}

/* The closure of the non-tautological base clauses of width <= 3 under
 * resolution with resolvents of width <= 3, less those base clauses.
 * Clauses are taken in the order they were added, which puts every new
 * one in the queue; each pair meets when the later of the two is taken,
 * as the partner lists are in id order and are walked only below it. */
pool *ternary_pool(int n, int m, const int *off, const int *lits)
{
    pool *p = new_pool(3);
    id_list *occ = NULL;
    int *mark = calloc((size_t)n + 1, sizeof *mark), buf[3];
    long long q;
    if (!p || !mark || add_base(&p->set, m, off, lits, 3, 1) < 0 || !(occ = index_clauses(&p->set, n)))
        goto fail;
    p->first = p->set.count;
    for (q = 0; q < p->set.count; q++) { /* the set may move its literals on add */
        int k, width = width_of(&p->set, q);
        mark_clause(mark, lits_of(&p->set, q), width, 1);
        for (k = 0; k < width; k++) {
            int lit = lits_of(&p->set, q)[k];
            const id_list *partners = &occ[lit_index(-lit)];
            long long j, b;
            for (j = 0; j < partners->size && (b = partners->ids[j]) < q; j++) {
                int w = resolve(mark, lits_of(&p->set, q), width, lits_of(&p->set, b), width_of(&p->set, b),
                                abs(lit), 3, buf), added;
                if (w < 0)
                    continue;
                added = add(&p->set, buf, w);
                if (added < 0 || (added && index_clause(occ, &p->set, p->set.count - 1) < 0))
                    goto fail;
            }
        }
        mark_clause(mark, lits_of(&p->set, q), width, 0);
    }
    free(mark);
    free_index(occ, n);
    return with_order(p);
fail:
    free(mark);
    free_index(occ, n);
    pool_free(p);
    return NULL;
}

/* info gets the pool's clause count and literal count. */
void pool_info(const pool *p, long long *info)
{
    info[0] = p->set.count - p->first;
    info[1] = p->set.off[p->set.count] - p->set.off[p->first];
}

/* Copy the pool out grouped by width, widths ascending, clauses in the
 * order found: counts[w], for w = 0 .. the pool's width bound, clauses of
 * width w, and their literals in lits.  order gets the places in that
 * grouping of the clauses in tuple order.  pool_info counts both. */
void pool_copy(const pool *p, long long *counts, int *lits, long long *order)
{
    const clause_set *s = &p->set;
    long long c;
    int w, widest = 0;
    memcpy(order, p->order, (size_t)(s->count - p->first) * sizeof *order);
    memset(counts, 0, ((size_t)p->max_width + 1) * sizeof *counts);
    for (c = p->first; c < s->count; c++) {
        counts[w = width_of(s, c)]++;
        if (w > widest)
            widest = w;
    }
    for (w = 1; w <= widest; w++)
        for (c = p->first; counts[w] && c < s->count; c++)
            if (width_of(s, c) == w) {
                memcpy(lits, lits_of(s, c), (size_t)w * sizeof *lits);
                lits += w;
            }
}
