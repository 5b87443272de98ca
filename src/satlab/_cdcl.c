/* Compiled CDCL search, bit-identical to satlab.cdcl.CdclSolver.solve
 * on a fresh solver, as satlab.cdcl._search runs it, and the backbone
 * as satlab.quality.compute_backbone's reference finds it by one such
 * search per candidate, all in one call (cdcl_backbone).
 *
 * The layout is MiniSat's (Een & Sorensson, SAT 2003): values and watch
 * lists indexed by literal at lit_index(l), as Formula's occurrence
 * index, watch lists compacted in place, and an indexed binary heap of
 * variables.  Every step repeats the Python reference:
 *
 * - input clauses are attached in clause-id order with units enqueued
 *   at level 0, then, in a backbone query, the query's literals as unit
 *   clauses, as the reference attaches the formula extended by them; a
 *   clause keeps its literal order until propagation swaps literals
 *   exactly where the reference swaps them;
 * - a decision takes the unassigned variable of highest activity, ties
 *   to the lowest index, with the phase saved on backjump or, before the
 *   first backjump, drawn from the seed's key as the reference draws it
 *   from random.Random(seed): phase[v] = random() < 0.5 for v = 1..n;
 * - 1-UIP analysis bumps variables in the order it meets them, stamps
 *   every clause it visits, and puts a highest-level literal second;
 * - an activity bump adds var_inc, var_inc is divided by 0.95 per
 *   conflict, and everything is multiplied by 1e-100 once an activity
 *   passes 1e100 (build with -ffp-contract=off so no multiply-add is
 *   fused);
 * - DB reduction runs once the learned DB holds more than max(2000,
 *   input clauses + extra units) clauses, a cap that grows by half on
 *   each reduction; it keeps the locked clauses in DB order, then those
 *   of the first half of the rest, sorted by stamp descending and DB
 *   position ascending, that have at most 12 literals;
 * - a learned clause of width <= width_limit is recorded, canonically
 *   sorted and with its learn index, and counted among the distinct
 *   qualifying clauses of the solver's life, on every search as the
 *   reference's set does;
 * - the early-stop, conflict and wall-clock (every 64 conflicts)
 *   budgets, DB reduction and Luby restarts (base 64) follow each
 *   conflict in that order.
 *
 * The input clauses of width >= 2 lie back to back in one arena, sized
 * with the watch lists in a first pass over the formula and freed once;
 * each learned clause has its own block, which reduction frees (the
 * reference leaves dropped clauses to the garbage collector).
 *
 * The records are one clause set of _clauses.h, which holds each record
 * and counts the distinct ones; the header also gives the literal index
 * and the growth rule.  The phases come from the Mersenne Twister of
 * _mt.h, seeded as the probSAT kernel seeds it (mt_seed).  new_state takes
 * them drawn: cdcl_new draws them for its one search, and cdcl_backbone
 * draws them once for all of its searches, the only ones with units.
 *
 * A finished search or backbone is read by one _info and one _copy call,
 * then freed.  Every budget is a count; without one, pass one never reached.
 */

#include <limits.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#include "_clauses.h"
#include "_mt.h"

enum { BUDGET = 0, SAT = 1, UNSAT = 2, OUT_OF_MEMORY = -1 };

#define RESCALE_LIMIT 1e100
#define ACTIVITY_DECAY 0.95
#define LUBY_BASE 64
#define WALL_CHECK_EVERY 64
#define SURVIVOR_WIDTH 12

typedef struct {
    long long stamp;
    int size;
    unsigned char locked, dead;
    int lits[];
} clause;

typedef struct {
    clause **data;
    long long size, cap;
} watch_list;

typedef struct {
    int n, unsat;
    signed char *value;   /* per literal: 1 true, -1 false, 0 unassigned */
    int *level;           /* per variable */
    clause **reason;      /* per variable */
    unsigned char *phase; /* per variable, saved on backjump */
    unsigned char *seen;  /* per variable, clear between analyses */
    double *activity, var_inc;
    int *heap, *heap_pos, heap_size; /* heap_pos[v] < 0: v is not in the heap */
    int *trail, trail_size, qhead;
    int *trail_lim, levels;
    int *learnt, *canon; /* the clause just learned, as learned and canonically sorted */
    watch_list *watches; /* per literal */
    char *arena;         /* the input clauses of width >= 2, back to back */
    clause **db; /* learned clauses, in the reference's order */
    long long db_size, db_cap, reduce_cap;
    long long conflicts, restart_idx, restart_at; /* one clause is learned per conflict */
    /* qualifying record r: clause r of records, learned at conflict
     * rec_index[r] + 1; records.distinct counts their literal sets */
    clause_set records;
    long long *rec_index, index_cap;
} cdcl_state;

static int value(const cdcl_state *s, int lit)
{
    return s->value[lit_index(lit)];
}

static double now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

/* satlab.cdcl.luby */
static long long luby(long long i)
{
    int k = 1;
    while ((1LL << k) - 1 < i)
        k++;
    while ((1LL << k) - 1 != i) {
        k--;
        i -= (1LL << k) - 1;
        k = 1;
        while ((1LL << k) - 1 < i)
            k++;
    }
    return 1LL << (k - 1);
}

static int watch(cdcl_state *s, int lit, clause *c)
{
    watch_list *w = &s->watches[lit_index(lit)];
    clause **data = grow(w->data, &w->cap, w->size + 1, sizeof *data);
    if (!data)
        return -1;
    w->data = data;
    data[w->size++] = c;
    return 0;
}

static clause *init_clause(clause *c, const int *lits, int size, long long stamp)
{
    c->stamp = stamp;
    c->size = size;
    c->locked = c->dead = 0;
    memcpy(c->lits, lits, (size_t)size * sizeof(int));
    return c;
}

/* A learned clause, allocated on its own since reduce_db frees it. */
static clause *new_clause(const int *lits, int size, long long stamp)
{
    clause *c = malloc(sizeof *c + (size_t)size * sizeof(int));
    return c ? init_clause(c, lits, size, stamp) : NULL;
}

/* -- the variable heap: highest activity first, ties to the lowest index -- */

static int before(const cdcl_state *s, int a, int b)
{
    double x = s->activity[a], y = s->activity[b];
    return x > y || (x == y && a < b);
}

static void heap_up(cdcl_state *s, int i)
{
    int *h = s->heap, v = h[i];
    while (i > 0 && before(s, v, h[(i - 1) / 2])) {
        h[i] = h[(i - 1) / 2];
        s->heap_pos[h[i]] = i;
        i = (i - 1) / 2;
    }
    h[i] = v;
    s->heap_pos[v] = i;
}

static void heap_down(cdcl_state *s, int i)
{
    int *h = s->heap, v = h[i];
    for (;;) {
        int child = 2 * i + 1;
        if (child >= s->heap_size)
            break;
        if (child + 1 < s->heap_size && before(s, h[child + 1], h[child]))
            child++;
        if (!before(s, h[child], v))
            break;
        h[i] = h[child];
        s->heap_pos[h[i]] = i;
        i = child;
    }
    h[i] = v;
    s->heap_pos[v] = i;
}

static void heap_insert(cdcl_state *s, int v)
{
    if (s->heap_pos[v] >= 0)
        return;
    s->heap[s->heap_size] = v;
    heap_up(s, s->heap_size++);
}

static int heap_pop(cdcl_state *s)
{
    int v = s->heap[0];
    s->heap_pos[v] = -1;
    if (--s->heap_size > 0) {
        s->heap[0] = s->heap[s->heap_size];
        heap_down(s, 0);
    }
    return v;
}

/* The unassigned variable the reference's lazy heap pops; 0 when none is. */
static int pick_branch_var(cdcl_state *s)
{
    while (s->heap_size > 0) {
        int v = heap_pop(s);
        if (value(s, v) == 0)
            return v;
    }
    return 0;
}

/* -- assignment and propagation --------------------------------------------- */

static void enqueue(cdcl_state *s, int lit, clause *reason)
{
    int v = abs(lit);
    s->value[lit_index(lit)] = 1;
    s->value[lit_index(-lit)] = -1;
    s->level[v] = s->levels;
    s->reason[v] = reason;
    s->trail[s->trail_size++] = lit;
}

static void backjump(cdcl_state *s, int target)
{
    int i, bound;
    if (s->levels <= target)
        return;
    bound = s->trail_lim[target];
    for (i = s->trail_size - 1; i >= bound; i--) {
        int lit = s->trail[i], v = abs(lit);
        s->phase[v] = lit > 0;
        s->value[lit_index(lit)] = s->value[lit_index(-lit)] = 0;
        s->reason[v] = NULL;
        heap_insert(s, v);
    }
    s->trail_size = bound;
    s->levels = target;
    s->qhead = bound;
}

/* The conflict clause, or NULL.  Sets *oom (and stops) when a watch list
 * cannot grow. */
static clause *propagate(cdcl_state *s, int *oom)
{
    while (s->qhead < s->trail_size) {
        int false_lit = -s->trail[s->qhead++];
        watch_list *w = &s->watches[lit_index(false_lit)];
        clause **ws = w->data;
        long long i = 0, j = 0, total = w->size;
        while (i < total) {
            clause *c = ws[i++];
            int *lits = c->lits, first, fval, k;
            if (lits[0] == false_lit) {
                lits[0] = lits[1];
                lits[1] = false_lit;
            }
            first = lits[0];
            fval = value(s, first);
            if (fval == 1) {
                ws[j++] = c;
                continue;
            }
            for (k = 2; k < c->size && value(s, lits[k]) == -1; k++)
                ;
            if (k < c->size) {
                int other = lits[k];
                lits[k] = lits[1];
                lits[1] = other;
                if (watch(s, other, c) < 0) {
                    *oom = 1;
                    return NULL;
                }
                continue;
            }
            ws[j++] = c;
            if (fval == -1) {
                while (i < total)
                    ws[j++] = ws[i++];
                w->size = j;
                return c;
            }
            enqueue(s, first, c);
        }
        w->size = j;
    }
    return NULL;
}

/* -- conflict analysis ------------------------------------------------------- */

static void bump(cdcl_state *s, int v)
{
    s->activity[v] += s->var_inc;
    if (s->activity[v] > RESCALE_LIMIT) {
        const double inv = 1.0 / RESCALE_LIMIT;
        int u;
        for (u = 1; u <= s->n; u++)
            s->activity[u] *= inv;
        s->var_inc *= inv;
        /* scaling can round distinct activities to equal ones */
        for (u = s->heap_size / 2 - 1; u >= 0; u--)
            heap_down(s, u);
    } else if (s->heap_pos[v] >= 0) {
        heap_up(s, s->heap_pos[v]);
    }
}

/* The first-UIP clause into s->learnt, asserting literal first and a
 * highest-level literal second; returns its size and sets *bj_level. */
static int analyze(cdcl_state *s, clause *c, int *bj_level)
{
    int *learnt = s->learnt, size = 1, n_curr = 0, idx = s->trail_size - 1;
    int p = 0, i, max_i;
    for (;;) {
        c->stamp = s->conflicts;
        for (i = p ? 1 : 0; i < c->size; i++) {
            int lit = c->lits[i], v = abs(lit);
            if (!s->seen[v] && s->level[v] > 0) {
                s->seen[v] = 1;
                bump(s, v);
                if (s->level[v] >= s->levels)
                    n_curr++;
                else
                    learnt[size++] = lit;
            }
        }
        while (!s->seen[abs(s->trail[idx])])
            idx--;
        p = s->trail[idx--];
        s->seen[abs(p)] = 0;
        if (--n_curr == 0)
            break;
        c = s->reason[abs(p)];
    }
    learnt[0] = -p;
    for (i = 1; i < size; i++)
        s->seen[abs(learnt[i])] = 0;
    *bj_level = 0;
    if (size == 1)
        return size;
    max_i = 1;
    for (i = 2; i < size; i++)
        if (s->level[abs(learnt[i])] > s->level[abs(learnt[max_i])])
            max_i = i;
    p = learnt[1];
    learnt[1] = learnt[max_i];
    learnt[max_i] = p;
    *bj_level = s->level[abs(learnt[1])];
    return size;
}

/* -- qualifying records --------------------------------------------------------- */

/* Keep the clause just learned, s->learnt[0 .. size), canonically sorted,
 * when it qualifies, and count it among the distinct qualifying clauses;
 * -1 when out of memory. */
static int record(cdcl_state *s, int size, long long width_limit)
{
    clause_set *r = &s->records;
    long long *index;
    if (size > width_limit)
        return 0;
    if (!(index = grow(s->rec_index, &s->index_cap, r->count + 1, sizeof *index)))
        return -1;
    s->rec_index = index;
    memcpy(s->canon, s->learnt, (size_t)size * sizeof *s->canon);
    sort_lits(s->canon, size);
    if (tally(r, s->canon, size) < 0)
        return -1;
    index[r->count - 1] = s->conflicts - 1;
    return 0;
}

/* -- the learned clause database ------------------------------------------------- */

typedef struct {
    clause *c;
    long long pos;
} ranked;

static int by_stamp_desc(const void *a, const void *b)
{
    const ranked *x = a, *y = b;
    if (x->c->stamp != y->c->stamp)
        return x->c->stamp < y->c->stamp ? 1 : -1;
    return x->pos < y->pos ? -1 : x->pos > y->pos;
}

static int reduce_db(cdcl_state *s)
{
    ranked *drop = malloc((size_t)s->db_size * sizeof *drop);
    long long i, j, num_drop = 0, kept = 0, half;
    int k;
    if (!drop)
        return -1;
    for (k = 0; k < s->trail_size; k++) {
        clause *r = s->reason[abs(s->trail[k])];
        if (r)
            r->locked = 1;
    }
    for (i = 0; i < s->db_size; i++) {
        clause *c = s->db[i];
        if (c->locked) {
            s->db[kept++] = c;
        } else {
            drop[num_drop].c = c;
            drop[num_drop].pos = num_drop;
            num_drop++;
        }
    }
    qsort(drop, (size_t)num_drop, sizeof *drop, by_stamp_desc);
    half = num_drop / 2;
    for (i = 0; i < num_drop; i++) {
        clause *c = drop[i].c;
        if (i < half && c->size <= SURVIVOR_WIDTH)
            s->db[kept++] = c;
        else
            c->dead = 1;
    }
    for (k = 0; k < 2 * s->n + 2; k++) {
        watch_list *w = &s->watches[k];
        for (i = j = 0; i < w->size; i++)
            if (!w->data[i]->dead)
                w->data[j++] = w->data[i];
        w->size = j;
    }
    for (i = 0; i < num_drop; i++)
        if (drop[i].c->dead)
            free(drop[i].c);
    for (k = 0; k < s->trail_size; k++) {
        clause *r = s->reason[abs(s->trail[k])];
        if (r)
            r->locked = 0;
    }
    free(drop);
    s->db_size = kept;
    s->reduce_cap += s->reduce_cap / 2;
    return 0;
}

/* -- the state -------------------------------------------------------------------- */

void cdcl_free(cdcl_state *s)
{
    long long i;
    if (!s)
        return;
    if (s->watches)
        for (i = 0; i < 2 * (long long)s->n + 2; i++)
            free(s->watches[i].data);
    for (i = 0; i < s->db_size; i++)
        free(s->db[i]);
    free(s->watches);
    free(s->arena);
    free(s->db);
    free(s->value);
    free(s->level);
    free(s->reason);
    free(s->phase);
    free(s->seen);
    free(s->activity);
    free(s->heap);
    free(s->heap_pos);
    free(s->trail);
    free(s->trail_lim);
    free(s->learnt);
    free(s->canon);
    free_set(&s->records);
    free(s->rec_index);
    free(s);
}

/* Bytes an input clause of `size` literals takes in the arena: the clause
 * rounded up to the alignment of the next one. */
static size_t arena_bytes(int size)
{
    size_t bytes = sizeof(clause) + (size_t)size * sizeof(int), align = _Alignof(clause);
    return (bytes + align - 1) / align * align;
}

/* Assign the unit clause (lit) at level 0 as CdclSolver._attach_input_clause
 * does; 0 when lit is already false. */
static int assign_unit(cdcl_state *s, int lit)
{
    if (value(s, lit) == -1)
        return 0;
    if (value(s, lit) == 0)
        enqueue(s, lit, NULL);
    return 1;
}

/* New solver over the CSR formula (clause c is lits[off[c] .. off[c + 1]))
 * and the unit clauses units[0 .. num_units) after it, with the initial
 * phases phases[1 .. n]; attaches the clauses and propagates the units, as
 * CdclSolver.__init__ does on the formula extended by the units.  A first
 * pass sizes the arena and each watch list; the second lays the clauses of
 * width >= 2 out in the arena.  NULL when out of memory. */
static cdcl_state *new_state(int n, int m, const int *off, const int *lits, const int *units, int num_units,
                             const unsigned char *phases)
{
    cdcl_state *s = calloc(1, sizeof *s);
    size_t vars = (size_t)n + 1, literals = 2 * (size_t)n + 2, bytes = 0, k;
    char *next;
    int v, c, oom = 0;
    if (!s)
        return NULL;
    s->n = n;
    s->value = calloc(literals, 1);
    s->watches = calloc(literals, sizeof *s->watches);
    s->level = calloc(vars, sizeof *s->level);
    s->reason = calloc(vars, sizeof *s->reason);
    s->phase = malloc(vars);
    s->seen = calloc(vars, 1);
    s->activity = calloc(vars, sizeof *s->activity);
    s->heap = malloc(vars * sizeof *s->heap);
    s->heap_pos = malloc(vars * sizeof *s->heap_pos);
    s->trail = malloc(vars * sizeof *s->trail);
    s->trail_lim = malloc(vars * sizeof *s->trail_lim);
    s->learnt = malloc(vars * sizeof *s->learnt);
    s->canon = malloc(vars * sizeof *s->canon);
    if (init_set(&s->records) < 0
        || !s->value || !s->watches || !s->level || !s->reason || !s->phase || !s->seen
        || !s->activity || !s->heap || !s->heap_pos || !s->trail || !s->trail_lim
        || !s->learnt || !s->canon) {
        cdcl_free(s);
        return NULL;
    }
    for (c = 0; c < m; c++) {
        if (off[c + 1] - off[c] < 2)
            continue;
        bytes += arena_bytes(off[c + 1] - off[c]);
        s->watches[lit_index(lits[off[c]])].size++;
        s->watches[lit_index(lits[off[c] + 1])].size++;
    }
    if (bytes && !(s->arena = malloc(bytes))) {
        cdcl_free(s);
        return NULL;
    }
    for (k = 0; k < literals; k++) {
        /* the capacity the growth rule would reach for the counted size */
        watch_list *w = &s->watches[k];
        long long need = w->size;
        w->size = 0;
        if (need && !(w->data = grow(NULL, &w->cap, need, sizeof *w->data))) {
            cdcl_free(s);
            return NULL;
        }
    }
    memcpy(s->phase, phases, vars);
    s->var_inc = 1.0;
    s->heap_pos[0] = -1;
    for (v = 1; v <= n; v++) {
        s->heap[v - 1] = v;
        s->heap_pos[v] = v - 1; /* equal activities: index order is a heap */
    }
    s->heap_size = n;
    s->reduce_cap = (long long)m + num_units > 2000 ? (long long)m + num_units : 2000;
    s->restart_idx = 1;
    s->restart_at = LUBY_BASE * luby(1);
    next = s->arena;
    for (c = 0; c < m; c++) {
        const int *cl = lits + off[c];
        int size = off[c + 1] - off[c];
        clause *input;
        if (size == 0 || (size == 1 && !assign_unit(s, cl[0]))) {
            s->unsat = 1;
            return s;
        }
        if (size == 1)
            continue;
        input = init_clause((clause *)next, cl, size, 0);
        next += arena_bytes(size);
        if (watch(s, cl[0], input) < 0 || watch(s, cl[1], input) < 0) {
            cdcl_free(s);
            return NULL;
        }
    }
    for (c = 0; c < num_units; c++)
        if (!assign_unit(s, units[c])) {
            s->unsat = 1;
            return s;
        }
    if (propagate(s, &oom))
        s->unsat = 1;
    if (oom) {
        cdcl_free(s);
        return NULL;
    }
    return s;
}

/* The initial phases of variables 1 .. n (byte 0 unused), drawn from the
 * seed's key[0 .. key_len) (mt_seed) as the reference draws them from
 * random.Random(seed): phase[v] = random() < 0.5; NULL when out of memory. */
static unsigned char *draw_phases(int n, const uint32_t *key, int key_len)
{
    unsigned char *phases = malloc((size_t)n + 1);
    mt_state rng;
    int v;
    if (!phases)
        return NULL;
    mt_seed(&rng, key, (size_t)key_len);
    phases[0] = 0;
    for (v = 1; v <= n; v++)
        phases[v] = random_double(&rng) < 0.5;
    return phases;
}

/* new_state with no units and the phases drawn from the seed's key: the miner's solver. */
cdcl_state *cdcl_new(int n, int m, const int *off, const int *lits, const uint32_t *key, int key_len)
{
    unsigned char *phases = draw_phases(n, key, key_len);
    cdcl_state *s = phases ? new_state(n, m, off, lits, NULL, 0, phases) : NULL;
    free(phases);
    return s;
}

/* Add s->learnt[0 .. size) as CdclSolver._add_learned and _enqueue do;
 * -1 when out of memory. */
static int learn(cdcl_state *s, int size)
{
    clause *c = NULL, **db;
    if (size > 1) {
        if (!(db = grow(s->db, &s->db_cap, s->db_size + 1, sizeof *db)))
            return -1;
        s->db = db;
        c = new_clause(s->learnt, size, s->conflicts);
        if (!c)
            return -1;
        s->db[s->db_size++] = c;
        if (watch(s, c->lits[0], c) < 0 || watch(s, c->lits[1], c) < 0)
            return -1;
    }
    enqueue(s, s->learnt[0], c);
    return 0;
}

/* Search until sat, unsat or a budget, as CdclSolver.solve does: at most
 * `conflict_limit` conflicts, stopping once `count_cap` distinct learned
 * clauses of width <= width_limit exist.  Returns BUDGET, SAT or UNSAT, or
 * OUT_OF_MEMORY (after which the state can only be freed). */
int cdcl_solve(cdcl_state *s, long long conflict_limit, double wall_seconds,
               long long width_limit, long long count_cap)
{
    double start = now();
    long long first = s->conflicts;
    int oom = 0;
    if (s->unsat)
        return UNSAT;
    backjump(s, 0);
    for (;;) {
        clause *conflict = propagate(s, &oom);
        int v;
        if (oom)
            return OUT_OF_MEMORY;
        if (conflict) {
            int size, bj_level;
            if (s->levels == 0) {
                s->unsat = 1;
                return UNSAT;
            }
            s->conflicts++;
            size = analyze(s, conflict, &bj_level);
            if (record(s, size, width_limit) < 0)
                return OUT_OF_MEMORY;
            backjump(s, bj_level);
            if (learn(s, size) < 0)
                return OUT_OF_MEMORY;
            s->var_inc /= ACTIVITY_DECAY;
            if (s->records.distinct >= count_cap || s->conflicts - first >= conflict_limit
                || (s->conflicts % WALL_CHECK_EVERY == 0 && now() - start > wall_seconds)) {
                backjump(s, 0);
                return BUDGET;
            }
            if (s->db_size > s->reduce_cap && reduce_db(s) < 0)
                return OUT_OF_MEMORY;
            if (s->conflicts >= s->restart_at) {
                s->restart_idx++;
                s->restart_at += LUBY_BASE * luby(s->restart_idx);
                backjump(s, 0);
            }
            continue;
        }
        v = pick_branch_var(s);
        if (!v)
            return SAT;
        s->trail_lim[s->levels++] = s->trail_size;
        enqueue(s, s->phase[v] ? v : -v, NULL);
    }
}

/* info gets the conflicts, the record count and the record literal count. */
void cdcl_info(const cdcl_state *s, long long *info)
{
    info[0] = s->conflicts;
    info[1] = s->records.count;
    info[2] = s->records.off[s->records.count];
}

/* Copy the assignment (n + 1 bytes, index 0 unused, 1 = true) into `out`. */
static void cdcl_assignment(const cdcl_state *s, unsigned char *out)
{
    int v;
    out[0] = 0;
    for (v = 1; v <= s->n; v++)
        out[v] = value(s, v) == 1;
}

/* Copy out what cdcl_info counts: the records' offsets (count + 1), learn
 * indices and literals; and the assignment into `model` unless it is NULL. */
void cdcl_copy(const cdcl_state *s, long long *off, long long *index, int *lits, unsigned char *model)
{
    const clause_set *r = &s->records;
    memcpy(off, r->off, (size_t)(r->count + 1) * sizeof *off);
    if (r->count) {
        memcpy(index, s->rec_index, (size_t)r->count * sizeof *index);
        memcpy(lits, r->lits, (size_t)r->off[r->count] * sizeof *lits);
    }
    if (model)
        cdcl_assignment(s, model);
}

/* -- the backbone ------------------------------------------------------------------ */

/* What cdcl_backbone found.  status is SAT when every candidate was
 * decided, UNSAT when the formula is unsatisfiable, and BUDGET when a
 * search ran out: the query of literal `stopped`, or the first search when
 * stopped is 0.  confirmed holds the backbone literals in the order found,
 * with room for one more: a query's units are the confirmed literals and
 * not-lit after them.  Model i, of n + 1 bytes as cdcl_assignment gives
 * it, is models[i * (n + 1) ..], found by the query of literal tested[i]
 * (0 for the first search). */
typedef struct {
    int n, status, stopped;
    int *confirmed, num_confirmed;
    int *tested;
    unsigned char *models;
    long long num_models, tested_cap, models_cap;
} backbone;

void backbone_free(backbone *b)
{
    if (b) {
        free(b->confirmed);
        free(b->tested);
        free(b->models);
        free(b);
    }
}

/* Append the model of s, found by the query of literal `tested`, to b;
 * -1 when out of memory. */
static int keep_model(backbone *b, const cdcl_state *s, int tested)
{
    long long width = (long long)b->n + 1;
    int *t = grow(b->tested, &b->tested_cap, b->num_models + 1, sizeof *t);
    unsigned char *models;
    if (!t)
        return -1;
    b->tested = t;
    if (!(models = grow(b->models, &b->models_cap, (b->num_models + 1) * width, 1)))
        return -1;
    b->models = models;
    b->tested[b->num_models] = tested;
    cdcl_assignment(s, models + b->num_models++ * width);
    return 0;
}

/* One fresh search of the formula with the units confirmed[0 ..
 * num_units), as satlab.cdcl._search runs it extended by them: no clock, no
 * count cap, and no record kept (width limit 0).  A model is kept with
 * the literal `tested`.  Returns BUDGET, SAT, UNSAT or OUT_OF_MEMORY. */
static int query(backbone *b, int m, const int *off, const int *lits, const unsigned char *phases, int num_units,
                 int tested, long long conflict_limit)
{
    cdcl_state *s = new_state(b->n, m, off, lits, b->confirmed, num_units, phases);
    int code;
    if (!s)
        return OUT_OF_MEMORY;
    code = cdcl_solve(s, conflict_limit, HUGE_VAL, 0, LLONG_MAX);
    if (code == SAT && keep_model(b, s, tested) < 0)
        code = OUT_OF_MEMORY;
    cdcl_free(s);
    return code;
}

/* The backbone of the CSR formula by one fresh search per candidate, as
 * satlab.quality.compute_backbone's reference finds it (Janota, Lynce &
 * Marques-Silva, AI Commun. 2015): a first search gives the candidates,
 * the literals of its model; each candidate lit, in variable order, is
 * queried with the confirmed literals and not-lit as units.  lit is
 * confirmed when its query is unsatisfiable, and a model prunes every
 * candidate it falsifies.  Every search starts from the phases drawn once
 * from the seed's key[0 .. key_len) and spends at most conflict_limit
 * conflicts.  The handle is read with backbone_info and backbone_copy and
 * released with backbone_free; NULL when out of memory. */
backbone *cdcl_backbone(int n, int m, const int *off, const int *lits, const uint32_t *key, int key_len,
                        long long conflict_limit)
{
    backbone *b = calloc(1, sizeof *b);
    unsigned char *phases = draw_phases(n, key, key_len), *first = malloc((size_t)n + 1);
    unsigned char *candidate = calloc((size_t)n + 1, 1);
    size_t width = (size_t)n + 1;
    int v, u;
    if (!b || !phases || !first || !candidate || !(b->confirmed = malloc(width * sizeof *b->confirmed)))
        goto fail;
    b->n = n;
    b->status = query(b, m, off, lits, phases, 0, 0, conflict_limit);
    if (b->status == OUT_OF_MEMORY)
        goto fail;
    if (b->status == SAT) {
        memcpy(first, b->models, width);
        memset(candidate, 1, width);
    }
    for (v = 1; b->status == SAT && v <= n; v++) {
        int lit = first[v] ? v : -v;
        if (!candidate[v])
            continue;
        b->confirmed[b->num_confirmed] = -lit;
        switch (query(b, m, off, lits, phases, b->num_confirmed + 1, lit, conflict_limit)) {
        case UNSAT:
            b->confirmed[b->num_confirmed++] = lit;
            break;
        case SAT: {
            const unsigned char *model = b->models + (size_t)(b->num_models - 1) * width;
            for (u = v + 1; u <= n; u++)
                candidate[u] &= model[u] == first[u];
            break;
        }
        case BUDGET:
            b->status = BUDGET;
            b->stopped = lit;
            break;
        default:
            goto fail;
        }
    }
    free(phases);
    free(first);
    free(candidate);
    return b;
fail:
    free(phases);
    free(first);
    free(candidate);
    backbone_free(b);
    return NULL;
}

/* info gets status, stopped, the confirmed count and the model count. */
void backbone_info(const backbone *b, long long *info)
{
    info[0] = b->status;
    info[1] = b->stopped;
    info[2] = b->num_confirmed;
    info[3] = b->num_models;
}

/* Copy the confirmed literals, the tested literals and the models out. */
void backbone_copy(const backbone *b, int *confirmed, int *tested, unsigned char *models)
{
    if (b->num_confirmed)
        memcpy(confirmed, b->confirmed, (size_t)b->num_confirmed * sizeof *confirmed);
    if (b->num_models) {
        memcpy(tested, b->tested, (size_t)b->num_models * sizeof *tested);
        memcpy(models, b->models, (size_t)b->num_models * ((size_t)b->n + 1));
    }
}
