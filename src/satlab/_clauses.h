/* The clause store of the kernels: the occurrence index of a literal, the
 * canonical literal order, one growth rule for arrays, and a set of
 * clauses held flat and found by hash.
 *
 * - lit_index(l) = 2*|l| + (l < 0) indexes per-literal arrays: Formula's
 *   occurrence lists, the CDCL values and watch lists.
 * - sort_lits puts a clause in canonical order, (|l|, l) as
 *   satlab.cnf.canonical_clause sorts it: -v just before v.
 * - grow doubles an array's capacity until it holds what is asked.
 * - A clause_set holds clauses flat, clause c at lits[off[c] ..
 *   off[c + 1]), in the order added.  push appends a clause, equal or not
 *   to one held, and leaves the table alone.  add appends it only when no
 *   equal clause was added; tally always appends it.  Both find equal
 *   clauses by hash and literals in an open-addressing table that indexes
 *   the first of each, and count those in `distinct`.  A set is filled
 *   with push alone or with add and tally.
 */

#ifndef SATLAB_CLAUSES_H
#define SATLAB_CLAUSES_H

#include <stdlib.h>
#include <string.h>

#define INSERTION_SORT_MAX 16

/* branch-free: literal signs are random, so a branch mispredicts */
static inline int lit_index(int lit)
{
    return 2 * abs(lit) + (lit < 0);
}

/* canonical order (|l|, l): -v sorts just before v */
static inline long long lit_key(int lit)
{
    long long l = lit;
    return l < 0 ? -2 * l : 2 * l + 1;
}

static inline int by_key(const void *a, const void *b)
{
    long long ka = lit_key(*(const int *)a), kb = lit_key(*(const int *)b);
    return (ka > kb) - (ka < kb);
}

static inline void sort_lits(int *a, int w)
{
    if (w > INSERTION_SORT_MAX) {
        qsort(a, (size_t)w, sizeof *a, by_key);
        return;
    }
    for (int i = 1; i < w; i++) {
        int x = a[i], j = i;
        long long kx = lit_key(x);
        for (; j > 0 && lit_key(a[j - 1]) > kx; j--)
            a[j] = a[j - 1];
        a[j] = x;
    }
}

/* The array `data`, with room for `*cap` items of `size` bytes, grown to
 * hold `need`: data itself, a larger block with *cap updated, or NULL
 * (data untouched) when out of memory. */
static inline void *grow(void *data, long long *cap, long long need, size_t size)
{
    long long c = *cap ? *cap : 4;
    void *out;
    if (need <= *cap)
        return data;
    while (c < need)
        c *= 2;
    if ((out = realloc(data, (size_t)c * size)) != NULL)
        *cap = c;
    return out;
}

typedef struct {
    long long count, distinct; /* clauses held, and those of them indexed: the first of each */
    long long *off; /* clause c is lits[off[c] .. off[c + 1]) */
    int *lits;
    unsigned long long *hash;   /* per clause */
    long long *slot, slot_cap;  /* clause ids by hash, open addressing, -1 empty */
    long long off_cap, lits_cap, hash_cap;
} clause_set;

static inline int width_of(const clause_set *s, long long c)
{
    return (int)(s->off[c + 1] - s->off[c]);
}

static inline const int *lits_of(const clause_set *s, long long c)
{
    return s->lits + s->off[c];
}

static inline unsigned long long hash_of(const int *lits, int width)
{
    unsigned long long h = 0x9e3779b97f4a7c15ULL ^ (unsigned long long)width;
    for (int i = 0; i < width; i++) {
        h = (h ^ (unsigned)lits[i]) * 0xff51afd7ed558ccdULL;
        h ^= h >> 32;
    }
    return h;
}

/* Append a clause, equal or not to one already held; -1 when out of memory. */
static inline int push(clause_set *s, const int *lits, int width, unsigned long long h)
{
    long long c = s->count, at = s->off[c];
    long long *off = grow(s->off, &s->off_cap, c + 2, sizeof *off);
    unsigned long long *hash;
    int *out;
    if (!off)
        return -1;
    s->off = off;
    if (!(hash = grow(s->hash, &s->hash_cap, c + 1, sizeof *hash)))
        return -1;
    s->hash = hash;
    if (!(out = grow(s->lits, &s->lits_cap, at + width, sizeof *out)))
        return -1;
    s->lits = out;
    if (width)
        memcpy(out + at, lits, (size_t)width * sizeof *out);
    s->off[c + 1] = at + width;
    s->hash[c] = h;
    s->count = c + 1;
    return 0;
}

/* The slot of the clause equal to `lits`, or the empty slot where it belongs. */
static inline long long find(const clause_set *s, const int *lits, int width, unsigned long long h)
{
    long long mask = s->slot_cap - 1, i, c;
    for (i = (long long)(h & (unsigned long long)mask); (c = s->slot[i]) >= 0; i = (i + 1) & mask)
        if (s->hash[c] == h && width_of(s, c) == width
            && (!width || !memcmp(lits_of(s, c), lits, (size_t)width * sizeof *lits)))
            break;
    return i;
}

/* Double the table (the first of each clause held is in it); -1 when out of memory. */
static inline int rehash(clause_set *s)
{
    long long cap = s->slot_cap ? 2 * s->slot_cap : 1024, i, j;
    long long *slot = malloc((size_t)cap * sizeof *slot);
    if (!slot)
        return -1;
    for (i = 0; i < cap; i++)
        slot[i] = -1;
    free(s->slot);
    s->slot = slot;
    s->slot_cap = cap;
    for (i = 0; i < s->count; i++)
        if (s->slot[j = find(s, lits_of(s, i), width_of(s, i), s->hash[i])] < 0)
            s->slot[j] = i;
    return 0;
}

/* Append a clause (never one of the set's own) when `always` is set or no
 * equal one is held, and index it when none is: 1 when indexed, 0 when an
 * equal one was held, -1 when out of memory. */
static inline int insert(clause_set *s, const int *lits, int width, int always)
{
    unsigned long long h = hash_of(lits, width);
    long long i;
    if (2 * (s->distinct + 1) > s->slot_cap && rehash(s) < 0)
        return -1;
    i = find(s, lits, width, h);
    if (s->slot[i] >= 0)
        return always && push(s, lits, width, h) < 0 ? -1 : 0;
    if (push(s, lits, width, h) < 0)
        return -1;
    s->slot[i] = s->count - 1;
    s->distinct++;
    return 1;
}

/* Add a clause unless an equal one is held: 1 when added, 0 when held,
 * -1 when out of memory. */
static inline int add(clause_set *s, const int *lits, int width)
{
    return insert(s, lits, width, 0);
}

/* Append a clause, equal or not to one held: 1 when it is the first of its
 * literals, 0 when an equal one was held, -1 when out of memory. */
static inline int tally(clause_set *s, const int *lits, int width)
{
    return insert(s, lits, width, 1);
}

/* An empty set; -1 when out of memory, and the set can then only be freed. */
static inline int init_set(clause_set *s)
{
    memset(s, 0, sizeof *s);
    s->off = grow(NULL, &s->off_cap, 2, sizeof *s->off);
    s->lits = grow(NULL, &s->lits_cap, 1, sizeof *s->lits);
    if (!s->off || !s->lits)
        return -1;
    s->off[0] = 0;
    return 0;
}

static inline void free_set(clause_set *s)
{
    free(s->off);
    free(s->lits);
    free(s->hash);
    free(s->slot);
}

#endif
