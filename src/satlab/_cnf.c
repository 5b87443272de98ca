/* Compiled DIMACS scan and emit, Formula index build and model check,
 * equal to the Python reference in satlab.cnf (the DIMACS reader of
 * parse_dimacs, the clause lines of emit_dimacs, canonical_clause plus
 * _index_clauses in Formula.__init__, and _eval_formula_python), and the
 * duplicate check of satlab.pipeline.augment (_augment_python).
 *
 * Clauses are flat: clause c holds lits[off[c] .. off[c+1]), DIMACS-signed
 * ints.  The occurrence index is Formula's: the ids of the clauses holding
 * literal l are occ[occ_off[i] .. occ_off[i+1]) with i = lit_index(l) =
 * 2*|l| + (l < 0), in clause-id order; it, the canonical sort and the
 * clause set are _clauses.h's.
 */

#include <limits.h>
#include <stdlib.h>
#include <string.h>

#include "_clauses.h"

enum { OK = 0, OUT_OF_RANGE = 1 };
enum { DEFER = 1 };

/* Index of the first literal of a[0 .. w) outside 1..n in absolute value, or -1. */
static int first_out_of_range(const int *a, int w, int n)
{
    for (int i = 0; i < w; i++)
        if (a[i] == 0 || a[i] < -n || a[i] > n)
            return i;
    return -1;
}

/* Canonicalise clause lits[start .. end) into lits[w ..) (w <= start):
 * sort by (|l|, l) and drop repeats; returns its width. */
static int canonicalise(int *lits, int start, int end, int w)
{
    int width = 0;
    sort_lits(lits + start, end - start);
    for (int i = start; i < end; i++)
        if (width == 0 || lits[i] != lits[w + width - 1])
            lits[w + width++] = lits[i];
    return width;
}

/* Canonicalise the m clauses in place (sort by (|l|, l) and drop
 * repeats, rewriting off) and check them; then fill the occurrence index
 * by counting sort.  occ_off holds 2n + 3 zeros and occ room for off[m]
 * ids.  On error, info[0] is the clause id and info[1] the literal
 * (OUT_OF_RANGE), checked in the order _index_clauses checks them.  On
 * success, info[2] is the longest occurrence list, info[3] the widest
 * clause and info[4] 1 when some clause is empty, else 0.  A tautology is
 * indexed as any clause, under both of its literals.
 */
int formula_index(int n, long long m, int *off, int *lits, int *occ_off, int *occ, long long *info)
{
    int w = 0, max_width = 0, empty = 0;
    for (long long c = 0; c < m; c++) {
        /* compact into lits[w ..): w <= off[c], and each literal is read
         * before its slot is written */
        int width = canonicalise(lits, off[c], off[c + 1], w);
        int *clause = lits + w;
        int bad = first_out_of_range(clause, width, n);
        off[c] = w;
        w += width;
        if (bad >= 0) {
            info[0] = c;
            info[1] = clause[bad];
            return OUT_OF_RANGE;
        }
        if (width > max_width)
            max_width = width;
        empty |= width == 0;
    }
    off[m] = w;

    /* counting sort: the count of list i goes to occ_off[i + 2], so that
     * after the prefix sums occ_off[i + 1] is where list i starts, and
     * filling advances it to where list i + 1 starts.  The last list's
     * count is never needed (it ends at off[m]). */
    int lists = 2 * n + 2, total = off[m], max_occ = 0;
    for (int i = 0; i < total; i++) {
        int slot = lit_index(lits[i]);
        if (slot + 2 <= lists)
            occ_off[slot + 2]++;
    }
    for (int i = 2; i <= lists; i++)
        occ_off[i] += occ_off[i - 1];
    for (long long c = 0; c < m; c++)
        for (int i = off[c]; i < off[c + 1]; i++)
            occ[occ_off[lit_index(lits[i]) + 1]++] = (int)c;
    for (int i = 0; i < lists; i++)
        if (occ_off[i + 1] - occ_off[i] > max_occ)
            max_occ = occ_off[i + 1] - occ_off[i];
    info[2] = max_occ;
    info[3] = max_width;
    info[4] = empty;
    return OK;
}

/* 1 when the formula (f_off, f_lits and its occurrence index) holds the
 * canonical clause a[0 .. w), w >= 1 and every literal in 1..n in absolute
 * value: it is looked for among the clauses of its rarest literal. */
static int formula_holds(const int *f_off, const int *f_lits, const int *occ_off, const int *occ,
                         const int *a, int w)
{
    int rarest = lit_index(a[0]);
    for (int i = 1; i < w; i++)
        if (occ_off[lit_index(a[i]) + 1] - occ_off[lit_index(a[i])] < occ_off[rarest + 1] - occ_off[rarest])
            rarest = lit_index(a[i]);
    for (int j = occ_off[rarest]; j < occ_off[rarest + 1]; j++) {
        int c = occ[j];
        if (f_off[c + 1] - f_off[c] == w && !memcmp(f_lits + f_off[c], a, (size_t)w * sizeof *a))
            return 1;
    }
    return 0;
}

/* The duplicate check of augment: of the k additions, clause c at
 * lits[off[c] - off[0] .. off[c + 1] - off[0]), keep the first with each
 * literal set, unless the formula (n variables, canonical clauses
 * f_off/f_lits, occurrence index occ_off/occ, `empty` when it holds the
 * empty clause) holds that set.  The kept additions, canonical and in
 * order, are compacted to the front of off and lits, off still counted
 * from off[0]; a clause with a literal outside 1..n is never held, and is
 * kept for formula_index to reject.  Returns the number kept, or -1 when
 * out of memory. */
long long augment_keep(int n, const int *f_off, const int *f_lits, const int *occ_off, const int *occ,
                       int empty, long long k, int *off, int *lits)
{
    clause_set seen;
    long long kept = 0;
    int base = off[0], start = 0, w = 0;
    if (init_set(&seen) < 0) {
        free_set(&seen);
        return -1;
    }
    for (long long c = 0; c < k; c++) {
        int end = off[c + 1] - base; /* read before off[kept + 1], kept <= c, is written */
        int width = canonicalise(lits, start, end, w), added;
        start = end;
        if ((added = add(&seen, lits + w, width)) < 0) {
            free_set(&seen);
            return -1;
        }
        if (!added || (width == 0 && empty)
            || (width > 0 && first_out_of_range(lits + w, width, n) < 0
                && formula_holds(f_off, f_lits, occ_off, occ, lits + w, width)))
            continue;
        w += width;
        off[++kept] = base + w;
    }
    free_set(&seen);
    return kept;
}

static int blank(char ch)
{
    return ch == ' ' || ch == '\t';
}

static int digit(char ch)
{
    return ch >= '0' && ch <= '9';
}

/* An unsigned count of at most 18 digits at *p, then a blank or the end. */
static int read_count(const char **p, const char *end, long long *out)
{
    const char *a = *p;
    long long v = 0;
    int digits = 0;
    for (; a < end && digit(*a); a++, digits++)
        v = 10 * v + (*a - '0');
    if (digits == 0 || digits > 18 || (a < end && !blank(*a)))
        return DEFER;
    while (a < end && blank(*a))
        a++;
    *p = a;
    *out = v;
    return OK;
}

/* `p cnf N M`, tokens separated by blanks; N within the int32 index. */
static int read_header(const char *a, const char *end, long long *n, long long *declared)
{
    if (end - a < 2 || a[0] != 'p' || !blank(a[1]))
        return DEFER;
    for (a++; a < end && blank(*a); a++)
        ;
    if (end - a < 4 || memcmp(a, "cnf", 3) != 0 || !blank(a[3]))
        return DEFER;
    for (a += 3; a < end && blank(*a); a++)
        ;
    if (read_count(&a, end, n) || read_count(&a, end, declared) || a != end)
        return DEFER;
    return 2 * *n + 3 > INT_MAX ? DEFER : OK;
}

/* Scan ASCII DIMACS in a strict subset of what parse_dimacs reads: lines
 * end in '\n' and hold only tabs and printable ASCII; `c` comment lines,
 * one `p cnf N M` header, clause lines of [+-]?digits tokens separated
 * by blanks, and a `%` line that ends the clauses (dropping an open one).
 * Anything else, including every input the reference rejects or warns
 * about other than a clause-count mismatch, returns DEFER, and the
 * Python reader takes the whole input.
 *
 * One pass fills off and lits: off needs room for the clauses parsed
 * plus one, lits for the literals read (those of a dropped open clause
 * included); every token takes at least 2 bytes but the last, so
 * (len + 1) / 2 + 1 and (len + 1) / 2 ints are enough.  On success info
 * gets N, M, the clauses parsed and the literals read.
 */
int dimacs_scan(const char *text, long long len, long long *info, int *off, int *lits)
{
    const char *p = text, *end = text + len;
    long long n = -1, declared = 0, m = 0, nlits = 0, closed = 0;
    int ended = 0;
    off[0] = 0;
    while (p < end && !ended) {
        const char *a = p, *b = memchr(p, '\n', (size_t)(end - p));
        if (b == NULL)
            b = end;
        p = b < end ? b + 1 : end;
        for (const char *q = a; q < b; q++)
            if (*q != '\t' && (*q < 0x20 || *q > 0x7e))
                return DEFER;
        while (a < b && blank(*a))
            a++;
        while (b > a && blank(b[-1]))
            b--;
        if (a == b || *a == 'c')
            continue;
        if (*a == '%') {
            if (n < 0)
                return DEFER;
            ended = 1;
            continue;
        }
        if (*a == 'p') {
            if (n >= 0 || read_header(a, b, &n, &declared))
                return DEFER;
            continue;
        }
        if (n < 0)
            return DEFER;
        while (a < b) {
            int negative = *a == '-';
            long long v = 0;
            if (*a == '-' || *a == '+')
                a++;
            if (a == b || !digit(*a))
                return DEFER;
            for (; a < b && digit(*a); a++)
                if ((v = 10 * v + (*a - '0')) > n)
                    return DEFER;
            if (a < b && !blank(*a))
                return DEFER;
            while (a < b && blank(*a))
                a++;
            if (v == 0) {
                closed = nlits;
                off[++m] = (int)nlits;
            } else {
                if (nlits == INT_MAX)
                    return DEFER; /* offsets are int32 */
                lits[nlits++] = (int)(negative ? -v : v);
            }
        }
    }
    /* the reference decodes the whole input before reading it */
    for (; p < end; p++)
        if ((unsigned char)*p > 0x7f)
            return DEFER;
    if (n < 0 || (closed != nlits && !ended))
        return DEFER;
    info[0] = n;
    info[1] = declared;
    info[2] = m;
    info[3] = nlits;
    return OK;
}

/* The decimal digits of v, with a leading '-' when negative, at p; returns
 * the end. */
static char *write_int(char *p, int v)
{
    char digits[10];
    unsigned u = v < 0 ? 0U - (unsigned)v : (unsigned)v;
    int count = 0;
    if (v < 0)
        *p++ = '-';
    do
        digits[count++] = (char)('0' + u % 10);
    while ((u /= 10) != 0);
    while (count > 0)
        *p++ = digits[--count];
    return p;
}

/* The clause lines of emit_dimacs, `l1 l2 ... 0\n` for each of the m
 * clauses (` 0\n` for an empty one), written to out; returns the bytes
 * written.  out has room for 12 bytes per literal and 3 per clause.
 */
long long dimacs_emit(long long m, const int *off, const int *lits, char *out)
{
    char *p = out;
    for (long long c = 0; c < m; c++) {
        for (int i = off[c]; i < off[c + 1]; i++) {
            if (i > off[c])
                *p++ = ' ';
            p = write_int(p, lits[i]);
        }
        memcpy(p, " 0\n", 3);
        p += 3;
    }
    return p - out;
}

/* 1 when each of the m clauses off/lits has a true literal under values
 * (index v for variable v, nonzero meaning true), else 0. */
int formula_satisfied(long long m, const int *off, const int *lits, const unsigned char *values)
{
    for (long long c = 0; c < m; c++) {
        int sat = 0; /* without an early exit: a literal's sign is a coin flip to a branch predictor */
        for (int i = off[c]; i < off[c + 1]; i++)
            sat |= (values[abs(lits[i])] != 0) ^ (lits[i] < 0);
        if (!sat)
            return 0;
    }
    return 1;
}
