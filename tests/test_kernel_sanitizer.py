"""The kernel library under AddressSanitizer and UndefinedBehaviorSanitizer.

A small C driver calls the CDCL and resolution entry points and the
duplicate check of `augment` on fixed flat formula arrays, far enough
that the clause sets grow and rehash and the learned DB is reduced, and
frees everything.  One of its two CDCL searches runs over more than
2,000 input clauses (the clause arena and the pre-sized watch lists)
past its first DB reduction.  It computes a backbone in one call to each
of its three endings (every candidate decided, an unsatisfiable formula,
a query out of conflicts), whose queries pass their literals to a
search as unit clauses, and reads each pool in tuple order through its
permutation.  It runs probSAT for a flip budget on a k=3 formula, on a
k=7 formula at n = 64, where the XOR of a clause's true variables indexes
the last of the 128 break counters, on the formula with no variables,
whose literal and occurrence arrays are NULL, and on a formula with an
empty clause, which gets no flip, and generates clauses with seed keys of
1 and 7 words on both branches of `random.sample`.  Built with the five C
files under `-fsanitize=address,undefined -fno-sanitize-recover=all` and
`-Wall -Wextra -Werror`, so that an unused helper or a sign mismatch
fails too, it must exit 0 with nothing on stderr (LeakSanitizer reports a
leak there), and print what the library loaded by `satlab._native` gives
for the same calls.  The driver declares each entry point by hand; with
GCC it is built with link-time optimisation, which compares every
declaration with its definition, and a mismatch fails the build.
"""

import math
import os
import random
import subprocess
from array import array
from collections import Counter

import pytest

from satlab import _native
from satlab.cdcl import BUDGET, STATUS_CODES, MiningBudget, cdcl_solve_and_mine
from satlab.cnf import Formula, _flatten
from satlab.generators import GenSpec, gen_planted, gen_uniform
from satlab.pipeline import augment
from satlab.quality import BackboneBudgetError, FormulaUnsatisfiableError, _backbone_with_kernel, compute_backbone
from satlab.resolution import level1_resolvents, level2_resolvents, ternary_saturate
from satlab.sls import FLIPS_EXHAUSTED, SOLVED, default_scoring_for, probsat_run

SANITIZE = ("-O1", "-g", "-fno-omit-frame-pointer", "-ffp-contract=off",
            "-fsanitize=address,undefined", "-fno-sanitize-recover=all", "-Wall", "-Wextra", "-Werror")
# GCC's link-time optimiser reports a declaration whose type differs from the definition's
GCC_LTO = ("-flto", "-Werror=lto-type-mismatch")
ENV = {**os.environ, "ASAN_OPTIONS": "detect_leaks=1", "UBSAN_OPTIONS": "print_stacktrace=1"}

# cap 2,500 distinct clauses: past the first DB reduction (2,000 learned
# clauses) and past 512 distinct ones, where the set's table doubles
CDCL_SEED, CDCL_BUDGET = 1, MiningBudget(1e9, 4_000, width_limit=60, count_cap=2_500, early_stop=True)
# 2,045 input clauses, whose every learned clause is recorded, so the
# records show the reduction
BIG_SEED, BIG_BUDGET = 2, MiningBudget(1e9, 2_400, width_limit=10**6)
# a backbone run to its end on a planted formula, and on the same formula
# out of conflicts in a query after one literal is confirmed; then an
# unsatisfiable formula, whose first search learns clauses
BACKBONE_SEED, BACKBONE_LIMIT = 1, 2
BACKBONE_SPEC = GenSpec(n=20, k=3, ratio=4.26, seed=1, bias=0.618)
NO_BACKBONE_SPEC = GenSpec(n=20, k=3, ratio=7.0, seed=3)
LEVEL1_WIDTH, LEVEL2_WIDTH, PAIR_BUDGET = 3, 4, 3_000
# more than 512 distinct additions: past the first doubling of augment's set
ADDITIONS, ADDITION_SEED = 1_500, 4
# a flip budget that ends the run on the n=480 formula before a model
SLS_FLIPS, SLS_SEED = 5_000, 3
# a budget-bound k=7 run at n = 64, where the XOR of a clause's true
# variables reaches 127, the last of probSAT's 128 break counters
TOP_SLOT_SPEC, TOP_SLOT_FLIPS = GenSpec(n=64, k=7, ratio=85.0, seed=2), 600
# (n, m, bias, planted, seed) at k=3: n <= 21 takes random.sample's pool
# branch, n > 21 its set branch; the seeds' keys have 1 and 7 words
GEN_SHORT_SEED, GEN_LONG_SEED = 5, 2**200 + 7
GEN_CASES = ((21, 30, 0.618, 1, GEN_SHORT_SEED), (21, 30, 1.0, 0, GEN_LONG_SEED),
             (22, 30, 0.618, 1, GEN_LONG_SEED), (60, 30, 1.0, 0, GEN_SHORT_SEED))

DRIVER = r"""
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

void *cdcl_new(int n, int m, const int *off, const int *lits, const uint32_t *key, int key_len);
int cdcl_solve(void *s, long long conflict_limit, double wall_seconds, long long width_limit, long long count_cap);
void cdcl_info(const void *s, long long *info);
void cdcl_copy(const void *s, long long *off, long long *index, int *lits, unsigned char *model);
void cdcl_free(void *s);
void *cdcl_backbone(int n, int m, const int *off, const int *lits, const uint32_t *key, int key_len,
                    long long conflict_limit);
void backbone_info(const void *b, long long *info);
void backbone_copy(const void *b, int *confirmed, int *tested, unsigned char *models);
void backbone_free(void *b);
void *level1_pool(int n, int m, const int *off, const int *lits, int max_width);
void *level2_pool(int n, int m, const int *off, const int *lits, int max_width, long long pair_budget);
void *ternary_pool(int n, int m, const int *off, const int *lits);
void pool_info(const void *p, long long *info);
void pool_copy(const void *p, long long *counts, int *lits, long long *order);
void pool_free(void *p);
long long augment_keep(int n, const int *f_off, const int *f_lits, const int *occ_off, const int *occ,
                       int empty, long long k, int *off, int *lits);
long long probsat_solve(int n, int m, const int *off, const int *lits, const int *occ_off, const int *occ,
                        const double *table, const uint32_t *key, int key_len, long long max_flips,
                        double wall_seconds, unsigned char *assign, int *falsified);
int gen_clauses(int n, int k, long long m, int use_pool, double bias, unsigned char *hidden,
                const uint32_t *key, int key_len, int *off, int *lits);

static const int cdcl_off[] = {@CDCL_OFF@}, cdcl_lits[] = {@CDCL_LITS@};
static const uint32_t key[] = {@KEY@};
static const int big_off[] = {@BIG_OFF@}, big_lits[] = {@BIG_LITS@};
static const uint32_t big_key[] = {@BIG_KEY@};
static const int bb_off[] = {@BB_OFF@}, bb_lits[] = {@BB_LITS@};
static const int unsat_off[] = {@UNSAT_OFF@}, unsat_lits[] = {@UNSAT_LITS@};
static const uint32_t bb_key[] = {@BB_KEY@};
static const int res_off[] = {@RES_OFF@}, res_lits[] = {@RES_LITS@};
static const int res_occ_off[] = {@RES_OCC_OFF@}, res_occ[] = {@RES_OCC@};
static int add_off[] = {@ADD_OFF@}, add_lits[] = {@ADD_LITS@};
static const int big_occ_off[] = {@BIG_OCC_OFF@}, big_occ[] = {@BIG_OCC@};
static const double big_table[] = {@BIG_TABLE@};
static const uint32_t sls_key[] = {@SLS_KEY@};
static const int top_off[] = {@TOP_OFF@}, top_lits[] = {@TOP_LITS@};
static const int top_occ_off[] = {@TOP_OCC_OFF@}, top_occ[] = {@TOP_OCC@};
static const double top_table[] = {@TOP_TABLE@};
static const int none_off[] = {0}, none_occ_off[] = {0, 0, 0}; /* n = 0, m = 0 */
static const double none_table[] = {@NONE_TABLE@};
static const int empty_off[] = {@EMPTY_OFF@}, empty_lits[] = {@EMPTY_LITS@};
static const int empty_occ_off[] = {@EMPTY_OCC_OFF@}, empty_occ[] = {@EMPTY_OCC@};
static const double empty_table[] = {@EMPTY_TABLE@};
static const uint32_t short_key[] = {@SHORT_KEY@}, long_key[] = {@LONG_KEY@};

/* Search, copy the records and the assignment out, print the status,
 * conflicts, records and record literals, and free the state; 1 when out
 * of memory. */
static int mine(int n, int m, const int *off, const int *lits, const uint32_t *key, int key_len, long long limit,
                long long width, long long cap)
{
    void *s = cdcl_new(n, m, off, lits, key, key_len);
    long long info[3], *roff, *index;
    int *rlits, code;
    unsigned char *model;
    if (!s)
        return 1;
    code = cdcl_solve(s, limit, 1e9, width, cap);
    cdcl_info(s, info);
    roff = malloc((size_t)(info[1] + 1) * sizeof *roff);
    index = malloc((size_t)(info[1] + 1) * sizeof *index);
    rlits = malloc((size_t)(info[2] + 1) * sizeof *rlits);
    model = malloc((size_t)n + 1);
    if (code < 0 || !roff || !index || !rlits || !model)
        return 1;
    cdcl_copy(s, roff, index, rlits, model);
    printf("%d %lld %lld %lld\n", code, info[0], info[1], roff[info[1]]);
    free(roff);
    free(index);
    free(rlits);
    free(model);
    cdcl_free(s);
    return 0;
}

/* Compute a backbone; print its status, stopped literal, confirmed and
 * model counts, then the confirmed literals, the tested literals and the
 * models' bytes, and free it; 1 when out of memory. */
static int backbone(int n, int m, const int *off, const int *lits, long long limit)
{
    void *b = cdcl_backbone(n, m, off, lits, bb_key, @BB_KEY_LEN@, limit);
    long long info[4], i;
    int *confirmed, *tested;
    unsigned char *models;
    if (!b)
        return 1;
    backbone_info(b, info);
    confirmed = malloc((size_t)(info[2] + 1) * sizeof *confirmed);
    tested = malloc((size_t)(info[3] + 1) * sizeof *tested);
    models = malloc((size_t)(info[3] * (n + 1) + 1));
    if (!confirmed || !tested || !models)
        return 1;
    backbone_copy(b, confirmed, tested, models);
    printf("%lld %lld %lld %lld\n", info[0], info[1], info[2], info[3]);
    for (i = 0; i < info[2]; i++)
        printf("%s%d", i ? " " : "", confirmed[i]);
    printf("\n");
    for (i = 0; i < info[3]; i++)
        printf("%s%d", i ? " " : "", tested[i]);
    printf("\n");
    for (i = 0; i < info[3] * (n + 1); i++)
        putchar('0' + models[i]);
    putchar('\n');
    free(models);
    free(tested);
    free(confirmed);
    backbone_free(b);
    return 0;
}

/* Print the pool's clause counts by width, then its clauses in tuple
 * order, `l1 l2 ... 0` each, then free it; 1 when NULL. */
static int print_pool(void *p, int max_width)
{
    long long info[2], size, *counts = malloc((size_t)(max_width + 1) * sizeof *counts), *order, *start, i;
    int *lits, w;
    if (!p || !counts)
        return 1;
    pool_info(p, info);
    size = info[0];
    lits = malloc((size_t)(info[1] + 1) * sizeof *lits);
    order = malloc((size_t)(size + 1) * sizeof *order);
    start = malloc((size_t)(size + 1) * sizeof *start); /* grouped clause c is lits[start[c] .. start[c + 1]) */
    if (!lits || !order || !start)
        return 1;
    pool_copy(p, counts, lits, order);
    start[0] = 0;
    for (w = 0, i = 0; w <= max_width; w++)
        for (long long c = 0; c < counts[w]; c++, i++)
            start[i + 1] = start[i] + w;
    for (w = 0; w <= max_width; w++)
        printf("%s%lld", w ? " " : "", counts[w]);
    printf("\n");
    for (i = 0; i < size; i++) {
        for (long long j = start[order[i]]; j < start[order[i] + 1]; j++)
            printf("%d ", lits[j]);
        printf("0%s", i + 1 < size ? " " : "");
    }
    printf("\n");
    free(start);
    free(order);
    free(lits);
    free(counts);
    pool_free(p);
    return 0;
}

/* Run probSAT for at most `flips` flips and no wall limit; print the
 * flips done, the falsified count and the assignment's bytes; 1 when out
 * of memory. */
static int walk(int n, int m, const int *off, const int *lits, const int *occ_off, const int *occ,
                const double *table, const uint32_t *key, int key_len, long long flips)
{
    unsigned char *assign = malloc((size_t)n + 1);
    int falsified;
    if (!assign)
        return 1;
    flips = probsat_solve(n, m, off, lits, occ_off, occ, table, key, key_len, flips, INFINITY, assign, &falsified);
    if (flips < 0)
        return 1;
    printf("%lld %d ", flips, falsified);
    for (int v = 0; v <= n; v++)
        putchar('0' + assign[v]);
    putchar('\n');
    free(assign);
    return 0;
}

/* Generate m clauses of width 3; print the hidden assignment's bytes
 * (empty when not planted), then the literals; 1 when out of memory. */
static int gen(int n, long long m, int use_pool, double bias, int planted, const uint32_t *key, int key_len)
{
    unsigned char *hidden = calloc((size_t)n + 1, 1);
    int *off = malloc((size_t)(m + 1) * sizeof *off), *lits = malloc((size_t)(3 * m + 1) * sizeof *lits);
    if (!hidden || !off || !lits || gen_clauses(n, 3, m, use_pool, bias, planted ? hidden : NULL, key, key_len,
                                                off, lits))
        return 1;
    for (int v = 0; planted && v <= n; v++)
        putchar('0' + hidden[v]);
    putchar('\n');
    for (long long i = 0; i < off[m]; i++)
        printf("%s%d", i ? " " : "", lits[i]);
    putchar('\n');
    free(lits);
    free(off);
    free(hidden);
    return 0;
}

int main(void)
{
    long long r;
    if (mine(@CDCL_N@, @CDCL_M@, cdcl_off, cdcl_lits, key, @KEY_LEN@, @LIMIT@, @WIDTH@, @CAP@)
        || mine(@BIG_N@, @BIG_M@, big_off, big_lits, big_key, @BIG_KEY_LEN@, @BIG_LIMIT@, @BIG_WIDTH@, @NO_LIMIT@))
        return 1;
    if (backbone(@BB_N@, @BB_M@, bb_off, bb_lits, @NO_LIMIT@)
        || backbone(@BB_N@, @BB_M@, bb_off, bb_lits, @BB_LIMIT@)
        || backbone(@UNSAT_N@, @UNSAT_M@, unsat_off, unsat_lits, @NO_LIMIT@))
        return 1;
    if (print_pool(level1_pool(@RES_N@, @RES_M@, res_off, res_lits, @L1@), @L1@)
        || print_pool(level2_pool(@RES_N@, @RES_M@, res_off, res_lits, @L2@, @PAIRS@), @L2@)
        || print_pool(ternary_pool(@RES_N@, @RES_M@, res_off, res_lits), 3))
        return 1;
    r = augment_keep(@RES_N@, res_off, res_lits, res_occ_off, res_occ, 0, @ADD_K@, add_off, add_lits);
    printf("%lld\n", r);
    for (long long i = 0; i < add_off[r] - add_off[0]; i++)
        printf("%s%d", i ? " " : "", add_lits[i]);
    printf("\n");
    if (walk(@BIG_N@, @BIG_M@, big_off, big_lits, big_occ_off, big_occ, big_table, sls_key, @SLS_KEY_LEN@,
             @SLS_FLIPS@)
        || walk(@TOP_N@, @TOP_M@, top_off, top_lits, top_occ_off, top_occ, top_table, sls_key, @SLS_KEY_LEN@,
                @TOP_FLIPS@)
        || walk(0, 0, none_off, NULL, none_occ_off, NULL, none_table, sls_key, @SLS_KEY_LEN@, @SLS_FLIPS@)
        || walk(@EMPTY_N@, @EMPTY_M@, empty_off, empty_lits, empty_occ_off, empty_occ, empty_table, sls_key,
                @SLS_KEY_LEN@, @SLS_FLIPS@))
        return 1;
    if (@GEN_CALLS@)
        return 1;
    return 0;
}
"""


def _builds_and_runs(compiler, tmp_path) -> bool:
    """True when the sanitizers link and run here: a trivial program built
    with them exits 0 quietly."""
    probe = tmp_path / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    built = subprocess.run([compiler, *SANITIZE, "-o", str(tmp_path / "probe"), str(probe)], capture_output=True)
    if built.returncode:
        return False
    ran = subprocess.run([str(tmp_path / "probe")], capture_output=True, env=ENV)
    return ran.returncode == 0 and not ran.stderr


def _is_gcc(compiler) -> bool:
    """True when `compiler` is GCC, whose `--version` names its publisher."""
    version = subprocess.run([compiler, "--version"], capture_output=True, text=True)
    return "Free Software Foundation" in version.stdout


def _ints(values) -> str:
    return ", ".join(map(str, values))


def _width_counts(clauses, max_width) -> str:
    counts = Counter(map(len, clauses))
    return " ".join(str(counts[w]) for w in range(max_width + 1))


def _clause_lines(clauses) -> str:
    return " ".join(" ".join(map(str, (*clause, 0))) for clause in clauses)


def _search_line(status, records, conflicts) -> str:
    """The driver's line for a search: status code, conflicts, records, record literals."""
    return f"{STATUS_CODES.index(status)} {conflicts} {len(records)} {sum(len(r.clause) for r in records)}"


def _backbone_lines(lib, formula, limit) -> list[str]:
    """The driver's four lines for `cdcl_backbone`, from the loaded library:
    status, stopped literal and counts, the confirmed literals, the tested
    literals and the models' bytes."""
    status, stopped, confirmed, models = _backbone_with_kernel(lib, formula, limit, BACKBONE_SEED)
    return [f"{STATUS_CODES.index(status)} {stopped} {len(confirmed)} {len(models)}",
            " ".join(map(str, confirmed)), " ".join(str(lit) for lit, _ in models),
            "".join(str(byte) for _, model in models for byte in model)]


def _table(formula) -> array:
    """The score table `probsat_run` passes the kernel for `formula`."""
    return array("d", default_scoring_for(formula).table(formula.max_occurrences))


def _walk_line(lib, formula, flips, seed) -> str:
    """The driver's line for a probSAT run, from the loaded library: flips
    done, falsified clauses and the assignment's bytes."""
    key, table = _native.seed_key(seed), _table(formula)
    assign, falsified = _native.zeros("B", formula.num_vars + 1), _native.zeros("i", 1)
    done = lib.probsat_solve(*_native.flat(formula),
                             *map(_native.address, (formula.occ_offsets, formula.occ, table, key)), len(key),
                             flips, math.inf, _native.address(assign), _native.address(falsified))
    return f"{done} {falsified[0]} " + "".join(map(str, assign))


def _gen_lines(lib, n, m, bias, planted, seed) -> list[str]:
    """The driver's two lines for `gen_clauses` at k=3, from the loaded
    library: the hidden assignment's bytes (empty unless planted) and the
    literals in draw order."""
    key = _native.seed_key(seed)
    hidden, offsets, lits = _native.zeros("B", n + 1), _native.zeros("i", m + 1), _native.zeros("i", 3 * m)
    assert not lib.gen_clauses(n, 3, m, n <= 21, bias, _native.address(hidden) if planted else None,
                               _native.address(key), len(key), _native.address(offsets), _native.address(lits))
    return ["".join(map(str, hidden)) if planted else "", " ".join(map(str, lits))]


def _gen_call(n, m, bias, planted, seed) -> str:
    """The driver's call of `gen` for one of GEN_CASES."""
    key = "short_key" if seed == GEN_SHORT_SEED else "long_key"
    return f"gen({n}, {m}, {int(n <= 21)}, {bias!r}, {planted}, {key}, {len(_native.seed_key(seed))})"


def test_kernels_run_clean_under_the_sanitizers(tmp_path):
    compiler = _native._compiler()
    if compiler is None:
        pytest.skip("no C compiler on PATH")
    if not _builds_and_runs(compiler, tmp_path):
        pytest.skip("no AddressSanitizer/UndefinedBehaviorSanitizer runtime for this compiler")
    k5 = gen_uniform(GenSpec(n=60, k=5, ratio=21.1, seed=1))
    k3 = gen_uniform(GenSpec(n=20, k=3, ratio=4.26, seed=3))
    big = gen_uniform(GenSpec(n=480, k=3, ratio=4.26, seed=5))
    # a tautology and a repeated clause, which the pools skip and merge
    res = Formula(k3.num_vars, [*k3.clauses, (1, -1, 2), k3.clauses[0]])
    # random clauses of widths 1-4 in the order given, many repeated, and some of res's
    rng = random.Random(ADDITION_SEED)
    additions = [rng.choice(res.clauses)[::-1] if rng.random() < 0.1 else
                 [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 21), rng.randint(1, 4))]
                 for _ in range(ADDITIONS)]
    additions += additions[:300]
    added = _flatten(additions, res.offsets[-1])
    none = Formula(0, [])
    empty = Formula(2, [(), (1,)])
    top, _ = gen_planted(TOP_SLOT_SPEC)
    planted, _ = gen_planted(BACKBONE_SPEC)
    no_backbone = gen_uniform(NO_BACKBONE_SPEC)
    fields = {
        "CDCL_N": k5.num_vars, "CDCL_M": k5.num_clauses,
        "CDCL_OFF": _ints(k5.offsets), "CDCL_LITS": _ints(k5.literals),
        "KEY": _ints(_native.seed_key(CDCL_SEED)), "KEY_LEN": len(_native.seed_key(CDCL_SEED)),
        "LIMIT": CDCL_BUDGET.conflict_limit, "WIDTH": CDCL_BUDGET.width_limit, "CAP": CDCL_BUDGET.count_cap,
        "BIG_N": big.num_vars, "BIG_M": big.num_clauses,
        "BIG_OFF": _ints(big.offsets), "BIG_LITS": _ints(big.literals),
        "BIG_KEY": _ints(_native.seed_key(BIG_SEED)), "BIG_KEY_LEN": len(_native.seed_key(BIG_SEED)),
        "BIG_LIMIT": BIG_BUDGET.conflict_limit, "BIG_WIDTH": BIG_BUDGET.width_limit, "NO_LIMIT": "1LL << 62",
        "BB_N": planted.num_vars, "BB_M": planted.num_clauses,
        "BB_OFF": _ints(planted.offsets), "BB_LITS": _ints(planted.literals), "BB_LIMIT": BACKBONE_LIMIT,
        "BB_KEY": _ints(_native.seed_key(BACKBONE_SEED)), "BB_KEY_LEN": len(_native.seed_key(BACKBONE_SEED)),
        "UNSAT_N": no_backbone.num_vars, "UNSAT_M": no_backbone.num_clauses,
        "UNSAT_OFF": _ints(no_backbone.offsets), "UNSAT_LITS": _ints(no_backbone.literals),
        "RES_N": res.num_vars, "RES_M": res.num_clauses,
        "RES_OFF": _ints(res.offsets), "RES_LITS": _ints(res.literals),
        "L1": LEVEL1_WIDTH, "L2": LEVEL2_WIDTH, "PAIRS": PAIR_BUDGET,
        "RES_OCC_OFF": _ints(res.occ_offsets), "RES_OCC": _ints(res.occ),
        "ADD_K": len(additions), "ADD_OFF": _ints(added[0]), "ADD_LITS": _ints(added[1]),
        "BIG_OCC_OFF": _ints(big.occ_offsets), "BIG_OCC": _ints(big.occ),
        "BIG_TABLE": ", ".join(map(float.hex, _table(big))), "NONE_TABLE": ", ".join(map(float.hex, _table(none))),
        "SLS_KEY": _ints(_native.seed_key(SLS_SEED)), "SLS_KEY_LEN": len(_native.seed_key(SLS_SEED)),
        "SLS_FLIPS": SLS_FLIPS,
        "TOP_N": top.num_vars, "TOP_M": top.num_clauses, "TOP_OFF": _ints(top.offsets),
        "TOP_LITS": _ints(top.literals), "TOP_OCC_OFF": _ints(top.occ_offsets), "TOP_OCC": _ints(top.occ),
        "TOP_TABLE": ", ".join(map(float.hex, _table(top))), "TOP_FLIPS": TOP_SLOT_FLIPS,
        "EMPTY_N": empty.num_vars, "EMPTY_M": empty.num_clauses, "EMPTY_OFF": _ints(empty.offsets),
        "EMPTY_LITS": _ints(empty.literals), "EMPTY_OCC_OFF": _ints(empty.occ_offsets),
        "EMPTY_OCC": _ints(empty.occ), "EMPTY_TABLE": ", ".join(map(float.hex, _table(empty))),
        "SHORT_KEY": _ints(_native.seed_key(GEN_SHORT_SEED)), "LONG_KEY": _ints(_native.seed_key(GEN_LONG_SEED)),
        "GEN_CALLS": "\n        || ".join(_gen_call(*case) for case in GEN_CASES),
    }
    source = DRIVER
    for name, value in fields.items():
        source = source.replace(f"@{name}@", str(value))
    driver = tmp_path / "driver.c"
    driver.write_text(source)
    binary = tmp_path / "driver"
    lto = GCC_LTO if _is_gcc(compiler) else ()
    built = subprocess.run([compiler, *SANITIZE, *lto, "-o", str(binary), str(driver),
                            *_native._c_files(_native._KERNEL_SOURCES), *_native._KERNEL_LIBS],
                           capture_output=True, text=True)
    assert built.returncode == 0, built.stderr
    ran = subprocess.run([str(binary)], capture_output=True, text=True, env=ENV, timeout=300)
    assert ran.returncode == 0 and ran.stderr == "", ran.stderr

    mined = cdcl_solve_and_mine(k5, CDCL_BUDGET, CDCL_SEED)
    assert mined.status == BUDGET and 2_000 < mined.conflicts < CDCL_BUDGET.conflict_limit
    assert len(mined.learned) == CDCL_BUDGET.count_cap
    mined_big = cdcl_solve_and_mine(big, BIG_BUDGET, BIG_SEED)
    assert big.num_clauses > 2_000 and (mined_big.status, mined_big.conflicts) == (BUDGET, BIG_BUDGET.conflict_limit)
    # a learned clause of width >= 2 goes into the DB: more than the reduce cap
    # of input clauses, with one to spare, means a DB reduction
    assert sum(len(r.clause) >= 2 for r in mined_big.records) > big.num_clauses + 1
    # the three backbone endings, as compute_backbone reports them
    whole = compute_backbone(planted, BACKBONE_SEED)
    with pytest.raises(BackboneBudgetError) as ran_out:
        compute_backbone(planted, BACKBONE_SEED, BACKBONE_LIMIT)
    assert ran_out.value.confirmed and ran_out.value.confirmed <= whole
    with pytest.raises(FormulaUnsatisfiableError):
        compute_backbone(no_backbone, BACKBONE_SEED)
    unbounded = level2_resolvents(res, LEVEL2_WIDTH, 10**9)
    level2 = level2_resolvents(res, LEVEL2_WIDTH, PAIR_BUDGET)
    assert len(level2) < len(unbounded)  # the pair budget binds
    level1 = level1_resolvents(res, LEVEL1_WIDTH)
    augmented = augment(res, additions)
    assert len(set(map(frozenset, additions))) > 512
    lib = _native.load()
    expected = [
        _search_line(mined.status, mined.records, mined.conflicts),
        _search_line(mined_big.status, mined_big.records, mined_big.conflicts),
        *_backbone_lines(lib, planted, None), *_backbone_lines(lib, planted, BACKBONE_LIMIT),
        *_backbone_lines(lib, no_backbone, None),
        _width_counts(level1.clauses, LEVEL1_WIDTH), _clause_lines(level1.clauses),
        _width_counts(level2.clauses, LEVEL2_WIDTH), _clause_lines(level2.clauses),
        _width_counts(ternary_saturate(res), 3), _clause_lines(ternary_saturate(res)),
        str(augmented.num_clauses - res.num_clauses),
        " ".join(map(str, augmented.literals[res.offsets[-1]:])),
    ]
    # the same probSAT runs through probsat_run: two budget-bound, one solved with no flip, one unsolvable
    walked = probsat_run(big, SLS_FLIPS, SLS_SEED)
    assert (walked.status, walked.flips_used) == (FLIPS_EXHAUSTED, SLS_FLIPS)
    walked = probsat_run(top, TOP_SLOT_FLIPS, SLS_SEED)
    assert (walked.status, walked.flips_used) == (FLIPS_EXHAUSTED, TOP_SLOT_FLIPS)
    walked = probsat_run(none, SLS_FLIPS, SLS_SEED)
    assert (walked.status, walked.flips_used, walked.model) == (SOLVED, 0, [False])
    walked = probsat_run(empty, SLS_FLIPS, SLS_SEED)
    assert (walked.status, walked.flips_used) == (FLIPS_EXHAUSTED, 0)
    expected += [_walk_line(lib, big, SLS_FLIPS, SLS_SEED), _walk_line(lib, top, TOP_SLOT_FLIPS, SLS_SEED),
                 _walk_line(lib, none, SLS_FLIPS, SLS_SEED), _walk_line(lib, empty, SLS_FLIPS, SLS_SEED)]
    assert sorted(len(_native.seed_key(seed)) for seed in (GEN_SHORT_SEED, GEN_LONG_SEED)) == [1, 7]
    for case in GEN_CASES:
        expected += _gen_lines(lib, *case)
    assert ran.stdout.splitlines() == expected
