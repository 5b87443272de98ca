"""Stochastic local search core: break-only probSAT without restarts.

The solver walks over complete assignments.  Each step picks a falsified
clause uniformly at random, then flips one of its variables with
probability proportional to f(break(v)), where break(v) is the number of
clauses that are currently satisfied but would become falsified by
flipping v.  Two scoring functions are supported:

    poly:  f(b) = (epsilon + b) ** -cb
    exp:   f(b) = cb ** -b

Break counts are maintained incrementally.  Per clause we track the
number of satisfied literals and, when that number is exactly one, the
"critical" variable holding the clause; falsified clauses live in a
swap-remove registry with O(1) membership, insertion, and deletion.

`probsat_run` has two paths with one set of semantics:

- The compiled kernel (`_probsat.c`, built and loaded by `satlab._native`)
  runs in one call: it reads the formula's flat clause and occurrence
  arrays (`Formula.offsets`, `literals`, `occ_offsets` and `occ`), seeds
  the Mersenne Twister from the int seed as `random.Random(seed)` does,
  draws the start into a buffer of the caller's, and polls its own clock.
- `_probsat_python`, the flip loop over `SlsState` (which reads the same
  arrays through `Formula.occurrence`), is the readable reference.  It
  runs only without the library.

For equal arguments the two give bit-identical status, flip count and
model: the same random draws, the same registry order, the same
critical variables and the same floating-point sums.  Where the
reference rescans a clause for its critical variable, the kernel reads
the XOR of the variables of the clause's true literals, which it keeps
next to their count; whenever it is read, the count is 1 and the XOR is
the one variable the scan finds.  The differential tests in
`tests/test_sls_kernel.py` hold the two to equal results, and, for
budget-bound runs, to equal assignments after the last flip.
"""

from __future__ import annotations

import functools
import math
import random
import time
from array import array
from dataclasses import dataclass

from . import _native
from .cnf import Assignment, Formula, eval_formula, is_int_at_least

FLIPS_EXHAUSTED = "flips-exhausted"
SOLVED = "solved"

_POLL_FLIPS = 4096  # flips between wall-clock polls


@dataclass(frozen=True)
class ScoringFunction:
    """Break-value scoring: kind 'poly' uses epsilon and cb, 'exp' only cb."""

    kind: str
    cb: float
    epsilon: float = 0.9

    def __post_init__(self):
        if self.kind not in ("poly", "exp"):
            raise ValueError(f"unknown scoring kind {self.kind!r}")
        if not self.cb > 1.0:  # NaN fails too
            raise ValueError(f"cb must exceed 1, got {self.cb}")
        if self.kind == "poly" and not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    def value(self, break_count: int) -> float:
        if self.kind == "poly":
            return (self.epsilon + break_count) ** -self.cb
        return self.cb ** -break_count

    def table(self, max_break: int) -> list[float]:
        """Precomputed f(0..max_break); keeps pow() out of the flip loop."""
        return [self.value(b) for b in range(max_break + 1)]


def default_scoring(max_width: int) -> ScoringFunction:
    """Tuned parameters by clause width: poly for 3-SAT, exp otherwise."""
    if max_width == 3:
        return ScoringFunction("poly", cb=2.06, epsilon=0.9)
    if max_width == 5:
        return ScoringFunction("exp", cb=3.7)
    if max_width == 7:
        return ScoringFunction("exp", cb=5.4)
    return ScoringFunction("exp", cb=3.0)


def default_scoring_for(formula: Formula) -> ScoringFunction:
    """`default_scoring` of the formula's widest clause, or of width 3 when that is 0."""
    return default_scoring(formula.max_width or 3)


@dataclass
class RunResult:
    """Outcome of one local-search run.

    Determinism: (formula, seed, max_flips, scoring) fully determine
    status, flips_used, and model; wall_seconds is informational only.
    """

    status: str
    flips_used: int
    model: Assignment | None
    seed: int
    wall_seconds: float

    @property
    def solved(self) -> bool:
        return self.status == SOLVED


class SlsState:
    """Mutable per-run search state over an immutable formula.

    Single-owner, single-thread.  All counters can be re-derived from the
    assignment at any time; `check_consistency` does exactly that.
    """

    def __init__(
        self,
        formula: Formula,
        seed: int,
        scoring: ScoringFunction | None = None,
        assignment: Assignment | None = None,
    ):
        self.formula = formula
        self.scoring = scoring or default_scoring_for(formula)
        self.rng = random.Random(seed)
        self.seed = seed
        self.flips = 0
        n = formula.num_vars
        if assignment is None:
            self.assign: Assignment = [False] + [self.rng.random() < 0.5 for _ in range(n)]
        else:
            if len(assignment) != n + 1:
                raise ValueError("assignment length must be n+1 (index 0 unused)")
            self.assign = list(assignment)
        self.f_table = self.scoring.table(formula.max_occurrences)
        self.breaks = [0] * (n + 1)
        m = formula.num_clauses
        self.sat_counts = [0] * m
        self.crit_var = [0] * m
        self.falsified: list[int] = []
        self._where = [-1] * m
        assign = self.assign
        for cid, clause in enumerate(formula.clauses):
            sat = [l for l in clause if (assign[l] if l > 0 else not assign[-l])]
            self.sat_counts[cid] = len(sat)
            if not sat:
                self._where[cid] = len(self.falsified)
                self.falsified.append(cid)
            elif len(sat) == 1:
                v = abs(sat[0])
                self.crit_var[cid] = v
                self.breaks[v] += 1

    def break_count(self, v: int) -> int:
        return self.breaks[v]

    def flip(self, v: int) -> None:
        """Toggle variable v and update all counters incrementally."""
        assign = self.assign
        new_val = not assign[v]
        assign[v] = new_val
        lit_true = v if new_val else -v
        sat_counts = self.sat_counts
        crit_var = self.crit_var
        breaks = self.breaks
        falsified = self.falsified
        where = self._where
        occurrence = self.formula.occurrence
        for cid in occurrence(lit_true):
            c = sat_counts[cid]
            if c == 0:
                idx = where[cid]
                last = falsified[-1]
                falsified[idx] = last
                where[last] = idx
                falsified.pop()
                where[cid] = -1
                crit_var[cid] = v
                breaks[v] += 1
                sat_counts[cid] = 1
            else:
                if c == 1:
                    breaks[crit_var[cid]] -= 1
                sat_counts[cid] = c + 1
        clauses = self.formula.clauses
        for cid in occurrence(-lit_true):
            c = sat_counts[cid]
            if c == 1:
                sat_counts[cid] = 0
                breaks[v] -= 1
                where[cid] = len(falsified)
                falsified.append(cid)
            else:
                sat_counts[cid] = c - 1
                if c == 2:
                    for lit in clauses[cid]:
                        if assign[lit] if lit > 0 else not assign[-lit]:
                            w = abs(lit)
                            crit_var[cid] = w
                            breaks[w] += 1
                            break
        self.flips += 1

    def flip_distribution(self, clause_id: int) -> list[float]:
        """Normalized flip probabilities over the literals of a falsified clause."""
        if self.sat_counts[clause_id] != 0:
            raise ValueError(f"clause {clause_id} is not falsified")
        table = self.f_table
        weights = [table[self.breaks[abs(lit)]] for lit in self.formula.clauses[clause_id]]
        total = sum(weights)
        return [w / total for w in weights]

    def check_consistency(self) -> None:
        """Recompute every counter from scratch and compare; test support."""
        assign = self.assign
        breaks = [0] * (self.formula.num_vars + 1)
        falsified = set()
        for cid, clause in enumerate(self.formula.clauses):
            sat = [l for l in clause if (assign[l] if l > 0 else not assign[-l])]
            if len(sat) != self.sat_counts[cid]:
                raise AssertionError(f"sat count mismatch at clause {cid}")
            if not sat:
                falsified.add(cid)
            elif len(sat) == 1:
                breaks[abs(sat[0])] += 1
                if self.crit_var[cid] != abs(sat[0]):
                    raise AssertionError(f"critical variable mismatch at clause {cid}")
        if breaks != self.breaks:
            raise AssertionError("break counts diverged from scratch recomputation")
        if falsified != set(self.falsified):
            raise AssertionError("falsified registry diverged from scratch recomputation")


def probsat_run(
    formula: Formula,
    max_flips: int,
    seed: int,
    scoring: ScoringFunction | None = None,
    wall_limit: float | None = None,
) -> RunResult:
    """Run break-only local search until a model is found or budgets expire.

    The only public entry point: the kernel in one call, or the reference
    without the library, with the same status, `flips_used` and model.
    `max_flips` must be an integer >= 0 and `wall_limit` None or not NaN
    (0 or less stops at the first poll); the kernel is passed at most
    `_native.NO_LIMIT` flips, which no run spends, and infinity for no
    wall limit.

    Returned models are verified against the formula by `eval_formula`,
    after the clock stops: with the library loaded, its
    `formula_satisfied` reads the flat clause arrays, so a kernel run
    builds no clause tuple.  With `wall_limit` set, the clock is polled
    every 4096 flips from flip 0; wall-limited runs are therefore not
    flip-deterministic, flip-budgeted ones are.
    """
    if not is_int_at_least(max_flips, 0):
        raise ValueError(f"max_flips must be an integer >= 0, got {max_flips!r}")
    if wall_limit is not None and math.isnan(wall_limit):
        raise ValueError(f"wall_limit must be a number of seconds, got {wall_limit!r}")
    key = _native.seed_key(seed)
    kernel = _native.load()
    if kernel is None:
        return _probsat_python(formula, max_flips, seed, scoring, wall_limit)
    start = time.perf_counter()
    table = _score_table(scoring or default_scoring_for(formula), formula.max_occurrences)
    assign, falsified = _native.zeros("B", formula.num_vars + 1), _native.zeros("i", 1)
    flips_done = kernel.probsat_solve(*_native.flat(formula),
                                      *map(_native.address, (formula.occ_offsets, formula.occ, table, key)), len(key),
                                      _native.limit(max_flips), math.inf if wall_limit is None else wall_limit,
                                      _native.address(assign), _native.address(falsified))
    if flips_done < 0:
        raise MemoryError("cannot allocate the probSAT kernel state")
    model = None if falsified[0] else assign.tobytes()
    return _result(formula, model, flips_done, seed, time.perf_counter() - start)


@functools.lru_cache(maxsize=64)
def _score_table(scoring: ScoringFunction, max_break: int) -> array:
    """`scoring.table(max_break)` as the double array the kernel reads.
    Kept per (scoring, max_break): every run on one formula, or on formulas
    of one shape, reads the same table, and the kernel never writes it."""
    return array("d", scoring.table(max_break))


def _probsat_python(
    formula: Formula,
    max_flips: int,
    seed: int,
    scoring: ScoringFunction | None = None,
    wall_limit: float | None = None,
) -> RunResult:
    """The pure-Python flip loop over `SlsState`: the readable reference
    the kernel must match, and the fallback when it cannot be built."""
    start = time.perf_counter()
    if formula.has_empty_clause():
        return RunResult(FLIPS_EXHAUSTED, 0, None, seed, time.perf_counter() - start)
    state = SlsState(formula, seed, scoring)
    rng_random = state.rng.random
    falsified = state.falsified
    breaks = state.breaks
    table = state.f_table
    clauses = formula.clauses
    flip = state.flip
    flips_done = 0
    while flips_done < max_flips:
        if not falsified:
            break
        if wall_limit is not None and flips_done % _POLL_FLIPS == 0:
            if time.perf_counter() - start > wall_limit:
                break
        cid = falsified[int(rng_random() * len(falsified))]
        clause = clauses[cid]
        total = 0.0
        for lit in clause:
            total += table[breaks[lit] if lit > 0 else breaks[-lit]]
        r = rng_random() * total
        chosen = clause[-1]
        acc = 0.0
        for lit in clause:
            acc += table[breaks[lit] if lit > 0 else breaks[-lit]]
            if r < acc:
                chosen = lit
                break
        flip(abs(chosen))
        flips_done += 1
    model = None if falsified else state.assign
    return _result(formula, model, flips_done, seed, time.perf_counter() - start)


def _result(formula: Formula, model: Assignment | bytes | None, flips_done: int, seed: int,
            elapsed: float) -> RunResult:
    if model is None:
        return RunResult(FLIPS_EXHAUSTED, flips_done, None, seed, elapsed)
    if not eval_formula(formula, model):
        raise AssertionError("internal error: registry empty but model invalid")
    return RunResult(SOLVED, flips_done, list(map(bool, model)), seed, elapsed)
