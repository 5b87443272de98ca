"""Minimal complete CDCL solver doubling as a learned-clause miner.

Standard machinery: two-watched-literal propagation, 1-UIP conflict
analysis, VSIDS-style activity decisions with phase saving, Luby
restarts (base 64), and periodic learned-clause database reduction
(locked clauses kept; otherwise clauses of width <= 12 in the most
recently used half survive).  No clause minimization, no preprocessing,
no proof logging: the contract here is sound learned clauses under a
budget, not competition performance.

A `MiningBudget` describes a mining run: its stop conditions, in two
currencies (wall seconds for production runs and conflict counts for
deterministic tests), and which learned clauses qualify (width <=
`width_limit`).  A search records only the qualifying clauses, and
mining exports their deduplicated prefix (or a seeded random subset).

Every search is a fresh solve of one formula, and `_search` runs one:
`cdcl_solve_and_mine` goes through it, and so do the backbone queries
of `quality.compute_backbone` without the library, each of the formula
with unit clauses appended (only the kernel's one-call backbone,
`cdcl_backbone`, passes a search units).  Two engines, one semantics:

- The compiled kernel (`_cdcl.c`, built and loaded by `satlab._native`)
  reads the formula's flat clause arrays (`Formula.offsets` and
  `literals`) and draws the initial phases from the seed's key as
  `random.Random(seed)` draws them.  It lays the input clauses out in
  one arena, and frees the learned clauses DB reduction drops.
- `CdclSolver` is the readable reference, run without the library.

Either way the model is checked here (`_check_model`).

For equal arguments the two return equal `MiningOutcome`s: status,
model, exported clauses, learned count, conflicts and records.  They
make the same decisions, propagate and analyse in the same order, and
do the same floating-point activity arithmetic.  A wall-clock budget is
polled at the same conflicts on both paths, so only a run that a wall
budget ends can differ.  The differential tests in
`tests/test_cdcl_kernel.py` hold the two to it.
"""

from __future__ import annotations

import functools
import random
import time
from array import array
from dataclasses import dataclass, field, replace
from heapq import heapify, heappop, heappush

from . import _native
from .cnf import Assignment, Clause, Formula, canonical_clause, eval_formula, is_int_at_least

SAT = "sat"
UNSAT = "unsat"
BUDGET = "budget-exhausted"
STATUS_CODES = (BUDGET, SAT, UNSAT)  # a kernel's status code indexes this

MINER_SECONDS_DEFAULT = 300.0

_TRUE, _UNDEF, _FALSE = 1, 0, -1

_RESCALE_LIMIT = 1e100
_ACTIVITY_DECAY = 0.95
_LUBY_BASE = 64
_WALL_CHECK_EVERY = 64
_HEAP_SLACK = 4  # the decision heap is rebuilt once it holds this many entries per variable


@dataclass(frozen=True)
class LearnedClauseRecord:
    """One qualifying learned clause (width <= the budget's `width_limit`),
    canonically sorted, with the index of the conflict that learned it:
    a search learns one clause per conflict, the first at index 0."""

    clause: Clause
    learn_index: int


@dataclass(frozen=True)
class MiningBudget:
    """A mining run, as `CdclSolver.solve` and the kernel both read it.

    A learned clause of width <= `width_limit` qualifies: it is recorded,
    and `count_cap` caps the distinct ones exported.  The run stops at the
    first of: `count_cap` distinct qualifying clauses (only with
    `early_stop`), `conflict_limit` conflicts, and `wall_seconds` (the
    clock is read every 64 conflicts).
    """

    wall_seconds: float = MINER_SECONDS_DEFAULT
    conflict_limit: int | None = None
    width_limit: int = 4
    count_cap: int | None = None
    early_stop: bool = False

    def __post_init__(self):
        if not self.wall_seconds > 0:  # NaN fails too
            raise ValueError("wall_seconds must be positive")
        for name, low, optional in (("conflict_limit", 0, True), ("width_limit", 1, False), ("count_cap", 0, True)):
            value = getattr(self, name)
            if not ((value is None and optional) or is_int_at_least(value, low)):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass
class MiningOutcome:
    """Result of `cdcl_solve_and_mine`: `records` are the search's qualifying
    learned clauses, `learned` their deduplicated export capped at `count_cap`,
    and `total_learned_seen` counts every learned clause, one per conflict."""

    status: str
    model: Assignment | None
    learned: list[Clause]
    total_learned_seen: int
    conflicts: int
    records: list[LearnedClauseRecord] = field(repr=False, default_factory=list)


def luby(i: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,... (1-indexed)."""
    k = 1
    while (1 << k) - 1 < i:
        k += 1
    while (1 << k) - 1 != i:
        k -= 1
        i -= (1 << k) - 1
        k = 1
        while (1 << k) - 1 < i:
            k += 1
    return 1 << (k - 1)


@functools.lru_cache(maxsize=1)
def _initial_phases(n: int, seed: int) -> bytes:
    """`CdclSolver`'s initial saved phases of variables 1..n (byte 0 unused):
    the first n draws of `random.Random(seed)`, true below 0.5, as the
    kernel draws them.  The last result is kept, as every query of a
    backbone repeats one (n, seed)."""
    rng = random.Random(seed)
    return bytes([0, *(rng.random() < 0.5 for _ in range(n))])


class _WatchedClause:
    __slots__ = ("lits", "stamp")

    def __init__(self, lits: list[int], stamp: int = 0):
        self.lits = lits
        self.stamp = stamp


class CdclSolver:
    """CDCL over one immutable formula: the readable reference that
    `_cdcl.c` mirrors, and the fallback when the kernel cannot be built."""

    def __init__(self, formula: Formula, seed: int = 0):
        n = formula.num_vars
        self.n = n
        self.assigns = [_UNDEF] * (n + 1)
        self.level = [0] * (n + 1)
        self.reason: list[_WatchedClause | None] = [None] * (n + 1)
        self.saved_phase = list(map(bool, _initial_phases(n, seed)))
        self.activity = [0.0] * (n + 1)
        self.var_inc = 1.0
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        # watches[code(l)] = clauses currently watching literal l
        self.watches: list[list[_WatchedClause]] = [[] for _ in range(2 * n + 2)]
        self.learned_db: list[_WatchedClause] = []
        self.conflicts = 0
        self.records: list[LearnedClauseRecord] = []
        self._qualifying: set[Clause] = set()
        self._heap: list[tuple[float, int]] = [(0.0, v) for v in range(1, n + 1)]
        heapify(self._heap)
        self._unsat = False
        self._reduce_cap = max(2000, formula.num_clauses)
        self._restart_idx = 1
        self._restart_at = _LUBY_BASE * luby(1)
        for clause in formula.clauses:
            if not self._attach_input_clause(list(clause)):
                self._unsat = True
                return
        if self._propagate() is not None:
            self._unsat = True

    # -- literal/value plumbing ------------------------------------------

    @staticmethod
    def _code(lit: int) -> int:
        return (lit << 1) if lit > 0 else ((-lit << 1) | 1)

    def _value(self, lit: int) -> int:
        v = self.assigns[lit] if lit > 0 else -self.assigns[-lit]
        return v

    def _attach_input_clause(self, lits: list[int]) -> bool:
        """Add an original clause; False means immediate unsatisfiability."""
        if len(lits) == 0:
            return False
        if len(lits) == 1:
            val = self._value(lits[0])
            if val == _FALSE:
                return False
            if val == _UNDEF:
                self._enqueue(lits[0], None)
            return True
        clause = _WatchedClause(lits)
        self.watches[self._code(lits[0])].append(clause)
        self.watches[self._code(lits[1])].append(clause)
        return True

    def _enqueue(self, lit: int, reason: _WatchedClause | None) -> None:
        v = abs(lit)
        self.assigns[v] = _TRUE if lit > 0 else _FALSE
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    # -- propagation ------------------------------------------------------

    def _propagate(self) -> _WatchedClause | None:
        watches = self.watches
        assigns = self.assigns
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            false_lit = -lit
            code = self._code(false_lit)
            watchers = watches[code]
            kept: list[_WatchedClause] = []
            i = 0
            total = len(watchers)
            while i < total:
                clause = watchers[i]
                i += 1
                lits = clause.lits
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                fval = assigns[first] if first > 0 else -assigns[-first]
                if fval == _TRUE:
                    kept.append(clause)
                    continue
                moved = False
                for j in range(2, len(lits)):
                    other = lits[j]
                    oval = assigns[other] if other > 0 else -assigns[-other]
                    if oval != _FALSE:
                        lits[1], lits[j] = lits[j], lits[1]
                        watches[self._code(other)].append(clause)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(clause)
                if fval == _FALSE:
                    kept.extend(watchers[i:])
                    watches[code] = kept
                    return clause
                self._enqueue(first, clause)
            watches[code] = kept
        return None

    # -- decisions ---------------------------------------------------------

    # The heap is lazy: an entry is valid while its variable is unassigned
    # and its activity current.  Every unassigned variable has a valid
    # entry, so the first valid pop is the unassigned variable of highest
    # activity, ties to the lowest index.

    def _rebuild_heap(self) -> None:
        self._heap = [(-self.activity[u], u) for u in range(1, self.n + 1) if self.assigns[u] == _UNDEF]
        heapify(self._heap)

    def _push(self, v: int) -> None:
        """Give v a valid entry; a full heap is rebuilt instead, which drops the stale ones."""
        if len(self._heap) >= _HEAP_SLACK * self.n:
            self._rebuild_heap()
        else:
            heappush(self._heap, (-self.activity[v], v))

    def _bump(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > _RESCALE_LIMIT:
            inv = 1.0 / _RESCALE_LIMIT
            for u in range(1, self.n + 1):
                self.activity[u] *= inv
            self.var_inc *= inv
            self._rebuild_heap()
            return
        self._push(v)

    def _pick_branch_var(self) -> int | None:
        heap = self._heap
        activity = self.activity
        assigns = self.assigns
        while heap:
            negact, v = heappop(heap)
            if assigns[v] == _UNDEF and -negact == activity[v]:
                return v
        return None

    # -- backtracking -------------------------------------------------------

    def _backjump(self, target_level: int) -> None:
        if len(self.trail_lim) <= target_level:
            return
        bound = self.trail_lim[target_level]
        for idx in range(len(self.trail) - 1, bound - 1, -1):
            lit = self.trail[idx]
            v = abs(lit)
            self.saved_phase[v] = lit > 0
            self.assigns[v] = _UNDEF
            self.reason[v] = None
            self._push(v)
        del self.trail[bound:]
        del self.trail_lim[target_level:]
        self.qhead = len(self.trail)

    # -- conflict analysis ---------------------------------------------------

    def _analyze(self, conflict: _WatchedClause) -> tuple[list[int], int]:
        """First-UIP learned clause and its backjump level.

        The learned clause comes back with the asserting literal at index
        0 and (when binary or longer) a highest-level literal at index 1,
        ready to be watched.
        """
        n_curr = 0
        learnt: list[int] = [0]
        seen = [False] * (self.n + 1)
        current = len(self.trail_lim)
        idx = len(self.trail) - 1
        p = None
        clause = conflict
        while True:
            clause.stamp = self.conflicts
            start = 0 if p is None else 1
            for lit in clause.lits[start:]:
                v = abs(lit)
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if self.level[v] >= current:
                        n_curr += 1
                    else:
                        learnt.append(lit)
            while not seen[abs(self.trail[idx])]:
                idx -= 1
            p = self.trail[idx]
            v = abs(p)
            seen[v] = False
            n_curr -= 1
            idx -= 1
            if n_curr == 0:
                break
            clause = self.reason[v]
        learnt[0] = -p
        if len(learnt) == 1:
            return learnt, 0
        max_i = 1
        for i in range(2, len(learnt)):
            if self.level[abs(learnt[i])] > self.level[abs(learnt[max_i])]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, self.level[abs(learnt[1])]

    # -- learned clause database ----------------------------------------------

    def _add_learned(self, lits: list[int]) -> _WatchedClause | None:
        if len(lits) == 1:
            return None
        clause = _WatchedClause(lits, stamp=self.conflicts)
        self.watches[self._code(lits[0])].append(clause)
        self.watches[self._code(lits[1])].append(clause)
        self.learned_db.append(clause)
        return clause

    def _reduce_db(self) -> None:
        locked = {id(self.reason[abs(l)]) for l in self.trail if self.reason[abs(l)] is not None}
        keep, drop = [], []
        for clause in self.learned_db:
            if id(clause) in locked:
                keep.append(clause)
            else:
                drop.append(clause)
        drop.sort(key=lambda c: c.stamp, reverse=True)
        half = len(drop) // 2
        survivors = [c for c in drop[:half] if len(c.lits) <= 12]
        dead = set(map(id, drop)) - set(map(id, survivors))
        for code in range(len(self.watches)):
            self.watches[code] = [c for c in self.watches[code] if id(c) not in dead]
        self.learned_db = keep + survivors
        self._reduce_cap += self._reduce_cap // 2

    # -- main search -------------------------------------------------------------

    def solve(self, budget: MiningBudget | None = None, **fields) -> str:
        """Search until sat, unsat or the end of `budget`; returns a status string.
        Keywords replace the budget's fields: `solve(conflict_limit=3000)` runs
        under `MiningBudget(conflict_limit=3000)`."""
        budget = replace(budget or MiningBudget(), **fields)
        if self._unsat:
            return UNSAT
        start = time.perf_counter()
        cap = budget.count_cap if budget.early_stop else None
        limit = None if budget.conflict_limit is None else self.conflicts + budget.conflict_limit
        self._backjump(0)
        while True:
            conflict = self._propagate()
            if conflict is not None:
                if not self.trail_lim:
                    self._unsat = True
                    return UNSAT
                self.conflicts += 1
                learnt, bj_level = self._analyze(conflict)
                if len(learnt) <= budget.width_limit:
                    clause = canonical_clause(learnt)
                    self.records.append(LearnedClauseRecord(clause, self.conflicts - 1))
                    self._qualifying.add(clause)
                self._backjump(bj_level)
                added = self._add_learned(learnt)
                self._enqueue(learnt[0], added)
                self.var_inc /= _ACTIVITY_DECAY
                if (
                    (cap is not None and len(self._qualifying) >= cap)
                    or (limit is not None and self.conflicts >= limit)
                    or (self.conflicts % _WALL_CHECK_EVERY == 0 and time.perf_counter() - start > budget.wall_seconds)
                ):
                    self._backjump(0)
                    return BUDGET
                if len(self.learned_db) > self._reduce_cap:
                    self._reduce_db()
                if self.conflicts >= self._restart_at:
                    self._restart_idx += 1
                    self._restart_at += _LUBY_BASE * luby(self._restart_idx)
                    self._backjump(0)
                continue
            v = self._pick_branch_var()
            if v is None:
                return SAT
            self.trail_lim.append(len(self.trail))
            self._enqueue(v if self.saved_phase[v] else -v, None)

    def model(self) -> Assignment:
        model = [False] * (self.n + 1)
        for v in range(1, self.n + 1):
            if self.assigns[v] == _UNDEF:
                raise RuntimeError("model requested but assignment incomplete")
            model[v] = self.assigns[v] == _TRUE
        return model


def filter_learned(
    records: list[LearnedClauseRecord],
    count_cap: int | None = None,
    mode: str = "chronological",
    seed: int = 0,
) -> list[Clause]:
    """The records' clauses, deduplicated (first occurrence wins), then capped.

    The records are a search's, so every one already qualifies.
    Chronological mode keeps the first `count_cap` clauses in learn
    order; random mode draws a uniform subset seeded with `seed`.
    """
    if mode not in ("chronological", "random"):
        raise ValueError(f"unknown filter mode {mode!r}")
    seen: set[Clause] = set()
    qualifying: list[Clause] = []
    for rec in records:
        if rec.clause not in seen:
            seen.add(rec.clause)
            qualifying.append(rec.clause)
    if count_cap is None or len(qualifying) <= count_cap:
        return qualifying
    if mode == "chronological":
        return qualifying[:count_cap]
    rng = random.Random(seed)
    picked = rng.sample(range(len(qualifying)), count_cap)
    return [qualifying[i] for i in sorted(picked)]


def cdcl_solve_and_mine(formula: Formula, budget: MiningBudget, seed: int = 0) -> MiningOutcome:
    """Run CDCL under a budget and export width-filtered learned clauses.

    The solver may finish first: `sat` outcomes carry a verified model,
    `unsat` means the formula is unsatisfiable.  Otherwise the status is
    budget-exhausted and the learned clauses are the harvest.
    """
    status, model, records, conflicts = _search(formula, budget, seed)
    return MiningOutcome(
        status=status,
        model=model,
        learned=filter_learned(records, budget.count_cap),
        total_learned_seen=conflicts,  # a fresh search learns one clause per conflict
        conflicts=conflicts,
        records=records,
    )


def _search(formula: Formula, budget: MiningBudget, seed: int):
    """(status, model, qualifying records, conflicts) of one fresh search of `formula`.

    The compiled kernel runs it, and `CdclSolver` does when the library is
    unavailable; both give the same result.  A seed that is not an int is
    a ValueError on both.  A model is checked against `formula` as the
    engine gives it, and a wrong one is an AssertionError; it is returned
    as a list of bools.
    """
    key = _native.seed_key(seed)
    kernel = _native.load()
    if kernel is None:
        solver = CdclSolver(formula, seed)
        status = solver.solve(budget)
        model = solver.model() if status == SAT else None
        records, conflicts = solver.records, solver.conflicts
    else:
        status, model, records, conflicts = _mine_with_kernel(kernel, formula, budget, key)
    if model is not None:
        _check_model(formula, model, ())
    return status, None if model is None else list(map(bool, model)), records, conflicts


def _check_model(formula: Formula, model, units) -> None:
    """An AssertionError unless `model` (bools, or bytes as a kernel gives
    it) satisfies `formula` and the unit clauses `units`."""
    if not (eval_formula(formula, model) and all(model[u] if u > 0 else not model[-u] for u in units)):
        raise AssertionError("internal error: CDCL produced an invalid model")


def _mine_with_kernel(kernel, formula: Formula, budget: MiningBudget, key: array):
    """(status, model, qualifying records, conflicts) of one kernel search,
    seeded with the seed's `key`; the model is bytes."""
    state = kernel.cdcl_new(*_native.flat(formula), _native.address(key), len(key))
    if not state:
        raise MemoryError("cannot allocate the CDCL kernel state")
    try:
        cap = budget.count_cap if budget.early_stop else None
        code = kernel.cdcl_solve(state, _native.limit(budget.conflict_limit), budget.wall_seconds,
                                 _native.limit(budget.width_limit), _native.limit(cap))
        if code < 0:
            raise MemoryError("the CDCL kernel ran out of memory")
        status = STATUS_CODES[code]
        info = _native.zeros("q", 3)
        kernel.cdcl_info(state, _native.address(info))
        conflicts, count, num_lits = info
        bounds, indices, lits = _native.zeros("q", count + 1), _native.zeros("q", count), _native.zeros("i", num_lits)
        model = _native.zeros("B", formula.num_vars + 1) if status == SAT else None
        kernel.cdcl_copy(state, *map(_native.address, (bounds, indices, lits)),
                         None if model is None else _native.address(model))
    finally:
        kernel.cdcl_free(state)
    records = [LearnedClauseRecord(tuple(lits[bounds[r]:bounds[r + 1]]), indices[r]) for r in range(count)]
    return status, None if model is None else model.tobytes(), records, conflicts
