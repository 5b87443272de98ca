"""Hybrid solving pipeline: SLS burst, CDCL clause mining, SLS on the
augmented formula.

Dispatch on instance shape picks one of four tracks.  Formulas with more
than 9000 variables run plain local search for the whole budget (mined
clauses stop paying off there); otherwise the maximal clause width
selects tuned per-width settings:

    width 3: 35M initial flips, mine width <= 4, no cap, full miner window
    width 5: 15M initial flips, mine width <= 8, cap 5% of m, early stop
    width 7:  6M initial flips, mine width <= 9, cap 1% of m, early stop

Other widths have no tuned settings and fall back to plain local search
with exponential scoring.  Percentage caps are computed from the
original clause count, floor-rounded.  The plain and fallback tracks
run one SLS phase, seeded with the run's seed, and read only the
strategy's scoring; the other tracks seed their phases from one master
RNG.  The clock is checked if and only if a wall budget is given, and
the last SLS phase is flip-bounded if and only if `final_flips` is.  A
run with `wall_budget=None`, `final_flips` set and a strategy whose
`miner_conflict_limit` is set is timing-free: a pure function of its
arguments.

The track's settings, the miner's conflict limit among them, are a
`Strategy`, and it is the only configuration `run_hybrid` reads besides
its seed and budgets.  Its fields but `track` are the one list of
overridable settings (`OVERRIDABLE`), which `SolverConfig` uses; the
`satlab solve` flags set five (`initial_flips`, `miner_seconds`,
`miner_conflict_limit`, `width_limit`, `count_cap_percent`).  Name the
field: `run_hybrid(f, strategy=select_strategy(f, initial_flips=1000))`.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field, fields, replace

from . import _native
from .cdcl import MINER_SECONDS_DEFAULT, SAT, UNSAT, MiningBudget, cdcl_solve_and_mine
from .cnf import Assignment, Formula, _flatten, eval_formula, is_int_at_least
from .sls import ScoringFunction, default_scoring, default_scoring_for, probsat_run

PLAIN_SLS = "plain-sls"
FALLBACK = "fallback"
_SLS_ONLY = (PLAIN_SLS, FALLBACK)  # tracks that run one SLS phase and read only `scoring`

VARS_CUTOFF = 9000
WALL_BUDGET_DEFAULT = 5000.0


@dataclass(frozen=True)
class Strategy:
    """Per-track settings of `run_hybrid`; built by `select_strategy`.

    A three-phase strategy with a setting out of range, not a number, or
    a count (flips, width, conflicts) that is not an integer, is a
    ValueError that names it, so a bad setting fails before any trial
    runs.
    """

    track: str
    initial_flips: int
    miner_seconds: float
    width_limit: int
    count_cap_percent: float | None
    early_stop: bool
    scoring: ScoringFunction
    miner_conflict_limit: int | None = None  # None: the miner window alone bounds the miner

    def __post_init__(self):
        if self.track in _SLS_ONLY:
            return
        for name, rule, test in (
            ("initial_flips", "an integer >= 0", lambda v: is_int_at_least(v, 0)),
            ("miner_seconds", "a number > 0", lambda v: v > 0),
            ("width_limit", "an integer >= 1", lambda v: is_int_at_least(v, 1)),
            ("count_cap_percent", "a number >= 0", lambda v: v is None or v >= 0),
            ("miner_conflict_limit", "an integer >= 0", lambda v: v is None or is_int_at_least(v, 0)),
        ):
            value = getattr(self, name)
            try:
                in_range = test(value)
            except TypeError:  # a number row given a string from a JSON config, say
                in_range = False
            if not in_range:
                raise ValueError(f"{name} must be {rule} on the {self.track} track, got {value!r}")


# the settings a caller may override: every `Strategy` field but the dispatched track
OVERRIDABLE = tuple(f.name for f in fields(Strategy) if f.name != "track")


def reject_ignored_by_sls(runner: str, settings) -> None:
    """An SLS-only run reads only `scoring`: the first other name in
    `settings` is a ValueError that names it."""
    ignored = [name for name in settings if name != "scoring"]
    if ignored:
        raise ValueError(f"{runner} runs SLS only and ignores {ignored[0]!r}")


@dataclass
class SolveResult:
    """Pipeline outcome with per-phase accounting.

    `canonical_json` covers everything except wall-clock timings, which
    is the determinism contract: under flip/conflict budgets two runs
    with equal inputs produce equal canonical bytes.
    """

    status: str  # sat | unsat | unknown
    model: Assignment | None
    phase_solved: str | None  # initial-sls | miner | final-sls
    track: str
    phase_flips: dict[str, int] = field(default_factory=dict)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    phase_conflicts: dict[str, int] = field(default_factory=dict)
    clauses_added: int = 0
    seed: int = 0

    def canonical_json(self) -> str:
        payload = {
            "status": self.status,
            "model": None if self.model is None else [int(v) for v in self.model[1:]],
            "phase_solved": self.phase_solved,
            "track": self.track,
            "phase_flips": dict(sorted(self.phase_flips.items())),
            "phase_conflicts": dict(sorted(self.phase_conflicts.items())),
            "clauses_added": self.clauses_added,
            "seed": self.seed,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def plain_strategy(formula: Formula, scoring: ScoringFunction | None = None) -> Strategy:
    """The one-phase plain-SLS strategy; `scoring` None takes the formula's default."""
    return Strategy(PLAIN_SLS, 0, 0.0, 0, None, False, default_scoring_for(formula) if scoring is None else scoring)


def select_strategy(formula: Formula, **overrides) -> Strategy:
    """Track dispatch on variable count and maximal clause width.

    Each keyword names one of `OVERRIDABLE` and replaces the track's
    value, unless it is None; an unknown name raises TypeError.  The track
    is the result of the dispatch, not a setting, so overriding it raises
    ValueError.  The plain and fallback tracks read only `scoring`, so
    any other override there raises ValueError too; on the other tracks,
    so does a setting out of range (see `Strategy`).
    """
    width = formula.max_width
    if formula.num_vars > VARS_CUTOFF or formula.num_clauses == 0:
        strategy = plain_strategy(formula)
    elif width == 3:
        strategy = Strategy("k3", 35_000_000, MINER_SECONDS_DEFAULT, 4, None, False, default_scoring(3))
    elif width == 5:
        strategy = Strategy("k5", 15_000_000, MINER_SECONDS_DEFAULT, 8, 5.0, True, default_scoring(5))
    elif width == 7:
        strategy = Strategy("k7", 6_000_000, MINER_SECONDS_DEFAULT, 9, 1.0, True, default_scoring(7))
    else:  # no tuned settings: plain SLS, whose default scoring here is exp with cb=3.0
        strategy = replace(plain_strategy(formula), track=FALLBACK)
    unknown = overrides.keys() - {"track", *OVERRIDABLE}
    if unknown:
        raise TypeError(f"Strategy has no field {sorted(unknown)[0]!r}")
    given = {name: value for name, value in overrides.items() if value is not None}
    if "track" in given:
        raise ValueError(f"the track is chosen by dispatch ({strategy.track!r} here) and cannot be "
                         f"overridden, got track={given['track']!r}")
    if strategy.track in _SLS_ONLY:
        reject_ignored_by_sls(f"the {strategy.track} track", given)
    return replace(strategy, **given)


def percent_cap(percent: float, num_clauses: int) -> int:
    """Count cap of `percent` % of `num_clauses`, floor-rounded."""
    return int(percent * num_clauses / 100.0)


def augment(formula: Formula, clauses) -> Formula:
    """`formula.extended` with the given clauses; a clause with the literal
    set of an existing clause (or of an earlier addition) is dropped.  The
    input formula is not modified.

    The additions are flattened once, and `augment_keep` in `_cnf.c`
    (loaded by `satlab._native`) drops the duplicates: it canonicalises
    each addition, looks it up among the formula's clauses of its least
    frequent literal, so the lookup's cost follows the additions, not the
    formula, and finds repeats among the additions in a hashed clause set.
    The kept ones are re-indexed with the formula by `formula_index`,
    whose cost does follow the formula.  `_augment_python` is the
    reference, and runs when the library is unavailable or the additions
    do not flatten; both give equal formulas and equal errors.
    """
    new = clauses if isinstance(clauses, (list, tuple)) else list(clauses)
    kernel = _native.load()
    flat = None if kernel is None else _flatten(new, formula.offsets[-1])
    if flat is None:
        return _augment_python(formula, new)
    offsets, lits = flat
    kept = kernel.augment_keep(formula.num_vars, *map(_native.address, (formula.offsets, formula.literals,
                                                                        formula.occ_offsets, formula.occ)),
                               formula.has_empty_clause(), len(new), *map(_native.address, (offsets, lits)))
    if kept < 0:
        raise MemoryError("cannot allocate augment's clause set")
    if not kept:
        return formula
    del offsets[kept + 1:]
    del lits[offsets[-1] - offsets[0]:]
    return Formula._from_flat(kernel, formula.num_vars, formula.offsets + offsets[1:], formula.literals + lits)


def _augment_python(formula: Formula, clauses) -> Formula:
    """The reference of `augment`: the same formula, or the same error."""
    offsets, literals = formula.offsets, formula.literals
    seen: set[frozenset[int]] = set()
    added: list[frozenset[int]] = []
    for clause in clauses:
        lits = frozenset(clause)
        if lits in seen:
            continue
        seen.add(lits)
        if lits:
            rarest = min(map(formula.occurrence, lits), key=len)
            if any(offsets[cid + 1] - offsets[cid] == len(lits)
                   and lits.issuperset(literals[offsets[cid]:offsets[cid + 1]]) for cid in rarest):
                continue
        elif formula.has_empty_clause():
            continue
        added.append(lits)
    return formula.extended(added)


def check_budgets(wall_budget: float | None, final_flips: int | None) -> None:
    """ValueError unless a positive wall budget, a flip budget or both bound
    a run, and a flip budget given is an integer >= 0."""
    if wall_budget is None and final_flips is None:
        raise ValueError("a run needs a positive wall-clock budget, a flip budget or both")
    if wall_budget is not None and not wall_budget > 0:  # NaN fails too
        raise ValueError(f"wall-clock budget {wall_budget!r}: a run needs a positive wall-clock budget,"
                         " or none and a flip budget")
    if not (final_flips is None or is_int_at_least(final_flips, 0)):
        raise ValueError(f"the flip budget must be an integer >= 0, got {final_flips!r}")


def run_hybrid(
    formula: Formula,
    wall_budget: float | None = WALL_BUDGET_DEFAULT,
    seed: int = 0,
    strategy: Strategy | None = None,
    final_flips: int | None = None,
) -> SolveResult:
    """Execute the pipeline under a wall-clock budget, a flip budget or both.

    `strategy` defaults to `select_strategy(formula)`; pass
    `select_strategy(formula, width_limit=6)` and the like to override
    per-track settings.  A one-phase strategy seeds its SLS phase with
    `seed` itself; the other tracks derive their phase seeds from one
    master RNG seeded with `seed`.  The clock is checked if and only if
    `wall_budget` is not None, and the last SLS phase runs at most
    `final_flips` flips if and only if that is not None.  With
    `wall_budget=None`, `final_flips` set and a strategy whose
    `miner_conflict_limit` is set, the result is timing-free, a pure
    function of the arguments.
    """
    check_budgets(wall_budget, final_flips)
    _native.seed_key(seed)  # a seed that is not an int is a ValueError on every track, before any phase
    start = time.perf_counter()
    strat = strategy or select_strategy(formula)
    result = SolveResult(status="unknown", model=None, phase_solved=None, track=strat.track, seed=seed)
    last_flips = _native.limit(final_flips)

    def wall_left() -> float | None:
        """Seconds left of the wall budget; None when there is none."""
        return None if wall_budget is None else wall_budget - (time.perf_counter() - start)

    def sls_phase(phase: str, target: Formula, flips: int, phase_seed: int) -> bool:
        res = probsat_run(target, flips, phase_seed, strat.scoring, wall_limit=wall_left())
        result.phase_flips[phase] = res.flips_used
        result.phase_seconds[phase] = res.wall_seconds
        if res.solved:  # probsat_run checked the model against `target`; an augmented one needs `formula` too
            _mark_solved(result, phase, res.model, None if target is formula else formula)
        return res.solved

    if strat.track in _SLS_ONLY:  # one SLS phase, seeded with `seed` itself
        sls_phase("initial-sls", formula, last_flips, seed)
        return result

    # phase 1: flip-capped local search burst
    master = random.Random(seed)
    seed_initial = master.getrandbits(63)
    seed_miner = master.getrandbits(63)
    seed_final = master.getrandbits(63)
    if sls_phase("initial-sls", formula, strat.initial_flips, seed_initial):
        return result

    # phase 2: clause mining
    left = wall_left()
    if left is not None and left <= 0:
        return result
    window = strat.miner_seconds if left is None else min(strat.miner_seconds, left)
    cap_pct = strat.count_cap_percent
    budget = MiningBudget(
        wall_seconds=window,  # > 0: a strategy's window is, and an exhausted budget returned above
        conflict_limit=strat.miner_conflict_limit,
        width_limit=strat.width_limit,
        count_cap=None if cap_pct is None else percent_cap(cap_pct, formula.num_clauses),
        early_stop=strat.early_stop,
    )
    t_miner = time.perf_counter()
    outcome = cdcl_solve_and_mine(formula, budget, seed=seed_miner)
    result.phase_seconds["miner"] = time.perf_counter() - t_miner
    result.phase_conflicts["miner"] = outcome.conflicts
    if outcome.status == SAT:  # the miner checked its model against `formula`
        _mark_solved(result, "miner", outcome.model, None)
        return result
    if outcome.status == UNSAT:
        result.status = "unsat"
        result.phase_solved = "miner"
        return result

    # phase 3: local search on the augmented formula, fresh random assignment
    augmented = augment(formula, outcome.learned)
    result.clauses_added = augmented.num_clauses - formula.num_clauses
    left = wall_left()
    if left is None or left > 0:
        sls_phase("final-sls", augmented, last_flips, seed_final)
    return result


def _mark_solved(result: SolveResult, phase: str, model: Assignment, formula: Formula | None) -> None:
    """Record `phase`'s model; unless `formula` is None (the model is
    already checked against it), a model that falsifies it is an
    AssertionError."""
    if formula is not None and not eval_formula(formula, model):
        raise AssertionError("internal error: phase model does not satisfy the original formula")
    result.status = "sat"
    result.model = model
    result.phase_solved = phase
