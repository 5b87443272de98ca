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
original clause count, floor-rounded.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from .cdcl import BUDGET, SAT, UNSAT, MiningBudget, cdcl_solve_and_mine
from .cnf import Assignment, Clause, Formula, canonical_clause, eval_formula
from .sls import RunResult, ScoringFunction, default_scoring, probsat_run

PLAIN_SLS = "plain-sls"
FALLBACK = "fallback"

VARS_CUTOFF = 9000
MINER_SECONDS_DEFAULT = 300.0
WALL_BUDGET_DEFAULT = 5000.0

_HUGE_FLIPS = 1 << 62


@dataclass(frozen=True)
class Strategy:
    track: str
    initial_flips: int
    miner_seconds: float
    width_limit: int
    count_cap_percent: float | None
    early_stop: bool
    scoring: ScoringFunction


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


def select_strategy(formula: Formula) -> Strategy:
    """Track dispatch on variable count and maximal clause width."""
    if formula.num_vars > VARS_CUTOFF or formula.num_clauses == 0:
        return Strategy(PLAIN_SLS, 0, 0.0, 0, None, False, default_scoring(formula.max_width or 3))
    width = formula.max_width
    if width == 3:
        return Strategy("k3", 35_000_000, MINER_SECONDS_DEFAULT, 4, None, False, default_scoring(3))
    if width == 5:
        return Strategy("k5", 15_000_000, MINER_SECONDS_DEFAULT, 8, 5.0, True, default_scoring(5))
    if width == 7:
        return Strategy("k7", 6_000_000, MINER_SECONDS_DEFAULT, 9, 1.0, True, default_scoring(7))
    return Strategy(FALLBACK, 0, 0.0, 0, None, False, ScoringFunction("exp", cb=3.0))


def augment(formula: Formula, clauses) -> Formula:
    """New formula with the given clauses appended; exact duplicates of
    existing clauses (and among the additions) are dropped.  The input
    formula is not modified."""
    present = set(formula.clauses)
    added: list[Clause] = []
    for clause in clauses:
        canon = canonical_clause(clause)
        if canon not in present:
            present.add(canon)
            added.append(canon)
    return Formula(formula.num_vars, list(formula.clauses) + added, normalize=False)


def run_hybrid(
    formula: Formula,
    wall_budget: float = WALL_BUDGET_DEFAULT,
    seed: int = 0,
    miner_seconds: float | None = None,
    strategy: Strategy | None = None,
    width_limit: int | None = None,
    count_cap_percent: float | None = None,
    miner_conflict_limit: int | None = None,
    initial_flips: int | None = None,
    final_flips: int | None = None,
) -> SolveResult:
    """Execute the full pipeline under a wall-clock budget.

    Phase seeds derive from one master RNG seeded with `seed`, so runs
    are reproducible end to end.  For deterministic (timing-free) runs
    pass `miner_conflict_limit` and `final_flips`; wall checks then never
    bind and the result is a pure function of the arguments.
    """
    if wall_budget <= 0:
        raise ValueError("wall_budget must be positive")
    start = time.perf_counter()
    strat = strategy or select_strategy(formula)
    master = random.Random(seed)
    seed_initial = master.getrandbits(63)
    seed_miner = master.getrandbits(63)
    seed_final = master.getrandbits(63)
    result = SolveResult(status="unknown", model=None, phase_solved=None, track=strat.track, seed=seed)

    deterministic = final_flips is not None

    if strat.track in (PLAIN_SLS, FALLBACK):
        flips = final_flips if final_flips is not None else _HUGE_FLIPS
        res = probsat_run(
            formula, flips, seed_initial, strat.scoring,
            wall_limit=None if deterministic else wall_budget,
        )
        _note_phase(result, "initial-sls", res)
        if res.solved:
            _mark_solved(result, "initial-sls", res.model, formula)
        return result

    # phase 1: flip-capped local search burst
    burst = initial_flips if initial_flips is not None else strat.initial_flips
    res = probsat_run(
        formula, burst, seed_initial, strat.scoring,
        wall_limit=None if deterministic else wall_budget,
    )
    _note_phase(result, "initial-sls", res)
    if res.solved:
        _mark_solved(result, "initial-sls", res.model, formula)
        return result

    # phase 2: clause mining
    elapsed = time.perf_counter() - start
    remaining = wall_budget - elapsed
    if remaining <= 0 and not deterministic:
        return result
    window = miner_seconds if miner_seconds is not None else strat.miner_seconds
    if not deterministic:
        window = min(window, remaining)
    w_limit = width_limit if width_limit is not None else strat.width_limit
    cap_pct = count_cap_percent if count_cap_percent is not None else strat.count_cap_percent
    cap = None if cap_pct is None else int(cap_pct * formula.num_clauses / 100.0)
    budget = MiningBudget(
        wall_seconds=max(window, 1e-9),
        conflict_limit=miner_conflict_limit,
        width_limit=w_limit,
        count_cap=cap,
        early_stop=strat.early_stop,
    )
    t_miner = time.perf_counter()
    outcome = cdcl_solve_and_mine(formula, budget, seed=seed_miner)
    result.phase_seconds["miner"] = time.perf_counter() - t_miner
    result.phase_conflicts["miner"] = outcome.conflicts
    if outcome.status == SAT:
        _mark_solved(result, "miner", outcome.model, formula)
        return result
    if outcome.status == UNSAT:
        result.status = "unsat"
        result.phase_solved = "miner"
        return result

    # phase 3: local search on the augmented formula, fresh random assignment
    augmented = augment(formula, outcome.learned)
    result.clauses_added = augmented.num_clauses - formula.num_clauses
    elapsed = time.perf_counter() - start
    remaining = wall_budget - elapsed
    if remaining <= 0 and not deterministic:
        return result
    flips = final_flips if final_flips is not None else _HUGE_FLIPS
    res = probsat_run(
        augmented, flips, seed_final, strat.scoring,
        wall_limit=None if deterministic else remaining,
    )
    _note_phase(result, "final-sls", res)
    if res.solved:
        _mark_solved(result, "final-sls", res.model, formula)
    return result


def _note_phase(result: SolveResult, phase: str, res: RunResult) -> None:
    result.phase_flips[phase] = res.flips_used
    result.phase_seconds[phase] = res.wall_seconds


def _mark_solved(result: SolveResult, phase: str, model: Assignment, formula: Formula) -> None:
    if not eval_formula(formula, model):
        raise AssertionError("internal error: phase model does not satisfy the original formula")
    result.status = "sat"
    result.model = model
    result.phase_solved = phase
