"""Benchmark harness: trial execution, PAR2 scoring, summaries, CSV output.

A trial is one (instance, solver, seed) `run_hybrid` call under a flip
budget, a wall-clock budget or both; an "sls" solver runs the one-phase
plain strategy.  The per-trial CSV is the source of truth; summaries
(solved counts, PAR2 scores, pairwise statistics) are derived artifacts
and can always be recomputed from it.  Trials are independent and may
run in a process pool; records are merged in sorted order so results do
not depend on scheduling.
"""

from __future__ import annotations

import csv
import io
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import get_type_hints

from .cnf import Formula
from .pipeline import (OVERRIDABLE, check_budgets, plain_strategy, reject_ignored_by_sls, run_hybrid,
                       select_strategy)
from .sls import ScoringFunction, probsat_run  # probsat_run: unused, but satbench/spans.py rebinds it by name
from .stats import DegenerateInputError, cohens_d, paired_t_test, wilcoxon_signed_rank

FLIP_TIMEOUTS = {3: 1_000_000_000, 5: 500_000_000, 7: 250_000_000}


@dataclass(frozen=True)
class TrialRecord:
    """One trial's outcome; `trials.csv` has a column per field, in this order."""

    instance_id: str
    solver_id: str
    seed: int
    solved: bool
    flips: int
    seconds: float
    note: str = ""
    phase_solved: str = ""  # the `SolveResult` phase that solved it ("" when none did)
    clauses_added: int = 0  # clauses `augment` appended before the final phase
    miner_conflicts: int = 0  # conflicts the miner ran (0 when it did not run)

    def key(self) -> tuple:
        """Timing-free projection used for determinism comparisons."""
        return (self.instance_id, self.solver_id, self.seed, self.solved, self.flips)


def _check_cost(currency: str, timeout: float | None = None) -> None:
    """A ValueError unless `currency` is "flips" or "seconds" and `timeout`, where given, is positive."""
    if currency not in ("flips", "seconds"):
        raise ValueError(f"unknown PAR2 currency {currency!r}")
    if timeout is not None and not timeout > 0:  # NaN fails too
        raise ValueError("timeout must be positive")


def par2(record: TrialRecord, timeout: float, currency: str = "flips") -> float:
    """Measured cost if solved, twice the timeout otherwise."""
    _check_cost(currency, timeout)
    if not record.solved:
        return 2.0 * timeout
    return float(record.flips) if currency == "flips" else record.seconds


def default_flip_timeout(k: int) -> int:
    """Flip timeouts by clause width: 1e9 / 5e8 / 2.5e8 for k = 3 / 5 / 7."""
    try:
        return FLIP_TIMEOUTS[k]
    except KeyError:
        raise ValueError(f"no default flip timeout for k={k}") from None


@dataclass(frozen=True, init=False)
class SolverConfig:
    """One named solver configuration for the harness: an id, an
    algorithm and the `Strategy` settings it overrides.

    Every keyword but `algorithm` names a setting of `pipeline.OVERRIDABLE`,
    the miner's conflict limit among them, and goes into `overrides`;
    None keeps the track's value and is not stored.  A "hybrid" trial
    passes `overrides` unchanged to `select_strategy`, and an "sls" trial
    runs `plain_strategy` with its `scoring`.  An unknown name is a
    ValueError, and so is any setting but `scoring` on an "sls" config.
    """

    solver_id: str
    algorithm: str  # sls | hybrid
    overrides: dict = field(hash=False)

    def __init__(self, solver_id: str, algorithm: str = "sls", **overrides):
        if algorithm not in ("sls", "hybrid"):
            raise ValueError(f"unknown algorithm {algorithm!r}")
        unknown = [name for name in overrides if name not in OVERRIDABLE]
        if unknown:
            raise ValueError(f"unknown solver-config key {unknown[0]!r}")
        given = {name: value for name, value in overrides.items() if value is not None}
        if algorithm == "sls":
            reject_ignored_by_sls("the sls algorithm", given)
        self.__dict__.update(solver_id=solver_id, algorithm=algorithm, overrides=given)  # frozen: set once, here

    @classmethod
    def from_dict(cls, data: dict) -> "SolverConfig":
        """The config of one JSON object: `id` is the solver id and every
        other key a constructor keyword; `scoring` is an object with `kind`,
        `cb` and optionally `epsilon`.  A missing or unknown key is a
        ValueError that names it, and so is data that is not an object."""
        if not isinstance(data, dict):
            raise ValueError(f"a solver config must be a JSON object, got {data!r}")
        if "id" not in data:
            raise ValueError("solver config has no 'id' key")
        kwargs = {key: value for key, value in data.items() if key != "id"}
        if "solver_id" in kwargs:
            raise ValueError("unknown solver-config key 'solver_id'")
        scoring = kwargs.get("scoring")
        if scoring is not None:
            try:  # the TypeError of a missing or unknown key names it
                kwargs["scoring"] = ScoringFunction(**scoring)
            except TypeError as exc:
                raise ValueError(f"solver-config key 'scoring': {exc}") from None
        return cls(data["id"], **kwargs)


def run_trial(
    instance_id: str,
    formula: Formula,
    config: SolverConfig,
    seed: int,
    budget_flips: int | None = None,
    budget_seconds: float | None = None,
) -> TrialRecord:
    """Execute one trial; solver crashes become unsolved records with a note.

    Every trial is one `run_hybrid` call under the trial's budgets, and its
    `SolveResult` becomes the record: an "sls" config runs `plain_strategy`
    with its scoring, a "hybrid" config `select_strategy(formula,
    **config.overrides)`.  An `AssertionError` is a failed internal check
    (an invalid model or a broken invariant), not a crash of one solver:
    it propagates, so it is never scored as a PAR2 timeout.  So does the
    `ValueError` of a missing budget or of a hybrid config that its
    instance's track rejects (an ignored or out-of-range setting), which
    are configuration errors: they stop the trial before any work.
    """
    check_budgets(budget_seconds, budget_flips)
    strategy = (plain_strategy(formula, config.overrides.get("scoring")) if config.algorithm == "sls"
                else select_strategy(formula, **config.overrides))
    try:
        result = run_hybrid(formula, wall_budget=budget_seconds, seed=seed, strategy=strategy,
                            final_flips=budget_flips)
    except AssertionError:
        raise
    except Exception as exc:  # crash containment: the suite must go on
        return TrialRecord(instance_id, config.solver_id, seed, False, 0, 0.0, note=repr(exc))
    return TrialRecord(
        instance_id, config.solver_id, seed, result.status == "sat", sum(result.phase_flips.values()),
        sum(result.phase_seconds.values()), phase_solved=result.phase_solved or "",
        clauses_added=result.clauses_added, miner_conflicts=result.phase_conflicts.get("miner", 0),
    )


def _run_trial_packed(args) -> TrialRecord:
    return run_trial(*args)


def run_suite(
    instances,
    solvers,
    seeds,
    budget_flips: int | None = None,
    budget_seconds: float | None = None,
    workers: int = 1,
) -> list[TrialRecord]:
    """All (instance, solver, seed) trials, optionally in a process pool.

    Records come back sorted by (instance, solver, seed) regardless of
    worker count or scheduling.  A suite with no budget, or with no or a
    repeated instance id, solver id or seed, is a ValueError.
    """
    for kind, keys in (("instance id", [iid for iid, _ in instances]),
                       ("solver id", [config.solver_id for config in solvers]), ("seed", list(seeds))):
        repeated = [key for key, count in Counter(keys).items() if count > 1]
        if not keys or repeated:
            raise ValueError(f"{kind} {repeated[0]!r} is repeated" if keys else f"need at least one {kind}")
    check_budgets(budget_seconds, budget_flips)
    tasks = [
        (iid, formula, config, seed, budget_flips, budget_seconds)
        for iid, formula in instances
        for config in solvers
        for seed in seeds
    ]
    if workers <= 1:
        records = [_run_trial_packed(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_trial_packed, tasks, chunksize=1))
    records.sort(key=lambda r: (r.instance_id, r.solver_id, r.seed))
    return records


@dataclass
class SolverSummary:
    solver_id: str
    solved_count: int
    score: float
    per_instance_par2: dict[str, float] = field(default_factory=dict)
    crashed: int = 0  # trials whose solver raised: unsolved, with a `note`


@dataclass
class PairwiseStats:
    solver_a: str
    solver_b: str
    t: float | None
    t_p: float | None
    w: float | None
    w_p: float | None
    d: float | None


@dataclass
class BenchmarkSummary:
    timeout: float
    currency: str
    per_solver: dict[str, SolverSummary]
    pairwise: list[PairwiseStats]


def _or_none(test, a, b):
    """`test(a, b)`, or None when the samples cannot support the statistic."""
    try:
        return test(a, b)
    except DegenerateInputError:
        return None


def summarize(records, timeout: float, currency: str = "flips") -> BenchmarkSummary:
    """Aggregate trials: per-instance mean PAR2, per-solver score (the sum
    of instance means) with solved and crashed counts, and pairwise
    paired statistics on those means."""
    _check_cost(currency, timeout)
    solvers = sorted({r.solver_id for r in records})
    instances = sorted({r.instance_id for r in records})
    values: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    solved, crashed = Counter(), Counter()
    for r in records:  # one pass, so every sum below adds in record order
        values[r.solver_id][r.instance_id].append(par2(r, timeout, currency))
        solved[r.solver_id] += bool(r.solved)
        crashed[r.solver_id] += bool(r.note)
    per_solver: dict[str, SolverSummary] = {}
    for sid in solvers:
        by_instance = values[sid]
        per_instance = {iid: sum(by_instance[iid]) / len(by_instance[iid]) for iid in sorted(by_instance)}
        score = sum(per_instance.values())
        per_solver[sid] = SolverSummary(sid, solved[sid], score, per_instance, crashed[sid])
    pairwise = []
    for i, sa in enumerate(solvers):
        for sb in solvers[i + 1 :]:
            common = [iid for iid in instances
                      if iid in per_solver[sa].per_instance_par2
                      and iid in per_solver[sb].per_instance_par2]
            va = [per_solver[sa].per_instance_par2[iid] for iid in common]
            vb = [per_solver[sb].per_instance_par2[iid] for iid in common]
            t, t_p = _or_none(paired_t_test, va, vb) or (None, None)
            w, w_p = _or_none(wilcoxon_signed_rank, va, vb) or (None, None)
            pairwise.append(PairwiseStats(sa, sb, t, t_p, w, w_p, _or_none(cohens_d, va, vb)))
    return BenchmarkSummary(timeout, currency, per_solver, pairwise)


# trials.csv cells: bools as 0/1, floats to six places, the rest with str;
# each cell is read back with its field's type
_COLUMNS = tuple(get_type_hints(TrialRecord).items())
_FORMAT = {bool: int, float: "{:.6f}".format}
_PARSE = {bool: lambda cell: bool(int(cell))}


def trials_to_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([name for name, _ in _COLUMNS])
    for r in records:
        writer.writerow([_FORMAT.get(kind, str)(getattr(r, name)) for name, kind in _COLUMNS])
    return buf.getvalue()


def trials_from_csv(text: str) -> list[TrialRecord]:
    """Records of `trials_to_csv` text; columns missing from older files
    take the field defaults."""
    return [TrialRecord(**{name: _PARSE.get(kind, kind)(row[name]) for name, kind in _COLUMNS if name in row})
            for row in csv.DictReader(io.StringIO(text))]


def summary_to_csv(summary: BenchmarkSummary) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["solver_id", "solved", "score", "timeout", "currency", "crashed"])
    for sid in sorted(summary.per_solver):
        s = summary.per_solver[sid]
        writer.writerow([sid, s.solved_count, f"{s.score:.6f}", summary.timeout, summary.currency,
                         s.crashed])
    writer.writerow([])
    writer.writerow(["solver_a", "solver_b", "t", "t_p", "wilcoxon_w", "wilcoxon_p", "cohens_d"])
    fmt = lambda x: "" if x is None else f"{x:.9g}"
    for p in summary.pairwise:
        writer.writerow([p.solver_a, p.solver_b, fmt(p.t), fmt(p.t_p), fmt(p.w), fmt(p.w_p), fmt(p.d)])
    return buf.getvalue()


def cactus_to_csv(records, solver_id: str, currency: str = "seconds") -> str:
    """Sorted solve costs for one solver: the cactus-plot data series."""
    _check_cost(currency)
    costs = sorted((r.flips if currency == "flips" else r.seconds)
                   for r in records if r.solver_id == solver_id and r.solved)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["solved", currency])
    for i, cost in enumerate(costs, start=1):
        writer.writerow([i, f"{cost:.6f}" if currency == "seconds" else int(cost)])
    return buf.getvalue()
