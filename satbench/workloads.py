"""The three benchmark workloads: seeded, fixed-work rounds over planted instances.

A workload's `setup(seed, pace)` generates its instances, emits them as
DIMACS text and parses them back (what a user loading files pays),
calling `pace()` before each instance and timing each one.  Its `run` is
one round of fixed work: flip, conflict and resolution-pair budgets
bind, never the clock, so every round of a run repeats the same search
and the same timing-free outputs.  `run(instances, seed, pace)` calls
`pace()` before each unit of work it times itself; the tracer paces
each `run_trial` call of the suite workloads.  Seeds come from disjoint
sets for any integer `--seed`: instance seeds are even and solver seeds
odd (`random.Random` seeds with the absolute value, which keeps parity).
`gen_planted`, `SlsState` and `CdclSolver` all draw their first n
booleans from `random.Random(seed)`, so a solver seeded with its
instance's seed would start on the hidden model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from satlab import bench, cnf, generators, pipeline, quality, resolution, sls

_STRIDE = 1 << 16  # indices per workload seed


def instance_seed(seed: int, index: int) -> int:
    return 2 * (seed * _STRIDE + index)


def solver_seed(seed: int, index: int) -> int:
    return 2 * (seed * _STRIDE + index) + 1


@dataclass
class Instance:
    iid: str
    formula: cnf.Formula
    hidden: list


@dataclass
class RoundOutput:
    """What one round produced: the SLS trial records (for the solved
    fraction), the PAR2 score in flips, the timing-free payload hashed
    into the digest, workload-specific outputs still to be checked, and,
    when the workload times its own work, the durations of its trials
    and of its other units (suites are timed per `run_trial` call).
    Units come in the same order in every round of a run."""

    records: list
    par2_flips: float
    payload: object
    checks: list = field(default_factory=list)  # (clauses, hidden, what)
    trial_seconds: list | None = None
    other_seconds: list = field(default_factory=list)


def make_instances(specs, seed: int, pace) -> tuple[list[Instance], list, list]:
    """Generate, emit and parse each (label, k, n, ratio, count, bias) spec.

    Returns the parsed instances, per instance the generated formula's
    clauses for the round-trip check, and per instance its set-up time
    with the probe time `pace()` returned just before it.
    """
    instances, generated, times = [], [], []
    index = 0
    for label, k, n, ratio, count, bias in specs:
        for j in range(count):
            spec = generators.GenSpec(n=n, k=k, ratio=ratio, seed=instance_seed(seed, index), bias=bias)
            index += 1
            probe = pace()
            t0 = time.perf_counter()
            formula, hidden = generators.gen_planted(spec)
            parsed = cnf.parse_dimacs(cnf.emit_dimacs(formula))
            times.append((time.perf_counter() - t0, probe))
            instances.append(Instance(f"{label}-{j}", parsed, hidden))
            generated.append(formula.clauses)
    return instances, generated, times


def _suite_round(groups, config, seed: int) -> RoundOutput:
    """`run_suite` per (instances, seeds per instance, flip budget) group,
    scored by `summarize` with the group's budget as the PAR2 timeout."""
    records, par2 = [], 0.0
    for instances, num_seeds, budget in groups:
        seeds = [solver_seed(seed, j) for j in range(num_seeds)]
        recs = bench.run_suite([(i.iid, i.formula) for i in instances], [config], seeds, budget_flips=budget)
        summary = bench.summarize(recs, timeout=budget)
        bench.trials_to_csv(recs)
        bench.summary_to_csv(summary)
        par2 += sum(s.score for s in summary.per_solver.values())
        records += recs
    return RoundOutput(records, par2, [list(r.key()) for r in records])


class SlsPar2:
    """PAR2 batch of plain probSAT trials across three clause widths.

    Every budget is below the fewest flips any of these instances needs
    (k=3 n=5000 takes about 16k-30k flips to solve, n=12000 about
    47k-76k), so every trial spends its whole budget, like a PAR2
    timeout, and the work of a round is the same for every seed.
    """

    name = "sls-par2"
    # label, k, n, ratio, instances, seeds per instance, flip budget.
    # Trial times group by label (k5 < k3-n5000 < k7 < k3-n12000); the
    # counts put the median near the middle of the k3-n5000 group and
    # the 90th percentile inside the k3-n12000 group, away from group
    # edges, where one trial would move a quantile between groups.
    groups = (
        ("k3-n5000", 3, 5000, 4.2, 1, 8, 4_000),
        ("k3-n12000", 3, 12000, 4.2, 1, 6, 10_000),
        ("k5-n500", 5, 500, 20.0, 1, 8, 1_200),
        ("k7-n150", 7, 150, 85.0, 1, 4, 1_200),
    )

    def setup(self, seed, pace):
        return make_instances([g[:5] + (1.0,) for g in self.groups], seed, pace)

    def run(self, instances, seed, pace):
        groups = []
        for label, _k, _n, _r, _count, num_seeds, budget in self.groups:
            members = [i for i in instances if i.iid.startswith(label + "-")]
            groups.append((members, num_seeds, budget))
        return _suite_round(groups, bench.SolverConfig("probsat"), seed)


class HybridMine:
    """The paper's three-phase path with the miner doing most of the work.

    A 100-flip burst cannot solve these near-threshold instances, the
    miner runs to its conflict limit (or the k=5/k=7 early-stop cap), and
    the final SLS phase gets a budget small enough that CDCL stays the
    larger share.
    """

    name = "hybrid-mine"
    # Trial times group by width (k3 < k5 < k7); the counts put the
    # median in the middle of the k5 trials and the 90th percentile in
    # the middle of the k7 ones.
    groups = (
        ("k3-n300", 3, 300, 4.26, 2),
        ("k5-n120", 5, 120, 21.1, 4),
        ("k7-n60", 7, 60, 87.8, 2),
    )
    seeds_per_instance = 3
    config = bench.SolverConfig("hybrid", algorithm="hybrid", initial_flips=100, miner_conflict_limit=150)
    final_flips = 800

    def setup(self, seed, pace):
        return make_instances([g + (1.0,) for g in self.groups], seed, pace)

    def run(self, instances, seed, pace):
        return _suite_round([(instances, self.seeds_per_instance, self.final_flips)], self.config, seed)


class EnrichQuality:
    """The clause-quality experiment: pools, backbone, synthetic clause
    models and SLS on every enriched variant of small planted instances.

    Instances are planted deceptively (bias 0.618, as in the repo's
    acceptance criteria 1 and 2) so backbones are large enough for the
    deceptive model.  A trial is one instance's whole experiment: at this
    size single SLS runs take well under a millisecond and their times
    are heavy-tailed.  The level-2 pair budget binds on every instance
    (the full enumeration takes about 200k resolution attempts at n=20),
    so the step that does most of the work does the same amount for
    every seed.  Ternary saturation
    runs on separate n=7 instances; each is a unit of the round but not a
    trial.
    """

    name = "enrich-quality"
    main = ("k3-n20", 3, 20, 4.26, 20, 0.618)
    ternary = ("k3-n7", 3, 7, 4.2, 3, 1.0)
    pool_width = 4
    pair_budget = 10_000
    pool_sample = 20
    model_clauses = 20
    seeds_per_variant = 2
    flip_budget = 500

    def setup(self, seed, pace):
        return make_instances([self.main, self.ternary], seed, pace)

    def run(self, instances, seed, pace):
        records, payload, checks, trial_seconds, other_seconds = [], [], [], [], []
        aux = solver_seed(seed, _STRIDE - 1)
        for inst in instances:
            f, hidden = inst.formula, inst.hidden
            pace()
            t0 = time.perf_counter()
            if inst.iid.startswith(self.ternary[0] + "-"):
                derived = sorted(resolution.ternary_saturate(f))
                other_seconds.append(time.perf_counter() - t0)
                checks.append((derived, hidden, f"{inst.iid}: ternary clauses"))
                payload.append([inst.iid, derived])
                continue
            backbone = quality.compute_backbone(f, seed=aux)
            l1 = resolution.level1_resolvents(f, self.pool_width)
            l2 = resolution.level2_resolvents(f, self.pool_width, self.pair_budget)
            pool1, pool2 = sorted(l1.clauses), sorted(l2.clauses)
            q1 = quality.quality_report(pool1, hidden)
            q2 = quality.quality_report(pool2, hidden)
            s1 = resolution.sample_pool(l1, self.pool_sample, seed=aux)
            s2 = resolution.sample_pool(l2, self.pool_sample, seed=aux)
            additions = {"level1": s1, "level2": s2}
            if len(backbone) >= 3:  # the clause models need three backbone variables
                additions["general"] = quality.gen_general(hidden, backbone, self.model_clauses, seed=aux)
                additions["deceptive"] = quality.gen_deceptive(backbone, self.model_clauses, seed=aux)
            model_quality = {v: quality.quality_report(c, hidden).mean_quality for v, c in additions.items()}
            variants = {"base": f}
            variants.update((v, pipeline.augment(f, c)) for v, c in additions.items())
            for variant, g in variants.items():
                for j in range(self.seeds_per_variant):
                    res = sls.probsat_run(g, self.flip_budget, solver_seed(seed, j))
                    records.append(bench.TrialRecord(inst.iid, variant, res.seed, res.solved,
                                                     res.flips_used, res.wall_seconds))
            trial_seconds.append(time.perf_counter() - t0)
            checks.append(([(lit,) for lit in backbone], hidden, f"{inst.iid}: backbone literals"))
            checks.append((pool1, hidden, f"{inst.iid}: level-1 pool"))
            checks.append((pool2, hidden, f"{inst.iid}: level-2 pool"))
            for v, c in additions.items():
                checks.append((c, hidden, f"{inst.iid}: {v} additions"))
            payload.append([inst.iid, sorted(backbone), pool1, pool2, q1.mean_quality, q2.mean_quality,
                            model_quality, additions])
        summary = bench.summarize(records, timeout=self.flip_budget)
        par2 = sum(s.score for s in summary.per_solver.values())
        payload.append([list(r.key()) for r in records])
        return RoundOutput(records, par2, payload, checks, trial_seconds, other_seconds)


WORKLOADS = {w.name: w for w in (SlsPar2(), HybridMine(), EnrichQuality())}
