"""Differential tests: the compiled CDCL kernel against `CdclSolver`.

`cdcl_solve_and_mine` runs the kernel whenever it loads, and `CdclSolver`
when the loader returns None.  For equal arguments both must return an
equal `MiningOutcome`: status, model, exported clauses, learned count,
conflicts and records.  A backbone query, whose literals `cdcl_backbone`
passes to a search as unit clauses, must equal the reference's search
of the formula with them appended.
"""

import random

import pytest

from satlab import _native, cdcl
from satlab.cdcl import BUDGET, SAT, UNSAT, CdclSolver, MiningBudget, cdcl_solve_and_mine
from satlab.cnf import Formula
from satlab.generators import GenSpec, gen_planted, gen_uniform
from satlab.quality import BackboneBudgetError, FormulaUnsatisfiableError, compute_backbone

NO_WALL = 1e9
# (solver seed, conflict limits): the kernel draws its initial phases from the
# seed's key, here of one, two and seven words
SEED_LIMITS = ((7, (0, 1, 150, 2_500)), (-12, (0, 1, 150, 2_500)),
               (0, (1, 150)), (-7, (1, 150)), (2**32, (1, 150)), (2**200, (1, 150)))


def reference(search, *args):
    """`search(*args)` with every module on its Python reference."""
    real = _native.load
    _native.load = lambda: None
    try:
        return search(*args)
    finally:
        _native.load = real


def assert_same(formula, budget, seed):
    fast = cdcl_solve_and_mine(formula, budget, seed)
    ref = reference(cdcl_solve_and_mine, formula, budget, seed)
    assert fast == ref, f"{formula!r} {budget} seed={seed}"
    assert all(len(r.clause) <= budget.width_limit for r in fast.records)
    return fast


# (k, n, ratio): near the threshold, so runs end sat, unsat or on their budget
SHAPES = ((3, 60, 4.26), (3, 150, 4.26), (5, 40, 21.1), (7, 25, 88.0))


@pytest.mark.parametrize("k,n,ratio", SHAPES)
def test_kernel_matches_reference_on_generated_formulas(kernel, k, n, ratio):
    statuses = set()
    for i in range(2):
        planted, _ = gen_planted(GenSpec(n=n, k=k, ratio=ratio, seed=300 + i))
        uniform = gen_uniform(GenSpec(n=n, k=k, ratio=ratio, seed=400 + i))
        for formula in (planted, uniform):
            # solver seeds away from the instance seeds: gen_planted draws the
            # same first n booleans as the solver's initial phases
            for seed, limits in SEED_LIMITS:
                for limit in limits:
                    out = assert_same(formula, MiningBudget(NO_WALL, limit, width_limit=k + 1), seed)
                    statuses.add(out.status)
                    if out.status == BUDGET:
                        assert out.conflicts == max(limit, 1)
    assert BUDGET in statuses and SAT in statuses


# (k, n, ratio, instance seed): runs that end unsat, and one on its conflict limit,
# each learning some clauses shorter than its input clauses
CONTRACT_CASES = ((3, 60, 4.26, 0), (5, 30, 21.1, 2), (5, 40, 25.0, 0))


@pytest.mark.parametrize("k,n,ratio,instance", CONTRACT_CASES)
def test_cdcl_solver_records_what_the_kernel_records(kernel, k, n, ratio, instance):
    """`CdclSolver.solve(budget)` itself, not only `_search`, keeps exactly
    the kernel's records: under a width limit below the clause widths, and
    one that every learned clause meets."""
    formula = gen_uniform(GenSpec(n=n, k=k, ratio=ratio, seed=instance))
    for width in (k - 1, formula.num_vars):
        budget = MiningBudget(NO_WALL, 3_000, width_limit=width)
        solver = CdclSolver(formula, 6)
        status = solver.solve(budget)
        fast = cdcl_solve_and_mine(formula, budget, 6)
        assert (status, solver.conflicts) == (fast.status, fast.conflicts)
        assert solver.records == fast.records and solver.records
        assert max(len(r.clause) for r in solver.records) <= width
    assert len(solver.records) == solver.conflicts  # the last limit keeps every learned clause


def test_kernel_matches_reference_over_db_reductions_and_the_activity_rescale(kernel):
    """6,000 conflicts: the learned DB is reduced (past 2,000 clauses) and
    the activities are rescaled (past 1e100, after about 4,490 conflicts)."""
    k3 = gen_uniform(GenSpec(n=250, k=3, ratio=4.26, seed=5))
    k5 = gen_uniform(GenSpec(n=60, k=5, ratio=21.1, seed=8))
    for formula, width, seed in ((k3, 4, 11), (k5, 30, 3)):
        out = assert_same(formula, MiningBudget(NO_WALL, 6_000, width_limit=width), seed)
        assert (out.status, out.conflicts, out.total_learned_seen) == (BUDGET, 6_000, 6_000)
        assert out.records
    # width 30 keeps every clause of the k=5 run; one of them is learned twice
    assert len(out.records) == 6_000 and len(out.learned) == 5_999


def test_kernel_matches_reference_on_early_stop_and_width_limits(kernel):
    k5 = gen_uniform(GenSpec(n=120, k=5, ratio=21.1, seed=9))
    conflicts = []
    for cap in (0, 5, 40, 10**30):
        out = assert_same(k5, MiningBudget(NO_WALL, 2_000, width_limit=8, count_cap=cap, early_stop=True), 4)
        assert len(out.learned) == min(cap, len(out.learned))
        conflicts.append(out.conflicts)
    assert conflicts[0] == 1 and conflicts[1] < conflicts[2] < conflicts[3] == 2_000
    k3 = gen_uniform(GenSpec(n=200, k=3, ratio=4.26, seed=10))
    for width in (1, 4, 30):
        for early_stop in (True, False):
            budget = MiningBudget(NO_WALL, 3_000, width_limit=width, count_cap=7, early_stop=early_stop)
            out = assert_same(k3, budget, 2)
            assert len(out.learned) <= 7
    # no cap without early stop, and early stop without a cap, run to the limit
    for budget in (MiningBudget(NO_WALL, 500, width_limit=6, count_cap=3),
                   MiningBudget(NO_WALL, 500, width_limit=6, early_stop=True)):
        assert assert_same(k3, budget, 2).conflicts == 500
    # the cap counts distinct clauses, not records: a clause learned again at
    # conflict 2,006 leaves 2,005 distinct, so the 2,006th comes one conflict later
    k5 = gen_uniform(GenSpec(n=60, k=5, ratio=21.1, seed=1))
    out = assert_same(k5, MiningBudget(NO_WALL, 3_000, width_limit=60, count_cap=2_006, early_stop=True), 1)
    assert (out.conflicts, len(out.records), len(out.learned)) == (2_007, 2_007, 2_006)
    clauses = [r.clause for r in out.records]
    assert len(set(clauses[:2_005])) == 2_005 and clauses[2_005] in clauses[:2_005]


def test_kernel_matches_reference_on_edge_formulas(kernel):
    formulas = [
        Formula(0, []),
        Formula(3, []),
        Formula(0, [()]),
        Formula(2, [(), (1,)]),
        Formula(2, [(1,), ()]),
        Formula(1, [(1,)]),
        Formula(1, [(1,), (-1,)]),
        Formula(2, [(1, 2), (-1,), (-2,)]),
        Formula(3, [(-1, 2), (-2, 3), (1,)]),
        Formula(3, [(1, 2), (-1, 3), (-2,)]),
        Formula(2, [(1, 2), (1, -2), (-1, 2), (-1, -2)]),
        Formula(3, [(1, -1, 2), (2, 3), (-2, -3), (3, -1)]),
        Formula(4, [(-4,), (4, 1, 2), (-1, -2), (3, -1, 2)]),
    ]
    statuses = set()
    for formula in formulas:
        for seed in (0, 5, -3, 2**70):
            for limit in (0, 1, None):
                statuses.add(assert_same(formula, MiningBudget(NO_WALL, limit), seed).status)
    assert statuses == {SAT, UNSAT, BUDGET}
    assert cdcl_solve_and_mine(Formula(2, [(1,), (-1, 2), (-2,)]), MiningBudget(), 0).status == UNSAT
    # budgets beyond 64 bits mean no limit, as in the reference
    huge = MiningBudget(NO_WALL, 2**70, width_limit=2**70, count_cap=2**70, early_stop=True)
    out = assert_same(gen_uniform(GenSpec(n=30, k=3, ratio=4.26, seed=1)), huge, 3)
    assert out.status in (SAT, UNSAT) and out.conflicts > 0 and len(out.records) == out.conflicts


def test_kernel_matches_reference_on_small_random_formulas(kernel):
    """Clauses drawn unsorted and with repeats, which `Formula` canonicalises,
    and tautologies, with units and conflicts at level 0."""
    rng = random.Random(2024)
    statuses = set()
    for _ in range(300):
        n = rng.randint(1, 9)
        clauses = [[rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 4))]
                   for _ in range(rng.randint(1, 5 * n))]
        formula = Formula(n, clauses)
        budget = MiningBudget(NO_WALL, rng.choice((None, 0, 3, 40)), width_limit=rng.randint(1, 5),
                              count_cap=rng.choice((None, 0, 2)), early_stop=rng.random() < 0.5)
        statuses.add(assert_same(formula, budget, rng.randint(-2**40, 2**40)).status)
    assert statuses == {SAT, UNSAT, BUDGET}


def test_wall_limit_stops_the_kernel(kernel):
    hard = gen_uniform(GenSpec(n=400, k=3, ratio=4.26, seed=21))
    out = cdcl_solve_and_mine(hard, MiningBudget(wall_seconds=0.05), seed=1)
    assert out.status == BUDGET
    assert out.conflicts > 0 and out.conflicts % 64 == 0  # the clock is polled every 64 conflicts
    assert out.total_learned_seen == out.conflicts


def test_mining_without_kernel_gives_the_same_results(monkeypatch):
    cases = [(gen_uniform(GenSpec(n=80, k=3, ratio=4.26, seed=s)), MiningBudget(NO_WALL, 300), s + 50)
             for s in range(4)]
    cases.append((gen_uniform(GenSpec(n=50, k=5, ratio=21.1, seed=2)),
                  MiningBudget(NO_WALL, 1_000, width_limit=8, count_cap=10, early_stop=True), 3))
    cases.append((Formula(2, [(1, 2), (-1,), (-2,)]), MiningBudget(), 0))
    expected = [cdcl_solve_and_mine(*case) for case in cases]
    monkeypatch.setattr(_native, "load", lambda: None)
    assert [cdcl_solve_and_mine(*case) for case in cases] == expected


def backbone_searches(formula, seed, limit):
    """`compute_backbone`'s backbone, or its error's type, message and
    `confirmed`, and every model it checked, in the order checked."""
    models = []
    real = cdcl.eval_formula
    cdcl.eval_formula = lambda f, model: models.append(bytes(model)) or real(f, model)
    try:
        return compute_backbone(formula, seed, limit), models
    except (FormulaUnsatisfiableError, BackboneBudgetError) as exc:
        return (type(exc), str(exc), getattr(exc, "confirmed", None)), models
    finally:
        cdcl.eval_formula = real


def assert_backbones_equal(formula, seed, limit=None):
    """The kernel's backbone, whose queries pass their literals to
    `new_state` as units, equals the reference's, which searches the
    formula with them appended: the same outcome and the same models in the
    same order, so the same searches ran."""
    fast = backbone_searches(formula, seed, limit)
    assert fast == reference(backbone_searches, formula, seed, limit), f"{formula!r} seed={seed} limit={limit}"
    return fast[0]


def test_units_count_in_the_reduce_cap(kernel):
    """A query's units count in its DB-reduction cap, max(2000, m + units).

    30 forced unit clauses, a guard x, a uniform k=3 core with x added to
    every clause, and tautologies up to m = 2,000 clauses.  The first model
    sets x, so x's query is the core with all 30 forced literals confirmed:
    31 units, a cap of 2,031, and a search past it to a model.  With a cap
    of 2,000 the kernel finds another model."""
    core = gen_uniform(GenSpec(n=160, k=3, ratio=4.2, seed=6))
    forced, x, seed = 30, 31, 2
    clauses = [(v,) for v in range(1, forced + 1)]
    clauses += [(x, *(lit + x if lit > 0 else lit - x for lit in clause)) for clause in core.clauses]
    clauses += [(1, -1)] * (2_000 - len(clauses))
    formula = Formula(x + core.num_vars, clauses)
    backbone = assert_backbones_equal(formula, seed)
    assert backbone == set(range(1, forced + 1))
    # the forced units repeat the formula's, and are appended all the same
    query = Formula(formula.num_vars, formula.clauses + tuple((u,) for u in (*range(1, forced + 1), -x)))
    out = cdcl_solve_and_mine(query, MiningBudget(NO_WALL, width_limit=query.num_vars), seed)
    # every learned clause of width >= 2 enters the DB: more than the cap,
    # with one to spare, means a reduction
    assert out.status == SAT and sum(len(r.clause) >= 2 for r in out.records) > 2_000 + forced + 1 + 1


def test_units_equal_the_extended_formula_on_edge_cases(kernel):
    """Backbone queries whose units contradict a formula unit, are implied
    by the formula's units, or end on a conflict limit mid-way."""
    implied = Formula(4, [(1,), (-1, 2), (-2, 3, 4), (-3, -4), (3, -4, 1)])
    planted, _ = gen_planted(GenSpec(n=40, k=3, ratio=4.26, seed=3))
    hard = gen_uniform(GenSpec(n=60, k=3, ratio=4.26, seed=2))
    formulas = [implied, planted, hard, Formula(3, [(1, 2), ()]), Formula(3, []), Formula(3, [(2,), (-2, 3)])]
    kinds = set()
    for formula in formulas:
        for seed in (0, 5):
            for limit in (0, 1, 200, None):
                out = assert_backbones_equal(formula, seed, limit)
                kinds.add(out[0] if isinstance(out, tuple) else frozenset)
    assert kinds == {frozenset, FormulaUnsatisfiableError, BackboneBudgetError}
