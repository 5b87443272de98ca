import hashlib
import json
import random

import pytest

import oracles
from satlab import cdcl
from satlab.cdcl import (
    BUDGET,
    SAT,
    UNSAT,
    CdclSolver,
    LearnedClauseRecord,
    MiningBudget,
    cdcl_solve_and_mine,
    filter_learned,
    luby,
)
from satlab.cnf import Formula, eval_formula
from satlab.generators import GenSpec, gen_planted, gen_uniform


def small_mixed_instances(count, seed0=0, n_range=(8, 14)):
    """Random 3-SAT instances spanning sat and unsat at varying ratios."""
    rng = random.Random(seed0)
    out = []
    for i in range(count):
        n = rng.randrange(*n_range)
        ratio = rng.choice([3.0, 4.3, 5.5, 7.0])
        out.append(gen_uniform(GenSpec(n=n, k=3, m=int(ratio * n), seed=seed0 * 1000 + i)))
    return out


def test_luby_sequence():
    assert [luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def test_trivial_unsat():
    f = Formula(2, [(1, 2), (-1,), (-2,)])
    out = cdcl_solve_and_mine(f, MiningBudget(wall_seconds=10), seed=0)
    assert out.status == UNSAT


def test_trivial_sat_model_verified():
    f = Formula(3, [(1, 2), (-1, 3), (-2,)])
    out = cdcl_solve_and_mine(f, MiningBudget(wall_seconds=10), seed=1)
    assert out.status == SAT
    assert eval_formula(f, out.model)


def test_empty_clause_is_unsat():
    f = Formula(2, [(), (1,)])
    assert cdcl_solve_and_mine(f, MiningBudget(), seed=0).status == UNSAT


def test_propagation_chain():
    f = Formula(3, [(-1, 2), (-2, 3), (1,)])
    out = cdcl_solve_and_mine(f, MiningBudget(), seed=0)
    assert out.status == SAT
    assert out.model[1] and out.model[2] and out.model[3]


def test_verdicts_match_enumeration():
    for f in small_mixed_instances(60, seed0=1):
        expected = oracles.is_satisfiable(f.num_vars, f.clauses)
        out = cdcl_solve_and_mine(f, MiningBudget(wall_seconds=30), seed=3)
        assert out.status == (SAT if expected else UNSAT)
        if out.status == SAT:
            assert eval_formula(f, out.model)


def test_learned_clauses_implied_by_formula():
    checked = 0
    for f in small_mixed_instances(40, seed0=2):
        out = cdcl_solve_and_mine(f, MiningBudget(wall_seconds=30, width_limit=20), seed=5)
        implied = oracles.implied_checker(f.num_vars, f.clauses)
        for record in out.records:
            assert implied(record.clause)
            checked += 1
    assert checked > 100


def test_learned_records_metadata():
    f = gen_uniform(GenSpec(n=20, k=3, ratio=5.2, seed=7))
    out = cdcl_solve_and_mine(f, MiningBudget(wall_seconds=30, width_limit=4), seed=2)
    solver = CdclSolver(f, seed=2)
    solver.solve(MiningBudget(wall_seconds=30, width_limit=f.num_vars))  # every learned clause qualifies
    assert len(solver.records) == out.total_learned_seen == out.conflicts
    for records in (out.records, solver.records):
        indices = [r.learn_index for r in records]
        assert indices == sorted(indices)
        for r in records:
            assert len({abs(l) for l in r.clause}) == len(r.clause)  # non-tautological
            assert r.clause == tuple(sorted(r.clause, key=abs))
    # mining keeps exactly the records of width <= 4, with their learn indices
    assert out.records == [r for r in solver.records if len(r.clause) <= 4]
    assert [r.learn_index for r in solver.records] == list(range(len(solver.records)))
    for c in out.learned:
        assert len(c) <= 4


def test_mining_under_conflict_budget_deterministic():
    f = gen_uniform(GenSpec(n=60, k=3, ratio=4.267, seed=11))
    budget = MiningBudget(wall_seconds=1e6, conflict_limit=200, width_limit=5)
    a = cdcl_solve_and_mine(f, budget, seed=9)
    b = cdcl_solve_and_mine(f, budget, seed=9)
    assert a.status == b.status
    assert a.learned == b.learned
    assert a.total_learned_seen == b.total_learned_seen
    assert a.conflicts == b.conflicts


def test_mining_early_stop_at_count_cap():
    f = gen_uniform(GenSpec(n=80, k=3, ratio=4.267, seed=13))
    budget = MiningBudget(wall_seconds=1e6, width_limit=6, count_cap=5, early_stop=True)
    out = cdcl_solve_and_mine(f, budget, seed=4)
    if out.status == BUDGET:
        assert len(out.learned) == 5
    else:
        assert out.status in (SAT, UNSAT)
    assert len(out.learned) <= 5


def test_width_filter_and_cap_postconditions():
    f = gen_uniform(GenSpec(n=50, k=3, ratio=4.5, seed=17))
    budget = MiningBudget(wall_seconds=1e6, conflict_limit=500, width_limit=3, count_cap=10)
    out = cdcl_solve_and_mine(f, budget, seed=8)
    assert len(out.learned) <= 10
    assert all(len(c) <= 3 for c in out.learned)
    assert len(set(out.learned)) == len(out.learned)


def test_filter_learned_modes():
    # a search's records of width <= 4: the width-5 clause learned at index 2 was not recorded
    records = [
        LearnedClauseRecord((1, 2), 0),
        LearnedClauseRecord((1, 2, 3, 4), 1),
        LearnedClauseRecord((2, 3, 4, 5), 3),
    ]
    assert filter_learned(records) == [(1, 2), (1, 2, 3, 4), (2, 3, 4, 5)]
    assert filter_learned(records, 2, "chronological") == [(1, 2), (1, 2, 3, 4)]
    fixed = filter_learned(records, 2, "random", seed=42)
    assert fixed == filter_learned(records, 2, "random", seed=42)
    assert len(fixed) == 2
    with pytest.raises(ValueError):
        filter_learned(records, 2, "nonsense")
    # without a seed, random mode used to seed from the operating system, so equal calls differed
    many = [LearnedClauseRecord((i, i + 1), i) for i in range(1, 51)]
    picked = filter_learned(many, 10, "random")
    assert len(picked) == 10 and picked == filter_learned(many, 10, "random")
    assert picked == filter_learned(many, 10, "random", seed=0)


def test_filter_learned_dedup():
    records = [
        LearnedClauseRecord((1, 2), 0),
        LearnedClauseRecord((1, 2), 1),
        LearnedClauseRecord((3, 4), 2),
    ]
    assert filter_learned(records) == [(1, 2), (3, 4)]


def test_budget_validation():
    with pytest.raises(ValueError):
        MiningBudget(wall_seconds=0)
    with pytest.raises(ValueError, match="wall_seconds must be positive"):
        MiningBudget(wall_seconds=json.loads("NaN"))  # NaN fails every comparison
    MiningBudget(wall_seconds=json.loads("Infinity"))  # no clock bound, as the backbone's solves run
    with pytest.raises(ValueError):
        MiningBudget(width_limit=0)
    with pytest.raises(ValueError):
        MiningBudget(count_cap=-1)
    # a count that is not an integer used to crash inside the kernel call
    for name, value in (("conflict_limit", 2.5), ("width_limit", 3.5), ("count_cap", json.loads("1e3"))):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            MiningBudget(**{name: value})


def test_planted_instances_solved():
    for seed in range(10):
        f, hidden = gen_planted(GenSpec(n=40, k=3, ratio=4.2, seed=seed + 300))
        out = cdcl_solve_and_mine(f, MiningBudget(wall_seconds=60), seed=seed)
        assert out.status == SAT
        assert eval_formula(f, out.model)


def test_decision_heap_stays_bounded_and_decisions_unchanged():
    class Watched(CdclSolver):
        longest = 0

        def _push(self, v):
            super()._push(v)
            self.longest = max(self.longest, len(self._heap))

    f = gen_uniform(GenSpec(n=250, k=3, ratio=4.26, seed=5))
    solver = Watched(f, seed=11)
    assert solver.solve(MiningBudget(conflict_limit=5000, width_limit=f.num_vars)) == BUDGET
    assert solver.conflicts == 5000
    assert solver.var_inc < 1e20  # the 1e100 activity rescale fired (0.95 ** -5000 is about 1e111)
    # the heap was rebuilt at least once and never held more than 4 entries per variable;
    # without the bound it ends this run with 46,524
    assert f.num_vars < solver.longest <= cdcl._HEAP_SLACK * f.num_vars
    # the digest these records had before the heap was bounded
    stream = repr([(r.clause, r.learn_index) for r in solver.records]).encode()
    assert hashlib.sha256(stream).hexdigest()[:16] == "c20597860904277e"
