import random

import pytest

import oracles
from satlab.cnf import Formula
from satlab.generators import GenSpec, gen_planted, gen_uniform
from satlab.sls import (
    FLIPS_EXHAUSTED,
    SOLVED,
    ScoringFunction,
    SlsState,
    default_scoring,
    probsat_run,
)


def assert_matches_scratch(state):
    breaks, falsified = oracles.scratch_break_counts(
        state.formula.num_vars, state.formula.clauses, state.assign
    )
    assert state.breaks == breaks
    assert set(state.falsified) == falsified
    state.check_consistency()


def test_scoring_validation():
    with pytest.raises(ValueError):
        ScoringFunction("poly", cb=0.5)
    with pytest.raises(ValueError):
        ScoringFunction("poly", cb=2.0, epsilon=0.0)
    with pytest.raises(ValueError):
        ScoringFunction("huh", cb=2.0)
    # NaN fails every comparison, so it passed the `<=` checks
    for kind in ("poly", "exp"):
        with pytest.raises(ValueError, match="cb must exceed 1"):
            ScoringFunction(kind, cb=float("nan"))
    with pytest.raises(ValueError, match="epsilon must be positive"):
        ScoringFunction("poly", cb=2.0, epsilon=float("nan"))


def test_default_scoring_by_width():
    assert default_scoring(3) == ScoringFunction("poly", cb=2.06, epsilon=0.9)
    assert default_scoring(5) == ScoringFunction("exp", cb=3.7)
    assert default_scoring(7) == ScoringFunction("exp", cb=5.4)
    assert default_scoring(4) == ScoringFunction("exp", cb=3.0)


def test_init_state_registry_consistent():
    f = Formula(1, [(1,)])
    for seed in range(4):
        state = SlsState(f, seed)
        if state.assign[1]:
            assert state.falsified == []
        else:
            assert state.falsified == [0]


def test_init_state_deterministic():
    f = gen_uniform(GenSpec(n=30, k=3, ratio=4.2, seed=2))
    a = SlsState(f, 99)
    b = SlsState(f, 99)
    assert a.assign == b.assign
    assert a.breaks == b.breaks


def test_init_state_matches_scratch_oracle():
    for seed in range(10):
        f = gen_uniform(GenSpec(n=40, k=3, ratio=4.2, seed=seed))
        assert_matches_scratch(SlsState(f, seed * 7 + 1))


def test_break_count_single_clause():
    f = Formula(2, [(1, 2)])
    state = SlsState(f, 0, assignment=[False, True, False])
    assert state.break_count(1) == 1
    assert state.break_count(2) == 0
    state2 = SlsState(f, 0, assignment=[False, True, True])
    assert state2.break_count(1) == 0


def test_flip_involution():
    f = gen_uniform(GenSpec(n=20, k=3, ratio=4.0, seed=5))
    state = SlsState(f, 3)
    before = (list(state.assign), list(state.breaks), set(state.falsified), list(state.sat_counts))
    state.flip(7)
    state.flip(7)
    after = (list(state.assign), list(state.breaks), set(state.falsified), list(state.sat_counts))
    assert before == after


def test_flip_unit_clause_clears_registry():
    f = Formula(1, [(1,)])
    state = SlsState(f, 0, assignment=[False, False])
    assert state.falsified == [0]
    state.flip(1)
    assert state.falsified == []
    assert state.break_count(1) == 1


def test_incremental_matches_scratch_after_many_flips():
    rng = random.Random(1234)
    for seed in range(5):
        f = gen_uniform(GenSpec(n=50, k=3, ratio=4.2, seed=seed))
        state = SlsState(f, seed)
        for _ in range(10_000):
            state.flip(rng.randrange(1, 51))
        assert_matches_scratch(state)


def test_flips_with_tautological_clause():
    f = Formula(3, [(1, -1, 2), (2, 3), (-2, -3)])
    state = SlsState(f, 0, assignment=[False, False, False, False])
    for v in (1, 2, 3, 2, 1, 3, 2):
        state.flip(v)
        assert_matches_scratch(state)


def test_flip_distribution_poly():
    # two variables with breaks (0, 1): f = (1, 1/2) under poly eps=1 cb=1... cb>1
    # use exp(cb=2): f = (1, 1/2) -> probabilities (2/3, 1/3)
    f = Formula(2, [(1, 2), (-1,)])
    state = SlsState(f, 0, assignment=[False, False, False])
    state.scoring = ScoringFunction("exp", cb=2.0)
    state.f_table = state.scoring.table(4)
    # clause 0 falsified; break(1)=1 (flipping 1 breaks clause 1), break(2)=0
    assert state.falsified == [0]
    assert state.breaks[1] == 1 and state.breaks[2] == 0
    dist = state.flip_distribution(0)
    assert dist == pytest.approx([1 / 3, 2 / 3], abs=1e-12)


def test_flip_distribution_symmetry_and_errors():
    f = Formula(3, [(1, 2, 3)])
    state = SlsState(f, 0, assignment=[False, False, False, False])
    state.scoring = ScoringFunction("exp", cb=2.0)
    state.f_table = state.scoring.table(4)
    assert state.flip_distribution(0) == pytest.approx([1 / 3, 1 / 3, 1 / 3])
    state.flip(1)
    with pytest.raises(ValueError):
        state.flip_distribution(0)


def test_flip_distribution_matches_f_ratios_random_states():
    rng = random.Random(9)
    for trial in range(200):
        f = gen_uniform(GenSpec(n=20, k=3, ratio=4.3, seed=trial))
        scoring = ScoringFunction("poly", cb=2.06) if trial % 2 else ScoringFunction("exp", cb=3.7)
        state = SlsState(f, trial, scoring)
        for _ in range(30):
            state.flip(rng.randrange(1, 21))
        if not state.falsified:
            continue
        cid = state.falsified[0]
        dist = state.flip_distribution(cid)
        assert abs(sum(dist) - 1.0) < 1e-9
        raw = [scoring.value(state.breaks[abs(l)]) for l in f.clauses[cid]]
        total = sum(raw)
        for p, w in zip(dist, raw):
            assert abs(p - w / total) <= 1e-9 * max(1.0, abs(p))


def test_probsat_solves_unit():
    f = Formula(1, [(1,)])
    res = probsat_run(f, 10, seed=4)
    assert res.status == SOLVED
    assert res.flips_used <= 1
    assert res.model[1] is True


def test_probsat_unsat_exhausts():
    f = Formula(1, [(1,), (-1,)])
    res = probsat_run(f, 100, seed=0)
    assert res.status == FLIPS_EXHAUSTED
    assert res.flips_used == 100
    assert res.model is None


def test_probsat_empty_clause_short_circuit():
    f = Formula(2, [(), (1,)])
    res = probsat_run(f, 50, seed=1)
    assert res.status == FLIPS_EXHAUSTED
    assert res.flips_used == 0


def test_formula_without_variables_or_clauses_is_sat_everywhere(monkeypatch):
    # only an empty clause makes a formula unsatisfiable; no variables is no obstacle
    from satlab import _native
    from satlab.cdcl import SAT, MiningBudget, cdcl_solve_and_mine
    from satlab.pipeline import run_hybrid

    empty = Formula(0, [])
    assert cdcl_solve_and_mine(empty, MiningBudget(conflict_limit=10), seed=0).status == SAT
    assert run_hybrid(empty, seed=0, final_flips=10).status == "sat"
    with_kernel = probsat_run(empty, 10, seed=0)
    monkeypatch.setattr(_native, "load", lambda: None)
    without_kernel = probsat_run(empty, 10, seed=0)
    for res in (with_kernel, without_kernel):
        assert (res.status, res.flips_used, res.model) == (SOLVED, 0, [False])


@pytest.mark.parametrize("engine", ["native", "reference"])
def test_probsat_rejects_a_nan_wall_limit(engine, request, monkeypatch):
    # every `elapsed > nan` is false, so a NaN limit used to run the whole flip budget
    if engine == "native":
        request.getfixturevalue("kernel")
    else:
        request.getfixturevalue("reference_only")
    f = gen_uniform(GenSpec(n=200, k=3, ratio=5.0, seed=1))
    with pytest.raises(ValueError, match="wall_limit must be a number of seconds, got nan"):
        probsat_run(f, 300_000, 1, wall_limit=float("nan"))
    # a limit that has run out, as run_hybrid may pass, stops at the first poll
    for limit in (0.0, -1.0):
        res = probsat_run(f, 300_000, 1, wall_limit=limit)
        assert (res.status, res.flips_used) == (FLIPS_EXHAUSTED, 0)


def test_probsat_determinism():
    f = gen_uniform(GenSpec(n=40, k=3, ratio=4.2, seed=8))
    a = probsat_run(f, 5000, seed=77)
    b = probsat_run(f, 5000, seed=77)
    assert (a.status, a.flips_used, a.model) == (b.status, b.flips_used, b.model)


def test_probsat_returned_models_satisfy():
    solved = 0
    for seed in range(20):
        f, _ = gen_planted(GenSpec(n=30, k=3, ratio=4.0, seed=seed))
        res = probsat_run(f, 200_000, seed=seed)
        if res.solved:
            solved += 1
            breaks, falsified = oracles.scratch_break_counts(f.num_vars, f.clauses, res.model)
            assert not falsified
    assert solved == 20


def test_probsat_planted_instances_nearly_always_solved():
    solved = 0
    for seed in range(100):
        f, _ = gen_planted(GenSpec(n=50, k=3, ratio=4.2, seed=1000 + seed))
        if probsat_run(f, 1_000_000, seed=seed).solved:
            solved += 1
    assert solved >= 99


def test_smaller_break_means_larger_probability():
    f = Formula(3, [(1, 2, 3), (-1, 2), (-1, 3)])
    state = SlsState(f, 0, assignment=[False, False, False, False])
    for scoring in (ScoringFunction("poly", cb=2.06), ScoringFunction("exp", cb=3.7)):
        state.scoring = scoring
        state.f_table = scoring.table(8)
        # break(1)=0? flipping 1 satisfies clause 0; clause 1,2 unsatisfied now...
        dist = state.flip_distribution(0)
        pairs = sorted(zip([state.breaks[v] for v in (1, 2, 3)], dist))
        for (b1, p1), (b2, p2) in zip(pairs, pairs[1:]):
            if b1 < b2:
                assert p1 > p2
