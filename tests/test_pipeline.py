import json
import random
from collections import Counter
from dataclasses import replace

import pytest

import oracles
from satlab import _native, cdcl, pipeline, sls
from satlab.cnf import Formula
from satlab.generators import GenSpec, gen_planted, gen_uniform
from satlab.pipeline import (
    FALLBACK,
    PLAIN_SLS,
    SolveResult,
    Strategy,
    augment,
    run_hybrid,
    select_strategy,
)
from satlab.sls import ScoringFunction, probsat_run


def formula_with(n, width):
    clause = tuple(range(1, width + 1))
    return Formula(n, [clause])


DISPATCH_TABLE = {
    # (n, max width) -> (track, initial flips, width limit, cap %, early stop)
    (8999, 3): ("k3", 35_000_000, 4, None, False),
    (8999, 4): (FALLBACK, None, None, None, None),
    (8999, 5): ("k5", 15_000_000, 8, 5.0, True),
    (8999, 6): (FALLBACK, None, None, None, None),
    (8999, 7): ("k7", 6_000_000, 9, 1.0, True),
    (8999, 8): (FALLBACK, None, None, None, None),
    (9000, 3): ("k3", 35_000_000, 4, None, False),
    (9000, 4): (FALLBACK, None, None, None, None),
    (9000, 5): ("k5", 15_000_000, 8, 5.0, True),
    (9000, 6): (FALLBACK, None, None, None, None),
    (9000, 7): ("k7", 6_000_000, 9, 1.0, True),
    (9000, 8): (FALLBACK, None, None, None, None),
    (9001, 3): (PLAIN_SLS, None, None, None, None),
    (9001, 4): (PLAIN_SLS, None, None, None, None),
    (9001, 5): (PLAIN_SLS, None, None, None, None),
    (9001, 6): (PLAIN_SLS, None, None, None, None),
    (9001, 7): (PLAIN_SLS, None, None, None, None),
    (9001, 8): (PLAIN_SLS, None, None, None, None),
}


@pytest.mark.parametrize("key", sorted(DISPATCH_TABLE))
def test_dispatch_table(key):
    n, width = key
    track, flips, w_limit, cap, early = DISPATCH_TABLE[key]
    strat = select_strategy(formula_with(n, width))
    assert strat.track == track
    if flips is not None:
        assert strat.initial_flips == flips
        assert strat.width_limit == w_limit
        assert strat.count_cap_percent == cap
        assert strat.early_stop == early
        assert strat.miner_seconds == 300.0


def test_dispatch_scoring():
    assert select_strategy(formula_with(100, 3)).scoring == ScoringFunction("poly", cb=2.06, epsilon=0.9)
    assert select_strategy(formula_with(100, 5)).scoring == ScoringFunction("exp", cb=3.7)
    assert select_strategy(formula_with(100, 4)).scoring == ScoringFunction("exp", cb=3.0)
    assert select_strategy(formula_with(20000, 3)).scoring == ScoringFunction("poly", cb=2.06, epsilon=0.9)


def test_overrides_replace_named_fields_only():
    f = formula_with(100, 5)
    base = select_strategy(f)
    assert select_strategy(f, width_limit=None, scoring=None) == base
    exp = ScoringFunction("exp", cb=2.5)
    strat = select_strategy(f, initial_flips=7, count_cap_percent=2.0, scoring=exp, early_stop=False)
    assert strat == Strategy("k5", 7, 300.0, 8, 2.0, False, exp)
    with pytest.raises(TypeError, match="initial_flip"):
        select_strategy(f, initial_flip=7)
    with pytest.raises(TypeError):
        select_strategy(f, cap_percent=None)


@pytest.mark.parametrize("track", [FALLBACK, PLAIN_SLS])
def test_sls_only_tracks_reject_overrides_they_ignore(track):
    f = gen_uniform(GenSpec(n=60, k=4, ratio=9.9, seed=3)) if track == FALLBACK else formula_with(9001, 3)
    exp = ScoringFunction("exp", cb=2.5)
    assert select_strategy(f, scoring=exp) == replace(select_strategy(f), scoring=exp)
    assert select_strategy(f, initial_flips=None, width_limit=None).track == track
    with pytest.raises(ValueError, match=f"{track}.*'initial_flips'"):
        select_strategy(f, initial_flips=5, width_limit=3)
    for name, value in (("miner_seconds", 1.0), ("width_limit", 3), ("count_cap_percent", 5.0),
                        ("early_stop", True), ("miner_conflict_limit", 5)):
        with pytest.raises(ValueError, match=f"{track}.*'{name}'"):
            select_strategy(f, scoring=exp, **{name: value})


def test_track_is_not_an_override():
    f = gen_uniform(GenSpec(n=60, k=4, ratio=9.9, seed=3))
    with pytest.raises(ValueError, match="'fallback'.*track='k3'"):
        select_strategy(f, track="k3")
    k3 = formula_with(100, 3)
    for track in (FALLBACK, "k3"):
        with pytest.raises(ValueError, match="'k3'.*track="):
            select_strategy(k3, track=track)
    assert select_strategy(k3, track=None) == select_strategy(k3)


# settings out of range on a three-phase track: each used to reach the miner as a
# per-trial crash note, or to be clamped without a note
OUT_OF_RANGE = [("initial_flips", -5), ("miner_seconds", 0.0), ("miner_seconds", -3.0),
                ("miner_seconds", float("nan")), ("width_limit", 0), ("count_cap_percent", -1.0),
                ("miner_conflict_limit", -1), ("initial_flips", "100"), ("miner_conflict_limit", "50"),
                # a count that is not an integer used to crash every trial inside the kernel call
                ("initial_flips", 1.5), ("miner_conflict_limit", 2.5), ("width_limit", 3.5),
                ("initial_flips", json.loads("1e3"))]


@pytest.mark.parametrize("name, value", OUT_OF_RANGE)
def test_select_strategy_rejects_a_setting_out_of_range(name, value):
    for width in (3, 5, 7):
        with pytest.raises(ValueError, match=f"{name} must be .* on the k{width} track"):
            select_strategy(formula_with(150, width), **{name: value})


def test_settings_at_the_edge_of_their_range_are_accepted():
    edge = dict(initial_flips=0, miner_seconds=1e-6, width_limit=1, count_cap_percent=0.0, miner_conflict_limit=0)
    strategy = select_strategy(formula_with(150, 3), **edge)
    assert [getattr(strategy, name) for name in edge] == list(edge.values())


def test_augment_identity_and_dedup():
    f = Formula(4, [(1, 2), (3, 4)])
    assert frozenset(augment(f, []).clauses) == frozenset(f.clauses)
    assert frozenset(augment(f, [(2, 1)]).clauses) == frozenset(f.clauses)
    g = augment(f, [(1, 3), (1, 3)])
    assert g.num_clauses == 3
    assert frozenset(g.clauses) == frozenset(f.clauses) | {(1, 3)}
    assert f.num_clauses == 2  # original untouched


def test_augment_drops_clauses_with_the_literal_set_of_an_existing_one():
    f = Formula(3, [(2, 1), (3, -1)])
    assert augment(f, [(1, 2), (-1, 3)]).clauses == f.clauses
    g = augment(f, [(3, 1), (-1, 3, 2), (2, 3, -1)])
    assert g.clauses == f.clauses + ((1, 3), (-1, 2, 3))
    # a subset or superset of a clause is not a duplicate; the empty clause is looked up too
    assert augment(f, [(1,), (1, 2, 3)]).clauses == f.clauses + ((1,), (1, 2, 3))
    assert augment(f, [()]).clauses == f.clauses + ((),)
    assert augment(Formula(3, [(1,), ()]), [(), ()]).num_clauses == 2


def test_augment_out_of_range():
    f = Formula(2, [(1, 2)])
    with pytest.raises(ValueError):
        augment(f, [(1, 5)])


def _augment_outcome(formula, additions):
    """Every flat array and recorded fact of `augment(formula, additions)`,
    or the message of its ValueError."""
    try:
        g = augment(formula, additions)
    except ValueError as exc:
        return str(exc)
    return (g.num_vars, g.offsets, g.literals, g.occ_offsets, g.occ, g.max_occurrences, g.max_width,
            g.has_empty_clause())


def _random_additions(rng, f, count):
    """`count` additions to `f`, each of one kind, with the kinds drawn."""
    n, out, kinds = f.num_vars, [], Counter()
    for _ in range(count):
        kind = rng.choice(("existing", "existing", "empty", "tautology", "repeat", "repeat", "new", "new",
                           "new", "out of range"))
        if kind == "existing" and f.num_clauses:
            clause = list(f.clauses[rng.randrange(f.num_clauses)])
        elif kind == "empty":
            clause = []
        elif kind == "repeat" and out:
            clause = list(rng.choice(out))
        else:
            clause = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), rng.randint(1, min(n, 4)))]
            if kind == "tautology":
                clause.append(-clause[0])
            elif kind == "out of range" and rng.random() < 0.2:
                clause.append(rng.choice((0, n + 1, -(n + 2))))
            else:
                kind = "new"
        if clause and rng.random() < 0.3:
            clause.append(rng.choice(clause))  # a repeated literal
        rng.shuffle(clause)
        out.append(tuple(clause))
        kinds[kind] += 1
    return out, kinds


def test_augment_kernel_equals_the_reference_on_random_additions(kernel, monkeypatch):
    rng = random.Random(22)
    seen = Counter()
    cases = []
    for trial in range(300):
        n = rng.choice((3, 6, 20))
        base = [tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), rng.randint(1, 3)))
                for _ in range(rng.randint(0, 3 * n))]
        if rng.random() < 0.3:
            base.append(())
        f = Formula(n, base)
        additions, kinds = _random_additions(rng, f, rng.randint(0, 12))
        cases.append((f, additions))
        seen.update(kinds)
        seen["empty in formula"] += f.has_empty_clause()
    big = gen_uniform(GenSpec(n=40, k=3, ratio=4.0, seed=9))
    cases.append((big, _random_additions(random.Random(23), big, 2_000)[0]))  # past one rehash of the set
    fast = [_augment_outcome(f, additions) for f, additions in cases]
    monkeypatch.setattr(_native, "load", lambda: None)
    for (f, additions), outcome in zip(cases, fast):
        assert outcome == _augment_outcome(f, additions), (f.clauses, additions)
    seen["error"] = sum(isinstance(outcome, str) for outcome in fast)
    seen["kept none"] = sum(outcome == _augment_outcome(f, []) for (f, _), outcome in zip(cases, fast))
    assert min(seen.values()) >= 10, seen


def test_augment_preserves_solutions_with_mined_clauses():
    from satlab.cdcl import MiningBudget, cdcl_solve_and_mine

    for seed in range(5):
        f = gen_uniform(GenSpec(n=12, k=3, ratio=4.0, seed=seed + 400))
        out = cdcl_solve_and_mine(f, MiningBudget(wall_seconds=10, width_limit=4), seed=seed)
        g = augment(f, out.learned)
        before = set(oracles.solution_masks(f.num_vars, f.clauses).tolist())
        after = set(oracles.solution_masks(g.num_vars, g.clauses).tolist())
        assert before == after


def test_trivial_instance_solved_in_initial_phase():
    f = Formula(3, [(1, 2, 3)])
    res = run_hybrid(f, wall_budget=10, seed=1)
    assert res.status == "sat"
    assert res.phase_solved == "initial-sls"
    assert res.clauses_added == 0


def test_unsat_detected_by_miner():
    # over-constrained 3-SAT, n=10, m=80: almost surely unsat
    f = gen_uniform(GenSpec(n=10, k=3, m=80, seed=5))
    assert not oracles.is_satisfiable(f.num_vars, f.clauses)
    res = run_hybrid(f, wall_budget=30, seed=2, strategy=select_strategy(f, initial_flips=200))
    assert res.status == "unsat"
    assert res.phase_solved == "miner"


def test_final_phase_solves_after_mining():
    # tiny initial burst forces the pipeline through the miner
    f, _ = gen_planted(GenSpec(n=60, k=3, ratio=4.2, seed=31))
    res = run_hybrid(
        f, wall_budget=60, seed=3, strategy=select_strategy(f, initial_flips=1, miner_conflict_limit=50),
        final_flips=2_000_000,
    )
    assert res.status == "sat"
    assert res.phase_solved in ("miner", "final-sls")
    breaks, falsified = oracles.scratch_break_counts(f.num_vars, f.clauses, res.model)
    assert not falsified


def test_cap_percent_arithmetic():
    f = gen_uniform(GenSpec(n=200, k=5, m=1000, seed=9))
    res = run_hybrid(
        f, wall_budget=30, seed=4, strategy=select_strategy(f, initial_flips=10, miner_conflict_limit=3000),
        final_flips=10,
    )
    assert res.clauses_added <= 50  # 5% of 1000


def test_deterministic_result_bytes():
    f, _ = gen_planted(GenSpec(n=50, k=3, ratio=4.2, seed=77))
    strategy = select_strategy(f, initial_flips=500, miner_conflict_limit=100)
    kwargs = dict(wall_budget=600, seed=11, strategy=strategy, final_flips=50_000)
    a = run_hybrid(f, **kwargs)
    b = run_hybrid(f, **kwargs)
    assert a.canonical_json() == b.canonical_json()


def test_canonical_json_excludes_timings():
    f = Formula(3, [(1, 2, 3)])
    res = run_hybrid(f, wall_budget=10, seed=1)
    assert "seconds" not in res.canonical_json()


ONE_PHASE_FORMULAS = {
    FALLBACK: GenSpec(n=60, k=4, ratio=9.0, seed=3),
    PLAIN_SLS: GenSpec(n=9001, k=3, ratio=3.0, seed=3),
}


@pytest.mark.parametrize("track", sorted(ONE_PHASE_FORMULAS))
@pytest.mark.parametrize("seed", [0, -7, 2**64 + 5])
def test_one_phase_tracks_make_the_probsat_run_call_of_their_seed(track, seed):
    f, _ = gen_planted(ONE_PHASE_FORMULAS[track])
    strategy = select_strategy(f)
    assert strategy.track == track
    for flips in (20, 200_000):
        expected = probsat_run(f, flips, seed, strategy.scoring)
        assert expected.solved == (flips > 20)
        for wall_budget in (None, 60.0):  # a wall budget that does not bind changes nothing
            res = run_hybrid(f, wall_budget=wall_budget, seed=seed, final_flips=flips)
            assert (res.status, res.phase_solved, res.phase_flips, res.model, res.seed) == (
                "sat" if expected.solved else "unknown", "initial-sls" if expected.solved else None,
                {"initial-sls": expected.flips_used}, expected.model, seed)


def test_plain_track_runs_single_phase():
    f = Formula(9500, [(1, 2, 3)])
    res = run_hybrid(f, wall_budget=5, seed=0, final_flips=1000)
    assert res.track == PLAIN_SLS
    assert res.status == "sat"
    assert res.phase_solved == "initial-sls"
    assert "miner" not in res.phase_seconds


def test_budget_validation():
    with pytest.raises(ValueError):
        run_hybrid(Formula(1, [(1,)]), wall_budget=0)
    with pytest.raises(ValueError, match="wall-clock budget, a flip budget or both"):
        run_hybrid(Formula(1, [(1,)]), wall_budget=None)
    # NaN fails every comparison: a NaN wall budget would never run out
    for flips in (None, 100):
        with pytest.raises(ValueError, match="positive wall-clock budget"):
            run_hybrid(Formula(1, [(1,)]), wall_budget=json.loads("NaN"), final_flips=flips)
    # a float flip budget used to crash in the kernel call, and a negative one to run 0 flips
    for flips in (1.5, -5, json.loads("1e3")):
        for wall_budget in (None, 60.0):
            with pytest.raises(ValueError, match="flip budget must be an integer >= 0"):
                run_hybrid(Formula(1, [(1,)]), wall_budget=wall_budget, final_flips=flips)


def model_checks(monkeypatch, verdict=None):
    """Record each `eval_formula` call of `probsat_run`, the miner and
    `run_hybrid` as (module, formula); `verdict` maps a module name to a
    forced result."""
    calls = []
    for module in (sls, cdcl, pipeline):
        def spy(formula, model, name=module.__name__, check=module.eval_formula):
            calls.append((name, formula))
            return (verdict or {}).get(name, check(formula, model))
        monkeypatch.setattr(module, "eval_formula", spy)
    return calls


@pytest.mark.parametrize("track", sorted(ONE_PHASE_FORMULAS) + ["k3"])
def test_a_phase_solved_on_the_formula_itself_checks_its_model_once(monkeypatch, track):
    spec = ONE_PHASE_FORMULAS.get(track, GenSpec(n=60, k=3, ratio=4.2, seed=31))
    f, _ = gen_planted(spec)
    strategy = select_strategy(f, initial_flips=200_000 if track == "k3" else None)
    assert strategy.track == track
    calls = model_checks(monkeypatch)
    res = run_hybrid(f, wall_budget=None, seed=1, strategy=strategy, final_flips=200_000)
    assert res.phase_solved == "initial-sls"
    assert calls == [("satlab.sls", f)]  # probsat_run's own check, against the formula


def test_final_and_miner_phases_still_check_the_original_formula(monkeypatch):
    f, _ = gen_planted(GenSpec(n=60, k=3, ratio=4.2, seed=31))
    strategy = select_strategy(f, initial_flips=1, miner_conflict_limit=5)
    calls = model_checks(monkeypatch)
    res = run_hybrid(f, wall_budget=None, seed=3, strategy=strategy, final_flips=200_000)
    assert (res.phase_solved, res.clauses_added) == ("final-sls", 4)
    (first, augmented), (second, checked) = calls[-2:]  # probsat_run checks the augmented formula, then run_hybrid f
    assert (first, second) == ("satlab.sls", "satlab.pipeline")
    assert augmented.num_clauses == f.num_clauses + 4 and checked is f
    calls.clear()
    res = run_hybrid(f, wall_budget=None, seed=3, strategy=replace(strategy, miner_conflict_limit=50),
                     final_flips=200_000)
    assert res.phase_solved == "miner"
    assert calls == [("satlab.cdcl", f)]  # the miner's own check, against the formula


def test_an_invalid_model_is_an_assertion_error_on_every_phase(monkeypatch):
    one_phase, _ = gen_planted(ONE_PHASE_FORMULAS[FALLBACK])
    with monkeypatch.context() as patched:
        model_checks(patched, {"satlab.sls": False})  # the one check a one-phase run makes
        with pytest.raises(AssertionError, match="registry empty but model invalid"):
            run_hybrid(one_phase, wall_budget=None, seed=1, final_flips=200_000)
    f, _ = gen_planted(GenSpec(n=60, k=3, ratio=4.2, seed=31))
    with monkeypatch.context() as patched:
        model_checks(patched, {"satlab.pipeline": False})  # the final phase's check against f
        with pytest.raises(AssertionError, match="does not satisfy the original formula"):
            run_hybrid(f, wall_budget=None, seed=3,
                       strategy=select_strategy(f, initial_flips=1, miner_conflict_limit=5), final_flips=200_000)
    with monkeypatch.context() as patched:
        model_checks(patched, {"satlab.cdcl": False})  # the miner phase's one check
        with pytest.raises(AssertionError, match="invalid model"):
            run_hybrid(f, wall_budget=None, seed=3,
                       strategy=select_strategy(f, initial_flips=1, miner_conflict_limit=50), final_flips=200_000)
