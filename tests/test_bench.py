import json
import pickle
from dataclasses import fields, replace

import pytest

from satlab import bench, pipeline, sls
from satlab.bench import (
    BenchmarkSummary,
    SolverConfig,
    TrialRecord,
    cactus_to_csv,
    default_flip_timeout,
    par2,
    run_suite,
    run_trial,
    summarize,
    summary_to_csv,
    trials_from_csv,
    trials_to_csv,
)
from satlab.cnf import Formula
from satlab.generators import GenSpec, gen_planted, gen_uniform
from satlab.sls import ScoringFunction


def rec(iid="i0", sid="s0", seed=0, solved=True, flips=100, seconds=0.5):
    return TrialRecord(iid, sid, seed, solved, flips, seconds)


def test_par2_solved_uses_measured_value():
    assert par2(rec(flips=12_345), timeout=10**9, currency="flips") == 12_345
    assert par2(rec(seconds=3.25), timeout=5000, currency="seconds") == 3.25
    assert par2(rec(seconds=0.0), timeout=5000, currency="seconds") == 0.0


def test_par2_unsolved_is_twice_timeout():
    assert par2(rec(solved=False), timeout=10**9, currency="flips") == 2 * 10**9
    assert par2(rec(solved=False), timeout=5000, currency="seconds") == 10_000


def test_par2_validation():
    with pytest.raises(ValueError):
        par2(rec(), timeout=0)
    with pytest.raises(ValueError, match="timeout must be positive"):
        par2(rec(solved=False), timeout=float("nan"), currency="seconds")  # `bench --timeout nan`
    with pytest.raises(ValueError):
        par2(rec(), timeout=10, currency="parsecs")
    # summarize checks before it reads a record, and cactus_to_csv checks its currency:
    # "flip" used to write the seconds of each trial truncated to an int
    for records in ([], [rec()]):
        with pytest.raises(ValueError, match="unknown PAR2 currency 'bogus'"):
            summarize(records, 10, "bogus")
        with pytest.raises(ValueError, match="timeout must be positive"):
            summarize(records, float("nan"))
    with pytest.raises(ValueError, match="unknown PAR2 currency 'flip'"):
        cactus_to_csv([rec(sid="s", flips=123, seconds=1.75)], "s", currency="flip")


def test_default_flip_timeouts():
    assert default_flip_timeout(3) == 1_000_000_000
    assert default_flip_timeout(5) == 500_000_000
    assert default_flip_timeout(7) == 250_000_000
    with pytest.raises(ValueError):
        default_flip_timeout(4)


def test_solver_config_from_dict():
    cfg = SolverConfig.from_dict(
        {"id": "probsat", "scoring": {"kind": "poly", "cb": 2.06, "epsilon": 0.9}}
    )
    assert cfg.solver_id == "probsat"
    assert cfg.overrides == {"scoring": ScoringFunction("poly", cb=2.06, epsilon=0.9)}
    hybrid = SolverConfig.from_dict({"id": "h", "algorithm": "hybrid", "miner_conflict_limit": 100})
    assert hybrid.algorithm == "hybrid"
    with pytest.raises(ValueError):
        SolverConfig(solver_id="x", algorithm="quantum")


def test_solver_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="'cap_percent'"):
        SolverConfig.from_dict({"id": "h", "algorithm": "hybrid", "cap_percent": 5, "width": 3})
    with pytest.raises(ValueError, match="'solver_id'"):
        SolverConfig.from_dict({"id": "h", "solver_id": "h"})
    full = {"id": "h", "algorithm": "hybrid", "scoring": {"kind": "exp", "cb": 2.5},
            "initial_flips": 10, "miner_seconds": 1.5, "miner_conflict_limit": 20,
            "width_limit": 4, "count_cap_percent": 2.0}
    assert SolverConfig.from_dict(full) == SolverConfig(
        "h", algorithm="hybrid", scoring=ScoringFunction("exp", cb=2.5), initial_flips=10,
        miner_seconds=1.5, miner_conflict_limit=20, width_limit=4, count_cap_percent=2.0)


# one value per `Strategy` setting, each unlike every track's own
SETTING_VALUES = {"initial_flips": 7, "miner_seconds": 1.5, "width_limit": 3, "count_cap_percent": 2.0,
                  "early_stop": True, "scoring": ScoringFunction("exp", cb=2.5), "miner_conflict_limit": 5}


@pytest.mark.parametrize("name", pipeline.OVERRIDABLE)
def test_each_setting_reaches_select_strategy_from_keywords_and_json(monkeypatch, name):
    value = SETTING_VALUES[name]
    json_value = {"kind": value.kind, "cb": value.cb} if name == "scoring" else value
    resolved = []

    def spy(formula, **overrides):
        resolved.append((overrides, pipeline.select_strategy(formula, **overrides)))
        return resolved[-1][1]

    monkeypatch.setattr(bench, "select_strategy", spy)
    f = Formula(3, [(1, 2, 3)])  # the k3 track; the initial burst solves it
    base = pipeline.select_strategy(f)
    for config in (SolverConfig("h", algorithm="hybrid", **{name: value}),
                   SolverConfig.from_dict({"id": "h", "algorithm": "hybrid", name: json_value})):
        assert config.overrides == {name: value}
        assert run_trial("i", f, config, seed=0, budget_flips=10).solved
        overrides, strategy = resolved.pop()
        assert overrides == {name: value}
        assert getattr(strategy, name) == value != getattr(base, name)
        assert strategy == replace(base, **{name: value})


def test_solver_config_keywords_none_and_unknown_names():
    config = SolverConfig("hybrid", algorithm="hybrid", initial_flips=100, miner_conflict_limit=150)
    assert (config.solver_id, config.algorithm, config.overrides) == \
        ("hybrid", "hybrid", {"initial_flips": 100, "miner_conflict_limit": 150})
    assert [f.name for f in fields(SolverConfig)] == ["solver_id", "algorithm", "overrides"]
    assert pickle.loads(pickle.dumps(config)) == config
    assert hash(config) == hash(SolverConfig("hybrid", algorithm="hybrid", initial_flips=100,
                                             miner_conflict_limit=150))
    # None keeps the track's setting, as in `select_strategy`
    assert SolverConfig("h", algorithm="hybrid", width_limit=None) == SolverConfig("h", algorithm="hybrid")
    assert SolverConfig("h", algorithm="hybrid", early_stop=True) != SolverConfig("h", algorithm="hybrid")
    for name in ("track", "overrides", "cap_percent"):
        with pytest.raises(ValueError, match=f"unknown solver-config key '{name}'"):
            SolverConfig("h", algorithm="hybrid", **{name: 1})


@pytest.mark.parametrize("name", [n for n in pipeline.OVERRIDABLE if n != "scoring"])
def test_sls_config_rejects_settings_it_would_ignore(name):
    value = SETTING_VALUES[name]
    with pytest.raises(ValueError, match=f"sls.*'{name}'"):
        SolverConfig("s", algorithm="sls", **{name: value})
    with pytest.raises(ValueError, match=f"sls.*'{name}'"):
        SolverConfig.from_dict({"id": "s", name: value})


def test_sls_config_names_the_first_ignored_setting():
    exp = ScoringFunction("exp", cb=2.5)
    assert SolverConfig("s", scoring=exp).overrides == {"scoring": exp}
    # the hybrid-only settings of an sls config used to vanish without a note
    with pytest.raises(ValueError, match="the sls algorithm runs SLS only and ignores 'initial_flips'"):
        SolverConfig("s", algorithm="sls", initial_flips=5, width_limit=1, miner_conflict_limit=3)


def test_run_trial_crash_becomes_unsolved_note():
    bad = SolverConfig(solver_id="bad", algorithm="sls", scoring="not-a-scoring")
    record = run_trial("i", Formula(2, [(1, 2)]), bad, seed=0, budget_flips=10)
    assert not record.solved
    assert record.note


def test_summarize_counts_crashed_trials_per_solver():
    # a suite whose "bad" solver raises on every trial: crashed, not merely unsolved
    bad = SolverConfig(solver_id="bad", algorithm="sls", scoring="not-a-scoring")
    records = run_suite([("i", Formula(2, [(1, 2)]))], [bad, SolverConfig("good")], seeds=[0],
                        budget_flips=10)
    summary = summarize(records, timeout=10)
    assert (summary.per_solver["bad"].crashed, summary.per_solver["bad"].solved_count) == (1, 0)
    assert summary.per_solver["good"].crashed == 0
    rows = summary_to_csv(summary).splitlines()
    assert rows[0] == "solver_id,solved,score,timeout,currency,crashed"
    assert rows[1].startswith("bad,0,") and rows[1].endswith(",1")
    assert rows[2].startswith("good,1,") and rows[2].endswith(",0")


def test_run_trial_configuration_error_propagates():
    # the fallback track (k=4) rejects initial_flips: a misconfiguration, not a PAR2 timeout
    f = gen_uniform(GenSpec(n=60, k=4, ratio=9.9, seed=3))
    config = SolverConfig("h", algorithm="hybrid", initial_flips=5)
    with pytest.raises(ValueError, match="fallback.*'initial_flips'"):
        run_trial("i", f, config, seed=0, budget_flips=100)
    with pytest.raises(ValueError, match="fallback"):
        run_suite([("i", f)], [config], seeds=[0], budget_flips=100)
    # a one-phase track runs no miner: its conflict limit used to be ignored without a note
    limited = SolverConfig("h", algorithm="hybrid", miner_conflict_limit=5)
    for track, formula in (("fallback", f), ("plain-sls", Formula(9001, [(1, 2, 3)]))):
        with pytest.raises(ValueError, match=f"{track} track runs SLS only and ignores 'miner_conflict_limit'"):
            run_trial("i", formula, limited, seed=0, budget_flips=100)


@pytest.mark.parametrize("name, value", [("initial_flips", -5), ("miner_seconds", 0.0), ("miner_seconds", -3.0),
                                         ("width_limit", 0), ("count_cap_percent", -1.0),
                                         ("miner_conflict_limit", -1), ("initial_flips", "100"),
                                         ("initial_flips", 1.5), ("miner_conflict_limit", 2.5),
                                         ("width_limit", 3.5), ("miner_conflict_limit", json.loads("1e3"))])
def test_run_trial_stops_on_a_setting_out_of_range_before_any_work(monkeypatch, name, value):
    # each used to become a crash note per trial that reached the miner, or to run clamped
    calls = []
    monkeypatch.setattr(bench, "run_hybrid", lambda *args, **kwargs: calls.append(args))
    f, _ = gen_planted(GenSpec(n=150, k=3, ratio=4.2, seed=8))
    config = SolverConfig("h", algorithm="hybrid", **{"initial_flips": 1, "miner_conflict_limit": 50, name: value})
    with pytest.raises(ValueError, match=f"{name} must be .* on the k3 track"):
        run_trial("i", f, config, seed=0, budget_flips=5_000)
    assert calls == []


@pytest.mark.parametrize("data, key", [
    ({"algorithm": "hybrid"}, "'id'"),
    ({"id": "s", "scoring": {"kind": "exp"}}, "'cb'"),
    ({"id": "s", "scoring": "exp"}, "'scoring'"),
    ({"id": "s", "scoring": {"kind": "exp", "cb": 2.5, "eps": 1}}, "'eps'"),
    (5, "must be a JSON object"),
    (["id"], "must be a JSON object"),
], ids=["no-id", "scoring-without-cb", "scoring-not-an-object", "unknown-scoring-key", "a-number", "a-list"])
def test_solver_config_from_dict_names_a_malformed_key(data, key):
    # these raised a bare KeyError, TypeError or AttributeError, or dropped the key without a note
    with pytest.raises(ValueError, match=key):
        SolverConfig.from_dict(data)


@pytest.mark.parametrize("algorithm", ["sls", "hybrid"])
def test_run_trial_failed_model_check_propagates(monkeypatch, algorithm):
    # a model that fails verification is an internal error, never an unsolved trial
    monkeypatch.setattr(sls, "eval_formula", lambda formula, model: False)
    monkeypatch.setattr(pipeline, "eval_formula", lambda formula, model: False)
    config = SolverConfig("s", algorithm=algorithm)
    with pytest.raises(AssertionError, match="internal error"):
        run_trial("i", Formula(2, [(1, 2)]), config, seed=0, budget_flips=10)


def test_a_solved_sls_trial_checks_its_model_once(monkeypatch):
    calls = []

    def spy(formula, model, check=sls.eval_formula):
        calls.append(formula)
        return check(formula, model)

    monkeypatch.setattr(sls, "eval_formula", spy)
    monkeypatch.setattr(pipeline, "eval_formula", spy)
    f, _ = gen_planted(GenSpec(n=100, k=3, ratio=4.2, seed=8))
    records = run_suite([("i", f)], [SolverConfig("p")], seeds=range(8), budget_flips=300)
    solved = sum(r.solved for r in records)
    assert 0 < solved < len(records)
    assert calls == [f] * solved


def test_an_sls_trial_with_an_invalid_model_is_an_assertion_error(monkeypatch):
    # probsat_run's check is the only one an sls trial makes, and its failure is never an unsolved record
    monkeypatch.setattr(sls, "eval_formula", lambda formula, model: False)
    with pytest.raises(AssertionError, match="internal error"):
        run_trial("i", Formula(2, [(1, 2)]), SolverConfig("p"), seed=0, budget_flips=10)
    with pytest.raises(AssertionError, match="internal error"):
        run_suite([("i", Formula(2, [(1, 2)]))], [SolverConfig("p")], seeds=[0], budget_flips=10)


def test_hybrid_trial_runs_every_sls_phase_with_the_configured_scoring(monkeypatch):
    scorings = []

    def spy(formula, max_flips, seed, scoring=None, wall_limit=None):
        scorings.append(scoring)
        return sls.probsat_run(formula, max_flips, seed, scoring, wall_limit)

    monkeypatch.setattr(pipeline, "probsat_run", spy)
    f, _ = gen_planted(GenSpec(n=100, k=3, ratio=4.2, seed=8))
    exp = ScoringFunction("exp", cb=2.5)
    config = SolverConfig("h", algorithm="hybrid", scoring=exp, initial_flips=1, miner_conflict_limit=5)
    record = run_trial("i", f, config, seed=1, budget_flips=2_000)
    assert not record.note
    assert scorings == [exp, exp]  # the initial burst and the final phase


def test_sls_trial_makes_the_probsat_run_call_of_its_seed():
    f, _ = gen_planted(GenSpec(n=100, k=3, ratio=4.2, seed=8))
    outcomes = set()
    for config in (SolverConfig("p"), SolverConfig("p", scoring=ScoringFunction("exp", cb=2.5))):
        for seed in (0, -3, 2**64 + 1):
            for budget in (50, 100_000):
                record = run_trial("i", f, config, seed, budget_flips=budget)
                expected = sls.probsat_run(f, budget, seed, config.overrides.get("scoring"))
                assert (record.solved, record.flips) == (expected.solved, expected.flips_used)
                outcomes.add(record.solved)
    assert outcomes == {True, False}


@pytest.mark.parametrize("config", [
    SolverConfig("p"),
    SolverConfig("h", algorithm="hybrid", initial_flips=3_000_000, miner_seconds=0.1),
])
def test_a_wall_budget_binds_alongside_a_flip_budget(config):
    # almost surely unsatisfiable, so only a budget ends the trial; a hybrid trial
    # used to read no clock whenever it also had a flip budget
    f = gen_uniform(GenSpec(n=200, k=3, ratio=6.0, seed=5))
    record = run_trial("i", f, config, seed=0, budget_flips=3_000_000, budget_seconds=0.3)
    assert not record.note and not record.solved
    assert record.flips < 3_000_000


def test_a_suite_without_a_budget_is_an_error_before_any_trial(monkeypatch):
    calls = []
    monkeypatch.setattr(bench, "run_hybrid", lambda *args, **kwargs: calls.append(args))
    instances = [("i", Formula(2, [(1, 2), (-1, 2)]))]
    with pytest.raises(ValueError, match="wall-clock budget, a flip budget or both"):
        run_suite(instances, [SolverConfig("p"), SolverConfig("h", algorithm="hybrid")], seeds=[0])
    with pytest.raises(ValueError, match="positive wall-clock budget"):
        run_suite(instances, [SolverConfig("p")], seeds=[0], budget_flips=10, budget_seconds=0.0)
    with pytest.raises(ValueError, match="wall-clock budget, a flip budget or both"):
        run_trial("i", instances[0][1], SolverConfig("p"), seed=0)
    # a float flip budget used to crash every trial, and a negative one to run 0 flips
    for flips in (1.5, -5):
        with pytest.raises(ValueError, match="flip budget must be an integer >= 0"):
            run_suite(instances, [SolverConfig("p")], seeds=[0], budget_flips=flips)
    assert calls == []


def test_run_suite_counts_and_order():
    instances = [("a", Formula(2, [(1, 2)])), ("b", Formula(2, [(-1, 2)]))]
    solvers = [SolverConfig("s1"), SolverConfig("s2")]
    records = run_suite(instances, solvers, seeds=[0, 1, 2], budget_flips=100)
    assert len(records) == 12
    assert records == sorted(records, key=lambda r: (r.instance_id, r.solver_id, r.seed))
    assert all(r.solved for r in records)


def test_run_suite_parallel_matches_serial():
    instances = [(f"i{k}", gen_planted(GenSpec(n=25, k=3, ratio=4.0, seed=k))[0]) for k in range(3)]
    solvers = [SolverConfig("probsat")]
    serial = run_suite(instances, solvers, seeds=[0, 1], budget_flips=200_000, workers=1)
    parallel = run_suite(instances, solvers, seeds=[0, 1], budget_flips=200_000, workers=3)
    assert [r.key() for r in serial] == [r.key() for r in parallel]


def test_run_suite_validation(monkeypatch):
    calls = []
    monkeypatch.setattr(bench, "run_hybrid", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError):
        run_suite([], [SolverConfig("s")], seeds=[0])
    with pytest.raises(ValueError):
        run_suite([("a", Formula(1, [(1,)]))], [], seeds=[0])
    with pytest.raises(ValueError, match="one seed"):
        run_suite([("a", Formula(1, [(1,)]))], [SolverConfig("s")], seeds=[], budget_flips=10)
    # (instance, solver, seed) keys each trial: a repeated one used to merge two trials' records
    f, g = Formula(1, [(1,)]), Formula(1, [(-1,)])
    exp = ScoringFunction("exp", 3.0)
    for instances, solvers, seeds, repeated in (
        ([("x.cnf", f), ("x.cnf", g)], [SolverConfig("s")], [0], "instance id 'x.cnf'"),
        ([("x.cnf", f)], [SolverConfig("s"), SolverConfig("s", scoring=exp)], [0, 1], "solver id 's'"),
        ([("x.cnf", f)], [SolverConfig("s")], [0, 1, 0], "seed 0"),
    ):
        with pytest.raises(ValueError, match=f"{repeated} is repeated"):
            run_suite(instances, solvers, seeds, budget_flips=10)
    assert calls == []


def test_summarize_scores():
    records = [
        rec("i0", "s0", 0, True, 100, 1.0),
        rec("i0", "s0", 1, True, 300, 1.0),
        rec("i1", "s0", 0, False, 0, 0.0),
        rec("i1", "s0", 1, False, 0, 0.0),
        rec("i0", "s1", 0, True, 50, 1.0),
        rec("i0", "s1", 1, True, 150, 1.0),
        rec("i1", "s1", 0, True, 400, 1.0),
        rec("i1", "s1", 1, True, 600, 1.0),
    ]
    summary = summarize(records, timeout=1000, currency="flips")
    s0 = summary.per_solver["s0"]
    s1 = summary.per_solver["s1"]
    assert s0.per_instance_par2 == {"i0": 200.0, "i1": 2000.0}
    assert s0.score == 2200.0
    assert s0.solved_count == 2
    assert s1.per_instance_par2 == {"i0": 100.0, "i1": 500.0}
    assert s1.score == 600.0
    assert s1.solved_count == 4
    assert len(summary.pairwise) == 1
    pair = summary.pairwise[0]
    assert (pair.solver_a, pair.solver_b) == ("s0", "s1")


def test_summary_matches_recomputation_from_csv():
    instances = [(f"i{k}", gen_planted(GenSpec(n=20, k=3, ratio=4.0, seed=k + 9))[0]) for k in range(2)]
    records = run_suite(instances, [SolverConfig("p")], seeds=[0, 1, 2], budget_flips=100_000)
    text = trials_to_csv(records)
    back = trials_from_csv(text)
    assert [r.key() for r in back] == [r.key() for r in records]
    summary = summarize(records, timeout=100_000, currency="flips")
    summary2 = summarize(back, timeout=100_000, currency="flips")
    for sid in summary.per_solver:
        assert summary.per_solver[sid].score == pytest.approx(summary2.per_solver[sid].score)


def test_trials_csv_round_trips_phase_solved_and_clauses_added():
    f, _ = gen_planted(GenSpec(n=100, k=3, ratio=4.2, seed=8))
    hybrid = SolverConfig("h", algorithm="hybrid", initial_flips=1, miner_conflict_limit=50)
    records = run_suite([("i", f)], [hybrid, SolverConfig("p")], seeds=[1], budget_flips=5_000)
    assert [(r.phase_solved, r.clauses_added) for r in records] == [("final-sls", 6), ("initial-sls", 0)]
    text = trials_to_csv(records)
    assert text.splitlines()[0].endswith(",note,phase_solved,clauses_added,miner_conflicts")
    back = trials_from_csv(text)
    assert [(r.key(), r.note, r.phase_solved, r.clauses_added) for r in back] == \
        [(r.key(), r.note, r.phase_solved, r.clauses_added) for r in records]
    # a file written before the two columns existed reads with their defaults
    old = "\n".join(",".join(line.split(",")[:7]) for line in text.splitlines()) + "\n"
    assert [(r.key(), r.phase_solved, r.clauses_added) for r in trials_from_csv(old)] == \
        [(r.key(), "", 0) for r in records]


def test_trials_csv_carries_the_miner_conflicts_of_hybrid_trials():
    large, _ = gen_planted(GenSpec(n=100, k=3, ratio=4.2, seed=8))
    small, _ = gen_planted(GenSpec(n=30, k=3, ratio=4.2, seed=8))
    hybrid = SolverConfig("h", algorithm="hybrid", initial_flips=1, miner_conflict_limit=50)
    records = run_suite([("large", large), ("small", small)], [hybrid, SolverConfig("p")], seeds=[1, 2],
                        budget_flips=5_000)
    for r in records:
        formula = large if r.instance_id == "large" else small
        if r.solver_id == "p":
            assert r.miner_conflicts == 0
            continue
        result = pipeline.run_hybrid(formula, wall_budget=pipeline.WALL_BUDGET_DEFAULT, seed=r.seed,
                                     strategy=pipeline.select_strategy(formula, initial_flips=1,
                                                                       miner_conflict_limit=50),
                                     final_flips=5_000)
        assert r.miner_conflicts == result.phase_conflicts["miner"] > 0
    # both trials that the miner solves and trials it hands to the final phase
    assert {r.phase_solved for r in records if r.solver_id == "h"} == {"miner", "final-sls"}
    assert TrialRecord("i", "h", 0, True, 1, 0.0).key() == \
        TrialRecord("i", "h", 0, True, 1, 0.0, miner_conflicts=7).key()
    text = trials_to_csv(records)
    assert [r.miner_conflicts for r in trials_from_csv(text)] == [r.miner_conflicts for r in records]
    # a file written before the column existed reads with the default
    old = "\n".join(",".join(line.split(",")[:9]) for line in text.splitlines()) + "\n"
    assert [(r.key(), r.clauses_added, r.miner_conflicts) for r in trials_from_csv(old)] == \
        [(r.key(), r.clauses_added, 0) for r in records]


def test_trials_csv_bytes_follow_the_record_fields():
    records = [
        TrialRecord("i0", "p", 1, True, 12, 0.1234567),
        TrialRecord("i1", "h", 3, False, 0, 0.0, note="ValueError('a, \"b\"')"),
        TrialRecord("i1", "h", 5, True, 900, 2.5, phase_solved="final-sls", clauses_added=6,
                    miner_conflicts=150),
    ]
    text = trials_to_csv(records)
    assert text == (
        "instance_id,solver_id,seed,solved,flips,seconds,note,phase_solved,clauses_added,miner_conflicts\r\n"
        "i0,p,1,1,12,0.123457,,,0,0\r\n"
        "i1,h,3,0,0,0.000000,\"ValueError('a, \"\"b\"\"')\",,0,0\r\n"
        "i1,h,5,1,900,2.500000,,final-sls,6,150\r\n"
    )
    assert trials_from_csv(text) == [replace(records[0], seconds=0.123457), *records[1:]]


def test_summary_csv_and_cactus_output():
    records = [
        rec("i0", "s0", 0, True, 100, 2.0),
        rec("i0", "s0", 1, True, 50, 1.0),
        rec("i0", "s0", 2, False, 0, 0.0),
    ]
    summary = summarize(records, timeout=10.0, currency="seconds")
    text = summary_to_csv(summary)
    assert "solver_id,solved,score" in text
    assert "s0,2," in text
    cactus = cactus_to_csv(records, "s0", currency="seconds")
    lines = cactus.strip().splitlines()
    assert lines[0] == "solved,seconds"
    assert lines[1] == "1,1.000000"
    assert lines[2] == "2,2.000000"


def test_trivially_sat_suite_scores_below_timeout():
    instances = [("easy", Formula(3, [(1, 2, 3)]))]
    solvers = [SolverConfig("a"), SolverConfig("b")]
    records = run_suite(instances, solvers, seeds=[0, 1, 2], budget_flips=1000)
    assert len(records) == 6
    summary = summarize(records, timeout=1000, currency="flips")
    for s in summary.per_solver.values():
        assert s.score < 2 * 1000
