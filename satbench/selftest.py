"""Self-tests of the benchmark itself, on smoke-sized workloads.

    python3 satbench/selftest.py          # or: python3 -m pytest satbench/selftest.py

The file name keeps it out of the repository's default pytest
collection; it checks the benchmark, not satlab.
"""

from __future__ import annotations

import json
import math
import re
import sys

import run

satlab = run.load_satlab()

import checks  # noqa: E402  (needs satlab on the path)
import workloads  # noqa: E402
from satlab import bench, cdcl, generators, sls  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class SmokeSls(workloads.SlsPar2):
    groups = (("k3-n300", 3, 300, 4.2, 1, 2, 5_000), ("k5-n60", 5, 60, 20.0, 1, 1, 300),
              ("k7-n30", 7, 30, 85.0, 1, 1, 100))


class SmokeHybrid(workloads.HybridMine):
    groups = (("k3-n40", 3, 40, 4.26, 1), ("k5-n20", 5, 20, 21.1, 1), ("k7-n14", 7, 14, 87.8, 1))
    seeds_per_instance = 1
    config = bench.SolverConfig("hybrid", algorithm="hybrid", initial_flips=20, miner_conflict_limit=40)
    final_flips = 300


class SmokeEnrich(workloads.EnrichQuality):
    main = ("k3-n12", 3, 12, 4.2, 2, 0.618)
    ternary = ("k3-n6", 3, 6, 4.2, 1, 1.0)
    seeds_per_variant = 2
    flip_budget = 500


SMOKE = (SmokeSls(), SmokeHybrid(), SmokeEnrich())


def _smoke(workload, trace: bool, seed: int = 3) -> dict:
    return run.run_workload(satlab, workload, seed, seconds=0.01, trace=trace)


def test_spec_names_are_valid_and_match_the_runner():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"]), metric


def test_smoke_run_of_each_workload_reports_every_metric():
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layers = [m["name"] for m in SPEC["per_layer"]]
    for workload in SMOKE:
        for trace in (False, True):
            record = _smoke(workload, trace)
            assert record["failed"] == 0, record["failures"]
            assert sorted(record["end_to_end"]) == sorted(e2e)
            assert all(v > 0 for v in record["end_to_end"].values()), record["end_to_end"]
            if trace:
                assert sorted(record["per_layer"]) == sorted(layers)
                assert all(math.isfinite(v) for v in record["per_layer"].values())


def test_traced_self_times_sum_to_at_most_wall():
    for workload in SMOKE:
        record = _smoke(workload, trace=True)
        assert record["traced_rounds"]
        for rnd in record["traced_rounds"]:
            assert rnd["spans"]
            assert 0 < rnd["self_s"] <= rnd["wall_s"]


def test_digest_repeats_for_a_seed_and_changes_with_it():
    workload = SMOKE[1]
    assert _smoke(workload, False)["digest"] == _smoke(workload, False)["digest"]
    assert _smoke(workload, False, seed=4)["digest"] != _smoke(workload, False)["digest"]


def test_instance_and_solver_seeds_never_meet():
    for seed in (0, 1, 2**24, 2**63 + 5, -7):
        for a in (0, 1, (1 << 16) - 1):
            for b in (0, 1, (1 << 16) - 1):
                assert abs(workloads.instance_seed(seed, a)) % 2 != abs(workloads.solver_seed(seed, b)) % 2


def _planted():
    formula, hidden = generators.gen_planted(generators.GenSpec(n=20, k=3, ratio=4.2, seed=5))
    return formula, hidden


def test_checker_flags_an_invalid_model():
    formula, hidden = _planted()
    bad = list(hidden)
    for lit in formula.clauses[0]:
        bad[abs(lit)] = lit < 0  # falsify every literal of clause 0
    checker = checks.Checker()
    checker.calls({"sls.run": [((formula,), sls.RunResult("solved", 10, list(hidden), 9, 0.0), 0.0),
                               ((formula,), sls.RunResult("solved", 10, bad, 8, 0.0), 0.0)]}, lambda f: hidden)
    assert len(checker.failures) == 1 and "invalid model" in checker.failures[0]


def test_checker_flags_a_zero_flip_solve_and_an_unsat_verdict():
    formula, hidden = _planted()
    checker = checks.Checker()
    outcome = cdcl.MiningOutcome("unsat", None, [], 0, 5)
    checker.calls({"sls.run": [((formula,), sls.RunResult("solved", 0, list(hidden), 5, 0.0), 0.0)],
                   "cdcl.mine": [((formula,), outcome, 0.0)]}, lambda f: hidden)
    assert any("0 flips" in f for f in checker.failures)
    assert any("unsat" in f for f in checker.failures)


def test_checker_flags_an_unsound_mined_clause_and_a_crash_note():
    formula, hidden = _planted()
    unsound = tuple(-v if hidden[v] else v for v in (1, 2, 3))
    sound = tuple(v if hidden[v] else -v for v in (1, 2, 3))
    checker = checks.Checker()
    good = cdcl.MiningOutcome("budget-exhausted", None, [sound], 1, 1)
    bad = cdcl.MiningOutcome("budget-exhausted", None, [sound, unsound], 2, 2)
    crashed = bench.TrialRecord("i", "s", 1, False, 0, 0.0, note="AssertionError()")
    checker.calls({"cdcl.mine": [((formula,), good, 0.0), ((formula,), bad, 0.0)],
                   "bench.trial": [(("i",), crashed, 0.0)]}, lambda f: hidden)
    assert len(checker.failures) == 2
    assert "mined clauses" in checker.failures[0] and "AssertionError" in checker.failures[1]


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} self-tests passed")
    sys.exit(0)
