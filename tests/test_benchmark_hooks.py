"""The benchmark's span tracer (`satbench/spans.py`) rebinds satlab's
public functions by name from outside the package.  A rename or a call
that stops going through a module global makes `satbench/run.py` fail
with a KeyError, so this checks every hook binds and unbinds.  The
workloads (`satbench/workloads.py`) build their solver configs with
keywords, and this checks that those settings reach the pipeline."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import satlab

SATBENCH = Path(__file__).resolve().parents[1] / "satbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"satbench_{name}", SATBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it runs
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load("spans")


def test_tracer_binds_every_target_and_restores_them():
    spans = load_spans()
    targets = [(owner, attr) for owner, attr, *_ in spans._targets(satlab)]
    originals = [owner.__dict__[attr] for owner, attr in targets]
    tracer = spans.Tracer(pick=lambda: 0.0)
    try:
        tracer.install(satlab)
        for (owner, attr), original in zip(targets, originals):
            assert owner.__dict__[attr].__wrapped__ is original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    assert [owner.__dict__[attr] for owner, attr in targets] == originals


def test_run_hybrid_appends_mined_clauses_through_the_module_global_augment(monkeypatch):
    # the tracer times `pipeline.augment_s` and counts `pipeline.clauses_added` by
    # rebinding `satlab.pipeline.augment`; a formula built another way or a
    # local alias would leave both at 0
    from satlab import pipeline
    from satlab.generators import GenSpec, gen_planted

    calls = []
    original = pipeline.augment

    def counting(formula, clauses):
        out = original(formula, clauses)
        calls.append(out.num_clauses - formula.num_clauses)
        return out

    monkeypatch.setattr(pipeline, "augment", counting)
    f, _ = gen_planted(GenSpec(n=100, k=3, ratio=4.2, seed=8))
    strategy = pipeline.select_strategy(f, initial_flips=1, miner_conflict_limit=50)
    result = pipeline.run_hybrid(f, seed=1, strategy=strategy, budget_flips=5_000)
    assert "final-sls" in result.phase_flips  # phase 3 ran
    assert calls == [result.clauses_added] and result.clauses_added > 0


def test_hybrid_mine_config_reaches_the_pipeline(monkeypatch):
    # `satbench/workloads.py` builds its hybrid config with keywords; a constructor
    # that drops or rejects them would otherwise show only in a failed benchmark run
    from satlab import bench
    from satlab.generators import GenSpec, gen_planted

    config = load("workloads").HybridMine.config
    results = []

    def spy(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    original = bench.run_hybrid
    monkeypatch.setattr(bench, "run_hybrid", spy)
    f, _ = gen_planted(GenSpec(n=150, k=3, ratio=4.26, seed=4))
    for seed in range(3):
        record = bench.run_trial("i", f, config, seed=seed, budget_flips=800)
        assert not record.note
        result = results.pop()
        initial, conflicts = result.phase_flips["initial-sls"], result.phase_conflicts.get("miner", 0)
        # each budget binds unless its phase, or an earlier one, solves the instance
        assert initial == 100 or (result.phase_solved == "initial-sls" and initial < 100)
        if result.phase_solved != "initial-sls":
            assert conflicts == 150 or (result.phase_solved == "miner" and conflicts < 150)
        assert record.miner_conflicts == conflicts
    assert result.phase_solved != "initial-sls"  # the miner ran at least once


def test_sls_par2_trial_keys_are_pinned():
    # every SLS-only trial makes the call `probsat_run(formula, budget, seed, scoring)`;
    # a change that moves the outcome of any such trial moves this digest of one round
    workload = load("workloads").WORKLOADS["sls-par2"]
    instances, _, _ = workload.setup(0, lambda: 0.0)
    out = workload.run(instances, 0, lambda: 0.0)
    assert load("checks").digest(out.payload) == "d61b1f47687903b4"


@pytest.mark.parametrize("name,digest", [("hybrid-mine", "9f2c52120f9607bb"), ("enrich-quality", "fbf4185129f2c033")])
def test_round_payloads_are_pinned(name, digest):
    # hybrid-mine runs probSAT in the three-phase pipeline, enrich-quality runs it
    # on enriched formulas; a change that moves any outcome of one round moves its digest
    workload = load("workloads").WORKLOADS[name]
    instances, _, _ = workload.setup(0, lambda: 0.0)
    out = workload.run(instances, 0, lambda: 0.0)
    assert load("checks").digest(out.payload) == digest


def test_backbone_queries_are_not_captured_as_miner_calls():
    # the tracer captures every `cdcl_solve_and_mine` call as `cdcl.mine` and checks it
    # as a benchmark instance; a backbone query through that name is F and not-l, so
    # each unsat query would count as an unsat verdict on a planted instance
    from satlab import quality
    from satlab.generators import GenSpec, gen_planted

    f, hidden = gen_planted(GenSpec(n=20, k=3, ratio=4.26, seed=3, bias=0.618))
    expected = quality.compute_backbone(f, seed=1)
    tracer = load_spans().Tracer(pick=lambda: 0.0)
    tracer.install(satlab)
    try:
        tracer.recording = True
        backbone = quality.compute_backbone(f, seed=1)
    finally:
        tracer.uninstall()
    calls = tracer.take_calls()
    assert "cdcl.mine" not in calls
    checker = load("checks").Checker()
    checker.calls(calls, lambda formula: hidden if formula is f else None)
    assert checker.failures == []
    assert backbone == expected and expected  # a planted n=20 formula has a backbone


def test_the_benchmark_self_test_passes():
    # `satbench/selftest.py` builds satlab's records positionally, installs every tracer
    # hook and runs traced and untraced smoke rounds of each workload; a change under
    # src/ that breaks it would otherwise show first in a full benchmark run
    done = subprocess.run([sys.executable, str(SATBENCH / "selftest.py")], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
