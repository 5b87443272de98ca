"""The benchmark's span tracer (`satbench/spans.py`) rebinds satlab's
public functions by name from outside the package.  A rename or a call
that stops going through a module global makes `satbench/run.py` fail
with a KeyError, so this checks every hook binds and unbinds."""

import importlib.util
from pathlib import Path

import satlab

SPANS = Path(__file__).resolve().parents[1] / "satbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("satbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    # rebinding `satlab.pipeline.augment`; a direct call to `Formula.extended`
    # or a local alias would leave both at 0
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
    result = pipeline.run_hybrid(f, seed=1, strategy=pipeline.select_strategy(f, initial_flips=1),
                                 miner_conflict_limit=50, final_flips=5_000)
    assert "final-sls" in result.phase_flips  # phase 3 ran
    assert calls == [result.clauses_added] and result.clauses_added > 0
