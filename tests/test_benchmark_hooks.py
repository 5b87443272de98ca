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
