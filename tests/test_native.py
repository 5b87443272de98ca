"""The one switch between kernel and reference: `_native.load()`.

With the library loaded, every input a caller can make runs on the
kernel, so the differential tests compare two engines, not the reference
with itself; and an input that neither engine takes is a ValueError made
where the input is made, before either engine runs.
"""

import re

import pytest

from satlab import _native, cdcl, generators, sls
from satlab.cdcl import MiningBudget, cdcl_solve_and_mine
from satlab.cnf import Formula
from satlab.generators import GenSpec, gen_planted, gen_uniform
from satlab.pipeline import plain_strategy, run_hybrid, select_strategy
from satlab.quality import compute_backbone
from satlab.sls import probsat_run

SEEDS = (0, -7, 2**32, 2**200)
NOT_INT_SEEDS = ("a", 1.5, None, b"x")


def no_reference(*args, **kwargs):
    raise AssertionError("a reference ran with the library loaded")


def outcomes(formulas, planted, spec):
    """What each engine-backed entry point gives at every seed of SEEDS."""
    results = []
    for seed in SEEDS:
        for f in formulas:
            res = probsat_run(f, 50, seed)
            results.append((res.status, res.flips_used, res.model))
        mined = cdcl_solve_and_mine(planted, MiningBudget(conflict_limit=200, width_limit=4), seed)
        results.append((mined.status, mined.model, mined.learned, mined.conflicts))
        results.append(sorted(compute_backbone(planted, seed)))
        generated, hidden = gen_planted(GenSpec(n=spec.n, k=spec.k, m=spec.m, seed=seed))
        results.append((generated.clauses, hidden, gen_uniform(GenSpec(n=30, k=3, m=90, seed=seed)).clauses))
    return results


def test_the_library_runs_every_input_without_a_reference(kernel, monkeypatch):
    formulas = (Formula(0, []), Formula(5, []), Formula(3, [(1, -2), (2, 3)]), Formula(2, [(), (1,)]))
    planted, _ = gen_planted(GenSpec(n=12, k=3, ratio=4.0, seed=4))
    spec = GenSpec(n=22, k=3, m=60, seed=0)  # n > 21: random.sample's set branch
    with monkeypatch.context() as patched:
        for module, name in ((sls, "_probsat_python"), (cdcl, "CdclSolver"),
                             (generators, "_gen_uniform_python"), (generators, "_gen_planted_python")):
            patched.setattr(module, name, no_reference)
        native = outcomes(formulas, planted, spec)
    monkeypatch.setattr(_native, "load", lambda: None)
    assert native == outcomes(formulas, planted, spec)
    assert native[0] == (sls.SOLVED, 0, [False])  # Formula(0, []) at seed 0


@pytest.mark.parametrize("engine", ["native", "reference"])
@pytest.mark.parametrize("seed", NOT_INT_SEEDS, ids=repr)
def test_a_seed_that_is_not_an_int_is_a_value_error_on_both_engines(engine, seed, request, monkeypatch):
    if engine == "native":
        request.getfixturevalue("kernel")
    else:
        monkeypatch.setattr(_native, "load", lambda: None)
    named = re.escape(repr(seed))
    k3, _ = gen_planted(GenSpec(n=20, k=3, ratio=4.0, seed=1))
    assert select_strategy(k3).track == "k3"
    calls = {
        "probsat_run": lambda: probsat_run(k3, 10, seed),
        "cdcl_solve_and_mine": lambda: cdcl_solve_and_mine(k3, MiningBudget(conflict_limit=10), seed),
        "compute_backbone": lambda: compute_backbone(k3, seed),
        "GenSpec": lambda: GenSpec(n=10, k=3, ratio=4.0, seed=seed),
        "run_hybrid plain": lambda: run_hybrid(k3, None, seed, plain_strategy(k3), final_flips=10),
        "run_hybrid k3": lambda: run_hybrid(k3, None, seed, select_strategy(k3, initial_flips=10,
                                                                           miner_conflict_limit=10), final_flips=10),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=f"seed must be an int, got {named}$"):
            call()
            pytest.fail(f"{name} took the seed {seed!r}")


@pytest.mark.parametrize("count, passed", [(None, _native.NO_LIMIT), (0, 0), (5, 5),
                                           (_native.NO_LIMIT, _native.NO_LIMIT), (2**70, _native.NO_LIMIT)],
                         ids=["None", "0", "5", "NO_LIMIT", "2**70"])
def test_limit_is_the_count_a_kernel_takes(count, passed):
    assert _native.limit(count) == passed
