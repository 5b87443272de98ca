import math
import random

import pytest

import oracles
from satlab import _native, generators
from satlab.cnf import Formula, eval_clause
from satlab.generators import GenSpec, default_ratio, gen_planted, gen_uniform


def test_uniform_structure():
    f = gen_uniform(GenSpec(n=100, k=3, ratio=4.267, seed=11))
    assert f.num_clauses == 427  # round(4.267 * 100)
    for clause in f.clauses:
        assert len(clause) == 3
        assert len({abs(l) for l in clause}) == 3
        assert all(1 <= abs(l) <= 100 for l in clause)


def test_uniform_seed_determinism():
    a = gen_uniform(GenSpec(n=50, k=3, ratio=4.2, seed=5))
    b = gen_uniform(GenSpec(n=50, k=3, ratio=4.2, seed=5))
    assert a.clauses == b.clauses
    c = gen_uniform(GenSpec(n=50, k=3, ratio=4.2, seed=6))
    assert c.clauses != a.clauses


def test_uniform_polarity_balance():
    # Monte Carlo: over 1e5 literals the positive fraction is 0.5 +- 0.01.
    total = 0
    positive = 0
    for seed in range(7):
        f = gen_uniform(GenSpec(n=200, k=5, m=3000, seed=seed))
        for clause in f.clauses:
            total += len(clause)
            positive += sum(1 for l in clause if l > 0)
    assert total >= 100_000
    assert abs(positive / total - 0.5) < 0.01


def test_planted_every_clause_satisfied():
    f, hidden = gen_planted(GenSpec(n=60, k=3, ratio=4.2, seed=3))
    for clause in f.clauses:
        assert eval_clause(clause, hidden)


def test_planted_hidden_is_solution_by_enumeration():
    f, hidden = gen_planted(GenSpec(n=15, k=3, ratio=4.0, seed=9))
    sols = oracles.solution_masks(f.num_vars, f.clauses)
    assert oracles.assignment_to_mask(hidden) in set(sols.tolist())


def test_planted_seed_determinism():
    a_f, a_h = gen_planted(GenSpec(n=40, k=3, ratio=4.2, seed=17))
    b_f, b_h = gen_planted(GenSpec(n=40, k=3, ratio=4.2, seed=17))
    assert a_f.clauses == b_f.clauses
    assert a_h == b_h


def test_genspec_validation():
    with pytest.raises(ValueError):
        GenSpec(n=2, k=3, ratio=4.0, seed=0)  # k > n
    with pytest.raises(ValueError):
        GenSpec(n=10, k=1, ratio=4.0, seed=0)  # k < 2
    with pytest.raises(ValueError):
        GenSpec(n=10, k=3, seed=0)  # neither ratio nor m
    with pytest.raises(ValueError):
        GenSpec(n=10, k=3, ratio=4.0, m=42, seed=0)  # both


def test_default_ratios():
    assert default_ratio(3) == 4.267
    assert default_ratio(5) == 21.117
    assert default_ratio(7) == 87.79
    with pytest.raises(ValueError):
        default_ratio(4)


@pytest.mark.parametrize("kwargs", [
    {"ratio": -1.0}, {"m": -5}, {"ratio": math.inf}, {"ratio": math.nan}, {"ratio": 1e308},
], ids=["negative-ratio", "negative-m", "infinite-ratio", "nan-ratio", "overflowing-ratio"])
def test_genspec_rejects_a_negative_or_non_finite_clause_count(kwargs):
    with pytest.raises(ValueError, match=r"ratio \* n must be finite|clause count must not be negative"):
        GenSpec(n=10, k=3, seed=1, **kwargs)


# Native against reference: `gen_uniform` and `gen_planted` run `gen_clauses`
# (`_gen.c`) when the compiled library loads, and `_gen_uniform_python` and
# `_gen_planted_python` when `_native.load` returns None.


def formula_attrs(f):
    return (f.num_vars, f.clauses, f.offsets, f.literals, f.occ_offsets, f.occ, f.max_occurrences,
            f.max_width)


def generated(spec):
    """Both generators' outputs for `spec`: formula attributes and hidden list."""
    formula, hidden = gen_planted(spec)
    return [formula_attrs(formula), hidden, [type(h) for h in hidden], formula_attrs(gen_uniform(spec))]


def assert_native_equals_reference(monkeypatch, specs):
    native = [generated(spec) for spec in specs]
    with monkeypatch.context() as patched:
        patched.setattr(_native, "load", lambda: None)
        reference = [generated(spec) for spec in specs]
    for spec, a, b in zip(specs, native, reference):
        assert a == b, spec


def sample_set_size(k):
    """The size up to which CPython's `random.sample` swaps in a pool."""
    return 21 + (4 ** math.ceil(math.log(3 * k, 4)) if k > 5 else 0)


def test_native_generation_equals_the_reference_at_both_sample_branches(kernel, monkeypatch):
    edges = [(3, 21), (3, 22), (7, 85), (7, 86)]
    assert [n <= sample_set_size(k) for k, n in edges] == [True, False, True, False]
    specs = [GenSpec(n=n, k=k, m=3 * n, seed=seed) for k, n in edges for seed in (0, 1)]
    assert_native_equals_reference(monkeypatch, specs)


def test_native_generation_equals_the_reference_for_widths_seeds_and_biases(kernel, monkeypatch):
    rng = random.Random(3)
    specs = [GenSpec(n=k, k=k, m=20, seed=k) for k in range(2, 10)]  # n == k: every clause holds every variable
    specs += [GenSpec(n=30, k=k, m=0, seed=1) for k in (2, 5)]
    for k in range(2, 10):
        for seed in (0, -3, 2**32, 2**70 + 5, 2**200, rng.randrange(2**32)):
            for bias in (1.0, 0.618, 0.5):
                n = rng.choice((k + 1, 21, 22, 40, 85, 86, 150))
                specs.append(GenSpec(n=max(n, k), k=k, m=60, seed=seed, bias=bias))
    assert_native_equals_reference(monkeypatch, specs)


def test_native_generation_builds_no_clause_lists(kernel, monkeypatch):
    built = []
    init = Formula.__init__
    monkeypatch.setattr(Formula, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    spec = GenSpec(n=40, k=3, ratio=4.2, seed=2)
    gen_planted(spec), gen_uniform(spec)
    assert built == []
    monkeypatch.setattr(_native, "load", lambda: None)
    gen_planted(spec), gen_uniform(spec)
    assert len(built) == 2  # the reference builds through Formula.__init__


def test_genspec_rejects_sizes_past_int32():
    # the arrays of a Formula are int32: 2n + 3 occurrence offsets and m * k literals
    for kwargs in ({"n": 10, "m": 2**31 // 3 + 1}, {"n": 2**30, "m": 0}):
        with pytest.raises(ValueError, match="exceeds a Formula's int32 arrays"):
            GenSpec(k=3, seed=0, **kwargs)
    GenSpec(n=10, k=3, m=(2**31 - 1) // 3, seed=0)  # the largest m * k is only made, not generated
    GenSpec(n=2**30 - 2, k=3, m=0, seed=0)
