import hashlib
import random
from collections import Counter

import pytest

import oracles
from satlab import _native, resolution
from satlab.cnf import Formula, resolve
from satlab.generators import GenSpec, gen_planted, gen_uniform
from satlab.resolution import (
    ResolventPool,
    bounded_resolve,
    level1_resolvents,
    level2_resolvents,
    sample_pool,
    ternary_saturate,
)


def test_level1_basic_chain():
    f = Formula(3, [(1, 2), (-1, 3)])
    pool = level1_resolvents(f, 4)
    assert pool.clauses == ((2, 3),)


def test_level1_no_clash():
    f = Formula(3, [(1, 2), (1, 3)])
    assert level1_resolvents(f, 4).clauses == ()


def test_level1_excludes_tautologies_and_base():
    f = Formula(3, [(1, 2), (-1, 2), (-2, 3)])
    pool = level1_resolvents(f, 4)
    # (1,2) x (-1,2) -> (2); (1,2) x (-2,3) -> (1,3); (-1,2) x (-2,3) -> (-1,3)
    assert (2,) in pool.clauses
    assert (1, 3) in pool.clauses
    assert (-1, 3) in pool.clauses
    assert set(pool.clauses).isdisjoint(f.clauses)


def test_level1_width_filter():
    f = Formula(6, [(1, 2, 3), (-1, 4, 5), (-1, 6)])
    pool3 = level1_resolvents(f, 3)
    pool4 = level1_resolvents(f, 4)
    assert (2, 3, 6) in pool3.clauses
    assert (2, 3, 4, 5) not in pool3.clauses
    assert (2, 3, 4, 5) in pool4.clauses


def test_level1_implied_by_base():
    for seed in range(5):
        f = gen_uniform(GenSpec(n=14, k=3, ratio=4.0, seed=seed))
        implied = oracles.implied_checker(f.num_vars, f.clauses)
        pool = level1_resolvents(f, 4)
        for c in pool.clauses:
            assert implied(c)


def test_level2_chain():
    f = Formula(4, [(1, 2), (-1, 3), (-3, 4)])
    l1 = level1_resolvents(f, 4)
    assert (2, 3) in l1.clauses
    l2 = level2_resolvents(f, 4)
    assert (2, 4) in l2.clauses
    assert set(l2.clauses).isdisjoint(l1.clauses)
    assert set(l2.clauses).isdisjoint(f.clauses)


def test_level2_empty_when_no_level1():
    f = Formula(3, [(1, 2), (1, 3)])
    assert level2_resolvents(f, 4).clauses == ()


def test_level2_implied_by_base():
    for seed in range(3):
        f = gen_uniform(GenSpec(n=14, k=3, ratio=4.0, seed=seed + 30))
        implied = oracles.implied_checker(f.num_vars, f.clauses)
        pool = level2_resolvents(f, 4)
        for c in pool.clauses:
            assert implied(c)


def test_level2_pair_budget_truncates_deterministically():
    f = gen_uniform(GenSpec(n=30, k=3, ratio=4.2, seed=77))
    full = level2_resolvents(f, 4)
    a = level2_resolvents(f, 4, pair_budget=500)
    b = level2_resolvents(f, 4, pair_budget=500)
    assert a.clauses == b.clauses
    assert set(a.clauses) <= set(full.clauses)


def test_ternary_saturate_basic():
    f = Formula(3, [(1, 2, 3), (-1, 2, 3)])
    assert ternary_saturate(f) == ((2, 3),)


def test_ternary_saturate_no_pair():
    f = Formula(2, [(1, 2)])
    assert ternary_saturate(f) == ()


def test_ternary_saturate_fixpoint():
    f = gen_uniform(GenSpec(n=10, k=3, ratio=3.0, seed=5))
    derived = ternary_saturate(f)
    g = Formula(f.num_vars, f.clauses + derived)
    again = ternary_saturate(g)
    assert again == ()


def test_ternary_saturate_implied():
    f = gen_uniform(GenSpec(n=10, k=3, ratio=3.2, seed=21))
    implied = oracles.implied_checker(f.num_vars, f.clauses)
    for c in ternary_saturate(f):
        assert implied(c)


def test_ternary_ignores_wide_clauses():
    f = Formula(5, [(1, 2, 3, 4), (-1, 2, 3, 5)])
    assert ternary_saturate(f) == ()


def test_sample_pool():
    pool = ResolventPool(((1, 2), (2, 3), (3, 4)))
    assert sorted(sample_pool(pool, 10, seed=0)) == [(1, 2), (2, 3), (3, 4)]
    assert sample_pool(pool, 0, seed=0) == []
    big = ResolventPool(tuple((i, i + 1) for i in range(1, 100)))
    a = sample_pool(big, 10, seed=42)
    b = sample_pool(big, 10, seed=42)
    assert a == b
    assert len(a) == 10
    with pytest.raises(ValueError):
        sample_pool(pool, -1, seed=0)


def test_adding_samples_preserves_solutions():
    for seed in range(3):
        f = gen_uniform(GenSpec(n=10, k=3, ratio=3.6, seed=seed + 60))
        sols = set(oracles.solution_masks(f.num_vars, f.clauses).tolist())
        for pool in (level1_resolvents(f, 4), level2_resolvents(f, 4)):
            extra = sample_pool(pool, 10, seed=seed)
            merged = list(f.clauses) + extra
            assert set(oracles.solution_masks(f.num_vars, merged).tolist()) == sols
        merged = list(f.clauses + ternary_saturate(f))
        assert set(oracles.solution_masks(f.num_vars, merged).tolist()) == sols


def test_level2_rejects_negative_pair_budget():
    with pytest.raises(ValueError, match="pair_budget"):
        level2_resolvents(Formula(3, [(1, 2), (-1, 3), (-3, 2)]), 4, pair_budget=-1)


def test_pools_exclude_base_clauses_in_any_literal_order():
    # (-3, 1) x (3, 2) resolves to (1, 2), which is the base clause given as (2, 1)
    f = Formula(3, [(2, 1), (-3, 1), (3, 2)])
    assert level1_resolvents(f, 4).clauses == ()
    assert level2_resolvents(f, 4).clauses == ()
    assert ternary_saturate(f) == ()


def test_pools_depend_on_literal_sets_only():
    f = gen_uniform(GenSpec(n=16, k=3, ratio=4.2, seed=200))
    g = Formula(f.num_vars, [c[::-1] for c in f.clauses])  # canonicalised to f's clauses
    assert level1_resolvents(g, 4).clauses == level1_resolvents(f, 4).clauses
    for budget in (500, 5_000, None):
        kw = {} if budget is None else {"pair_budget": budget}
        assert level2_resolvents(g, 4, **kw).clauses == level2_resolvents(f, 4, **kw).clauses
    f = gen_uniform(GenSpec(n=9, k=3, ratio=2.5, seed=300))
    g = Formula(f.num_vars, [c[::-1] for c in f.clauses])
    assert ternary_saturate(g) == ternary_saturate(f)


def _random_side(rng, pivot_lit, others):
    """A clause of width 1-5 holding `pivot_lit`, literals in random order."""
    width = rng.randint(0, min(4, len(others)))
    lits = [v if rng.random() < 0.5 else -v for v in rng.sample(others, width)] + [pivot_lit]
    rng.shuffle(lits)
    return tuple(lits)


def test_bounded_resolve_matches_cnf_resolve():
    rng = random.Random(17)
    kinds = Counter()
    for _ in range(4000):
        n = rng.randint(1, 10)
        pivot = rng.randint(1, n)
        others = [v for v in range(1, n + 1) if v != pivot]
        a, b = _random_side(rng, pivot, others), _random_side(rng, -pivot, others)
        ref = resolve(a, b, pivot)
        if ref is None:
            kinds["tautology"] += 1
            widths = [rng.randint(0, 10)]
        else:
            kinds["empty" if ref == () else "clause"] += 1
            widths = [len(ref), len(ref) - 1, rng.randint(0, 10)]  # at, one under, any
        for w in widths:
            expect = ref if ref is not None and len(ref) <= w else None
            assert bounded_resolve(a, b, pivot, w) == expect, (a, b, pivot, w)
            assert bounded_resolve(b, a, pivot, w) == expect, (b, a, pivot, w)
    assert min(kinds["tautology"], kinds["empty"], kinds["clause"]) >= 50, kinds
    for a, b, pivot in [((1, 2), (1, 3), 1), ((1, 2), (-1, 3), 2), ((1, -1, 2), (-1, 3), 1)]:
        with pytest.raises(ValueError):
            resolve(a, b, pivot)
        with pytest.raises(ValueError):
            bounded_resolve(a, b, pivot, 4)


def _digest(clauses) -> str:
    return hashlib.sha256(repr(sorted(clauses)).encode()).hexdigest()[:16]


def _mixed_order() -> Formula:
    """3-clauses, then 5-clauses given in reversed literal order."""
    three = gen_uniform(GenSpec(n=14, k=3, ratio=2.5, seed=11)).clauses
    five = gen_uniform(GenSpec(n=14, k=5, ratio=1.5, seed=12)).clauses
    return Formula(14, list(three) + [c[::-1] for c in five])


def _with_tautologies() -> Formula:
    """Tautological clauses among 3-clauses, a unit, binaries and a 4-clause."""
    f = gen_uniform(GenSpec(n=12, k=3, ratio=3.0, seed=13))
    extra = [(1, -1, 5), (2,), (-2, 7), (3, -3), (4, 6, -8, 9), (-4, -6, 4), (-5, 10)]
    return Formula(12, list(f.clauses) + extra)


PIN_CASES = {
    "planted0": lambda: gen_planted(GenSpec(n=20, k=3, ratio=4.26, seed=0, bias=0.618))[0],
    "planted1": lambda: gen_planted(GenSpec(n=20, k=3, ratio=4.26, seed=1, bias=0.618))[0],
    "uniform": lambda: gen_uniform(GenSpec(n=20, k=3, ratio=4.2, seed=5)),
    "mixed_order": _mixed_order,
    "tautologies": _with_tautologies,
    "n7": lambda: gen_planted(GenSpec(n=7, k=3, ratio=4.2, seed=2))[0],
    "n10": lambda: gen_uniform(GenSpec(n=10, k=3, ratio=3.2, seed=21)),
}

# Digests of the sorted pools (`_digest`), computed with the enumeration
# built on `cnf.resolve` that the mask engine replaced.  Level-2 pins map
# pair_budget -> digest (None: the default budget, which never binds
# here).  Each case's last three budgets straddle the end of one partner
# list, and each of those three attempts adds a pool clause, so an
# off-by-one in the budget cut changes a digest.
LEVEL1_PINS = {
    "planted0": "21d7bd49aae0e732",
    "planted1": "eec22205efa0b2f6",
    "uniform": "e060bce6110b1058",
    "mixed_order": "ac0c9ba380b73ff1",
    "tautologies": "7488deabb26336c3",
}
EMPTY = "4f53cda18c2baa0c"
LEVEL2_PINS = {
    "planted0": {0: EMPTY, 1: "4d036a410fd8ea16", 10_000: "5507f7044fa30022",
                 None: "a88a21e6b91faf82", 8656: "fa4f039ac9564808",
                 8657: "44c490f7dda1fcb5", 8658: "049351eb8327d900"},
    "planted1": {0: EMPTY, 1: EMPTY, 10_000: "bcdafeaebc197ccb",
                 None: "97ec6bef5076bc30", 641: "1c130d33fb70738d",
                 642: "f427d4b6724bb865", 643: "cc2d77432e1dd8f5"},
    "uniform": {0: EMPTY, 1: "72b782072bdba414", 10_000: "b38cf01163e4dd3b",
                None: "31a5da8c9ac4b71b", 41: "a018055e3b04a999",
                42: "b5bd79781dc9dc97", 43: "8811af49a2f0f28f"},
    "mixed_order": {0: EMPTY, 1: EMPTY, 10_000: "ae9903f02f4d5381",
                    None: "45f14150244e96bd", 22404: "49b65393e89cdd36",
                    22405: "a1b4924ac672f166", 22406: "7066f59d8f63f331"},
    "tautologies": {0: EMPTY, 1: "5e78517aeef8b411", 10_000: "14cc132213273034",
                    None: "dbd002d39823f2e5", 389: "e572eb932bb4ac32",
                    390: "2046d7b3a72a4899", 391: "4aa5c489825a08b7"},
}
TERNARY_PINS = {
    "n7": "7c1f81ba17ae0611",
    "n10": "7a80cc4a9168be45",
    "mixed_order": "3416315f533dfc06",
    "tautologies": "ae81b0532cca485b",
}


def on_both_engines(cases):
    """Each case on the default engine (`_resolve.c` when the library
    builds) under the case's own id, then on the mask reference."""
    return ([pytest.param(case, False, id=case) for case in cases]
            + [pytest.param(case, True, id=f"{case}-reference") for case in cases])


@pytest.mark.parametrize(("case", "reference"), on_both_engines(sorted(LEVEL2_PINS)))
def test_pools_match_pinned_digests(case, reference, monkeypatch):
    if reference:
        monkeypatch.setattr(_native, "load", lambda: None)
    f = PIN_CASES[case]()
    assert _digest(level1_resolvents(f, 4).clauses) == LEVEL1_PINS[case]
    for budget, pin in LEVEL2_PINS[case].items():
        kw = {} if budget is None else {"pair_budget": budget}
        assert _digest(level2_resolvents(f, 4, **kw).clauses) == pin, budget


@pytest.mark.parametrize(("case", "reference"), on_both_engines(sorted(TERNARY_PINS)))
def test_ternary_matches_pinned_digests(case, reference, monkeypatch):
    if reference:
        monkeypatch.setattr(_native, "load", lambda: None)
    assert _digest(ternary_saturate(PIN_CASES[case]())) == TERNARY_PINS[case]


def _random_formula(rng, n: int) -> Formula:
    """Clauses of widths 1-5 with tautologies and repeats, given in random
    literal order; each time in two, an empty clause (which no pool then
    holds) and a clashing unit pair (whose resolvent is empty)."""
    clauses = [()] if rng.random() < 0.5 else []
    if rng.random() < 0.5:
        unit = rng.randint(1, n)
        clauses += [(unit,), (-unit,)]
    for _ in range(rng.randint(20, 45)):
        width = min(n, rng.choice((1, 2, 2, 3, 3, 3, 4, 5)))
        clause = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), width)]
        if rng.random() < 0.08:
            clause.append(-clause[0])
        rng.shuffle(clause)
        clauses.append(tuple(clause))
        if rng.random() < 0.15:
            clauses.append(tuple(clause))
    rng.shuffle(clauses)
    return Formula(n, clauses)


def _partner_list_ends(formula: Formula) -> list[int]:
    """The pair budgets at which the reference's level-2 walk finishes a
    partner list, in walk order."""
    originals = resolution._base_masks(formula)
    level1 = sorted(resolution._level1(formula.num_vars, originals, formula.num_vars) - set(originals),
                    key=resolution._clause)
    occ = resolution._Occurrences(formula.num_vars, originals + level1)
    ends, spent = [], 0
    for a in level1:
        for _, partners in occ.pivots(a):
            if partners:
                spent += len(partners)
                ends.append(spent)
    return ends


def _on_reference(fn):
    real = _native.load
    _native.load = lambda: None
    try:
        return fn()
    finally:
        _native.load = real


def _increasing(pool) -> bool:
    """Whether `pool` is a tuple, strictly increasing in tuple order."""
    return type(pool) is tuple and all(a < b for a, b in zip(pool, pool[1:]))


def test_kernel_pools_equal_the_reference_on_random_formulas(kernel):
    rng = random.Random(2005)
    seen = Counter()
    for trial in range(40):
        f = _random_formula(rng, rng.choice((4, 9, 30, 70, 100)))
        for width in (0, 1, 2, 4, 8, f.num_vars + 3):
            pool = level1_resolvents(f, width).clauses
            reference = _on_reference(lambda: level1_resolvents(f, width).clauses)
            assert pool == reference and _increasing(pool) and _increasing(reference), (trial, width)
            seen["empty level-1"] += () in pool
        ends = _partner_list_ends(f)
        budgets = {0, 1, resolution.PAIR_BUDGET_DEFAULT}
        for end in rng.sample(ends, min(4, len(ends))):
            budgets.update((end - 1, end, end + 1))
        for budget in sorted(budgets):
            pool = level2_resolvents(f, 4, budget).clauses
            reference = _on_reference(lambda: level2_resolvents(f, 4, budget).clauses)
            assert pool == reference and _increasing(pool) and _increasing(reference), (trial, budget)
            seen["level-2"] += bool(pool)
        derived = ternary_saturate(f)
        reference = _on_reference(lambda: ternary_saturate(f))
        assert derived == reference and _increasing(derived) and _increasing(reference), trial
        seen["empty ternary"] += () in derived
        seen["n > 64"] += f.num_vars > 64 and bool(derived)
        seen["empty clause"] += f.has_empty_clause()
    assert min(seen.values()) >= 3, seen


@pytest.mark.parametrize("reference", [False, True], ids=["default", "reference"])
def test_empty_resolvent_is_in_every_pool(reference, monkeypatch):
    if reference:
        monkeypatch.setattr(_native, "load", lambda: None)
    assert () in level1_resolvents(Formula(70, [(70,), (-70,)]), 0).clauses
    # (1, 70) with (-70,) gives (1,), which resolves with (-1,) to ()
    assert () in ternary_saturate(Formula(70, [(1, 70), (-70,), (-1,)]))
    # level 1 gives (1,) and (-1,), which resolve to ()
    assert () in level2_resolvents(Formula(3, [(1, 2), (-2,), (-1, 3), (-3,)]), 0).clauses


@pytest.mark.parametrize("call, name", [
    (lambda f: level1_resolvents(f, 4.5), "max_width"),
    (lambda f: level1_resolvents(f, -1), "max_width"),
    (lambda f: level1_resolvents(f, "4"), "max_width"),
    (lambda f: level2_resolvents(f, 4.5), "max_width"),
    (lambda f: level2_resolvents(f, -1), "max_width"),
    (lambda f: level2_resolvents(f, 4, pair_budget=1.5), "pair_budget"),
    (lambda f: level2_resolvents(f, 4, pair_budget=None), "pair_budget"),
    (lambda f: sample_pool(ResolventPool(tuple(sorted(f.clauses))), 1.5, seed=0), "cap"),
    (lambda f: sample_pool(ResolventPool(tuple(sorted(f.clauses))), -1, seed=0), "cap"),
])
def test_count_arguments_are_checked_before_either_engine(call, name, monkeypatch):
    def no_engine():
        raise AssertionError("an engine ran")

    f = Formula(3, [(1, 2), (-1, 3), (-3, 2)])
    monkeypatch.setattr(_native, "load", no_engine)
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 0"):
        call(f)


class _OutOfMemory:
    """A kernel whose every pool constructor returns NULL."""

    def __getattr__(self, name):
        return lambda *args: None


@pytest.mark.parametrize("call", [
    lambda f: level1_resolvents(f, 4),
    lambda f: level2_resolvents(f, 4),
    lambda f: ternary_saturate(f),
])
def test_a_kernel_allocation_failure_is_a_memory_error(call, monkeypatch):
    f = Formula(3, [(1, 2), (-1, 3), (-3, 2)])
    monkeypatch.setattr(_native, "load", _OutOfMemory)
    with pytest.raises(MemoryError, match="resolution kernel"):
        call(f)
