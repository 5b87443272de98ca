import random

import pytest

import oracles
from satlab import _native, cdcl
from satlab.cnf import Formula, count_satisfied_literals, eval_clause
from satlab.generators import GenSpec, gen_planted, gen_uniform
from satlab.quality import (
    BackboneBudgetError,
    FormulaUnsatisfiableError,
    compute_backbone,
    gen_deceptive,
    gen_general,
    quality_report,
)


def both_engines(monkeypatch):
    """Run a loop body with the compiled kernel as the search engine (when
    it builds), then with `CdclSolver`."""
    yield "kernel"
    monkeypatch.setattr(_native, "load", lambda: None)
    yield "reference"


def test_backbone_unit(monkeypatch):
    for _ in both_engines(monkeypatch):
        assert compute_backbone(Formula(1, [(1,)])) == {1}


def test_backbone_free_variable(monkeypatch):
    for _ in both_engines(monkeypatch):
        assert compute_backbone(Formula(2, [(1, 2)])) == frozenset()


def test_backbone_mixed(monkeypatch):
    # x1 forced true, x2 forced false, x3 free
    f = Formula(3, [(1,), (-2,), (1, 3), (1, -3)])
    for _ in both_engines(monkeypatch):
        assert compute_backbone(f) == {1, -2}


def test_backbone_unsat_raises(monkeypatch):
    for _ in both_engines(monkeypatch):
        with pytest.raises(FormulaUnsatisfiableError):
            compute_backbone(Formula(1, [(1,), (-1,)]))


def test_backbone_checks_every_model(monkeypatch):
    # a model the solver gets wrong is an internal error, never a pruned candidate
    monkeypatch.setattr(cdcl, "eval_formula", lambda formula, model: False)
    f, _ = gen_planted(GenSpec(n=15, k=3, ratio=4.0, seed=0))
    for _ in both_engines(monkeypatch):
        with pytest.raises(AssertionError, match="invalid model"):
            compute_backbone(f)


def test_backbone_checks_a_later_model(monkeypatch):
    # only the third model is wrong: the kernel returns it after every
    # query has run, and its check must still catch it
    f, _ = gen_planted(GenSpec(n=15, k=3, ratio=4.0, seed=0))
    real = cdcl.eval_formula
    for _ in both_engines(monkeypatch):
        calls = []

        def third_fails(formula, model):
            calls.append(model)
            return len(calls) != 3 and real(formula, model)

        monkeypatch.setattr(cdcl, "eval_formula", third_fails)
        with pytest.raises(AssertionError, match="invalid model"):
            compute_backbone(f)
        assert len(calls) >= 3


def _random_formula(rng: random.Random) -> Formula:
    """A small formula over n <= 14 variables, mostly of 3-clauses near the
    threshold, with units, repeated and tautological clauses: many are
    unsatisfiable, and a conflict limit of 0-3 ends some mid-way."""
    n = rng.randint(0, 14)
    if n == 0:
        return Formula(0, rng.choice([[], [()]]))
    clauses = []
    for _ in range(rng.randint(2 * n, 5 * n)):
        roll = rng.random()
        if roll < 0.1 and clauses:
            clauses.append(rng.choice(clauses))
        elif roll < 0.2:
            v = rng.randint(1, n)
            clauses.append((v, -v, *([rng.randint(1, n)] if rng.random() < 0.5 else [])))
        else:
            vs = rng.sample(range(1, n + 1), min(n, rng.choice([1, 2, 3, 3, 3, 3, 3, 3, 4])))
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return Formula(n, clauses)


def _backbone_outcome(formula, seed, limit):
    """The backbone, or the error's type, message and `confirmed`."""
    try:
        return compute_backbone(formula, seed=seed, conflict_limit=limit)
    except (FormulaUnsatisfiableError, BackboneBudgetError) as exc:
        return type(exc), str(exc), getattr(exc, "confirmed", None)


def test_kernel_backbone_matches_the_reference(monkeypatch):
    rng = random.Random(2026)
    cases = [(Formula(0, []), 0), (Formula(0, [()]), 0), (Formula(1, []), 1), (Formula(1, [(-1,)]), 2),
             (Formula(1, [(1,), (-1,)]), 3), (Formula(1, [(1, -1)]), 2**40)]
    cases += [(_random_formula(rng), rng.choice([0, 7, 2**40 + 3])) for _ in range(200)]
    limits = (None, 0, 1, 2, 3)
    outcomes, checked = {}, {}
    real = cdcl.eval_formula
    for engine in both_engines(monkeypatch):
        models = checked[engine] = []  # every model checked, in the order found: the same searches ran
        monkeypatch.setattr(cdcl, "eval_formula", lambda formula, model: models.append(bytes(model))
                            or real(formula, model))
        outcomes[engine] = [_backbone_outcome(f, seed, limit) for f, seed in cases for limit in limits]
    assert outcomes["kernel"] == outcomes["reference"]
    assert checked["kernel"] == checked["reference"]
    kinds = {(o[0], bool(o[2])) if isinstance(o, tuple) else (frozenset, bool(o)) for o in outcomes["kernel"]}
    assert kinds == {(frozenset, False), (frozenset, True), (FormulaUnsatisfiableError, False),
                     (BackboneBudgetError, False), (BackboneBudgetError, True)}  # a limit ends some mid-way
    for (f, _), unbounded in zip(cases, outcomes["kernel"][::len(limits)]):
        if oracles.is_satisfiable(f.num_vars, f.clauses):
            assert unbounded == oracles.brute_backbone(f.num_vars, f.clauses)
        else:
            assert unbounded[0] is FormulaUnsatisfiableError


def _budget_error(formula, limit):
    with pytest.raises(BackboneBudgetError) as info:
        compute_backbone(formula, conflict_limit=limit)
    assert isinstance(info.value.confirmed, frozenset)
    return str(info.value), info.value.confirmed


def test_backbone_budget_error_carries_partial(monkeypatch):
    # f runs out before a first model; partial confirms backbone literals
    # before it runs out at limit 3, and fails on other literals at 0-2
    f = gen_uniform(GenSpec(n=40, k=3, ratio=4.2, seed=123))
    partial, _ = gen_planted(GenSpec(n=15, k=3, ratio=4.26, seed=3))
    errors = {}
    for engine in both_engines(monkeypatch):
        _budget_error(f, 1)
        errors[engine] = [_budget_error(g, limit) for g in (f, partial) for limit in range(4)]
    assert errors["kernel"] == errors["reference"]
    backbone = oracles.brute_backbone(partial.num_vars, partial.clauses)
    confirmed = [c for _, c in errors["kernel"][4:]]
    assert all(c <= backbone for c in confirmed) and confirmed[3]
    assert len({message for message, _ in errors["kernel"][4:]}) == 3


def test_backbone_matches_enumeration_on_planted(monkeypatch):
    for _ in both_engines(monkeypatch):
        for seed in range(8):
            f, _hidden = gen_planted(GenSpec(n=15, k=3, ratio=4.0, seed=seed))
            expected = oracles.brute_backbone(f.num_vars, f.clauses)
            assert compute_backbone(f, seed=seed) == expected


def test_backbone_matches_enumeration_on_uniform_sat(monkeypatch):
    for _ in both_engines(monkeypatch):
        checked = 0
        for seed in range(12):
            f = gen_uniform(GenSpec(n=12, k=3, ratio=4.0, seed=seed + 40))
            if not oracles.is_satisfiable(f.num_vars, f.clauses):
                continue
            assert compute_backbone(f, seed=seed) == oracles.brute_backbone(f.num_vars, f.clauses)
            checked += 1
        assert checked >= 5


def test_deceptive_structure():
    backbone = frozenset({1, -2, 3, 4, -5})
    clauses = gen_deceptive(backbone, 50, seed=7)
    assert len(clauses) == 50
    for c in clauses:
        assert len(c) == 3
        assert len({abs(l) for l in c}) == 3
        in_bb = [l for l in c if l in backbone]
        anti_bb = [l for l in c if -l in backbone]
        assert len(in_bb) == 1
        assert len(anti_bb) == 2


def test_deceptive_exactly_one_correct_literal():
    # under any solution, backbone literals hold and their complements fail
    f, hidden = gen_planted(GenSpec(n=15, k=3, ratio=4.2, seed=1))
    backbone = compute_backbone(f)
    if len({abs(l) for l in backbone}) < 3:
        pytest.skip("instance backbone too small for the deceptive model")
    clauses = gen_deceptive(backbone, 30, seed=1)
    sols = oracles.solution_masks(f.num_vars, f.clauses)
    for mask in sols.tolist():
        alpha = [False] + [(mask >> (v - 1)) & 1 == 1 for v in range(1, 16)]
        for c in clauses:
            assert count_satisfied_literals(c, alpha) == 1


def test_deceptive_preserves_solutions():
    f, hidden = gen_planted(GenSpec(n=14, k=3, ratio=4.2, seed=1))
    backbone = compute_backbone(f)
    if len(backbone) < 3:
        pytest.skip("instance backbone too small for the deceptive model")
    clauses = gen_deceptive(backbone, 25, seed=2)
    before = set(oracles.solution_masks(f.num_vars, f.clauses).tolist())
    after = set(oracles.solution_masks(f.num_vars, list(f.clauses) + clauses).tolist())
    assert before == after


def test_deceptive_validation():
    with pytest.raises(ValueError):
        gen_deceptive(frozenset({1, 2}), 5, seed=0)
    assert gen_deceptive(frozenset({1, 2, 3}), 0, seed=0) == []


@pytest.mark.parametrize("t", [-5, -1, 2.5, "3", None])
def test_clause_models_reject_a_count_that_is_not_a_count(t):
    with pytest.raises(ValueError, match="t must be an integer >= 0"):
        gen_deceptive(frozenset({1, -2, 3}), t, seed=0)
    with pytest.raises(ValueError, match="t must be an integer >= 0"):
        gen_general([False, True, True, True], frozenset({1}), t, seed=0)


def test_general_structure_and_correctness():
    f, hidden = gen_planted(GenSpec(n=20, k=3, ratio=4.0, seed=5))
    backbone = compute_backbone(f)
    if not backbone:
        pytest.skip("empty backbone")
    clauses = gen_general(hidden, backbone, 40, seed=3)
    assert len(clauses) == 40
    for c in clauses:
        assert len(c) == 3
        assert len({abs(l) for l in c}) == 3
        assert count_satisfied_literals(c, hidden) >= 1
        assert eval_clause(c, hidden)


def test_general_preserves_solutions():
    f, hidden = gen_planted(GenSpec(n=14, k=3, ratio=4.0, seed=19))
    backbone = compute_backbone(f)
    if not backbone:
        pytest.skip("empty backbone")
    clauses = gen_general(hidden, backbone, 25, seed=4)
    before = set(oracles.solution_masks(f.num_vars, f.clauses).tolist())
    after = set(oracles.solution_masks(f.num_vars, list(f.clauses) + clauses).tolist())
    assert before == after


def test_general_expected_correct_count():
    # backbone literal always correct; each random literal correct w.p. 1/2,
    # so the mean correct count over many clauses approaches 2.
    f, hidden = gen_planted(GenSpec(n=50, k=3, ratio=4.2, seed=8))
    backbone = compute_backbone(f)
    clauses = gen_general(hidden, backbone, 10_000, seed=6)
    mean_correct = sum(count_satisfied_literals(c, hidden) for c in clauses) / len(clauses)
    assert abs(mean_correct - 2.0) < 0.05


def test_general_validation():
    with pytest.raises(ValueError):
        gen_general([False, True, True, True], frozenset(), 3, seed=0)
    with pytest.raises(ValueError):
        gen_general([False, True], frozenset({1}), 3, seed=0)
    assert gen_general([False, True, True, True], frozenset({1}), 0, seed=0) == []


def test_quality_report_all_true():
    report = quality_report([(1, 2, 3)], [False, True, True, True])
    assert report.mean_quality == 1.0
    assert report.mean_correct == 3.0
    assert report.rows == ((0, 3, 3, 1.0),)


def test_quality_report_deceptive_exactly_one():
    f, hidden = gen_planted(GenSpec(n=15, k=3, ratio=4.2, seed=1))
    backbone = compute_backbone(f)
    if len(backbone) < 3:
        pytest.skip("instance backbone too small")
    clauses = gen_deceptive(backbone, 20, seed=5)
    report = quality_report(clauses, hidden)
    assert report.mean_correct == 1.0
    assert report.mean_quality == pytest.approx(1 / 3)


def test_quality_report_aggregates_match_rows():
    f, hidden = gen_planted(GenSpec(n=20, k=3, ratio=4.0, seed=2))
    report = quality_report(f.clauses, hidden)
    assert report.mean_quality == pytest.approx(
        sum(r[3] for r in report.rows) / len(report.rows)
    )
    assert report.mean_correct == pytest.approx(
        sum(r[1] for r in report.rows) / len(report.rows)
    )
    assert all(0.0 <= r[3] <= 1.0 for r in report.rows)


def test_quality_report_incomplete_solution():
    with pytest.raises(ValueError):
        quality_report([(1, 5)], [False, True, True])
    # literal 0 used to read the solution's unused index 0 and count as correct
    with pytest.raises(ValueError, match=r"literal 0 out of range 1..1 in clause 1"):
        quality_report([(1,), (0,)], [False, True])
