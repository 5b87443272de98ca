import pickle
import random

import pytest

import oracles
from satlab.cnf import (
    DimacsError,
    DimacsWarning,
    Formula,
    canonical_clause,
    count_satisfied_literals,
    emit_dimacs,
    eval_clause,
    eval_formula,
    format_solution,
    is_tautology,
    parse_clause_lines,
    parse_dimacs,
    parse_solution,
    resolve,
)
from satlab.cdcl import MiningBudget, cdcl_solve_and_mine
from satlab.generators import GenSpec, gen_uniform
from satlab.sls import probsat_run


def test_parse_basic():
    f = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n")
    assert f.num_vars == 3
    assert f.num_clauses == 2
    assert f.clauses == ((1, -2), (2, 3))


def test_parse_empty_clause_set():
    f = parse_dimacs("p cnf 1 0\n")
    assert f.num_vars == 1
    assert f.num_clauses == 0


def test_parse_duplicate_literal_normalized():
    f = parse_dimacs("p cnf 2 1\n1 1 -2 0\n")
    assert f.clauses == ((1, -2),)


def test_parse_comments_and_multiline_clauses():
    f = parse_dimacs("c hello\nc world\np cnf 4 2\n1 2\n3 0 -4\n1 0\n")
    assert f.clauses == ((1, 2, 3), (1, -4))


def test_parse_tautology_retained_and_flagged():
    f = parse_dimacs("p cnf 2 2\n1 -1 2 0\n1 2 0\n")
    assert f.num_clauses == 2
    assert f.tautology_ids == {0}


def test_parse_count_mismatch_warns():
    with pytest.warns(DimacsWarning):
        f = parse_dimacs("p cnf 2 5\n1 0\n")
    assert f.num_clauses == 1


def test_parse_errors():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf x 2\n")
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n3 0\n")  # literal out of range
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 2\n")  # missing terminating 0
    with pytest.raises(DimacsError):
        parse_dimacs("1 2 0\n")  # clause before header
    with pytest.raises(DimacsError):
        parse_dimacs("")


def test_parse_satlib_percent_footer():
    f = parse_dimacs("p cnf 2 1\n1 2 0\n%\n0\n")
    assert f.clauses == ((1, 2),)


def test_parse_clause_lines_names_the_line_of_a_bad_token():
    assert parse_clause_lines("c mined\n1 -2 0\n") == [(1, -2)]
    with pytest.raises(DimacsError, match="line 3: non-integer token"):
        parse_clause_lines("c mined\n1 -2 0\n3 x 0\n")


def test_parse_solution_names_the_line_of_a_bad_token():
    with pytest.raises(DimacsError, match="line 2: non-integer token"):
        parse_solution("v 1 -2\nv 3 y 0\n", 3)


def test_emit_basic():
    f = Formula(3, [(1, -2), (2, 3)])
    assert emit_dimacs(f) == "p cnf 3 2\n1 -2 0\n2 3 0\n"
    assert emit_dimacs(Formula(1, [])) == "p cnf 1 0\n"


def test_parse_emit_roundtrip_random_instances():
    for seed in range(25):
        f = gen_uniform(GenSpec(n=30, k=3, ratio=4.2, seed=seed))
        g = parse_dimacs(emit_dimacs(f))
        assert g.num_vars == f.num_vars
        assert g.clause_set() == f.clause_set()


def test_occurrence_index_mirrors_membership():
    # unsorted literals and a tautology (clause 1) survive normalize=False
    raw = Formula(4, [(3, -1), (2, -2, 4), (-1, 3, 4), (4,)], normalize=False)
    for f in (gen_uniform(GenSpec(n=25, k=3, ratio=4.0, seed=7)), raw):
        for lit in range(-f.num_vars, f.num_vars + 1):
            # exactly the clauses holding lit, in clause-id order; none for 0
            assert list(f.occurrence(lit)) == [cid for cid, c in enumerate(f.clauses) if lit in c]
        for lit in (f.num_vars + 1, -f.num_vars - 1, 2**40):
            assert len(f.occurrence(lit)) == 0
    # list i = 2|l| + (l < 0): slots 0 and 1 are empty, then 1, -1, 2, -2, ...
    assert list(raw.occ_offsets) == [0, 0, 0, 0, 2, 3, 4, 6, 6, 9, 9]
    assert list(raw.occ) == [0, 2, 1, 1, 0, 2, 1, 2, 3]
    assert raw.occ_offsets.itemsize == raw.occ.itemsize == 4
    assert raw.max_occurrences == 3


def test_csr_view_is_lazy_flat_and_cached():
    f = Formula(4, [(1, -2), (3,), (-1, 2, 4, -3), (2, 4, -1)], normalize=False)
    assert f._csr is None
    offsets, literals, max_occ = f.csr()
    assert list(offsets) == [0, 2, 3, 7, 10]
    assert list(literals) == [1, -2, 3, -1, 2, 4, -3, 2, 4, -1]
    assert offsets.itemsize == literals.itemsize == 4
    assert max_occ == f.max_occurrences == max(len(f.occurrence(l)) for l in range(-4, 5)) == 2
    assert f.csr() is f.csr()
    assert Formula(3, []).csr() == (offsets[:1], literals[:0], 0)
    # a pickled copy carries the cached view and equal occurrence arrays
    copy = pickle.loads(pickle.dumps(f))
    assert copy.csr() == f.csr()
    assert (copy.occ_offsets, copy.occ, copy.max_occurrences) == (f.occ_offsets, f.occ, 2)


def test_eval_clause():
    alpha = [False, False, False]  # x1=0, x2=0
    assert eval_clause((1, -2), alpha) is True
    assert eval_clause((1, 2), alpha) is False
    assert eval_clause((), alpha) is False


def test_count_satisfied_literals():
    all_true = [False, True, True, True]
    assert count_satisfied_literals((1, 2, 3), all_true) == 3
    assert count_satisfied_literals((-1, -2), all_true) == 0
    assert count_satisfied_literals((1, -2, 3), all_true) == 2


def test_count_iff_eval_property():
    rng = random.Random(42)
    for _ in range(200):
        n = 6
        clause = canonical_clause(
            rng.sample(range(1, n + 1), 3)[i] * rng.choice([-1, 1]) for i in range(3)
        )
        alpha = [False] + [rng.random() < 0.5 for _ in range(n)]
        assert (count_satisfied_literals(clause, alpha) >= 1) == eval_clause(clause, alpha)


def test_resolve_basic():
    assert resolve((1, 2), (-1, 3), 1) == (2, 3)
    assert resolve((1, 2), (-1, -2), 1) is None  # tautology
    assert resolve((1,), (-1,), 1) == ()


def test_resolve_errors():
    with pytest.raises(ValueError):
        resolve((1, 2), (1, 3), 1)
    with pytest.raises(ValueError):
        resolve((1, 2), (-1, 3), 2)


def test_resolve_is_implied():
    rng = random.Random(3)
    checked = 0
    for _ in range(300):
        n = 8
        a = [rng.choice([-1, 1]) * v for v in rng.sample(range(1, n + 1), 3)]
        b = [rng.choice([-1, 1]) * v for v in rng.sample(range(1, n + 1), 3)]
        pivots = [abs(l) for l in a if -l in b]
        if not pivots:
            continue
        r = resolve(a, b, pivots[0])
        if r is None:
            continue
        assert oracles.is_implied(n, [a, b], r)
        checked += 1
    assert checked > 50


def test_max_clause_width():
    assert Formula(5, [(1,), (1, 2, 3, 4, 5)]).max_width == 5
    assert gen_uniform(GenSpec(n=20, k=3, ratio=4.0, seed=1)).max_width == 3
    assert gen_uniform(GenSpec(n=20, k=7, ratio=2.0, seed=1)).max_width == 7
    assert Formula(3, []).max_width == 0


def test_formula_rejects_out_of_range_literal():
    with pytest.raises(ValueError):
        Formula(2, [(1, 3)])


def test_unnormalized_formula_rejects_repeated_literal():
    # tautologies and literal order survive normalize=False; repeats do not
    assert Formula(3, [(3, -1, 1)], normalize=False).clauses == ((3, -1, 1),)
    for clause in ((1, 1), (2, -3, 2), (-1, 2, -1)):
        with pytest.raises(ValueError, match="repeats a literal"):
            Formula(3, [(1, 2), clause], normalize=False)
    assert Formula(3, [(2, -3, 2)]).clauses == ((2, -3),)


def formula_attrs(f):
    return (f.num_vars, f.clauses, f.tautology_ids, f.occ_offsets, f.occ, f.max_occurrences,
            f.max_width, f.csr())


EXTENSIONS = {
    # name: (num_vars, parent clauses, added clauses); parents keep their literal order
    "no-additions": (4, [(1, -2), (2, 3, 4)], []),
    "tautologies": (4, [(1, -2), (2, -2, 3)], [(1, -1), (3, 2, -3), (4,)]),
    "wider-than-parent": (6, [(1, 2), (-3, 4)], [(1, 2, 3, 4, 5, 6), (-6,)]),
    "literals-first-in-additions": (5, [(1, 2), (2, -1)], [(-5, 4), (3, -4, 5), (5,)]),
    "unnormalized-parent": (4, [(3, -1), (2, -2, 4), (-1, 3, 4), (4,)], [(4, 3), (-4, -1), (1, -3)]),
    "empty-parent": (3, [], [(2, 1), (-3,)]),
    "empty-clauses": (3, [(1, 2), ()], [(), (-1,)]),
}


@pytest.mark.parametrize("cached_csr", [False, True])
@pytest.mark.parametrize("name", sorted(EXTENSIONS))
def test_extended_equals_a_rebuild(name, cached_csr):
    n, old, new = EXTENSIONS[name]
    parent = Formula(n, old, normalize=False)
    if cached_csr:
        parent.csr()
    extended = parent.extended(new)
    # a cached view is extended, and none is built for a parent without one
    assert (extended._csr is not None) == cached_csr
    assert formula_attrs(extended) == formula_attrs(Formula(n, old + new, normalize=False))
    assert formula_attrs(parent) == formula_attrs(Formula(n, old, normalize=False))
    # the extended formula survives the pickling that run_suite workers rely on
    assert formula_attrs(pickle.loads(pickle.dumps(extended))) == formula_attrs(extended)


def test_extended_equals_a_rebuild_on_random_formulas():
    rng = random.Random(5)
    for trial in range(200):
        n = rng.randint(1, 9)

        def clause():
            lits = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), rng.randint(0, min(n, 5)))]
            return lits + [-lits[0]] if lits and rng.random() < 0.2 else lits

        old = [clause() for _ in range(rng.randint(0, 12))]
        new = [clause() for _ in range(rng.randint(0, 8))]
        parent = Formula(n, old, normalize=False)
        if trial % 2:
            parent.csr()
        assert formula_attrs(parent.extended(new)) == formula_attrs(Formula(n, old + new, normalize=False))


def test_extended_rejects_bad_clauses_and_leaves_the_parent_unchanged():
    parent = Formula(3, [(1, -2), (2, 3)])
    parent.csr()
    before = formula_attrs(parent)
    for bad, match in (((1, 4), "literal 4 out of range 1..3 in clause 3"), ((0,), "literal 0 out of range"),
                       ((-4, 2), "literal -4 out of range"), ((2, 3, 2), "clause 3 repeats a literal")):
        with pytest.raises(ValueError, match=match):
            parent.extended([(1, 2), bad])
        assert formula_attrs(parent) == before


def test_engines_agree_on_extended_and_rebuilt_formulas():
    base = gen_uniform(GenSpec(n=40, k=3, ratio=4.3, seed=11))
    extra = [tuple(reversed(c)) for c in gen_uniform(GenSpec(n=40, k=4, ratio=0.5, seed=12)).clauses]
    base.csr()  # extended from the parent's cached CSR, as after the miner in run_hybrid
    extended = base.extended(extra)
    rebuilt = Formula(40, base.clauses + tuple(extra), normalize=False)
    for seed in range(4):
        a, b = probsat_run(extended, 3_000, seed), probsat_run(rebuilt, 3_000, seed)
        assert (a.status, a.flips_used, a.model) == (b.status, b.flips_used, b.model)
        budget = MiningBudget(wall_seconds=60, conflict_limit=40, width_limit=5)
        a, b = cdcl_solve_and_mine(extended, budget, seed), cdcl_solve_and_mine(rebuilt, budget, seed)
        assert (a.status, a.model, a.learned, a.total_learned_seen, a.conflicts) == \
            (b.status, b.model, b.learned, b.total_learned_seen, b.conflicts)


def test_tautology_helpers():
    assert is_tautology((1, -1, 2))
    assert not is_tautology((1, 2))
    assert canonical_clause((3, 1, -2, 1)) == (1, -2, 3)


def test_solution_format_roundtrip():
    alpha = [False, True, False, True, True]
    text = format_solution(alpha, width=3)
    assert text.endswith("0\n")
    assert parse_solution(text, 4) == alpha
    with pytest.raises(ValueError):
        parse_solution("v 1 0\n", 2)  # incomplete


def test_eval_formula():
    f = Formula(2, [(1,), (-2,)])
    assert eval_formula(f, [False, True, False])
    assert not eval_formula(f, [False, True, True])
