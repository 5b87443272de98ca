import pickle
import random
import warnings
from itertools import accumulate

import pytest

import oracles
from satlab import _native, cnf
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
    parse_clause_lines,
    parse_dimacs,
    parse_solution,
    resolve,
)
from satlab.cdcl import MiningBudget, cdcl_solve_and_mine
from satlab.generators import GenSpec, gen_planted, gen_uniform
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
    assert f.clauses == ((-1, 1, 2), (1, 2))
    assert list(f.occurrence(1)) == [0, 1] and list(f.occurrence(-1)) == [0]  # indexed under both literals


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


def test_parse_solution_rejects_a_variable_given_with_both_signs():
    # it used to return x1 = False, the last sign given
    with pytest.raises(ValueError, match="^line 1: variable 1 is given both true and false$"):
        parse_solution("v 1 -1 2 0")
    with pytest.raises(ValueError, match="^line 3: variable 2 is given both true and false$"):
        parse_solution("c two lines\nv 1 2\nv -2 0\n", 2)
    assert parse_solution("v 1 1 -2 0") == [False, True, False]  # a repeat of one sign is no contradiction


def test_emit_basic():
    f = Formula(3, [(1, -2), (2, 3)])
    assert emit_dimacs(f) == "p cnf 3 2\n1 -2 0\n2 3 0\n"
    assert emit_dimacs(Formula(1, [])) == "p cnf 1 0\n"


def test_emit_writes_each_comment_line_as_its_own_comment():
    f = Formula(3, [(1, -2), (2, 3)])
    comments = ["two\n1 2 0", "p cnf 9 9", "", "crlf\r\nend\n", 7]
    text = emit_dimacs(f, comments)
    assert text == "c two\nc 1 2 0\nc p cnf 9 9\nc \nc crlf\nc end\nc 7\np cnf 3 2\n1 -2 0\n2 3 0\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = parse_dimacs(text)
    assert (g.num_vars, g.clauses) == (f.num_vars, f.clauses)


def test_parse_emit_roundtrip_random_instances():
    for seed in range(25):
        f = gen_uniform(GenSpec(n=30, k=3, ratio=4.2, seed=seed))
        g = parse_dimacs(emit_dimacs(f))
        assert g.num_vars == f.num_vars
        assert frozenset(g.clauses) == frozenset(f.clauses)


def test_occurrence_index_mirrors_membership():
    # unsorted literals are put in canonical order; the tautology (clause 1) stays
    raw = Formula(4, [(3, -1), (2, -2, 4), (-1, 3, 4), (4,)])
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


def test_flat_clause_arrays_hold_the_canonical_clauses():
    f = Formula(4, [(1, -2), (3,), (-1, 2, 4, -3), (2, 4, -1, 2)])
    assert f.clauses == ((1, -2), (3,), (-1, 2, -3, 4), (-1, 2, 4))
    assert list(f.offsets) == [0, 2, 3, 7, 10]
    assert list(f.literals) == [1, -2, 3, -1, 2, -3, 4, -1, 2, 4]
    assert f.offsets.itemsize == f.literals.itemsize == 4
    assert f.max_occurrences == max(len(f.occurrence(l)) for l in range(-4, 5)) == 2
    empty = Formula(3, [])
    assert (list(empty.offsets), list(empty.literals), empty.max_occurrences) == ([0], [], 0)
    # a pickled copy carries equal flat and occurrence arrays
    copy = pickle.loads(pickle.dumps(f))
    assert (copy.offsets, copy.literals) == (f.offsets, f.literals)
    assert (copy.occ_offsets, copy.occ, copy.max_occurrences) == (f.occ_offsets, f.occ, 2)


def assert_canonical_with_flat_arrays(f):
    """The construction contract: canonical clauses, and flat arrays that
    hold exactly them."""
    assert all(c == canonical_clause(c) for c in f.clauses), f.clauses
    assert list(f.offsets) == list(accumulate(map(len, f.clauses), initial=0))
    assert list(f.literals) == [lit for c in f.clauses for lit in c]
    assert f.offsets.typecode == f.literals.typecode == "i"
    assert f.max_width == max(map(len, f.clauses), default=0)


def test_every_construction_path_holds_canonical_clauses_and_their_flat_arrays(kernel, monkeypatch):
    raw = [(3, -1, 3), (2, -2, 4), (), (4, 1, -1, 4, 2), (2,), (1, 2, 3, 4, -1, -2, -3, -4)]
    text = f"p cnf 4 {len(raw)}\n" + "".join(" ".join(map(str, c)) + " 0\n" for c in raw)
    assert cnf._scan_dimacs(kernel, text) is not None, "the scanner reads this text"
    expected = tuple(map(canonical_clause, raw))
    assert expected[0] == (-1, 3) and expected[3] == (-1, 1, 2, 4)
    for loader in (_native.load, lambda: None):  # native, then the reference
        with monkeypatch.context() as patched:
            patched.setattr(_native, "load", loader)
            parsed = parse_dimacs(text)
            built = Formula(4, raw)
            extended = Formula(4, raw[:2]).extended(raw[2:])
            for f in (built, parsed, extended, pickle.loads(pickle.dumps(built))):
                assert f.clauses == expected
                assert_canonical_with_flat_arrays(f)
    assert Formula(3, [(2, -3, 2)]).clauses == ((2, -3),)


def empty_clause_flags(n, clauses, additions):
    """`has_empty_clause()` of each way to build a formula of `clauses`
    (and of it extended by each of `additions`) on the current path."""
    text = f"p cnf {n} {len(clauses)}\n" + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
    built = Formula(n, clauses)
    flags = [built.has_empty_clause(), parse_dimacs(text).has_empty_clause(),
             pickle.loads(pickle.dumps(built)).has_empty_clause()]
    flags += [built.extended(added).has_empty_clause() for added in additions]
    return flags


@pytest.mark.parametrize("loader", ["native", "reference"])
def test_has_empty_clause_is_the_same_on_every_build_path(kernel, monkeypatch, loader):
    if loader == "reference":
        monkeypatch.setattr(_native, "load", lambda: None)
    additions = ([(1,)], [()], [(2, -2), ()], [(-1, 2)])
    for n, clauses in ((3, [(1, 2), ()]), (2, [()]), (3, [(1, -1), (2,)]), (2, []), (2, [(1, 2, 1)]),
                       (3, [(3,), (), (1, -2), ()])):
        empty = () in clauses
        assert empty_clause_flags(n, clauses, additions) == [empty] * 3 + [empty, True, True, empty]
    # a bare `0` line is an empty clause, for the scanner and the reference reader alike
    for text in ("p cnf 2 2\n1 2 0\n0\n", "p cnf 2 2\n0\n-1 0\n", "p cnf 2 1\n1 -2 0\n"):
        assert parse_dimacs(text).has_empty_clause() == ("\n0\n" in text)
        assert parse_dimacs(text.encode()).has_empty_clause() == ("\n0\n" in text)
    assert Formula(2, []).extended([()]).extended([(1,)]).has_empty_clause()
    assert (Formula(0, []).has_empty_clause(), Formula(0, [()]).has_empty_clause()) == (False, True)
    for seed in range(3):
        spec = GenSpec(n=30, k=3, ratio=4.2, seed=seed)
        assert not gen_planted(spec)[0].has_empty_clause()
        assert not gen_uniform(spec).has_empty_clause()


def test_has_empty_clause_agrees_with_the_clauses_on_random_formulas(kernel, monkeypatch):
    rng = random.Random(21)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 12)
        clauses = [[rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.choice((0, 1, 2, 3, 3, 4)))]
                   for _ in range(rng.randint(0, 8))]
        added = [[rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.choice((0, 2, 3)))]
                 for _ in range(rng.randint(0, 3))]
        native = Formula(n, clauses)
        with monkeypatch.context() as patched:
            patched.setattr(_native, "load", lambda: None)
            reference = Formula(n, clauses)
        for f in (native, reference, native.extended(added), reference.extended(added)):
            assert f.has_empty_clause() == (() in f.clauses), (n, clauses, added)
            seen.add(f.has_empty_clause())
    assert seen == {True, False}


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


def is_tautology(clause):
    return any(-lit in clause for lit in clause)


def formula_attrs(f):
    return (f.num_vars, f.clauses, f.offsets, f.literals, f.occ_offsets, f.occ, f.max_occurrences,
            f.max_width)


EXTENSIONS = {
    # name: (num_vars, parent clauses, added clauses), in any literal order
    "no-additions": (4, [(1, -2), (2, 3, 4)], []),
    "tautologies": (4, [(1, -2), (2, -2, 3)], [(1, -1), (3, 2, -3), (4,)]),
    "wider-than-parent": (6, [(1, 2), (-3, 4)], [(1, 2, 3, 4, 5, 6), (-6,)]),
    "literals-first-in-additions": (5, [(1, 2), (2, -1)], [(-5, 4), (3, -4, 5), (5,)]),
    "unnormalized-parent": (4, [(3, -1), (2, -2, 4), (-1, 3, 4), (4,)], [(4, 3), (-4, -1), (1, -3)]),
    "empty-parent": (3, [], [(2, 1), (-3,)]),
    "empty-clauses": (3, [(1, 2), ()], [(), (-1,)]),
    "repeats": (3, [(1, 2, 1)], [(2, 3, 2), (-1, -1), (3, -3, 3)]),
}


@pytest.mark.parametrize("reversed_additions", [False, True])
@pytest.mark.parametrize("name", sorted(EXTENSIONS))
def test_extended_equals_a_rebuild(name, reversed_additions):
    n, old, new = EXTENSIONS[name]
    if reversed_additions:  # extended puts added clauses in canonical order, as __init__ does
        new = [c[::-1] for c in new]
    parent = Formula(n, old)
    extended = parent.extended(new)
    assert formula_attrs(extended) == formula_attrs(Formula(n, old + new))
    assert formula_attrs(parent) == formula_attrs(Formula(n, old))
    assert_canonical_with_flat_arrays(extended)
    # the extended formula survives the pickling that run_suite workers rely on
    assert formula_attrs(pickle.loads(pickle.dumps(extended))) == formula_attrs(extended)


@pytest.mark.parametrize("reversed_additions", [False, True])
@pytest.mark.parametrize("name", sorted(EXTENSIONS))
def test_extended_equals_a_rebuild_on_the_python_build(name, reversed_additions, reference_only):
    test_extended_equals_a_rebuild(name, reversed_additions)


def test_extended_equals_a_rebuild_on_random_formulas(monkeypatch):
    for loader in (_native.load, lambda: None):  # native, then the reference
        monkeypatch.setattr(_native, "load", loader)
        rng = random.Random(5)
        for trial in range(200):
            n = rng.randint(1, 9)

            def clause():
                lits = [v if rng.random() < 0.5 else -v
                        for v in rng.sample(range(1, n + 1), rng.randint(0, min(n, 5)))]
                if lits and rng.random() < 0.2:
                    lits.append(-lits[0] if rng.random() < 0.5 else lits[0])  # a tautology or a repeat
                return lits

            old = [clause() for _ in range(rng.randint(0, 12))]
            new = [clause() for _ in range(rng.randint(0, 8))]
            parent = Formula(n, old)
            before = formula_attrs(parent)
            assert formula_attrs(parent.extended(new)) == formula_attrs(Formula(n, old + new))
            assert formula_attrs(parent) == before


def test_extended_rejects_bad_clauses_and_leaves_the_parent_unchanged(monkeypatch):
    for loader in (_native.load, lambda: None):  # native, then the reference
        monkeypatch.setattr(_native, "load", loader)
        parent = Formula(3, [(1, -2), (2, 3)])
        before = formula_attrs(parent)
        for bad, match in (((1, 4), "literal 4 out of range 1..3 in clause 3"), ((0,), "literal 0 out of range"),
                           ((-4, 2), "literal -4 out of range")):
            with pytest.raises(ValueError, match=match):
                parent.extended([(1, 2), bad])
            assert formula_attrs(parent) == before
        # neither flattens into int32 arrays, so the reference build raises
        for bad, match in (((2**40, 1), "literal 1099511627776 out of range 1..3 in clause 2$"),
                           ((1, 4.0), "literal 4.0 out of range 1..3 in clause 2$")):
            with pytest.raises(ValueError, match=match):
                parent.extended([bad, (1, 2)])
            assert formula_attrs(parent) == before
        assert parent.extended([(2, 3, 2)]).clauses[2:] == ((2, 3),)  # a repeat is dropped, not an error


def test_engines_agree_on_extended_and_rebuilt_formulas():
    base = gen_uniform(GenSpec(n=40, k=3, ratio=4.3, seed=11))
    extra = [tuple(reversed(c)) for c in gen_uniform(GenSpec(n=40, k=4, ratio=0.5, seed=12)).clauses]
    extended = base.extended(extra)
    rebuilt = Formula(40, base.clauses + tuple(extra))
    for seed in range(4):
        a, b = probsat_run(extended, 3_000, seed), probsat_run(rebuilt, 3_000, seed)
        assert (a.status, a.flips_used, a.model) == (b.status, b.flips_used, b.model)
        budget = MiningBudget(wall_seconds=60, conflict_limit=40, width_limit=5)
        a, b = cdcl_solve_and_mine(extended, budget, seed), cdcl_solve_and_mine(rebuilt, budget, seed)
        assert (a.status, a.model, a.learned, a.total_learned_seen, a.conflicts) == \
            (b.status, b.model, b.learned, b.total_learned_seen, b.conflicts)


def test_tautology_helpers():
    assert canonical_clause((3, 1, -2, 1)) == (1, -2, 3)
    assert canonical_clause((2, 1, -1)) == (-1, 1, 2)  # both polarities kept
    assert Formula(3, [(1, 2), (2, 1, -1), (3, -3, 3)]).clauses == ((1, 2), (-1, 1, 2), (-3, 3))


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


# Native against reference: `Formula` and `parse_dimacs` run `_cnf.c` when
# the compiled library loads, and their Python reference when
# `_native.load` returns None.


def outcome(make):
    """`make()`'s formula attributes (also after a pickle round trip), or
    its exception's type and message; and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            f = make()
        except Exception as exc:
            result = (type(exc), str(exc))
        else:
            result = (formula_attrs(f), formula_attrs(pickle.loads(pickle.dumps(f))))
    return result, [(w.category, str(w.message)) for w in caught]


def native_and_reference(monkeypatch, make):
    native = outcome(make)
    with monkeypatch.context() as patched:
        patched.setattr(_native, "load", lambda: None)
        reference = outcome(make)
    return native, reference


def random_clause(rng, n):
    width = rng.choice((0, 1, 2, 3, 3, 4, 5, 7, 17, 25))  # wider than 16 sorts with qsort
    lits = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(width)]
    if lits and rng.random() < 0.15:
        lits.append(-lits[0])  # a tautology
    if rng.random() < 0.02:
        lits.insert(rng.randint(0, len(lits)), rng.choice((0, n + 1, -n - 1)))  # out of range
    return lits if rng.random() < 0.5 else tuple(lits)


def test_native_build_equals_the_reference_on_random_formulas(kernel, monkeypatch):
    rng = random.Random(8)
    seen = {"built": 0, "rejected": 0, "tautologies": 0, "empty": 0, "unsorted": 0, "repeats": 0}
    for _ in range(2_000):
        n = rng.randint(1, 30)
        clauses = [random_clause(rng, n) for _ in range(rng.randint(0, 14))]
        native, reference = native_and_reference(monkeypatch, lambda: Formula(n, clauses))
        assert native == reference, (n, clauses)
        if isinstance(native[0][0], type):
            seen["rejected"] += 1
            continue
        seen["built"] += 1
        formula = Formula(n, clauses)
        seen["tautologies"] += any(map(is_tautology, formula.clauses))
        seen["empty"] += formula.has_empty_clause()
        # what the build was fed, not what it made
        seen["unsorted"] += any(list(c) != sorted(c, key=lambda l: (abs(l), l)) for c in clauses)
        seen["repeats"] += any(len(set(c)) != len(c) for c in clauses)
    assert min(seen.values()) >= 100, seen


def test_native_build_raises_the_reference_errors(kernel, monkeypatch):
    bad = [
        [(1, 4)], [(0,)], [(2, 0, -5)], [(3, -5, 4)], [(1, 2), (2**31,)], [(-(2**31),)],
        [(-(2**31) - 1, 1)], [(2**40, 0)], [(1, -4), (1, 1)], [(1, 1), (1, -4)], [(3, -1, 3, 9)],
        [(1.0, 2)], [("1",)], [None],
    ]
    for clauses in bad:
        native, reference = native_and_reference(monkeypatch, lambda: Formula(3, clauses))
        assert native == reference, clauses
        assert isinstance(native[0][0], type) and issubclass(native[0][0], (ValueError, TypeError))
    with pytest.raises(ValueError, match=r"literal -2147483648 out of range 1\.\.3 in clause 0"):
        Formula(3, [(-(2**31), 1)])


def test_native_build_reads_generators_and_odd_clause_objects(kernel, monkeypatch):
    class Misreported:
        """A clause whose length disagrees with its literals."""

        def __len__(self):
            return 5

        def __iter__(self):
            return iter((2, -1))

    clauses = [(3, -1, 2), [2, 2, -1], (), [1, -1], range(1, 4), {3: 0, -2: 0}]
    for make in (
        lambda: Formula(3, (c for c in clauses)),  # consumed once
        lambda: Formula(3, (iter(c) for c in clauses)),
        lambda: Formula(3, tuple(clauses) + (Misreported(),)),
    ):
        native, reference = native_and_reference(monkeypatch, make)
        assert native == reference
        assert not isinstance(native[0][0], type)
    assert Formula(3, (c for c in clauses)).clauses == ((-1, 2, 3), (-1, 2), (), (-1, 1), (1, 2, 3), (-2, 3))


def clause_views(f):
    """`f.clauses` and `num_clauses` of `f`, of a pickled copy made before
    the first read, and of one made after it."""
    before = pickle.loads(pickle.dumps(f))
    views = [(f.clauses, f.num_clauses)]
    after = pickle.loads(pickle.dumps(f))
    return views + [(copy.clauses, copy.num_clauses) for copy in (before, after)]


def test_the_clause_view_equals_the_reference_on_every_build_path(kernel, monkeypatch):
    # tautologies, repeated literals and empty clauses
    raw = [(3, -1, 3), (2, -2, 4), (), (4, 1, -1, 4, 2), (2,), (), (1, 2, 3, 4, -1, -2, -3, -4), (4, 4)]
    lines = "".join(" ".join(map(str, c)) + " 0\n" for c in raw)
    text = f"c view\np cnf 4 {len(raw)}\n{lines}3 -2\n%\n"  # the open clause `3 -2` is dropped
    cases = {  # name: (n, build, the raw clauses of its reference build)
        "init": (4, lambda: Formula(4, raw), raw),
        "parse-str": (4, lambda: parse_dimacs(text), raw),
        "parse-bytes": (4, lambda: parse_dimacs(text.encode()), raw),
        "extended": (4, lambda: Formula(4, raw[:3]).extended(raw[3:]), raw),
        "extended-by-an-empty-clause": (4, lambda: Formula(4, raw[:2]).extended([()]), raw[:2] + [()]),
        "extended-by-nothing": (4, lambda: Formula(4, raw).extended([]), raw),
        "no-variables": (0, lambda: Formula(0, []), []),
    }
    with monkeypatch.context() as patched:
        patched.setattr(_native, "load", lambda: None)
        for k in (2, 3, 5):
            spec = GenSpec(n=40, k=k, ratio=4.2, seed=k)
            cases[f"uniform-k{k}"] = (40, lambda spec=spec: gen_uniform(spec), gen_uniform(spec).clauses)
            cases[f"planted-k{k}"] = (40, lambda spec=spec: gen_planted(spec)[0], gen_planted(spec)[0].clauses)
    for name, (n, build, clauses) in cases.items():
        with monkeypatch.context() as patched:
            patched.setattr(_native, "load", lambda: None)
            expected = Formula(n, clauses).clauses
            reference_views = clause_views(build())  # the reference build holds its tuples from the start
        assert reference_views == [(expected, len(expected))] * 3, name
        f = build()
        assert f._clauses is None, name  # the native build leaves them to the first read
        assert clause_views(f) == reference_views, name
        assert_canonical_with_flat_arrays(f)
    assert Formula(0, []).clauses == () and len(cases) == 13


def test_formula_satisfied_equals_the_reference_check(kernel, monkeypatch):
    reference_runs = []
    reference = cnf._eval_formula_python
    monkeypatch.setattr(cnf, "_eval_formula_python", lambda f, alpha: reference_runs.append(1) or reference(f, alpha))
    rng = random.Random(31)
    seen = set()
    for _ in range(1_500):
        n = rng.randint(0, 14)
        hidden = [False] + [rng.random() < 0.5 for _ in range(n)]
        clauses = []
        for _ in range(rng.randint(0, 10)):
            lits = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 12))] if n else []
            if lits and rng.random() < 0.1:
                lits.append(-lits[0])  # a tautology
            if lits and rng.random() < 0.6:  # true under `hidden`
                v = abs(lits[0])
                lits[0] = v if hidden[v] else -v
            clauses.append(lits)
        if rng.random() < 0.05:
            clauses.append([])
        f = Formula(n, clauses)
        assert f.max_width <= 12
        for alpha in (hidden, [rng.random() < 0.5 for _ in range(n + 1)],
                      [rng.choice((0, 1, 2, 255)) for _ in range(n + 1 + rng.randint(0, 3))]):
            fast = eval_formula(f, alpha)
            assert fast == reference(f, alpha), (n, clauses, alpha)
            # the compiled engines' models are bytes, checked as they are
            assert eval_formula(f, bytes(alpha)) == reference(f, bytes(alpha)) == fast
            assert fast == bool(kernel.formula_satisfied(*_native.flat(f)[1:], bytes(alpha)))
            seen.add((fast, () in f.clauses, any(map(is_tautology, f.clauses)), n == 0))
    assert reference_runs == []
    assert {(True, False, False, False), (False, False, False, False), (True, False, True, False),
            (False, True, False, False), (True, False, False, True), (False, True, False, True)} <= seen


def test_eval_formula_runs_the_reference_on_short_or_non_byte_assignments(kernel, monkeypatch):
    calls = []
    reference = cnf._eval_formula_python
    monkeypatch.setattr(cnf, "_eval_formula_python", lambda f, alpha: calls.append(1) or reference(f, alpha))

    def outcome(fn, f, alpha):
        try:
            return fn(f, alpha)
        except Exception as exc:
            return type(exc), str(exc)

    f = Formula(3, [(1, -2), (3,), (-1, 2, 3)])
    cases = {
        # alpha: the reference's result
        (False, True, False, True): True,
        (False, True, False): (IndexError, "list index out of range"),  # shorter than n + 1
        (True, False, False): (IndexError, "list index out of range"),
        (False, False, True): False,  # a clause is false before variable 3 is read
        (False, 256, 0, -1): True,  # not bytes: ValueError in bytes(), truthy in the reference
        (False, None, None, 0.5): True,  # TypeError in bytes()
        (None, 0.0, None, None): False,
        (False, "x", "", True): True,
    }
    for alpha, expected in cases.items():
        calls.clear()
        assert outcome(eval_formula, f, list(alpha)) == outcome(reference, f, list(alpha)) == expected, alpha
        assert len(calls) == (alpha != (False, True, False, True)), alpha
    # only a list's bytes are its values: a tuple or a mapping goes to the reference
    for alpha in ((False, True, False, True), {0: False, 1: True, 2: False, 3: True}):
        calls.clear()
        assert eval_formula(f, alpha) and calls == [1]
    calls.clear()
    assert eval_formula(Formula(0, []), []) and not eval_formula(Formula(0, [()]), [])
    assert calls == [1, 1]
    calls.clear()  # bytes shorter than n + 1 go to the reference too
    assert outcome(eval_formula, f, b"\x00\x01\x00") == (IndexError, "index out of range") and calls == [1]


def test_huge_variable_count_raises_before_allocating(monkeypatch):
    # 2 * n + 3 must fit int32; nothing of that size is ever allocated here
    for n in (2**30 - 1, 99_999_999_999):
        for kernel_loader in (_native.load, lambda: None):
            with monkeypatch.context() as patched:
                patched.setattr(_native, "load", kernel_loader)
                with pytest.raises(ValueError, match=f"variable count {n} exceeds the int32 occurrence index"):
                    Formula(n, [(1,)])
                with pytest.raises(DimacsError, match=f"line 2: {n} variables exceed the int32 occurrence index"):
                    parse_dimacs(f"c big\np cnf {n} 0\n")


def test_non_ascii_bytes_raise_a_dimacs_error_naming_the_line():
    with pytest.raises(DimacsError, match="line 2: non-ASCII byte 0xff"):
        parse_dimacs(b"p cnf 1 1\n\xff 0\n")
    with pytest.raises(DimacsError, match="line 5: non-ASCII byte 0xc3"):
        parse_dimacs("c x\r\np cnf 2 1\r\n1 2 0\n%\n\u00e9\n".encode())
    # str input holds characters, not bytes: a comment may hold any of them
    assert parse_dimacs("c caf\u00e9\np cnf 1 1\n1 0\n").clauses == ((1,),)


DIMACS_BASE = "c generated\np cnf 12 5\n1 -2 3 0\n-1 4 0\n5 -3 2 0\n-4 0\n12 -11 10 9 0\n"
DIMACS_CASES = {
    "base": DIMACS_BASE,
    "crlf": DIMACS_BASE.replace("\n", "\r\n"),
    "tabs": DIMACS_BASE.replace(" ", "\t"),
    "plus-sign": DIMACS_BASE.replace("3 0", "+3 0"),
    "underscore": DIMACS_BASE.replace("12 -11", "1_2 -11"),
    "unicode-digit": DIMACS_BASE.replace("5 -3", "\u0665 -3"),
    "percent-with-open-clause": "p cnf 3 1\n1 2 0\n-1 3\n%\n0\n",
    "percent-then-garbage": "p cnf 3 1\n1 2 0\n%\nx y z\n",
    "header-mismatch": "p cnf 3 5\n1 0\n2 -3 0\n",
    "percent-before-header": "%\np cnf 3 1\n1 0\n",
    "negative-zero": "p cnf 3 2\n1 -0 -2 +0\n",
    "leading-zeros": "p cnf 003 02\n001 -02 0 03 0\n",
    "no-final-newline": "p cnf 2 1\n1 -2 0",
    "indented": "  c note\n\tp cnf 2 1 \n  1\t-2   0  \n\n",
    "comment-between": "p cnf 2 2\n1 0\nc mid\n-2\n2 0\n",
    "empty-clause": "p cnf 2 2\n0\n1 0\n",
    "tautology-and-repeat": "p cnf 2 2\n1 -1 2 0\n2 2 1 0\n",
    "duplicate-header": "p cnf 2 1\np cnf 2 1\n1 0\n",
    "clause-before-header": "1 0\np cnf 1 1\n",
    "missing-header": "c only\n",
    "empty": "",
    "unterminated": "p cnf 2 1\n1 2\n",
    "out-of-range": "p cnf 2 1\n1 -3 0\n",
    "non-integer": "p cnf 2 1\n1 x 0\n",
    "sign-only": "p cnf 2 1\n1 - 0\n",
    "malformed-header": "p cnf 2\n1 0\n",
    "header-word": "p dnf 2 1\n1 0\n",
    "glued-header": "pcnf 2 1\n1 0\n",
    "negative-header": "p cnf -2 1\n1 0\n",
    "form-feed": "p cnf 2 1\n1\x0c2 0\n",
    "vertical-tab-in-comment": "c a\x0bp cnf 2 1\np cnf 2 1\n1 0\n",
    "record-separator": "p cnf 2 1\n1 \x1e2 0\n",
    "nul": "p cnf 2 1\n1 2\x00 0\n",
    "delete": "c \x7f\np cnf 2 1\n1 2 0\n",
    "bare-cr": "p cnf 2 2\r1 0\r-2 0\r",
}


def mutate(rng, text):
    alphabet = " \t\n\r0129-+_%cpx\x0c\x0b\x1c\x00\x7f\u00e9\u0663"
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + rng.choice(alphabet) + text[i:]
        elif op == 1:
            text = text[:i] + text[i + 1 :]
        else:
            lines = text.split("\n")
            j, k = rng.randrange(len(lines)), rng.randrange(len(lines))
            if op == 2:
                lines.insert(k, lines[j])
            else:
                lines[j], lines[k] = lines[k], lines[j]
            text = "\n".join(lines)
    return text


def test_parse_dimacs_native_equals_the_reference(kernel, monkeypatch):
    rng = random.Random(13)
    texts = list(DIMACS_CASES.values())
    for seed in range(4):
        texts.append(emit_dimacs(gen_uniform(GenSpec(n=15, k=3, ratio=4.0, seed=seed)), ["uniform"]))
    texts += [mutate(rng, rng.choice(texts)) for _ in range(2_500)]
    scanned = deferred = 0
    for text in texts:
        for data in (text, text.encode()):
            native, reference = native_and_reference(monkeypatch, lambda: parse_dimacs(data))
            assert native == reference, repr(data)
            if cnf._scan_dimacs(kernel, data) is None:
                deferred += 1
            else:
                scanned += 1
    assert scanned >= 500 and deferred >= 500, (scanned, deferred)


def test_emit_dimacs_native_equals_the_reference(kernel, monkeypatch):
    formulas = [
        Formula(0, []),
        Formula(3, []),
        Formula(3, [()]),
        Formula(4, [(1, -1), (), (2, -3, 3, 4), (-4,)]),  # tautologies and an empty clause
        Formula(10**6, [(1, -(10**6)), (-1, 99_999, -999_999)]),  # literals as wide as n
    ]
    formulas += [gen_uniform(GenSpec(n=40, k=k, m=30, seed=k)) for k in range(2, 10)]
    formulas.append(Formula(5, []).extended([(5, -4), (1,)]))
    native = [emit_dimacs(f, ["x"]) for f in formulas]
    with monkeypatch.context() as patched:
        patched.setattr(_native, "load", lambda: None)
        reference = [emit_dimacs(f, ["x"]) for f in formulas]
    assert native == reference
    assert native[2] == "c x\np cnf 3 1\n 0\n"
    assert native[4] == "c x\np cnf 1000000 2\n1 -1000000 0\n-1 99999 -999999 0\n"


def test_parse_dimacs_pinned_cases():
    # the mutations the differential test starts from, pinned on the default path
    assert parse_dimacs(DIMACS_CASES["crlf"]).clauses == parse_dimacs(DIMACS_BASE).clauses
    assert parse_dimacs(DIMACS_CASES["plus-sign"]).clauses == parse_dimacs(DIMACS_BASE).clauses
    assert parse_dimacs(DIMACS_CASES["underscore"]).clauses == parse_dimacs(DIMACS_BASE).clauses
    assert parse_dimacs(DIMACS_CASES["unicode-digit"]).clauses == parse_dimacs(DIMACS_BASE).clauses
    assert parse_dimacs(DIMACS_CASES["percent-with-open-clause"]).clauses == ((1, 2),)
    assert parse_dimacs(DIMACS_CASES["negative-zero"]).clauses == ((1,), (-2,))
    assert parse_dimacs(DIMACS_CASES["leading-zeros"]).clauses == ((1, -2), (3,))
    with pytest.warns(DimacsWarning, match="header declares 5 clauses but 2 parsed"):
        parse_dimacs(DIMACS_CASES["header-mismatch"])
    with pytest.raises(DimacsError, match="missing `p cnf` header"):
        parse_dimacs(DIMACS_CASES["percent-before-header"])
