"""Differential tests: the compiled probSAT kernel against the Python reference.

`probsat_run` runs the kernel whenever it loads; `_probsat_python` is the
reference loop.  For equal arguments both must return equal status, flip
count and model, and leave equal assignments in their states after a
budget-bound run.
"""

import pickle
import random
import re
import subprocess
import warnings
from functools import reduce
from operator import xor
from pathlib import Path

import pytest

from satlab import _native, sls
from satlab.bench import SolverConfig, run_suite
from satlab.cnf import Formula, emit_dimacs, parse_dimacs
from satlab.generators import GenSpec, gen_planted, gen_uniform
from satlab.pipeline import plain_strategy, run_hybrid, select_strategy
from satlab.sls import ScoringFunction, _probsat_python, probsat_run

SCORINGS = (
    None,  # the width's default
    ScoringFunction("poly", cb=2.06, epsilon=0.9),
    ScoringFunction("poly", cb=2.6, epsilon=0.4),
    ScoringFunction("exp", cb=3.7),
    ScoringFunction("exp", cb=1.8),
)
SEEDS = (0, 4242, -7, 2**32, 2**64 + 3, 2**200)  # keys of one, two, three and seven words
# (k, n, ratio, flip budget): small enough for the reference, and a mix of
# solved and budget-bound runs
SHAPES = ((3, 40, 4.2, 3_000), (5, 24, 20.0, 2_000), (7, 16, 80.0, 300))


@pytest.fixture
def fresh_loader():
    """Forget the loaded kernel before and after the test."""
    _native.load.cache_clear()
    yield
    _native.load.cache_clear()


def outcome(fn, formula, max_flips, seed, scoring=None, wall_limit=None):
    try:
        res = fn(formula, max_flips, seed, scoring, wall_limit)
    except Exception as exc:
        return type(exc).__name__
    return res.status, res.flips_used, res.model


def assert_same(formula, max_flips, seed, scoring=None, wall_limit=None):
    fast = outcome(probsat_run, formula, max_flips, seed, scoring, wall_limit)
    ref = outcome(_probsat_python, formula, max_flips, seed, scoring, wall_limit)
    assert fast == ref, f"{formula!r} flips={max_flips} seed={seed} scoring={scoring}"
    return fast


@pytest.mark.parametrize("k,n,ratio,budget", SHAPES)
def test_kernel_matches_reference_on_generated_formulas(kernel, k, n, ratio, budget):
    statuses = set()
    runs = 0
    for i in range(3):
        planted, _ = gen_planted(GenSpec(n=n, k=k, ratio=ratio, seed=300 + i))
        uniform = gen_uniform(GenSpec(n=n, k=k, ratio=ratio, seed=400 + i))
        for formula in (planted, uniform):
            for scoring in SCORINGS:
                for seed in SEEDS:
                    statuses.add(assert_same(formula, budget, seed, scoring)[0])
                    runs += 1
    assert runs >= 100
    assert statuses == {sls.SOLVED, sls.FLIPS_EXHAUSTED}


def test_kernel_matches_reference_on_unnormalized_formulas(kernel):
    """Tautologies, and clauses drawn unsorted and with repeats, which
    `Formula` canonicalises."""
    rng = random.Random(2024)
    outcomes = set()
    for _ in range(150):
        n = rng.randint(1, 6)
        clauses = [[rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 5))]
                   for _ in range(rng.randint(1, 12))]
        formula = Formula(n, clauses)
        result = assert_same(formula, 300, rng.randint(-2**70, 2**70), rng.choice(SCORINGS))
        outcomes.add(result if isinstance(result, str) else result[0])
    assert outcomes == {sls.SOLVED, sls.FLIPS_EXHAUSTED}
    taut = Formula(3, [(1, -1, 2), (2, 3), (-2, -3), (3, -1)])
    for seed in SEEDS:
        assert_same(taut, 50, seed)


def test_kernel_matches_reference_on_tiny_formulas_and_budgets(kernel):
    formulas = [
        Formula(1, [(1,)]),
        Formula(1, [(-1,)]),
        Formula(1, [(1,), (-1,)]),
        Formula(3, [(1, -2, 3)]),
        Formula(4, [(-4,)]),
        Formula(5, []),
        Formula(2, [(), (1,)]),
        Formula(0, []),
    ]
    for formula in formulas:
        for max_flips in (0, 1, 2, 25):
            for seed in SEEDS:
                assert_same(formula, max_flips, seed)


class KernelSpy:
    """The loaded library, recording what each `probsat_run` leaves in its
    kernel state just before freeing it: the assignment and the number of
    falsified clauses."""

    def __init__(self, lib):
        self._lib, self.left = lib, []

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def probsat_new(self, n, *args):
        self._n = n
        return self._lib.probsat_new(n, *args)

    def probsat_free(self, state):
        assign = _native.read_model(self._lib.probsat_assignment, state, self._n)
        self.left.append((list(map(bool, assign)), self._lib.probsat_num_falsified(state)))
        self._lib.probsat_free(state)


def states_after(monkeypatch, kernel, formula, flips, seed, scoring=None):
    """(status, flips used, assignment, falsified count) after `flips` flips,
    of the kernel and of the reference.  A budget-bound run returns no
    model, so the assignments are read from the kernel's state and from
    the reference's `SlsState`."""
    spy, made = KernelSpy(kernel), []

    class RecordingState(sls.SlsState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    with monkeypatch.context() as patched:
        patched.setattr(_native, "load", lambda: spy)
        patched.setattr(sls, "SlsState", RecordingState)
        fast = probsat_run(formula, flips, seed, scoring)
        ref = _probsat_python(formula, flips, seed, scoring)
    (assign, falsified), = spy.left
    state, = made
    return ((fast.status, fast.flips_used, assign, falsified),
            (ref.status, ref.flips_used, state.assign, len(state.falsified)))


def tautology_dense(n, m, seed):
    """m random clauses of widths 2-6 over n variables, about half of them
    tautologies (a literal and its negation), and unsatisfiable 3-clauses
    besides, so that runs spend their budget."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        lits = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), rng.randint(2, 6))]
        if rng.random() < 0.5:
            lits.append(-lits[rng.randrange(len(lits))])
        clauses.append(lits)
    return Formula(n, clauses + list(gen_uniform(GenSpec(n=n, k=3, ratio=10.0, seed=seed)).clauses))


def wide_clauses(seed):
    """Every sign pattern over variables 1..9 (unsatisfiable, and each
    assignment leaves nine clauses with one true literal) and random
    clauses of widths 10-12 over 14 variables."""
    rng = random.Random(seed)
    full = [[v if bits >> (v - 1) & 1 else -v for v in range(1, 10)] for bits in range(512)]
    wide = [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 15), rng.randint(10, 12))]
            for _ in range(600)]
    return Formula(14, full + wide)


def k7(n):
    """A planted k=7 formula over n variables at ratio 85, as the sls-par2 k7 shape."""
    return gen_planted(GenSpec(n=n, k=7, ratio=85.0, seed=2))[0]


# (name, formula, flips): the sls-par2 shapes, the clause kinds where a
# clause's count of true literals often drops from 2 to 1, and sizes n where
# the XOR of a clause's true variables reaches the top slot of the kernel's
# `breaks`, whose size is the smallest power of two above n
BUDGET_BOUND = {
    "k3-n5000": (lambda: gen_planted(GenSpec(n=5000, k=3, ratio=4.2, seed=2))[0], 1_000),
    "k5-n500": (lambda: gen_planted(GenSpec(n=500, k=5, ratio=20.0, seed=2))[0], 1_200),
    "k7-n150": (lambda: k7(150), 600),
    "tautologies": (lambda: tautology_dense(30, 300, 7), 3_000),
    "widths-9-12": (lambda: wide_clauses(9), 1_500),
    "k7-n63": (lambda: k7(63), 600),
    "k7-n64": (lambda: k7(64), 600),
    "k7-n65": (lambda: k7(65), 600),
    "n1": (lambda: Formula(1, [(1,), (-1,), (1, -1)]), 300),
}
TOP_SLOT = ("k7-n63", "k7-n64", "k7-n65", "n1")


def top_xor(formula, assign):
    """The largest XOR of a clause's true variables under `assign`."""
    return max(reduce(xor, (abs(lit) for lit in clause if assign[abs(lit)] == (lit > 0)), 0)
               for clause in formula.clauses)


@pytest.mark.parametrize("name", sorted(BUDGET_BOUND))
def test_kernel_state_after_a_budget_bound_run_equals_the_reference(kernel, monkeypatch, name):
    make, flips = BUDGET_BOUND[name]
    formula = make()
    for seed in (1, 2**64 + 3):
        fast, ref = states_after(monkeypatch, kernel, formula, flips, seed)
        assert fast[:2] == (sls.FLIPS_EXHAUSTED, flips)
        assert fast == ref, f"{name} seed={seed}"
        if name in TOP_SLOT:  # the final XORs reach the last of the kernel's break counters
            assert top_xor(formula, fast[2]) == (1 << formula.num_vars.bit_length()) - 1
    if name == "tautologies":
        assert sum(any(-lit in c for lit in c) for c in formula.clauses) > 100
        fast, ref = states_after(monkeypatch, kernel, formula, flips, 5, ScoringFunction("exp", cb=1.8))
        assert fast == ref


def test_the_kernel_track_builds_no_clause_tuple(kernel, monkeypatch):
    # gen -> emit -> parse -> run_hybrid reads only the flat arrays: any read of a clause-tuple view fails the run
    def no_tuples(formula):
        raise AssertionError("a clause-tuple view was built")

    monkeypatch.setattr(Formula, "clauses", property(no_tuples))
    generated, _ = gen_planted(GenSpec(n=300, k=3, ratio=4.2, seed=2))
    formula = parse_dimacs(emit_dimacs(generated))
    assert formula.num_clauses == generated.num_clauses == 1260

    def three_phase(initial_flips, conflicts):
        return select_strategy(formula, initial_flips=initial_flips, miner_conflict_limit=conflicts)

    # (strategy, final flips) -> (phase solved, clauses added)
    cases = {
        (plain_strategy(formula), 50_000): ("initial-sls", 0),
        (plain_strategy(formula), 10): (None, 0),
        (three_phase(50_000, 40), 10): ("initial-sls", 0),
        (three_phase(10, 100_000), 10): ("miner", 0),
        (three_phase(10, 40), 100_000): ("final-sls", 3),
        (three_phase(10, 40), 10): (None, 3),
    }
    for (strategy, flips), expected in cases.items():
        result = run_hybrid(formula, wall_budget=None, seed=3, strategy=strategy, final_flips=flips)
        assert (result.phase_solved, result.clauses_added) == expected
        assert result.status == ("unknown" if expected[0] is None else "sat")
    assert generated._clauses is None and formula._clauses is None


def test_large_wall_limit_equals_flip_budget(kernel):
    # both runs cross several 4096-flip polls; the hard one spends its budget
    hard = gen_uniform(GenSpec(n=150, k=3, ratio=5.0, seed=11))
    easy, _ = gen_planted(GenSpec(n=2000, k=3, ratio=4.2, seed=12))
    for formula, budget in ((hard, 10_000), (easy, 50_000)):
        budgeted = outcome(probsat_run, formula, budget, 99)
        assert budgeted == outcome(probsat_run, formula, budget, 99, wall_limit=1e9)
        assert budgeted == outcome(_probsat_python, formula, budget, 99, wall_limit=1e9)
    assert outcome(probsat_run, hard, 10_000, 99)[1] == 10_000
    assert 4096 < outcome(probsat_run, easy, 50_000, 99)[1] < 50_000


def test_wall_limit_stops_the_kernel(kernel):
    hard = gen_uniform(GenSpec(n=150, k=3, ratio=5.0, seed=11))
    res = probsat_run(hard, 1 << 62, seed=3, wall_limit=0.05)
    assert res.status == sls.FLIPS_EXHAUSTED
    assert res.flips_used % 4096 == 0 and res.flips_used > 0


def test_probsat_run_without_kernel_gives_the_same_results(monkeypatch):
    cases = [(gen_planted(GenSpec(n=50, k=3, ratio=4.2, seed=s))[0], 5_000, s * 13 - 20) for s in range(6)]
    cases.append((Formula(3, [(-2, 1), (2, -1, 1)]), 20, 5))
    expected = [outcome(probsat_run, *case) for case in cases]
    monkeypatch.setattr(_native, "load", lambda: None)
    assert [outcome(probsat_run, *case) for case in cases] == expected


def test_flip_budgets_past_64_bits_run_and_others_are_rejected(monkeypatch):
    # a formula that both engines solve long before 2**62 flips, so that 2**64 + 5
    # (which ctypes would wrap to 5) can be compared with a budget that never binds
    formula, _ = gen_planted(GenSpec(n=50, k=3, ratio=4.2, seed=1))
    for loader in (_native.load, lambda: None):  # the kernel (when it builds), then the reference
        monkeypatch.setattr(_native, "load", loader)
        huge = outcome(probsat_run, formula, 2**64 + 5, 3)
        assert huge == outcome(probsat_run, formula, 2**62, 3)
        assert huge[0] == sls.SOLVED and huge[1] > 5
        for bad in (1.5, -1, "10", None):
            with pytest.raises(ValueError, match=f"max_flips must be an integer >= 0, got {bad!r}"):
                probsat_run(formula, bad, 3)
        # the pipeline passes its budgets on: a final budget on the plain track,
        # and an initial burst on a three-phase one
        plain = run_hybrid(formula, wall_budget=None, seed=2, strategy=plain_strategy(formula), final_flips=2**64)
        assert plain.phase_flips == {"initial-sls": probsat_run(formula, 2**62, 2).flips_used} != {"initial-sls": 0}
        burst = select_strategy(formula, initial_flips=2**64, miner_conflict_limit=10)
        hybrid = run_hybrid(formula, wall_budget=None, seed=2, strategy=burst, final_flips=10)
        assert hybrid.phase_solved == "initial-sls" and hybrid.phase_flips["initial-sls"] > 0


def test_run_suite_workers_match_serial_with_cached_csr(kernel):
    instances = []
    for k, n, ratio, _ in SHAPES:
        formula, _ = gen_planted(GenSpec(n=n, k=k, ratio=ratio, seed=500 + k))
        instances.append((f"k{k}", formula))  # the workers receive formulas with their flat (CSR) arrays
    solvers = [SolverConfig("sls"), SolverConfig("hyb", algorithm="hybrid", initial_flips=50,
                                                 miner_conflict_limit=30)]
    serial = run_suite(instances, solvers, seeds=[1, 2], budget_flips=2_000, workers=1)
    parallel = run_suite(instances, solvers, seeds=[1, 2], budget_flips=2_000, workers=2)
    assert [r.key() for r in serial] == [r.key() for r in parallel]
    assert not any(r.note for r in serial + parallel)


def test_formula_with_cached_csr_pickles():
    # the flat (CSR) clause arrays a formula is built with travel with it
    formula, _ = gen_planted(GenSpec(n=30, k=3, ratio=4.2, seed=1))
    copy = pickle.loads(pickle.dumps(formula))
    assert (copy.offsets, copy.literals, copy.max_occurrences) == \
        (formula.offsets, formula.literals, formula.max_occurrences)
    assert copy.clauses == formula.clauses


def test_loader_falls_back_without_a_compiler(monkeypatch, fresh_loader):
    monkeypatch.setattr(_native, "_compiler", lambda: None)
    assert _native.load() is None


def test_loader_falls_back_when_the_cache_dir_is_unusable(tmp_path, monkeypatch, fresh_loader):
    if _native._compiler() is None:
        pytest.skip("no C compiler on PATH, so the loader never reaches the cache directory")
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    with pytest.warns(RuntimeWarning, match="every module runs its Python reference"):
        assert _native.load() is None


def test_loader_builds_into_a_fresh_cache(tmp_path, monkeypatch, fresh_loader):
    if _native._compiler() is None:
        pytest.skip("no C compiler on PATH")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _native.load() is not None
    built = [p.name for p in (tmp_path / "satlab").iterdir()]
    assert len(built) == 1 and built[0].startswith("kernels-") and built[0].endswith(".so")


def test_kernel_source_compiles_without_warnings(tmp_path):
    compiler = _native._compiler()
    if compiler is None:
        pytest.skip("no C compiler on PATH")
    assert [p.name for p in _native._KERNEL_SOURCES] == ["_probsat.c", "_cdcl.c", "_cnf.c", "_gen.c", "_resolve.c",
                                                         "_mt.h", "_clauses.h"]
    c_files = _native._c_files(_native._KERNEL_SOURCES)
    assert len(c_files) == 5
    # each C file alone (each includes one header or both), then all five into one library as the loader builds them
    for sources in (*([c] for c in c_files), c_files):
        built = subprocess.run(
            [compiler, *_native._KERNEL_FLAGS, "-Wall", "-Wextra", "-Werror",
             "-o", str(tmp_path / "kernels.so"), *sources, *_native._KERNEL_LIBS],
            capture_output=True, text=True,
        )
        assert built.returncode == 0, built.stderr


def test_ctypes_table_matches_the_c_parameter_lists():
    # every exported (non-static) definition in the sources and the header, read from the text, so no compiler is needed
    definition = re.compile(r"^(?!static\b)[A-Za-z_][\w \t*]*?\b(\w+)\(([^)]*)\)\s*\{", re.MULTILINE)
    defined = {}
    for source in _native._KERNEL_SOURCES:
        for name, params in definition.findall(source.read_text()):
            assert name not in defined, f"{name} is defined twice"
            defined[name] = 0 if params.strip() in ("", "void") else params.count(",") + 1
    table = {name: len(argtypes) for name, _, argtypes in _native._KERNEL_FUNCTIONS}
    assert len(table) == len(_native._KERNEL_FUNCTIONS) == 26
    assert defined == table


def test_package_data_ships_every_kernel_source():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    shipped = pyproject["tool"]["setuptools"]["package-data"]["satlab"]
    assert sorted(shipped) == sorted(p.name for p in _native._KERNEL_SOURCES)
