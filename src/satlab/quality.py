"""Backbone computation, synthetic clause models, and clause quality.

The backbone of a satisfiable formula F is the set of literals true in
every satisfying assignment.  It is computed exactly by a series of
fresh CDCL solves (Janota, Lynce & Marques-Silva, "Algorithms for
computing backbones of propositional formulae", AI Commun. 2015).  Only
the literals of a first model are candidates.  A candidate l is in the
backbone exactly when F and B and not-l is unsatisfiable, where B holds
the backbone literals confirmed so far, added to F as unit clauses.
Every model a query finds prunes the candidates it falsifies.  The
compiled kernel (`cdcl_backbone` in `_cdcl.c`) runs the first search and
every query in one call, from initial phases drawn once from the seed,
passing each query's literals to a fresh search as units, and hands back
the confirmed literals and every model found.  When the library is
unavailable, `_backbone_by_queries`, the readable reference, runs each
query as a `cdcl._search` of F with those unit clauses appended, every
one kept as the kernel's DB-reduction cap counts them.  Either
way every model is checked through `cdcl.eval_formula`, against F and
its query's units.

Two synthetic clause models measure how clause quality steers local
search.  Both build 3-clauses around a backbone literal:

    deceptive: one backbone literal plus two complements of backbone
               literals -- exactly one correct literal per solution.
    general:   one backbone literal plus two uniformly random literals.

Quality of a clause against a fixed solution is the fraction of its
literals the solution satisfies.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass

from . import _native, cdcl
from .cdcl import SAT, STATUS_CODES, UNSAT, MiningBudget
from .cnf import Assignment, Clause, Formula, canonical_clause
from .resolution import _check_count

Backbone = frozenset[int]


class FormulaUnsatisfiableError(ValueError):
    """Backbone requested for an unsatisfiable formula."""


class BackboneBudgetError(RuntimeError):
    """Budget ran out mid-computation; partial backbones are not usable."""

    def __init__(self, message: str, confirmed: Iterable[int]):
        super().__init__(message)
        self.confirmed = frozenset(confirmed)


def compute_backbone(formula: Formula, seed: int = 0, conflict_limit: int | None = None) -> Backbone:
    """Exact backbone via one fresh solve per candidate literal.

    `conflict_limit` bounds each individual solve, which no clock bounds;
    exhausting it raises `BackboneBudgetError`.  The compiled kernel runs
    every solve in one call; `_backbone_by_queries` is the reference.
    """
    budget = MiningBudget(wall_seconds=math.inf, conflict_limit=conflict_limit, width_limit=1)
    kernel = _native.load()
    if kernel is None:
        return _backbone_by_queries(formula, budget, seed)
    status, stopped, confirmed, models = _backbone_with_kernel(kernel, formula, conflict_limit, seed)
    # candidates are queried in variable order, so a query's units are the
    # literals confirmed below its variable, then its literal negated
    found = [abs(lit) for lit in confirmed]
    for lit, model in models:
        cdcl._check_model(formula, model, (*confirmed[:bisect_left(found, abs(lit))], -lit) if lit else ())
    if status == UNSAT:
        raise FormulaUnsatisfiableError("formula has no satisfying assignment")
    if status != SAT:
        raise _budget_error(stopped, confirmed)
    return frozenset(confirmed)


def _budget_error(lit: int, confirmed: Iterable[int]) -> BackboneBudgetError:
    """The error of a search that ran out: the query of `lit`, or the first search when `lit` is 0."""
    where = f"while testing literal {lit}" if lit else "before a first model was found"
    return BackboneBudgetError(f"budget exhausted {where}", confirmed)


def _backbone_by_queries(formula: Formula, budget: MiningBudget, seed: int) -> Backbone:
    """`compute_backbone` as one `cdcl._search` per query: the readable
    reference of `cdcl_backbone` in `_cdcl.c`."""
    status, model, _, _ = cdcl._search(formula, budget, seed)
    if status == UNSAT:
        raise FormulaUnsatisfiableError("formula has no satisfying assignment")
    if status != SAT:
        raise _budget_error(0, ())
    first = [v if model[v] else -v for v in range(1, formula.num_vars + 1)]
    candidates = set(first)
    confirmed: list[int] = []  # the backbone literals found so far, in the order found
    for lit in first:
        if lit not in candidates:
            continue
        units = tuple((u,) for u in (*confirmed, -lit))
        status, other, _, _ = cdcl._search(Formula(formula.num_vars, formula.clauses + units), budget, seed)
        if status == UNSAT:
            confirmed.append(lit)
        elif status == SAT:
            candidates &= {u if other[u] else -u for u in range(1, formula.num_vars + 1)}
        else:
            raise _budget_error(lit, confirmed)
    return frozenset(confirmed)


def _backbone_with_kernel(kernel, formula: Formula, conflict_limit: int | None, seed: int):
    """(status, stopped, confirmed, models) of `cdcl_backbone`: how it
    ended, the literal whose query ran out (0: the first search did), the
    confirmed literals in the order found, and (tested literal, model
    bytes) for every model a search found, the first search's tested
    literal being 0."""
    key = _native.seed_key(seed)
    handle = kernel.cdcl_backbone(*_native.flat(formula), _native.address(key), len(key),
                                  _native.limit(conflict_limit))
    if not handle:
        raise MemoryError("the CDCL kernel ran out of memory computing a backbone")
    try:
        info = _native.zeros("q", 4)
        kernel.backbone_info(handle, _native.address(info))
        status, stopped, num_confirmed, num_models = info
        width = formula.num_vars + 1
        confirmed, tested = _native.zeros("i", num_confirmed), _native.zeros("i", num_models)
        models = _native.zeros("B", num_models * width)
        kernel.backbone_copy(handle, *map(_native.address, (confirmed, tested, models)))
    finally:
        kernel.backbone_free(handle)
    blob = models.tobytes()
    return (STATUS_CODES[status], stopped, confirmed.tolist(),
            [(lit, blob[i * width:(i + 1) * width]) for i, lit in enumerate(tested)])


@dataclass(frozen=True)
class QualityReport:
    """Per-clause satisfied-literal counts against one fixed solution."""

    rows: tuple[tuple[int, int, int, float], ...]  # (clause_id, correct, width, quality)
    mean_quality: float
    mean_correct: float

    @classmethod
    def empty(cls) -> "QualityReport":
        return cls((), 0.0, 0.0)


def quality_report(clauses, solution: Assignment) -> QualityReport:
    rows = []
    top = len(solution)
    for cid, clause in enumerate(clauses):
        correct = 0
        for lit in clause:
            if lit > 0 and lit < top:
                correct += 1 if solution[lit] else 0
            elif lit < 0 and -lit < top:
                correct += 0 if solution[-lit] else 1
            else:
                raise ValueError(f"literal {lit} out of range 1..{top - 1} in clause {cid}")
        width = len(clause)
        rows.append((cid, correct, width, correct / width if width else 0.0))
    if not rows:
        return QualityReport.empty()
    return QualityReport(
        rows=tuple(rows),
        mean_quality=sum(r[3] for r in rows) / len(rows),
        mean_correct=sum(r[1] for r in rows) / len(rows),
    )


def _distinct_backbone_triple(bb: list[int], rng: random.Random) -> tuple[int, int, int]:
    x = rng.choice(bb)
    while True:
        y = rng.choice(bb)
        if abs(y) != abs(x):
            break
    while True:
        z = rng.choice(bb)
        if abs(z) != abs(x) and abs(z) != abs(y):
            break
    return x, y, z


def gen_deceptive(backbone: Backbone, t: int, seed: int) -> list[Clause]:
    """t clauses, each one backbone literal plus two complements of backbone
    literals over three distinct variables.  Sampled independently, so
    duplicates across the t clauses are possible."""
    _check_count("t", t)
    bb = sorted(backbone, key=abs)
    if len(bb) < 3:
        raise ValueError(f"deceptive model needs a backbone over >= 3 variables, got {len(bb)}")
    rng = random.Random(seed)
    out = []
    for _ in range(t):
        x, y, z = _distinct_backbone_triple(bb, rng)
        out.append(canonical_clause((x, -y, -z)))
    return out


def gen_general(solution: Assignment, backbone: Backbone, t: int, seed: int) -> list[Clause]:
    """t clauses, each one backbone literal plus two uniformly random
    literals over distinct remaining variables.  Only `len(solution)`,
    the variable count plus one, is read."""
    _check_count("t", t)
    bb = sorted(backbone, key=abs)
    if not bb:
        raise ValueError("general model needs a non-empty backbone")
    n = len(solution) - 1
    if n < 3:
        raise ValueError("general model needs at least 3 variables")
    rng = random.Random(seed)
    out = []
    for _ in range(t):
        x = rng.choice(bb)
        while True:
            v2 = rng.randrange(1, n + 1)
            if v2 != abs(x):
                break
        while True:
            v3 = rng.randrange(1, n + 1)
            if v3 != abs(x) and v3 != v2:
                break
        y = v2 if rng.random() < 0.5 else -v2
        z = v3 if rng.random() < 0.5 else -v3
        out.append(canonical_clause((x, y, z)))
    return out
