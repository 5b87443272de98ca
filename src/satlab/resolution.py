"""Resolvent enumeration: level-1 and level-2 pools, ternary saturation.

A level-1 resolvent comes from two clauses of the base formula; a
level-2 resolvent has at least one level-1 parent.  Pools are width
filtered, deduplicated, tautology-free, and never contain clauses of
the base formula (compared as literal sets, so a base clause in any
literal order counts), so adding any subset of a pool preserves the
solution set exactly.  A pool is a tuple of canonical clauses in tuple
order, strictly increasing, so it is sampled and sorted as it stands.
Tautological input clauses, which `Formula` keeps as ordinary clauses,
are excluded from enumeration.

Each enumeration has two engines with one set of results:

- `_resolve.c`, built and loaded by `satlab._native`, enumerates from
  `Formula.offsets` and `literals` with canonical literal runs of any
  width and a hash set of clauses, and hands each pool back through a
  handle: its clauses grouped by width, and the permutation that puts
  them in tuple order.  Python only builds the clause tuples and applies
  the permutation.  Allocation failure is a MemoryError.
- The `(pos, neg)` mask engine below is the readable reference, and
  runs when the library is unavailable.  A clause is held as a pair of
  ints with bit `v` set for literal `v` or `-v`.  Resolving on `v` gives
  `p = pa | pb` and `n = na | nb`, both holding the pivot bit: the
  resolvent is a tautology iff `p & n` holds any other bit, and its
  width is `(p | n).bit_count() - 1`.  A survivor of both checks drops
  the pivot bit; canonical tuples are built only for survivors, and
  sorted once.
  `cnf.resolve` is the readable reference of one step: `bounded_resolve`
  puts one pair through the mask engine, and a differential test holds
  the two equal.

The two engines give equal pools for equal arguments, level 2 under
every pair budget (it walks one documented order, and the budget cuts
that walk at the same attempt); `tests/test_resolution.py` holds them
equal.  Every count argument must be an integer >= 0, checked before
either engine runs.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from itertools import islice

from . import _native
from .cnf import Clause, Formula, is_int_at_least

PAIR_BUDGET_DEFAULT = 10_000_000

Masks = tuple[int, int]


@dataclass(frozen=True)
class ResolventPool:
    """A pool of resolvents: distinct canonical clauses, strictly
    increasing in tuple order (signed lexicographic, a prefix first)."""

    clauses: tuple[Clause, ...]

    def __len__(self) -> int:
        return len(self.clauses)


def _masks(clause) -> Masks:
    pos = neg = 0
    for lit in clause:
        if lit > 0:
            pos |= 1 << lit
        else:
            neg |= 1 << -lit
    return pos, neg


def _clause(masks: Masks) -> Clause:
    """Canonical tuple of a non-tautological mask pair."""
    pos, neg = masks
    rest = pos | neg
    lits = []
    while rest:  # highest variable first, reversed below
        v = rest.bit_length() - 1
        lits.append(v if pos >> v & 1 else -v)
        rest ^= 1 << v
    lits.reverse()
    return tuple(lits)


def _resolvents(a: Masks, partners: list[Masks], bit: int, max_width: int) -> list[Masks]:
    """Non-tautological resolvents of width <= max_width of `a` with each
    partner on the pivot `bit`, in partner order."""
    pa, na = a
    limit = max_width + 1  # the pivot is counted once in `p | n`
    return [(p ^ bit, n ^ bit) for pb, nb in partners
            if (p := pa | pb) & (n := na | nb) == bit and (p | n).bit_count() <= limit]


def bounded_resolve(a: Clause, b: Clause, pivot: int, max_width: int) -> Clause | None:
    """`cnf.resolve(a, b, pivot)` if it is no wider than `max_width`, else None.

    Same contract as `cnf.resolve` (None for a tautology, ValueError for
    a pivot that does not clash), computed by the mask engine that the
    pools' reference runs.
    """
    (pa, na), (pb, nb), bit = _masks(a), _masks(b), 1 << abs(pivot)
    if not (pa & nb | pb & na) & bit:
        raise ValueError(f"pivot {pivot} does not clash between clauses {a!r} and {b!r}")
    if (pa & na | pb & nb) & bit:
        raise ValueError(f"pivot {pivot} occurs in both polarities within one clause")
    found = _resolvents((pa, na), [(pb, nb)], bit, max_width)
    return _clause(found[0]) if found else None


def _base_masks(formula: Formula) -> list[Masks]:
    """Masks of the non-tautological clauses, in id order: a clause is a
    tautology exactly when some bit is set in both of its masks."""
    return [(pos, neg) for pos, neg in map(_masks, formula.clauses) if not pos & neg]


class _Occurrences:
    """Per-variable clause lists: `pos[v]` holds the clauses containing
    `v`, `neg[v]` those containing `-v`, each in insertion order."""

    def __init__(self, num_vars: int, clauses):
        self.pos: list[list[Masks]] = [[] for _ in range(num_vars + 1)]
        self.neg: list[list[Masks]] = [[] for _ in range(num_vars + 1)]
        for c in clauses:
            self.add(c)

    def add(self, c: Masks) -> None:
        for rest, lists in zip(c, (self.pos, self.neg)):
            while rest:
                low = rest & -rest
                lists[low.bit_length() - 1].append(c)
                rest ^= low

    def pivots(self, c: Masks):
        """(pivot bit of v, clauses clashing with c on v) for each variable
        v of c, in canonical literal order."""
        p = c[0]
        rest = p | c[1]
        while rest:
            low = rest & -rest
            yield low, (self.neg if p & low else self.pos)[low.bit_length() - 1]
            rest ^= low


def _level1(num_vars: int, originals: list[Masks], max_width: int) -> set[Masks]:
    """Non-tautological resolvents of base-clause pairs no wider than max_width."""
    occ = _Occurrences(num_vars, originals)
    out: set[Masks] = set()
    for v, (pos, neg) in enumerate(zip(occ.pos, occ.neg)):
        if neg:
            for a in pos:
                out.update(_resolvents(a, neg, 1 << v, max_width))
    return out


def _pool(found: set[Masks]) -> ResolventPool:
    return ResolventPool(tuple(sorted(map(_clause, found))))


def _check_count(name: str, value) -> None:
    """ValueError naming `name` unless `value` is an integer >= 0."""
    if not is_int_at_least(value, 0):
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


def _native_clauses(kernel, pool, max_width: int) -> tuple[Clause, ...]:
    """The clauses of a `_resolve.c` pool built under `max_width`, in
    tuple order; this frees the pool, and a NULL pool means the kernel ran
    out of memory."""
    if not pool:
        raise MemoryError("the resolution kernel ran out of memory")
    try:
        info = _native.zeros("q", 2)
        kernel.pool_info(pool, _native.address(info))
        size, num_lits = info
        counts, lits, order = _native.zeros("q", max_width + 1), _native.zeros("i", num_lits), _native.zeros("q", size)
        kernel.pool_copy(pool, *map(_native.address, (counts, lits, order)))
    finally:
        kernel.pool_free(pool)
    grouped: list[Clause] = [()] * counts[0]
    flat = iter(lits)
    for width, count in enumerate(counts):
        if width and count:  # `count` clauses of `width` literals, back to back
            grouped.extend(zip(*[islice(flat, width * count)] * width))
    return tuple(map(grouped.__getitem__, order))


def level1_resolvents(formula: Formula, max_width: int) -> ResolventPool:
    """Resolvents of pairs of original clauses, width-capped."""
    _check_count("max_width", max_width)
    kernel = _native.load()
    if kernel is not None:
        width = min(max_width, formula.num_vars)  # no wider resolvent exists
        return ResolventPool(_native_clauses(kernel, kernel.level1_pool(*_native.flat(formula), width), width))
    originals = _base_masks(formula)
    return _pool(_level1(formula.num_vars, originals, max_width) - set(originals))


def level2_resolvents(
    formula: Formula, max_width: int, pair_budget: int = PAIR_BUDGET_DEFAULT
) -> ResolventPool:
    """Resolvents with at least one level-1 parent (other parent original
    or level-1), width-capped, excluding base clauses and level-1 resolvents.

    Enumeration is capped at `pair_budget` resolution attempts, walked in
    a deterministic order, so results are reproducible even when truncated:
    each level-1 resolvent (at any width) in canonical tuple order, each of
    its literals in turn, each clashing clause (non-tautological originals
    in id order, a repeated one as often as it occurs, then level-1
    resolvents in order).
    """
    _check_count("max_width", max_width)
    _check_count("pair_budget", pair_budget)
    kernel = _native.load()
    if kernel is not None:
        width = min(max_width, formula.num_vars)
        pool = kernel.level2_pool(*_native.flat(formula), width, _native.limit(pair_budget))
        return ResolventPool(_native_clauses(kernel, pool, width))
    originals = _base_masks(formula)
    exclude = set(originals)
    level1 = sorted(_level1(formula.num_vars, originals, formula.num_vars) - exclude, key=_clause)
    exclude.update(level1)
    occ = _Occurrences(formula.num_vars, originals + level1)
    found: set[Masks] = set()
    remaining = pair_budget
    for a in level1:
        for bit, partners in occ.pivots(a):
            if len(partners) > remaining:
                found.update(_resolvents(a, partners[:remaining], bit, max_width))
                return _pool(found - exclude)
            remaining -= len(partners)
            found.update(_resolvents(a, partners, bit, max_width))
    return _pool(found - exclude)


def ternary_saturate(formula: Formula) -> tuple[Clause, ...]:
    """Close clauses of width <= 3 under resolution, keeping resolvents of
    width <= 3, until fixpoint; the derived clauses, as a pool holds them."""
    kernel = _native.load()
    if kernel is not None:
        return _native_clauses(kernel, kernel.ternary_pool(*_native.flat(formula)), 3)
    known = {c for c in _base_masks(formula) if (c[0] | c[1]).bit_count() <= 3}
    queue = deque(known)
    occ = _Occurrences(formula.num_vars, queue)
    derived: set[Masks] = set()
    while queue:
        a = queue.popleft()
        # every pair meets when its later-dequeued clause is dequeued, so
        # the closure, and the result, do not depend on the queue order
        for bit, partners in occ.pivots(a):
            for r in _resolvents(a, partners, bit, 3):
                if r not in known:
                    known.add(r)
                    derived.add(r)
                    occ.add(r)
                    queue.append(r)
    return _pool(derived).clauses


def sample_pool(pool: ResolventPool, cap: int, seed: int) -> list[Clause]:
    """Uniform random subset of size min(cap, |pool|), seed-deterministic.

    The pool is drawn from as it stands, already in tuple order, so no
    sort precedes the draw; the sample itself is returned sorted.
    """
    _check_count("cap", cap)
    clauses = pool.clauses
    return sorted(random.Random(seed).sample(clauses, min(cap, len(clauses))))
