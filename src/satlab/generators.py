"""Random k-SAT instance generators: uniform and hidden-solution (planted).

All generators are pure functions of a `GenSpec`; the seeded Mersenne
Twister (`random.Random`) makes them bit-reproducible across platforms.

`gen_uniform` and `gen_planted` have two paths with one set of results:

- `gen_clauses` in `_gen.c`, built and loaded by `satlab._native`,
  seeds the Mersenne Twister as `random.Random(spec.seed)` does and
  repeats the reference's draws one by one, including both branches of
  CPython's `random.sample`.  It writes flat int32 clause arrays, which
  `formula_index` canonicalises and indexes, so no clause list or tuple
  is built and `Formula.__init__` never runs.
- `_gen_uniform_python` and `_gen_planted_python` are the readable
  reference.  They run when the library is unavailable.

For equal specs the two give equal clauses, flat arrays and hidden
assignments; the differential tests in `tests/test_generators.py` hold
them to it.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass

from . import _native
from .cnf import _INT32_MAX, Assignment, Formula

# Clause-to-variable ratios near the satisfiability threshold, used when a
# spec gives neither ratio nor m.
THRESHOLD_RATIOS = {3: 4.267, 5: 21.117, 7: 87.79}


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one generated instance.

    Exactly one of `ratio` / `m` must be given, `seed` must be an int,
    and `2 * n + 3` and `m * k` must fit the int32 arrays of a `Formula`;
    anything else is a ValueError when the spec is made.  `bias` shapes
    the planted polarity distribution of `gen_planted`, whose hidden
    assignment is drawn from `seed`: a polarity vector with c
    solution-agreeing literals is accepted with probability bias**c, so
    bias=1 keeps every satisfying vector (the plain rejection model) while
    bias<1 hides the solution deceptively (fewer agreeing literals, much
    harder for local search).
    """

    n: int
    k: int
    seed: int
    ratio: float | None = None
    m: int | None = None
    bias: float = 1.0

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"clause width k={self.k} < 2")
        if self.k > self.n:
            raise ValueError(f"clause width k={self.k} exceeds n={self.n}")
        if (self.ratio is None) == (self.m is None):
            raise ValueError("exactly one of ratio / m must be given")
        if not 0.0 < self.bias <= 1.0:
            raise ValueError(f"bias must lie in (0, 1], got {self.bias}")
        if self.ratio is not None and not math.isfinite(self.ratio * self.n):
            raise ValueError(f"ratio * n must be finite, got ratio {self.ratio}")
        if self.num_clauses < 0:
            raise ValueError(f"clause count must not be negative, got {self.num_clauses}")
        if 2 * self.n + 3 > _INT32_MAX or self.num_clauses * self.k > _INT32_MAX:
            raise ValueError(f"n={self.n} or m*k={self.num_clauses * self.k} exceeds a Formula's int32 arrays")
        _native.seed_key(self.seed)

    @property
    def num_clauses(self) -> int:
        return self.m if self.m is not None else int(round(self.ratio * self.n))


def default_ratio(k: int) -> float:
    """Threshold-ratio default for k in {3, 5, 7}."""
    try:
        return THRESHOLD_RATIOS[k]
    except KeyError:
        raise ValueError(f"no default ratio for k={k}; pass an explicit ratio") from None


def gen_uniform(spec: GenSpec) -> Formula:
    """Uniform random k-SAT: per clause, k distinct variables drawn without
    replacement and independent uniform polarities.  Duplicate clauses are
    permitted, as in the uniform model."""
    kernel = _native.load()
    return _gen_uniform_python(spec) if kernel is None else _gen_native(kernel, spec, None)


def gen_planted(spec: GenSpec) -> tuple[Formula, Assignment]:
    """Hidden-solution k-SAT: every clause satisfies the planted assignment.

    The hidden assignment is drawn uniformly from the seed, before any
    clause.  Each clause keeps its variable set and redraws the polarity
    vector until at least one literal agrees with the hidden assignment
    (rejection sampling; for k=3 and bias=1 the expected number of draws
    is 8/7).  With bias<1 vectors are additionally thinned by bias**c
    where c counts agreeing literals, which concentrates mass on barely
    satisfying clauses and hides the solution from local search.
    """
    kernel = _native.load()
    if kernel is None:
        return _gen_planted_python(spec)
    hidden = _native.zeros("B", spec.n + 1)
    return _gen_native(kernel, spec, hidden), list(map(bool, hidden))  # the kernel draws `hidden` first


def _gen_native(kernel, spec: GenSpec, hidden: array | None) -> Formula:
    """The formula `gen_clauses` generates.  `hidden` is None for uniform
    polarities; otherwise the kernel draws the hidden assignment into it
    (0/1 bytes, index 0 unused) before any clause."""
    n, k, m = spec.n, spec.k, spec.num_clauses
    key = _native.seed_key(spec.seed)
    pool = n <= 21 + (4 ** math.ceil(math.log(3 * k, 4)) if k > 5 else 0)  # random.sample's branch
    offsets = _native.zeros("i", m + 1)
    lits = _native.zeros("i", m * k)
    if kernel.gen_clauses(n, k, m, pool, spec.bias, None if hidden is None else _native.address(hidden),
                          _native.address(key), len(key), *map(_native.address, (offsets, lits))):
        raise MemoryError("cannot allocate the generator's sampling pool")
    return Formula._from_flat(kernel, n, offsets, lits)


def _gen_uniform_python(spec: GenSpec) -> Formula:
    """The reference of `gen_uniform`."""
    rng = random.Random(spec.seed)
    variables = range(1, spec.n + 1)
    clauses = []
    for _ in range(spec.num_clauses):
        vs = rng.sample(variables, spec.k)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return Formula(spec.n, clauses)


def _gen_planted_python(spec: GenSpec) -> tuple[Formula, Assignment]:
    """The reference of `gen_planted`."""
    rng = random.Random(spec.seed)
    hidden = [False] + [rng.random() < 0.5 for _ in range(spec.n)]
    variables = range(1, spec.n + 1)
    bias = spec.bias
    clauses = []
    for _ in range(spec.num_clauses):
        vs = rng.sample(variables, spec.k)
        while True:
            clause = [v if rng.random() < 0.5 else -v for v in vs]
            correct = sum(1 for l in clause if (l > 0) == hidden[abs(l)])
            if correct == 0:
                continue
            if bias == 1.0 or rng.random() < bias**correct:
                break
        clauses.append(clause)
    return Formula(spec.n, clauses), hidden
