"""CNF formula representation, DIMACS I/O, and the resolution rule.

Literals follow the DIMACS convention used throughout this package: a
literal is a signed integer, `v` for the positive literal of variable v
(1-based) and `-v` for its negation.  Clauses are canonical: literals
sorted by variable index, repeats dropped, which makes deduplication and
set operations exact.  A tautology stays an ordinary clause, satisfied
by every assignment; only resolvent enumeration skips it.  A `Formula`
is four flat int32 arrays, the clauses and their occurrence index; its
tuple of clause tuples is a view derived from them on first read, for
the Python reference paths.  Assignments are lists of booleans of length
n+1 with index 0 unused, so `assignment[v]` is the value of variable v.

Building a `Formula`, reading DIMACS, writing it and checking a model
each have two paths with one set of results:

- `_cnf.c`, built and loaded by `satlab._native`, canonicalises and
  checks flat int32 clauses and fills the occurrence index
  (`formula_index`), scans DIMACS text in a strict subset: ASCII lines
  of `[+-]?digits` tokens, `c` comments, one `p cnf N M` header and a
  `%` end line (`dimacs_scan`), writes the clause lines of `emit_dimacs`
  (`dimacs_emit`), and checks a model against the flat clauses
  (`formula_satisfied`).  It also holds the duplicate check of
  `satlab.pipeline.augment` (`augment_keep`).  Every formula built from
  flat arrays, by the scanner, the generators or `augment`, is built by
  `Formula._from_flat`.  A `Formula` is never modified: `augment` is the
  one way to add clauses to one, and returns a new formula.
- `canonical_clause` with `_index_clauses`, `_read_dimacs`,
  `_emit_clauses_python` and `_eval_formula_python` are the readable
  reference.  They run where `satlab._native` says, so every error
  message and warning is theirs.

The differential tests in `tests/test_cnf.py` hold the two paths to
equal attributes, errors, warnings, text and model checks.
"""

from __future__ import annotations

import operator
import warnings
from array import array
from itertools import accumulate, chain
from typing import Iterable, Sequence

from . import _native

Clause = tuple[int, ...]
Assignment = list[bool]

_INT32_MAX = 2**31 - 1


def is_int_at_least(value, low: int) -> bool:
    """True when `value` is an integer (not 2.5, a JSON 1e3 or a string) >= `low`."""
    try:
        return operator.index(value) >= low
    except TypeError:
        return False


class DimacsError(ValueError):
    """Raised on malformed DIMACS input."""


class DimacsWarning(UserWarning):
    """Raised for recoverable DIMACS oddities (e.g. header count mismatch)."""


def canonical_clause(lits: Iterable[int]) -> Clause:
    """Deduplicate and sort literals by variable index (sign breaks ties).

    Tautological clauses are preserved as-is (both polarities kept).
    """
    return tuple(sorted(set(lits), key=lambda l: (abs(l), l)))


class Formula:
    """Immutable clause database: canonical clauses in flat int32 arrays,
    with their occurrence index.

    Shared by every solver in the package; safe to share across threads
    and to pickle into worker processes.  Every clause is canonical
    (`canonical_clause`: repeats dropped, sorted by variable, tautologies
    kept as ordinary clauses).

    Four int32 arrays, built once and never mutated, are the formula, and
    what the compiled engines read.  Clause `c` is
    `literals[offsets[c]:offsets[c + 1]]`.  Literal `l` occurs in the
    clauses `occ[occ_offsets[i]:occ_offsets[i + 1]]`, `i = 2 * abs(l) +
    (l < 0)`, in id order (a tautology under both of its literals).  No
    occurrence list is longer than `max_occurrences`.  `2 * num_vars + 3`
    must fit int32.

    `clauses`, the tuple of clause tuples that the Python reference paths
    read, is a view built from `offsets` and `literals` on first read and
    kept.  Only the reference build holds it from the start.  Two threads
    that read it first at once both build it; the tuples are equal, so
    either may stay.

    The compiled `formula_index` canonicalises the clauses flattened into
    int32 arrays in place and indexes them.  The reference
    (`canonical_clause`, then `_index_clauses`) runs when the library is
    unavailable or the clauses do not flatten, and then raises for what
    int32 cannot hold.  Every build path records whether some clause is
    empty, which `has_empty_clause` reports.
    """

    __slots__ = ("num_vars", "_clauses", "offsets", "literals", "occ_offsets", "occ", "max_occurrences",
                 "max_width", "_empty_clause")

    def __init__(self, num_vars: int, clauses: Iterable[Sequence[int]]):
        num_vars = operator.index(num_vars)
        if num_vars < 0:
            raise ValueError(f"negative variable count: {num_vars}")
        if 2 * num_vars + 3 > _INT32_MAX:
            raise ValueError(f"variable count {num_vars} exceeds the int32 occurrence index")
        kernel = _native.load()
        if kernel is not None:
            clauses = clauses if isinstance(clauses, (list, tuple)) else list(clauses)
            flat = _flatten(clauses, 0)
            if flat is not None:
                self._index_native(kernel, num_vars, *flat)
                return
        self.num_vars = num_vars
        self._clauses = canonical = tuple(canonical_clause(c) for c in clauses)
        occ = _index_clauses(canonical, num_vars)
        self.offsets = array("i", accumulate(map(len, canonical), initial=0))
        self.literals = array("i", chain.from_iterable(canonical))
        self.occ_offsets = array("i", accumulate(map(len, occ), initial=0))
        self.occ = array("i", [cid for ids in occ for cid in ids])
        self.max_occurrences = max(map(len, occ))
        self.max_width = max(map(len, canonical), default=0)
        self._empty_clause = not all(canonical)  # the empty tuple is the only false clause

    @classmethod
    def _from_flat(cls, kernel, num_vars: int, offsets: array, lits: array) -> Formula:
        """The formula of flat int32 clauses, built by `formula_index`
        without `__init__`: the one constructor from flat arrays."""
        formula = cls.__new__(cls)
        formula._index_native(kernel, num_vars, offsets, lits)
        return formula

    def _index_native(self, kernel, num_vars: int, offsets: array, lits: array) -> None:
        """Set every attribute from flat int32 clauses with `formula_index`,
        raising `_index_clauses`'s errors.  It canonicalises `offsets` and
        `lits` in place and keeps them; `lits` may run past `offsets[-1]`.
        """
        m = len(offsets) - 1
        occ_offsets = _native.zeros("i", 2 * num_vars + 3)
        occ = _native.zeros("i", offsets[-1])
        info = _native.zeros("q", 5)
        if kernel.formula_index(num_vars, m, *map(_native.address, (offsets, lits, occ_offsets, occ, info))):
            raise ValueError(f"literal {info[1]} out of range 1..{num_vars} in clause {info[0]}")
        del lits[offsets[-1]:], occ[offsets[-1]:]  # the dropped repeats
        self.num_vars = num_vars
        self._clauses = None
        self.offsets, self.literals = offsets, lits
        self.occ_offsets, self.occ, self.max_occurrences = occ_offsets, occ, info[2]
        self.max_width = info[3]
        self._empty_clause = bool(info[4])

    @property
    def clauses(self) -> tuple[Clause, ...]:
        """The canonical clauses as tuples, built from `offsets` and
        `literals` on first read."""
        clauses = self._clauses
        if clauses is None:
            offsets = self.offsets
            clauses = tuple(map(tuple, map(self.literals.__getitem__, map(slice, offsets, offsets[1:]))))
            self._clauses = clauses
        return clauses

    @property
    def num_clauses(self) -> int:
        return len(self.offsets) - 1

    def occurrence(self, lit: int) -> array:
        """Ids of clauses containing `lit`, in id order (empty if it occurs nowhere)."""
        if abs(lit) > self.num_vars:
            return self.occ[:0]
        i = 2 * abs(lit) + (lit < 0)
        return self.occ[self.occ_offsets[i] : self.occ_offsets[i + 1]]

    def has_empty_clause(self) -> bool:
        """Whether some clause is empty; recorded when the formula is built,
        so no clause is read here."""
        return self._empty_clause

    def __repr__(self) -> str:
        return f"Formula(n={self.num_vars}, m={self.num_clauses})"


def _flatten(clauses: Sequence[Sequence[int]], start: int) -> tuple[array, array] | None:
    """(offsets from `start`, literals) of `clauses` as int32 arrays, or
    None when they do not flatten: a value int32 cannot hold, a literal
    that is not an int, or a clause whose len disagrees with its literals."""
    try:
        offsets = array("i", accumulate(map(len, clauses), initial=start))
        lits = array("i", chain.from_iterable(clauses))
    except (OverflowError, TypeError):
        return None
    return (offsets, lits) if len(lits) == offsets[-1] - start else None


def _index_clauses(clauses: Sequence[Clause], num_vars: int) -> list[list[int]]:
    """Check each canonical clause and list its id under each literal `l`
    at `occ[2 * abs(l) + (l < 0)]`; return `occ`.  A literal out of range
    1..num_vars is a ValueError."""
    occ: list[list[int]] = [[] for _ in range(2 * num_vars + 2)]
    for cid, clause in enumerate(clauses):
        for lit in clause:
            v = abs(lit)
            if v < 1 or v > num_vars:
                raise ValueError(f"literal {lit} out of range 1..{num_vars} in clause {cid}")
            occ[2 * v + (lit < 0)].append(cid)
    return occ


def parse_dimacs(text: str | bytes) -> Formula:
    """Parse DIMACS CNF: `c` comments, one `p cnf n m` header, 0-terminated clauses.

    Clauses are canonical (duplicate literals dropped, sorted by variable);
    tautological clauses are retained as ordinary clauses.
    A clause-count mismatch against the header is a `DimacsWarning`, not an
    error, and the actual count is used.  A `%` line ends the clause section
    (SATLIB convention).  Bytes must be ASCII.  The compiled scanner reads
    the common subset of this format, building the formula without
    `Formula.__init__`; `_read_dimacs` reads the rest and is the reference.
    """
    kernel = _native.load()
    scanned = None if kernel is None else _scan_dimacs(kernel, text)
    if scanned is None:
        num_vars, declared_m, clauses = _read_dimacs(text)
        num_clauses = len(clauses)
    else:
        num_vars, declared_m, offsets, lits = scanned
        num_clauses = len(offsets) - 1
    if num_clauses != declared_m:
        warnings.warn(
            f"header declares {declared_m} clauses but {num_clauses} parsed; using actual count",
            DimacsWarning,
            stacklevel=2,
        )
    if scanned is None:
        return Formula(num_vars, clauses)
    return Formula._from_flat(kernel, num_vars, offsets, lits)


def _read_dimacs(text: str | bytes) -> tuple[int, int, list[list[int]]]:
    """The reference DIMACS reader: (n, declared m, clauses) or a DimacsError."""
    text = _ascii(text)
    header = None
    clauses: list[list[int]] = []
    current: list[int] = []
    ended = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            ended = True
            break
        if line.startswith("p"):
            if header is not None:
                raise DimacsError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(f"line {lineno}: malformed header {line!r}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise DimacsError(f"line {lineno}: malformed header {line!r}") from None
            if header[0] < 0 or header[1] < 0:
                raise DimacsError(f"line {lineno}: negative counts in header")
            if 2 * header[0] + 3 > _INT32_MAX:
                raise DimacsError(f"line {lineno}: {header[0]} variables exceed the int32 occurrence index")
            continue
        if header is None:
            raise DimacsError(f"line {lineno}: clause data before header")
        for tok in _int_tokens(line, lineno):
            if tok == 0:
                clauses.append(current)
                current = []
            else:
                if abs(tok) > header[0]:
                    raise DimacsError(f"line {lineno}: literal {tok} exceeds declared {header[0]} variables")
                current.append(tok)
    if header is None:
        raise DimacsError("missing `p cnf` header")
    if current and not ended:
        raise DimacsError("last clause not terminated by 0")
    return header[0], header[1], clauses


def _scan_dimacs(kernel, text) -> tuple[int, int, array, array] | None:
    """(n, declared m, clause offsets, literals) from `dimacs_scan`, or
    None when `text` lies outside the subset it reads."""
    if isinstance(text, str):
        if not text.isascii():
            return None
        text = text.encode("ascii")
    elif not isinstance(text, bytes):
        return None
    # every token takes at least 2 bytes (the last one may end the text)
    room = (len(text) + 1) // 2
    info = _native.zeros("q", 4)
    offsets = _native.zeros("i", room + 1)
    lits = _native.zeros("i", room)
    if kernel.dimacs_scan(text, len(text), *map(_native.address, (info, offsets, lits))):
        return None
    del offsets[info[2] + 1:], lits[info[3]:]
    return info[0], info[1], offsets, lits


def _ascii(text: str | bytes) -> str:
    """`text`, with bytes decoded as ASCII; a non-ASCII byte is a
    DimacsError naming its line."""
    if isinstance(text, str):
        return text
    try:
        return text.decode("ascii")
    except UnicodeDecodeError as exc:
        lineno = len((text[: exc.start].decode("ascii") + "x").splitlines())
        raise DimacsError(f"line {lineno}: non-ASCII byte {text[exc.start]:#04x}") from None


def _int_tokens(line: str, lineno: int) -> list[int]:
    """The whitespace-separated integers of one input line."""
    try:
        return [int(t) for t in line.split()]
    except ValueError:
        raise DimacsError(f"line {lineno}: non-integer token in {line!r}") from None


def emit_dimacs(formula: Formula, comments: Sequence[str] = ()) -> str:
    """Serialize to DIMACS CNF.  Inverse of `parse_dimacs` up to clause-set equality.

    Each line of each comment becomes its own `c` line, and the `p cnf`
    header follows.  The clause lines, `l1 l2 ... 0`, come from
    `dimacs_emit` in `_cnf.c`, which reads `formula.offsets` and
    `formula.literals`; `_emit_clauses_python` is the reference and runs
    when the library is unavailable.  Both give the same text.
    """
    head = "".join(f"c {line}\n" for c in comments for line in str(c).splitlines() or [""])
    head += f"p cnf {formula.num_vars} {formula.num_clauses}\n"
    kernel = _native.load()
    if kernel is None:
        return head + _emit_clauses_python(formula)
    # at most 12 bytes per int32 literal with its blank, and " 0\n" per clause
    out = _native.zeros("B", 12 * len(formula.literals) + 3 * formula.num_clauses)
    written = kernel.dimacs_emit(*_native.flat(formula)[1:], _native.address(out))
    return head + str(memoryview(out)[:written], "ascii")  # decoded in place, not copied to bytes first


def _emit_clauses_python(formula: Formula) -> str:
    """The reference clause lines of `emit_dimacs`."""
    return "".join(" ".join(map(str, clause)) + " 0\n" for clause in formula.clauses)


def eval_clause(clause: Sequence[int], alpha: Assignment) -> bool:
    """True iff at least one literal is satisfied under `alpha`."""
    for lit in clause:
        if alpha[lit] if lit > 0 else not alpha[-lit]:
            return True
    return False


def eval_formula(formula: Formula, alpha: Assignment | bytes) -> bool:
    """True iff every clause is satisfied under `alpha`.

    `formula_satisfied` in `_cnf.c` checks the flat clauses against the
    bytes of `alpha` when the library is loaded and `alpha` is bytes or a
    list of at least n+1 byte values; the compiled engines' models are
    bytes and are checked as they are.  `_eval_formula_python` is the
    reference and runs otherwise, with its errors.
    """
    kernel = _native.load()
    if kernel is not None and isinstance(alpha, (bytes, list)) and len(alpha) > formula.num_vars:
        try:
            values = bytes(alpha)  # a bytes object is returned as it is, not copied
        except (TypeError, ValueError):
            pass  # not byte values: the reference reads their truth
        else:
            return bool(kernel.formula_satisfied(*_native.flat(formula)[1:], values))
    return _eval_formula_python(formula, alpha)


def _eval_formula_python(formula: Formula, alpha: Assignment) -> bool:
    """The reference model check of `eval_formula`, over `formula.clauses`."""
    return all(eval_clause(c, alpha) for c in formula.clauses)


def count_satisfied_literals(clause: Sequence[int], alpha: Assignment) -> int:
    """Number of literals of `clause` satisfied under `alpha` (0..len)."""
    count = 0
    for lit in clause:
        if alpha[lit] if lit > 0 else not alpha[-lit]:
            count += 1
    return count


def resolve(a: Sequence[int], b: Sequence[int], pivot: int) -> Clause | None:
    """Resolvent of `a` and `b` on variable `pivot`, or None if tautological.

    `pivot` must occur positively in exactly one clause and negatively in
    the other; otherwise ValueError.  The resolvent is the deduplicated
    union of the remaining literals in canonical order; the empty clause
    is returned as `()`.  This is the readable reference for the
    width-bounded mask engine of `satlab.resolution`.
    """
    if pivot in a and -pivot in b:
        pos, negc = a, b
    elif pivot in b and -pivot in a:
        pos, negc = b, a
    else:
        raise ValueError(f"pivot {pivot} does not clash between clauses {a!r} and {b!r}")
    if -pivot in pos or pivot in negc:
        raise ValueError(f"pivot {pivot} occurs in both polarities within one clause")
    merged = {l for l in pos if l != pivot}
    merged.update(l for l in negc if l != -pivot)
    if any(-l in merged for l in merged):
        return None
    return canonical_clause(merged)


def format_solution(alpha: Assignment, width: int = 20) -> str:
    """SAT-competition `v` lines for a complete assignment, 0-terminated."""
    lits = [v if alpha[v] else -v for v in range(1, len(alpha))]
    lines = []
    for i in range(0, len(lits), width):
        chunk = lits[i : i + width]
        lines.append("v " + " ".join(str(l) for l in chunk))
    if lines:
        lines[-1] += " 0"
    else:
        lines.append("v 0")
    return "\n".join(lines) + "\n"


def parse_clause_lines(text: str | bytes) -> list[Clause]:
    """Parse 0-terminated clause lines, tolerating `c` comments and an
    optional `p cnf` header; the lenient reader for mined-clause files.
    Bytes must be ASCII."""
    clauses: list[Clause] = []
    current: list[int] = []
    for lineno, line in enumerate(_ascii(text).splitlines(), start=1):
        line = line.strip()
        if not line or line[0] in "cp%":
            continue
        for lit in _int_tokens(line, lineno):
            if lit == 0:
                clauses.append(canonical_clause(current))
                current = []
            else:
                current.append(lit)
    if current:
        raise DimacsError("last clause not terminated by 0")
    return clauses


def parse_solution(text: str | bytes, num_vars: int | None = None) -> Assignment:
    """Parse `v <lit> ... 0` lines into a complete assignment.

    With `num_vars` omitted, the variable count is inferred from the
    largest index present.  Bytes must be ASCII.  A variable given with
    both signs is a ValueError that names it and the line of the second.
    """
    lits = []  # (literal, line number)
    for lineno, line in enumerate(_ascii(text).splitlines(), start=1):
        line = line.strip()
        if not line.startswith("v"):
            continue
        lits.extend((lit, lineno) for lit in _int_tokens(line[1:], lineno) if lit != 0)
    if num_vars is None:
        num_vars = max((abs(lit) for lit, _ in lits), default=0)
    alpha: Assignment = [False] * (num_vars + 1)
    seen: dict[int, bool] = {}
    for lit, lineno in lits:
        v = abs(lit)
        if v > num_vars:
            raise ValueError(f"solution literal {lit} exceeds {num_vars} variables")
        if seen.setdefault(v, lit > 0) != (lit > 0):
            raise ValueError(f"line {lineno}: variable {v} is given both true and false")
        alpha[v] = lit > 0
    missing = set(range(1, num_vars + 1)) - seen.keys()
    if missing:
        raise ValueError(f"solution incomplete: variables {sorted(missing)[:5]}... unassigned")
    return alpha
