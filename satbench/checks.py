"""Output checks and the determinism digest.

Every instance is planted, so its hidden assignment is a known model.
A check fails when a solver answers `unsat`, returns a model that the
benchmark's own evaluator (not `satlab.eval_formula`) rejects, solves in
0 flips (its seed replayed the generator's draws), or yields a mined
clause, resolvent, ternary clause, generated clause or backbone literal
that the hidden assignment falsifies, and when a trial record carries a
crash note.
"""

from __future__ import annotations

import hashlib
import json


def lit_true(lit: int, alpha) -> bool:
    return alpha[lit] if lit > 0 else not alpha[-lit]


def falsified(clauses, alpha) -> list:
    """Clauses with no literal true under `alpha`."""
    return [c for c in clauses if not any(lit_true(lit, alpha) for lit in c)]


def is_model(clauses, alpha) -> bool:
    return alpha is not None and not falsified(clauses, alpha)


class Checker:
    """Counts checked outputs and keeps a description of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def sound(self, clauses, hidden, what: str) -> None:
        bad = falsified(clauses, hidden)
        self.expect(not bad, f"{what}: {len(bad)} clauses falsified by the hidden model, e.g. {bad[:1]}")

    def calls(self, calls, hidden_of) -> None:
        """Check every captured solver call; `hidden_of(formula)` gives the
        planted model of an original instance (None for derived formulas)."""
        for formula, result, _ in _unpack(calls, "sls.run"):
            if result.solved:
                self.expect(is_model(formula.clauses, result.model), f"sls seed {result.seed}: invalid model")
                self.expect(result.flips_used > 0, f"sls seed {result.seed}: solved in 0 flips")
        for formula, outcome, _ in _unpack(calls, "cdcl.mine"):
            self.expect(outcome.status != "unsat", "miner: unsat verdict on a planted instance")
            if outcome.status == "sat":
                self.expect(is_model(formula.clauses, outcome.model), "miner: invalid model")
            hidden = hidden_of(formula)
            self.expect(hidden is not None, "miner: formula is not a benchmark instance")
            if hidden is not None:
                self.sound(outcome.learned, hidden, "miner: mined clauses")
        for formula, result, _ in _unpack(calls, "pipeline.hybrid"):
            self.expect(result.status != "unsat", "hybrid: unsat verdict on a planted instance")
            if result.status == "sat":
                self.expect(is_model(formula.clauses, result.model), "hybrid: invalid model")
        for _, record, _ in _unpack(calls, "bench.trial"):
            self.expect(not record.note, f"trial {record.instance_id}/{record.seed}: {record.note}")


def _unpack(calls, name):
    for args, result, seconds in calls.get(name, ()):
        yield args[0] if args else None, result, seconds


def call_outputs(calls) -> dict:
    """Timing-free outputs of the captured miner and pipeline calls."""
    return {
        "mine": [[o.status, o.conflicts, o.total_learned_seen, o.learned] for _, o, _ in _unpack(calls, "cdcl.mine")],
        "hybrid": [r.canonical_json() for _, r, _ in _unpack(calls, "pipeline.hybrid")],
    }


def digest(payload) -> str:
    """Hash of timing-free outputs; equal inputs and seeds give equal digests."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
