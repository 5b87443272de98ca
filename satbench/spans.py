"""In-memory span tracer that wraps satlab's public functions from outside.

`Tracer.install` rebinds each public function of interest in every
satlab module namespace that calls it (and `__init__`/`solve` on the
classes), so the benchmark never edits `src/`.  While `recording` is on,
each wrapped call becomes a span `[name, start, end, parent, attrs]`
kept in a list; `attrs` holds work counts read from the arguments and
the result.  Calls named in `CAPTURED` are also handed to `calls` in
every mode, with their duration, so the benchmark can time trials and
check every model and mined clause whether or not it traces.  Before
each `run_trial` call the tracer paces: it runs its `pick` callable
(the benchmark's CPU choice, which returns a probe time) outside the
trial's timing.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

# captured in every mode: trial timings and outputs to check
CAPTURED = ("bench.trial", "sls.run", "cdcl.mine", "pipeline.hybrid")


def _sls_attrs(args, kwargs, result, pre):
    formula = args[0]
    # augment appends, so clause 0 keeps the width of the generated instance
    k = len(formula.clauses[0]) if formula.num_clauses else 0
    return {"flips": result.flips_used, "k": k}


def _mine_attrs(args, kwargs, result, pre):
    return {"learned": result.total_learned_seen, "exported": len(result.learned)}


def _hybrid_attrs(args, kwargs, result, pre):
    phases = result.phase_seconds
    return {
        "initial": phases.get("initial-sls", 0.0),
        "miner": phases.get("miner", 0.0),
        "final": phases.get("final-sls", 0.0),
    }


def _targets(satlab):
    """(owner, attribute, span name, attrs, before) for every wrapped call."""
    cnf, gen, sls, cdcl = satlab.cnf, satlab.generators, satlab.sls, satlab.cdcl
    res, qual, pipe, bench = satlab.resolution, satlab.quality, satlab.pipeline, satlab.bench
    size = lambda key: (lambda a, kw, r, pre: {key: len(r)})
    return [
        (cnf, "parse_dimacs", "cnf.parse", lambda a, kw, r, pre: {"clauses": r.num_clauses}, None),
        (cnf.Formula, "__init__", "cnf.formula_build", None, None),
        (sls, "eval_formula", "cnf.eval_formula", None, None),
        (pipe, "eval_formula", "cnf.eval_formula", None, None),
        (cdcl, "eval_formula", "cnf.eval_formula", None, None),
        (gen, "gen_planted", "generators.gen", None, None),
        (sls, "probsat_run", "sls.run", _sls_attrs, None),
        (pipe, "probsat_run", "sls.run", _sls_attrs, None),
        (bench, "probsat_run", "sls.run", _sls_attrs, None),
        (sls.SlsState, "__init__", "sls.state_init", None, None),
        (cdcl, "cdcl_solve_and_mine", "cdcl.mine", _mine_attrs, None),
        (pipe, "cdcl_solve_and_mine", "cdcl.mine", _mine_attrs, None),
        (cdcl.CdclSolver, "solve", "cdcl.solve",
         lambda a, kw, r, pre: {"conflicts": a[0].conflicts - pre}, lambda a, kw: a[0].conflicts),
        (qual, "compute_backbone", "quality.backbone", size("literals"), None),
        (qual, "quality_report", "quality.report", None, None),
        (qual, "gen_general", "quality.gen", None, None),
        (qual, "gen_deceptive", "quality.gen", None, None),
        (res, "level1_resolvents", "resolution.level1", size("clauses"), None),
        (res, "level2_resolvents", "resolution.level2", size("clauses"), None),
        (res, "ternary_saturate", "resolution.ternary", size("clauses"), None),
        (res, "sample_pool", "resolution.sample", None, None),
        (pipe, "run_hybrid", "pipeline.hybrid", _hybrid_attrs, None),
        (bench, "run_hybrid", "pipeline.hybrid", _hybrid_attrs, None),
        (pipe, "augment", "pipeline.augment",
         lambda a, kw, r, pre: {"added": r.num_clauses - a[0].num_clauses}, None),
        (bench, "run_suite", "bench.suite", None, None),
        (bench, "run_trial", "bench.trial", None, None),
        (bench, "summarize", "bench.summarize", None, None),
        (bench, "trials_to_csv", "bench.csv", None, None),
        (bench, "summary_to_csv", "bench.csv", None, None),
    ]


class Tracer:
    """Span recorder over rebound satlab functions; single-threaded."""

    def __init__(self, pick):
        self.recording = False
        self.spans: list[list] = []
        self.calls: dict[str, list[tuple]] = defaultdict(list)
        self.pick = pick
        self.pace_s = 0.0
        self.probe_min = float("inf")
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def pace(self) -> float:
        """Run `pick` before a timed unit and return its probe time; the
        pick's time goes to `pace_s` and, while recording, to a
        `satbench.pace` span.  The fastest probe time is kept in
        `probe_min`."""
        t0 = time.perf_counter()
        probe = self.pick()
        self.probe_min = min(self.probe_min, probe)
        t1 = time.perf_counter()
        self.pace_s += t1 - t0
        if self.recording:
            stack = self._stack
            self.spans.append(["satbench.pace", t0, t1, stack[-1] if stack else -1, None])
        return probe

    def take_pace(self) -> float:
        seconds, self.pace_s = self.pace_s, 0.0
        return seconds

    def install(self, satlab) -> None:
        for owner, attr, name, attrs, before in _targets(satlab):
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, attrs, before))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take_spans(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans

    def take_calls(self) -> dict[str, list[tuple]]:
        calls, self.calls = self.calls, defaultdict(list)
        return calls

    def _wrap(self, name, fn, attrs, before):
        tracer = self
        capture = name in CAPTURED
        paced = name == "bench.trial"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if paced:
                tracer.pace()
            if not tracer.recording:
                if not capture:
                    return fn(*args, **kwargs)
                t0 = clock()
                result = fn(*args, **kwargs)
                tracer.calls[name].append((args, result, clock() - t0))
                return result
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            pre = before(args, kwargs) if before else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span[1], span[2] = t0, t1
            if attrs:
                span[4] = attrs(args, kwargs, result, pre)
            if capture:
                tracer.calls[name].append((args, result, t1 - t0))
            return result

        return wrapper


def self_seconds(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def totals(spans) -> dict[str, float]:
    """Raw per-layer sums: `<span>:s` seconds, `<span>:n` calls, `<span>:<attr>`."""
    out: dict[str, float] = defaultdict(float)
    for name, t0, t1, parent, attrs in spans:
        out[name + ":s"] += t1 - t0
        out[name + ":n"] += 1
        if name == "satbench.pace" and parent >= 0 and spans[parent][0] == "bench.suite":
            out["bench.suite:pace"] += t1 - t0
        if not attrs:
            continue
        if name == "sls.run":
            out["sls.run:flips"] += attrs["flips"]
            out[f"sls.run:flips.k{attrs['k']}"] += attrs["flips"]
            out[f"sls.run:s.k{attrs['k']}"] += t1 - t0
            continue
        for key, value in attrs.items():
            out[f"{name}:{key}"] += value
    # differences are taken per round, where the parts nest in the whole
    out["bench.suite:harness"] = out["bench.suite:s"] - out["bench.trial:s"] - out["bench.suite:pace"]
    phases = out["pipeline.hybrid:initial"] + out["pipeline.hybrid:miner"] + out["pipeline.hybrid:final"]
    out["pipeline.hybrid:between"] = out["pipeline.hybrid:s"] - phases
    return out


def median_totals(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over repeats of the same work (missing keys read 0)."""
    keys = set().union(*samples) if samples else set()
    return {k: statistics.median(s.get(k, 0.0) for s in samples) for k in keys}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(raw: dict[str, float]) -> dict[str, float]:
    """Per-layer metric values (the names listed in BENCHMARK.json) from raw sums."""
    g = lambda key: raw.get(key, 0.0)
    return {
        "cnf.parse_s": g("cnf.parse:s"),
        "cnf.parse_clauses_per_s": _ratio(g("cnf.parse:clauses"), g("cnf.parse:s")),
        "cnf.formula_build_s": g("cnf.formula_build:s"),
        "cnf.formula_builds": g("cnf.formula_build:n"),
        "cnf.eval_formula_s": g("cnf.eval_formula:s"),
        "generators.gen_s": g("generators.gen:s"),
        "sls.run_s": g("sls.run:s"),
        "sls.runs": g("sls.run:n"),
        "sls.flips": g("sls.run:flips"),
        "sls.flips_per_s.k3": _ratio(g("sls.run:flips.k3"), g("sls.run:s.k3")),
        "sls.flips_per_s.k5": _ratio(g("sls.run:flips.k5"), g("sls.run:s.k5")),
        "sls.flips_per_s.k7": _ratio(g("sls.run:flips.k7"), g("sls.run:s.k7")),
        "sls.state_init_s": g("sls.state_init:s"),
        "cdcl.mine_s": g("cdcl.mine:s"),
        "cdcl.conflicts": g("cdcl.solve:conflicts"),
        "cdcl.conflicts_per_s": _ratio(g("cdcl.solve:conflicts"), g("cdcl.solve:s")),
        "cdcl.learned": g("cdcl.mine:learned"),
        "cdcl.exported": g("cdcl.mine:exported"),
        "cdcl.export_ratio": _ratio(g("cdcl.mine:exported"), g("cdcl.mine:learned")),
        "cdcl.solve_calls": g("cdcl.solve:n"),
        "cdcl.solve_s": g("cdcl.solve:s"),
        "quality.backbone_s": g("quality.backbone:s"),
        "quality.backbone_literals": g("quality.backbone:literals"),
        "quality.report_s": g("quality.report:s"),
        "quality.gen_s": g("quality.gen:s"),
        "resolution.level1_s": g("resolution.level1:s"),
        "resolution.level1_clauses": g("resolution.level1:clauses"),
        "resolution.level2_s": g("resolution.level2:s"),
        "resolution.level2_clauses": g("resolution.level2:clauses"),
        "resolution.ternary_s": g("resolution.ternary:s"),
        "resolution.ternary_clauses": g("resolution.ternary:clauses"),
        "resolution.sample_s": g("resolution.sample:s"),
        "pipeline.hybrid_s": g("pipeline.hybrid:s"),
        "pipeline.initial_sls_s": g("pipeline.hybrid:initial"),
        "pipeline.miner_s": g("pipeline.hybrid:miner"),
        "pipeline.final_sls_s": g("pipeline.hybrid:final"),
        "pipeline.between_phases_s": g("pipeline.hybrid:between"),
        "pipeline.augment_s": g("pipeline.augment:s"),
        "pipeline.clauses_added": g("pipeline.augment:added"),
        "bench.suite_s": g("bench.suite:s"),
        "bench.harness_overhead_s": g("bench.suite:harness"),
        "bench.summarize_s": g("bench.summarize:s"),
        "bench.csv_s": g("bench.csv:s"),
    }
