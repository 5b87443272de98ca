"""Command-line interface.

Subcommands map onto the library one-to-one: `gen` (instances),
`solve-sls` (plain local search), `mine` (CDCL clause extraction),
`enrich` (resolvent/CDCL augmentation), `backbone`, `inject` (synthetic
clause models), `quality` (clause quality report), `solve` (the full
hybrid pipeline), `bench` (trial harness), and `stats` (paired tests on
CSV columns).
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import os
import re
import sys
from pathlib import Path

from . import bench as bench_mod
from .cdcl import MINER_SECONDS_DEFAULT, MiningBudget, cdcl_solve_and_mine, filter_learned
from .cnf import (
    emit_dimacs,
    format_solution,
    parse_clause_lines,
    parse_dimacs,
    parse_solution,
)
from .generators import GenSpec, default_ratio, gen_planted, gen_uniform
from .pipeline import OVERRIDABLE, WALL_BUDGET_DEFAULT, augment, percent_cap, run_hybrid, select_strategy
from .quality import compute_backbone, gen_deceptive, gen_general, quality_report
from .resolution import level1_resolvents, level2_resolvents, sample_pool, ternary_saturate
from .sls import ScoringFunction, probsat_run
from .stats import DegenerateInputError, cohens_d, paired_t_test, welch_t_test, wilcoxon_signed_rank

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_UNKNOWN = 0


def _read(path: str) -> str | bytes:
    """The text of a file (`-` is stdin).  Bytes that are not UTF-8 are
    returned as they are, so the `cnf` parsers name the line of the first
    non-ASCII byte."""
    data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        return data


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _resolve_cap(spec: str | None, m: int) -> int | None:
    """Cap expressions: absolute count, `m/10`, or a percentage like `5%`;
    any other expression, a negative one included, is a ValueError."""
    if spec is None:
        return None
    spec = spec.strip()
    if not re.fullmatch(r"\d+|m/10|(\d+\.?\d*|\.\d+)%", spec):
        raise ValueError(f"--cap {spec!r}: expected a count, m/10 or X% that is not negative")
    if spec == "m/10":
        return m // 10
    if spec.endswith("%"):
        return percent_cap(float(spec[:-1]), m)
    return int(spec)


def _scoring_from_args(args) -> ScoringFunction | None:
    """`--scoring` with `--cb` (default 2.06) and `--epsilon` (default 0.9,
    read by poly alone); either given where no scoring reads it is a
    ValueError that names it."""
    for flag, value, readers in (("--cb", args.cb, ("poly", "exp")), ("--epsilon", args.epsilon, ("poly",))):
        if value is not None and args.scoring not in readers:
            raise ValueError(f"{flag} {value}: given without --scoring {' or '.join(readers)}, which it parameterises")
    return None if args.scoring is None else ScoringFunction(args.scoring, 2.06 if args.cb is None else args.cb,
                                                             0.9 if args.epsilon is None else args.epsilon)


def _cmd_gen(args) -> int:
    for flag, value in (("--bias", args.bias), ("--solution-out", args.solution_out)):
        if value is not None and not args.planted:
            raise ValueError(f"{flag} {value}: given without --planted, which it applies to")
    ratio = args.ratio
    if ratio is None and args.m is None:
        ratio = default_ratio(args.k)
    spec = GenSpec(n=args.n, k=args.k, ratio=ratio, m=args.m, seed=args.seed,
                   bias=1.0 if args.bias is None else args.bias)
    if args.planted:
        formula, hidden = gen_planted(spec)
        _write(args.output, emit_dimacs(formula, comments=[f"planted k-SAT n={args.n} k={args.k} seed={args.seed}"]))
        if args.solution_out:
            _write(args.solution_out, "s SATISFIABLE\n" + format_solution(hidden))
    else:
        formula = gen_uniform(spec)
        _write(args.output, emit_dimacs(formula, comments=[f"uniform k-SAT n={args.n} k={args.k} seed={args.seed}"]))
    return 0


def _cmd_solve_sls(args) -> int:
    scoring = _scoring_from_args(args)
    formula = parse_dimacs(_read(args.file))
    res = probsat_run(formula, args.max_flips, args.seed, scoring, wall_limit=args.wall_seconds)
    print(f"c stats flips={res.flips_used} seconds={res.wall_seconds:.6f} seed={res.seed}")
    if res.solved:
        print("s SATISFIABLE")
        sys.stdout.write(format_solution(res.model))
        return EXIT_SAT
    print("s UNKNOWN")
    return EXIT_UNKNOWN


def _cmd_mine(args) -> int:
    formula = parse_dimacs(_read(args.file))
    cap = _resolve_cap(args.cap, formula.num_clauses)
    budget = MiningBudget(
        wall_seconds=args.seconds,
        conflict_limit=args.conflicts,
        width_limit=args.width,
        count_cap=cap,
        early_stop=args.early_stop,
    )
    outcome = cdcl_solve_and_mine(formula, budget, seed=args.seed)
    exported = filter_learned(outcome.records, cap, args.mode, seed=args.seed)
    lines = [f"c learned {outcome.total_learned_seen} exported {len(exported)}"]
    lines += [" ".join(str(l) for l in clause) + " 0" for clause in exported]
    _write(args.output, "\n".join(lines) + "\n")
    print(f"c miner status={outcome.status} conflicts={outcome.conflicts}", file=sys.stderr)
    return 0


def _cmd_enrich(args) -> int:
    formula = parse_dimacs(_read(args.file))
    cap = _resolve_cap(args.cap, formula.num_clauses)
    if args.mode == "level1":
        pool = level1_resolvents(formula, args.max_width)
        added = sample_pool(pool, cap if cap is not None else len(pool), args.seed)
    elif args.mode == "level2":
        pool = level2_resolvents(formula, args.max_width)
        added = sample_pool(pool, cap if cap is not None else len(pool), args.seed)
    elif args.mode == "ternary":
        derived = sorted(ternary_saturate(formula))
        added = derived if cap is None else derived[:cap]
    else:  # cdcl
        budget = MiningBudget(wall_seconds=args.seconds, conflict_limit=args.conflicts,
                              width_limit=args.max_width, count_cap=cap,
                              early_stop=cap is not None)
        outcome = cdcl_solve_and_mine(formula, budget, seed=args.seed)
        added = outcome.learned
    augmented = augment(formula, added)
    count = augmented.num_clauses - formula.num_clauses
    _write(args.output, emit_dimacs(augmented, comments=[f"added {count}"]))
    return 0


def _cmd_backbone(args) -> int:
    formula = parse_dimacs(_read(args.file))
    backbone = compute_backbone(formula, seed=args.seed, conflict_limit=args.conflict_limit)
    print(f"c backbone size {len(backbone)}")
    print("b " + " ".join(str(l) for l in sorted(backbone, key=abs)) + " 0")
    return 0


def _cmd_inject(args) -> int:
    formula = parse_dimacs(_read(args.file))
    backbone = compute_backbone(formula, seed=args.seed, conflict_limit=args.conflict_limit)
    if args.model == "deceptive":
        clauses = gen_deceptive(backbone, args.count, args.seed)
    else:
        if args.solution:
            solution = parse_solution(_read(args.solution), formula.num_vars)
        else:
            solution = [False] * (formula.num_vars + 1)  # gen_general reads only its length
        clauses = gen_general(solution, backbone, args.count, args.seed)
    out = formula.extended(clauses)
    _write(args.output, emit_dimacs(out, comments=[f"injected {len(clauses)} model={args.model}"]))
    return 0


def _cmd_quality(args) -> int:
    clauses = parse_clause_lines(_read(args.clause_file))
    solution = parse_solution(_read(args.solution))
    report = quality_report(clauses, solution)
    buf = ["clauseId,width,correct,quality"]
    for cid, correct, width, q in report.rows:
        buf.append(f"{cid},{width},{correct},{q:.6f}")
    _write(args.output, "\n".join(buf) + "\n")
    print(f"c mean_quality={report.mean_quality:.6f} mean_correct={report.mean_correct:.6f}",
          file=sys.stderr)
    return 0


def _cmd_solve(args) -> int:
    formula = parse_dimacs(_read(args.file))
    overrides = {name: value for name, value in vars(args).items() if name in OVERRIDABLE}
    result = run_hybrid(
        formula,
        wall_budget=args.budget,
        seed=args.seed,
        strategy=select_strategy(formula, **overrides),
        final_flips=args.final_flips,
    )
    print(f"c result {result.canonical_json()}")
    if result.status == "sat":
        print("s SATISFIABLE")
        sys.stdout.write(format_solution(result.model))
        return EXIT_SAT
    if result.status == "unsat":
        print("s UNSATISFIABLE")
        return EXIT_UNSAT
    print("s UNKNOWN")
    return EXIT_UNKNOWN


def _instance_ids(paths: list[str]) -> list[str]:
    """The id of each instance file: its path relative to the common
    directory of the files' parents, so files in one directory keep their
    bare names and files of one name in two directories differ."""
    root = os.path.commonpath([os.path.dirname(p) for p in paths])
    return [Path(os.path.relpath(p, root)).as_posix() for p in paths]


def _cmd_bench(args) -> int:
    currency = "flips" if args.budget_flips is not None else "seconds"
    timeout = args.timeout
    if timeout is None:
        flag, timeout = (("--budget-flips", args.budget_flips) if currency == "flips"
                         else ("--budget-seconds", args.budget_seconds))
        if timeout is not None and not timeout > 0:  # NaN fails too
            raise ValueError(f"{flag} {timeout}: the PAR2 timeout defaults to this budget and must be positive;"
                             " give a positive budget or --timeout")
    bench_mod._check_cost(currency, timeout)  # before any trial runs
    paths = sorted({os.path.abspath(p) for pattern in args.instances for p in glob.glob(pattern)})
    if not paths:
        print("no instances matched", file=sys.stderr)
        return 1
    instances = [(name, parse_dimacs(_read(p))) for name, p in zip(_instance_ids(paths), paths)]
    try:
        config_data = json.loads(_read(args.solver_config))
    except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
        raise ValueError(f"solver config {args.solver_config}: {exc}") from None
    if isinstance(config_data, dict):
        config_data = [config_data]
    elif not isinstance(config_data, list):
        raise ValueError(f"solver config {args.solver_config}: the top level must be an object or a list of objects")
    solvers = [bench_mod.SolverConfig.from_dict(d) for d in config_data]
    seeds = list(range(args.runs))
    records = bench_mod.run_suite(
        instances, solvers, seeds,
        budget_flips=args.budget_flips,
        budget_seconds=args.budget_seconds,
        workers=args.workers,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trials.csv").write_text(bench_mod.trials_to_csv(records))
    summary = bench_mod.summarize(records, timeout=timeout, currency=currency)
    (out_dir / "summary.csv").write_text(bench_mod.summary_to_csv(summary))
    for config in solvers:
        (out_dir / f"cactus_{config.solver_id}.csv").write_text(
            bench_mod.cactus_to_csv(records, config.solver_id, currency)
        )
    for sid in sorted(summary.per_solver):
        s = summary.per_solver[sid]
        print(f"{sid}: solved {s.solved_count} crashed {s.crashed} score {s.score:.2f}")
    return 0


def _cmd_stats(args) -> int:
    columns = ([], [])
    with open(args.csv_file, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            for name, values in zip((args.column_a, args.column_b), columns):
                try:
                    values.append(float(row[name]))
                except KeyError:
                    print(f"no such column: {name!r}", file=sys.stderr)
                    return 1
                except (TypeError, ValueError):  # TypeError: a short row has no cell
                    print(f"line {reader.line_num}, column {name!r}: {row[name]!r} is not a number", file=sys.stderr)
                    return 1
    tests = {"welch_t": welch_t_test} if args.unpaired else {"t": paired_t_test, "wilcoxon_w": wilcoxon_signed_rank}
    tests["cohens_d"] = lambda a, b: (cohens_d(a, b),)  # each test gives (statistic, p) or (statistic,)
    for name, test in tests.items():
        try:
            print(f"{name}=" + " p=".join(f"{value:.9g}" for value in test(*columns)))
        except DegenerateInputError as exc:
            print(f"{name}=n/a")
            print(f"{name}: {exc}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="satlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random k-SAT instance")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, default=3)
    p.add_argument("--ratio", type=float, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--planted", action="store_true", help="plant a hidden solution")
    p.add_argument("--bias", type=float, default=None,
                   help="planted polarity thinning: accept vectors w.p. bias**correct (default 1)")
    p.add_argument("--solution-out", default=None, help="write the planted solution here")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve-sls", help="plain probSAT-style local search")
    p.add_argument("file")
    p.add_argument("--max-flips", type=int, default=10_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--wall-seconds", type=float, default=None)
    p.add_argument("--scoring", choices=["poly", "exp"], default=None)
    p.add_argument("--cb", type=float, default=None, help="with --scoring (default 2.06)")
    p.add_argument("--epsilon", type=float, default=None, help="with --scoring poly (default 0.9)")
    p.set_defaults(func=_cmd_solve_sls)

    p = sub.add_parser("mine", help="extract learned clauses with CDCL")
    p.add_argument("file")
    p.add_argument("--seconds", type=float, default=MINER_SECONDS_DEFAULT)
    p.add_argument("--conflicts", type=int, default=None)
    p.add_argument("--width", type=int, default=4)
    p.add_argument("--cap", default=None, help="count cap: int, m/10, or X%%")
    p.add_argument("--mode", choices=["chronological", "random"], default="chronological")
    p.add_argument("--early-stop", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("enrich", help="augment a formula with derived clauses")
    p.add_argument("file")
    p.add_argument("--mode", choices=["level1", "level2", "ternary", "cdcl"], required=True)
    p.add_argument("--max-width", type=int, default=4)
    p.add_argument("--cap", default=None, help="count cap: int, m/10, or X%%")
    p.add_argument("--seconds", type=float, default=MINER_SECONDS_DEFAULT)
    p.add_argument("--conflicts", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_enrich)

    p = sub.add_parser("backbone", help="exact backbone of a satisfiable formula")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--conflict-limit", type=int, default=None)
    p.set_defaults(func=_cmd_backbone)

    p = sub.add_parser("inject", help="add synthetic deceptive/general clauses")
    p.add_argument("file")
    p.add_argument("--model", choices=["deceptive", "general"], required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--solution", default=None, help="solution file for the general model")
    p.add_argument("--conflict-limit", type=int, default=None)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_inject)

    p = sub.add_parser("quality", help="clause quality against a fixed solution")
    p.add_argument("clause_file")
    p.add_argument("solution")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_quality)

    p = sub.add_parser("solve", help="hybrid pipeline: SLS, mining, SLS")
    p.add_argument("file")
    p.add_argument("--budget", type=float, default=WALL_BUDGET_DEFAULT)
    p.add_argument("--seed", type=int, default=0)
    # five `Strategy` settings (`pipeline.OVERRIDABLE`) by field name; `early_stop` and `scoring` have no flag
    p.add_argument("--miner-seconds", type=float, default=None, dest="miner_seconds")
    p.add_argument("--miner-conflicts", type=int, default=None, dest="miner_conflict_limit")
    p.add_argument("--width-limit", type=int, default=None, dest="width_limit")
    p.add_argument("--cap-percent", type=float, default=None, dest="count_cap_percent")
    p.add_argument("--initial-flips", type=int, default=None, dest="initial_flips")
    p.add_argument("--final-flips", type=int, default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench", help="run a trial suite and emit CSV artifacts")
    p.add_argument("--instances", nargs="+", required=True, help="instance file globs")
    p.add_argument("--solver-config", required=True, help="JSON solver configuration(s)")
    p.add_argument("--runs", type=int, default=1, help="seeds 0..runs-1 per pair")
    p.add_argument("--budget-flips", type=int, default=None)
    p.add_argument("--budget-seconds", type=float, default=None)
    p.add_argument("--timeout", type=float, default=None, help="PAR2 timeout (defaults to budget)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out-dir", default="bench-out")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("stats", help="paired tests on two CSV columns")
    p.add_argument("csv_file")
    p.add_argument("column_a")
    p.add_argument("column_b")
    p.add_argument("--unpaired", action="store_true", help="Welch instead of paired Student")
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
