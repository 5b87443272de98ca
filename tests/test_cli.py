import inspect
import json
import time
from dataclasses import fields

import pytest

from satlab import cli
from satlab.bench import SolverConfig, trials_from_csv
from satlab.cli import EXIT_SAT, EXIT_UNKNOWN, EXIT_UNSAT, main
from satlab.cnf import DimacsError, Formula, emit_dimacs, parse_clause_lines, parse_dimacs, parse_solution
from satlab.pipeline import OVERRIDABLE, run_hybrid, select_strategy
from satlab.quality import BackboneBudgetError, compute_backbone, gen_deceptive, gen_general


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_uniform(tmp_path, capsys):
    out = tmp_path / "u.cnf"
    code, _, _ = run_cli(capsys, "gen", "-n", "30", "-k", "3", "--ratio", "4.0",
                         "--seed", "7", "-o", str(out))
    assert code == 0
    f = parse_dimacs(out.read_text())
    assert f.num_vars == 30
    assert f.num_clauses == 120


def test_gen_planted_with_solution(tmp_path, capsys):
    out = tmp_path / "p.cnf"
    sol = tmp_path / "p.sol"
    code, _, _ = run_cli(capsys, "gen", "-n", "25", "--planted", "--seed", "3",
                         "-o", str(out), "--solution-out", str(sol))
    assert code == 0
    f = parse_dimacs(out.read_text())
    alpha = parse_solution(sol.read_text(), f.num_vars)
    from satlab.cnf import eval_formula

    assert eval_formula(f, alpha)


@pytest.mark.parametrize("flag, value", [("--bias", "0.5"), ("--solution-out", "s.txt")])
def test_gen_rejects_a_planted_flag_without_planted(tmp_path, monkeypatch, flag, value):
    # it used to write a uniform formula and no solution file
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match=f"^{flag} {value}: given without --planted"):
        main(["gen", "-n", "10", flag, value, "-o", "f.cnf"])
    assert list(tmp_path.iterdir()) == []


def test_solve_sls_sat_exit_code(tmp_path, capsys):
    cnf = tmp_path / "x.cnf"
    cnf.write_text("p cnf 2 2\n1 0\n-1 2 0\n")
    code, out, _ = run_cli(capsys, "solve-sls", str(cnf), "--max-flips", "1000", "--seed", "1")
    assert code == EXIT_SAT
    assert "s SATISFIABLE" in out
    assert "c stats flips=" in out
    model_line = [l for l in out.splitlines() if l.startswith("v ")]
    assert model_line
    alpha = parse_solution("\n".join(model_line), 2)
    assert alpha[1] and alpha[2]


def test_solve_sls_unsat_is_unknown(tmp_path, capsys):
    cnf = tmp_path / "x.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    code, out, _ = run_cli(capsys, "solve-sls", str(cnf), "--max-flips", "100", "--seed", "1")
    assert code == EXIT_UNKNOWN
    assert "s UNKNOWN" in out


@pytest.mark.parametrize("flag", ["--cb", "--epsilon"])
def test_solve_sls_rejects_a_scoring_parameter_without_scoring(tmp_path, flag):
    cnf = tmp_path / "x.cnf"
    cnf.write_text("p cnf 2 2\n1 0\n-1 2 0\n")
    with pytest.raises(ValueError, match=f"{flag} 3.0: given without --scoring"):
        main(["solve-sls", str(cnf), "--max-flips", "100", flag, "3"])


def test_solve_sls_rejects_epsilon_with_exp_scoring(tmp_path):
    # exp scoring reads only --cb, so --epsilon used to be ignored silently
    cnf = tmp_path / "x.cnf"
    cnf.write_text("p cnf 2 2\n1 0\n-1 2 0\n")
    with pytest.raises(ValueError, match="--epsilon 0.5: given without --scoring poly"):
        main(["solve-sls", str(cnf), "--max-flips", "100", "--scoring", "exp", "--cb", "3", "--epsilon", "0.5"])


def test_solve_sls_rejects_a_nan_wall_limit(tmp_path):
    cnf = tmp_path / "x.cnf"
    cnf.write_text("p cnf 2 2\n1 0\n-1 2 0\n")
    with pytest.raises(ValueError, match="wall_limit must be a number of seconds, got nan"):
        main(["solve-sls", str(cnf), "--max-flips", "100", "--wall-seconds", "nan"])


def test_solve_sls_scoring_parameters_default_with_scoring(tmp_path, capsys, monkeypatch):
    cnf = tmp_path / "x.cnf"
    cnf.write_text("p cnf 2 2\n1 0\n-1 2 0\n")
    seen = []
    real = cli.probsat_run
    monkeypatch.setattr(cli, "probsat_run", lambda f, flips, seed, scoring, **kw: seen.append(scoring)
                        or real(f, flips, seed, scoring, **kw))
    for extra in ([], ["--cb", "3"], ["--epsilon", "0.5"]):
        assert run_cli(capsys, "solve-sls", str(cnf), "--max-flips", "100", "--scoring", "poly", *extra)[0] == EXIT_SAT
    assert [(s.kind, s.cb, s.epsilon) for s in seen] == [("poly", 2.06, 0.9), ("poly", 3.0, 0.9), ("poly", 2.06, 0.5)]


def test_mine_writes_clause_file(tmp_path, capsys):
    cnf = tmp_path / "m.cnf"
    code, _, _ = run_cli(capsys, "gen", "-n", "40", "--ratio", "5.0", "--seed", "11",
                         "-o", str(cnf))
    out = tmp_path / "mined.txt"
    code, _, err = run_cli(capsys, "mine", str(cnf), "--conflicts", "300",
                           "--seconds", "60", "--width", "4", "--seed", "2",
                           "-o", str(out))
    assert code == 0
    text = out.read_text()
    assert text.startswith("c learned ")
    clauses = parse_clause_lines(text)
    assert all(len(c) <= 4 for c in clauses)


def test_mine_cap_expressions(tmp_path, capsys):
    cnf = tmp_path / "m.cnf"
    run_cli(capsys, "gen", "-n", "40", "--ratio", "5.0", "--seed", "11", "-o", str(cnf))
    out = tmp_path / "mined.txt"
    code, _, _ = run_cli(capsys, "mine", str(cnf), "--conflicts", "300", "--seconds", "60",
                         "--width", "5", "--cap", "m/10", "-o", str(out))
    assert code == 0
    assert len(parse_clause_lines(out.read_text())) <= 200 // 10


def test_enrich_level1(tmp_path, capsys):
    cnf = tmp_path / "e.cnf"
    run_cli(capsys, "gen", "-n", "20", "--ratio", "4.0", "--seed", "5", "-o", str(cnf))
    out = tmp_path / "enriched.cnf"
    code, _, _ = run_cli(capsys, "enrich", str(cnf), "--mode", "level1",
                         "--max-width", "4", "--cap", "m/10", "--seed", "1", "-o", str(out))
    assert code == 0
    base = parse_dimacs(cnf.read_text())
    enriched = parse_dimacs(out.read_text())
    assert enriched.num_clauses <= base.num_clauses + base.num_clauses // 10
    assert "c added" in out.read_text()
    assert frozenset(base.clauses) <= frozenset(enriched.clauses)


def test_enrich_cdcl_percent_cap(tmp_path, capsys):
    cnf = tmp_path / "e.cnf"
    run_cli(capsys, "gen", "-n", "30", "--ratio", "4.5", "--seed", "9", "-o", str(cnf))
    out = tmp_path / "enriched.cnf"
    code, _, _ = run_cli(capsys, "enrich", str(cnf), "--mode", "cdcl", "--max-width", "8",
                         "--cap", "5%", "--conflicts", "500", "--seconds", "60",
                         "--seed", "1", "-o", str(out))
    assert code == 0
    base = parse_dimacs(cnf.read_text())
    enriched = parse_dimacs(out.read_text())
    assert enriched.num_clauses - base.num_clauses <= int(0.05 * base.num_clauses)


def test_enrich_rejects_a_malformed_or_negative_cap(tmp_path, capsys):
    cnf = tmp_path / "t7.cnf"
    run_cli(capsys, "gen", "-n", "7", "--ratio", "4.2", "--seed", "3", "-o", str(cnf))
    out = tmp_path / "enriched.cnf"
    base = parse_dimacs(cnf.read_text())
    for cap in ("-2", "-1%", "foo", "", "2.5", "1e3", "m/5", "x%", "nan%", "inf%", "-inf%"):
        with pytest.raises(ValueError, match=f"--cap '{cap}': expected a count, m/10 or X%"):
            main(["enrich", str(cnf), "--mode", "ternary", f"--cap={cap}", "-o", str(out)])
        assert not out.exists()
    # ternary enrichment derives far more clauses than any of these caps, so each cap is met
    for cap, count in (("2", 2), (" 3 ", 3), ("0", 0), ("m/10", base.num_clauses // 10), ("50%", 14)):
        assert run_cli(capsys, "enrich", str(cnf), "--mode", "ternary", f"--cap={cap}", "-o", str(out))[0] == 0
        assert parse_dimacs(out.read_text()).num_clauses - base.num_clauses == count, cap


def test_backbone_output(tmp_path, capsys):
    cnf = tmp_path / "b.cnf"
    cnf.write_text("p cnf 3 3\n1 0\n-2 0\n1 3 0\n")
    code, out, _ = run_cli(capsys, "backbone", str(cnf))
    assert code == 0
    assert "c backbone size 2" in out
    b_line = [l for l in out.splitlines() if l.startswith("b ")][0]
    assert b_line == "b 1 -2 0"


def test_inject_deceptive_preserves_satisfiability(tmp_path, capsys):
    cnf = tmp_path / "i.cnf"
    run_cli(capsys, "gen", "-n", "20", "--planted", "--seed", "1", "-o", str(cnf),
            "--solution-out", str(tmp_path / "i.sol"))
    out = tmp_path / "inj.cnf"
    code, _, _ = run_cli(capsys, "inject", str(cnf), "--model", "deceptive",
                         "--count", "10", "--seed", "4", "-o", str(out))
    assert code == 0
    enriched = parse_dimacs(out.read_text())
    alpha = parse_solution((tmp_path / "i.sol").read_text(), 20)
    from satlab.cnf import eval_formula

    assert eval_formula(enriched, alpha)


def test_inject_general_with_solution_file(tmp_path, capsys):
    cnf = tmp_path / "i.cnf"
    sol = tmp_path / "i.sol"
    run_cli(capsys, "gen", "-n", "20", "--planted", "--seed", "2", "-o", str(cnf),
            "--solution-out", str(sol))
    out = tmp_path / "inj.cnf"
    code, _, _ = run_cli(capsys, "inject", str(cnf), "--model", "general", "--count", "15",
                         "--solution", str(sol), "--seed", "4", "-o", str(out))
    assert code == 0
    base = parse_dimacs(cnf.read_text())
    enriched = parse_dimacs(out.read_text())
    assert enriched.num_clauses >= base.num_clauses


def test_inject_rejects_a_negative_count(tmp_path, capsys):
    # a negative --count used to write the formula back with "c injected 0"
    cnf, out = tmp_path / "i.cnf", tmp_path / "inj.cnf"
    run_cli(capsys, "gen", "-n", "20", "--ratio", "6", "--seed", "3", "--planted", "-o", str(cnf))
    for model in ("deceptive", "general"):
        with pytest.raises(ValueError, match="t must be an integer >= 0, got -5"):
            main(["inject", str(cnf), "--model", model, "--count", "-5", "-o", str(out)])
        assert not out.exists()


def test_inject_conflict_limit_bounds_the_backbone(tmp_path, capsys):
    # without a limit the backbone of this uniform formula runs past 20 s
    cnf = tmp_path / "u.cnf"
    run_cli(capsys, "gen", "-n", "400", "--ratio", "4.26", "--seed", "5", "-o", str(cnf))
    start = time.perf_counter()
    with pytest.raises(BackboneBudgetError):
        main(["inject", str(cnf), "--model", "general", "--count", "5", "--conflict-limit", "1"])
    assert time.perf_counter() - start < 10


def test_quality_csv(tmp_path, capsys):
    clause_file = tmp_path / "cl.txt"
    clause_file.write_text("1 2 3 0\n-1 -2 0\n")
    sol = tmp_path / "s.sol"
    sol.write_text("v 1 2 3 0\n")
    code, out, err = run_cli(capsys, "quality", str(clause_file), str(sol))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "clauseId,width,correct,quality"
    assert lines[1] == "0,3,3,1.000000"
    assert lines[2] == "1,2,0,0.000000"
    assert "mean_quality=0.5" in err


def test_solve_pipeline_sat(tmp_path, capsys):
    cnf = tmp_path / "s.cnf"
    run_cli(capsys, "gen", "-n", "40", "--planted", "--ratio", "4.2", "--seed", "6",
            "-o", str(cnf))
    code, out, _ = run_cli(capsys, "solve", str(cnf), "--budget", "60", "--seed", "3",
                           "--initial-flips", "200000")
    assert code == EXIT_SAT
    assert "s SATISFIABLE" in out
    result_line = [l for l in out.splitlines() if l.startswith("c result ")][0]
    payload = json.loads(result_line[len("c result "):])
    assert payload["status"] == "sat"
    assert payload["track"] in ("k3", "k5", "k7", "plain-sls", "fallback")


def test_solve_flags_equal_library_call(tmp_path, capsys):
    cnf = tmp_path / "s.cnf"
    run_cli(capsys, "gen", "-n", "150", "--planted", "--ratio", "4.26", "--seed", "4", "-o", str(cnf))
    code, out, _ = run_cli(capsys, "solve", str(cnf), "--seed", "3", "--initial-flips", "100",
                           "--miner-conflicts", "50", "--final-flips", "2000")
    result_line = [l for l in out.splitlines() if l.startswith("c result ")][0]
    f = parse_dimacs(cnf.read_text())
    expected = run_hybrid(f, seed=3, strategy=select_strategy(f, initial_flips=100, miner_conflict_limit=50),
                          final_flips=2000)
    assert result_line[len("c result "):] == expected.canonical_json()
    # every flag binds: the burst, the miner and the final phase all ran
    assert expected.phase_flips["initial-sls"] == 100
    assert expected.phase_conflicts == {"miner": 50}
    assert expected.phase_solved == "final-sls"


@pytest.mark.parametrize("flag, value, name, setting", [
    ("--miner-seconds", "1.5", "miner_seconds", 1.5),
    ("--width-limit", "3", "width_limit", 3),
    ("--cap-percent", "5", "count_cap_percent", 5.0),
    ("--miner-conflicts", "20", "miner_conflict_limit", 20),  # the last of two values binds
])
def test_solve_strategy_flags_equal_library_call(tmp_path, capsys, monkeypatch, flag, value, name, setting):
    cnf = tmp_path / "s.cnf"
    run_cli(capsys, "gen", "-n", "150", "--planted", "--ratio", "4.26", "--seed", "4", "-o", str(cnf))
    resolved = []

    def spy(formula, **overrides):
        resolved.append(select_strategy(formula, **overrides))
        return resolved[-1]

    monkeypatch.setattr(cli, "select_strategy", spy)
    code, out, _ = run_cli(capsys, "solve", str(cnf), "--seed", "3", "--initial-flips", "100",
                           "--miner-conflicts", "50", "--final-flips", "2000", flag, value)
    f = parse_dimacs(cnf.read_text())
    base = {"initial_flips": 100, "miner_conflict_limit": 50}
    strategy = select_strategy(f, **{**base, name: setting})
    assert resolved == [strategy] and strategy != select_strategy(f, **base)
    expected = run_hybrid(f, seed=3, strategy=strategy, final_flips=2000)
    result_line = [l for l in out.splitlines() if l.startswith("c result ")][0]
    assert result_line[len("c result "):] == expected.canonical_json()


def test_every_setting_travels_in_the_one_list():
    # the miner's conflict limit was a `run_hybrid` keyword, a `SolverConfig` field and a
    # `solve` argument of its own; no setting may travel outside `OVERRIDABLE` again
    assert not set(OVERRIDABLE) & set(inspect.signature(run_hybrid).parameters)
    assert not set(OVERRIDABLE) & {f.name for f in fields(SolverConfig)}
    dests = set(vars(cli.build_parser().parse_args(["solve", "x.cnf"])))
    assert dests - set(OVERRIDABLE) == {"file", "budget", "seed", "final_flips", "func", "command"}


# every command that reads a DIMACS file, with its required arguments besides the file;
# each parses the file before it does any work
DIMACS_COMMANDS = {
    "solve-sls": [],
    "mine": [],
    "enrich": ["--mode", "level1"],
    "backbone": [],
    "inject": ["--model", "deceptive", "--count", "1"],
    "solve": [],
    "bench": [],
}


@pytest.mark.parametrize("command", sorted(DIMACS_COMMANDS))
def test_non_utf8_dimacs_is_a_dimacs_error_naming_the_line(tmp_path, command):
    cnf = tmp_path / "bad.cnf"
    cnf.write_bytes(b"p cnf 1 1\n\xff 0\n")
    config = tmp_path / "solvers.json"
    config.write_text(json.dumps({"id": "probsat"}))
    argv = (["bench", "--instances", str(cnf), "--solver-config", str(config)] if command == "bench"
            else [command, str(cnf), *DIMACS_COMMANDS[command]])
    with pytest.raises(DimacsError, match="line 2: non-ASCII byte 0xff"):
        main(argv)


def test_utf8_comment_still_solves(tmp_path, capsys):
    cnf = tmp_path / "utf8.cnf"
    cnf.write_bytes("c r\u00e9solution\np cnf 2 2\n1 0\n-1 2 0\n".encode())
    for argv in (["solve-sls", str(cnf), "--max-flips", "100"], ["solve", str(cnf), "--final-flips", "100"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_SAT and "s SATISFIABLE" in out


def planted_files(tmp_path, capsys, seed):
    cnf, sol = tmp_path / "i.cnf", tmp_path / "i.sol"
    run_cli(capsys, "gen", "-n", "20", "--planted", "--seed", str(seed), "-o", str(cnf),
            "--solution-out", str(sol))
    return cnf, sol


def test_quality_reads_non_utf8_files_as_a_dimacs_error(tmp_path, capsys):
    good_clauses, good_sol = tmp_path / "cl.txt", tmp_path / "s.sol"
    good_clauses.write_bytes("c r\u00e9sum\u00e9\n1 2 3 0\n".encode())  # a UTF-8 comment still parses
    good_sol.write_bytes("c \u00e9\nv 1 2 3 0\n".encode())
    code, out, _ = run_cli(capsys, "quality", str(good_clauses), str(good_sol))
    assert code == 0 and out.splitlines()[1] == "0,3,3,1.000000"
    bad_clauses, bad_sol = tmp_path / "bad.txt", tmp_path / "bad.sol"
    bad_clauses.write_bytes(b"1 2 \xff 0\n")
    bad_sol.write_bytes(b"v 1 2 3 0\nv \xff\n")
    with pytest.raises(DimacsError, match="line 1: non-ASCII byte 0xff"):
        main(["quality", str(bad_clauses), str(good_sol)])
    with pytest.raises(DimacsError, match="line 2: non-ASCII byte 0xff"):
        main(["quality", str(good_clauses), str(bad_sol)])


def test_inject_reads_a_non_utf8_solution_as_a_dimacs_error(tmp_path, capsys):
    cnf, _ = planted_files(tmp_path, capsys, 2)
    bad_sol = tmp_path / "bad.sol"
    bad_sol.write_bytes(b"v 1 \xff 0\n")
    with pytest.raises(DimacsError, match="line 1: non-ASCII byte 0xff"):
        main(["inject", str(cnf), "--model", "general", "--count", "3", "--solution", str(bad_sol)])


def test_bench_names_a_solver_config_that_is_not_utf8(tmp_path, capsys):
    cnf, _ = planted_files(tmp_path, capsys, 2)
    config = tmp_path / "solvers.json"
    config.write_bytes(b'{"id": "\xff"}')
    with pytest.raises(ValueError, match=f"solver config {config}: .*utf-8"):
        main(["bench", "--instances", str(cnf), "--solver-config", str(config)])
    config.write_text("{")
    with pytest.raises(ValueError, match=f"solver config {config}: Expecting property name"):
        main(["bench", "--instances", str(cnf), "--solver-config", str(config)])


def test_bench_rejects_a_solver_config_that_is_not_an_object(tmp_path, capsys):
    cnf, _ = planted_files(tmp_path, capsys, 2)
    config = tmp_path / "solvers.json"
    config.write_text("5")
    with pytest.raises(ValueError, match=f"solver config {config}: the top level must be an object or a list"):
        main(["bench", "--instances", str(cnf), "--solver-config", str(config)])
    config.write_text('[["id"]]')
    with pytest.raises(ValueError, match="a solver config must be a JSON object"):
        main(["bench", "--instances", str(cnf), "--solver-config", str(config)])


@pytest.mark.parametrize("model", ["deceptive", "general"])
def test_inject_output_equals_a_rebuilt_formula(tmp_path, capsys, model):
    cnf, sol = planted_files(tmp_path, capsys, 1)
    out = tmp_path / "inj.cnf"
    extra = ["--solution", str(sol)] if model == "general" else []
    code, _, _ = run_cli(capsys, "inject", str(cnf), "--model", model, "--count", "12", "--seed", "4",
                         "-o", str(out), *extra)
    assert code == 0
    formula = parse_dimacs(cnf.read_text())
    backbone = compute_backbone(formula, seed=4)
    if model == "deceptive":
        clauses = gen_deceptive(backbone, 12, 4)
    else:
        clauses = gen_general(parse_solution(sol.read_text(), 20), backbone, 12, 4)
    assert clauses
    rebuilt = Formula(formula.num_vars, list(formula.clauses) + clauses)
    assert out.read_bytes() == emit_dimacs(rebuilt, [f"injected {len(clauses)} model={model}"]).encode()


def test_solve_pipeline_unsat(tmp_path, capsys):
    # over-constrained 3-SAT on the width-3 track so the miner can refute it
    from satlab.generators import GenSpec, gen_uniform

    cnf = tmp_path / "u.cnf"
    cnf.write_text(emit_dimacs(gen_uniform(GenSpec(n=10, k=3, m=80, seed=5))))
    code, out, _ = run_cli(capsys, "solve", str(cnf), "--budget", "30", "--seed", "0",
                           "--initial-flips", "100")
    assert code == EXIT_UNSAT
    assert "s UNSATISFIABLE" in out


def test_bench_outputs(tmp_path, capsys):
    for i in range(2):
        run_cli(capsys, "gen", "-n", "25", "--planted", "--ratio", "4.0", "--seed", str(i),
                "-o", str(tmp_path / f"inst{i}.cnf"))
    config = tmp_path / "solvers.json"
    config.write_text(json.dumps([
        {"id": "probsat"},
        {"id": "hybrid", "algorithm": "hybrid", "miner_conflict_limit": 50, "initial_flips": 100},
    ]))
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "bench",
                           "--instances", str(tmp_path / "inst*.cnf"),
                           "--solver-config", str(config),
                           "--runs", "2", "--budget-flips", "200000",
                           "--workers", "2", "--out-dir", str(out_dir))
    assert code == 0
    assert (out_dir / "trials.csv").exists()
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "cactus_probsat.csv").exists()
    assert (out_dir / "cactus_hybrid.csv").exists()
    trials = (out_dir / "trials.csv").read_text().strip().splitlines()
    assert len(trials) == 1 + 2 * 2 * 2  # header + instances x solvers x seeds
    assert "probsat: solved" in out


def test_bench_rejects_trials_that_share_a_key(tmp_path, capsys):
    # two files named x.cnf are two instances, keyed by their paths below the common directory
    for name in ("d1", "d2"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "x.cnf").write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    config = tmp_path / "solvers.json"
    config.write_text(json.dumps({"id": "s"}))
    both = tmp_path / "both"
    args = ["bench", "--solver-config", str(config), "--budget-flips", "100"]
    code, _, _ = run_cli(capsys, *args, "--out-dir", str(both),
                         "--instances", str(tmp_path / "d1" / "*.cnf"), str(tmp_path / "d2" / "*.cnf"))
    assert code == 0
    trials = trials_from_csv((both / "trials.csv").read_text())
    assert sorted(r.instance_id for r in trials) == ["d1/x.cnf", "d2/x.cnf"]
    # --runs 0 used to write empty CSVs
    out_dir = tmp_path / "out"
    with pytest.raises(ValueError, match="one seed"):
        main([*args, "--out-dir", str(out_dir), "--instances", str(tmp_path / "d1" / "*.cnf"), "--runs", "0"])
    assert not out_dir.exists()


@pytest.mark.parametrize("timeout", ["0", "-1", "nan"])
def test_bench_rejects_a_timeout_that_is_not_positive_before_any_trial(tmp_path, timeout, monkeypatch):
    # it used to run every trial and write trials.csv before `summarize` raised
    cnf = tmp_path / "x.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    config = tmp_path / "solvers.json"
    config.write_text(json.dumps({"id": "probsat"}))
    out_dir = tmp_path / "out"
    monkeypatch.setattr(cli.bench_mod, "run_suite", lambda *a, **k: pytest.fail("a trial ran"))
    with pytest.raises(ValueError, match="timeout must be positive"):
        main(["bench", "--instances", str(cnf), "--solver-config", str(config), "--budget-flips", "100",
              "--timeout", timeout, "--out-dir", str(out_dir)])
    assert not out_dir.exists()


@pytest.mark.parametrize("flag,budget,shown", [("--budget-flips", "0", "0"), ("--budget-seconds", "0", "0.0"),
                                               ("--budget-seconds", "-1", "-1.0"), ("--budget-seconds", "nan", "nan")])
def test_bench_names_the_budget_that_sets_a_timeout_that_is_not_positive(tmp_path, flag, budget, shown, monkeypatch):
    # without --timeout the timeout is the budget; the error used to say
    # "timeout must be positive", naming a flag that was not given
    cnf = tmp_path / "x.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    config = tmp_path / "solvers.json"
    config.write_text(json.dumps({"id": "probsat"}))
    out_dir = tmp_path / "out"
    monkeypatch.setattr(cli.bench_mod, "run_suite", lambda *a, **k: pytest.fail("a trial ran"))
    args = ["bench", "--instances", str(cnf), "--solver-config", str(config), flag, budget, "--out-dir", str(out_dir)]
    with pytest.raises(ValueError, match=f"^{flag} {shown}: the PAR2 timeout defaults to this budget"):
        main(args)
    with pytest.raises(ValueError, match="^timeout must be positive$"):  # a --timeout given is named as before
        main([*args, "--timeout", "0"])
    assert not out_dir.exists()


def test_bench_without_a_budget_is_an_error(tmp_path, capsys):
    # it used to run every trial unbounded and then crash in `summarize` on a None timeout
    cnf = tmp_path / "x.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    config = tmp_path / "solvers.json"
    config.write_text(json.dumps({"id": "probsat"}))
    out_dir = tmp_path / "out"
    with pytest.raises(ValueError, match="wall-clock budget, a flip budget or both"):
        main(["bench", "--instances", str(cnf), "--solver-config", str(config), "--out-dir", str(out_dir)])
    assert not out_dir.exists()


def test_solve_on_the_fallback_track_prints_the_model_of_solve_sls(tmp_path, capsys):
    cnf = tmp_path / "k4.cnf"
    run_cli(capsys, "gen", "-n", "60", "-k", "4", "--planted", "--ratio", "9.0", "--seed", "3", "-o", str(cnf))
    code, out, _ = run_cli(capsys, "solve", str(cnf), "--final-flips", "100000", "--seed", "5")
    assert code == EXIT_SAT
    assert json.loads(out.splitlines()[0][len("c result "):])["track"] == "fallback"
    code_sls, out_sls, _ = run_cli(capsys, "solve-sls", str(cnf), "--max-flips", "100000", "--seed", "5")
    assert code_sls == EXIT_SAT
    model = [line for line in out.splitlines() if line.startswith("v ")]
    assert model and model == [line for line in out_sls.splitlines() if line.startswith("v ")]


def test_stats_command(tmp_path, capsys):
    csv_file = tmp_path / "d.csv"
    csv_file.write_text("a,b\n1.1,1.0\n2.0,2.1\n3.2,3.0\n4.1,4.0\n5.3,5.0\n")
    code, out, _ = run_cli(capsys, "stats", str(csv_file), "a", "b")
    assert code == 0
    assert "t=1.80906807" in out
    assert "wilcoxon_w=12.5" in out
    assert "cohens_d=" in out


def test_stats_bad_column(tmp_path, capsys):
    csv_file = tmp_path / "d.csv"
    csv_file.write_text("a,b\n1,2\n")
    code, _, err = run_cli(capsys, "stats", str(csv_file), "a", "zz")
    assert code == 1
    assert "no such column" in err


def test_stats_prints_every_statistic_that_exists(tmp_path, capsys):
    # a constant nonzero difference has no t statistic; the t-test's error used to end the command
    csv_file = tmp_path / "d.csv"
    csv_file.write_text("a,b\n1,2\n2,3\n3,4\n")
    code, out, err = run_cli(capsys, "stats", str(csv_file), "a", "b")
    assert code == 0
    assert out.splitlines() == ["t=n/a", "wilcoxon_w=0 p=0.25", "cohens_d=-1"]
    assert err == "t: differences are constant and nonzero (zero variance)\n"
    csv_file.write_text("a,b\n1,2\n")
    code, out, err = run_cli(capsys, "stats", str(csv_file), "a", "b", "--unpaired")
    assert (code, out.splitlines()) == (0, ["welch_t=n/a", "cohens_d=n/a"])
    assert err.splitlines() == ["welch_t: Welch t-test needs at least 2 observations per sample",
                                "cohens_d: Cohen's d needs at least 2 observations per sample"]


def test_stats_names_a_cell_that_is_not_a_number(tmp_path, capsys):
    csv_file = tmp_path / "d.csv"
    csv_file.write_text("a,b\n1,2\nx,3\n")
    code, out, err = run_cli(capsys, "stats", str(csv_file), "a", "b")
    assert (code, out) == (1, "")
    assert err == "line 3, column 'a': 'x' is not a number\n"
    csv_file.write_text("a,b\n1,2\n3\n")  # a short row has no cell for b
    code, out, err = run_cli(capsys, "stats", str(csv_file), "a", "b")
    assert (code, out) == (1, "")
    assert err == "line 3, column 'b': None is not a number\n"
