"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report.  The experiment criteria (1-3) replicate the qualitative
clause-quality effects at desk scale on deceptively planted instances;
the rest are exact property checks against brute-force oracles and
frozen reference values.
"""

import random
import statistics

import pytest

import oracles
from satlab.bench import SolverConfig, default_flip_timeout, par2, run_suite, TrialRecord
from satlab.cdcl import SAT, UNSAT, MiningBudget, cdcl_solve_and_mine
from satlab.cnf import Formula
from satlab.generators import GenSpec, gen_planted, gen_uniform
from satlab.pipeline import augment, run_hybrid, select_strategy
from satlab.quality import compute_backbone, gen_deceptive, gen_general, quality_report
from satlab.resolution import level1_resolvents, level2_resolvents, sample_pool, ternary_saturate
from satlab.sls import ScoringFunction, SlsState, probsat_run
from satlab.stats import cohens_d, paired_t_test, wilcoxon_signed_rank
from test_stats import REFERENCE


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _spearman_rho(xs, ys) -> float:
    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        r = [0.0] * len(vals)
        for pos, idx in enumerate(order, start=1):
            r[idx] = float(pos)
        return r

    rx, ry = ranks(xs), ranks(ys)
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = (sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)) ** 0.5
    return num / den


def test_criterion_01_general_clauses_speed_up_local_search():
    # hard deceptively-planted instance, 100 paired runs with/without 200
    # general-model clauses; expect >= 10x lower mean flips and Wilcoxon
    # p < 0.05
    f, hidden = gen_planted(GenSpec(n=100, k=3, m=420, seed=9, bias=0.618))
    backbone = compute_backbone(f)
    enriched = augment(f, gen_general(hidden, backbone, 200, seed=7))
    # solver seeds avoid the instance seed: gen_planted and probsat_run draw
    # the same first n booleans, so seed 9 would start on the hidden model
    base = [probsat_run(f, 3_000_000, seed=s).flips_used for s in range(1000, 1100)]
    fast = [probsat_run(enriched, 3_000_000, seed=s).flips_used for s in range(1000, 1100)]
    mean_base = statistics.mean(base)
    mean_fast = statistics.mean(fast)
    _, p = wilcoxon_signed_rank([float(x) for x in base], [float(x) for x in fast])
    ok = mean_base >= 10 * mean_fast and p < 0.05
    _report(1, "general-model speedup", ok,
            f"mean {mean_base:.0f} -> {mean_fast:.0f} ({mean_base / mean_fast:.1f}x), wilcoxon p={p:.2e}")


def test_criterion_02_deceptive_clauses_slow_down_local_search():
    # sweep {0,10,20,40,80} deceptive clauses on a planted n=100, m=423
    # instance: mean flips at 80 added >= 10x baseline, trend rank-monotone
    counts = (0, 10, 20, 40, 80)
    f, _ = gen_planted(GenSpec(n=100, k=3, m=423, seed=6, bias=0.618))
    backbone = compute_backbone(f)
    means = []
    for t in counts:
        g = augment(f, gen_deceptive(backbone, t, seed=9)) if t else f
        # solver seeds avoid the instance seed 6 (see criterion 1)
        flips = [probsat_run(g, 500_000, seed=s).flips_used for s in range(1000, 1050)]
        means.append(statistics.mean(flips))
    rho = _spearman_rho(list(counts), means)
    ok = means[-1] >= 10 * means[0] and rho > 0.9
    _report(2, "deceptive-model slowdown", ok,
            f"means {[int(m) for m in means]}, ratio {means[-1] / means[0]:.1f}x, spearman rho={rho:.3f}")


def test_criterion_03_level2_resolvents_beat_level1_quality():
    q1s, q2s = [], []
    seed = 0
    while len(q1s) < 30 and seed < 60:
        f, hidden = gen_planted(GenSpec(n=60, k=3, ratio=4.267, seed=seed, bias=1.0))
        seed += 1
        l1 = level1_resolvents(f, 4)
        l2 = level2_resolvents(f, 4)
        if not l1.clauses or not l2.clauses:
            continue
        q1s.append(quality_report(sorted(l1.clauses), hidden).mean_quality)
        q2s.append(quality_report(sorted(l2.clauses), hidden).mean_quality)
    t, p = paired_t_test(q2s, q1s)
    ok = len(q1s) >= 30 and statistics.mean(q2s) > statistics.mean(q1s) and t > 0 and p < 0.05
    _report(3, "clause-quality ordering level2 > level1", ok,
            f"{len(q1s)} instances, mean l1={statistics.mean(q1s):.4f} l2={statistics.mean(q2s):.4f}, "
            f"paired t p={p:.2e}")


def test_criterion_04_learned_clause_soundness_and_verdicts():
    rng = random.Random(204)
    checked_clauses = 0
    for i in range(100):
        n = rng.randrange(10, 15)
        ratio = rng.choice([3.0, 4.3, 5.5, 7.0])
        f = gen_uniform(GenSpec(n=n, k=3, m=int(ratio * n), seed=40_000 + i))
        out = cdcl_solve_and_mine(f, MiningBudget(wall_seconds=60, width_limit=30), seed=i)
        expected_sat = oracles.is_satisfiable(f.num_vars, f.clauses)
        assert out.status == (SAT if expected_sat else UNSAT), f"verdict mismatch on instance {i}"
        implied = oracles.implied_checker(f.num_vars, f.clauses)
        for record in out.records:
            assert implied(record.clause), f"unsound learned clause on instance {i}"
            checked_clauses += 1
    _report(4, "learned-clause soundness", True,
            f"100 instances, {checked_clauses} learned clauses implied, verdicts exact")


def test_criterion_05_every_enrichment_path_preserves_solutions():
    usable = 0
    for seed in range(12):
        f, hidden = gen_planted(GenSpec(n=12, k=3, ratio=4.2, seed=seed))
        sols = set(oracles.solution_masks(f.num_vars, f.clauses).tolist())

        additions = {
            "level1": sample_pool(level1_resolvents(f, 4), 15, seed=seed),
            "level2": sample_pool(level2_resolvents(f, 4), 15, seed=seed),
            "ternary": sorted(ternary_saturate(f)),
            "cdcl": cdcl_solve_and_mine(
                f, MiningBudget(wall_seconds=30, width_limit=4), seed=seed
            ).learned,
        }
        backbone = compute_backbone(f)
        if len(backbone) >= 3:
            additions["deceptive"] = gen_deceptive(backbone, 10, seed=seed)
            additions["general"] = gen_general(hidden, backbone, 10, seed=seed)
            usable += 1
        for path, clauses in additions.items():
            g = augment(f, clauses)
            after = set(oracles.solution_masks(g.num_vars, g.clauses).tolist())
            assert after == sols, f"solution set changed via {path} on seed {seed}"
    assert usable >= 5
    _report(5, "equivalence preservation across enrichment paths", True,
            f"12 instances, all paths, {usable} with deceptive/general models")


def test_criterion_06_incremental_state_matches_scratch_recount():
    rng = random.Random(607)
    for i in range(20):
        f = gen_uniform(GenSpec(n=50, k=3, ratio=4.25, seed=60_000 + i))
        state = SlsState(f, seed=i)
        for _ in range(10_000):
            state.flip(rng.randrange(1, f.num_vars + 1))
        breaks, falsified = oracles.scratch_break_counts(f.num_vars, f.clauses, state.assign)
        assert state.breaks == breaks, f"break counts diverged on instance {i}"
        assert set(state.falsified) == falsified, f"registry diverged on instance {i}"
    _report(6, "incremental state equals scratch recomputation", True,
            "20 instances x 10^4 flips, bit-exact")


def test_criterion_07_flip_distribution_correctness():
    rng = random.Random(77)
    checked = 0
    for kind, scoring in (
        ("poly", ScoringFunction("poly", cb=2.06, epsilon=0.9)),
        ("exp", ScoringFunction("exp", cb=3.7)),
    ):
        states = 0
        trial = 0
        while states < 1000:
            f = gen_uniform(GenSpec(n=25, k=3, ratio=4.4, seed=70_000 + trial))
            state = SlsState(f, seed=trial, scoring=scoring)
            trial += 1
            for _ in range(40):
                state.flip(rng.randrange(1, 26))
                if not state.falsified:
                    continue
                cid = state.falsified[rng.randrange(len(state.falsified))]
                dist = state.flip_distribution(cid)
                assert abs(sum(dist) - 1.0) <= 1e-9
                raw = [scoring.value(state.breaks[abs(l)]) for l in f.clauses[cid]]
                total = sum(raw)
                for p_val, w in zip(dist, raw):
                    assert abs(p_val - w / total) <= 1e-9 * max(1.0, p_val)
                states += 1
                checked += 1
                if states >= 1000:
                    break
    _report(7, "flip-distribution normalization and proportionality", True,
            f"{checked} random falsified-clause states, both scoring kinds")


def test_criterion_08_strategy_dispatch_table():
    expected = {}
    for n in (8999, 9000, 9001):
        for width in (3, 4, 5, 6, 7, 8):
            if n > 9000:
                expected[(n, width)] = ("plain-sls", None, None, None, None)
            elif width == 3:
                expected[(n, width)] = ("k3", 35_000_000, 4, None, False)
            elif width == 5:
                expected[(n, width)] = ("k5", 15_000_000, 8, 5.0, True)
            elif width == 7:
                expected[(n, width)] = ("k7", 6_000_000, 9, 1.0, True)
            else:
                expected[(n, width)] = ("fallback", None, None, None, None)
    for (n, width), (track, flips, w_limit, cap, early) in expected.items():
        strat = select_strategy(Formula(n, [tuple(range(1, width + 1))]))
        assert strat.track == track, f"track mismatch at n={n} width={width}"
        if flips is not None:
            assert strat.initial_flips == flips
            assert strat.width_limit == w_limit
            assert strat.count_cap_percent == cap
            assert strat.early_stop == early
            assert strat.miner_seconds == 300.0
    _report(8, "strategy dispatch boundary table", True,
            "n in {8999,9000,9001} x width in {3..8}, all 18 cells exact")


def test_criterion_09_par2_arithmetic_and_flip_timeouts():
    solved = TrialRecord("i", "s", 0, True, 12_345, 1.5)
    unsolved = TrialRecord("i", "s", 1, False, 0, 0.0)
    instant = TrialRecord("i", "s", 2, True, 0, 0.0)
    assert par2(solved, timeout=10**9, currency="flips") == 12_345
    assert par2(unsolved, timeout=10**9, currency="flips") == 2 * 10**9
    assert par2(instant, timeout=5000, currency="seconds") == 0.0
    assert default_flip_timeout(3) == 10**9
    assert default_flip_timeout(5) == 5 * 10**8
    assert default_flip_timeout(7) == 25 * 10**7
    _report(9, "PAR2 arithmetic and per-width flip timeouts", True,
            "hand fixtures exact, timeouts 1e9/5e8/2.5e8")


def test_criterion_10_statistics_match_frozen_references():
    worst_t = worst_d = worst_w = 0.0
    for name, (a, b, t_ref, tp_ref, d_ref, w_ref, wp_ref) in sorted(REFERENCE.items()):
        t, tp = paired_t_test(a, b)
        w, wp = wilcoxon_signed_rank(a, b)
        d = cohens_d(a, b)
        worst_t = max(worst_t, abs(t - t_ref), abs(tp - tp_ref))
        worst_d = max(worst_d, abs(d - d_ref))
        worst_w = max(worst_w, abs(wp - wp_ref))
        assert abs(t - t_ref) < 1e-6 and abs(tp - tp_ref) < 1e-6, name
        assert abs(d - d_ref) < 1e-6, name
        assert w == pytest.approx(w_ref) and abs(wp - wp_ref) < 1e-4, name
    assert paired_t_test([1.0, 2.0], [1.0, 2.0]) == (0.0, 1.0)
    with pytest.raises(Exception):
        paired_t_test([1, 2, 3], [2, 3, 4])
    with pytest.raises(Exception):
        wilcoxon_signed_rank([1.0], [1.0])
    _report(10, "statistics vs independent reference values", True,
            f"{len(REFERENCE)} vectors, max |err|: t/p {worst_t:.1e}, d {worst_d:.1e}, "
            f"wilcoxon p {worst_w:.1e}")


def test_criterion_11_end_to_end_determinism():
    f, _ = gen_planted(GenSpec(n=60, k=3, ratio=4.25, seed=87))
    strategy = select_strategy(f, initial_flips=2_000, miner_conflict_limit=150)
    kwargs = dict(wall_budget=3600, seed=5, strategy=strategy, final_flips=400_000)
    first = run_hybrid(f, **kwargs).canonical_json()
    second = run_hybrid(f, **kwargs).canonical_json()
    assert first == second
    instances = [(f"p{k}", gen_planted(GenSpec(n=30, k=3, ratio=4.2, seed=k))[0]) for k in range(4)]
    solvers = [SolverConfig("sls"),
               SolverConfig("hyb", algorithm="hybrid", initial_flips=100, miner_conflict_limit=50)]
    serial = run_suite(instances, solvers, seeds=[0, 1], budget_flips=300_000, workers=1)
    parallel = run_suite(instances, solvers, seeds=[0, 1], budget_flips=300_000, workers=3)
    assert [r.key() for r in serial] == [r.key() for r in parallel]
    _report(11, "byte-for-byte determinism", True,
            "pipeline canonical bytes equal across runs; harness equal across worker counts")
