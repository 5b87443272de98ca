"""Record the machine and a first per-layer baseline in satbench/baseline.json.

    python3 satbench/baseline.py

Runs every workload untraced and traced with seed 0 and the run length
of BENCHMARK.json, each in a fresh process, then
re-measures the single-run figures quoted in ROADMAP.md ("Recent") in
the way they were quoted, so that the workload figures can be compared
with them.  NOTES.md explains the gaps.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import run

satlab = run.load_satlab()

from satlab import cdcl, cnf, generators, quality, resolution, sls  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 0
SECONDS = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]

# ROADMAP.md "Recent": single run, seed 0, fixed budgets
ROADMAP = {
    "sls.flips_per_s.k3": 123e3,
    "sls.flips_per_s.k5": 45e3,
    "sls.flips_per_s.k7": 13e3,
    "cdcl.conflicts_per_s": 1.8e3,
    "resolution.level2_s.n60": 5.2,
    "quality.backbone_s.n200": 7.2,
    "cnf.parse_clauses_per_s": 84e3 / 0.9,
}


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def reference_points() -> dict:
    """The ROADMAP figures re-measured: uniform threshold instances for
    flip and conflict rates, planted ones for level-2, backbone and parse."""
    out = {}
    for k, n, flips in ((3, 5000, 200_000), (5, 500, 60_000), (7, 150, 20_000)):
        f = generators.gen_uniform(generators.GenSpec(n=n, k=k, ratio=generators.default_ratio(k), seed=0))
        res, seconds = _timed(lambda: sls.probsat_run(f, flips, seed=1 << 40))
        out[f"sls.flips_per_s.k{k}"] = res.flips_used / seconds
    f = generators.gen_uniform(generators.GenSpec(n=250, k=3, ratio=4.267, seed=0))
    solver = cdcl.CdclSolver(f, seed=1 << 40)
    _, seconds = _timed(lambda: solver.solve(conflict_limit=3000))
    out["cdcl.conflicts_per_s"] = solver.conflicts / seconds
    f, _ = generators.gen_planted(generators.GenSpec(n=60, k=3, ratio=4.267, seed=0))
    out["resolution.level2_s.n60"] = _timed(lambda: resolution.level2_resolvents(f, 4))[1]
    f, _ = generators.gen_planted(generators.GenSpec(n=200, k=3, ratio=4.267, seed=0))
    out["quality.backbone_s.n200"] = _timed(lambda: quality.compute_backbone(f, seed=1 << 40))[1]
    f, _ = generators.gen_planted(generators.GenSpec(n=20_000, k=3, ratio=4.2, seed=0))
    text = cnf.emit_dimacs(f)
    parsed, seconds = _timed(lambda: cnf.parse_dimacs(text))
    out["cnf.parse_clauses_per_s"] = parsed.num_clauses / seconds
    return out


def machine() -> dict:
    import cpuinfo

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    env = run.environment(satlab)
    env.update(cpu=cpuinfo.get_cpu_info().get("brand_raw", "unknown"), git_commit=commit)
    return env


def main() -> int:
    record = {"environment": machine(), "seed": SEED, "seconds": SECONDS, "workloads": {}}
    for name in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed",
                            str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)],
                           cwd=run.ROOT, check=True, stdout=subprocess.DEVNULL)
            result = json.loads((run.RESULTS / f"{name}-seed{SEED}-trace{trace}.json").read_text())
            key = "per_layer" if trace else "end_to_end"
            entry[key] = result[key]
            entry[f"digest_trace{trace}"] = result["digest"]
            entry[f"failed_trace{trace}"] = result["failed"]
        # the share of each workload's intended layer in the median traced round
        layers = entry["per_layer"]
        round_s = statistics.median(r["wall_s"] for r in result["traced_rounds"])
        resolution_s = sum(v for k, v in layers.items() if k.startswith("resolution.") and k.endswith("_s"))
        entry["share_of_traced_round"] = {"sls.run_s": layers["sls.run_s"] / round_s,
                                          "cdcl.mine_s": layers["cdcl.mine_s"] / round_s,
                                          "resolution.*_s": resolution_s / round_s}
        record["workloads"][name] = entry
    measured = reference_points()
    record["roadmap"] = {k: {"roadmap": v, "measured": measured[k], "ratio": measured[k] / v}
                         for k, v in ROADMAP.items()}
    (run.HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["roadmap"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
