"""Run one satlab benchmark workload and print its metrics.

    python3 satbench/run.py --workload sls-par2 --seed 1 --seconds 40 --trace 0

Run it from the repository root; it imports `satlab` from `src/` and
fails (exit 1, no result line) when that tree is missing.  A run sets up
its instances three times, then repeats one round of fixed work until
`--seconds`, counted from the start of set-up, would be exceeded, at
least twice; between rounds it sets up again while set-up has taken
less than a tenth of the run (the median set-up time is `setup_s`).
Every round's outputs are checked and hashed; the hash must not change
between rounds.  A round's times are taken per unit (a trial or another
piece of work) and each unit's time is its fastest over the rounds, see
`best_of`.  With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` rounds alternate untraced/traced, and the metrics are the
per-layer ones from the traced rounds and set-ups plus the
traced/untraced wall-time gap.  Units are
read from `BENCHMARK.json`.  The last stdout line is the JSON result;
the whole record, spans included, is written to
`satbench/results/<workload>-seed<seed>-trace<trace>.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

import spans
from checks import Checker, call_outputs, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

MIN_SETUPS, MIN_ROUNDS = 3, 2
# the fastest `_probe` time on the baseline machine (2-vCPU Xeon guest);
# end-to-end times are scaled to it, see `run_workload`
REFERENCE_PROBE_S = 2.0e-4
SETUP_SHARE = 0.1  # later set-ups run between rounds while they took less of the run than this


def load_satlab():
    src = ROOT / "src"
    if not (src / "satlab" / "__init__.py").is_file():
        raise SystemExit(f"satbench: no satlab sources under {src}")
    sys.path.insert(0, str(src))
    import satlab

    if Path(satlab.__file__).resolve().parent != src / "satlab":
        raise SystemExit(f"satbench: imported satlab from {satlab.__file__}, not from {src}")
    return satlab


def environment(satlab) -> dict:
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "satlab": satlab.__version__,
    }


def _probe() -> float:
    """Time a short fixed pure-Python loop that does not touch satlab."""
    t0 = time.perf_counter()
    x = 0
    for i in range(3000):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - t0


def pick_cpu(cpus: list[int]) -> float:
    """Pin the process to whichever allowed CPU runs a probe loop fastest
    now, and return that CPU's probe time.

    The probes take about 1 ms per CPU.  On a shared host a CPU slows
    down while a neighbour loads it; choosing before every timed unit
    keeps the unit on the less loaded CPU when the two differ.
    """
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_probe() for _ in range(3))
    fastest = min(speed, key=speed.get)
    os.sched_setaffinity(0, {fastest})
    return speed[fastest]


@contextlib.contextmanager
def collector_off():
    """Collect garbage, then keep the cyclic garbage collector off for the
    block, as `timeit` does while it times.

    A collection starts whenever allocations pass a threshold, wherever
    that falls, and a full one scans every live object (tens of
    milliseconds with the larger instances loaded).  In two back-to-back
    20 s samples on the baseline machine, one fixed 4k-flip probSAT run
    on k=3 n=5000 read 51-205 ms (IQR/median 0.52) with it on and
    50-128 ms (0.29) with it off.  Cyclic garbage made in a set-up or a
    round is freed at the next collection; memory that only a cycle
    holds still counts in `peak_rss_mb`.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def best_of(rounds) -> tuple[list[float], float]:
    """Per-unit fastest times over rounds of the same work, and their sum.

    `rounds` holds one `(wall, units)` pair per round, with the units in
    the same order every round, and `wall` without the time spent
    choosing CPUs.  On a shared host a CPU switches between two speeds
    about 1.75x apart, for stretches of 0.1 s to minutes; a unit of
    under a second usually runs at the fast speed in at least one of
    several rounds, while a round's total mixes both.  The time outside
    the units counts with its own fastest value.
    """
    best = [min(column) for column in zip(*(units for _, units in rounds))]
    rest = min(wall - sum(units) for wall, units in rounds)
    return best, sum(best) + rest


def run_workload(satlab, workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run rounds, check and measure one workload; returns the full record.

    The round times are scaled by `REFERENCE_PROBE_S` over the fastest
    probe time of the run.  Best-of timing removes the slow stretches of
    a run that also has fast ones; the scale removes the stretches of a
    minute or more in which both CPUs stay slow for a whole run.  It is
    1 when the host runs at the baseline machine's fast speed, and the
    unscaled values are kept in the record.  A set-up time is the sum of
    its instances' times, each scaled by the probe taken just before
    that instance, because `setup_s` is a median, not a best-of: an
    instance's set-up of a few milliseconds runs at one speed, and the
    median of unscaled times would jump between the two speeds.
    """
    cpus = sorted(os.sched_getaffinity(0))
    tracer = spans.Tracer(lambda: pick_cpu(cpus))
    checker = Checker()
    clock = time.perf_counter
    started = clock()
    tracer.install(satlab)
    setup_s, setup_totals, setup_digests = [], [], []
    instances, hidden = None, {}

    def set_up():
        """Set up once, timed; rounds use the newest instances."""
        nonlocal instances, hidden
        instances = None  # freed first, so peak memory does not grow with the number of set-ups
        tracer.recording = trace
        with collector_off():
            made, generated, times = workload.setup(seed, tracer.pace)
        setup_s.append(sum(t * REFERENCE_PROBE_S / probe for t, probe in times))
        tracer.recording = False
        setup_totals.append(spans.totals(tracer.take_spans()))
        setup_digests.append(digest([[i.iid, i.formula.clauses, i.hidden] for i in made]))
        for inst, clauses in zip(made, generated):
            checker.expect(inst.formula.clauses == clauses, f"{inst.iid}: DIMACS round trip changed clauses")
            checker.sound(inst.formula.clauses, inst.hidden, f"{inst.iid}: planted formula")
        instances, hidden = made, {id(i.formula): i.hidden for i in made}

    try:
        # later set-ups are spread over the run, so that `setup_s` does not
        # rest on one moment
        while len(setup_s) < MIN_SETUPS:
            set_up()
        setup_spent = clock() - started  # with the collections and CPU choices around set-ups

        rounds, traced_units, round_totals, traced_rounds = [], [], [], []
        digests, solved_frac, par2_flips = [], None, None
        while True:
            while setup_spent < SETUP_SHARE * (clock() - started):
                t0 = clock()
                set_up()
                setup_spent += clock() - t0
            traced = trace and len(digests) % 2 == 1
            tracer.take_calls()
            tracer.take_pace()
            tracer.recording = traced
            with collector_off():
                t0 = clock()
                out = workload.run(instances, seed, tracer.pace)
                elapsed = clock() - t0
            wall = elapsed - tracer.take_pace()
            tracer.recording = False
            calls, round_spans = tracer.take_calls(), tracer.take_spans()
            checker.calls(calls, lambda f: hidden.get(id(f)))
            for clauses, model, what in out.checks:
                checker.sound(clauses, model, what)
            digests.append(digest([out.payload, call_outputs(calls)]))
            solved_frac = sum(r.solved for r in out.records) / len(out.records)
            par2_flips = out.par2_flips
            trials = out.trial_seconds
            if trials is None:
                trials = [seconds_ for _, _, seconds_ in calls["bench.trial"]]
            units = (wall, trials + out.other_seconds)
            if traced:
                traced_units.append(units)
                round_totals.append(spans.totals(round_spans))
                traced_rounds.append({
                    "wall_s": elapsed,
                    "self_s": sum(spans.self_seconds(round_spans)),
                    "spans": [[s[0], s[1] - t0, s[2] - t0, s[3]] for s in round_spans],
                })
            else:
                rounds.append(units)
            del out, calls  # they hold the instances, which the next set-up frees
            walls = [w for w, _ in rounds]
            if len(digests) >= MIN_ROUNDS and clock() - started + statistics.median(walls) > seconds:
                break
        checker.expect(len(set(digests)) == 1, f"outputs differ across rounds: {digests}")
        checker.expect(len(set(setup_digests)) == 1, "set-up is not deterministic")
    finally:
        tracer.recording = False
        tracer.uninstall()
        os.sched_setaffinity(0, cpus)

    best, wall_s = best_of(rounds)
    trial_s = best[:len(trials)]
    deciles = statistics.quantiles(trial_s, n=10)
    unscaled = {"wall_s": wall_s, "trial_p50_s": deciles[4], "trial_p90_s": deciles[8]}
    scale = REFERENCE_PROBE_S / tracer.probe_min
    end_to_end = {"setup_s": statistics.median(setup_s)}
    end_to_end.update((k, v * scale) for k, v in unscaled.items())
    end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(satlab),
        "end_to_end": end_to_end,
        "unscaled": unscaled,
        "probe_min_s": tracer.probe_min,
        "scale": scale,
        "trials_per_round": len(trial_s),
        "trial_best_s": trial_s,
        "setup_runs_scaled_s": setup_s,
        "round_walls_s": [w for w, _ in rounds],
        "digest": digests[0],
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "failed_frac": len(checker.failures) / checker.attempted,
        "failures": checker.failures[:50],
    }
    if trace:
        raw = spans.median_totals(setup_totals)
        for key, value in spans.median_totals(round_totals).items():
            raw[key] = raw.get(key, 0.0) + value
        per_layer = spans.layer_metrics(raw)
        per_layer["bench.solved_frac"] = solved_frac
        per_layer["bench.par2_flips"] = par2_flips
        per_layer["trace.wall_s"] = best_of(traced_units)[1]
        per_layer["trace.overhead_frac"] = per_layer["trace.wall_s"] / wall_s - 1.0
        record["per_layer"] = per_layer
        record["traced_rounds"] = traced_rounds
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    satlab = load_satlab()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = run_workload(satlab, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    kind, values = ("per_layer", record["per_layer"]) if args.trace else ("end_to_end", record["end_to_end"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    print(f"{args.workload} seed {args.seed}: {len(record['round_walls_s'])} untraced rounds, "
          f"{record['trials_per_round']} trials per round, digest {record['digest']}, "
          f"{record['failed']}/{record['attempted']} checks failed")
    for failure in record["failures"][:5]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
