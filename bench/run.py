"""Benchmark of noisecycle's BLER sweeps.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths are resolved from
this file).  The program is imported from ``src/`` next to ``bench/``.

``--trace 0`` times whole ``run_bler_sweep`` rounds, each in a fresh
interpreter and scaled by a reference loop timed around it, for about
``--seconds`` seconds, interleaved with fresh-interpreter set-ups, then
checks the outputs, and reports the end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` replays the workload's trials
through the program's public functions with spans around each layer and
reports the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A run report with
the run's metadata and CSV digests goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPS = 7           # fresh-interpreter set-ups per untraced run
TRACE_SETUP_REPS = 3
CHILD_TIMEOUT_S = 150
CHECK_REPLAY_S = 120     # bound on the untraced run's replay of round 0
# trials_per_s is scaled to a machine on which child.reference_s() takes this
# long; see "Noise on a shared 2-core machine" in README.md
REFERENCE_NOMINAL_S = 0.1


class BenchError(RuntimeError):
    pass


def child(mode: str, **args) -> dict:
    """Run one measurement in a fresh interpreter and return its JSON."""
    env = dict(os.environ)
    env.pop("NOISECYCLE_WORKERS", None)   # worker counts are always explicit
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), mode, json.dumps(args)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def expected_trials(raw: dict) -> int:
    return len(raw["sweep"]["ebn0_db"]) * int(raw["sweep"]["max_trials"])


def untraced(name: str, seed: int, seconds: float, workers: int) -> dict:
    wl = workloads.WORKLOADS[name]
    deadline = time.perf_counter() + seconds
    setups, rounds = [], []
    while True:
        if len(setups) < SETUP_REPS:
            setups.append(child("setup", workload=name, seed=seed))
        if not rounds or time.perf_counter() < deadline:
            rounds.append(child("sweep", workload=name, seed=seed, round=len(rounds),
                                workers=workers))
        elif len(setups) >= SETUP_REPS:
            break

    raw0 = workloads.experiment(name, seed, 0)
    attempted = failed = 0
    problems, raised = [], []
    pooled: dict[float, list[list[int]]] = {}
    for r, rnd in enumerate(rounds):
        if "raised" in rnd:
            attempted += expected_trials(raw0)
            failed += expected_trials(raw0)
            raised.append(f"round {r}: {rnd['raised']}")
            continue
        attempted += rnd["trials"]
        problems += [f"round {r}: {p}" for p in rnd["problems"]]
        for ebn0, ch, trials, errors, _, _ in rnd["points"]:
            cell = pooled.setdefault(ebn0, [[0, 0] for _ in range(raw0["channel"]["m"])])
            cell[ch - 1][0] += errors
            cell[ch - 1][1] += trials
    if "recycling_gain" in wl.checks and pooled:
        import checks
        problems += checks.recycling_gain({e: [tuple(c) for c in v] for e, v in pooled.items()})

    check = None
    ok_rounds = [x for x in rounds if "raised" not in x]
    if wl.replay_round0 and "raised" not in rounds[0]:
        rows = rounds[0]["points"]
        check = child("replay", workload=name, seed=seed, trace=False, rounds=1,
                      seconds=CHECK_REPLAY_S, trials_per_point=rows[0][2], expect=rows)
        attempted += check["attempted"]
        failed += check["failed"]
        problems += check["problems"]
        raised += check["raised"]
        if not check["full_round0"]:
            problems.append("the check replay did not cover round 0")

    raw_rates = [x["trials"] / x["sweep_s"] for x in ok_rounds]
    metrics = {
        "trials_per_s": statistics.median(
            rate * x["ref_s"] / REFERENCE_NOMINAL_S for rate, x in zip(raw_rates, ok_rounds))
        if ok_rounds else 0.0,
        "setup_s": statistics.median(x["setup_s"] for x in setups),
        "peak_rss_mb": max(x["rss_mb"] for x in rounds),
    }
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "raised": raised, "metrics": metrics,
            "unscaled_trials_per_s": statistics.median(raw_rates) if raw_rates else 0.0,
            "rounds": rounds, "setups": setups,
            "check_replay": check, "pooled_counts": pooled}


def traced(name: str, seed: int, seconds: float) -> dict:
    deadline = time.perf_counter() + seconds
    setups = [child("setup", workload=name, seed=seed) for _ in range(TRACE_SETUP_REPS)]
    one = child("sweep", workload=name, seed=seed, round=0, workers=1)
    two = child("sweep", workload=name, seed=seed, round=0, workers=min(2, workers_cap()))
    problems, raised = [], []
    for rnd in (one, two):
        if "raised" in rnd:
            raise BenchError(f"round 0 raised: {rnd['raised']}")
        problems += rnd["problems"]
    if one["csv_sha256"] != two["csv_sha256"]:
        problems.append("round 0 CSV differs between 1 and 2 workers")

    rows = one["points"]
    rep = child("replay", workload=name, seed=seed, trace=True, rounds=workloads.MAX_ROUNDS,
                seconds=max(deadline - time.perf_counter(), 0.0),
                trials_per_point=rows[0][2], expect=rows)
    problems += rep["problems"]
    raised += rep["raised"]
    metrics = dict(rep["metrics"])
    metrics["harness.speedup_2w"] = (two["trials"] / two["sweep_s"]) / (one["trials"] / one["sweep_s"])
    metrics["gf2.code_build_s"] = statistics.median(x["code_build_s"] for x in setups)
    metrics["ordering.plan_ms"] = statistics.median(x["plan_ms"] for x in setups)
    return {"attempted": one["trials"] + two["trials"] + rep["attempted"],
            "failed": rep["failed"], "problems": problems, "raised": raised,
            "metrics": metrics, "rounds": [one, two], "setups": setups,
            "replay": {k: v for k, v in rep.items() if k != "metrics"}}


def workers_cap() -> int:
    return len(os.sched_getaffinity(0))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "noisecycle" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'noisecycle'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    workers = min(workloads.WORKLOADS[args.workload].workers, workers_cap())
    started = time.time()
    if args.trace:
        run = traced(args.workload, args.seed, args.seconds)
    else:
        run = untraced(args.workload, args.seed, args.seconds, workers)

    missing = [m["name"] for m in declared if m["name"] not in run["metrics"]]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    import numpy
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workers": workers, "nproc": workers_cap(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_revision": git_revision(), "started_unix": started,
        "wall_s": time.time() - started, **run,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.report.json"
    path.write_text(json.dumps(report, indent=1) + "\n")

    for p in run["problems"][:20] + run["raised"][:20]:
        print(f"problem: {p}", file=sys.stderr)
    for m in declared:
        print(f"{m['name']:<36} {run['metrics'][m['name']]:>14.6g} {m['unit']}")
    if "unscaled_trials_per_s" in run:
        print(f"{'(trials_per_s unscaled)':<36} {run['unscaled_trials_per_s']:>14.6g} 1/s")
    print(f"attempted {run['attempted']}, failed {run['failed']}, report {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
