"""One measurement in a fresh interpreter; prints one JSON line.

    python3 bench/child.py setup  '{"workload": ..., "seed": ...}'
    python3 bench/child.py sweep  '{"workload": ..., "seed": ..., "round": ..., "workers": ...}'
    python3 bench/child.py replay '{"workload": ..., "seed": ..., "rounds": ..., "trace": ...}'

``run.py`` starts these; each starts with cold program caches.  Only the
standard library is imported before ``setup`` starts its clock, so its time
covers importing numpy and the program.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (standard library only)

REFERENCE_REPS = 5000    # about 0.1 s on a 2-core x86-64 machine


def reference_s() -> float:
    """Seconds a fixed loop of small numpy sorts and dict updates takes in
    this process.  It calls no program code, so it slows with the machine,
    not with the program; ``run.py`` scales each round's rate by it."""
    import numpy as np
    x = np.linspace(-1.0, 1.0, 128)
    t0 = time.perf_counter()
    for i in range(REFERENCE_REPS):
        np.sort(np.abs(x * (i % 7 + 1) - 0.3))
        sum({j: (j * i) ^ (j + 3) for j in range(64)}.values())
    return time.perf_counter() - t0


def _rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def setup(args: dict) -> dict:
    raw = workloads.experiment(args["workload"], args["seed"], 0)
    t0 = time.perf_counter()
    import noisecycle  # noqa: F401
    import world
    built = world.build(raw)
    elapsed = time.perf_counter() - t0
    return {"setup_s": elapsed, "code_build_s": built.code_build_s,
            "plan_ms": built.plan_s * 1e3}


def sweep(args: dict) -> dict:
    from noisecycle.harness import ExperimentConfig, run_bler_sweep

    name, r = args["workload"], args["round"]
    raw = workloads.experiment(name, args["seed"], r)
    config = ExperimentConfig.from_dict(raw)
    tag = f"{name}-seed{args['seed']}-r{r}-w{args['workers']}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(raw, indent=2) + "\n")
    csv = OUT / f"{tag}.csv"

    ref_before = reference_s()
    t0 = time.perf_counter()
    try:
        points = run_bler_sweep(config, workers=args["workers"], output_path=csv)
    except Exception as exc:  # an operation that raised counts as failed
        return {"raised": repr(exc), "trials": 0, "sweep_s": time.perf_counter() - t0,
                "rss_mb": _rss_mb()}
    sweep_s = time.perf_counter() - t0
    rss_mb = _rss_mb()
    ref_s = (ref_before + reference_s()) / 2

    import checks
    import world
    built = world.build(raw)
    problems = checks.sweep_points(raw, built, points)
    plan_problems, plan_ties = checks.plans(built)
    rows = [[p.ebn0_db, p.channel, p.trials, p.block_errors, p.mean_queries,
             p.lead_fraction] for p in points]
    return {
        "trials": sum(p.trials for p in points if p.channel == 1),
        "sweep_s": sweep_s,
        "ref_s": ref_s,
        "rss_mb": rss_mb,
        "csv": str(csv.relative_to(ROOT)),
        "csv_sha256": hashlib.sha256(csv.read_bytes()).hexdigest(),
        "points": rows,
        "problems": problems + plan_problems,
        "plan_ties": plan_ties,
    }


def replay(args: dict) -> dict:
    """Replay trials of rounds 0, 1, ... (points interleaved) until the
    deadline, checking each; with ``trace`` also time ``run_trial`` on the
    same trials and derive the per-layer figures from spans.

    ``expect`` (optional) holds round 0's sweep rows; when round 0 is replayed
    whole, its per-channel errors, queries and leads must match them.
    """
    import numpy as np
    from noisecycle.harness import ExperimentConfig, run_trial

    import checks
    import replay as rp
    import world

    name, seed, trace = args["workload"], args["seed"], args["trace"]
    deadline = time.perf_counter() + args["seconds"]
    wl = workloads.WORKLOADS[name]
    raw0 = workloads.experiment(name, seed, 0)
    built = world.build(raw0)
    checker = checks.TrialChecker(built, raw0, wl.checks)
    per_point = args["trials_per_point"]
    npoints = len(built.models)

    spans: list | None = [] if trace else None
    calls: list = []
    untraced_s: list[float] = []
    problems: list[str] = []
    raised: list[str] = []
    attempted = failed = 0
    full_round0 = False

    for r in range(args["rounds"]):
        if attempted and time.perf_counter() > deadline:
            break
        raw = workloads.experiment(name, seed, r)
        config = ExperimentConfig.from_dict(raw)
        replayer = rp.Replayer(built, raw["base_seed"])
        if trace:  # warm both sides: harness set-up, rank stream, column masks
            for p in range(npoints):
                run_trial(config, p, 0)
                replayer.trial(p, 0)
        errors = np.zeros((npoints, built.m), dtype=np.int64)
        queries = np.zeros((npoints, built.m), dtype=np.int64)
        leads = np.zeros((npoints, built.m), dtype=np.int64)
        stopped = False
        for t in range(per_point):
            # stop only between whole rows of one trial per point, so every
            # point is replayed equally often
            if attempted and time.perf_counter() > deadline:
                stopped = True
                break
            for p in range(npoints):
                attempted += 1
                where = f"seed {raw['base_seed']} point {p} trial {t}"
                try:
                    # alternate which side runs first, so that neither gains
                    # from caches the other warmed on the same trial
                    if trace and attempted % 2:
                        t0 = time.perf_counter()
                        ref = run_trial(config, p, t)
                        untraced_s.append(time.perf_counter() - t0)
                    tr = replayer.trial(p, t, spans)
                    if trace and not attempted % 2:
                        t0 = time.perf_counter()
                        ref = run_trial(config, p, t)
                        untraced_s.append(time.perf_counter() - t0)
                    trial_problems = replayer.reissue_recycling(p, tr, spans)
                    trial_problems += checker.check(p, tr)
                except Exception as exc:  # an operation that raised counts as failed
                    failed += 1
                    raised.append(f"{where}: {exc!r}")
                    continue
                if trace and (ref.correct != tr.result.correct
                              or ref.queries_spent != tr.result.queries_spent
                              or ref.lead_channel != tr.result.lead_channel):
                    trial_problems.append(
                        f"replay {tr.result.correct}/{tr.result.queries_spent} != run_trial "
                        f"{ref.correct}/{ref.queries_spent}")
                if trial_problems:
                    failed += 1
                    problems += [f"{where}: {x}" for x in trial_problems]
                    continue
                res = tr.result
                errors[p] += [not ok for ok in res.correct]
                queries[p] += res.queries_spent
                if res.lead_channel is not None:
                    leads[p, res.lead_channel] += 1
                for c in tr.calls:
                    ok = (c.outcome.status == "decoded"
                          and np.array_equal(c.outcome.codeword, tr.codewords[c.channel]))
                    calls.append((c, ok))
        if r == 0 and not stopped and args.get("expect"):
            full_round0 = True
            problems += _compare_round(args["expect"], raw0, errors, queries, leads, per_point)
        if stopped:
            break

    problems += checker.finish()
    out = {"attempted": attempted, "failed": failed, "problems": problems[:50],
           "raised": raised[:50], "full_round0": full_round0,
           "residual": checker.residual_summary()}
    if trace:
        out["metrics"] = rp.layer_metrics(spans, calls, untraced_s)
        out["trace_file"] = _write_spans(name, seed, spans)
    return out


def _compare_round(rows, raw, errors, queries, leads, per_point) -> list[str]:
    """Round 0's sweep rows against the replay's own tallies."""
    problems = []
    grid = [float(x) for x in raw["sweep"]["ebn0_db"]]
    for ebn0, ch, trials, block_errors, mean_queries, lead_fraction in rows:
        p, j = grid.index(ebn0), ch - 1
        if trials != per_point:
            problems.append(f"{ebn0} dB: sweep ran {trials} trials, replay {per_point}")
            continue
        got = (int(errors[p, j]), float(queries[p, j] / trials), float(leads[p, j] / trials))
        if got != (block_errors, mean_queries, lead_fraction):
            problems.append(f"{ebn0} dB ch{ch}: sweep (errors, mean queries, leads) "
                            f"{(block_errors, mean_queries, lead_fraction)}, replay {got}")
    return problems


def _write_spans(name: str, seed: int, spans: list) -> str:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}.spans.jsonl"
    origin = min((s[3] for s in spans), default=0.0)
    with path.open("w", encoding="utf-8") as fh:
        for key, span, parent, a, b in spans:
            fh.write(json.dumps({"trial": list(key), "name": span, "parent": parent,
                                 "start_us": round((a - origin) * 1e6, 3),
                                 "end_us": round((b - origin) * 1e6, 3)}) + "\n")
    return str(path.relative_to(ROOT))


MODES = {"setup": setup, "sweep": sweep, "replay": replay}

if __name__ == "__main__":
    result = MODES[sys.argv[1]](json.loads(sys.argv[2]))
    print(json.dumps(result))
