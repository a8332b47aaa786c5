"""Acceptance suite: one test per release criterion, one printed verdict line
per criterion.

Monte Carlo criteria pin their operating points (code, decoder, correlation,
Eb/N0, seed) so results are bit-reproducible; statistical tolerances are
stated inline next to each assertion.
"""

import itertools
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from noisecycle import (ChannelModel, ExperimentConfig, RecycleGraph,
                        SgrandabDecoder, SoftBlock, SweepSpec, achievable_rates,
                        brute_force_plan, build_gm_model, build_recycle_graph,
                        capacity, composite_bler, joint_capacity,
                        max_arborescence, ml_decode_bruteforce,
                        pair_upper_bound, run_bler_sweep,
                        sample_noise, sample_rlc, wilson_interval)
from noisecycle.decoders import orbgrand_rank_patterns
from noisecycle.harness import BATCH_TRIALS, _run_batch
from noisecycle.recycling import normalized_corr

from conftest import README_MODEL, fig2_model


def report(cid: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def crossing_db(points, target):
    """Eb/N0 where a decreasing BLER curve crosses ``target`` (log interp)."""
    pts = sorted(points)
    for (x1, b1), (x2, b2) in zip(pts, pts[1:]):
        if b1 >= target >= b2 and b1 > 0 and b2 > 0:
            t = (math.log10(b1) - math.log10(target)) / \
                (math.log10(b1) - math.log10(b2))
            return x1 + t * (x2 - x1)
    raise AssertionError(f"no bracket for target {target} in {pts}")


def test_c1_variance_reduction_closure():
    """Residual variance of z_j - rho' z_i matches sigma_j^2 (1 - rho^2)
    within 1% over a (rho, sigma_j^2) grid, 1e6 samples per cell, < 10 s."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for rho, s2j in itertools.product((0.0, 0.4, 0.6, 0.8), (0.8, 1.0, 1.2)):
        model = ChannelModel(m=2, sigma2=np.array([1.0, s2j]), power=np.ones(2),
                             corr=np.array([[1.0, rho], [rho, 1.0]]))
        z = sample_noise(model, 1_000_000, rng).samples
        resid = z[1] - normalized_corr(model, 0, 1) * z[0]
        expect = s2j * (1.0 - rho * rho)
        rel = abs(resid.var() - expect) / expect
        worst = max(worst, rel)
    elapsed = time.time() - t0
    ok = worst < 0.01 and elapsed < 10.0
    report("C1", ok, f"worst relative error {worst:.2e}, {elapsed:.1f}s")
    assert worst < 0.01
    assert elapsed < 10.0


def test_c2_ordering_matches_bruteforce_oracle():
    """Solver total equals exhaustive arborescence enumeration on 1000
    random instances, m in 2..5, exactly, in under 30 s."""
    t0 = time.time()
    rng = np.random.default_rng(202)
    mismatches = 0
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        w = np.full((m + 1, m + 1), np.nan)
        for i in range(m + 1):
            for j in range(1, m + 1):
                if i != j:
                    w[i, j] = rng.uniform(0.05, 20.0)
        graph = RecycleGraph(w)
        fast = max_arborescence(graph)
        slow = brute_force_plan(graph)
        if fast.total_snr != slow.total_snr or fast.parent != slow.parent:
            mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 30.0
    report("C2", ok, f"0 mismatches in 1000 instances, {elapsed:.1f}s"
           if ok else f"{mismatches} mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 30.0


def test_c3_three_channel_showcase_instance():
    """The showcase instance: best order has total SNR 10 = 1 + 4 + 5 with
    channel 2 the only lead, and rates (C(1), C(4), C(5))."""
    model = fig2_model()
    graph = build_recycle_graph(model)
    plan = max_arborescence(graph)
    rates = achievable_rates(model, plan).per_channel_rates
    ok = (plan.children_of(0) == [2]
          and plan.parent == (2, 0, 2)
          and abs(plan.total_snr - 10.0) < 1e-9
          and abs(rates[1] - capacity(1.0)) < 1e-9
          and abs(rates[0] - capacity(4.0)) < 1e-9
          and abs(rates[2] - capacity(5.0)) < 1e-9)
    report("C3", ok, f"total={plan.total_snr:.12f}, lead children={plan.children_of(0)}")
    assert plan.children_of(0) == [2]
    assert plan.total_snr == pytest.approx(10.0, abs=1e-9)
    assert rates[1] == pytest.approx(capacity(1.0), abs=1e-9)
    assert rates[0] == pytest.approx(capacity(4.0), abs=1e-9)
    assert rates[2] == pytest.approx(capacity(5.0), abs=1e-9)


def test_c4_pair_bound_dominates_achievable_region():
    """Pair bound >= achievable pair sum across rho in [0, 0.95] step 0.05
    and SNR in [0.5, 16] (log grid); strict for rho > 0; the gap grows
    monotonically with rho at fixed SNR.  Tolerance 1e-9 bits."""
    tol = 1e-9
    violations = []
    for snr in np.geomspace(0.5, 16.0, 6):
        prev_gap = None
        for rho in np.arange(0.0, 0.9501, 0.05):
            ach = capacity(snr) + capacity(snr / (1.0 - rho * rho))
            bound = pair_upper_bound(float(snr), float(snr), 1.0, 1.0, float(rho)).total
            gap = bound - ach
            if gap < -tol:
                violations.append(("dominates", snr, rho, gap))
            if rho > 0 and gap <= tol:
                violations.append(("strict", snr, rho, gap))
            if prev_gap is not None and gap < prev_gap - tol:
                violations.append(("monotone", snr, rho, gap - prev_gap))
            prev_gap = gap
    ok = not violations
    report("C4", ok, "120 grid points clean" if ok else f"violations: {violations[:3]}")
    assert not violations


def test_c5_waterfill_matches_grid_search():
    """Two-channel water-filling capacity within 1e-3 bits of an exhaustive
    input-covariance grid search (step 1e-3); exact (1e-10) at rho = 0."""
    def grid_best(p, rho, step=1e-3):
        alphas = np.arange(0.0, 1.0 + step / 2, step)
        rs = np.arange(-1.0, 1.0 + step / 2, step)
        a, r = np.meshgrid(alphas, rs, indexing="ij")
        p1, p2 = 2 * p * a, 2 * p * (1 - a)
        c = r * np.sqrt(p1 * p2)
        det = (p1 + 1.0) * (p2 + 1.0) - (c + rho) ** 2
        detz = 1.0 - rho * rho
        return float((0.5 * np.log2(np.maximum(det, detz * 1e-12) / detz)).max())

    worst = 0.0
    for rho in (0.3, 0.5, 0.8):
        wf = joint_capacity(build_gm_model(2, rho, 1.0, 1.0))
        worst = max(worst, abs(wf - grid_best(1.0, rho)))
    zero_gap = abs(joint_capacity(build_gm_model(2, 0.0, 1.0, 1.0))
                   - 2 * capacity(1.0))
    ok = worst < 1e-3 and zero_gap < 1e-10
    report("C5", ok, f"worst grid gap {worst:.2e}, rho=0 gap {zero_gap:.2e}")
    assert worst < 1e-3
    assert zero_gap < 1e-10


CRC8 = "100000111"


def _closure_config(pipeline, ebn0, sweep, seed):
    return ExperimentConfig(
        channel={"m": 2, "mode": "gm", "rho": 0.6},
        codes=({"type": "rlc", "n": 64, "k": 46, "seed": 31,
                "crc_polynomial": CRC8},) * 2,
        decoders=({"type": "sgrandab", "max_queries": 8000},) * 2,
        pipeline=pipeline,
        sweep=sweep,
        base_seed=seed,
    )


def _joint_failures(config, start, stop):
    """Channel-1 errors, channel-2 errors and both-wrong trials in [start, stop),
    read from the sweep's own batches, whose rows are those trials."""
    counts = np.zeros(3, dtype=np.int64)
    for lo in range(start, stop, BATCH_TRIALS):
        wrong = ~_run_batch(config, 0, lo, min(lo + BATCH_TRIALS, stop)).correct
        counts += (wrong[:, 0].sum(), wrong[:, 1].sum(), (wrong[:, 0] & wrong[:, 1]).sum())
    return counts


def _count_joint_failures(config):
    """Trial count and (f1, f2, joint) failure counts for a two-channel config.

    Follows the sweep's doubling schedule from ``min_trials`` until the
    joint count reaches ``min_block_errors`` (or ``max_trials``), sharded
    over 2 processes; the trial set, and so the counts, do not depend on
    the process count.
    """
    sweep, workers = config.sweep, 2
    counts = np.zeros(3, dtype=np.int64)
    done, target = 0, sweep.min_trials
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
        while True:
            bounds = [done + (target - done) * i // workers
                      for i in range(workers + 1)]
            futures = [pool.submit(_joint_failures, config, lo, hi)
                       for lo, hi in zip(bounds, bounds[1:])]
            for fut in futures:
                counts += fut.result()
            done = target
            if counts[2] >= sweep.min_block_errors or done >= sweep.max_trials:
                return done, counts
            target = min(2 * target, sweep.max_trials)


@pytest.mark.slow
def test_c6_composite_bler_closure_with_genie():
    """Genie-validated recycling at lead BLER ~1e-2 (rho 0.6, 3.9 dB,
    rlc[64,46]+CRC8, SGRANDAB capped at 8000 queries): the measured
    second-channel BLER equals its two-branch decomposition
    P(F2) = P(F1 and F2_raw) + (1 - b) b_red within 3 combined standard
    errors, with >= 100 second-channel errors and >= 100 joint failures.

    When the lead fails (F1, rate b) the genie leaves channel 2 decoding its
    raw output, so that branch is the joint rate J = P(F1 and F2_raw),
    counted with b from one independent-mode run.  When the lead succeeds,
    channel 2 decodes against z2 - rho' z1, which for jointly Gaussian noise
    is independent of z1 and hence of the lead's success, so that branch
    factorises into (1 - b) b_red with b_red measured at sigma^2 (1 - rho^2).
    The independence formula b^2 + (1 - b) b_red (``composite_bler``) puts
    b^2 where J belongs; correlated noise makes J exceed b^2 by > 3 standard
    errors, asserted here as a finding and printed beside both predictions.
    """
    ebn0 = 3.9
    genie = _closure_config({"mode": "static", "genie": True}, ebn0,
                            SweepSpec(ebn0_db=(ebn0,), min_trials=50_000,
                                      max_trials=800_000, min_block_errors=100),
                            seed=601)
    p_genie = run_bler_sweep(genie, workers=2)
    b_lead_inrun, p2 = p_genie[0], p_genie[1]

    # min_block_errors here is the floor on joint failures, not per channel
    base = _closure_config({"mode": "independent"}, ebn0,
                           SweepSpec(ebn0_db=(ebn0,), min_trials=30_000,
                                     max_trials=960_000, min_block_errors=100),
                           seed=602)
    trials, (f1, f2_raw, joint) = _count_joint_failures(base)

    shift = 10.0 * math.log10(1.0 / (1.0 - 0.6 ** 2))
    reduced = _closure_config({"mode": "independent"}, ebn0 + shift,
                              SweepSpec(ebn0_db=(ebn0 + shift,),
                                        min_trials=200_000, max_trials=200_000,
                                        min_block_errors=10**9), seed=603)
    b_red_run = run_bler_sweep(reduced, workers=2)[0]

    b, j, b_red = f1 / trials, joint / trials, b_red_run.bler
    var_p2 = p2.bler * (1 - p2.bler) / p2.trials
    var_b = b * (1 - b) / trials
    var_j = j * (1 - j) / trials
    var_red = b_red * (1 - b_red) / b_red_run.trials

    predicted = j + (1 - b) * b_red
    se = math.sqrt(var_p2 + var_j + (1 - b) ** 2 * var_red + b_red ** 2 * var_b)
    gap = p2.bler - predicted

    naive = composite_bler(b, b_red)
    naive_se = math.sqrt(var_p2 + (2 * b - b_red) ** 2 * var_b
                         + (1 - b) ** 2 * var_red)
    # J and b share trials with positive covariance; dropping it overstates se
    excess = j - b * b
    excess_se = math.sqrt(var_j + (2 * b) ** 2 * var_b)

    ok = (abs(gap) <= 3 * se and p2.block_errors >= 100 and joint >= 100
          and excess > 3 * excess_se)
    report("C6", ok,
           f"measured p2={p2.bler:.3e} ({p2.block_errors} errs) vs "
           f"dependence-aware J+(1-b)b_red={predicted:.3e} "
           f"(J={j:.3e} from {joint} joint errs in {trials} trials, "
           f"b={b:.3e}, b_red={b_red:.3e}); gap {gap:+.3e} vs 3se "
           f"{3 * se:.3e}; independence b^2+(1-b)b_red={naive:.3e} misses by "
           f"{(p2.bler - naive) / naive_se:.1f} se; J-b^2={excess:.3e} is "
           f"{excess / excess_se:.1f} se; P(F2_raw|F1)={joint / f1:.2%} vs "
           f"marginal {f2_raw / trials:.2%}; lead-in-run {b_lead_inrun.bler:.3e}")
    assert p2.block_errors >= 100
    assert joint >= 100
    assert abs(gap) <= 3 * se, (
        f"second-channel BLER {p2.bler:.3e} is {gap / se:.1f} combined "
        f"standard errors from the two-branch prediction {predicted:.3e}")
    assert excess > 3 * excess_se, (
        f"joint failure rate {j:.3e} is within 3 standard errors of "
        f"b^2 = {b * b:.3e}; the lead and raw second-channel failures no "
        f"longer look dependent")


def _gain_config(pipeline, grid, seed):
    return ExperimentConfig(
        channel={"m": 2, "mode": "gm", "rho": 0.6},
        codes=({"type": "rlc", "n": 128, "k": 110, "seed": 21},
               {"type": "rlc", "n": 128, "k": 110, "seed": 22}),
        decoders=({"type": "orbgrand", "max_queries": 40_000},) * 2,
        pipeline=pipeline,
        sweep=SweepSpec(ebn0_db=grid, min_trials=2000, max_trials=64_000,
                        min_block_errors=50),
        base_seed=seed,
    )


@pytest.mark.slow
def test_c7_static_recycling_gain():
    """Static recycling moves the second channel's 1e-2 BLER crossing at
    least 0.25 dB below independent decoding (>= 50 errors per point)."""
    indep = run_bler_sweep(_gain_config({"mode": "independent"},
                                        (4.25, 4.5, 4.75), seed=701), workers=2)
    static = run_bler_sweep(_gain_config({"mode": "static"},
                                         (3.5, 3.75, 4.0), seed=702), workers=2)
    ch2_indep = [(p.ebn0_db, p.bler) for p in indep if p.channel == 2]
    ch2_static = [(p.ebn0_db, p.bler) for p in static if p.channel == 2]
    assert all(p.block_errors >= 50 for p in indep if p.channel == 2)
    assert all(p.block_errors >= 50 for p in static if p.channel == 2)
    x_indep = crossing_db(ch2_indep, 1e-2)
    x_static = crossing_db(ch2_static, 1e-2)
    gain = x_indep - x_static
    ok = gain >= 0.25
    report("C7", ok, f"1e-2 crossing: independent {x_indep:.3f} dB, "
                     f"recycled {x_static:.3f} dB, gain {gain:.3f} dB (floor 0.25)")
    assert gain >= 0.25


def _dyn_config(pipeline, seed):
    return ExperimentConfig(
        channel={"m": 2, "mode": "gm", "rho": 0.8},
        codes=({"type": "rlc", "n": 64, "k": 46, "seed": 41},
               {"type": "rlc", "n": 64, "k": 46, "seed": 42}),
        decoders=({"type": "orbgrand", "max_queries": 20_000},) * 2,
        pipeline=pipeline,
        sweep=SweepSpec(ebn0_db=(3.5,), min_trials=16_000, max_trials=128_000,
                        min_block_errors=50),
        base_seed=seed,
    )


@pytest.mark.slow
def test_c8_dynamic_and_rerecycling_ordering():
    """At 3.5 dB with rho 0.8: dynamic recycling beats independent decoding
    on every channel, and re-recycling the static lead never hurts it; every
    compared rate carries >= 50 errors, with Wilson intervals checked for
    separation (overlap is flagged, not hidden)."""
    runs = {
        "independent": run_bler_sweep(_dyn_config({"mode": "independent"}, 801),
                                      workers=2),
        "dynamic": run_bler_sweep(
            _dyn_config({"mode": "dynamic", "confidence_metric": "query_count"},
                        801), workers=2),
        "static": run_bler_sweep(_dyn_config({"mode": "static"}, 801), workers=2),
        "static_rr": run_bler_sweep(
            _dyn_config({"mode": "static", "rerecycle": True}, 801), workers=2),
    }
    flags = []

    def interval(point):
        return wilson_interval(point.block_errors, point.trials)

    orderings = []
    for ch in (0, 1):
        dyn, ind = runs["dynamic"][ch], runs["independent"][ch]
        orderings.append(("dynamic<independent", ch + 1, dyn, ind,
                          dyn.bler < ind.bler))
    lead_rr, lead_plain = runs["static_rr"][0], runs["static"][0]
    orderings.append(("rr_lead<=static_lead", 1, lead_rr, lead_plain,
                      lead_rr.bler <= lead_plain.bler))

    all_counted = True
    for name, ch, better, worse, holds in orderings:
        if min(better.block_errors, worse.block_errors) < 50:
            all_counted = False
        lo_w, _ = interval(worse)
        _, hi_b = interval(better)
        if hi_b >= lo_w:
            flags.append(f"{name} ch{ch} Wilson intervals overlap")

    ok = all_counted and all(h for *_, h in orderings)
    detail = "; ".join(
        f"{name} ch{ch}: {better.bler:.2e} vs {worse.bler:.2e}"
        for name, ch, better, worse, _ in orderings)
    if flags:
        detail += " | FLAGGED: " + "; ".join(flags)
    report("C8", ok, detail)
    for name, ch, better, worse, holds in orderings:
        assert better.block_errors >= 50 and worse.block_errors >= 50, name
        assert holds, (name, ch, better.bler, worse.bler)


def test_c8_dynamic_beats_independent_on_explicit_model():
    """On the README's explicit model at 3.0 dB, dynamic recycling along
    each lead's plan beats independent decoding on every channel, with
    separated Wilson intervals.  At 4,000 trials independent decoding
    makes 47 or more errors per channel."""
    def bler(pipeline):
        return run_bler_sweep(ExperimentConfig(
            channel=README_MODEL,
            codes=tuple({"type": "rlc", "n": 64, "k": 46, "seed": s} for s in (40, 41, 42)),
            decoders=({"type": "orbgrand", "max_queries": 20_000},) * 3,
            pipeline=pipeline,
            sweep=SweepSpec(ebn0_db=(3.0,), min_trials=4000, max_trials=4000),
            base_seed=3), workers=2)

    ind = bler({"mode": "independent"})
    dyn = bler({"mode": "dynamic", "confidence_metric": "noise_nll"})
    separated = [wilson_interval(d.block_errors, d.trials)[1]
                 < wilson_interval(i.block_errors, i.trials)[0] for d, i in zip(dyn, ind)]
    report("C8-explicit", all(separated), "; ".join(
        f"ch{d.channel}: dynamic {d.bler:.2e} vs independent {i.bler:.2e}"
        for d, i in zip(dyn, ind)))
    assert all(separated), [(d.bler, i.bler) for d, i in zip(dyn, ind)]


def test_c9_decoder_oracles():
    """Guessing decoders against their enumeration oracles: SGRANDAB equals
    brute-force ML on 1e4 random [8,4] soft blocks (exact), and the
    ORBGRAND pattern stream equals the sorted subset enumeration for
    n <= 12, weight <= 20 (exact)."""
    rng = np.random.default_rng(909)
    code = sample_rlc(8, 4, seed=5)
    decoder = SgrandabDecoder(256)
    mismatches = 0
    for _ in range(10_000):
        y = rng.normal(size=8)
        out = decoder.decode(code, SoftBlock(y, 1.0))
        if out.status != "decoded" or \
                not np.array_equal(out.codeword, ml_decode_bruteforce(code, y)):
            mismatches += 1

    stream_ok = True
    for n in range(1, 13):
        brute = sorted((sum(c), len(c), c)
                       for size in range(n + 1)
                       for c in itertools.combinations(range(1, n + 1), size)
                       if sum(c) <= 20)
        if list(orbgrand_rank_patterns(n, max_weight=20)) != [c for _, _, c in brute]:
            stream_ok = False

    ok = mismatches == 0 and stream_ok
    report("C9", ok, f"ML mismatches {mismatches}/10000; "
                     f"pattern stream {'exact' if stream_ok else 'DIVERGES'}")
    assert mismatches == 0
    assert stream_ok


def test_c10_determinism_across_worker_counts(tmp_path):
    """One experiment, three worker counts, byte-identical CSV output."""
    def config():
        return ExperimentConfig(
            channel={"m": 2, "mode": "gm", "rho": 0.7},
            codes=({"type": "rlc", "n": 32, "k": 26, "seed": 1},
                   {"type": "rlc", "n": 32, "k": 26, "seed": 2}),
            decoders=({"type": "orbgrand", "max_queries": 2000},) * 2,
            pipeline={"mode": "dynamic", "confidence_metric": "query_count",
                      "rerecycle": True},
            sweep=SweepSpec(ebn0_db=(4.0, 5.0), min_trials=600, max_trials=1200,
                            min_block_errors=30),
            base_seed=1001,
        )

    outputs = {}
    for workers in (1, 4, 16):
        path = tmp_path / f"w{workers}.csv"
        run_bler_sweep(config(), workers=workers, output_path=path)
        outputs[workers] = path.read_bytes()
    ok = outputs[1] == outputs[4] == outputs[16]
    report("C10", ok, f"{len(outputs[1])} CSV bytes identical across 1/4/16 workers"
           if ok else "worker count changed the output")
    assert outputs[1] == outputs[4]
    assert outputs[1] == outputs[16]
