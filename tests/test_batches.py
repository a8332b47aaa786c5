"""Trials in batches: a trial's result must not depend on its batch.

``_run_range`` advances a range in batches of ``BATCH_TRIALS``, and
``run_trial`` is a batch of one.  In every pipeline mode, totals over any
split of a range equal the totals over the whole range, and each row of a
batch equals the same trial run alone, field by field and bit by bit.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from noisecycle import (BpDecoder, ExperimentConfig, SweepSpec, crc_encode, encode,
                        run_bler_sweep, run_trial, sample_rlc)
from noisecycle import harness
from noisecycle.decoders import _BP_ROWS, METRICS, STATUSES, confidence
from noisecycle.gf2 import CrcSpec
from noisecycle.harness import BATCH_TRIALS, _run_batch, _run_range

from conftest import outcome_key, record_bp_widths

B = BATCH_TRIALS
TRIALS = 3 * B + 5  # several batches, and a part of one
SPLITS = (1, 7, B - 1, B, B + 1)


def experiment(m, pipeline, ebn0_db=4.0, max_queries=2000, rho=0.7, n=32, k=26):
    return ExperimentConfig(
        channel={"m": m, "mode": "gm", "rho": rho},
        codes=tuple({"type": "rlc", "n": n, "k": k, "seed": 10 + j} for j in range(m)),
        decoders=({"type": "orbgrand", "max_queries": max_queries},) * m,
        pipeline=pipeline,
        sweep=SweepSpec(ebn0_db=(ebn0_db,), min_trials=TRIALS, max_trials=TRIALS),
        base_seed=5,
    )


DYNAMIC_Q = {"mode": "dynamic", "confidence_metric": "query_count"}
DYNAMIC_NLL = {"mode": "dynamic", "confidence_metric": "noise_nll"}
MODES = {
    "independent": experiment(3, {"mode": "independent"}),
    "static-pinned": experiment(3, {"mode": "static", "parents": [2, 0, 2]}),
    "static-m4": experiment(4, {"mode": "static"}),
    "dynamic-query-count": experiment(3, DYNAMIC_Q),
    "dynamic-noise-nll": experiment(3, DYNAMIC_NLL),
    "static-rerecycle": experiment(3, {"mode": "static", "rerecycle": True}),
    "dynamic-rerecycle": experiment(4, {**DYNAMIC_NLL, "rerecycle": True}),
    "static-genie": experiment(3, {"mode": "static", "genie": True, "rerecycle": True},
                               ebn0_db=3.0),
    "dynamic-genie": experiment(3, {**DYNAMIC_Q, "genie": True, "rerecycle": True},
                                ebn0_db=3.0),
    # one query per decode at -6 dB: every phase-1 decode fails, no lead.  A
    # decode hits only if its hard decision, 48 bits at a bit error rate of
    # 0.419, is one of the 16 codewords: at most 16 * 0.581^48 < 1e-10 per
    # decode, so under 1e-7 over the batch's 3 * TRIALS decodes
    "no-lead": experiment(3, DYNAMIC_Q, ebn0_db=-6.0, max_queries=1, n=48, k=4),
}


def trial_key(result) -> tuple:
    return (tuple(outcome_key(o) for o in result.outcomes), result.correct,
            result.lead_channel, result.queries_spent)


@pytest.fixture(scope="module", params=list(MODES))
def mode(request):
    config = MODES[request.param]
    return request.param, config, _run_batch(config, 0, 0, TRIALS)


def test_split_totals_equal_whole_range(mode):
    _, config, _ = mode
    whole = _run_range(config, 0, 0, TRIALS)
    bounds = (0, *SPLITS, TRIALS)
    parts = sum(_run_range(config, 0, a, b) for a, b in zip(bounds, bounds[1:]))
    assert np.array_equal(whole, parts)


def test_rows_equal_trials_run_alone(mode):
    _, config, batch = mode
    results = [run_trial(config, 0, t) for t in range(TRIALS)]
    for t, alone in enumerate(results):
        assert trial_key(batch.result(t)) == trial_key(alone)
    # and the range totals are the tally of those trials
    m = len(config.codes)
    errors = np.sum([[not ok for ok in r.correct] for r in results], axis=0)
    queries = np.sum([r.queries_spent for r in results], axis=0)
    leads = np.bincount([r.lead_channel for r in results if r.lead_channel is not None],
                        minlength=m)
    assert np.array_equal(_run_range(config, 0, 0, TRIALS), [errors, queries, leads])


def test_batches_exercise_their_mode(mode):
    # the cases above only mean something if the batch mixes what a mode
    # can do: several leads, re-decodes, failed decodes, genie rejections
    name, config, batch = mode
    leads = set(batch.lead.tolist())
    redecoded = batch.queries > batch.last
    assert (~batch.correct).any()
    if name == "no-lead":
        assert leads == {-1}
        assert (batch.queries == 1).all()
        return
    assert batch.correct.any()
    if name.startswith("dynamic"):
        assert len(leads - {-1}) >= 2
        assert redecoded.any()
    if "rerecycle" in name or "genie" in name:
        assert redecoded.any()
    if "genie" in name:
        decoded = batch.status == STATUSES.index("decoded")
        assert (decoded & ~batch.correct).any()


def test_confidence_is_each_outcomes(mode):
    # the (B, m) array of the batch is confidence() of each row's outcomes
    _, config, batch = mode
    for metric in METRICS:
        want = [[confidence(out, metric) for out in batch.result(row).outcomes]
                for row in range(TRIALS)]
        assert np.array_equal(batch.confidence(metric), want)


# BP on two (3,6) LDPC codes: a batch of more than 32 trials decodes in a pool of 32
BP_LDPC = ExperimentConfig(
    channel={"m": 2, "mode": "gm", "rho": 0.7},
    codes=tuple({"type": "ldpc", "n": 48, "col_weight": 3, "row_weight": 6, "seed": 1 + j}
                for j in range(2)),
    decoders=({"type": "bp", "max_iters": 20},) * 2,
    pipeline={**DYNAMIC_NLL, "rerecycle": True},
    sweep=SweepSpec(ebn0_db=(2.0,), min_trials=TRIALS, max_trials=TRIALS),
    base_seed=5,
)


@pytest.mark.parametrize("name", ["static-rerecycle", "dynamic-noise-nll", "bp-ldpc"])
def test_results_do_not_depend_on_the_batch_size(name, monkeypatch, tmp_path):
    # doubling segments of 50, 100, 200 and 400 trials cut through the batches
    config = dataclasses.replace({**MODES, "bp-ldpc": BP_LDPC}[name], sweep=SweepSpec(
        ebn0_db=(3.0, 4.0), min_trials=50, max_trials=400, min_block_errors=10**6))
    calls = []
    decode_llrs = BpDecoder._decode_llrs
    monkeypatch.setattr(BpDecoder, "_decode_llrs", lambda self, code, llr: (
        calls.append(len(llr)) or decode_llrs(self, code, llr)))
    widths = record_bp_widths(monkeypatch)
    outputs = set()
    for size in (1, 7, 32, 128):
        monkeypatch.setattr(harness, "BATCH_TRIALS", size)
        out = tmp_path / f"{size}.csv"
        run_bler_sweep(config, workers=1, output_path=out)
        totals = _run_range(config, 1, 0, TRIALS)
        outputs.add((totals.tobytes(), out.read_bytes(), Path(f"{out}.meta.json").read_bytes()))
    assert len(outputs) == 1
    if name == "bp-ldpc":  # calls of more than 32 rows, whose iterations hold at most 32
        assert max(calls) > _BP_ROWS == 32 and max(widths) == _BP_ROWS


def test_stacked_messages_encode_like_single_ones(rng):
    crc = CrcSpec("10011")
    code = sample_rlc(40, 20, seed=3, crc=crc)
    payloads = rng.integers(0, 2, size=(9, code.payload_bits), dtype=np.uint8)
    messages = crc_encode(crc, payloads)
    assert np.array_equal(messages, [crc_encode(crc, p) for p in payloads])
    words = encode(code, messages)
    assert words.dtype == np.uint8
    assert np.array_equal(words, [encode(code, msg) for msg in messages])
