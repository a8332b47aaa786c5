"""Trials in batches: a trial's result must not depend on its batch.

``_run_range`` advances a range in batches of ``BATCH_TRIALS``, and
``run_trial`` is a batch of one.  In every pipeline mode, totals over any
split of a range equal the totals over the whole range, and each row of a
batch equals the same trial run alone, field by field and bit by bit.
"""

import numpy as np
import pytest

from noisecycle import ExperimentConfig, SweepSpec, crc_encode, encode, run_trial, sample_rlc
from noisecycle.gf2 import CrcSpec
from noisecycle.harness import BATCH_TRIALS, _run_batch, _run_range

from conftest import outcome_key

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
    # one query per decode at -6 dB: every phase-1 decode fails, no lead
    "no-lead": experiment(3, DYNAMIC_Q, ebn0_db=-6.0, max_queries=1, n=24, k=12),
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
    last = np.array([[o.queries for o in outs] for outs in batch.outcomes]).T
    redecoded = batch.queries > last
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
        decoded = np.array([[o.status == "decoded" for o in outs]
                            for outs in batch.outcomes]).T
        assert (decoded & ~batch.correct).any()


def test_stacked_messages_encode_like_single_ones(rng):
    crc = CrcSpec("10011")
    code = sample_rlc(40, 20, seed=3, crc=crc)
    payloads = rng.integers(0, 2, size=(9, code.payload_bits), dtype=np.uint8)
    messages = crc_encode(crc, payloads)
    assert np.array_equal(messages, [crc_encode(crc, p) for p in payloads])
    words = encode(code, messages)
    assert words.dtype == np.uint8
    assert np.array_equal(words, [encode(code, msg) for msg in messages])
