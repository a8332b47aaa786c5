import numpy as np
import pytest

from noisecycle import (ChannelModel, NoiseEstimate, OrbgrandDecoder,
                        PipelineConfig, build_gm_model, build_recycle_graph,
                        effective_variance, encode, llse_update,
                        max_arborescence, modulate_bpsk, run_block,
                        sample_noise, sample_rlc, transmit)
from noisecycle.configio import load_channel_model
from noisecycle.decoders import DECODED, DecodeRecord
from noisecycle.ordering import RecyclingPlan, plan_for
from noisecycle.pipeline import run_batch
from noisecycle.recycling import normalized_corr
from conftest import (README_MODEL, FailingDecoder, PerfectDecoder, RecordingDecoder,
                      fig2_model)

INDEPENDENT = PipelineConfig(mode="independent")
DYNAMIC_Q = PipelineConfig(mode="dynamic", confidence_metric="query_count")
CHAIN2 = RecyclingPlan(parent=(0, 1), total_snr=0.0)
CHAIN3 = RecyclingPlan(parent=(0, 1, 2), total_snr=0.0)


def static(plan, **kw):
    return PipelineConfig(mode="static", plan=plan, **kw)


def make_outputs(model, codes, rng, messages=None):
    n = codes[0].n
    blocks = np.empty((model.m, n))
    cws = []
    for j, code in enumerate(codes):
        msg = (messages[j] if messages is not None
               else rng.integers(0, 2, size=code.k, dtype=np.uint8))
        cw = encode(code, msg)
        cws.append(cw)
        blocks[j] = modulate_bpsk(cw)
    noise = sample_noise(model, n, rng)
    return transmit(model, blocks, noise), cws, noise


class TestModeEquivalenceAtZeroRho:
    def test_all_modes_identical_outcomes(self, rng):
        model = build_gm_model(3, 0.0, 0.35)
        codes = [sample_rlc(16, 11, seed=s) for s in (1, 2, 3)]
        decoders = [OrbgrandDecoder(max_queries=4000)] * 3
        plan = max_arborescence(build_recycle_graph(model))
        for _ in range(40):
            outputs, _, _ = make_outputs(model, codes, rng)
            ind = run_block(INDEPENDENT, outputs, codes, decoders, model)
            sta = run_block(static(plan), outputs, codes, decoders, model)
            dyn = run_block(DYNAMIC_Q, outputs, codes, decoders, model)
            for a, b in ((ind, sta), (ind, dyn)):
                assert a.correct == b.correct
                for oa, ob in zip(a.outcomes, b.outcomes):
                    assert oa.status == ob.status
                    if oa.codeword is not None:
                        assert np.array_equal(oa.codeword, ob.codeword)


class TestStaticRecycling:
    def test_residual_variance_after_correct_lead(self, rng):
        # perfect lead decode, rho = 0.8: the second channel's decoder input
        # minus the clean signal has variance sigma^2 (1 - rho^2) = 0.36
        model = build_gm_model(2, 0.8, 1.0)
        codes = [sample_rlc(64, 46, seed=s) for s in (4, 5)]
        residuals = []
        for _ in range(400):
            outputs, cws, _ = make_outputs(model, codes, rng)
            log: list = []
            decoders = [PerfectDecoder(cws[0]), RecordingDecoder(cws[1], 1, log)]
            run_block(static(CHAIN2), outputs, codes, decoders, model)
            soft = log[0]
            residuals.append(soft.received - modulate_bpsk(cws[1]))
            assert soft.noise_variance == pytest.approx(0.36)
        var = np.concatenate(residuals).var()
        assert var == pytest.approx(0.36, rel=0.02)

    def test_fig2_decode_sequence_and_edges(self, rng):
        model = fig2_model()
        codes = [sample_rlc(32, 24, seed=s) for s in (6, 7, 8)]
        plan = max_arborescence(build_recycle_graph(model))
        outputs, cws, _ = make_outputs(model, codes, rng)
        log: list = []

        class Tagger:
            def __init__(self, idx):
                self.idx = idx

            def decode(self, code, soft):
                log.append((self.idx, soft))
                return PerfectDecoder(cws[self.idx]).decode(code, soft)

        decoders = [Tagger(0), Tagger(1), Tagger(2)]
        result = run_block(static(plan), outputs, codes, decoders, model)
        assert [idx for idx, _ in log] == [1, 0, 2]  # channels 2, 1, 3
        assert result.lead_channel == 1
        # channels 1 and 3 saw reduced variances from recycling channel 2
        assert log[1][1].noise_variance == pytest.approx(1 - 0.725)
        assert log[2][1].noise_variance == pytest.approx(1 - 0.79)
        assert log[0][1].noise_variance == pytest.approx(1.0)

    def test_parent_abandonment_falls_back_to_raw(self, rng):
        model = build_gm_model(2, 0.8, 1.0)
        codes = [sample_rlc(16, 11, seed=s) for s in (9, 10)]
        outputs, cws, _ = make_outputs(model, codes, rng)
        log: list = []
        decoders = [FailingDecoder(), RecordingDecoder(cws[1], 1, log)]
        result = run_block(static(CHAIN2), outputs, codes, decoders, model)
        assert not result.correct[0]
        soft = log[0]
        assert np.array_equal(soft.received, outputs.received[1])
        assert soft.noise_variance == pytest.approx(1.0)

    def test_genie_zeroes_wrong_lead_estimate(self, rng):
        model = build_gm_model(2, 0.8, 1.0)
        codes = [sample_rlc(16, 11, seed=s) for s in (11, 12)]
        outputs, cws, _ = make_outputs(model, codes, rng)
        wrong = cws[0].copy()
        wrong[0] ^= 1  # scripted decoder returns a wrong word
        log: list = []
        decoders = [PerfectDecoder(wrong), RecordingDecoder(cws[1], 1, log)]
        result = run_block(static(CHAIN2, genie=True), outputs, codes, decoders,
                           model)
        assert not result.correct[0]
        soft = log[0]
        assert np.array_equal(soft.received, outputs.received[1])
        assert soft.noise_variance == pytest.approx(1.0)


class TestDynamicRecycling:
    def _scripted(self, cws, queries, log):
        return [RecordingDecoder(cws[i], queries[i], log) for i in range(len(cws))]

    def test_two_channels_more_confident_leads(self, rng):
        model = build_gm_model(2, 0.6, 1.0)
        codes = [sample_rlc(16, 11, seed=s) for s in (13, 14)]
        outputs, cws, _ = make_outputs(model, codes, rng)
        log: list = []
        decoders = self._scripted(cws, [9, 2], log)
        result = run_block(DYNAMIC_Q, outputs, codes, decoders, model)
        assert result.lead_channel == 1
        # phase 1: both raw; phase 2: channel 0 re-decoded with recycling
        assert len(log) == 3
        redec = log[2]
        est = outputs.received[1] - modulate_bpsk(cws[1])
        expect = outputs.received[0] - 0.6 * est
        assert np.allclose(redec.received, expect)
        assert redec.noise_variance == pytest.approx(effective_variance(1.0, 0.6))

    def test_three_channel_outward_order(self, rng):
        model = build_gm_model(3, 0.7, 1.0)
        codes = [sample_rlc(16, 11, seed=s) for s in (15, 16, 17)]
        outputs, cws, _ = make_outputs(model, codes, rng)
        log: list = []

        class Tagger:
            def __init__(self, idx, queries):
                self.idx, self.queries = idx, queries

            def decode(self, code, soft):
                log.append((self.idx, soft))
                return RecordingDecoder(cws[self.idx], self.queries, []).decode(
                    code, soft)

        decoders = [Tagger(0, 50), Tagger(1, 1), Tagger(2, 50)]
        result = run_block(DYNAMIC_Q, outputs, codes, decoders, model)
        assert result.lead_channel == 1
        # phase 1 hits 0,1,2; then the lead's plan, on a Gauss-Markov chain
        # outward from the lead: its children 0 and 2, in ascending order
        assert [i for i, _ in log] == [0, 1, 2, 0, 2]
        est1 = outputs.received[1] - modulate_bpsk(cws[1])
        assert np.allclose(log[4][1].received, outputs.received[2] - 0.7 * est1)
        assert np.allclose(log[3][1].received, outputs.received[0] - 0.7 * est1)

    def test_confidence_tie_breaks_to_lowest_index(self, rng):
        model = build_gm_model(2, 0.5, 1.0)
        codes = [sample_rlc(16, 11, seed=s) for s in (18, 19)]
        outputs, cws, _ = make_outputs(model, codes, rng)
        decoders = self._scripted(cws, [3, 3], [])
        result = run_block(DYNAMIC_Q, outputs, codes, decoders, model)
        assert result.lead_channel == 0

    def test_all_abandoned_returns_phase_one(self, rng):
        model = build_gm_model(2, 0.5, 1.0)
        codes = [sample_rlc(16, 11, seed=s) for s in (20, 21)]
        outputs, _, _ = make_outputs(model, codes, rng)
        decoders = [FailingDecoder(), FailingDecoder()]
        result = run_block(DYNAMIC_Q, outputs, codes, decoders, model)
        assert result.lead_channel is None
        assert all(o.status == "abandoned" for o in result.outcomes)

    def test_one_call_per_target_and_distance_across_leads(self, rng):
        # blocks led from either side of the middle channel re-decode it in
        # one call, each recycling its own lead at its own reduced variance
        model = fig2_model()  # corr(0, 1)^2 = 0.725, corr(1, 2)^2 = 0.79
        m, n, rows = model.m, 16, 32
        codes = [sample_rlc(n, 11, seed=s) for s in (50, 51, 52)]
        sent = np.zeros((rows, m, n), dtype=np.uint8)
        for j, code in enumerate(codes):
            sent[:, j] = encode(code, rng.integers(0, 2, size=(rows, code.k), dtype=np.uint8))
        received = modulate_bpsk(sent) + np.stack(
            [sample_noise(model, n, rng).samples for _ in range(rows)])
        log: list = []

        class Logged:
            def __init__(self, idx):
                self.idx, self.inner = idx, OrbgrandDecoder(max_queries=4000)

            def decode_batch(self, code, received, variances):
                log.append((self.idx, len(received), set(variances.tolist())))
                return self.inner.decode_batch(code, received, variances)

        config = PipelineConfig(mode="dynamic", confidence_metric="noise_nll",
                                rerecycle=True)
        batch = run_batch(config, received, sent, codes, [Logged(j) for j in range(m)],
                          model)
        leads = batch.lead.tolist()
        assert {0, 2} <= set(leads)
        assert [(j, size) for j, size, _ in log[:m]] == [(j, rows) for j in range(m)]
        middle = [(size, variances) for j, size, variances in log[m:] if j == 1]
        assert middle[0] == (leads.count(0) + leads.count(2),
                             {effective_variance(1.0, model.corr[s, 1]) for s in (0, 2)})
        targets = sum(sum(0 <= j - s or j + s < m for j in range(m)) for s in range(1, m))
        assert len(log) <= m + targets + m

    def test_abandoned_never_leads_while_decoded_exists(self, rng):
        model = build_gm_model(2, 0.5, 1.0)
        codes = [sample_rlc(16, 11, seed=s) for s in (22, 23)]
        outputs, cws, _ = make_outputs(model, codes, rng)
        decoders = [FailingDecoder(), RecordingDecoder(cws[1], 999, [])]
        result = run_block(DYNAMIC_Q, outputs, codes, decoders, model)
        assert result.lead_channel == 1


class ZeroWordDecoder:
    """Decodes every row to the all-zero word in ``queries`` queries and logs
    each ``decode_batch`` call as (channel, received, variances)."""

    def __init__(self, channel, queries, log):
        self.channel, self.queries, self.log = channel, queries, log

    def decode_batch(self, code, received, variances):
        self.log.append((self.channel, received.copy(), variances.copy()))
        rows = len(received)
        return DecodeRecord(np.full(rows, DECODED, dtype=np.int8),
                            np.full(rows, self.queries), np.zeros((rows, code.n), np.uint8),
                            np.zeros(rows))


def random_explicit_model(rng, m):
    a = rng.normal(size=(m, m))
    cov = a @ a.T + 0.1 * np.eye(m)
    scale = np.sqrt(np.diag(cov))
    return ChannelModel(m=m, sigma2=10 ** rng.uniform(-0.3, 0.3, m), power=np.ones(m),
                        corr=cov / np.outer(scale, scale))


def dynamic_walk(model, lead, rng, n=16):
    """The (channel, received, variances) log of one all-zero block whose
    channel ``lead`` (0-based) decodes in the fewest queries, and its
    channel outputs."""
    m = model.m
    received = 1.0 + sample_noise(model, n, rng).samples[None]
    log: list = []
    decoders = [ZeroWordDecoder(j, 1 if j == lead else 5, log) for j in range(m)]
    batch = run_batch(DYNAMIC_Q, received, np.zeros((1, m, n), np.uint8),
                      [sample_rlc(n, 11, seed=60)] * m, decoders, model)
    assert batch.lead.tolist() == [lead]
    return log, received[0]


class TestDynamicTrees:
    """After phase 1, a dynamic block follows its lead's plan,
    ``plan_for(model, lead + 1)``: each other channel once, recycling its plan
    parent, which has been decoded before it."""

    @pytest.mark.parametrize("m", range(2, 6))
    def test_each_channel_recycles_its_plan_parent(self, m):
        rng = np.random.default_rng(70 + m)
        for _ in range(5):
            model = random_explicit_model(rng, m)
            for lead in range(m):
                log, y = dynamic_walk(model, lead, rng)
                assert [j for j, *_ in log[:m]] == list(range(m))
                walk = [j for j, *_ in log[m:]]
                assert sorted(walk) == [j for j in range(m) if j != lead]
                plan = plan_for(model, forced_lead=lead + 1)
                for at, (j, received, variances) in enumerate(log[m:]):
                    source = plan.parent_of(j + 1) - 1
                    assert source == lead or source in walk[:at]
                    assert variances.tolist() == [
                        effective_variance(model.sigma2[j], model.corr[source, j])]
                    assert np.allclose(received[0], y[j] - normalized_corr(model, source, j)
                                       * (y[source] - 1.0))

    def test_readme_model_channel_3_recycles_lead_channel_1(self, rng):
        model = load_channel_model(README_MODEL)
        log, y = dynamic_walk(model, 0, rng)
        (received, variances), = [(r, v) for j, r, v in log[3:] if j == 2]
        assert variances.tolist() == [effective_variance(0.8, 0.8)]
        assert np.allclose(received[0], y[2] - normalized_corr(model, 0, 2) * (y[0] - 1.0))


class TestDecodeAndEstimate:
    """The one decode step every schedule uses, seen through a static chain."""

    def test_none_estimate_is_plain_decode(self, rng):
        # channel 1's parent fails, so channel 1 decodes raw; its estimate,
        # taken against its own output, is what channel 2 then recycles
        model = build_gm_model(3, 0.8, 1.0)
        codes = [sample_rlc(16, 11, seed=24)] * 3
        outputs, cws, _ = make_outputs(model, codes, rng)
        log: list = []
        decoders = [FailingDecoder(), RecordingDecoder(cws[1], 1, log),
                    RecordingDecoder(cws[2], 1, log)]
        run_block(static(CHAIN3), outputs, codes, decoders, model)
        y = outputs.received
        assert log[0].noise_variance == pytest.approx(1.0)
        assert np.array_equal(log[0].received, y[1])
        fresh = y[1] - modulate_bpsk(cws[1])
        assert np.allclose(log[1].received, y[2] - 0.8 * fresh)

    def test_fresh_estimate_taken_against_original_signal(self, rng):
        # the estimate a recycled decode passes on must contain the full
        # channel noise, not the residual left after the recycling subtraction
        model = build_gm_model(3, 0.8, 1.0)
        codes = [sample_rlc(16, 11, seed=25)] * 3
        outputs, cws, noise = make_outputs(model, codes, rng)
        log: list = []
        decoders = [PerfectDecoder(cws[0]), RecordingDecoder(cws[1], 1, log),
                    RecordingDecoder(cws[2], 1, log)]
        run_block(static(CHAIN3), outputs, codes, decoders, model)
        z_true = noise.samples[1]
        assert np.allclose(log[1].received, outputs.received[2] - 0.8 * z_true)
        assert log[0].noise_variance == pytest.approx(0.36)

    def test_chained_hops_keep_effective_variance(self, rng):
        # three-channel chain with perfect decodes: each hop's decoder input
        # has residual variance sigma^2 (1 - rho^2)
        rho = 0.7
        model = build_gm_model(3, rho, 1.0)
        codes = [sample_rlc(64, 46, seed=s) for s in (26, 27, 28)]
        hop1, hop2 = [], []
        for _ in range(300):
            outputs, cws, _ = make_outputs(model, codes, rng)
            log: list = []
            decoders = [PerfectDecoder(cws[0]), RecordingDecoder(cws[1], 1, log),
                        RecordingDecoder(cws[2], 1, log)]
            run_block(static(CHAIN3), outputs, codes, decoders, model)
            est0 = outputs.received[0] - modulate_bpsk(cws[0])
            est1 = outputs.received[1] - modulate_bpsk(cws[1])
            y1 = outputs.received[1] - 0.7 * est0
            y2 = outputs.received[2] - 0.7 * est1
            assert np.allclose(log[0].received, y1)
            assert np.allclose(log[1].received, y2)
            hop1.append(y1 - modulate_bpsk(cws[1]))
            hop2.append(y2 - modulate_bpsk(cws[2]))
        expect = effective_variance(1.0, rho)
        assert np.concatenate(hop1).var() == pytest.approx(expect, rel=0.03)
        assert np.concatenate(hop2).var() == pytest.approx(expect, rel=0.03)

    def test_same_channel_rejected(self):
        # a channel can never recycle its own estimate: no plan may make a
        # channel its own parent, and the LLSE update refuses it too
        model = build_gm_model(2, 0.5, 1.0)
        with pytest.raises(ValueError):
            RecyclingPlan(parent=(0, 2), total_snr=0.0)
        est = NoiseEstimate(values=np.zeros(8), source_channel=1)
        with pytest.raises(ValueError):
            llse_update(np.zeros(8), est, model, 1)


class TestReRecycle:
    def test_lead_residual_variance(self, rng):
        rho = 0.6
        model = build_gm_model(2, rho, 1.0)
        codes = [sample_rlc(64, 46, seed=s) for s in (30, 31)]
        residuals = []
        for _ in range(600):
            outputs, cws, _ = make_outputs(model, codes, rng)
            log: list = []
            decoders = [RecordingDecoder(cws[0], 1, log), PerfectDecoder(cws[1])]
            run_block(static(CHAIN2, rerecycle=True), outputs, codes, decoders,
                      model)
            redec = log[1]  # second decode of the lead
            residuals.append(redec.received - modulate_bpsk(cws[0]))
            assert redec.noise_variance == pytest.approx(0.64)
        assert np.concatenate(residuals).var() == pytest.approx(0.64, rel=0.025)

    def test_zero_rho_leaves_outcome_unchanged(self, rng):
        model = build_gm_model(2, 0.0, 0.3)
        codes = [sample_rlc(16, 11, seed=s) for s in (32, 33)]
        decoders = [OrbgrandDecoder(max_queries=4000)] * 2
        for _ in range(20):
            outputs, _, _ = make_outputs(model, codes, rng)
            base = run_block(static(CHAIN2), outputs, codes, decoders, model)
            rr = run_block(static(CHAIN2, rerecycle=True), outputs, codes,
                           decoders, model)
            assert rr.correct == base.correct
            for a, b in zip(base.outcomes, rr.outcomes):
                assert a.status == b.status
                if a.codeword is not None:
                    assert np.array_equal(a.codeword, b.codeword)

    def test_failed_feedback_channel_is_a_no_op(self, rng):
        model = build_gm_model(2, 0.8, 1.0)
        codes = [sample_rlc(16, 11, seed=s) for s in (34, 35)]
        outputs, cws, _ = make_outputs(model, codes, rng)
        log: list = []
        decoders = [RecordingDecoder(cws[0], 1, log), FailingDecoder()]
        base = run_block(static(CHAIN2), outputs, codes, decoders, model)
        rr = run_block(static(CHAIN2, rerecycle=True), outputs, codes, decoders,
                       model)
        assert len(log) == 2  # the lead decoded once per block, never again
        assert (rr.correct, rr.queries_spent, rr.lead_channel) == \
            (base.correct, base.queries_spent, base.lead_channel)
        assert [o.status for o in rr.outcomes] == [o.status for o in base.outcomes]

    def test_dynamic_lead_redecoded_from_most_confident_non_lead(self, rng):
        model = build_gm_model(3, 0.7, 1.0)
        codes = [sample_rlc(16, 11, seed=s) for s in (43, 44, 45)]
        outputs, cws, _ = make_outputs(model, codes, rng)
        log: list = []

        class Tagger:
            def __init__(self, idx, queries):
                self.idx, self.queries = idx, queries

            def decode(self, code, soft):
                log.append((self.idx, soft))
                return RecordingDecoder(cws[self.idx], self.queries, []).decode(
                    code, soft)

        decoders = [Tagger(0, 5), Tagger(1, 1), Tagger(2, 3)]
        config = PipelineConfig(mode="dynamic", confidence_metric="query_count",
                                rerecycle=True)
        result = run_block(config, outputs, codes, decoders, model)
        assert result.lead_channel == 1
        # phase 1, the lead's plan (children 0 and 2), then the lead once more
        assert [i for i, _ in log] == [0, 1, 2, 0, 2, 1]
        # channel 2 (3 queries) beats channel 0 (5); its estimate is taken
        # against its original output
        est2 = outputs.received[2] - modulate_bpsk(cws[2])
        assert np.allclose(log[5][1].received, outputs.received[1] - 0.7 * est2)
        assert log[5][1].noise_variance == pytest.approx(effective_variance(1.0, 0.7))
        assert result.queries_spent == (10, 2, 6)

    def test_dynamic_failed_feedback_channel_is_a_no_op(self, rng):
        model = build_gm_model(2, 0.8, 1.0)
        codes = [sample_rlc(16, 11, seed=s) for s in (46, 47)]
        outputs, cws, _ = make_outputs(model, codes, rng)
        log: list = []
        decoders = [RecordingDecoder(cws[0], 1, log), FailingDecoder()]
        config = PipelineConfig(mode="dynamic", confidence_metric="query_count",
                                rerecycle=True)
        rr = run_block(config, outputs, codes, decoders, model)
        assert rr.lead_channel == 0
        assert len(log) == 1  # the lead is not re-decoded
        base = run_block(DYNAMIC_Q, outputs, codes, decoders, model)
        assert (rr.correct, rr.queries_spent, rr.lead_channel) == \
            (base.correct, base.queries_spent, base.lead_channel)

    def test_dynamic_genie_rejected_feedback_is_a_no_op(self, rng):
        # the most confident non-lead decoded a wrong word: the genie drops
        # its estimate, so there is nothing to feed back to the lead
        model = build_gm_model(2, 0.8, 1.0)
        codes = [sample_rlc(16, 11, seed=s) for s in (48, 49)]
        outputs, cws, _ = make_outputs(model, codes, rng)
        wrong = cws[1].copy()
        wrong[0] ^= 1
        log: list = []
        decoders = [RecordingDecoder(cws[0], 1, log), RecordingDecoder(wrong, 2, [])]
        config = PipelineConfig(mode="dynamic", confidence_metric="query_count",
                                rerecycle=True, genie=True)
        result = run_block(config, outputs, codes, decoders, model)
        assert result.lead_channel == 0
        assert len(log) == 1
        assert result.correct == (True, False)

    @pytest.mark.slow
    def test_lead_bler_ordering_static(self, rng):
        # symmetric two-channel setup: with re-recycling the lead channel's
        # error rate must not exceed its plain static error rate
        from noisecycle import ExperimentConfig, SweepSpec, run_bler_sweep
        codes = ({"type": "rlc", "n": 64, "k": 46, "seed": 36},
                 {"type": "rlc", "n": 64, "k": 46, "seed": 37})
        decs = ({"type": "orbgrand", "max_queries": 2000},) * 2
        results = {}
        for name, pipe in (("plain", {"mode": "static"}),
                           ("rr", {"mode": "static", "rerecycle": True})):
            config = ExperimentConfig(
                channel={"m": 2, "mode": "gm", "rho": 0.6},
                codes=codes, decoders=decs, pipeline=pipe,
                sweep=SweepSpec(ebn0_db=(3.6,), min_trials=100_000,
                                max_trials=100_000, min_block_errors=10**9),
                base_seed=99,
            )
            results[name] = run_bler_sweep(config, workers=2)
        lead_plain = results["plain"][0]
        lead_rr = results["rr"][0]
        assert lead_plain.block_errors >= 50 and lead_rr.block_errors >= 50
        assert lead_rr.bler <= lead_plain.bler


@pytest.mark.slow
class TestGenieDecomposition:
    def test_branch_behaviour_matches_independent_runs(self):
        # On every trial where the lead fails, the genie must leave the second
        # channel decoding its raw output, reproducing the independent-mode
        # outcome bit for bit; on lead-success trials the reduced-variance
        # decode rarely fails.
        from noisecycle import ExperimentConfig, SweepSpec, run_trial
        from noisecycle.harness import BATCH_TRIALS, _run_batch
        CRC8 = "100000111"
        base = dict(
            channel={"m": 2, "mode": "gm", "rho": 0.6},
            codes=({"type": "rlc", "n": 64, "k": 46, "seed": 31,
                    "crc_polynomial": CRC8},) * 2,
            decoders=({"type": "sgrandab", "max_queries": 8000},) * 2,
            sweep=SweepSpec(ebn0_db=(3.9,), min_trials=1, max_trials=1,
                            min_block_errors=1),
            base_seed=11,
        )
        genie_cfg = ExperimentConfig(pipeline={"mode": "static", "genie": True},
                                     **base)
        indep_cfg = ExperimentConfig(pipeline={"mode": "independent"}, **base)
        lead_fail = 0
        branch_mismatch = 0
        success_branch_errors = 0
        trials = 20_000
        for lo in range(0, trials, BATCH_TRIALS):  # rows of a batch are its trials
            g = _run_batch(genie_cfg, 0, lo, min(lo + BATCH_TRIALS, trials)).correct
            for row in np.flatnonzero(~g[:, 0]):
                lead_fail += 1
                i = run_trial(indep_cfg, 0, lo + int(row))
                if g[row, 1] != i.correct[1]:
                    branch_mismatch += 1
            success_branch_errors += int((g[:, 0] & ~g[:, 1]).sum())
        assert lead_fail > 100  # the operating point has a ~1.5e-2 lead BLER
        assert branch_mismatch == 0
        assert success_branch_errors / trials < 5e-4


class TestRunBlockDispatch:
    def test_static_requires_plan(self, rng):
        model = build_gm_model(2, 0.5, 1.0)
        codes = [sample_rlc(16, 11, seed=s) for s in (38, 39)]
        outputs, _, _ = make_outputs(model, codes, rng)
        config = PipelineConfig(mode="static")
        with pytest.raises(ValueError):
            run_block(config, outputs, codes,
                      [OrbgrandDecoder(max_queries=10)] * 2, model)

    @pytest.mark.parametrize("config", [static(CHAIN2), DYNAMIC_Q])
    def test_unit_correlation_rejected_before_any_decode(self, config):
        # recycling across |rho| = 1 would leave zero noise variance, so the
        # LLRs would divide by zero
        model = ChannelModel(m=2, sigma2=np.ones(2), power=np.ones(2),
                             corr=np.ones((2, 2)))
        codes = [sample_rlc(16, 11, seed=s) for s in (38, 39)]
        outputs, cws, _ = make_outputs(model, codes, np.random.default_rng(5))
        decoders = [RecordingDecoder(cw, 1, []) for cw in cws]
        with pytest.raises(ValueError, match=r"channels 1 and 2 have \|rho\| = 1"):
            run_block(config, outputs, codes, decoders, model)
        assert all(not d.log for d in decoders)

    def test_decode_counts_per_mode(self, rng):
        # static: every channel once; dynamic: lead once, others twice
        model = build_gm_model(3, 0.5, 1.0)
        codes = [sample_rlc(16, 11, seed=s) for s in (40, 41, 42)]
        outputs, cws, _ = make_outputs(model, codes, rng)
        counts = [0, 0, 0]

        class Counting:
            def __init__(self, idx):
                self.idx = idx

            def decode(self, code, soft):
                counts[self.idx] += 1
                return PerfectDecoder(cws[self.idx]).decode(code, soft)

        decoders = [Counting(i) for i in range(3)]
        plan = max_arborescence(build_recycle_graph(model))
        run_block(static(plan), outputs, codes, decoders, model)
        assert counts == [1, 1, 1]
        counts[:] = [0, 0, 0]
        run_block(DYNAMIC_Q, outputs, codes, decoders, model)
        assert sorted(counts) == [1, 2, 2]
        counts[:] = [0, 0, 0]
        config = PipelineConfig(mode="static", plan=plan, rerecycle=True)
        result = run_block(config, outputs, codes, decoders, model)
        lead = result.lead_channel
        assert counts[lead] == 2
        assert all(c == 1 for i, c in enumerate(counts) if i != lead)
