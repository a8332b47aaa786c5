import itertools
import math

import numpy as np
import pytest

from noisecycle import (AbandonmentPolicy, CodeSpec, CrcSpec, SoftBlock,
                        bp_decode, confidence, crc_check, encode, llrs,
                        ml_decode_bruteforce, modulate_bpsk, orbgrand_decode,
                        sample_regular_ldpc, sample_rlc, sgrandab_decode,
                        syndrome)
from noisecycle.decoders import orbgrand_rank_patterns, sgrand_flip_patterns


class TestLlrs:
    def test_matched_amplitude(self):
        assert llrs(SoftBlock(np.array([0.7]), 0.7))[0] == pytest.approx(2.0)

    def test_zero_observation_is_erasure(self):
        assert llrs(SoftBlock(np.array([0.0, 1.0]), 0.5))[0] == 0.0

    def test_hard_decisions_scale_invariant(self, rng):
        y = rng.normal(size=32)
        a = llrs(SoftBlock(y, 1.0))
        b = llrs(SoftBlock(3.7 * y, 1.0))
        assert np.array_equal(np.sign(a), np.sign(b))


class TestSgrandPatternStream:
    def test_documented_order_for_three_reliabilities(self):
        got = list(itertools.islice(sgrand_flip_patterns(np.array([0.5, 1.0, 2.0])), 8))
        assert got == [(), (0,), (1,), (0, 1), (2,), (0, 2), (1, 2), (0, 1, 2)]

    def test_scores_nondecreasing_and_exhaustive(self, rng):
        reliab = np.sort(rng.uniform(0.1, 3.0, size=10))
        pats = list(sgrand_flip_patterns(reliab))
        assert len(pats) == 2 ** 10
        assert len(set(pats)) == 2 ** 10
        scores = [sum(reliab[list(p)]) for p in pats]
        assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))

    def test_long_prefix_sorted_for_large_n(self, rng):
        reliab = np.sort(np.abs(rng.normal(size=64)))
        stream = sgrand_flip_patterns(reliab)
        scores = [sum(reliab[list(p)]) for p in itertools.islice(stream, 10_000)]
        assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))


class TestOrbgrandPatternStream:
    def test_first_seven_rank_sets(self):
        got = list(itertools.islice(orbgrand_rank_patterns(4), 7))
        assert got == [(), (1,), (2,), (3,), (1, 2), (4,), (1, 3)]

    def test_matches_sorted_enumeration(self):
        for n in (1, 2, 3, 5, 8, 12):
            brute = sorted(
                (sum(c), len(c), c)
                for size in range(n + 1)
                for c in itertools.combinations(range(1, n + 1), size)
                if sum(c) <= 20)
            want = [c for _, _, c in brute]
            got = list(orbgrand_rank_patterns(n, max_weight=20))
            assert got == want

    def test_weight_layering(self):
        # every pattern of weight <= W appears before any pattern of weight > W
        weights = [sum(p) for p in itertools.islice(orbgrand_rank_patterns(16), 2000)]
        assert weights == sorted(weights)


class TestSgrandabDecode:
    def test_noiseless_single_query(self, rng):
        code = sample_rlc(16, 11, seed=4)
        cw = encode(code, rng.integers(0, 2, size=11, dtype=np.uint8))
        out = sgrandab_decode(code, SoftBlock(modulate_bpsk(cw), 0.4),
                              AbandonmentPolicy(100))
        assert out.status == "decoded"
        assert out.queries == 1
        assert np.array_equal(out.codeword, cw)

    def test_equals_ml_oracle(self, rng):
        code = sample_rlc(8, 4, seed=5)
        policy = AbandonmentPolicy(256)
        for _ in range(2000):
            y = rng.normal(size=8)
            out = sgrandab_decode(code, SoftBlock(y, 1.0), policy)
            assert out.status == "decoded"
            assert np.array_equal(out.codeword, ml_decode_bruteforce(code, y))

    def test_equals_ml_oracle_larger_dimension(self, rng):
        # same contract away from the tiny-code corner: k = 12
        code = sample_rlc(16, 12, seed=55)
        policy = AbandonmentPolicy(2 ** 16)
        for _ in range(200):
            cw = encode(code, rng.integers(0, 2, size=12, dtype=np.uint8))
            y = modulate_bpsk(cw) + 0.7 * rng.normal(size=16)
            out = sgrandab_decode(code, SoftBlock(y, 0.49), policy)
            assert out.status == "decoded"
            assert np.array_equal(out.codeword, ml_decode_bruteforce(code, y))

    def test_equals_ml_oracle_with_crc(self, rng):
        crc = CrcSpec(degree=2, polynomial="111")
        code = sample_rlc(8, 4, seed=6, crc=crc)
        policy = AbandonmentPolicy(256)
        for _ in range(500):
            y = rng.normal(size=8)
            out = sgrandab_decode(code, SoftBlock(y, 1.0), policy)
            assert out.status == "decoded"
            assert np.array_equal(out.codeword, ml_decode_bruteforce(code, y))
            assert crc_check(crc, code.message_from_codeword(out.codeword))

    def test_abandonment_reports_budget(self, rng):
        code = sample_rlc(32, 16, seed=7)
        y = rng.normal(size=32)  # unrelated noise, essentially never query-1
        out = sgrandab_decode(code, SoftBlock(y, 1.0), AbandonmentPolicy(3))
        assert out.queries <= 3
        if out.status == "abandoned":
            assert out.codeword is None

    def test_noise_nll_matches_decision(self, rng):
        code = sample_rlc(16, 8, seed=8)
        cw = encode(code, rng.integers(0, 2, size=8, dtype=np.uint8))
        y = modulate_bpsk(cw) + 0.3 * rng.normal(size=16)
        out = sgrandab_decode(code, SoftBlock(y, 0.09), AbandonmentPolicy(1000))
        z = y - modulate_bpsk(out.codeword)
        want = float(z @ z) / (2 * 0.09) + 16 * 0.5 * math.log(2 * math.pi * 0.09)
        assert out.noise_nll == pytest.approx(want, rel=1e-12)


class TestOrbgrandDecode:
    def test_noiseless_single_query(self, rng):
        code = sample_rlc(16, 11, seed=9)
        cw = encode(code, rng.integers(0, 2, size=11, dtype=np.uint8))
        out = orbgrand_decode(code, SoftBlock(modulate_bpsk(cw), 0.4),
                              AbandonmentPolicy(100))
        assert out.status == "decoded" and out.queries == 1

    def test_decodes_to_valid_codewords(self, rng):
        code = sample_rlc(32, 26, seed=10)
        policy = AbandonmentPolicy(5000)
        decoded = 0
        for _ in range(300):
            cw = encode(code, rng.integers(0, 2, size=26, dtype=np.uint8))
            y = modulate_bpsk(cw) + 0.6 * rng.normal(size=32)
            out = orbgrand_decode(code, SoftBlock(y, 0.36), policy)
            if out.status == "decoded":
                decoded += 1
                assert not syndrome(code, out.codeword).any()
        assert decoded > 250

    def test_flip_positions_follow_rank_order(self, rng):
        # single flipped least-reliable bit must be found at query 2
        code = sample_rlc(16, 8, seed=11)
        cw = encode(code, np.zeros(8, dtype=np.uint8))
        y = modulate_bpsk(cw)
        y[5] = -0.01  # least reliable and wrong
        out = orbgrand_decode(code, SoftBlock(y, 1.0), AbandonmentPolicy(100))
        assert out.status == "decoded"
        assert np.array_equal(out.codeword, cw)
        assert out.queries == 2

    def test_determinism(self, rng):
        code = sample_rlc(24, 18, seed=12)
        y = rng.normal(size=24)
        soft = SoftBlock(y, 0.5)
        a = orbgrand_decode(code, soft, AbandonmentPolicy(4000))
        b = orbgrand_decode(code, soft, AbandonmentPolicy(4000))
        assert a.status == b.status and a.queries == b.queries
        if a.codeword is not None:
            assert np.array_equal(a.codeword, b.codeword)


class TestBpDecode:
    def test_noiseless_converges_first_iteration(self, rng):
        code = sample_regular_ldpc(24, 3, 6, seed=13)
        cw = encode(code, rng.integers(0, 2, size=code.k, dtype=np.uint8))
        out = bp_decode(code, SoftBlock(modulate_bpsk(cw), 0.25), 50)
        assert out.status == "decoded" and out.queries == 1
        assert np.array_equal(out.codeword, cw)

    def test_single_erasure_repaired_in_one_iteration(self):
        from noisecycle.gf2 import SparseParityCheck, gf2_nullspace
        h = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
        g = gf2_nullspace(h)
        code = CodeSpec(n=3, k=1, generator=g, parity_check=h,
                        sparse=SparseParityCheck.from_dense(h))
        y = np.array([1.0, 0.0, 1.0])  # middle bit erased, others confident
        out = bp_decode(code, SoftBlock(y, 0.5), 50)
        assert out.status == "decoded" and out.queries == 1
        assert np.array_equal(out.codeword, [0, 0, 0])

    def test_requires_sparse_parity_check(self):
        code = sample_rlc(8, 4, seed=14)
        with pytest.raises(ValueError):
            bp_decode(code, SoftBlock(np.ones(8), 1.0), 10)

    def test_iteration_cap_reported_on_failure(self, rng):
        code = sample_regular_ldpc(24, 3, 6, seed=13)
        y = rng.normal(size=24) * 2.0
        out = bp_decode(code, SoftBlock(y, 4.0), 5)
        assert out.queries <= 5
        if out.status != "decoded":
            assert out.codeword is None

    def test_moderate_snr_regression(self, rng):
        # frozen baseline: (3,6)-regular n=1024 at 3 dB decodes almost always
        code = sample_regular_ldpc(1024, 3, 6, seed=15)
        sigma2 = 1.0 / (2.0 * code.rate * 10 ** 0.3)
        errors = 0
        trials = 10_000
        zeros = np.zeros(code.k, dtype=np.uint8)
        cw = encode(code, zeros)
        x = modulate_bpsk(cw)
        sig = math.sqrt(sigma2)
        for _ in range(trials):
            y = x + sig * rng.standard_normal(1024)
            out = bp_decode(code, SoftBlock(y, sigma2), 50)
            if out.status != "decoded" or not np.array_equal(out.codeword, cw):
                errors += 1
        assert errors / trials < 1e-2


class TestConfidence:
    def _decoded(self, z, sigma2):
        # for |z| < 1 the hard decision of 1 + z is the all-zero codeword, so
        # the first ORBGRAND query accepts it and the decoded noise is z
        z = np.asarray(z, dtype=float)
        code = sample_rlc(z.size, 1, seed=0)
        out = orbgrand_decode(code, SoftBlock(1.0 + z, sigma2), AbandonmentPolicy(1))
        assert out.status == "decoded" and not out.codeword.any()
        return out

    def test_query_count_metric(self):
        from noisecycle import DecodeOutcome
        out = DecodeOutcome(status="decoded", queries=17,
                            codeword=np.zeros(2, dtype=np.uint8))
        assert confidence(out, "query_count") == 17.0

    def test_noise_nll_at_zero_estimate(self):
        out = self._decoded([0.0, 0.0], 1.0)
        assert confidence(out, "noise_nll") == pytest.approx(math.log(2 * math.pi))

    def test_nll_ordering_matches_energy_for_equal_sigma(self, rng):
        noises = [rng.uniform(-0.9, 0.9, size=8) for _ in range(20)]
        nll = [confidence(self._decoded(z, 0.7), "noise_nll") for z in noises]
        energy = [float(np.sum(z ** 2)) for z in noises]
        assert np.argsort(nll).tolist() == np.argsort(energy).tolist()

    def test_non_decoded_is_infinitely_unconfident(self):
        from noisecycle import DecodeOutcome
        out = DecodeOutcome(status="abandoned", queries=5, codeword=None)
        assert out.noise_nll == math.inf
        assert confidence(out, "query_count") == math.inf
        assert confidence(out, "noise_nll") == math.inf

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            confidence(self._decoded([0.0], 1.0), "entropy")


class TestDecoderContracts:
    def test_all_decoded_outputs_are_codewords(self, rng):
        code = sample_rlc(24, 16, seed=17)
        policy = AbandonmentPolicy(2000)
        for _ in range(100):
            y = rng.normal(size=24)
            for decode in (sgrandab_decode, orbgrand_decode):
                out = decode(code, SoftBlock(y, 1.0), policy)
                if out.status == "decoded":
                    assert not syndrome(code, out.codeword).any()

    def test_crc_bearing_codes_validate(self, rng):
        from noisecycle import crc_encode
        crc = CrcSpec(degree=4, polynomial="10011")
        code = sample_rlc(24, 16, seed=18, crc=crc)
        policy = AbandonmentPolicy(4000)
        for _ in range(100):
            payload = rng.integers(0, 2, size=code.payload_bits, dtype=np.uint8)
            cw = encode(code, crc_encode(crc, payload))
            y = modulate_bpsk(cw) + 0.5 * rng.normal(size=24)
            for decode in (sgrandab_decode, orbgrand_decode):
                out = decode(code, SoftBlock(y, 0.25), policy)
                if out.status == "decoded":
                    assert crc_check(crc, code.message_from_codeword(out.codeword))
