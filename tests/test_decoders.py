import itertools
import math

import numpy as np
import pytest

from noisecycle import (BpDecoder, CodeSpec, CrcSpec, OrbgrandDecoder,
                        SgrandabDecoder, SoftBlock, confidence, crc_check,
                        crc_encode, encode, llrs, ml_decode_bruteforce, modulate_bpsk,
                        sample_regular_ldpc, sample_rlc, syndrome)
from noisecycle import decoders
from noisecycle.decoders import orbgrand_rank_patterns

from conftest import bp_knife_edge, bp_reference, mod2, orbgrand_first_hit, outcome_key


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


class TestQueryOrder:
    """Query counts of the decoders as they run, against the pattern orders
    they promise: the count is the 1-based position of the first flip set
    that turns the hard decision into a codeword whose message passes the
    code's CRC, if it has one."""

    N = 10

    def _blocks(self, rng, count):
        for code in (sample_rlc(self.N, 5, seed=19),
                     sample_rlc(self.N, 5, seed=19, crc=CrcSpec("111"))):
            for _ in range(count):
                y = rng.normal(size=self.N)
                yield code, y, (y < 0).astype(np.uint8)

    @staticmethod
    def _first_hit(code, hard, flip_sets):
        for pos, flips in enumerate(flip_sets, start=1):
            word = hard.copy()
            word[list(flips)] ^= 1
            # the codes are systematic: the message is the first k bits
            if (not mod2(code.parity_check, word).any()
                    and (code.crc is None or crc_check(code.crc, word[:code.k]))):
                return pos, word
        raise AssertionError("no flip set gives a codeword")

    def test_sgrandab_count_is_position_in_score_order(self, rng):
        # all 2^n flip sets sorted by the sum of their flipped |LLR|
        abandoned = 0
        for code, y, hard in self._blocks(rng, 200):
            sets = [c for size in range(self.N + 1)
                    for c in itertools.combinations(range(self.N), size)]
            sets.sort(key=lambda c: sum(abs(y[i]) for i in c))
            pos, word = self._first_hit(code, hard, sets)
            out = SgrandabDecoder(pos).decode(code, SoftBlock(y, 1.0))
            assert out.status == "decoded" and out.queries == pos
            assert np.array_equal(out.codeword, word)
            if pos > 1:  # one query short of the hit: give up at the cap
                out = SgrandabDecoder(pos - 1).decode(code, SoftBlock(y, 1.0))
                assert out.status == "abandoned" and out.queries == pos - 1
                assert out.codeword is None
                abandoned += 1
        assert abandoned > 100

    def test_orbgrand_count_is_position_in_rank_stream(self, rng):
        abandoned = 0
        for code, y, hard in self._blocks(rng, 200):
            order = np.argsort(np.abs(y), kind="stable")  # rank r at order[r-1]
            sets = [[int(order[r - 1]) for r in ranks]
                    for ranks in orbgrand_rank_patterns(self.N)]
            pos, word = self._first_hit(code, hard, sets)
            out = OrbgrandDecoder(pos).decode(code, SoftBlock(y, 1.0))
            assert out.status == "decoded" and out.queries == pos
            assert np.array_equal(out.codeword, word)
            if pos > 1:
                out = OrbgrandDecoder(pos - 1).decode(code, SoftBlock(y, 1.0))
                assert out.status == "abandoned" and out.queries == pos - 1
                abandoned += 1
        assert abandoned > 100


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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rank_matrix_runs_out_at_tiny_n(self, n, monkeypatch):
        monkeypatch.setattr(decoders, "_RANK_STREAMS", {})
        rows = decoders._rank_rows(n, 100, 100)
        assert rows.shape[0] == 2 ** n  # every subset of the n ranks, once
        want = np.full((2 ** n, n), n)
        for i, ranks in enumerate(orbgrand_rank_patterns(n)):
            want[i, :len(ranks)] = [r - 1 for r in ranks]
        assert np.array_equal(rows, want)
        assert decoders._rank_rows(n, 100, 100) is rows

    def test_rank_matrix_bounded_by_largest_cap(self, monkeypatch):
        monkeypatch.setattr(decoders, "_RANK_STREAMS", {})
        code = sample_rlc(32, 16, seed=7)
        y = np.random.default_rng(3).normal(size=32)  # unrelated noise
        for cap in (100, 40, 300):
            out = OrbgrandDecoder(cap).decode(code, SoftBlock(y, 1.0))
            assert out.status == "abandoned" and out.queries == cap
        rows = decoders._RANK_STREAMS[32][0]
        assert rows.shape[0] == 300 and rows.dtype == np.int16
        head = itertools.islice(orbgrand_rank_patterns(32), 300)
        for row, ranks in zip(rows, head):
            assert row[row < 32].tolist() == [r - 1 for r in ranks]

    def test_weight_layering(self):
        # every pattern of weight <= W appears before any pattern of weight > W
        weights = [sum(p) for p in itertools.islice(orbgrand_rank_patterns(16), 2000)]
        assert weights == sorted(weights)


class TestSgrandabDecode:
    def test_noiseless_single_query(self, rng):
        code = sample_rlc(16, 11, seed=4)
        cw = encode(code, rng.integers(0, 2, size=11, dtype=np.uint8))
        out = SgrandabDecoder(100).decode(code, SoftBlock(modulate_bpsk(cw), 0.4))
        assert out.status == "decoded"
        assert out.queries == 1
        assert np.array_equal(out.codeword, cw)

    def test_equals_ml_oracle(self, rng):
        code = sample_rlc(8, 4, seed=5)
        decoder = SgrandabDecoder(256)
        for _ in range(2000):
            y = rng.normal(size=8)
            out = decoder.decode(code, SoftBlock(y, 1.0))
            assert out.status == "decoded"
            assert np.array_equal(out.codeword, ml_decode_bruteforce(code, y))

    def test_equals_ml_oracle_larger_dimension(self, rng):
        # same contract away from the tiny-code corner: k = 12
        code = sample_rlc(16, 12, seed=55)
        decoder = SgrandabDecoder(2 ** 16)
        for _ in range(200):
            cw = encode(code, rng.integers(0, 2, size=12, dtype=np.uint8))
            y = modulate_bpsk(cw) + 0.7 * rng.normal(size=16)
            out = decoder.decode(code, SoftBlock(y, 0.49))
            assert out.status == "decoded"
            assert np.array_equal(out.codeword, ml_decode_bruteforce(code, y))

    def test_equals_ml_oracle_with_crc(self, rng):
        crc = CrcSpec("111")
        code = sample_rlc(8, 4, seed=6, crc=crc)
        decoder = SgrandabDecoder(256)
        for _ in range(500):
            y = rng.normal(size=8)
            out = decoder.decode(code, SoftBlock(y, 1.0))
            assert out.status == "decoded"
            assert np.array_equal(out.codeword, ml_decode_bruteforce(code, y))
            assert crc_check(crc, out.codeword[:code.k])

    def test_abandonment_reports_budget(self, rng):
        code = sample_rlc(32, 16, seed=7)
        y = rng.normal(size=32)  # unrelated noise, essentially never query-1
        out = SgrandabDecoder(3).decode(code, SoftBlock(y, 1.0))
        assert out.queries <= 3
        if out.status == "abandoned":
            assert out.codeword is None

    def test_noise_nll_matches_decision(self, rng):
        code = sample_rlc(16, 8, seed=8)
        cw = encode(code, rng.integers(0, 2, size=8, dtype=np.uint8))
        y = modulate_bpsk(cw) + 0.3 * rng.normal(size=16)
        out = SgrandabDecoder(1000).decode(code, SoftBlock(y, 0.09))
        z = y - modulate_bpsk(out.codeword)
        want = float(z @ z) / (2 * 0.09) + 16 * 0.5 * math.log(2 * math.pi * 0.09)
        assert out.noise_nll == pytest.approx(want, rel=1e-12)


class TestOrbgrandDecode:
    def test_noiseless_single_query(self, rng):
        code = sample_rlc(16, 11, seed=9)
        cw = encode(code, rng.integers(0, 2, size=11, dtype=np.uint8))
        out = OrbgrandDecoder(100).decode(code, SoftBlock(modulate_bpsk(cw), 0.4))
        assert out.status == "decoded" and out.queries == 1

    def test_decodes_to_valid_codewords(self, rng):
        code = sample_rlc(32, 26, seed=10)
        decoder = OrbgrandDecoder(5000)
        decoded = 0
        for _ in range(300):
            cw = encode(code, rng.integers(0, 2, size=26, dtype=np.uint8))
            y = modulate_bpsk(cw) + 0.6 * rng.normal(size=32)
            out = decoder.decode(code, SoftBlock(y, 0.36))
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
        out = OrbgrandDecoder(100).decode(code, SoftBlock(y, 1.0))
        assert out.status == "decoded"
        assert np.array_equal(out.codeword, cw)
        assert out.queries == 2

    @pytest.mark.parametrize("n, k, crc", [
        (72, 4, None),                   # 68 checks
        (80, 12, CrcSpec("10011")),   # 68 checks plus the CRC's 4
    ])
    def test_long_membership_check_follows_rank_stream(self, rng, n, k, crc):
        code = sample_rlc(n, k, seed=26, crc=crc)
        assert code.membership_check.shape[0] > 64
        hits = []
        for _ in range(40):
            message = rng.integers(0, 2, size=k, dtype=np.uint8)
            if crc is not None:
                message = crc_encode(crc, message[:code.payload_bits])
            y = modulate_bpsk(encode(code, message)) + 0.5 * rng.normal(size=n)
            pos, word = orbgrand_first_hit(code, y)
            out = OrbgrandDecoder(pos).decode(code, SoftBlock(y, 0.25))
            assert out.status == "decoded" and out.queries == pos
            assert np.array_equal(out.codeword, word)
            if pos > 1:
                out = OrbgrandDecoder(pos - 1).decode(code, SoftBlock(y, 0.25))
                assert out.status == "abandoned" and out.queries == pos - 1
            hits.append(pos)
        assert max(hits) > 16  # past the first chunk

    def test_hit_past_the_largest_chunk(self):
        # chunks stop doubling at 8192 rows, after row 16369; unrelated noise
        # puts this block's first hit several full chunks beyond that
        code = sample_rlc(48, 33, seed=27)
        y = np.random.default_rng(5).normal(size=48)
        pos, word = orbgrand_first_hit(code, y)
        assert pos > 16369 + 4 * 8192
        out = OrbgrandDecoder(10 ** 5).decode(code, SoftBlock(y, 1.0))
        assert out.status == "decoded" and out.queries == pos
        assert np.array_equal(out.codeword, word)
        out = OrbgrandDecoder(pos - 1).decode(code, SoftBlock(y, 1.0))
        assert out.status == "abandoned" and out.queries == pos - 1

    def test_determinism(self, rng):
        code = sample_rlc(24, 18, seed=12)
        y = rng.normal(size=24)
        soft = SoftBlock(y, 0.5)
        a = OrbgrandDecoder(4000).decode(code, soft)
        b = OrbgrandDecoder(4000).decode(code, soft)
        assert a.status == b.status and a.queries == b.queries
        if a.codeword is not None:
            assert np.array_equal(a.codeword, b.codeword)


class TestBpDecode:
    def test_noiseless_converges_first_iteration(self, rng):
        code = sample_regular_ldpc(24, 3, 6, seed=13)
        cw = encode(code, rng.integers(0, 2, size=code.k, dtype=np.uint8))
        out = BpDecoder(50).decode(code, SoftBlock(modulate_bpsk(cw), 0.25))
        assert out.status == "decoded" and out.queries == 1
        assert np.array_equal(out.codeword, cw)

    def test_single_erasure_repaired_in_one_iteration(self):
        from noisecycle.gf2 import SparseParityCheck, gf2_nullspace
        h = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
        g = gf2_nullspace(h)
        code = CodeSpec(g, h, sparse=SparseParityCheck.from_dense(h))
        y = np.array([1.0, 0.0, 1.0])  # middle bit erased, others confident
        out = BpDecoder(50).decode(code, SoftBlock(y, 0.5))
        assert out.status == "decoded" and out.queries == 1
        assert np.array_equal(out.codeword, [0, 0, 0])

    def test_codeword_failing_the_crc_reported_at_first_iteration(self, rng):
        crc = CrcSpec("10011")
        code = sample_regular_ldpc(24, 3, 6, seed=13, crc=crc)
        message = crc_encode(crc, rng.integers(0, 2, size=code.payload_bits,
                                               dtype=np.uint8))
        message[-1] ^= 1  # a codeword of the outer code, its CRC broken
        assert not crc_check(crc, message)
        cw = encode(code, message)
        out = BpDecoder(50).decode(code, SoftBlock(modulate_bpsk(cw), 0.25))
        assert out.status == "crc_failed" and out.queries == 1
        assert out.codeword is None

    def test_never_accepts_a_word_outside_the_code(self):
        # BP stops on the sparse view's checks, so a view missing a row of H
        # would stop on words H rejects: such a code cannot be built
        from noisecycle.gf2 import SparseParityCheck, gf2_nullspace
        h = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]], dtype=np.uint8)
        for view in (h[:2], np.concatenate([h[:2], h[:2]]), h[:, :3]):
            with pytest.raises(ValueError, match="sparse"):
                CodeSpec(gf2_nullspace(h), h, sparse=SparseParityCheck.from_dense(view))
        redundant = np.concatenate([h, h[:1] ^ h[1:2]])  # one more row in H's span
        code = CodeSpec(gf2_nullspace(h), h, sparse=SparseParityCheck.from_dense(redundant))
        out = BpDecoder(5).decode(code, SoftBlock(np.array([-1.0, -1.0, -1.0, 1.0]), 1.0))
        assert out.status != "crc_failed"

    def test_requires_sparse_parity_check(self):
        code = sample_rlc(8, 4, seed=14)
        with pytest.raises(ValueError):
            BpDecoder(10).decode(code, SoftBlock(np.ones(8), 1.0))

    def test_iteration_cap_reported_on_failure(self, rng):
        code = sample_regular_ldpc(24, 3, 6, seed=13)
        y = rng.normal(size=24) * 2.0
        out = BpDecoder(5).decode(code, SoftBlock(y, 4.0))
        assert out.queries <= 5
        if out.status != "decoded":
            assert out.codeword is None

    # n = 10: rows of degree 5, 3, 0, 1 and 6; column 10 is in no row
    IRREGULAR_ALIST = ("10 5\n2 6\n2 2 2 2 1 2 1 2 1 0\n5 3 0 1 6\n"
                       "1 5\n1 2\n1 5\n2 5\n1\n2 5\n4\n1 5\n5\n0\n"
                       "1 2 3 5 8\n2 4 6\n0\n7\n1 3 4 6 8 9\n")

    def test_equals_reference_on_alist_crc_and_degenerate_codes(self, rng):
        from noisecycle import code_from_parity_check, parse_alist
        alist = parse_alist(self.IRREGULAR_ALIST)
        empty = parse_alist("6 3\n0 0\n" + " ".join(["0"] * 6) + "\n0 0 0\n" + "0\n" * 9)
        codes = [sample_regular_ldpc(96, 3, 6, seed=13),
                 sample_regular_ldpc(96, 3, 6, seed=13, crc=CrcSpec("100000111")),
                 code_from_parity_check(alist),
                 code_from_parity_check(alist, crc=CrcSpec("1011")),
                 code_from_parity_check(empty)]
        statuses = set()
        for code in codes:
            for sigma2 in (0.3, 0.8, 2.0):
                for _ in range(20):
                    message = rng.integers(0, 2, size=code.payload_bits, dtype=np.uint8)
                    if code.crc is not None:
                        message = crc_encode(code.crc, message)
                    y = (modulate_bpsk(encode(code, message))
                         + math.sqrt(sigma2) * rng.normal(size=code.n))
                    soft = SoftBlock(y, sigma2)
                    for cap in (3, 50):
                        out = BpDecoder(cap).decode(code, soft)
                        assert outcome_key(out) == outcome_key(bp_reference(code, soft, cap))
                        statuses.add(out.status)
            # on the last word received, one ulp of message difference flips
            # a knife-edge hard decision
            for column in range(code.n):
                soft = SoftBlock(bp_knife_edge(code, y, 0.5, column), 0.5)
                out = BpDecoder(10).decode(code, soft)
                assert outcome_key(out) == outcome_key(bp_reference(code, soft, 10))
        assert statuses == {"decoded", "crc_failed", "abandoned"}

    def test_mixed_stops_in_one_workload_scale_batch(self):
        # the benchmark's LDPC code: in one call some rows stop at iteration
        # 1, some mid-way and some never (abandoned at the cap), and 16 rows
        # are knife edges of the first; on its CRC'd twin the last row, a
        # codeword whose message fails the CRC, ends crc_failed.  Every row
        # is what the reference and a decode of that row alone give, and a
        # permuted batch gives permuted outcomes
        crc = CrcSpec("100000111")
        codes = [sample_regular_ldpc(256, 3, 6, seed=51),
                 sample_regular_ldpc(256, 3, 6, seed=51, crc=crc)]
        rng = np.random.default_rng(52)
        messages = crc_encode(crc, rng.integers(0, 2, size=(33, 120), dtype=np.uint8))
        messages[-1, -1] ^= 1
        sigma = np.append(np.geomspace(0.35, 1.1, 32), 0.35)
        received = (modulate_bpsk(encode(codes[0], messages))
                    + sigma[:, None] * rng.normal(size=(33, 256)))
        knives = [bp_knife_edge(codes[0], received[0], 0.125, column)
                  for column in range(0, 256, 16)]
        received = np.concatenate([received[:32], knives, received[32:]])
        variances = np.concatenate([sigma[:32] ** 2, np.full(16, 0.125), sigma[32:] ** 2])
        order = rng.permutation(len(received))
        decoder = BpDecoder(20)
        for code in codes:
            keys = [outcome_key(out) for out in decoder.decode_batch(code, received, variances)]
            for key, y, v in zip(keys, received, variances.tolist()):
                soft = SoftBlock(y, v)
                assert key == outcome_key(bp_reference(code, soft, 20))
                assert key == outcome_key(decoder.decode(code, soft))
            permuted = decoder.decode_batch(code, received[order], variances[order])
            assert [outcome_key(out) for out in permuted] == [keys[i] for i in order]
            stops = {(status, 1 if it == 1 else 20 if it == 20 else "mid")
                     for status, it, _, _ in keys[:32]}
            assert stops == {("decoded", 1), ("decoded", "mid"), ("abandoned", 20)}
            assert keys[-1][:2] == ("decoded" if code.crc is None else "crc_failed", 1)

    @pytest.mark.slow
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
        decoder = BpDecoder(50)
        # batches of 32 rows draw the same noise as 32 draws of one row
        for start in range(0, trials, 32):
            rows = min(32, trials - start)
            y = x + sig * rng.standard_normal((rows, 1024))
            for out in decoder.decode_batch(code, y, np.full(rows, sigma2)):
                if out.status != "decoded" or not np.array_equal(out.codeword, cw):
                    errors += 1
        assert errors / trials < 1e-2


class TestDegenerateCodes:
    """Codes with no parity checks: n = k, or an alist whose H is all zero."""

    def test_full_rate_code_accepts_hard_decision_at_first_query(self, rng):
        code = sample_rlc(12, 12, seed=24)
        for _ in range(20):
            y = rng.normal(size=12)
            hard = (y < 0).astype(np.uint8)
            for decoder in (OrbgrandDecoder(5), SgrandabDecoder(5)):
                out = decoder.decode(code, SoftBlock(y, 1.0))
                assert out.status == "decoded" and out.queries == 1
                assert np.array_equal(out.codeword, hard)

    def test_full_rate_code_with_crc_decodes_to_ml(self, rng):
        code = sample_rlc(8, 8, seed=25, crc=CrcSpec("1011"))
        for _ in range(50):
            y = rng.normal(size=8)
            out = SgrandabDecoder(2 ** 8).decode(code, SoftBlock(y, 1.0))
            assert out.status == "decoded"
            assert np.array_equal(out.codeword, ml_decode_bruteforce(code, y))
            assert crc_check(code.crc, out.codeword)

    def test_all_zero_alist_decodes_at_first_iteration(self, rng):
        from noisecycle import code_from_parity_check, parse_alist
        text = "6 3\n0 0\n" + " ".join(["0"] * 6) + "\n0 0 0\n" + "0\n" * 9
        code = code_from_parity_check(parse_alist(text))
        assert (code.n, code.k) == (6, 6) and code.parity_check.shape == (0, 6)
        y = rng.normal(size=6)
        out = BpDecoder(50).decode(code, SoftBlock(y, 1.0))
        assert out.status == "decoded" and out.queries == 1
        assert np.array_equal(out.codeword, (y < 0).astype(np.uint8))


class TestConfidence:
    def _decoded(self, z, sigma2):
        # for |z| < 1 the hard decision of 1 + z is the all-zero codeword, so
        # the first ORBGRAND query accepts it and the decoded noise is z
        z = np.asarray(z, dtype=float)
        code = sample_rlc(z.size, 1, seed=0)
        out = OrbgrandDecoder(1).decode(code, SoftBlock(1.0 + z, sigma2))
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
        decoders = (SgrandabDecoder(2000), OrbgrandDecoder(2000))
        for _ in range(100):
            y = rng.normal(size=24)
            for decoder in decoders:
                out = decoder.decode(code, SoftBlock(y, 1.0))
                if out.status == "decoded":
                    assert not syndrome(code, out.codeword).any()

    def test_crc_bearing_codes_validate(self, rng):
        crc = CrcSpec("10011")
        code = sample_rlc(24, 16, seed=18, crc=crc)
        decoders = (SgrandabDecoder(4000), OrbgrandDecoder(4000))
        for _ in range(100):
            payload = rng.integers(0, 2, size=code.payload_bits, dtype=np.uint8)
            cw = encode(code, crc_encode(crc, payload))
            y = modulate_bpsk(cw) + 0.5 * rng.normal(size=24)
            for decoder in decoders:
                out = decoder.decode(code, SoftBlock(y, 0.25))
                if out.status == "decoded":
                    assert crc_check(crc, out.codeword[:code.k])
