import functools
import itertools
import math

import numpy as np
import pytest

from noisecycle import (BpDecoder, CodeSpec, CrcSpec, OrbgrandDecoder,
                        SgrandabDecoder, SoftBlock, confidence, crc_check,
                        crc_encode, encode, llrs, ml_decode_bruteforce, modulate_bpsk,
                        sample_regular_ldpc, sample_rlc, syndrome)
from noisecycle import decoders
from noisecycle.decoders import _BP_ROWS, orbgrand_rank_patterns
from noisecycle.gf2 import packed_syndromes

from conftest import (bp_knife_edge, bp_pool_widths, bp_reference, mod2, orbgrand_first_hit,
                      outcome_key, record_bp_widths, sgrandab_heap_search)


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

    @pytest.mark.parametrize("received, variance, field", [
        (np.ones(8), math.nan, "noise_variance"),
        (np.ones(8), math.inf, "noise_variance"),
        (np.ones(8), 0.0, "noise_variance"),
        (np.ones(8), -1.0, "noise_variance"),
        (np.full(8, np.nan), 1.0, "received"),
        (np.array([0.5, np.inf, -1.0]), 1.0, "received"),
        (np.array([0.5, -np.inf, -1.0]), 1.0, "received"),
    ])
    def test_non_finite_or_bad_variance_rejected(self, received, variance, field):
        # a NaN variance once decoded with noise_nll = nan, and an all-NaN
        # vector as the all-zero word
        with pytest.raises(ValueError, match=field):
            SoftBlock(received, variance)


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

    @staticmethod
    def _heap_order(r):
        """Every flip set as 0-based index tuples into the reliability order
        whose values are ``r``, the empty set first and the rest as
        SGRANDAB's heap pops them: by score, then in the order their parents
        popped, a grown set before a slid one.  The parent of (..., s, t) is
        (..., s) when s = t - 1 (t grown onto it) and (..., s, t - 1)
        otherwise (t slid up); (0,) is the root.  Scores must be exact sums."""
        @functools.cache
        def key(flips):
            score = sum(r[i] for i in flips)
            *head, t = flips
            if flips == (0,):
                return (score, ())
            if head and head[-1] == t - 1:
                return (score, key(tuple(head)), 0)
            return (score, key((*head, t - 1)), 1)

        n = len(r)
        rest = [c for size in range(1, n + 1) for c in itertools.combinations(range(n), size)]
        return [()] + sorted(rest, key=key)

    def test_tied_reliabilities_decode_in_stable_order(self, rng):
        # |y| on a grid of 0.5 ties often, and exactly, so both decoders run
        # their reliability order's tie rule: rank by position.  Each batch
        # also holds a row of equal |y|, a row of zeros and rows without ties;
        # all scores are exact sums
        n = self.N
        for code in (sample_rlc(n, 5, seed=19), sample_rlc(n, 5, seed=19, crc=CrcSpec("111"))):
            y = np.round(2 * rng.normal(size=(40, n))) / 2
            y[0] = np.where(rng.random(n) < 0.4, -0.5, 0.5)
            y[1, rng.permutation(n)[:4]] = 0.0
            y[2:6] = [rng.permutation(np.arange(1, n + 1) / 4) * rng.choice([-1, 1], n)
                      for _ in range(4)]
            assert (np.abs(y[0]) == 0.5).all() and np.count_nonzero(y[1] == 0) >= 4
            variances = np.ones(len(y))
            orbgrand = OrbgrandDecoder(10**6).decode_batch(code, y, variances)
            sgrandab = SgrandabDecoder(2**n).decode_batch(code, y, variances)
            ties = 0
            for row, orb, sgr in zip(y, orbgrand, sgrandab):
                order = np.argsort(np.abs(row), kind="stable")
                ties += len(np.unique(np.abs(row))) < n
                pos, word = orbgrand_first_hit(code, row)
                assert (orb.status, orb.queries) == ("decoded", pos)
                assert np.array_equal(orb.codeword, word)
                sets = [order[list(flips)] for flips in self._heap_order(np.abs(row)[order])]
                pos, word = self._first_hit(code, (row < 0).astype(np.uint8), sets)
                assert (sgr.status, sgr.queries) == ("decoded", pos)
                assert np.array_equal(sgr.codeword, word)
            assert ties > 30

    def test_reliability_order_is_the_stable_argsort(self, rng):
        x = np.round(4 * rng.random((40, 16))) / 4
        x[:8] = rng.random((8, 16))
        x[8] = 0.0
        x[9, [2, 11]] = np.inf
        x[10, [1, 5]] = -np.inf
        x[11, [3, 7, 8]] = np.nan
        x[12, 4] = np.nan
        order, ranked = decoders._reliability_order(x)
        stable = np.argsort(x, axis=1, kind="stable")
        assert np.array_equal(order, stable)
        assert np.array_equal(ranked, np.take_along_axis(x, stable, axis=1), equal_nan=True)

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
        # blocks whose hard decision is the all-zero codeword with the rank set at
        # a chosen position flipped, checked against the one-set-at-a-time oracle
        # with caps on and next to chunk edges and inside an 8192-row chunk
        wide = sample_rlc(72, 4, seed=26)  # 68 checks: two syndrome words
        crc = sample_rlc(72, 12, seed=26, crc=CrcSpec("10011"))
        stream = list(itertools.islice(orbgrand_rank_patterns(72), 12_001))
        order = rng.permutation(72)  # rank r at order[r - 1]
        for code, cap in [(wide, 16), (wide, 17), (wide, 48), (wide, 49), (wide, 113),
                          (wide, 12_000), (crc, 16), (crc, 49), (crc, 113), (crc, 9000)]:
            y = np.empty(72)
            y[order] = np.linspace(0.2, 1.2, 72)
            y[order[[r - 1 for r in stream[cap]]]] *= -1
            pos, word = orbgrand_first_hit(code, y)
            assert pos == cap + 1 and not word.any()
            out = OrbgrandDecoder(pos).decode(code, SoftBlock(y, 1.0))
            assert out.status == "decoded" and out.queries == pos
            assert np.array_equal(out.codeword, word)
            out = OrbgrandDecoder(cap).decode(code, SoftBlock(y, 1.0))
            assert out.status == "abandoned" and out.queries == cap
        # two hits in the chunk of rows 17-48, the later with fewer rank pairs:
        # rank sets {1, 2, 4} (row 18) and {8} (row 19) differ by the support
        # of a weight-4 codeword
        code, y, weight4 = self._two_hit_block()
        later = (y < 0).astype(np.uint8)
        later[np.argsort(np.abs(y))[7]] ^= 1  # rank 8
        pos, word = orbgrand_first_hit(code, y)
        assert pos == 19 and np.array_equal(later, weight4)
        out = OrbgrandDecoder(1000).decode(code, SoftBlock(y, 1.0))
        assert out.status == "decoded" and out.queries == pos
        assert np.array_equal(out.codeword, word)

    def test_orbgrand_batch_mixes_every_depth(self, rng):
        # one decode_batch call whose rows hit at query 1, in chunk 1, on both
        # sides of the edges of chunks 1 and 2, inside an 8192-row chunk and in
        # the chunk that the cap cuts, at the cap, or are abandoned one query
        # past it or further, each row with its own reliability order and
        # variance; every row is what the one-set-at-a-time oracle and a decode
        # of that row alone give, and a permuted batch gives permuted outcomes.
        # The higher cap first builds the cut chunk past the lower one.
        positions = [1, 2, 16, 17, 48, 49, 10_000, 19_999, 20_000, 20_001, 20_500]
        stream = list(itertools.islice(orbgrand_rank_patterns(72), max(positions)))
        batches = [(sample_rlc(72, 4, seed=26), [], positions),
                   (sample_rlc(72, 12, seed=26, crc=CrcSpec("10011")), [], positions)]
        for code, rows, _ in batches:
            for pos in positions:
                order = rng.permutation(72)  # rank r at order[r - 1]
                y = np.empty(72)
                y[order] = np.linspace(0.2, 1.2, 72)
                y[order[[r - 1 for r in stream[pos - 1]]]] *= -1
                rows.append(y)
        # and a block with two hits in one chunk, the first not the first in
        # the chunk's sorted order, next to unrelated noise
        code, y, _ = self._two_hit_block()
        batches.append((code, [y, *rng.normal(size=(6, 16))], [19]))
        for code, rows, constructed in batches:
            received = np.array(rows)
            variances = rng.uniform(0.5, 2.0, size=len(rows))
            hits = [orbgrand_first_hit(code, y) for y in received]
            assert [first for first, _ in hits[:len(constructed)]] == constructed
            for cap in (24_000, 20_000):
                decoder = OrbgrandDecoder(cap)
                record = decoder.decode_batch(code, received, variances)
                assert len(record) == len(rows)
                keys = []
                for out, y, v, (first, word) in zip(record, received, variances.tolist(), hits):
                    if first <= cap:
                        assert out.status == "decoded" and out.queries == first
                        assert np.array_equal(out.codeword, word)
                    else:
                        assert out.status == "abandoned" and out.queries == cap
                    keys.append(outcome_key(out))
                    assert keys[-1] == outcome_key(decoder.decode(code, SoftBlock(y, v)))
                order = rng.permutation(len(rows))
                permuted = decoder.decode_batch(code, received[order], variances[order])
                assert [outcome_key(out) for out in permuted] == [keys[i] for i in order]

    @staticmethod
    def _two_hit_block():
        """rlc[16,8], a block whose rank sets {1, 2, 4} (query 19) and {8}
        (query 20), in the chunk of rows 17-48, both hit, and the weight-4
        codeword whose support they differ by; the later has fewer rank
        pairs."""
        code = sample_rlc(16, 8, seed=0)
        weight4 = next(w for m in itertools.product([0, 1], repeat=8)
                       if (w := encode(code, np.array(m, dtype=np.uint8))).sum() == 4)
        order = np.empty(16, dtype=int)
        order[[0, 1, 3, 7]] = np.flatnonzero(weight4)
        order[[r for r in range(16) if r not in (0, 1, 3, 7)]] = np.flatnonzero(weight4 == 0)
        y = np.empty(16)
        y[order] = np.linspace(0.2, 1.2, 16)
        y[order[[0, 1, 3]]] *= -1
        return code, y, weight4

def _table_rows(table):
    """The 1-based rank sets that a rank table's chunks hold, in stream
    order, read back from their pair codes."""
    sets = {}
    for chunk in table.chunks:
        for at, row in enumerate(chunk.rows.tolist()):
            tail = len(chunk.rows) - at
            sets[chunk.start + row] = tuple(
                r + 1 for codes in chunk.pairs if len(codes) >= tail
                for r in divmod(int(codes[-tail]), table.n + 1) if r < table.n)
    assert sorted(sets) == list(range(1, len(sets) + 1))
    return [sets[row] for row in sorted(sets)]


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

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 32, 128])
    def test_rank_table_holds_the_stream(self, n):
        table = decoders._RankTable(n)
        chunks = list(table.chunks_below(40_000))
        want = list(itertools.islice(orbgrand_rank_patterns(n), 40_000))
        assert _table_rows(table) == want[1:]
        for chunk in chunks:
            assert all(codes.dtype == table.code_dtype for codes in chunk.pairs)
            first = max(int(codes.max()) // (n + 1) for codes in chunk.pairs)
            assert first < chunk.lead

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rank_matrix_runs_out_at_tiny_n(self, n, monkeypatch):
        monkeypatch.setattr(decoders, "_RANK_TABLES", {})
        table = decoders._RankTable(n)
        chunks = list(table.chunks_below(100))
        assert table.length == chunks[-1].stop == 2 ** n  # every subset of the n ranks, once
        assert _table_rows(table) == list(orbgrand_rank_patterns(n))[1:]
        assert all(a is b for a, b in zip(table.chunks_below(100), chunks, strict=True))

    def test_rank_matrix_bounded_by_largest_cap(self, monkeypatch):
        monkeypatch.setattr(decoders, "_RANK_TABLES", {})
        code = sample_rlc(32, 16, seed=7)
        y = np.random.default_rng(3).normal(size=32)  # unrelated noise
        for cap in (100, 40, 300):
            out = OrbgrandDecoder(cap).decode(code, SoftBlock(y, 1.0))
            assert out.status == "abandoned" and out.queries == cap
        table = decoders._RANK_TABLES[32]
        assert table.chunks[-1].stop == 300 and table.length is None
        assert all(chunk.rows.dtype == np.uint16 for chunk in table.chunks)
        head = list(itertools.islice(orbgrand_rank_patterns(32), 300))
        assert _table_rows(table) == head[1:]

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


class TestSgrandabAgainstTheHeap:
    """``SgrandabDecoder._search`` against the heap walk it replaced,
    ``sgrandab_heap_search``: equal queries and flips on every row at every
    cap, including where scores tie, fall one ulp below a parent's or
    overflow to +inf."""

    @staticmethod
    def _check(code, order, reliab, base, caps):
        for cap in caps:
            queries, (at, flips) = SgrandabDecoder(cap)._search(code, order, reliab, base)
            for i in range(len(order)):
                want, want_flips = sgrandab_heap_search(code, order[i], reliab[i], base[i], cap)
                got_flips = sorted(flips[at == i].tolist()) or None  # a hit flips something
                assert (int(queries[i]), got_flips) == (want, want_flips and sorted(want_flips))

    @staticmethod
    def _rows(code, rng, reliab):
        """Rows of ascending ``reliab``, each on its own order of the
        positions, with the syndromes of random hard decisions; the rows
        whose hard decision is accepted are dropped, as the prologue does."""
        reliab = np.asarray(reliab, dtype=float)
        order = np.array([rng.permutation(code.n) for _ in reliab])
        base = packed_syndromes(code, rng.integers(0, 2, size=order.shape, dtype=np.uint8))
        keep = base.any(axis=1)
        return order[keep], reliab[keep], base[keep]

    def test_near_tied_reliabilities(self, rng):
        # r = 0.7 (1 + k 2^-52): a slid set can round one ulp below its parent,
        # as (2,) does below (1,) in the first row
        k = np.sort(rng.integers(0, 8, size=(300, 8)), axis=1)
        k[0] = [0, 1, 1, 2, 3, 4, 5, 6]
        r = 0.7 * (1 + k * 2.0 ** -52)
        falls = 0
        for row in r:  # the singletons (t,), each slid from (t - 1,)
            score = [row[0]]
            for t in range(1, 8):
                score.append(score[-1] + row[t] - row[t - 1])
            falls += any(b < a for a, b in zip(score, score[1:]))
        assert falls > 100
        assert r[0, 0] + r[0, 1] - r[0, 0] + r[0, 2] - r[0, 1] < r[0, 0] + r[0, 1] - r[0, 0]
        for code in (sample_rlc(8, 3, seed=2), sample_rlc(8, 3, seed=2, crc=CrcSpec("11"))):
            self._check(code, *self._rows(code, rng, r), caps=(256, 40, 5, 2, 1))

    def test_exact_ties_zeros_and_overflow(self, rng):
        # |y| on a grid of 0.5, rows of one value, rows of zeros, and values
        # near the float maximum whose sums are +inf and tie there
        y = np.abs(np.round(2 * rng.normal(size=(120, 10))) / 2)
        y[:10] = 0.5
        y[10:20] = 0.0
        y[20:30, 4:] = 0.0
        y[30:40] = rng.uniform(0.5, 1.0, size=(10, 10)) * 1.7e308
        for code in (sample_rlc(10, 5, seed=19), sample_rlc(10, 5, seed=19, crc=CrcSpec("111"))):
            self._check(code, *self._rows(code, rng, np.sort(y, axis=1)), caps=(1024, 17, 2, 1))

    @pytest.mark.parametrize("code", [sample_rlc(72, 4, seed=26),  # 68 checks: two words
                                      sample_rlc(72, 12, seed=26, crc=CrcSpec("10011"))],
                             ids=["two-words", "two-words-crc"])
    def test_long_membership_check_and_caps_at_the_hit(self, code, rng):
        order, reliab, base = self._rows(code, rng, np.sort(rng.exponential(size=(40, 72)), axis=1))
        self._check(code, order, reliab, base, caps=(3000, 2, 1))
        hits = sorted({sgrandab_heap_search(code, *args, 3000)[0]
                       for args in zip(order, reliab, base)} - {2, 3000})
        for hit in hits[:: max(1, len(hits) // 3)]:  # a cap at a row's hit, and one below
            self._check(code, order, reliab, base, caps=(hit, hit - 1))

    def test_a_call_mixes_hits_at_query_two_with_abandoned_rows(self, rng):
        code = sample_rlc(64, 46, seed=31, crc=CrcSpec("100000111"))  # the C6 code
        order, reliab, base = self._rows(code, rng, np.sort(rng.exponential(size=(48, 64)), axis=1))
        base[::3] = code.column_words[order[::3, 0]]  # flipping the least reliable is a hit
        queries, _ = SgrandabDecoder(50)._search(code, order, reliab, base)
        assert (queries[::3] == 2).all() and (queries == 50).sum() > 10
        self._check(code, order, reliab, base, caps=(50, 400))

    def test_rounds_stay_within_the_cap_on_long_ties(self, rng, monkeypatch):
        # at n = 128: 40 exact zeros, where 2^40 sets score 0; one |y| for every
        # position, as a hard decision gives, where all sets of a size tie; and
        # distinct values within 1e-9 of each other, whose sums tie or crowd a
        # round past its room
        code = sample_rlc(128, 100, seed=3)
        reliab = np.empty((3, 128))
        reliab[0] = np.sort(np.concatenate([np.zeros(40), rng.exponential(size=88)]))
        reliab[1] = 2.0
        reliab[2] = np.sort(1.0 + 1e-9 * rng.random(128))
        order, reliab, base = self._rows(code, rng, reliab)
        sets, queued = [], []
        expand, queue = decoders._expand, decoders._queue_search

        def counted(*args):
            out = expand(*args)
            sets.append(len(out[0].at))
            return out

        monkeypatch.setattr(decoders, "_expand", counted)
        monkeypatch.setattr(decoders, "_queue_search", lambda *args: queued.append(
            args[1][0]) or queue(*args))
        for cap in (3, 40, 2000):
            for row in range(len(order)):  # a lone row's round holds _ROUND_SETS sets a root
                sets.clear()
                self._check(code, *(a[row:row + 1] for a in (order, reliab, base)), caps=(cap,))
                assert max(sets, default=0) <= decoders._ROUND_SETS * cap
            self._check(code, order, reliab, base, caps=(cap,))
        assert sorted(set(queued)) == sorted(set(reliab[:, 0]))  # every row ends in the queue


class TestGroupSplits:
    """Both guessing searches split a group of rows in two when it would
    pass ``decoders._GROUP_WORDS``; no split may change an output."""

    @pytest.mark.parametrize("decoder", [OrbgrandDecoder(600), SgrandabDecoder(600)],
                             ids=["orbgrand", "sgrandab"])
    def test_forced_splits_change_no_output(self, decoder, rng, monkeypatch):
        code = sample_rlc(64, 46, seed=31, crc=CrcSpec("100000111"))  # the C6 code
        y = 1.0 + 0.55 * rng.normal(size=(40, 64))  # the all-zero word: every depth
        y[:8] = np.round(8 * y[:8]) / 8  # tied scores: SGRANDAB's queue searches these
        variances = np.full(40, 0.3025)
        # ORBGRAND walks the chunks once a group; a SGRANDAB round holds one group's rows
        groups = []
        walk, expand = decoders._RankTable.chunks_below, decoders._expand
        monkeypatch.setattr(decoders._RankTable, "chunks_below",
                            lambda table, cap: groups.append(1) or walk(table, cap))
        monkeypatch.setattr(decoders, "_expand", lambda roots, *args: groups.append(
            len(np.unique(roots.at // code.n))) or expand(roots, *args))
        want = [outcome_key(out) for out in decoder.decode_batch(code, y, variances)]
        searched = sum(key[1] > 1 for key in want)
        assert len({key[1] for key in want}) > 10 and ("abandoned", 600) in {k[:2] for k in want}
        unsplit = len(groups)
        for words in (1 << 11, 1):  # splits within the search, then at every step
            monkeypatch.setattr(decoders, "_GROUP_WORDS", words)
            groups.clear()
            assert [outcome_key(out) for out in decoder.decode_batch(code, y, variances)] == want
            assert len(groups) > unsplit
            if isinstance(decoder, OrbgrandDecoder):
                assert (len(groups) == 2 * searched - 1) == (words == 1)  # a group a row
            else:
                assert (max(groups) == 1) == (words == 1)  # each round a row's alone


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

    def test_mixed_stops_in_one_workload_scale_batch(self, monkeypatch):
        # the benchmark's LDPC code: in one call some rows stop at iteration
        # 1, some mid-way and some never (abandoned at the cap), and 16 rows
        # are knife edges of the first; on its CRC'd twin the 49th row, a
        # codeword whose message fails the CRC, ends crc_failed.  Four copies
        # of the first 32 rows queue behind those 49, so rows that stop at
        # iteration 1 and rows abandoned at the cap both hand their slots to
        # queued rows.  Every row is what the reference and a decode of that
        # row alone give, and a permuted batch gives permuted outcomes
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
        source = np.concatenate([np.arange(len(received)), np.tile(np.arange(32), 4)])
        batch, batch_variances = received[source], variances[source]
        order = rng.permutation(len(batch))
        decoder = BpDecoder(20)
        widths = record_bp_widths(monkeypatch)
        for code in codes:
            widths.clear()
            record = decoder.decode_batch(code, batch, batch_variances)
            schedule, handoffs = bp_pool_widths(record.queries.tolist(), _BP_ROWS)
            assert widths == schedule and max(widths) == _BP_ROWS
            keys = [outcome_key(out) for out in record]
            assert {keys[row][:2] for row, _, _ in handoffs} >= {
                ("decoded", 1), ("abandoned", 20)}
            assert keys == [keys[i] for i in source]  # a copy decodes as its original
            for key, y, v in zip(keys, received, variances.tolist()):
                soft = SoftBlock(y, v)
                assert key == outcome_key(bp_reference(code, soft, 20))
                assert key == outcome_key(decoder.decode(code, soft))
            permuted = decoder.decode_batch(code, batch[order], batch_variances[order])
            assert [outcome_key(out) for out in permuted] == [keys[i] for i in order]
            stops = {(status, 1 if it == 1 else 20 if it == 20 else "mid")
                     for status, it, _, _ in keys[:32]}
            assert stops == {("decoded", 1), ("decoded", "mid"), ("abandoned", 20)}
            assert keys[48][:2] == ("decoded" if code.crc is None else "crc_failed", 1)

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
    @pytest.mark.parametrize("decoder", [OrbgrandDecoder(50), SgrandabDecoder(50), BpDecoder(5)],
                             ids=["orbgrand", "sgrandab", "bp"])
    @pytest.mark.parametrize("received, variances, field", [
        # an all-NaN row once decoded at query 1 with noise_nll = nan, a
        # variance of -1 ran to the cap and one of 0 raised a bare math error
        (np.array([[0.5] * 24, [np.nan] * 24]), [1.0, 1.0], "received"),
        (np.array([[0.5] * 24, [0.5] * 23 + [np.inf]]), [1.0, 1.0], "received"),
        (np.full((2, 24), 0.5), [1.0, -1.0], "variances"),
        (np.full((2, 24), 0.5), [0.0, 1.0], "variances"),
        (np.full((2, 24), 0.5), [1.0, np.nan], "variances"),
        (np.full((2, 24), 0.5), [1.0, np.inf], "variances"),
        (np.full((2, 24), 0.5), [1.0, 1.0, 1.0], "variances"),
        (np.full((2, 23), 0.5), [1.0, 1.0], "received"),
        (np.full(24, 0.5), [1.0], "received"),
        # finite, but 2 y / variance overflows: decoding ran on infinite LLRs, and
        # SGRANDAB's slid scores were inf - inf
        (np.array([[0.5] * 24, [2e10] + [0.5] * 23]), [1.0, 1e-300], "received and variances"),
        # finite LLRs, but the noise NLL's sum(z^2) overflows: a decoded row
        # reported noise_nll = inf, which the noise_nll lead choice reads as failed
        (np.array([[0.5] * 24, [-1e200, 1e200] * 12]), [1.0, 1.0], "received and variances"),
    ])
    def test_batch_input_checked(self, decoder, received, variances, field):
        code = sample_regular_ldpc(24, 3, 6, seed=1)
        with pytest.raises(ValueError, match=f"^{field}"):
            decoder.decode_batch(code, received, np.array(variances))
        assert len(decoder.decode_batch(code, np.full((2, 24), 0.5), np.ones(2))) == 2

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
