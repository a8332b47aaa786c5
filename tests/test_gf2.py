import re

import numpy as np
import pytest

from noisecycle import (CodeSpec, CrcSpec, SparseParityCheck,
                        code_from_parity_check, crc_check, crc_encode, encode,
                        ml_decode_bruteforce, parse_alist, sample_regular_ldpc,
                        sample_rlc, serialize_alist, syndrome)
from noisecycle.gf2 import (AlistError, gf2_nullspace, gf2_rank, gf2_row_reduce, pack_rows,
                            packed_syndromes)

from conftest import crc_longdivision, enumerate_codebook, mod2


class TestEncode:
    def test_zero_message_gives_zero_codeword(self):
        code = sample_rlc(16, 8, seed=1)
        assert not encode(code, np.zeros(8, dtype=np.uint8)).any()

    def test_unit_vectors_select_generator_rows(self):
        code = sample_rlc(12, 5, seed=2)
        for i in range(5):
            unit = np.zeros(5, dtype=np.uint8)
            unit[i] = 1
            assert np.array_equal(encode(code, unit), code.generator[i])

    def test_random_encodings_have_zero_syndrome(self, rng):
        code = sample_rlc(8, 4, seed=3)
        for _ in range(50):
            msg = rng.integers(0, 2, size=4, dtype=np.uint8)
            cw = encode(code, msg)
            assert np.array_equal(cw, mod2(msg, code.generator))
            assert not mod2(code.parity_check, cw).any()

    def test_length_mismatch_rejected(self):
        code = sample_rlc(8, 4, seed=3)
        with pytest.raises(ValueError):
            encode(code, np.zeros(5, dtype=np.uint8))

    @pytest.mark.parametrize("k", [1, 7, 8, 9, 110, 128, 300])
    def test_byte_tables_equal_the_dense_product(self, k, rng):
        # k on both sides of byte edges and past 256; n from one to six
        # 64-bit words, a full-rate code among them
        for n in (k, k + 1, k + 64):
            code = sample_rlc(n, k, seed=k + n)
            for shape in [(k,), (1, k), (33, k), (2, 5, k), (0, k)]:
                msg = rng.integers(0, 2, size=shape, dtype=np.uint8)
                word = encode(code, msg)
                assert word.dtype == np.uint8 and word.shape == shape[:-1] + (n,)
                assert np.array_equal(word, mod2(msg, code.generator))

    def test_systematic_prefix_is_message(self, rng):
        code = sample_rlc(32, 20, seed=9)
        msg = rng.integers(0, 2, size=20, dtype=np.uint8)
        assert np.array_equal(encode(code, msg)[:20], msg)


class TestSyndrome:
    def test_codeword_syndrome_zero(self, rng):
        code = sample_rlc(10, 4, seed=4)
        cw = encode(code, rng.integers(0, 2, size=4, dtype=np.uint8))
        assert not syndrome(code, cw).any()

    def test_single_flip_gives_parity_column(self, rng):
        code = sample_rlc(10, 4, seed=4)
        cw = encode(code, rng.integers(0, 2, size=4, dtype=np.uint8))
        for i in range(code.n):
            flipped = cw.copy()
            flipped[i] ^= 1
            assert np.array_equal(syndrome(code, flipped), code.parity_check[:, i])

    def test_membership_matches_codebook_enumeration(self, rng):
        code = sample_rlc(8, 4, seed=5)
        book = {bytes(w) for w in enumerate_codebook(code.generator)}
        for _ in range(200):
            word = rng.integers(0, 2, size=8, dtype=np.uint8)
            assert (not syndrome(code, word).any()) == (bytes(word) in book)

    def test_length_mismatch_rejected(self):
        code = sample_rlc(8, 4, seed=5)
        with pytest.raises(ValueError):
            syndrome(code, np.zeros(7, dtype=np.uint8))


class TestSampleRlc:
    def test_full_rate_code_is_identity(self):
        code = sample_rlc(4, 4, seed=11)
        assert np.array_equal(code.generator, np.eye(4, dtype=np.uint8))
        assert code.parity_check.shape == (0, 4)
        assert code.rate == 1.0

    def test_deterministic_in_seed(self):
        a = sample_rlc(128, 110, seed=77)
        b = sample_rlc(128, 110, seed=77)
        assert np.array_equal(a.generator, b.generator)
        assert np.array_equal(a.parity_check, b.parity_check)

    def test_generator_annihilates_parity_check(self):
        code = sample_rlc(8, 4, seed=6)
        assert not mod2(code.generator, code.parity_check.T).any()
        assert gf2_rank(code.generator) == 4

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            sample_rlc(4, 0, seed=1)
        with pytest.raises(ValueError):
            sample_rlc(4, 5, seed=1)


class TestCrc:
    def test_textbook_remainder(self):
        crc = CrcSpec("1011")
        msg = np.array([1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 1, 0, 0], dtype=np.uint8)
        out = crc_encode(crc, msg)
        assert np.array_equal(out[-3:], [1, 0, 0])
        assert np.array_equal(out[-3:], crc_longdivision(msg, [1, 0, 1, 1]))

    def test_matches_long_division_on_random_messages(self, rng):
        crc = CrcSpec("100000111")
        for _ in range(40):
            msg = rng.integers(0, 2, size=int(rng.integers(9, 60)), dtype=np.uint8)
            out = crc_encode(crc, msg)
            assert np.array_equal(out[-8:], crc_longdivision(msg, crc.taps))

    def test_zero_message_zero_remainder(self):
        crc = CrcSpec("1011")
        assert not crc_encode(crc, np.zeros(10, dtype=np.uint8))[-3:].any()

    def test_round_trip(self, rng):
        crc = CrcSpec("110101")
        for _ in range(20):
            msg = rng.integers(0, 2, size=17, dtype=np.uint8)
            assert crc_check(crc, crc_encode(crc, msg))

    def test_every_single_bit_flip_detected(self, rng):
        crc = CrcSpec("100000111")
        word = crc_encode(crc, rng.integers(0, 2, size=30, dtype=np.uint8))
        for i in range(word.size):
            flipped = word.copy()
            flipped[i] ^= 1
            assert not crc_check(crc, flipped)

    def test_random_word_acceptance_rate(self, rng):
        # acceptance probability of an unrelated word is ~2^-degree
        crc = CrcSpec("100000111")
        words = rng.integers(0, 2, size=(100_000, 24), dtype=np.uint8)
        hits = sum(crc_check(crc, w) for w in words)
        rate = hits / 100_000
        sigma = np.sqrt(2.0**-8 * (1 - 2.0**-8) / 100_000)
        assert abs(rate - 2.0**-8) < 4 * sigma

    def test_word_too_short(self):
        crc = CrcSpec("100000111")
        with pytest.raises(ValueError):
            crc_check(crc, np.zeros(8, dtype=np.uint8))

    def test_bad_polynomial_rejected(self):
        with pytest.raises(ValueError, match="leading"):
            CrcSpec("0011")
        with pytest.raises(ValueError, match="degree"):
            CrcSpec("1")
        with pytest.raises(ValueError, match="bit string"):
            CrcSpec("10a1")

    def test_degree_read_from_polynomial(self):
        assert CrcSpec("1011").degree == 3 and CrcSpec("100000111").degree == 8


ALIST_EXAMPLE = "4 2\n1 2\n1 1 1 1\n2 2\n1\n1\n2\n2\n1 2\n3 4\n"


def alist_edited(lines: dict[int, str], drop: int = 0) -> str:
    """``ALIST_EXAMPLE`` with the 1-based ``lines`` replaced and its last
    ``drop`` lines removed."""
    text = ALIST_EXAMPLE.splitlines()
    for number, line in lines.items():
        text[number - 1] = line
    return "\n".join(text[: len(text) - drop]) + "\n"


class TestAlist:
    EXAMPLE = ALIST_EXAMPLE

    def test_hand_constructed_matrix(self):
        sp = parse_alist(self.EXAMPLE)
        assert sp.n == 4 and sp.m_rows == 2
        assert sp.col_rows == ((0,), (0,), (1,), (1,))
        assert np.array_equal(sp.to_dense(),
                              [[1, 1, 0, 0], [0, 0, 1, 1]])

    def test_out_of_range_index_names_line(self):
        bad = self.EXAMPLE.replace("3 4", "3 5")
        with pytest.raises(AlistError, match="line 10"):
            parse_alist(bad)

    @pytest.mark.parametrize("text, message", [
        (alist_edited({}, drop=1), "line 10: unexpected end of file"),
        (alist_edited({7: "2 x"}), "line 7: invalid literal for int()"),
        (alist_edited({1: "4"}), "line 1: header must be two positive integers"),
        (alist_edited({1: "4 0"}), "line 1: header must be two positive integers"),
        (alist_edited({3: "1 1 1"}), "line 3: expected 4 column degrees, got 3"),
        (alist_edited({4: "2 2 2"}), "line 4: expected 2 row degrees, got 3"),
        (alist_edited({6: "1 2"}), "line 6: column 2 lists 2 entries, degree says 1"),
        (alist_edited({9: "1 0"}), "line 9: row 1 lists 1 entries, degree says 2"),
        (alist_edited({5: "3"}), "line 5: column 1: row index 3 out of range 1..2"),
        (alist_edited({10: "0 4"}), "line 10: row 2 lists 1 entries, degree says 2"),
        (alist_edited({10: "3 5"}), "line 10: row 2: column index 5 out of range 1..4"),
        (alist_edited({9: "1 3", 10: "2 4"}),
         "line 5..10: row and column adjacency views are inconsistent"),
        # as sets the views agree, but row 1 would put a double edge in the Tanner graph
        (alist_edited({3: "1 0 1 1", 6: "", 9: "1 1"}), "line 9: row 1 lists a column twice"),
        (alist_edited({3: "2 1 1 1", 5: "1 1"}), "line 5: column 1 lists a row twice"),
        (alist_edited({2: "9 9"}), "line 2: expected the maximum degrees 1 2 of lines 3-4"),
        (ALIST_EXAMPLE + "\n7 7 7\n", "line 12: unexpected line after the last row list"),
    ])
    def test_malformed_file_names_its_line(self, text, message):
        with pytest.raises(AlistError, match="^" + re.escape(message)):
            parse_alist(text)

    def test_inconsistent_views_rejected(self):
        bad = self.EXAMPLE.replace("\n1 2\n3 4\n", "\n1 3\n2 4\n")
        with pytest.raises(AlistError):
            parse_alist(bad)

    def test_trailing_blank_lines_allowed(self):
        assert parse_alist(ALIST_EXAMPLE + "\n  \n") == parse_alist(ALIST_EXAMPLE)

    def test_zero_padding_ignored(self):
        padded = "4 2\n1 2\n1 1 1 1\n2 2\n1 0\n1 0\n2 0\n2 0\n1 2\n3 4\n"
        assert parse_alist(padded) == parse_alist(self.EXAMPLE)

    def test_round_trip_random_matrices(self, rng):
        for _ in range(20):
            h = (rng.random((5, 12)) < 0.25).astype(np.uint8)
            h[0, 0] = 1  # avoid the all-zero corner case
            sp = SparseParityCheck.from_dense(h)
            assert parse_alist(serialize_alist(sp)) == sp


def nullspace_by_loop(mat):
    """The nullspace basis read off the RREF one entry at a time (reference)."""
    red, pivots = gf2_row_reduce(mat)
    free = [c for c in range(red.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), red.shape[1]), dtype=np.uint8)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for row, p in enumerate(pivots):
            basis[i, p] = red[row, f]
    return basis


class TestNullspace:
    @pytest.mark.parametrize("rows, cols, density", [
        (5, 12, 0.3), (12, 30, 0.2), (8, 8, 0.5), (3, 20, 0.0), (1, 1, 1.0), (6, 4, 0.6)])
    def test_equals_the_entrywise_reference(self, rng, rows, cols, density):
        for _ in range(10):
            mat = (rng.random((rows, cols)) < density).astype(np.uint8)
            basis = gf2_nullspace(mat)
            assert basis.dtype == np.uint8
            assert np.array_equal(basis, nullspace_by_loop(mat))
            assert not mod2(mat, basis.T).any()


class TestRegularLdpc:
    def test_degree_regularity(self):
        code = sample_regular_ldpc(6, 2, 3, seed=8)
        h = code.sparse.to_dense()
        assert (h.sum(axis=0) == 2).all()
        assert (h.sum(axis=1) == 3).all()

    def test_generator_orthogonal_to_full_sparse_h(self):
        code = sample_regular_ldpc(24, 3, 6, seed=8)
        assert not mod2(code.generator, code.sparse.to_dense().T).any()
        assert not mod2(code.generator, code.parity_check.T).any()

    def test_rank_deficiency_reported(self):
        # even column weight forces dependent rows, so k > n - m_rows
        code = sample_regular_ldpc(6, 2, 3, seed=8)
        h = code.sparse.to_dense()
        assert code.k == 6 - gf2_rank(h)
        assert code.k > 6 - h.shape[0] or gf2_rank(h) == h.shape[0]

    def test_divisibility_required(self):
        with pytest.raises(ValueError):
            sample_regular_ldpc(7, 2, 3, seed=1)

    def test_crc_attaches_without_changing_the_code(self):
        crc = CrcSpec("10011")
        plain = sample_regular_ldpc(24, 3, 6, seed=8)
        with_crc = sample_regular_ldpc(24, 3, 6, seed=8, crc=crc)
        assert with_crc.crc == crc and plain.crc is None
        assert (with_crc.label, with_crc.k) == (plain.label, plain.k)
        assert plain.label == f"ldpc(3,6)[24,{plain.k}]s8"
        assert np.array_equal(with_crc.generator, plain.generator)
        assert np.array_equal(with_crc.parity_check, plain.parity_check)
        assert with_crc.sparse == plain.sparse


class TestCodeFromParityCheck:
    # third row is the sum of the first two, so rank 2 and k = 5 - 2
    H = np.array([[1, 1, 0, 1, 0],
                  [0, 1, 1, 0, 1],
                  [1, 0, 1, 1, 1]], dtype=np.uint8)

    def test_redundant_rows(self):
        code = code_from_parity_check(self.H, label="toy")
        assert (code.n, code.k, code.label) == (5, 3, "toy")
        assert code.parity_check.shape == (2, 5)
        assert not mod2(code.generator, self.H.T).any()
        assert gf2_rank(np.vstack([code.parity_check, self.H])) == 2
        assert code.sparse == SparseParityCheck.from_dense(self.H)

    def test_sparse_input_kept_and_label_from_dimensions(self):
        sparse = SparseParityCheck.from_dense(self.H)
        crc = CrcSpec("11")
        code = code_from_parity_check(sparse, crc=crc,
                                      label=lambda n, k: f"toy[{n},{k}]")
        assert code.sparse is sparse
        assert code.label == "toy[5,3]" and code.crc == crc
        dense = code_from_parity_check(self.H)
        assert np.array_equal(code.generator, dense.generator)
        assert np.array_equal(code.parity_check, dense.parity_check)


class TestCodeSpecRank:
    G = np.array([[1, 1, 1, 1]], dtype=np.uint8)

    def test_rank_deficient_parity_check_rejected(self):
        # G H^T = 0, but the repeated row leaves rank 2 < n - k, so [1 1 0 0]
        # would pass H although the code is {0000, 1111}
        h = np.array([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1]], dtype=np.uint8)
        assert not mod2(self.G, h.T).any()
        assert not mod2(h, np.array([1, 1, 0, 0])).any()
        with pytest.raises(ValueError, match="parity_check"):
            CodeSpec(self.G, h)

    def test_full_rank_parity_check_accepted(self):
        h = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]], dtype=np.uint8)
        code = CodeSpec(self.G, h)
        assert syndrome(code, [1, 1, 0, 0]).any()


class TestDerivedLayouts:
    @pytest.mark.parametrize("n, k, crc, words", [
        (16, 11, None, 1),
        (16, 11, CrcSpec("111"), 1),
        (72, 4, None, 2),   # 68 checks: two words per column
        (12, 12, None, 0),  # no checks at all
    ])
    def test_column_words_cached_per_code(self, n, k, crc, words):
        code = sample_rlc(n, k, seed=3, crc=crc)
        assert "column_words" not in vars(code)  # built on first use
        packed = code.column_words
        assert packed is code.column_words
        assert packed.dtype == np.uint64 and packed.shape == (n + 1, words)
        assert np.array_equal(packed[:n], pack_rows(code.membership_check.T))
        assert not packed[n].any()
        # bit r % 64 of word r // 64 in row j is M[r, j]
        rows = np.arange(code.membership_check.shape[0])
        bits = (packed[:n, rows // 64] >> (rows % 64).astype(np.uint64)) & np.uint64(1)
        assert np.array_equal(bits.T, code.membership_check)

    ALL_ZERO_ALIST = "6 3\n0 0\n" + " ".join(["0"] * 6) + "\n0 0 0\n" + "0\n" * 9

    @pytest.mark.parametrize("build, words", [
        (lambda: sample_rlc(12, 12, seed=3), 0),  # full rate: no checks at all
        (lambda: code_from_parity_check(parse_alist(TestDerivedLayouts.ALL_ZERO_ALIST)), 0),
        (lambda: sample_rlc(8, 8, seed=23, crc=CrcSpec("1011")), 1),  # the CRC's checks alone
        (lambda: sample_rlc(16, 11, seed=3), 1),
        (lambda: sample_rlc(13, 5, seed=4, crc=CrcSpec("111")), 1),
        (lambda: sample_rlc(72, 4, seed=3), 2),
        (lambda: sample_rlc(150, 20, seed=5, crc=CrcSpec("100000111")), 3),
        (lambda: sample_regular_ldpc(60, 3, 6, seed=2, crc=CrcSpec("10011")), 1),
    ])
    def test_packed_syndromes_equal_the_dense_product(self, build, words, rng):
        # n on and off byte edges; 0, 1 and 2+ words per column
        code = build()
        assert "_syndrome_table" not in vars(code)  # built on first use
        n, checks = code.n, code.membership_check.shape[0]
        assert -(-checks // 64) == words
        bits = rng.integers(0, 2, size=(3, 5, n), dtype=np.uint8)
        message = rng.integers(0, 2, size=code.payload_bits, dtype=np.uint8)
        bits[0, 0] = encode(code, crc_encode(code.crc, message) if code.crc else message)
        bits[0, 1] = 0
        got = packed_syndromes(code, bits)
        assert got.dtype == np.uint64 and got.shape == (3, 5, words)
        want = mod2(bits.reshape(-1, n), code.membership_check.T)
        assert np.array_equal(got.reshape(15, words), pack_rows(want))
        assert not got[0, :2].any()
        assert np.array_equal(packed_syndromes(code, bits.astype(bool)), got)
        assert np.array_equal(packed_syndromes(code, bits[1, 2]), got[1, 2])
        assert packed_syndromes(code, bits[:0]).shape == (0, 5, words)
        with pytest.raises(ValueError, match=f"length {n}"):
            packed_syndromes(code, bits[..., 1:])

    def test_tanner_layout_cached_per_parity_check(self):
        code = sample_regular_ldpc(12, 3, 6, seed=2)
        lay = code.sparse.tanner
        assert lay is code.sparse.tanner
        assert lay.slot_cols.shape == (6, 6)
        assert lay.col_slots.shape == (3, 12)
        irregular = np.array([[0, 0, 0, 0, 0], [0, 0, 1, 0, 0], [1, 1, 0, 1, 0],
                              [1, 0, 1, 1, 1]], dtype=np.uint8)
        for h in (code.sparse.to_dense(), irregular, np.zeros((3, 4), np.uint8)):
            sparse = SparseParityCheck.from_dense(h)
            lay, (m_rows, n) = sparse.tanner, h.shape
            assert lay.slot_cols.shape == (h.sum(axis=1).max(), m_rows)
            assert lay.col_slots.shape == (h.sum(axis=0).max(), n)
            for r in range(m_rows):
                # each row's padded column list is exactly that row's ones
                ones = np.flatnonzero(h[r])
                assert np.array_equal(lay.slot_cols[:ones.size, r], ones)
                assert (lay.slot_cols[ones.size:, r] == n).all()
            flat = lay.slot_cols.ravel()
            for c in range(n):
                # each column's slots in ascending row order, then the pad
                rows = np.flatnonzero(h[:, c])
                slots = lay.col_slots[:rows.size, c]
                assert (flat[slots] == c).all()
                assert np.array_equal(slots % m_rows, rows)
                assert (lay.col_slots[rows.size:, c] == flat.size).all()


class TestMembershipCheck:
    """The membership check's null space is exactly the codewords whose
    message is payload || CRC(payload), by long division."""

    @staticmethod
    def _words(n):
        idx = np.arange(2 ** n)
        return ((idx[:, None] >> np.arange(n)) & 1).astype(np.uint8)

    def _accepted(self, code):
        words = self._words(code.n)
        return {w.tobytes() for w in words if not mod2(code.membership_check, w).any()}

    def _crc_codebook(self, code, crc):
        poly = [int(b) for b in crc.polynomial]
        msgs = [np.concatenate([u, crc_longdivision(u, poly)])
                for u in self._words(code.payload_bits)]
        return {mod2(m, code.generator).astype(np.uint8).tobytes() for m in msgs}

    def test_without_crc_it_is_the_parity_check(self):
        code = sample_rlc(12, 7, seed=21)
        assert code.membership_check is code.parity_check

    @pytest.mark.parametrize("build", [
        lambda crc: sample_rlc(10, 6, seed=22, crc=crc),
        lambda crc: sample_regular_ldpc(12, 3, 4, seed=19, crc=crc),  # non-systematic G
    ])
    def test_crc_adds_its_checks(self, build):
        crc = CrcSpec("111")
        code = build(crc)
        assert code.membership_check.shape == (code.n - code.k + crc.degree, code.n)
        assert gf2_rank(code.membership_check) == code.n - code.payload_bits
        assert self._accepted(code) == self._crc_codebook(code, crc)

    def test_full_rate_code_checks_the_crc_alone(self):
        crc = CrcSpec("1011")
        code = sample_rlc(8, 8, seed=23, crc=crc)  # G = I, H has no rows
        assert code.parity_check.shape == (0, 8)
        assert code.membership_check.shape == (3, 8)
        words = self._words(8)
        assert self._accepted(code) == {w.tobytes() for w in words if crc_check(crc, w)}


class TestMlBruteforce:
    def test_exact_codeword_recovered(self, rng):
        code = sample_rlc(8, 4, seed=13)
        cw = encode(code, rng.integers(0, 2, size=4, dtype=np.uint8))
        soft = 1.0 - 2.0 * cw.astype(float)
        assert np.array_equal(ml_decode_bruteforce(code, soft), cw)

    def test_repetition_code_sign_decision(self):
        code = CodeSpec(np.array([[1, 1]], dtype=np.uint8), np.array([[1, 1]], dtype=np.uint8))
        assert np.array_equal(ml_decode_bruteforce(code, [0.1, -0.2]), [1, 1])
        assert np.array_equal(ml_decode_bruteforce(code, [0.3, -0.2]), [0, 0])

    def test_matches_exhaustive_distance_scan(self, rng):
        code = sample_rlc(8, 4, seed=14)
        book = enumerate_codebook(code.generator)
        for _ in range(100):
            y = rng.normal(size=8)
            dists = ((y - (1.0 - 2.0 * book.astype(float))) ** 2).sum(axis=1)
            expect = book[int(np.argmin(dists))]
            assert np.array_equal(ml_decode_bruteforce(code, y), expect)

    def test_output_is_codeword(self, rng):
        code = sample_rlc(10, 6, seed=15)
        for _ in range(30):
            out = ml_decode_bruteforce(code, rng.normal(size=10))
            assert not syndrome(code, out).any()

    def test_enumeration_bound(self):
        code = sample_rlc(40, 20, seed=16)
        with pytest.raises(ValueError):
            ml_decode_bruteforce(code, np.zeros(40))


class TestCodeSpecValidation:
    def test_mismatched_parity_check_rejected(self):
        g = np.eye(4, dtype=np.uint8)
        h = np.ones((2, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match=r"parity_check must be \(n - k\) x n"):
            CodeSpec(g, np.zeros((1, 4)))  # a [4, 4] code has no checks
        with pytest.raises(ValueError, match="G . H"):
            CodeSpec(g[:2], h)

    @pytest.mark.parametrize("generator", [np.ones(4), np.zeros((0, 4)), np.ones((4, 2))])
    def test_generator_that_is_not_k_by_n_named(self, generator):
        with pytest.raises(ValueError, match="generator must be k x n with 0 < k <= n, got "
                                             + re.escape(f"shape {generator.shape}")):
            CodeSpec(generator, np.zeros((0, 4)))

    def test_dependent_generator_rows_rejected(self):
        g = np.array([[1, 0, 1, 0], [1, 0, 1, 0]], dtype=np.uint8)
        with pytest.raises(ValueError):
            CodeSpec(g, np.zeros((2, 4), dtype=np.uint8))
