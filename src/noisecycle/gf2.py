"""Binary linear block codes over GF(2).

Provides random linear codes in systematic form, regular LDPC code
construction, CRC attachment/validation, alist parsing for sparse
parity-check matrices, syndrome-based membership tests, and a brute-force
maximum-likelihood decoder used as an oracle for small codes.  Their value
objects store each fact once: ``CodeSpec(generator, parity_check, crc,
label, sparse)`` reads k and n from G's shape, ``CrcSpec(polynomial)`` its
degree from the polynomial, and ``SparseParityCheck(n, row_cols)`` its row
count and column view from its rows.

A CRC is a linear constraint on the message, so a CRC-aided [n, k] code is
the linear subcode of codewords whose message passes the CRC, with
``crc.degree`` more parity checks.  ``CodeSpec.membership_check`` holds
those checks: a word is accepted iff its syndrome under it is zero.

Packing contract: dense bit matrices are row-major ``uint8`` arrays with
entries in {0, 1}.  For throughput-critical paths rows are packed into
``uint64`` words, LSB first: bit ``j`` of a row lives in word ``j // 64``
at bit position ``j % 64``.  The decoders read the columns of the
membership check M in two packings: ``column_words``, which both
guessing searches read, hold column ``j`` as row ``j`` of a ``uint64``
array under the row rule above (``ceil(rows / 64)`` words, none when M has
no rows), over an all-zero row ``n`` that pads ORBGRAND's rank pairs; and
``packed_syndromes`` reads a byte table of
them, which maps each byte of a word, packed LSB first, to the XOR of its
columns' words, so a word's syndrome, packed under the row rule, is one
gather and one XOR-reduce over its bytes.  ``encode`` reads
the same kind of table of the generator's rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable

import numpy as np

__all__ = [
    "CrcSpec",
    "SparseParityCheck",
    "CodeSpec",
    "encode",
    "syndrome",
    "sample_rlc",
    "sample_regular_ldpc",
    "code_from_parity_check",
    "crc_encode",
    "crc_check",
    "parse_alist",
    "serialize_alist",
    "ml_decode_bruteforce",
    "gf2_rank",
    "gf2_row_reduce",
    "gf2_nullspace",
]


# ---------------------------------------------------------------------------
# dense GF(2) linear algebra
# ---------------------------------------------------------------------------

def _as_bits(v, length: int | None = None) -> np.ndarray:
    out = np.asarray(v, dtype=np.uint8) & 1
    if length is not None and out.shape[-1] != length:
        raise ValueError(f"expected bit vector of length {length}, got {out.shape[-1]}")
    return out


def gf2_row_reduce(mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(2); returns (rref, pivot columns)."""
    a = _as_bits(mat).copy()
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + hits[0]
        if p != r:
            a[[r, p]] = a[[p, r]]
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        a[others] ^= a[r]
        pivots.append(c)
        r += 1
    return a, pivots


def gf2_rank(mat: np.ndarray) -> int:
    if mat.size == 0:
        return 0
    _, pivots = gf2_row_reduce(mat)
    return len(pivots)


def gf2_nullspace(mat: np.ndarray) -> np.ndarray:
    """Basis of the right nullspace of ``mat`` over GF(2), as rows."""
    return _nullspace_of_rref(*gf2_row_reduce(mat))


def _nullspace_of_rref(a: np.ndarray, pivots: list[int]) -> np.ndarray:
    # a boolean mask, not np.setdiff1d, whose import of numpy.ma costs ~1 MB of RSS
    is_free = np.ones(a.shape[1], dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((len(free), a.shape[1]), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = a[: len(pivots), free].T
    return basis


def pack_rows(mat: np.ndarray) -> np.ndarray:
    """Pack bit-matrix rows into uint64 words (LSB-first within each word)."""
    bits = _as_bits(np.atleast_2d(mat))
    rows, n = bits.shape
    words = (n + 63) // 64
    padded = np.zeros((rows, words * 64), dtype=np.uint8)
    padded[:, :n] = bits
    packed_bytes = np.packbits(padded, axis=1, bitorder="little")
    return packed_bytes.view(np.uint64).reshape(rows, words)


# ---------------------------------------------------------------------------
# CRC
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrcSpec:
    """Cyclic redundancy check defined by a binary polynomial.

    ``polynomial`` is a bit string, highest power first, so its ``degree``
    is its length less one (e.g. ``"1011"`` is x^3 + x + 1, degree 3).
    """

    polynomial: str

    def __post_init__(self) -> None:
        if len(self.polynomial) < 2:
            raise ValueError("CRC degree must be >= 1")
        if set(self.polynomial) - {"0", "1"}:
            raise ValueError("polynomial must be a bit string")
        if self.polynomial[0] != "1":
            raise ValueError("leading polynomial coefficient must be 1")

    @property
    def degree(self) -> int:
        return len(self.polynomial) - 1

    @property
    def taps(self) -> np.ndarray:
        return np.frombuffer(self.polynomial.encode(), dtype=np.uint8) - ord("0")


def _crc_remainder(bits: np.ndarray, crc: CrcSpec) -> np.ndarray:
    work = bits.astype(np.uint8).copy()
    taps = crc.taps
    deg = crc.degree
    for i in range(len(work) - deg):
        if work[i]:
            work[i : i + deg + 1] ^= taps
    return work[-deg:]


# The remainder is GF(2)-linear in the dividend, so per (polynomial, length)
# it is one matrix multiply; rows are the remainders of the unit vectors.
@cache
def _remainder_matrix(crc: CrcSpec, length: int) -> np.ndarray:
    mat = np.zeros((length, crc.degree), dtype=np.uint8)
    for i in range(length):
        unit = np.zeros(length, dtype=np.uint8)
        unit[i] = 1
        mat[i] = _crc_remainder(unit, crc)
    return mat


def crc_encode(crc: CrcSpec, message) -> np.ndarray:
    """Append the CRC remainder: returns ``message || remainder``, for one
    message or for messages stacked along leading axes."""
    msg = _as_bits(message)
    size = msg.shape[-1] if msg.ndim else 0
    if size == 0:
        raise ValueError("empty message")
    # uint8 products wrap modulo 256, which keeps their parity
    rem = (msg @ _remainder_matrix(crc, size + crc.degree)[:size]) % 2
    return np.concatenate([msg, rem.astype(np.uint8)], axis=-1)


def crc_check(crc: CrcSpec, word) -> bool:
    """True iff the polynomial remainder of ``word`` is zero."""
    bits = _as_bits(word)
    if bits.size <= crc.degree:
        raise ValueError("word too short for CRC check")
    return not ((bits @ _remainder_matrix(crc, bits.size)) % 2).any()


# ---------------------------------------------------------------------------
# sparse parity-check matrices and the alist format
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SparseParityCheck:
    """Sparse H on ``n`` columns, held as its rows: ``row_cols[r]`` lists the
    columns of row r, distinct and ascending in [0, n).  ``m_rows`` and the
    column view ``col_rows`` are derived from them."""

    n: int
    row_cols: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for r, cols in enumerate(self.row_cols):
            if list(cols) != sorted(set(cols)) or not all(0 <= c < self.n for c in cols):
                raise ValueError(f"row {r} must list distinct ascending columns in "
                                 f"[0, {self.n}), got {cols}")

    @property
    def m_rows(self) -> int:
        return len(self.row_cols)

    @cached_property
    def col_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per column, its rows in ascending order, built on first use."""
        return tuple(tuple(np.flatnonzero(col).tolist()) for col in self.to_dense().T)

    @classmethod
    def from_dense(cls, h: np.ndarray) -> "SparseParityCheck":
        bits = _as_bits(np.atleast_2d(h))
        return cls(bits.shape[1], tuple(tuple(np.flatnonzero(row).tolist()) for row in bits))

    def to_dense(self) -> np.ndarray:
        h = np.zeros((self.m_rows, self.n), dtype=np.uint8)
        for r, cols in enumerate(self.row_cols):
            h[r, list(cols)] = 1
        return h

    @cached_property
    def tanner(self) -> "TannerLayout":
        """Edge arrays of the Tanner graph, built on first use."""
        return TannerLayout(self)


class TannerLayout:
    """Gather tables of the Tanner graph of one sparse parity check, whose
    edge messages sit in a (d_max, m_rows) slot table: slot ``(j, r)`` is
    row ``r``'s j-th edge, at flat position ``j * m_rows + r``.
    ``slot_cols`` holds each slot's column, padded with ``n``.  Column ``c``
    of ``col_slots``, laid out (dv_max, n), lists the flat positions of
    column ``c``'s edges in ascending row order, padded with
    ``d_max * m_rows``."""

    def __init__(self, sparse: SparseParityCheck) -> None:
        n, m_rows, row_cols, col_rows = sparse.n, sparse.m_rows, sparse.row_cols, sparse.col_rows
        d_max, dv_max = (max(map(len, lists), default=0) for lists in (row_cols, col_rows))
        self.slot_cols = np.array([cols + (n,) * (d_max - len(cols)) for cols in row_cols],
                                  dtype=np.int64).reshape(m_rows, d_max).T.copy()
        slot = {(r, c): j * m_rows + r for r, cols in enumerate(row_cols)
                for j, c in enumerate(cols)}
        self.col_slots = np.full((dv_max, n), d_max * m_rows, dtype=np.int64)
        for c, rows in enumerate(col_rows):
            self.col_slots[:len(rows), c] = [slot[r, c] for r in rows]


class AlistError(ValueError):
    """Malformed alist text; message names the offending line."""


def parse_alist(text: str) -> SparseParityCheck:
    """Parse the alist sparse-matrix convention.

    Layout: line 1 is ``n m``, line 2 the max column/row degrees, lines 3-4
    the per-column and per-row degrees, then ``n`` column lists and ``m``
    row lists of 1-indexed positions (zero entries are padding and ignored).
    Only blank lines may follow.  An error names the line it found.
    """
    lines = text.splitlines()

    def ints(idx: int) -> list[int]:
        if idx >= len(lines):
            raise AlistError(f"line {idx + 1}: unexpected end of file")
        try:
            return [int(tok) for tok in lines[idx].split()]
        except ValueError as exc:
            raise AlistError(f"line {idx + 1}: {exc}") from None

    def adjacency(first: int, degrees: list[int], what: str, other: str,
                  bound: int) -> tuple[tuple[int, ...], ...]:
        # the 0-based entries of the lists on lines first + 1.., one per degree
        lists = []
        for i, degree in enumerate(degrees):
            entries = [e for e in ints(first + i) if e != 0]
            where = f"line {first + i + 1}: {what} {i + 1}"
            if len(entries) != degree:
                raise AlistError(f"{where} lists {len(entries)} entries, degree says {degree}")
            for e in entries:
                if not 1 <= e <= bound:
                    raise AlistError(f"{where}: {other} index {e} out of range 1..{bound}")
            if len(set(entries)) != degree:
                raise AlistError(f"{where} lists a {other} twice")
            lists.append(tuple(sorted(e - 1 for e in entries)))
        return tuple(lists)

    header = ints(0)
    if len(header) != 2 or header[0] <= 0 or header[1] <= 0:
        raise AlistError("line 1: header must be two positive integers 'n m'")
    n, m_rows = header
    col_deg = ints(2)
    row_deg = ints(3)
    if len(col_deg) != n:
        raise AlistError(f"line 3: expected {n} column degrees, got {len(col_deg)}")
    if len(row_deg) != m_rows:
        raise AlistError(f"line 4: expected {m_rows} row degrees, got {len(row_deg)}")
    col_rows = adjacency(4, col_deg, "column", "row", m_rows)
    sparse = SparseParityCheck(n, adjacency(4 + n, row_deg, "row", "column", n))
    if sparse.col_rows != col_rows:
        raise AlistError(f"line 5..{4 + n + m_rows}: "
                         "row and column adjacency views are inconsistent")
    max_deg = [max(col_deg, default=0), max(row_deg, default=0)]
    if ints(1) != max_deg:
        raise AlistError(f"line 2: expected the maximum degrees {max_deg[0]} {max_deg[1]} "
                         f"of lines 3-4, got {lines[1].strip()!r}")
    for idx in range(4 + n + m_rows, len(lines)):
        if lines[idx].strip():
            raise AlistError(f"line {idx + 1}: unexpected line after the last row list")
    return sparse


def serialize_alist(h: SparseParityCheck) -> str:
    """Emit alist text (inverse of :func:`parse_alist`)."""
    col_deg = [len(rows) for rows in h.col_rows]
    row_deg = [len(cols) for cols in h.row_cols]
    out = [
        f"{h.n} {h.m_rows}",
        f"{max(col_deg, default=0)} {max(row_deg, default=0)}",
        " ".join(str(d) for d in col_deg),
        " ".join(str(d) for d in row_deg),
    ]
    for rows in h.col_rows:
        out.append(" ".join(str(r + 1) for r in rows))
    for cols in h.row_cols:
        out.append(" ".join(str(c + 1) for c in cols))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# code specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodeSpec:
    """A binary [n, k] linear block code.

    ``generator`` is k x n, which sets k and n, and ``parity_check`` is
    (n - k) x n, both with full row rank, and G @ H.T = 0 over GF(2).  ``sparse`` optionally carries
    a redundant sparse parity-check view for message-passing decoders; its
    rows must span the same space as H's, so its null space is the code.
    When ``crc`` is set, the last ``crc.degree`` bits of every valid message
    are the CRC of the leading payload bits, and ``membership_check`` adds
    the checks that say so.
    """

    n: int = field(init=False)
    k: int = field(init=False)
    generator: np.ndarray
    parity_check: np.ndarray
    crc: CrcSpec | None = None
    label: str = ""
    sparse: SparseParityCheck | None = None

    def __post_init__(self) -> None:
        g = _as_bits(self.generator)
        h = _as_bits(self.parity_check)
        if g.ndim != 2 or not 0 < len(g) <= g.shape[1]:
            raise ValueError(f"generator must be k x n with 0 < k <= n, got shape {g.shape}")
        k, n = g.shape
        if h.shape != (n - k, n):
            raise ValueError("parity_check must be (n - k) x n")
        if ((g @ h.T) % 2).any():
            raise ValueError("G . H^T != 0")
        if gf2_rank(g) != k:
            raise ValueError("generator rows are linearly dependent")
        if gf2_rank(h) != n - k:
            raise ValueError("parity_check rows are linearly dependent")
        if self.crc is not None and k <= self.crc.degree:
            raise ValueError("k must exceed the CRC degree")
        if self.sparse is not None:
            # the view spans H's rows: rank(Hs) = rank([H; Hs]) = n - k
            hs = self.sparse.to_dense()
            if (self.sparse.n != n or gf2_rank(hs) != n - k
                    or gf2_rank(np.concatenate([h, hs])) != n - k):
                raise ValueError("sparse must span the rows of parity_check")
        for name, value in (("n", n), ("k", k), ("generator", g), ("parity_check", h)):
            object.__setattr__(self, name, value)

    @property
    def rate(self) -> float:
        return self.k / self.n

    @cached_property
    def membership_check(self) -> np.ndarray:
        """Checks whose null space is the set of accepted words, built on first
        use: H itself, or with a CRC the (n - k + crc.degree) x n checks of
        the codewords whose message passes the CRC."""
        if self.crc is None:
            return self.parity_check
        # every CRC-valid message is payload || crc(payload), i.e. a row of [I_p | R]
        p = self.payload_bits
        payload_gen = np.concatenate(
            [np.eye(p, dtype=np.uint8), _remainder_matrix(self.crc, self.k)[:p]], axis=1)
        return gf2_nullspace((payload_gen @ self.generator) % 2)

    @cached_property
    def column_words(self) -> np.ndarray:
        """Columns of ``membership_check`` packed into ``uint64`` words, one
        row per column plus the all-zero row ``n`` (see the module
        docstring), built on first use."""
        words = pack_rows(self.membership_check.T)
        return np.concatenate([words, np.zeros((1, words.shape[1]), np.uint64)])

    @cached_property
    def _generator_table(self) -> np.ndarray:
        """``_xor_table`` of the generator rows, which ``encode`` reads,
        built on first use."""
        return _xor_table(self.generator)

    @cached_property
    def _syndrome_table(self) -> np.ndarray:
        """``_xor_table`` of the columns of ``membership_check``, which
        ``packed_syndromes`` reads, built on first use."""
        return _xor_table(self.membership_check.T)

    @property
    def payload_bits(self) -> int:
        """Message bits carried before CRC attachment (= k without CRC)."""
        return self.k - (self.crc.degree if self.crc else 0)


def _xor_table(rows: np.ndarray) -> np.ndarray:
    """The byte table of a (count, width) bit matrix: (ceil(count / 8) * 256,
    ceil(width / 64)) ``uint64``, whose row 256 b + v is the XOR of the
    packed rows 8 b + i for each bit i of v."""
    count, words = len(rows), -(-rows.shape[1] // 64)
    packed = np.zeros((-(-count // 8) * 8, words), dtype=np.uint64)
    packed[:count] = pack_rows(rows)
    packed = packed.reshape(len(packed) // 8, 8, 1, words)
    table = np.zeros((len(packed), 256, words), dtype=np.uint64)
    for i in range(8):  # values with top bit i: those below 2^i, plus row i
        table[:, 1 << i: 2 << i] = table[:, : 1 << i] ^ packed[:, i]
    return table.reshape(len(packed) * 256, words)  # words may be 0


def _xor_rows(table: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The XOR of the rows of ``_xor_table(rows)`` that ``bits`` (..., len(rows))
    select, as (..., words) ``uint64``: each byte of ``bits``, packed LSB
    first, picks one table row, and the picks are XORed."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    picks = packed + np.arange(0, 256 * packed.shape[-1], 256)
    return np.bitwise_xor.reduce(table.take(picks, axis=0), axis=-2)


def encode(code: CodeSpec, message) -> np.ndarray:
    """u |-> u G over GF(2), for one message or for messages stacked along
    leading axes."""
    words = _xor_rows(code._generator_table, _as_bits(message, code.k))
    return np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")[..., : code.n]


def packed_syndromes(code: CodeSpec, words) -> np.ndarray:
    """The syndromes of ``words`` (..., n), bits as ``uint8`` or ``bool``,
    under ``code.membership_check``, packed as ``pack_rows`` packs a row:
    (..., ceil(checks / 64)) ``uint64``, all zero iff the word is accepted."""
    words = np.asarray(words)
    if words.shape[-1:] != (code.n,):
        raise ValueError(f"expected bit vectors of length {code.n}, got shape {words.shape}")
    return _xor_rows(code._syndrome_table, words)


def syndrome(code: CodeSpec, word) -> np.ndarray:
    """w |-> w H^T; zero iff ``word`` is a codeword."""
    return (code.parity_check @ _as_bits(word, code.n)) % 2


def sample_rlc(n: int, k: int, seed: int, crc: CrcSpec | None = None,
               label: str = "") -> CodeSpec:
    """Systematic random linear code: G = [I_k | A], H = [A^T | I_{n-k}]."""
    if not 0 < k <= n:
        raise ValueError("need 0 < k <= n")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    a = np.random.default_rng(seed).integers(0, 2, size=(k, n - k), dtype=np.uint8)
    g = np.concatenate([np.eye(k, dtype=np.uint8), a], axis=1)
    h = np.concatenate([a.T, np.eye(n - k, dtype=np.uint8)], axis=1)
    return CodeSpec(g, h, crc=crc, label=label or f"rlc[{n},{k}]s{seed}")


LDPC_FOUR_CYCLE_PASSES = 4  # sample_regular_ldpc's passes of 4-cycle reduction


def _reduce_four_cycles(col_rows: list[set[int]], rng: np.random.Generator, n: int) -> None:
    """Best-effort removal of length-4 cycles by swapping row assignments."""
    for _ in range(LDPC_FOUR_CYCLE_PASSES):
        swapped = False
        for c1 in range(n):
            for c2 in range(c1 + 1, n):
                shared = col_rows[c1] & col_rows[c2]
                if len(shared) < 2:
                    continue
                r = rng.choice(sorted(shared))
                # move r from c2 to some column that lacks it
                candidates = [c for c in range(n) if r not in col_rows[c] and c != c2]
                rng.shuffle(candidates)
                for c3 in candidates:
                    give = [x for x in col_rows[c3] if x not in col_rows[c2]]
                    if not give:
                        continue
                    r3 = give[0]
                    col_rows[c2].remove(r)
                    col_rows[c2].add(r3)
                    col_rows[c3].remove(r3)
                    col_rows[c3].add(r)
                    swapped = True
                    break
        if not swapped:
            return


LDPC_EDGE_REPAIR_PASSES = 200  # sample_regular_ldpc's bound on repeated-edge repairs


def sample_regular_ldpc(n: int, col_weight: int, row_weight: int, seed: int,
                        crc: CrcSpec | None = None, label: str = "") -> CodeSpec:
    """(col_weight, row_weight)-regular LDPC code via random edge permutation.

    Repeated edges are resolved by retrying the permutation (at most
    ``LDPC_EDGE_REPAIR_PASSES`` times), then ``LDPC_FOUR_CYCLE_PASSES``
    passes of 4-cycle reduction are attempted.  The generator is the GF(2)
    nullspace of H, so k = n - rank(H) (H may carry redundant rows).
    """
    for name, value, least in (("n", n, 1), ("col_weight", col_weight, 1),
                               ("row_weight", row_weight, 1), ("seed", seed, 0)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    if (n * col_weight) % row_weight != 0:
        raise ValueError("n * col_weight must be divisible by row_weight")
    m_rows = n * col_weight // row_weight
    rng = np.random.default_rng(seed)
    col_sockets = np.repeat(np.arange(n), col_weight).tolist()

    row_sockets = np.repeat(np.arange(m_rows), row_weight)
    rng.shuffle(row_sockets)
    row_sockets = row_sockets.tolist()
    # repair repeated edges by swapping row sockets (degrees are preserved)
    for _ in range(LDPC_EDGE_REPAIR_PASSES):
        seen: set[tuple[int, int]] = set()
        dups = []
        for idx, pair in enumerate(zip(col_sockets, row_sockets)):
            if pair in seen:
                dups.append(idx)
            else:
                seen.add(pair)
        if not dups:
            break
        for idx in dups:
            other = int(rng.integers(len(row_sockets)))
            row_sockets[idx], row_sockets[other] = row_sockets[other], row_sockets[idx]
    else:
        raise ValueError("could not draw a simple regular graph within retry budget")

    col_rows = [set() for _ in range(n)]
    for c, r in zip(col_sockets, row_sockets):
        col_rows[c].add(r)
    _reduce_four_cycles(col_rows, rng, n)

    h = np.zeros((m_rows, n), dtype=np.uint8)
    for c, rows in enumerate(col_rows):
        h[sorted(rows), c] = 1

    return code_from_parity_check(
        h, crc=crc,
        label=label or (lambda n, k: f"ldpc({col_weight},{row_weight})[{n},{k}]s{seed}"))


def code_from_parity_check(h: np.ndarray | SparseParityCheck,
                           crc: CrcSpec | None = None,
                           label: str | Callable[[int, int], str] = "") -> CodeSpec:
    """The code whose codewords ``h`` annihilates, so k = n - rank(h).

    ``h`` is a dense bit matrix or a :class:`SparseParityCheck` and may carry
    redundant rows: ``parity_check`` keeps a row basis of it and ``sparse``
    keeps ``h`` itself for message passing.  ``label`` may be a function of
    (n, k), for labels that name the code's dimensions.
    """
    if isinstance(h, SparseParityCheck):
        sparse, dense = h, h.to_dense()
    else:
        dense = _as_bits(h)
        sparse = SparseParityCheck.from_dense(dense)
    red, pivots = gf2_row_reduce(dense)
    n, k = sparse.n, sparse.n - len(pivots)
    return CodeSpec(_nullspace_of_rref(red, pivots), red[: n - k], crc=crc,
                    label=label(n, k) if callable(label) else label, sparse=sparse)


def codebook(code: CodeSpec) -> np.ndarray:
    """All 2^k codewords, row i = encode of the bits of integer i (LSB first).

    Enumeration bound k <= 16.  With a CRC, rows whose message fails the
    check are excluded.
    """
    if code.k > 16:
        raise ValueError("codebook enumeration is limited to k <= 16")
    idx = np.arange(2 ** code.k, dtype=np.uint32)
    msgs = ((idx[:, None] >> np.arange(code.k)) & 1).astype(np.uint8)
    words = (msgs @ code.generator) % 2
    if code.crc is not None:
        keep = np.array([crc_check(code.crc, m) for m in msgs], dtype=bool)
        words = words[keep]
    return words


def ml_decode_bruteforce(code: CodeSpec, soft) -> np.ndarray:
    """Maximum-likelihood decoding by exhaustive codebook scan (k <= 16).

    Returns the codeword minimizing Euclidean distance to ``soft`` under the
    0 -> +1, 1 -> -1 symbol map; ties break to the smallest message index.
    """
    y = np.asarray(soft, dtype=float)
    if y.shape != (code.n,):
        raise ValueError(f"soft vector must have length {code.n}")
    words = codebook(code)
    scores = (1.0 - 2.0 * words.astype(float)) @ y
    return words[int(np.argmax(scores))].copy()
