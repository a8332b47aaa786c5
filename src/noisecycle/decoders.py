"""Soft-decision decoders: ORBGRAND, SGRANDAB, and belief propagation.

A decoder is any object with ``decode(code, soft) -> DecodeOutcome``; it
may add ``decode_batch(code, received, variances) -> DecodeRecord``, which
decodes the rows of a (B, n) array exactly as ``decode`` would into one
record of arrays: status codes into ``STATUSES``, query counts, words and
noise NLLs.  A record has a length and reads row by row as
``DecodeOutcome`` s.  The pipeline adapts an outside decoder without
``decode_batch`` by calling ``decode`` row by row.  The three here are
frozen dataclasses whose fields are their configuration,
``OrbgrandDecoder(max_queries)``, ``SgrandabDecoder(max_queries)`` and
``BpDecoder(max_iters=50)``; each rejects a limit below 1 when built.  They
share one frame: ``decode_batch`` checks its input once (finite (B, n)
``received``, finite positive (B,) ``variances``, and LLRs and noise NLLs
that cannot overflow), takes the LLRs of all rows at once (the definition of
:func:`llrs`), the decoder turns them into a status code, a query count
and a word per row, and the frame adds the noise NLLs; ``decode`` is a
batch of one.

The guessing decoders invert putative noise-effect patterns on the hard
decision, most plausible first, and query codebook membership by one
syndrome under the code's membership check, which includes the CRC's
checks when the code carries one.  The first zero syndrome is returned
together with the number of queries spent, which doubles as a
decoding-confidence proxy.  Their prologue covers all rows at once: the
hard decision and its packed syndrome, by ``gf2.packed_syndromes``, one
table row per byte of the word.  Rows whose hard decision is accepted
decode at query 1 together; the others are ordered stably by reliability
and go to one search call:

* SGRANDAB enumerates flip sets in nondecreasing sum of flipped |LLR| by
  successor expansion, in the order a priority queue pops them (see
  ``SgrandabDecoder``), so an accepted answer is a maximum-likelihood
  decoding.  It searches a call's rows together in score rounds.  A
  round sets each row's limit near the K-th smallest score of its
  frontier, K doubling each round, expands every set within it
  generation by generation, each set carrying its syndrome and flip set
  as ``uint64`` words, sorts them by score and drops them.  A row's
  frontier is O(its queries), and a round holds O(its roots) sets; a
  group of rows whose frontier and next round would pass
  ``_GROUP_WORDS`` words goes on in two halves.  A row whose round
  breaks the score order, where a score falls below or ties another, or
  whose round outgrows its roots, as tied reliabilities make it, is
  searched again by the queue itself, which holds O(cap) sets.
* ORBGRAND (Duffy, ICASSP 2021) ranks positions by ascending |LLR| (rank 1
  = least reliable, ties by position) and sweeps flip sets in nondecreasing
  logistic weight, the sum of flipped ranks; equal-weight sets are ordered
  by size then lexicographically.  Rank sets of a given weight are the
  partitions of that weight into distinct parts <= n.  The order is the
  same for every block, so ORBGRAND checks it in chunks of 16 rows that
  double up to 8192, from a per-process table for each n.  The table holds
  each rank set as pair codes ``a * (n + 1) + b``, its 0-based ranks taken
  two at a time, an odd last one paired with n, which indexes the all-zero
  row of ``column_words``; within a chunk the rows are sorted stably by
  pair count.  The searching rows walk the chunks together.  Each row
  XORs its reliability-ordered columns for every pair it can meet into its
  row of one pair table, and a chunk's syndromes for all rows are one
  gather of that table per pair index, each over only the chunk rows that
  have that pair.  A row leaves at its first hit, its smallest stream row
  within the cap, and its flips are read back from the pair codes.  A group
  of rows whose pair table or syndromes would pass ``_GROUP_WORDS`` words
  goes on from that chunk in two halves.  The rank table is built with
  numpy one weight at a time, and a chunk only when a search first reaches
  it, never past that search's query cap.

BpDecoder runs each sum-product iteration on a pool of at most 32 rows of
a call (``_BP_ROWS``), the batch axis last, through the code's
``TannerLayout``.  A row that stops, or reaches the cap, frees its slot,
and the call's next queued row starts in it at the next iteration, so the
pool stays full while rows wait; once none wait, it shrinks to the rows
left.  So the five message buffers, each a float per Tanner slot and row,
stay the size they had when a sweep's batches were 32 trials (decoded
128 rows at once, a (3,6) LDPC sweep's peak resident set rose 15%), and
they are full until the call's queue is empty.  Messages sit in the
layout's (d_max, m_rows) slot table with pads at +inf, the exclusive
prefix and suffix products are d_max - 1 multiplies each, and column sums
take rows of c2v through its (dv_max, n) column table, adding from 0.0 in
ascending row order as ``np.bincount`` does.  A row leaves at its first iteration in which every
sparse row has even parity, accepted or not on its packed syndrome, so
each row decodes as it would alone, whatever shares the pool with it.

All decoders are pure given their inputs.  The rank tables, and the
membership checks, packed columns, syndrome tables and Tanner-graph layouts
that codes build on first use, are not guarded by a lock, so share work
across processes rather than threads.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, fields
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .gf2 import CodeSpec, packed_syndromes

__all__ = [
    "SoftBlock",
    "DecodeOutcome",
    "DecodeRecord",
    "STATUSES",
    "llrs",
    "confidence",
    "confidences",
    "orbgrand_rank_patterns",
    "OrbgrandDecoder",
    "SgrandabDecoder",
    "BpDecoder",
]

STATUS_DECODED = "decoded"
STATUS_ABANDONED = "abandoned"
STATUS_CRC_FAILED = "crc_failed"
STATUSES = (STATUS_DECODED, STATUS_ABANDONED, STATUS_CRC_FAILED)  # by status code
DECODED, ABANDONED, CRC_FAILED = range(len(STATUSES))


@dataclass(frozen=True)
class SoftBlock:
    """Received real vector plus the noise variance to use for its LLRs."""

    received: np.ndarray
    noise_variance: float

    def __post_init__(self) -> None:
        y = np.asarray(self.received, dtype=float)
        if y.ndim != 1:
            raise ValueError("received must be a vector")
        if not np.isfinite(y).all():
            raise ValueError("received must be finite")
        if not (math.isfinite(self.noise_variance) and self.noise_variance > 0):
            raise ValueError("noise_variance must be finite and positive, "
                             f"got {self.noise_variance!r}")
        object.__setattr__(self, "received", y)


@dataclass(frozen=True)
class DecodeOutcome:
    """Decoder verdict plus confidence metadata.

    ``queries`` counts codebook queries for guessing decoders and iterations
    for message passing.  ``noise_nll`` is the Gaussian negative
    log-likelihood of the noise the decision implies on the decoder's own
    input, ``z = y - x_hat`` at the input's noise variance; it is +inf
    unless the block was decoded.
    """

    status: str
    queries: int
    codeword: np.ndarray | None
    noise_nll: float = math.inf

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == STATUS_DECODED and self.codeword is None:
            raise ValueError("decoded outcome must carry a codeword")


@dataclass(frozen=True)
class DecodeRecord:
    """The outcomes of B decodes as arrays: ``status`` codes indexing
    ``STATUSES`` (int8), ``queries`` (int64), ``words`` (B, n) uint8, read
    only where decoded, and ``noise_nll`` (float64, +inf where not decoded).
    Its length is B, and row i reads as one ``DecodeOutcome``."""

    status: np.ndarray
    queries: np.ndarray
    words: np.ndarray
    noise_nll: np.ndarray

    @classmethod
    def of(cls, outcomes: Sequence[DecodeOutcome], n: int) -> "DecodeRecord":
        """The record of ``outcomes`` with words of length ``n``."""
        words = np.zeros((len(outcomes), n), dtype=np.uint8)
        for word, out in zip(words, outcomes):
            if out.codeword is not None:
                word[:] = out.codeword
        return cls(np.array([STATUSES.index(out.status) for out in outcomes], dtype=np.int8),
                   np.array([out.queries for out in outcomes], dtype=np.int64), words,
                   np.array([out.noise_nll for out in outcomes], dtype=float))

    def __len__(self) -> int:
        return len(self.status)

    def __getitem__(self, row: int) -> DecodeOutcome:
        status = int(self.status[row])
        return DecodeOutcome(STATUSES[status], int(self.queries[row]),
                             self.words[row] if status == DECODED else None,
                             float(self.noise_nll[row]))

    def __iter__(self) -> Iterator[DecodeOutcome]:
        return (self[row] for row in range(len(self)))


def llrs(soft: SoftBlock) -> np.ndarray:
    """Bit LLRs 2 y / sigma^2 under the 0 -> +1 map (positive favors 0)."""
    return _llrs(soft.received, np.array(soft.noise_variance))


def _llrs(received: np.ndarray, variances: np.ndarray) -> np.ndarray:
    # rows (..., n) of received values, each at its variance in (...)
    return 2.0 * received / variances[..., None]


def _checked_batch(code: CodeSpec, received, variances):
    """``received`` as finite (B, code.n) floats, ``variances`` as finite,
    positive (B,) floats and their finite LLRs, or ``ValueError`` naming
    the field; rows whose noise NLL could overflow are rejected too."""
    received, variances = np.asarray(received, dtype=float), np.asarray(variances, dtype=float)
    if received.ndim != 2 or received.shape[1] != code.n:
        raise ValueError(f"received must be (B, {code.n}), got shape {received.shape}")
    if variances.shape != received.shape[:1]:
        raise ValueError(f"variances must be ({len(received)},), got shape {variances.shape}")
    if not np.isfinite(received).all():
        raise ValueError("received must be finite")
    if not (np.isfinite(variances) & (variances > 0)).all():
        raise ValueError("variances must be finite and positive")
    with np.errstate(over="ignore"):
        llr = _llrs(received, variances)
        # bounds the noise NLL's sum(z^2) / (2 variance), as |z| <= |y| + 1
        nll_bound = np.square(np.abs(received) + 1.0).sum(axis=1) / (2.0 * variances)
    finite = np.isfinite(llr).all(axis=1) & np.isfinite(nll_bound)
    if not finite.all():
        raise ValueError(f"received and variances give LLRs 2 y / variance or noise NLLs "
                         f"that overflow, in row(s) {np.flatnonzero(~finite)[:5].tolist()}")
    return received, variances, llr


class _Decoder:
    """The frame of a dataclass whose fields are limits of at least 1:
    ``_decode_llrs(code, llr)`` returns each row's status code (int8) and
    query count (int64), and (B, n) words read only in the rows that
    decoded."""

    def __post_init__(self) -> None:
        for limit in fields(self):
            value = getattr(self, limit.name)
            if value < 1:
                raise ValueError(f"{limit.name} must be >= 1, got {value!r}")

    def decode(self, code: CodeSpec, soft: SoftBlock) -> DecodeOutcome:
        return self.decode_batch(code, soft.received[None],
                                 np.array([soft.noise_variance]))[0]

    def decode_batch(self, code: CodeSpec, received: np.ndarray,
                     variances: np.ndarray) -> DecodeRecord:
        """Decode row i of ``received`` (B, n) at noise variance
        ``variances[i]``, exactly as ``decode`` would, into one record."""
        received, variances, llr = _checked_batch(code, received, variances)
        status, queries, words = self._decode_llrs(code, llr)
        return DecodeRecord(status, queries, words,
                            _noise_nll(received, variances, status == DECODED, words))


def _noise_nll(received: np.ndarray, variances: np.ndarray, decoded: np.ndarray,
               words: np.ndarray) -> np.ndarray:
    """The noise NLL of each ``decoded`` row of ``received`` against its
    word at its variance, +inf elsewhere.  The logarithm is ``math.log``,
    whose last bit can differ from ``np.log``'s."""
    variances = variances[decoded]
    z = received[decoded] - (1.0 - 2.0 * words[decoded].astype(float))
    scaled = np.sum(z * z, axis=1) / (2.0 * variances)
    logs = [math.log(2.0 * math.pi * v) for v in variances.tolist()]
    nll = np.full(len(decoded), math.inf)
    nll[decoded] = scaled + received.shape[1] * 0.5 * np.array(logs, dtype=float)
    return nll


# ---------------------------------------------------------------------------
# guessing decoders
# ---------------------------------------------------------------------------

def _rank_subsets(weight: int, size: int, lo: int, n: int) -> Iterator[tuple[int, ...]]:
    # ascending tuples of `size` distinct ranks in [lo, n] summing to `weight`
    if size == 1:
        if lo <= weight <= n:
            yield (weight,)
        return
    r = lo
    while True:
        rest = weight - r
        min_rest = (size - 1) * r + size * (size - 1) // 2
        if min_rest > rest:
            return
        max_rest = (size - 1) * n - (size - 2) * (size - 1) // 2
        if rest <= max_rest:
            for tail in _rank_subsets(rest, size - 1, r + 1, n):
                yield (r,) + tail
        r += 1


def orbgrand_rank_patterns(n: int, max_weight: int | None = None
                           ) -> Iterator[tuple[int, ...]]:
    """Rank sets (1-based) by (logistic weight, size, lex), starting empty."""
    yield ()
    cap = n * (n + 1) // 2
    if max_weight is not None:
        cap = min(cap, max_weight)
    for w in range(1, cap + 1):
        size = 1
        while size * (size + 1) // 2 <= w and size <= n:
            yield from _rank_subsets(w, size, 1, n)
            size += 1


def _rank_layers(n: int) -> Iterator[np.ndarray]:
    """The rank sets of ``orbgrand_rank_patterns(n)`` after the empty one, as
    0-based ranks: one array per (weight, size) in stream order, its rows in
    lexicographic order.

    Lowering every rank by one maps the sets of weight w and size s one to
    one onto sets of weight w - s, in the same order: a set holding rank 0
    loses it, the others keep their size.  So layer (w, s) is rank 0 joined
    to layer (w - s, s - 1) raised by one, then layer (w - s, s) raised by
    one, less the sets that the raise takes to rank n."""
    dtype = np.min_scalar_type(n)  # the ranks, and the pad n
    layers = {0: [np.zeros((1, 0), dtype)]}  # weight -> its layer of each size
    for w in range(1, n * (n + 1) // 2 + 1):
        top = min(n, (math.isqrt(8 * w + 1) - 1) // 2)  # the largest size of weight w
        layers.pop(w - top - 1, None)  # no later weight reaches back that far
        layers[w] = [np.zeros((0, 0), dtype)]
        for s in range(1, top + 1):
            lower = layers[w - s]
            joined, kept = (lower[size] + 1 if size < len(lower) else np.zeros((0, size), dtype)
                            for size in (s - 1, s))
            layer = np.concatenate([np.concatenate([np.zeros((len(joined), 1), dtype), joined],
                                                   axis=1), kept])
            layers[w].append(layer[(layer < n).all(axis=1)])
            if len(layers[w][s]):
                yield layers[w][s]


class _Chunk(NamedTuple):
    """Rows [start, stop) of the rank stream, row i being the rank set
    checked at query i + 1, as pair codes ``a * (n + 1) + b``: a set's
    0-based ranks taken in consecutive pairs, an odd last one paired with
    the pad n.  The rows are sorted stably by how many pairs they have, so
    the rows with a k-th pair are a suffix."""

    start: int
    stop: int
    rows: np.ndarray  # uint16: each row, less start, in that order
    codes: np.ndarray  # every pair code: the pairs, one after another
    lens: np.ndarray  # len(pairs[k])
    ends: np.ndarray  # the cumulative lens: pairs[k] ends before codes[ends[k]]
    pairs: list[np.ndarray]  # pairs[k]: the k-th pair code of the last len(pairs[k]) rows
    lead: int  # one more than the largest first rank of any pair in this or an earlier chunk


class _RankTable:
    """The rank stream of one n as ``_Chunk`` s in the search's schedule:
    16 rows from row 1, doubling up to 8192.  A chunk is built when a search
    first reaches it, from the rank sets that ``_rank_layers`` gave and no
    full chunk holds yet, and only up to the query cap of that search; a
    later search with a higher cap builds it again."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.code_dtype = np.min_scalar_type((n + 1) ** 2 - 1)
        self.layers = _rank_layers(n)
        self.pending: list[np.ndarray] = []  # rank sets from the first row of no full chunk
        self.length: int | None = None  # the stream's row count, once the layers ran out
        self.chunks: list[_Chunk] = []

    def chunks_below(self, cap: int) -> Iterator[_Chunk]:
        """The chunks that start below row ``cap``, in order, each holding
        every row below ``cap`` in its span that the stream has."""
        index, start, size = 0, 1, 16
        while start < min(cap, self.length or cap):
            stop = min(start + size, cap)
            if index == len(self.chunks) or self.length is None and self.chunks[index].stop < stop:
                del self.chunks[index:]  # only the last chunk can be short
                self.chunks.append(self._build(start, stop, full=stop == start + size))
            yield self.chunks[index]
            index, start, size = index + 1, start + size, min(2 * size, 8192)

    def _build(self, start: int, stop: int, full: bool) -> _Chunk:
        n, pieces, have = self.n, [], 0
        while have < stop - start:
            if not self.pending:
                layer = next(self.layers, None)
                if layer is None:
                    self.length, full = start + have, True
                    break
                self.pending.append(layer)
            sets = self.pending.pop(0)
            if have + len(sets) > stop - start:
                self.pending.insert(0, sets[stop - start - have:])
                sets = sets[: stop - start - have]
            pieces.append(sets)
            have += len(sets)
        if not full:  # a later, higher cap builds this chunk again from the same rows
            self.pending[:0] = pieces
        sizes = np.repeat([sets.shape[1] for sets in pieces], [len(sets) for sets in pieces])
        width = int(sizes.max() + 1) // 2 * 2
        ranks = np.full((have, width), n, pieces[0].dtype)  # padded with n to whole pairs
        # row-major order of the mask is the order of the pieces' raveled ranks
        ranks[np.arange(width) < sizes[:, None]] = np.concatenate([p.ravel() for p in pieces])
        counts = (sizes + 1) // 2
        rows = np.argsort(counts, kind="stable").astype(np.uint16)
        codes = ranks[rows, 0::2].astype(self.code_dtype) * (n + 1) + ranks[rows, 1::2]
        lens = np.array([np.count_nonzero(counts > k) for k in range(width // 2)])
        flat = np.concatenate([codes[have - size:, k] for k, size in enumerate(lens)])
        ends = np.cumsum(lens)
        pairs = np.split(flat, ends[:-1])
        lead = max([self.chunks[-1].lead if self.chunks else 0]
                   + [int(c.max()) // (n + 1) + 1 for c in pairs])
        return _Chunk(start, start + have, rows, flat, lens, ends, pairs, lead)


# n -> its rank table, shared by every ORBGRAND search in the process
_RANK_TABLES: dict[int, _RankTable] = {}


def _reliability_order(reliab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.argsort(reliab, axis=1, kind="stable")``, ties by position, and
    each row of ``reliab`` in that order.

    A row of distinct values has one sorting permutation, which the faster
    default sort finds too; only the rows whose sorted values are not
    strictly increasing (ties, several zeros or infinities, NaN) are sorted
    again, stably."""
    order = np.argsort(reliab, axis=1)
    ranked = np.take_along_axis(reliab, order, axis=1)
    tied = ~(ranked[:, 1:] > ranked[:, :-1]).all(axis=1)
    if tied.any():
        order[tied] = np.argsort(reliab[tied], axis=1, kind="stable")
        ranked[tied] = np.take_along_axis(reliab[tied], order[tied], axis=1)
    return order, ranked


@dataclass(frozen=True)
class _GuessingDecoder(_Decoder):
    """The guessing prologue; the rows not accepted at query 1 go to one
    ``_search`` call with their positions by ascending reliability (rank r
    at ``order[:, r - 1]``), their reliabilities in that order and their
    packed base syndromes.  It returns each row's queries and the (row,
    position) pairs to flip, which name every row that hit."""

    max_queries: int

    def _decode_llrs(self, code: CodeSpec, llr: np.ndarray):
        hard = (llr < 0).astype(np.uint8)
        base = packed_syndromes(code, hard)
        queries = np.ones(len(hard), dtype=np.int64)
        status = np.full(len(hard), DECODED, dtype=np.int8)
        rows = np.flatnonzero(base.any(axis=1))
        if rows.size:
            order, ranked = _reliability_order(np.abs(llr[rows]))
            queries[rows], (at, flips) = self._search(code, order, ranked, base[rows])
            status[rows] = ABANDONED
            status[rows[at]] = DECODED  # every hit flips at least one position
            hard[rows[at], flips] ^= 1
        return status, queries, hard


# uint64 words that a group of guessing rows searching together may hold: an
# ORBGRAND group's pair table or one chunk's syndromes, a SGRANDAB group's
# frontier and next round; a larger group splits in two
_GROUP_WORDS = 1 << 15


@dataclass(frozen=True)
class OrbgrandDecoder(_GuessingDecoder):
    """Logistic-weight-ordered guessing, abandoned after ``max_queries``."""

    def _search(self, code: CodeSpec, order: np.ndarray, reliab: np.ndarray,
                base: np.ndarray):
        """Each row's queries spent and the (row, position) pairs to flip: a
        row's hit is its first rank set after the empty one whose flips zero
        its syndrome ``base``; a row without one spent the cap, or the whole
        stream.  The rows walk the chunks together and leave at their first
        hit; a group whose pair table or syndromes would pass
        ``_GROUP_WORDS`` goes on from that chunk in two halves, each taking
        its rows of the pair table."""
        (rows, n), cap = order.shape, self.max_queries
        table = _RANK_TABLES.get(n) or _RANK_TABLES.setdefault(n, _RankTable(n))
        # row r of each block: its 0-based rank r; row n: zero
        ranked = code.column_words[np.concatenate([order, np.full((rows, 1), n)], axis=1)]
        words = ranked.shape[2]
        queries = np.ones(rows, dtype=np.int64)
        at, flips = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
        # rows searching together, from which chunk, with their pair tables and syndromes
        groups = [(np.arange(rows), 0, ranked[:, :0], base[:, None])]
        while groups:
            live, skip, xors, target = groups.pop()
            # the stream holds every flip set, so the one that gives the all-zero
            # codeword (the hard decision's ones) hits before the stream ends
            for index, chunk in enumerate(table.chunks_below(cap)):
                if index < skip:
                    continue
                size, lead = len(chunk.rows), xors.shape[1] // (n + 1)
                if lead < chunk.lead:
                    # row a * (n + 1) + b: the columns of ranks a and b XORed, for
                    # twice as many a each time, but no more than any chunk needs
                    lead = min(max(chunk.lead, 2 * lead), table.chunks[-1].lead)
                if len(live) > 1 and len(live) * max(size, lead * (n + 1)) * words > _GROUP_WORDS:
                    half = len(live) // 2
                    groups += [(live[half:], index, xors[half:], target[half:]),
                               (live[:half], index, xors[:half], target[:half])]
                    break
                if xors.shape[1] < lead * (n + 1):
                    xors = (ranked[live, :lead, None] ^ ranked[live, None]).reshape(
                        len(live), -1, words)
                # take, not fancy indexing, which is several times slower with uint16 codes
                syndromes = xors.take(chunk.pairs[0], axis=1)
                for codes in chunk.pairs[1:]:
                    syndromes[:, size - len(codes):] ^= xors.take(codes, axis=1)
                hits = (syndromes == target).all(axis=2)
                if chunk.stop > cap:
                    hits &= chunk.rows < cap - chunk.start
                hit, pos = np.divmod(np.flatnonzero(hits), size)  # 1-D: the fast nonzero
                if hit.size:
                    again = hit[1:] == hit[:-1]  # hit ascends
                    if again.any():  # a row's hit is its smallest stream row in the chunk
                        pos = pos[np.lexsort((chunk.rows[pos], hit))]
                        first = np.concatenate([[True], ~again])
                        hit, pos = hit[first], pos[first]
                    done = live[hit]
                    queries[done] = chunk.start + 1 + chunk.rows[pos].astype(np.int64)
                    # hit i has pair k when its rows from pos[i] on are no more
                    # than the len(pairs[k]) rows that have one; a pair's first
                    # rank is real, its second may be the pad n
                    tail = size - pos
                    i, k = np.nonzero(chunk.lens >= tail[:, None])
                    a, b = np.divmod(chunk.codes[chunk.ends[k] - tail[i]].astype(np.intp), n + 1)
                    row, real = done[i], b < n
                    at += [row, row[real]]
                    flips += [order[row, a], order[row[real], b[real]]]
                    keep = np.ones(len(live), dtype=bool)
                    keep[hit] = False
                    live, xors, target = live[keep], xors[keep], target[keep]
                queries[live] = min(chunk.stop, cap)
                if not live.size:
                    break
        return queries, (np.concatenate(at), np.concatenate(flips))


class _Nodes(NamedTuple):
    """Flip sets of SGRANDAB's search as arrays: ``at``, row * n plus the
    set's last index in the row's reliability order; its score; and its
    words, (count, syndrome words + flip words) ``uint64``: its syndrome,
    then the indices it holds as bits."""

    at: np.ndarray
    score: np.ndarray
    words: np.ndarray

    def take(self, which) -> "_Nodes":
        return _Nodes(*(field[which] for field in self))


def _concat(parts: Sequence[_Nodes]) -> _Nodes:
    return _Nodes(*map(np.concatenate, zip(*parts)))


def _children(nodes: _Nodes, kids: np.ndarray, kid_score: np.ndarray, step: np.ndarray) -> _Nodes:
    """Child j >> 1 of ``nodes`` for each j of ``kids``, grown if j is even
    and slid if odd, at its score ``kid_score[j]``: XORing in ``step[2 at]``
    or ``step[2 at + 1]``."""
    parent = kids >> 1
    at = nodes.at[parent]
    return _Nodes(at + 1, kid_score[kids], nodes.words[parent] ^ step[2 * at + (kids & 1)])


def _row_order(row: np.ndarray, score: np.ndarray, small: np.dtype) -> np.ndarray:
    """An order by row, then score: a quicksort of the scores, then a
    stable sort, a radix sort, of the rows as ``small`` ints."""
    by_score = np.argsort(score)
    return by_score[np.argsort(row.astype(small)[by_score], kind="stable")]


def _expand(roots: _Nodes, limit: np.ndarray, room: np.ndarray, n: int, succ: np.ndarray,
            reliab: np.ndarray, step: np.ndarray):
    """One round's sets: ``roots`` and, generation by generation, every
    descendant whose path scores no more than ``limit[at]``.  A set at
    ``at`` grows by ``succ[at]`` (NaN past the last index), then slides by
    ``-reliab[at]``.  Once the round would hold more than ``room.sum()``
    sets, the rows past their own ``room[row]`` stop growing.  Returns the
    round's sets, roots first; their children's scores, child j being set
    j >> 1's; which children are the sets after the roots; and the rows
    that stopped."""
    parts, scores, born, nodes = [roots], [], [], roots
    over = np.zeros(len(room), dtype=bool)
    held, total = len(roots.at), int(room.sum())
    before = 0  # sets in the generations before ``nodes``
    while True:
        with np.errstate(over="ignore"):  # scores past the float range are +inf, as a queue's
            grow = nodes.score + succ[nodes.at]
        score = np.empty((len(grow), 2))
        score[:, 0] = grow
        np.subtract(grow, reliab[nodes.at], out=score[:, 1])
        scores.append(score.ravel())
        kept = np.flatnonzero(score <= limit[nodes.at, None])
        if held + kept.size > total:
            row = nodes.at[kept >> 1] // n
            sets = np.concatenate([part.at // n for part in parts] + [row])
            over |= np.bincount(sets, minlength=len(room)) > room
            kept = kept[~over[row]]
        if not kept.size:
            break
        held += kept.size
        born.append(2 * before + kept)
        before += len(nodes.at)
        nodes = _children(nodes, kept, scores[-1], step)
        parts.append(nodes)
    born = np.concatenate(born) if born else np.zeros(0, dtype=np.intp)
    return _concat(parts), np.concatenate(scores), born, over


def _queue_search(masks: list[int], reliab: list[float], syndrome: int, cap: int):
    """(queries spent, flip set) of one row's first hit, popping a
    priority queue of (score, seq, flip set, syndrome); (queries, None)
    when the cap runs out first.  ``masks`` are the columns in reliability
    order as ints, ``syndrome`` the hard decision's, query 1."""
    n = len(reliab)
    queue = [(reliab[0], 0, (0,), syndrome ^ masks[0])]
    queries, seq = 1, 1
    while queries < cap:  # the all-zero codeword's flip set pops before the queue empties
        score, _, flips, syndrome = heapq.heappop(queue)
        queries += 1
        t = flips[-1]
        if t + 1 < n:
            grow = score + reliab[t + 1]
            heapq.heappush(queue, (grow, seq, flips + (t + 1,), syndrome ^ masks[t + 1]))
            heapq.heappush(queue, (grow - reliab[t], seq + 1, flips[:-1] + (t + 1,),
                                   syndrome ^ masks[t + 1] ^ masks[t]))
            seq += 2
        if syndrome == 0:
            return queries, flips
    return queries, None


# sets that one root of a SGRANDAB round may bring into it, popped or pushed;
# a row that brings more once the round as a whole has goes to the queue
_ROUND_SETS = 12


@dataclass(frozen=True)
class SgrandabDecoder(_GuessingDecoder):
    """Maximum-likelihood-ordered guessing, abandoned after ``max_queries``.

    Flip sets are index sets into the reliability order.  Successor
    expansion from {0}: a set grows by the next index or slides its last
    index one step up, which reaches every nonempty set once.  A child
    scores its parent's score plus the reliability it adds, then less the
    one a slide drops, in that float order.  Sets are queried in the order
    a priority queue keyed by (score, seq) pops them, where seq counts
    pushes, a grown child before its slid sibling.  A child never scores
    below its parent in exact arithmetic, so while no score falls below or
    ties its parent's, or ties another's, that order is ascending score,
    which the score rounds of ``_search`` produce.  With tied or near-tied
    reliabilities, a slid set can round below its parent and the queue pops
    it at once, and tied sets pop by seq.  A row where a round meets either,
    or outgrows its roots, as tied scores make it, is searched again from
    the start by the queue itself, which holds O(``max_queries``) sets.
    """

    def _search(self, code: CodeSpec, order: np.ndarray, reliab: np.ndarray,
                base: np.ndarray):
        """Each row's queries spent and the (row, position) pairs to flip.
        Query 2 flips {0}, the queue's first pop, in every row; the rows it
        does not decode go on in rounds (``_rounds``), and the rows the
        rounds give up are searched by the queue (``_queue_search``)."""
        (rows, n), cap = order.shape, self.max_queries
        queries = np.full(rows, cap, dtype=np.int64)
        words = base ^ code.column_words[order[:, 0]]
        rest = words.any(axis=1)
        hit = np.flatnonzero(~rest) if cap > 1 else np.zeros(0, dtype=np.intp)
        queries[hit] = 2
        at, flips, queue = [hit], [order[hit, 0]], hit[:0]
        if cap > 2 and rest.any():
            live = np.flatnonzero(rest)
            got, hit, pos, queue = self._rounds(code, order[live], reliab[live], words[live])
            queries[live] = got
            at.append(live[hit])
            flips.append(order[live[hit], pos])
            queue = live[queue]
        if queue.size:
            masks = [int.from_bytes(w.astype("<u8").tobytes(), "little")
                     for w in code.column_words[:n]]
            for row in queue.tolist():
                start = int.from_bytes(base[row].astype("<u8").tobytes(), "little")
                queries[row], hit = _queue_search([masks[p] for p in order[row].tolist()],
                                                  reliab[row].tolist(), start, cap)
                if hit is not None:
                    at.append(np.full(len(hit), row))
                    flips.append(order[row, list(hit)])
        return queries, (np.concatenate(at), np.concatenate(flips))

    def _rounds(self, code: CodeSpec, order: np.ndarray, reliab: np.ndarray,
                words: np.ndarray):
        """The search of the rows that {0}, query 2, left with syndromes
        ``words``, in score rounds over all of them: each row's queries, the
        (row, index) pairs to flip, and the rows left to the queue.

        A round sets each live row's limit to the ``want``-th smallest
        score of its frontier, pops every set whose path stays within it,
        in order of score, and pushes their other children; ``want`` doubles
        each round.  A row leaves at its first zero syndrome within the
        cap, or at the cap.  It leaves for the queue at a round where a
        score falls or ties, or where it brings more than ``_ROUND_SETS``
        sets a root once the round as a whole has, so a round holds at most
        twice that many sets a root, and a row alone at most that many.  A
        group of rows whose frontier and next round would pass
        ``_GROUP_WORDS`` goes on in two halves, and a row alone takes fewer
        roots."""
        (rows, n), cap = order.shape, self.max_queries
        checks, small = words.shape[1], np.min_scalar_type(rows)
        width = checks + -(-n // 64)
        index = np.arange(n)
        unit = np.zeros((rows, n, width), dtype=np.uint64)  # index t of a row's order as words
        unit[..., :checks] = code.column_words[order]
        unit[:, index, checks + index // 64] = np.uint64(1) << (index % 64).astype(np.uint64)
        # step[2 (row * n + t) + s]: what a set whose last index is t XORs in to
        # grow (s = 0) or slide (s = 1)
        step = np.zeros((rows, n, 2, width), dtype=np.uint64)
        step[:, :-1, 0] = unit[:, 1:]
        step[:, :-1, 1] = unit[:, 1:] ^ unit[:, :-1]
        step = step.reshape(-1, width)
        start = np.concatenate([words, unit[:, 0, checks:]], axis=1)
        del unit
        flat = reliab.ravel()
        succ = np.concatenate([reliab[:, 1:], np.full((rows, 1), np.nan)], axis=1).ravel()
        # the frontier starts as the children of {0}, query 2
        zero = _Nodes(np.arange(rows) * n, reliab[:, 0], start)
        with np.errstate(over="ignore"):
            grow = zero.score + succ[zero.at]
        kid_score = np.stack([grow, grow - zero.score], axis=1).ravel()
        queries = np.full(rows, cap, dtype=np.int64)
        at, flips = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
        popped = np.ones(rows, dtype=np.int64)  # each row's pops before the round
        want = np.ones(rows, dtype=np.int64)
        queue = np.zeros(rows, dtype=bool)
        groups = [(np.arange(rows), _children(zero, np.flatnonzero(kid_score == kid_score),
                                               kid_score, step))]
        while groups:
            live, frontier = groups.pop()
            while live.size:
                frontier = frontier.take(_row_order(frontier.at // n, frontier.score, small))
                first = np.searchsorted(frontier.at, live * n)
                take = np.minimum(want[live], np.searchsorted(frontier.at, live * n + n) - first)
                # in words: a frontier set is width + 3
                if (len(frontier.at) + _ROUND_SETS * int(take.sum())) * (width + 3) > _GROUP_WORDS:
                    if live.size > 1:
                        half, cut = live.size // 2, first[live.size // 2]
                        groups += [(live[half:], frontier.take(slice(cut, None))),
                                   (live[:half], frontier.take(slice(cut)))]
                        break
                    take = np.minimum(take, max(1, _GROUP_WORDS // (_ROUND_SETS * (width + 3))))
                limit, room = np.full(rows, -np.inf), np.zeros(rows, dtype=np.int64)
                limit[live], room[live] = frontier.score[first + take - 1], _ROUND_SETS * take
                limit = np.repeat(limit, n)  # by at
                roots = frontier.score <= limit[frontier.at]
                nodes, kid_score, born, over = _expand(frontier.take(roots), limit, room, n,
                                                       succ, flat, step)
                row, head = nodes.at // n, len(nodes.at) - len(born)  # the roots come first
                o = _row_order(row, nodes.score, small)  # the round's pop order, row by row
                srow, sscore = row[o], nodes.score[o]
                # a row where a score falls or ties, or whose round passed its room,
                # goes to the queue
                queue |= over
                queue[srow[1:][(srow[1:] == srow[:-1]) & (sscore[1:] == sscore[:-1])]] = True
                queue[row[head:][nodes.score[head:] <= nodes.score[born >> 1]]] = True
                # each row's first hit in pop order counts if it is within the cap
                pos = np.flatnonzero(~nodes.words[o, :checks].any(axis=1) & ~queue[srow])
                hrow = srow[pos]
                lead = np.ones(len(pos), dtype=bool)  # a row's first hit
                lead[1:] = hrow[1:] != hrow[:-1]
                pos, hrow = pos[lead], hrow[lead]
                place = popped[hrow] + pos - np.searchsorted(srow, hrow)  # pops before the hit
                within = place <= cap - 2
                done = hrow[within]
                queries[done] = place[within] + 2
                i, t = np.nonzero(np.unpackbits(nodes.words[o[pos[within]], checks:].view(np.uint8),
                                                axis=1, bitorder="little")[:, :n])
                at.append(done[i])
                flips.append(t)
                # the popped sets' other children join the frontier
                inside = np.zeros(len(kid_score), dtype=bool)
                inside[born] = True
                out = np.flatnonzero(~inside & (kid_score == kid_score))
                frontier = _concat([frontier.take(~roots), _children(nodes, out, kid_score, step)])
                popped += np.bincount(row, minlength=rows)
                left = (popped < cap - 1) & ~queue
                left[hrow] = False
                live = live[left[live]]
                frontier = frontier.take(left[frontier.at // n])
                want[live] = np.minimum(2 * want[live], cap - 1 - popped[live])
        return queries, np.concatenate(at), np.concatenate(flips), np.flatnonzero(queue)


# ---------------------------------------------------------------------------
# belief propagation
# ---------------------------------------------------------------------------

_ATANH_LIM = np.nextafter(1.0, 0.0)
# rows whose messages one sum-product pass holds; a call with more queues the
# rest for the slots its rows free, so its five message buffers stay this size
_BP_ROWS = 32


@dataclass(frozen=True)
class BpDecoder(_Decoder):
    """Sum-product decoding on the Tanner graph of ``code.sparse``.

    Check messages use the tanh rule with leave-one-out products computed
    by exclusive prefix/suffix products (no divisions).  A ``decode_batch``
    call decodes its rows in a pool of at most ``_BP_ROWS`` slots, and each
    iteration covers every row in the pool.  A row stops as soon as its
    hard decision satisfies every row of ``code.sparse``, as ``decoded`` if
    it also passes the membership check and ``crc_failed`` if not, or ends
    ``abandoned`` after ``max_iters`` iterations; either way its slot goes
    to the next queued row of the call.  ``queries`` is the row's own
    iteration count.
    """

    max_iters: int = 50

    def _decode_llrs(self, code: CodeSpec, llr: np.ndarray):
        if code.sparse is None:
            raise ValueError("BpDecoder needs a code with a sparse parity check")
        cols, col_slots = code.sparse.tanner.slot_cols, code.sparse.tanner.col_slots
        (rows, n), cap = llr.shape, self.max_iters
        status = np.full(rows, ABANDONED, dtype=np.int8)
        iters = np.full(rows, cap, dtype=np.int64)
        words = np.zeros(llr.shape, dtype=np.uint8)
        width = min(rows, _BP_ROWS)
        if not width:
            return status, iters, words
        # slot s decodes row row[s], whose first iteration was loop step first[s];
        # rows from queued on wait for a slot
        row, first, queued = np.arange(width), np.ones(width, dtype=np.int64), width
        # the batch axis is last; variable n, which pads the checks, is +inf,
        # whose tanh is exactly 1.0, and no column sum reads it
        prior = np.concatenate([llr[:width].T, np.full((1, width), np.inf)])
        # flat buffers viewed contiguously at the slot count: v2c (in place its
        # tanh, then the totals at each slot), prefix and suffix products, c2v
        # and after it the zero message that pads col_slots, and the totals
        shapes = [cols.shape, cols.shape, cols.shape, (cols.size + 1,), (n + 1,)]
        bufs = [np.empty(math.prod(shape) * width) for shape in shapes]

        def views(width):
            t, pre, suf, c2v, total = (buf[:math.prod(shape) * width].reshape(shape + (width,))
                                       for buf, shape in zip(bufs, shapes))
            pre[:1], suf[-1:], c2v[-1] = 1.0, 1.0, 0.0
            # slot j: slots 0..j - 1 in order times slots d_max - 1 down to j + 1
            chain = [*zip(pre[:-1], t[:-1], pre[1:]), *zip(suf[:0:-1], t[:0:-1], suf[-2::-1])]
            return t, pre, suf, c2v, c2v[:-1].reshape(t.shape), total, total[:n], chain

        t, pre, suf, c2v, edges, total, col_sum, chain = views(width)
        np.take(prior, cols, axis=0, out=t, mode="clip")
        for it in itertools.count(1):
            np.multiply(t, 0.5, out=t)
            np.tanh(t, out=t)
            for a, b, out in chain:
                np.multiply(a, b, out=out)
            np.multiply(pre, suf, out=edges)
            np.maximum(edges, -_ATANH_LIM, out=edges)  # np.clip, without its wrapper
            np.minimum(edges, _ATANH_LIM, out=edges)
            np.arctanh(edges, out=edges)
            np.multiply(edges, 2.0, out=edges)
            # each column's messages from 0.0 in ascending row order, as np.bincount
            # adds; take, not fancy indexing, which reads the same values slower
            total.fill(0.0)
            for slots in col_slots:
                col_sum += c2v.take(slots, axis=0)
            np.add(total, prior, out=total)
            np.take(total, cols, axis=0, out=t, mode="clip")
            odd = np.logical_or.reduce(np.bitwise_xor.reduce(t < 0, axis=0), axis=0)
            np.subtract(t, edges, out=t)  # the next v2c
            # a slot frees when its row stops, or ends abandoned at the cap
            free = ~odd
            free |= first == it + 1 - cap
            if not free.any():
                continue
            done = np.flatnonzero(~odd)
            if done.size:
                word, finished = total[:n, done].T < 0, row[done]
                words[finished] = word
                rejected = packed_syndromes(code, word).any(axis=1)
                status[finished] = np.where(rejected, CRC_FAILED, DECODED)
                iters[finished] = it + 1 - first[done]
            free = np.flatnonzero(free)
            refill, rest = free[:rows - queued], free[rows - queued:]
            if refill.size:  # the next queued rows start in the freed slots
                row[refill] = np.arange(queued, queued + refill.size)
                first[refill], queued = it + 1, queued + refill.size
                prior[:n, refill] = llr[row[refill]].T
                t[..., refill] = prior[:, refill].take(cols, axis=0)
            if rest.size:  # the queue is empty: drop the slots left free
                keep = np.ones(len(row), dtype=bool)
                keep[rest] = False
                row, first = row[keep], first[keep]
                if not row.size:
                    break
                prior, v2c = prior[:, keep], t[..., keep]
                t, pre, suf, c2v, edges, total, col_sum, chain = views(len(row))
                t[...] = v2c
        return status, iters, words


# ---------------------------------------------------------------------------
# confidence metrics
# ---------------------------------------------------------------------------

METRIC_QUERY_COUNT = "query_count"
METRIC_NOISE_NLL = "noise_nll"
METRICS = (METRIC_QUERY_COUNT, METRIC_NOISE_NLL)  # every name ``confidence`` accepts


def confidence(outcome: DecodeOutcome, metric: str) -> float:
    """Lower is more confident; non-decoded outcomes map to +inf.

    ``query_count`` returns the query/iteration count.  ``noise_nll``
    returns the outcome's Gaussian negative log-likelihood of the noise,
    sum(z^2) / (2 sigma^2) + n * ln(sigma * sqrt(2 pi)), so the most likely
    noise sequence wins the comparison.
    """
    return float(confidences(STATUSES.index(outcome.status), outcome.queries,
                             outcome.noise_nll, metric))


def confidences(status, queries, noise_nll, metric: str) -> np.ndarray:
    """:func:`confidence` of outcomes given as arrays of equal shape: status
    codes, query counts and noise NLLs."""
    if metric not in METRICS:
        raise ValueError(f"unknown confidence metric {metric!r}")
    value = queries if metric == METRIC_QUERY_COUNT else noise_nll
    return np.where(np.equal(status, DECODED), value, math.inf)
