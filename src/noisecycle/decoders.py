"""Soft-decision decoders: ORBGRAND, SGRANDAB, and belief propagation.

A decoder is any object with ``decode(code, soft) -> DecodeOutcome``; it
may add ``decode_batch(code, received, variances)``, which decodes the rows
of a (B, n) array exactly as ``decode`` would, one outcome per row.  The
pipeline calls ``decode`` row by row only for outside decoders without it.
The three here are frozen dataclasses whose fields are their configuration,
``OrbgrandDecoder(max_queries)``, ``SgrandabDecoder(max_queries)`` and
``BpDecoder(max_iters=50)``; each rejects a limit below 1 when built.  They
share one frame: ``decode_batch`` takes the LLRs of all rows at once (the
definition of :func:`llrs`), the decoder turns them into a status, a query
count and a word per row, and one helper builds the outcomes; ``decode``
is a batch of one.

The guessing decoders invert putative noise-effect patterns on the hard
decision, most plausible first, and query codebook membership by one
syndrome under the code's membership check, which includes the CRC's
checks when the code carries one.  The first zero syndrome is returned
together with the number of queries spent, which doubles as a
decoding-confidence proxy.  Their prologue covers all rows at once: the
hard decision, a stable ``argsort`` by reliability and the base syndrome
from ``column_words``.  Rows whose hard decision is accepted decode at
query 1 together; only the others search, one at a time:

* SGRANDAB enumerates flip sets in exactly nondecreasing sum of flipped
  |LLR| via a priority-queue successor expansion, so an accepted answer is
  a maximum-likelihood decoding and memory stays O(queries).  The heap
  XORs the Python-int ``column_masks``.
* ORBGRAND (Duffy, ICASSP 2021) ranks positions by ascending |LLR| (rank 1
  = least reliable, ties by position) and sweeps flip sets in nondecreasing
  logistic weight, the sum of flipped ranks; equal-weight sets are ordered
  by size then lexicographically.  Rank sets of a given weight are the
  partitions of that weight into distinct parts <= n.  The order is the
  same for every block, so ORBGRAND checks it in chunks that double in
  length, one array operation per chunk, from a per-process matrix for
  each n: int16 0-based ranks, one row per rank set, padded with n, which
  indexes the all-zero row of ``column_words``.  The matrix grows by
  doubling, but never past the largest ``max_queries`` that asked for it.

BpDecoder runs each sum-product iteration on every still-active row of a
call at once, the batch axis last, through the code's ``TannerLayout``:
messages sit in its (d_max, m_rows) slot table with pads at +inf, the
exclusive prefix and suffix products are d_max - 1 multiplies each, and
column sums gather through its (dv_max, n) column table, adding from 0.0
in ascending row order as ``np.bincount`` does.  A row leaves at its first
iteration in which every sparse row has even parity, accepted or not on the
packed membership check, so each row decodes as it would alone.

All decoders are pure given their inputs.  The rank matrices, and the
membership checks, packed columns and Tanner-graph layouts that codes build
on first use, are not guarded by a lock, so share work across processes
rather than threads.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from .gf2 import CodeSpec

__all__ = [
    "SoftBlock",
    "DecodeOutcome",
    "llrs",
    "confidence",
    "orbgrand_rank_patterns",
    "OrbgrandDecoder",
    "SgrandabDecoder",
    "BpDecoder",
]

STATUS_DECODED = "decoded"
STATUS_ABANDONED = "abandoned"
STATUS_CRC_FAILED = "crc_failed"


@dataclass(frozen=True)
class SoftBlock:
    """Received real vector plus the noise variance to use for its LLRs."""

    received: np.ndarray
    noise_variance: float

    def __post_init__(self) -> None:
        y = np.asarray(self.received, dtype=float)
        if y.ndim != 1:
            raise ValueError("received must be a vector")
        if self.noise_variance <= 0:
            raise ValueError("noise variance must be positive")
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
        if self.status not in (STATUS_DECODED, STATUS_ABANDONED, STATUS_CRC_FAILED):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == STATUS_DECODED and self.codeword is None:
            raise ValueError("decoded outcome must carry a codeword")


def llrs(soft: SoftBlock) -> np.ndarray:
    """Bit LLRs 2 y / sigma^2 under the 0 -> +1 map (positive favors 0)."""
    return _llrs(soft.received, np.array(soft.noise_variance))


def _llrs(received: np.ndarray, variances: np.ndarray) -> np.ndarray:
    # rows (..., n) of received values, each at its variance in (...)
    return 2.0 * received / variances[..., None]


class _Decoder:
    """The frame of a dataclass whose fields are limits of at least 1:
    ``_decode_llrs(code, llr)`` returns each row's status and query count,
    and (B, n) words read only in the rows that decoded."""

    def __post_init__(self) -> None:
        for limit in fields(self):
            value = getattr(self, limit.name)
            if value < 1:
                raise ValueError(f"{limit.name} must be >= 1, got {value!r}")

    def decode(self, code: CodeSpec, soft: SoftBlock) -> DecodeOutcome:
        return self.decode_batch(code, soft.received[None],
                                 np.array([soft.noise_variance]))[0]

    def decode_batch(self, code: CodeSpec, received: np.ndarray,
                     variances: np.ndarray) -> list[DecodeOutcome]:
        """Decode row i of ``received`` (B, n) at noise variance
        ``variances[i]``, exactly as ``decode`` would, one outcome per row."""
        status, queries, words = self._decode_llrs(code, _llrs(received, variances))
        return _outcomes(received, variances, status, queries, words)


def _outcomes(received: np.ndarray, variances: np.ndarray, status: list[str],
              queries, words: np.ndarray) -> list[DecodeOutcome]:
    """Row i's outcome: ``status[i]`` after ``queries[i]`` queries, carrying
    row i of ``words`` and the noise NLL of ``received[i]`` at
    ``variances[i]`` when decoded.  The logarithm is ``math.log``, whose
    last bit can differ from ``np.log``'s."""
    decoded = np.array([s == STATUS_DECODED for s in status], dtype=bool)
    words, variances = words[decoded], variances[decoded]
    z = received[decoded] - (1.0 - 2.0 * words.astype(float))
    scaled = np.sum(z * z, axis=1) / (2.0 * variances)
    half_n = received.shape[1] * 0.5
    nll = iter([float(s + half_n * math.log(2.0 * math.pi * v))
                for s, v in zip(scaled, variances.tolist())])
    word = iter(words)
    return [DecodeOutcome(s, int(q), next(word), next(nll)) if ok
            else DecodeOutcome(s, int(q), None)
            for s, q, ok in zip(status, queries, decoded.tolist())]


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


# n -> [head of the rank stream as a padded matrix, the generator extending it]
_RANK_STREAMS: dict[int, list] = {}


def _rank_rows(n: int, count: int, cap: int) -> np.ndarray:
    """The shared head of ``orbgrand_rank_patterns(n)``, one row per rank set
    holding its 0-based ranks padded with ``n``: at least ``count`` rows
    unless the stream ends first.  It grows by doubling, but not past
    ``cap``, so it is bounded by the largest query cap that asked."""
    stream = _RANK_STREAMS.get(n)
    if stream is None:
        dtype = np.int16 if n < 2 ** 15 else np.int32
        stream = _RANK_STREAMS[n] = [np.empty((0, 0), dtype), orbgrand_rank_patterns(n)]
    rows, source = stream
    if len(rows) < count:
        # read the new rank sets once, straight into flat arrays: holding them
        # as tuples, even briefly, costs more memory than the matrix
        new = itertools.islice(source, max(count, min(cap, 2 * len(rows))) - len(rows))
        sizes: list[int] = []
        ranks = np.fromiter(_chained(new, sizes), rows.dtype)
        if sizes:
            width = max(rows.shape[1], max(sizes))
            grown = np.full((len(rows) + len(sizes), width), n, rows.dtype)
            grown[: len(rows), : rows.shape[1]] = rows
            # row-major order of the mask is the order of the chained rank sets
            tail = grown[len(rows):]
            tail[np.arange(width) < np.array(sizes)[:, None]] = ranks - 1
            stream[0] = rows = grown
    return rows


def _chained(patterns: Iterator[tuple[int, ...]], sizes: list[int]) -> Iterator[int]:
    # the ranks of each set in turn, appending its size to ``sizes``
    for pattern in patterns:
        sizes.append(len(pattern))
        yield from pattern


@dataclass(frozen=True)
class _GuessingDecoder(_Decoder):
    """The guessing prologue; rows not accepted at query 1 call ``_search``
    with their positions by ascending reliability (rank r at
    ``order[r - 1]``), the reliabilities in that order and the packed base
    syndrome."""

    max_queries: int

    def _decode_llrs(self, code: CodeSpec, llr: np.ndarray):
        n = code.n
        reliab = np.abs(llr)
        hard = (llr < 0).astype(np.uint8)
        order = np.argsort(reliab, axis=1, kind="stable")
        base = np.bitwise_xor.reduce(code.column_words[np.where(hard, np.arange(n), n)],
                                     axis=1)
        queries = np.ones(len(hard), dtype=np.int64)
        found = ~base.any(axis=1)
        for i in np.flatnonzero(~found):
            queries[i], flips = self._search(code, order[i], reliab[i, order[i]], base[i])
            if flips is not None:
                hard[i, flips] ^= 1
                found[i] = True
        status = [STATUS_DECODED if ok else STATUS_ABANDONED for ok in found.tolist()]
        return status, queries.tolist(), hard


@dataclass(frozen=True)
class OrbgrandDecoder(_GuessingDecoder):
    """Logistic-weight-ordered guessing, abandoned after ``max_queries``."""

    def _search(self, code: CodeSpec, order: np.ndarray, reliab: np.ndarray,
                base: np.ndarray):
        """(queries spent, positions to flip) of the first rank set after the
        empty one whose flips zero the syndrome ``base``; (queries, None)
        when the cap or the stream runs out first."""
        n, cap = len(order), self.max_queries
        queries, size = 1, 16
        ranked = code.column_words[np.append(order, n)]  # row r: 0-based rank r; row n: zero
        # every block walks the same stream: check it in chunks that double,
        # since most decodes stop within a few dozen queries, up to 8192 rows,
        # which bounds the chunk's temporaries at about 1 MB
        while queries < cap:
            rows = _rank_rows(n, min(queries + size, cap), cap)
            # the stream holds every flip set, so the one that gives the all-zero
            # codeword (the hard decision's ones) hits before the stream ends
            stop = min(queries + size, cap, len(rows))
            syndromes = np.bitwise_xor.reduce(ranked[rows[queries:stop]], axis=1) ^ base
            hits = np.flatnonzero(~syndromes.any(axis=1))
            if hits.size:
                flips = rows[queries + hits[0]]
                return queries + int(hits[0]) + 1, order[flips[flips < n]]
            queries, size = stop, min(2 * size, 8192)
        return queries, None


@dataclass(frozen=True)
class SgrandabDecoder(_GuessingDecoder):
    """Maximum-likelihood-ordered guessing, abandoned after ``max_queries``.

    Flip sets are index sets into the reliability order.  Successor
    expansion from {0}: a popped set either grows by the next index or
    slides its largest index one step up, which reaches every nonempty set
    once while children never score below their parent.  Each heap entry
    carries its set's syndrome, one or two XORs from its parent's.
    """

    def _search(self, code: CodeSpec, order: np.ndarray, reliab: np.ndarray,
                base: np.ndarray):
        r = reliab.tolist()
        n, cap = len(r), self.max_queries
        masks = code.column_masks
        sorted_masks = [masks[p] for p in order.tolist()]
        # base read as column_masks reads each column's words
        start = int.from_bytes(base.astype("<u8").tobytes(), "little")
        heappush, heappop = heapq.heappush, heapq.heappop
        heap = [(r[0], 0, (0,), start ^ sorted_masks[0])]
        queries, seq = 1, 1
        while queries < cap:  # the all-zero codeword's flip set pops before the heap empties
            score, _, pat, s = heappop(heap)
            queries += 1
            t = pat[-1]
            if t + 1 < n:
                grow = score + r[t + 1]
                nxt = sorted_masks[t + 1]
                heappush(heap, (grow, seq, pat + (t + 1,), s ^ nxt))
                heappush(heap, (grow - r[t], seq + 1, pat[:-1] + (t + 1,),
                                s ^ nxt ^ sorted_masks[t]))
                seq += 2
            if s == 0:
                return queries, order[list(pat)]
        return queries, None


# ---------------------------------------------------------------------------
# belief propagation
# ---------------------------------------------------------------------------

_ATANH_LIM = np.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class BpDecoder(_Decoder):
    """Sum-product decoding on the Tanner graph of ``code.sparse``.

    Check messages use the tanh rule with leave-one-out products computed
    by exclusive prefix/suffix products (no divisions).  Each iteration
    covers every row of a ``decode_batch`` call that has not stopped.  A row
    stops as soon as its hard decision satisfies every row of
    ``code.sparse``, as ``decoded`` if it also passes the membership check
    and ``crc_failed`` if not; ``queries`` is its iteration count, at most
    ``max_iters``.
    """

    max_iters: int = 50

    def _decode_llrs(self, code: CodeSpec, llr: np.ndarray):
        if code.sparse is None:
            raise ValueError("BpDecoder needs a code with a sparse parity check")
        cols, col_slots = code.sparse.tanner.slot_cols, code.sparse.tanner.col_slots
        n, rows = code.n, len(llr)
        status, iters = [STATUS_ABANDONED] * rows, [self.max_iters] * rows
        words = np.zeros(llr.shape, dtype=np.uint8)
        active = np.arange(rows)
        # the batch axis is last; variable n, which pads the checks, is +inf,
        # whose tanh is exactly 1.0, and no column sum reads it
        prior = np.concatenate([llr.T, np.full((1, rows), np.inf)])
        # flat buffers viewed contiguously at the active row count: v2c (in place
        # its tanh, then the totals at each slot), prefix and suffix products,
        # c2v and after it the zero message that pads col_slots, and the totals
        shapes = [cols.shape, cols.shape, cols.shape, (cols.size + 1,), (n + 1,)]
        bufs = [np.empty(math.prod(shape) * rows) for shape in shapes]

        def views(width):
            t, pre, suf, c2v, total = (buf[:math.prod(shape) * width].reshape(shape + (width,))
                                       for buf, shape in zip(bufs, shapes))
            pre[:1], suf[-1:], c2v[-1] = 1.0, 1.0, 0.0
            # slot j: slots 0..j - 1 in order times slots d_max - 1 down to j + 1
            chain = [*zip(pre[:-1], t[:-1], pre[1:]), *zip(suf[:0:-1], t[:0:-1], suf[-2::-1])]
            return t, pre, suf, c2v, c2v[:-1].reshape(t.shape), total, total[:n], chain

        t, pre, suf, c2v, edges, total, col_sum, chain = views(rows)
        np.take(prior, cols, axis=0, out=t, mode="clip")
        for it in range(1, self.max_iters + 1):
            np.multiply(t, 0.5, out=t)
            np.tanh(t, out=t)
            for a, b, out in chain:
                np.multiply(a, b, out=out)
            np.multiply(pre, suf, out=edges)
            np.maximum(edges, -_ATANH_LIM, out=edges)  # np.clip, without its wrapper
            np.minimum(edges, _ATANH_LIM, out=edges)
            np.arctanh(edges, out=edges)
            np.multiply(edges, 2.0, out=edges)
            # each column's messages from 0.0 in ascending row order, as np.bincount adds
            total.fill(0.0)
            for slots in col_slots:
                col_sum += c2v[slots]
            np.add(total, prior, out=total)
            np.take(total, cols, axis=0, out=t, mode="clip")
            odd = np.logical_or.reduce(np.bitwise_xor.reduce(t < 0, axis=0), axis=0)
            np.subtract(t, edges, out=t)  # the next v2c
            if np.count_nonzero(odd) == len(active):
                continue
            done = np.flatnonzero(~odd)
            word, finished = total[:n, done].T < 0, active[done]
            words[finished] = word
            rejected = np.bitwise_xor.reduce(
                code.column_words[np.where(word, np.arange(n), n)], axis=1).any(axis=1)
            for row, bad in zip(finished.tolist(), rejected.tolist()):
                status[row], iters[row] = STATUS_CRC_FAILED if bad else STATUS_DECODED, it
            active = active[odd]
            if not active.size:
                break
            prior, v2c = prior[:, odd], t[..., odd]
            t, pre, suf, c2v, edges, total, col_sum, chain = views(len(active))
            t[...] = v2c
        return status, iters, words


# ---------------------------------------------------------------------------
# confidence metrics
# ---------------------------------------------------------------------------

METRIC_QUERY_COUNT = "query_count"
METRIC_NOISE_NLL = "noise_nll"


def confidence(outcome: DecodeOutcome, metric: str) -> float:
    """Lower is more confident; non-decoded outcomes map to +inf.

    ``query_count`` returns the query/iteration count.  ``noise_nll``
    returns the outcome's Gaussian negative log-likelihood of the noise,
    sum(z^2) / (2 sigma^2) + n * ln(sigma * sqrt(2 pi)), so the most likely
    noise sequence wins the comparison.
    """
    if metric not in (METRIC_QUERY_COUNT, METRIC_NOISE_NLL):
        raise ValueError(f"unknown confidence metric {metric!r}")
    if outcome.status != STATUS_DECODED:
        return math.inf
    if metric == METRIC_QUERY_COUNT:
        return float(outcome.queries)
    return outcome.noise_nll
