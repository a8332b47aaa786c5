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
hard decision, the stable order by reliability and the base syndrome
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
  same for every block, so ORBGRAND checks it in chunks of 16 rows that
  double up to 8192, from a per-process table for each n.  The table holds
  each rank set as pair codes ``a * (n + 1) + b``, its 0-based ranks taken
  two at a time, an odd last one paired with n, which indexes the all-zero
  row of ``column_words``; within a chunk the rows are sorted stably by
  pair count.  A search XORs the reliability-ordered columns of every pair
  it can meet into one table, and a chunk's syndromes are one gather of
  that table per pair index, each over only the rows that have that pair.
  The rank table is built with numpy one weight at a time, and a chunk only
  when a search first reaches it, never past that search's query cap.

BpDecoder runs each sum-product iteration on every still-active row of a
call at once, the batch axis last, through the code's ``TannerLayout``:
messages sit in its (d_max, m_rows) slot table with pads at +inf, the
exclusive prefix and suffix products are d_max - 1 multiplies each, and
column sums gather through its (dv_max, n) column table, adding from 0.0
in ascending row order as ``np.bincount`` does.  A row leaves at its first
iteration in which every sparse row has even parity, accepted or not on the
packed membership check, so each row decodes as it would alone.

All decoders are pure given their inputs.  The rank tables, and the
membership checks, packed columns and Tanner-graph layouts that codes build
on first use, are not guarded by a lock, so share work across processes
rather than threads.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, fields
from typing import Iterator, NamedTuple

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
        pairs = [codes[np.count_nonzero(counts <= k):, k].copy() for k in range(width // 2)]
        lead = max([self.chunks[-1].lead if self.chunks else 0]
                   + [int(c.max()) // (n + 1) + 1 for c in pairs])
        return _Chunk(start, start + have, rows, pairs, lead)


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
    """The guessing prologue; rows not accepted at query 1 call ``_search``
    with their positions by ascending reliability (rank r at
    ``order[r - 1]``), the reliabilities in that order and the packed base
    syndrome."""

    max_queries: int

    def _decode_llrs(self, code: CodeSpec, llr: np.ndarray):
        n = code.n
        reliab = np.abs(llr)
        hard = (llr < 0).astype(np.uint8)
        order, ranked = _reliability_order(reliab)
        base = np.bitwise_xor.reduce(code.column_words[np.where(hard, np.arange(n), n)],
                                     axis=1)
        queries = np.ones(len(hard), dtype=np.int64)
        found = ~base.any(axis=1)
        for i in np.flatnonzero(~found):
            queries[i], flips = self._search(code, order[i], ranked[i], base[i])
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
        table = _RANK_TABLES.get(n) or _RANK_TABLES.setdefault(n, _RankTable(n))
        ranked = code.column_words[np.append(order, n)]  # row r: 0-based rank r; row n: zero
        xors, queries = ranked[:0], 1
        # the stream holds every flip set, so the one that gives the all-zero
        # codeword (the hard decision's ones) hits before the stream ends
        for chunk in table.chunks_below(cap):
            if len(xors) < chunk.lead * (n + 1):
                # row a * (n + 1) + b: the columns of ranks a and b XORed, for
                # twice as many a each time, but no more than any chunk needs
                lead = min(max(chunk.lead, 2 * len(xors) // (n + 1)), table.chunks[-1].lead)
                xors = (ranked[:lead, None] ^ ranked[None]).reshape(-1, ranked.shape[1])
            # take, not fancy indexing, which is several times slower with uint16 codes
            syndromes = xors.take(chunk.pairs[0], axis=0)
            for codes in chunk.pairs[1:]:
                syndromes[len(syndromes) - len(codes):] ^= xors.take(codes, axis=0)
            hits = (syndromes == base).all(axis=1).nonzero()[0]
            if chunk.stop > cap:
                hits = hits[chunk.rows[hits] < cap - chunk.start]
            if hits.size:
                at = int(hits[chunk.rows[hits].argmin()])
                tail = len(syndromes) - at  # the rows from `at` on
                ranks = [r for codes in chunk.pairs if len(codes) >= tail
                         for r in divmod(int(codes[-tail]), n + 1) if r < n]
                return chunk.start + int(chunk.rows[at]) + 1, order[ranks]
            queries = min(chunk.stop, cap)
        return queries, None


@dataclass(frozen=True)
class SgrandabDecoder(_GuessingDecoder):
    """Maximum-likelihood-ordered guessing, abandoned after ``max_queries``.

    Flip sets are index sets into the reliability order.  Successor
    expansion from {0}: a popped set either grows by the next index or
    slides its largest index one step up, which reaches every nonempty set
    once while children never score below their parent.  Sets of equal
    score pop in the order their parents popped, a grown set before a slid
    one.  Each heap entry carries its set's syndrome, one or two XORs from
    its parent's.
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
METRICS = (METRIC_QUERY_COUNT, METRIC_NOISE_NLL)  # every name ``confidence`` accepts


def confidence(outcome: DecodeOutcome, metric: str) -> float:
    """Lower is more confident; non-decoded outcomes map to +inf.

    ``query_count`` returns the query/iteration count.  ``noise_nll``
    returns the outcome's Gaussian negative log-likelihood of the noise,
    sum(z^2) / (2 sigma^2) + n * ln(sigma * sqrt(2 pi)), so the most likely
    noise sequence wins the comparison.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown confidence metric {metric!r}")
    if outcome.status != STATUS_DECODED:
        return math.inf
    if metric == METRIC_QUERY_COUNT:
        return float(outcome.queries)
    return outcome.noise_nll
