"""Soft-decision decoders: ORBGRAND, SGRANDAB, and belief propagation.

The guessing decoders invert putative noise-effect patterns on the hard
decision, most plausible first, and query codebook membership by syndrome
(plus CRC when the code carries one).  The first hit is returned together
with the number of queries spent, which doubles as a decoding-confidence
proxy.  Pattern orderings are deterministic:

* SGRANDAB enumerates flip sets in exactly nondecreasing sum of flipped
  |LLR| via a priority-queue successor expansion, so an accepted answer is
  a maximum-likelihood decoding and memory stays O(queries).
* ORBGRAND ranks positions by ascending |LLR| (rank 1 = least reliable,
  ties by position) and sweeps flip sets in nondecreasing logistic weight,
  the sum of flipped ranks; equal-weight sets are ordered by size then
  lexicographically.  Rank sets of a given weight are the partitions of
  that weight into distinct parts <= n.

All decoders are pure given their inputs.  The module keeps a per-process
cache of ORBGRAND rank streams, and codes cache their packed column masks
and Tanner-graph layouts on first use; none of these is guarded by a lock,
so share work across processes rather than threads.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .gf2 import CodeSpec

__all__ = [
    "SoftBlock",
    "AbandonmentPolicy",
    "DecodeOutcome",
    "llrs",
    "sgrandab_decode",
    "orbgrand_decode",
    "bp_decode",
    "confidence",
    "orbgrand_rank_patterns",
    "sgrand_flip_patterns",
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
class AbandonmentPolicy:
    """Give up after ``max_queries`` codebook queries."""

    max_queries: int

    def __post_init__(self) -> None:
        if self.max_queries < 1:
            raise ValueError("need max_queries >= 1")


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
    return 2.0 * soft.received / soft.noise_variance


# ---------------------------------------------------------------------------
# guessing decoders
# ---------------------------------------------------------------------------

def _syndrome_int(bits: np.ndarray, masks: list[int]) -> int:
    s = 0
    for pos in np.nonzero(bits)[0]:
        s ^= masks[int(pos)]
    return s


def sgrand_flip_patterns(reliabilities: np.ndarray) -> Iterator[tuple[int, ...]]:
    """Index sets into the ascending-reliability order, nondecreasing score.

    Score of a set is the sum of its (sorted) reliabilities.  Successor
    expansion from {0}: a popped set either grows by the next index or
    slides its largest index one step up, which reaches every nonempty set
    exactly once while children never score below their parent.
    """
    r = np.sort(np.asarray(reliabilities, dtype=float))
    n = r.size
    yield ()
    if n == 0:
        return
    heap: list[tuple[float, int, tuple[int, ...]]] = [(float(r[0]), 0, (0,))]
    seq = 1
    while heap:
        score, _, pat = heapq.heappop(heap)
        t = pat[-1]
        if t + 1 < n:
            grow = float(score + r[t + 1])
            heapq.heappush(heap, (grow, seq, pat + (t + 1,)))
            seq += 1
            heapq.heappush(heap, (float(grow - r[t]), seq, pat[:-1] + (t + 1,)))
            seq += 1
        yield pat


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


class _RankStreamCache:
    """Lazily extended prefix of the ORBGRAND rank stream for one n."""

    def __init__(self, n: int) -> None:
        self._gen = orbgrand_rank_patterns(n)
        self.patterns: list[tuple[int, ...]] = []

    def extend_to(self, count: int) -> None:
        while len(self.patterns) < count:
            try:
                self.patterns.append(next(self._gen))
            except StopIteration:
                break


_RANK_CACHE: dict[int, _RankStreamCache] = {}


def _rank_cache(n: int) -> _RankStreamCache:
    cache = _RANK_CACHE.get(n)
    if cache is None:
        cache = _RankStreamCache(n)
        _RANK_CACHE[n] = cache
    return cache


def _accept(code: CodeSpec, candidate: np.ndarray, soft: SoftBlock,
            queries: int) -> DecodeOutcome | None:
    message = code.message_from_codeword(candidate)
    if not code.valid_message(message):
        return None
    z = soft.received - (1.0 - 2.0 * candidate.astype(float))
    sigma2 = soft.noise_variance
    nll = float(np.sum(z * z) / (2.0 * sigma2)
                + z.size * 0.5 * math.log(2.0 * math.pi * sigma2))
    return DecodeOutcome(status=STATUS_DECODED, queries=queries,
                         codeword=candidate, noise_nll=nll)


def _abandon(queries: int) -> DecodeOutcome:
    return DecodeOutcome(status=STATUS_ABANDONED, queries=queries, codeword=None)


def sgrandab_decode(code: CodeSpec, soft: SoftBlock,
                    policy: AbandonmentPolicy) -> DecodeOutcome:
    """Maximum-likelihood-ordered guessing with abandonment.

    Flip patterns are applied in exactly nonincreasing likelihood, so the
    first codebook hit (that also passes any CRC) is an ML decoding.  The
    heap mirrors :func:`sgrand_flip_patterns` but carries each pattern's
    syndrome incrementally, one XOR per successor.
    """
    llr = llrs(soft)
    hard = (llr < 0).astype(np.uint8)
    reliab = np.abs(llr)
    order = np.argsort(reliab, kind="stable")
    masks = code.column_masks
    base = _syndrome_int(hard, masks)

    queries = 1
    if base == 0:
        hit = _accept(code, hard, soft, queries)
        if hit is not None:
            return hit

    r = reliab[order].tolist()
    sorted_masks = [masks[int(p)] for p in order]
    n = code.n
    cap = policy.max_queries
    heappush, heappop = heapq.heappush, heapq.heappop
    heap = [(r[0], 0, (0,), base ^ sorted_masks[0])] if n else []
    seq = 1
    while heap and queries < cap:
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
            candidate = hard.copy()
            candidate[order[list(pat)]] ^= 1
            hit = _accept(code, candidate, soft, queries)
            if hit is not None:
                return hit
    return _abandon(queries)


def orbgrand_decode(code: CodeSpec, soft: SoftBlock,
                    policy: AbandonmentPolicy) -> DecodeOutcome:
    """Logistic-weight-ordered guessing with abandonment."""
    llr = llrs(soft)
    hard = (llr < 0).astype(np.uint8)
    order = np.argsort(np.abs(llr), kind="stable")  # order[r-1] = rank-r position
    masks = code.column_masks
    base = _syndrome_int(hard, masks)
    rank_masks = [masks[int(p)] for p in order]

    cache = _rank_cache(code.n)
    patterns = cache.patterns
    queries = 0
    while queries < policy.max_queries:
        if queries >= len(patterns):
            # grow the shared prefix geometrically instead of all at once
            cache.extend_to(min(policy.max_queries, max(1024, 2 * len(patterns))))
            if queries >= len(patterns):
                break  # stream exhausted (tiny n)
        pat = patterns[queries]
        queries += 1
        s = base
        for r in pat:
            s ^= rank_masks[r - 1]
        if s == 0:
            candidate = hard.copy()
            if pat:
                candidate[order[[r - 1 for r in pat]]] ^= 1
            hit = _accept(code, candidate, soft, queries)
            if hit is not None:
                return hit
    return _abandon(queries)


# ---------------------------------------------------------------------------
# belief propagation
# ---------------------------------------------------------------------------

_ATANH_LIM = np.nextafter(1.0, 0.0)


def bp_decode(code: CodeSpec, soft: SoftBlock, max_iters: int = 50) -> DecodeOutcome:
    """Sum-product decoding on the Tanner graph of ``code.sparse``.

    Check messages use the tanh rule with leave-one-out products computed
    by exclusive prefix/suffix scans (no divisions).  Exits as soon as the
    hard decision satisfies every check; ``queries`` is the iteration count.
    """
    if code.sparse is None:
        raise ValueError("bp_decode needs a code with a sparse parity check")
    lay = code.sparse.tanner
    llr = llrs(soft)
    v2c = llr[lay.ecol]

    hard = (llr < 0).astype(np.uint8)
    for it in range(1, max_iters + 1):
        t = np.tanh(0.5 * v2c)
        trow = np.ones_like(lay.row_slots, dtype=float)
        trow[lay.valid] = t[lay.row_slots[lay.valid]]
        cp = np.cumprod(trow, axis=1)
        prefix = np.concatenate([np.ones((trow.shape[0], 1)), cp[:, :-1]], axis=1)
        rcp = np.cumprod(trow[:, ::-1], axis=1)[:, ::-1]
        suffix = np.concatenate([rcp[:, 1:], np.ones((trow.shape[0], 1))], axis=1)
        loo = (prefix * suffix)[lay.valid]
        c2v_slots = 2.0 * np.arctanh(np.clip(loo, -_ATANH_LIM, _ATANH_LIM))
        c2v = np.empty(lay.n_edges)
        c2v[lay.row_slots[lay.valid]] = c2v_slots

        col_sum = np.zeros(code.n)
        np.add.at(col_sum, lay.ecol, c2v)
        total = llr + col_sum
        hard = (total < 0).astype(np.uint8)
        if not ((lay.h_dense @ hard) % 2).any():
            hit = _accept(code, hard, soft, it)
            if hit is not None:
                return hit
            return DecodeOutcome(status=STATUS_CRC_FAILED, queries=it,
                                 codeword=None)
        v2c = total[lay.ecol] - c2v

    return _abandon(max_iters)


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


# ---------------------------------------------------------------------------
# configured decoder frontends
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbgrandDecoder:
    max_queries: int

    def decode(self, code: CodeSpec, soft: SoftBlock) -> DecodeOutcome:
        return orbgrand_decode(code, soft, AbandonmentPolicy(self.max_queries))


@dataclass(frozen=True)
class SgrandabDecoder:
    max_queries: int

    def decode(self, code: CodeSpec, soft: SoftBlock) -> DecodeOutcome:
        return sgrandab_decode(code, soft, AbandonmentPolicy(self.max_queries))


@dataclass(frozen=True)
class BpDecoder:
    max_iters: int = 50

    def decode(self, code: CodeSpec, soft: SoftBlock) -> DecodeOutcome:
        return bp_decode(code, soft, self.max_iters)
