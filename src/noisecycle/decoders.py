"""Soft-decision decoders: ORBGRAND, SGRANDAB, and belief propagation.

A decoder is any object with ``decode(code, soft) -> DecodeOutcome``.  The
three here are frozen dataclasses whose fields are their configuration,
``OrbgrandDecoder(max_queries)``, ``SgrandabDecoder(max_queries)`` and
``BpDecoder(max_iters=50)``; each rejects a limit below 1 when built.

The guessing decoders invert putative noise-effect patterns on the hard
decision, most plausible first, and query codebook membership by syndrome
(plus CRC when the code carries one).  The first hit is returned together
with the number of queries spent, which doubles as a decoding-confidence
proxy.  Both share one prologue and one flip-and-accept step; their
pattern orderings are deterministic:

* SGRANDAB enumerates flip sets in exactly nondecreasing sum of flipped
  |LLR| via a priority-queue successor expansion, so an accepted answer is
  a maximum-likelihood decoding and memory stays O(queries).
* ORBGRAND (Duffy, ICASSP 2021) ranks positions by ascending |LLR| (rank 1
  = least reliable, ties by position) and sweeps flip sets in nondecreasing
  logistic weight, the sum of flipped ranks; equal-weight sets are ordered
  by size then lexicographically.  Rank sets of a given weight are the
  partitions of that weight into distinct parts <= n.

All decoders are pure given their inputs.  The module keeps a per-process
cache of ORBGRAND rank streams, and codes cache their packed column masks
and Tanner-graph layouts on first use; none of these is guarded by a lock,
so share work across processes rather than threads.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
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
    return 2.0 * soft.received / soft.noise_variance


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


# n -> (cached prefix of the rank stream, the generator that extends it)
_RANK_CACHE: dict[int, tuple[list[tuple[int, ...]], Iterator[tuple[int, ...]]]] = {}


def _rank_prefix(n: int, count: int) -> list[tuple[int, ...]]:
    """The shared, only-growing cached prefix of ``orbgrand_rank_patterns(n)``,
    extended to at least ``count`` sets unless the stream ends first."""
    cached = _RANK_CACHE.get(n)
    if cached is None:
        cached = _RANK_CACHE[n] = ([], orbgrand_rank_patterns(n))
    prefix, stream = cached
    if len(prefix) < count:
        prefix.extend(itertools.islice(stream, count - len(prefix)))
    return prefix


def _prologue(code: CodeSpec, soft: SoftBlock):
    """What both guessing decoders start from: the hard decision, positions
    by ascending reliability (rank r at ``order[r - 1]``, ties by position),
    the sorted reliabilities, the base syndrome and the column masks in
    reliability order."""
    llr = llrs(soft)
    hard = (llr < 0).astype(np.uint8)
    reliab = np.abs(llr)
    order = np.argsort(reliab, kind="stable")
    masks = code.column_masks
    base = 0
    for pos in np.nonzero(hard)[0]:
        base ^= masks[int(pos)]
    return hard, order, reliab[order], base, [masks[int(p)] for p in order]


def _accept(code: CodeSpec, soft: SoftBlock, hard: np.ndarray,
            flips: np.ndarray | list[int], queries: int) -> DecodeOutcome | None:
    """``hard`` with the bits at positions ``flips`` inverted, as a decoded
    outcome, or None if its message fails the code's CRC."""
    candidate = hard.copy()
    candidate[flips] ^= 1
    if not code.valid_message(code.message_from_codeword(candidate)):
        return None
    z = soft.received - (1.0 - 2.0 * candidate.astype(float))
    sigma2 = soft.noise_variance
    nll = float(np.sum(z * z) / (2.0 * sigma2)
                + z.size * 0.5 * math.log(2.0 * math.pi * sigma2))
    return DecodeOutcome(status=STATUS_DECODED, queries=queries,
                         codeword=candidate, noise_nll=nll)


def _check_limit(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")


@dataclass(frozen=True)
class OrbgrandDecoder:
    """Logistic-weight-ordered guessing, abandoned after ``max_queries``."""

    max_queries: int

    def __post_init__(self) -> None:
        _check_limit("max_queries", self.max_queries)

    def decode(self, code: CodeSpec, soft: SoftBlock) -> DecodeOutcome:
        hard, order, _, base, rank_masks = _prologue(code, soft)
        cap = self.max_queries
        patterns: list[tuple[int, ...]] = []
        queries = 0
        while queries < cap:
            if queries == len(patterns):
                # grow the shared prefix geometrically instead of all at once
                patterns = _rank_prefix(code.n, min(cap, max(1024, 2 * queries)))
                if queries == len(patterns):
                    break  # stream exhausted (tiny n)
            pat = patterns[queries]
            queries += 1
            s = base
            for r in pat:
                s ^= rank_masks[r - 1]
            if s == 0:
                hit = _accept(code, soft, hard, order[[r - 1 for r in pat]], queries)
                if hit is not None:
                    return hit
        return DecodeOutcome(STATUS_ABANDONED, queries, None)


@dataclass(frozen=True)
class SgrandabDecoder:
    """Maximum-likelihood-ordered guessing, abandoned after ``max_queries``.

    Flip sets are index sets into the reliability order.  Successor
    expansion from {0}: a popped set either grows by the next index or
    slides its largest index one step up, which reaches every nonempty set
    once while children never score below their parent.  Each heap entry
    carries its set's syndrome, one or two XORs from its parent's.
    """

    max_queries: int

    def __post_init__(self) -> None:
        _check_limit("max_queries", self.max_queries)

    def decode(self, code: CodeSpec, soft: SoftBlock) -> DecodeOutcome:
        hard, order, reliab, base, sorted_masks = _prologue(code, soft)
        queries = 1
        if base == 0:
            hit = _accept(code, soft, hard, [], queries)
            if hit is not None:
                return hit

        r = reliab.tolist()
        n = code.n
        cap = self.max_queries
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
                hit = _accept(code, soft, hard, order[list(pat)], queries)
                if hit is not None:
                    return hit
        return DecodeOutcome(STATUS_ABANDONED, queries, None)


# ---------------------------------------------------------------------------
# belief propagation
# ---------------------------------------------------------------------------

_ATANH_LIM = np.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class BpDecoder:
    """Sum-product decoding on the Tanner graph of ``code.sparse``.

    Check messages use the tanh rule with leave-one-out products computed
    by exclusive prefix/suffix scans (no divisions).  Exits as soon as the
    hard decision satisfies every check; ``queries`` is the iteration count,
    at most ``max_iters``.
    """

    max_iters: int = 50

    def __post_init__(self) -> None:
        _check_limit("max_iters", self.max_iters)

    def decode(self, code: CodeSpec, soft: SoftBlock) -> DecodeOutcome:
        if code.sparse is None:
            raise ValueError("BpDecoder needs a code with a sparse parity check")
        lay = code.sparse.tanner
        llr = llrs(soft)
        v2c = llr[lay.ecol]

        for it in range(1, self.max_iters + 1):
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
                hit = _accept(code, soft, hard, [], it)
                if hit is not None:
                    return hit
                return DecodeOutcome(STATUS_CRC_FAILED, it, None)
            v2c = total[lay.ecol] - c2v

        return DecodeOutcome(STATUS_ABANDONED, self.max_iters, None)


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
