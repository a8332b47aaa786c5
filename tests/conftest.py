"""Shared oracles and test doubles.

The oracles here are deliberately independent of the package's fast paths:
dense mod-2 matrix products, polynomial long division, exhaustive codebook
scans.  Production code must agree with them, never the other way around.

Property tests run under a derandomized hypothesis profile with no example
database, so every run draws the same examples.  Hypothesis still caches
the constants it reads from source files; that cache goes to a temporary
directory removed at exit, not to ``.hypothesis/`` in the working directory.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import tempfile
import types
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from noisecycle import ChannelModel, DecodeOutcome
from noisecycle.channel import modulate_bpsk

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="noisecycle-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def mod2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense GF(2) product, the reference for all packed arithmetic."""
    return (np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)) % 2


def column_ints(mat) -> list[int]:
    """Each column of a bit matrix as one Python int whose bit r is row r."""
    return [sum(int(b) << r for r, b in enumerate(col)) for col in np.asarray(mat).T]


def crc_longdivision(message_bits, poly_bits) -> np.ndarray:
    """Schoolbook polynomial remainder of message * x^deg, as a bit vector."""
    poly = list(poly_bits)
    deg = len(poly) - 1
    work = list(message_bits) + [0] * deg
    for i in range(len(work) - deg):
        if work[i]:
            for j, p in enumerate(poly):
                work[i + j] ^= p
    return np.array(work[-deg:], dtype=np.uint8)


def orbgrand_first_hit(code, y) -> tuple[int, np.ndarray]:
    """(1-based position, word) of the first rank set of
    ``orbgrand_rank_patterns`` that turns the hard decision of ``y`` into an
    accepted word, walked one set at a time.  Rank r is the r-th least
    reliable position, ties by position.  A word is accepted when H w = 0
    and, with a CRC, its message (the first k bits: the codes are
    systematic) passes long division."""
    from noisecycle.decoders import orbgrand_rank_patterns
    y = np.asarray(y, dtype=float)
    hard = (y < 0).astype(np.uint8)
    order = np.argsort(np.abs(y), kind="stable")
    poly = None if code.crc is None else [int(b) for b in code.crc.polynomial]
    for pos, ranks in enumerate(orbgrand_rank_patterns(code.n), start=1):
        word = hard.copy()
        word[order[[r - 1 for r in ranks]]] ^= 1
        if mod2(code.parity_check, word).any():
            continue
        msg = word[:code.k]
        p = code.payload_bits
        if poly is None or np.array_equal(crc_longdivision(msg[:p], poly), msg[p:]):
            return pos, word
    raise AssertionError("no rank set gives an accepted word")


def sgrandab_heap_search(code, order, reliab, base, cap: int) -> tuple[int, list[int] | None]:
    """SGRANDAB's search on one row as a heap walk, the maximum-likelihood
    reference for ``SgrandabDecoder._search``: (queries spent, positions to
    flip) of the row's first hit, or (queries, None) when the cap of
    ``cap`` queries runs out first.  ``order`` lists the positions by
    ascending reliability, ``reliab`` their reliabilities in that order and
    ``base`` the hard decision's packed syndrome; query 1 was the hard
    decision.  Flip sets are index tuples into the order; a popped set
    grows by the next index or slides its last one up, and entries pop by
    (score, push count), each child one or two float operations from its
    parent's score.  Syndromes are Python ints whose bit r is check r."""
    r = [float(x) for x in reliab]
    n = len(r)
    masks = column_ints(code.membership_check)
    sorted_masks = [masks[p] for p in np.asarray(order).tolist()]
    start = int.from_bytes(np.asarray(base).astype("<u8").tobytes(), "little")
    heap = [(r[0], 0, (0,), start ^ sorted_masks[0])]
    queries, seq = 1, 1
    while queries < cap:  # the all-zero codeword's flip set pops before the heap empties
        score, _, pat, s = heapq.heappop(heap)
        queries += 1
        t = pat[-1]
        if t + 1 < n:
            grow = score + r[t + 1]
            nxt = sorted_masks[t + 1]
            heapq.heappush(heap, (grow, seq, pat + (t + 1,), s ^ nxt))
            heapq.heappush(heap, (grow - r[t], seq + 1, pat[:-1] + (t + 1,),
                                  s ^ nxt ^ sorted_masks[t]))
            seq += 2
        if s == 0:
            return queries, [int(order[i]) for i in pat]
    return queries, None


def _reference_layout(code):
    """Edge columns, (m_rows, d_max) row slots padded with -1, and the mask
    of real slots, for ``code.sparse``."""
    row_cols = code.sparse.row_cols
    erow = np.array([r for r, cols in enumerate(row_cols) for _ in cols], dtype=np.int64)
    ecol = np.array([c for cols in row_cols for c in cols], dtype=np.int64)
    dmax = max((len(cols) for cols in row_cols), default=0)
    row_slots = np.full((len(row_cols), dmax), -1, dtype=np.int64)
    fill = np.zeros(len(row_cols), dtype=np.int64)
    for e, r in enumerate(erow):
        row_slots[r, fill[r]] = e
        fill[r] += 1
    return ecol, row_slots, row_slots >= 0


def _reference_check_messages(n, layout, v2c):
    """Check-to-variable messages on the edges and their per-column sums."""
    ecol, row_slots, valid = layout
    lim = np.nextafter(1.0, 0.0)
    t = np.tanh(0.5 * v2c)
    trow = np.ones_like(row_slots, dtype=float)
    trow[valid] = t[row_slots[valid]]
    cp = np.cumprod(trow, axis=1)
    prefix = np.concatenate([np.ones((trow.shape[0], 1)), cp[:, :-1]], axis=1)
    rcp = np.cumprod(trow[:, ::-1], axis=1)[:, ::-1]
    suffix = np.concatenate([rcp[:, 1:], np.ones((trow.shape[0], 1))], axis=1)
    c2v = np.empty(ecol.size)
    c2v[row_slots[valid]] = 2.0 * np.arctanh(np.clip((prefix * suffix)[valid], -lim, lim))
    col_sum = np.zeros(n)
    np.add.at(col_sum, ecol, c2v)
    return c2v, col_sum


def bp_reference(code, soft, max_iters: int) -> DecodeOutcome:
    """Sum-product decoding in its first vectorised form, the reference for
    ``BpDecoder``: (m_rows, d_max) row slots padded with -1 and read through
    boolean masks, exclusive prefix/suffix products by ``cumprod`` along
    axis 1 over rows padded with ones, ``np.add.at`` column sums, and the
    dense ``parity_check`` as stop rule.  Every float operation comes in the
    same order as in the decoder, so outcomes must be equal, not close."""
    layout = _reference_layout(code)
    llr = 2.0 * soft.received / soft.noise_variance
    v2c = llr[layout[0]]
    for it in range(1, max_iters + 1):
        c2v, col_sum = _reference_check_messages(code.n, layout, v2c)
        total = llr + col_sum
        hard = (total < 0).astype(np.uint8)
        if not mod2(code.parity_check, hard).any():
            if mod2(code.membership_check, hard).any():
                return DecodeOutcome(status="crc_failed", queries=it, codeword=None)
            return decoded_outcome(hard, soft, it)
        v2c = total[layout[0]] - c2v
    return DecodeOutcome(status="abandoned", queries=max_iters, codeword=None)


def bp_knife_edge(code, y, sigma2: float, column: int) -> np.ndarray:
    """``y`` with entry ``column`` set so that its LLR at ``sigma2``, a power
    of two, cancels the column's first-iteration check messages exactly:
    the reference's first total there is 0.0, so a message that differs by
    one ulp flips that hard decision and, most often, the outcome."""
    layout = _reference_layout(code)
    _, col_sum = _reference_check_messages(code.n, layout, (2.0 * y / sigma2)[layout[0]])
    y = np.array(y, dtype=float)
    y[column] = -col_sum[column] * sigma2 / 2.0
    return y


def bp_pool_widths(queries, slots: int) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The schedule of a pool of ``slots`` rows over a call whose row i runs
    ``queries[i]`` iterations: the first ``slots`` rows start at iteration
    1, and a row that ends frees its slot to the next queued row, which
    starts at the next iteration.  Returns the rows the pool holds at each
    iteration and the hand-offs (ending row, starting row, iteration)."""
    queue = list(enumerate(queries))
    pool, queue = queue[:slots], queue[slots:]
    widths, handoffs = [], []
    while pool:
        widths.append(len(pool))
        left = []
        for row, remaining in pool:
            if remaining > 1:
                left.append((row, remaining - 1))
            elif queue:
                handoffs.append((row, queue[0][0], len(widths)))
                left.append(queue.pop(0))
        pool = left
    return widths, handoffs


def record_bp_widths(monkeypatch) -> list[int]:
    """A list to which each sum-product iteration of ``BpDecoder`` appends
    the number of rows it holds: ``np.tanh``, which the decoder calls once
    an iteration on its (d_max, m_rows, rows) message buffer, is wrapped
    in the decoders module's namespace."""
    from noisecycle import decoders
    widths = []
    wrapped = types.ModuleType("numpy")
    wrapped.__dict__.update(np.__dict__)

    def tanh(x, *args, **kwargs):
        widths.append(x.shape[-1])
        return np.tanh(x, *args, **kwargs)

    wrapped.tanh = tanh
    monkeypatch.setattr(decoders, "np", wrapped)
    return widths


def outcome_key(out: DecodeOutcome) -> tuple:
    """Everything a decode reports, in a form compared with ``==``: status,
    query count, noise NLL and the codeword's dtype and bytes."""
    word = None if out.codeword is None else (out.codeword.dtype.str, out.codeword.tobytes())
    return out.status, out.queries, out.noise_nll, word


def enumerate_codebook(generator: np.ndarray) -> np.ndarray:
    """All codewords by explicit message loop (message index i -> bits LSB first)."""
    k, n = generator.shape
    words = np.zeros((2 ** k, n), dtype=np.uint8)
    for i in range(2 ** k):
        msg = np.array([(i >> j) & 1 for j in range(k)], dtype=np.uint8)
        words[i] = mod2(msg, generator)
    return words


def gaussian_nll(z, sigma2: float) -> float:
    """-ln of the i.i.d. N(0, sigma2) density at the noise vector ``z``."""
    z = np.asarray(z, dtype=float)
    return float(np.sum(z * z) / (2.0 * sigma2)
                 + z.size * 0.5 * math.log(2.0 * math.pi * sigma2))


def decoded_outcome(codeword, soft, queries: int) -> DecodeOutcome:
    """A decoded outcome scored the way the decoders score theirs."""
    nll = gaussian_nll(soft.received - modulate_bpsk(codeword), soft.noise_variance)
    return DecodeOutcome(status="decoded", queries=queries, codeword=codeword,
                         noise_nll=nll)


def fig2_model() -> ChannelModel:
    """Three channels whose best recycling order is unique.

    Raw SNRs (1.1, 1.0, 1.05); correlations chosen so that recycling from
    channel 2 lifts channels 1 and 3 to effective SNRs of exactly 4 and 5,
    making 0->2, 2->1, 2->3 the unique maximum-total order (total 10).
    """
    corr = np.array([
        [1.0, np.sqrt(0.725), 0.7],
        [np.sqrt(0.725), 1.0, np.sqrt(0.79)],
        [0.7, np.sqrt(0.79), 1.0],
    ])
    return ChannelModel(m=3, sigma2=np.ones(3), power=np.array([1.1, 1.0, 1.05]),
                        corr=corr)


# the README's explicit channel model: with channel 1 leading, channel 3's
# best parent is channel 1 (rho 0.8), not its index neighbour channel 2
README_MODEL = {"m": 3, "mode": "explicit",
                "corr": [[1, 0.6, 0.8], [0.6, 1, 0.4], [0.8, 0.4, 1]],
                "sigma2": [1.0, 1.2, 0.8], "power": 1.0}


@dataclass
class PerfectDecoder:
    """Always returns the codeword it was built with, in one query."""

    codeword: np.ndarray

    def decode(self, code, soft) -> DecodeOutcome:
        return decoded_outcome(self.codeword, soft, 1)


@dataclass
class FailingDecoder:
    """Always abandons."""

    queries: int = 5

    def decode(self, code, soft) -> DecodeOutcome:
        return DecodeOutcome(status="abandoned", queries=self.queries, codeword=None)


@dataclass
class RecordingDecoder:
    """Scripted outcome plus a log of every soft block it saw."""

    codeword: np.ndarray
    queries: int
    log: list

    def decode(self, code, soft) -> DecodeOutcome:
        self.log.append(soft)
        return decoded_outcome(self.codeword, soft, self.queries)


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail any test that leaves a worker process alive, as a sweep that
    does not shut its pool down would."""
    yield
    left = multiprocessing.active_children()
    if left:
        pytest.fail(f"processes left running: {left}")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
