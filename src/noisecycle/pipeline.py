"""End-to-end block decoding: one recycling step under four schedules.

Channels help each other in one way only.  Once channel i is decoded, its
noise estimate ``z_hat_i = y_i - x_hat_i`` is scaled by ``rho'_{i,j}`` and
subtracted from channel j's output, and j is decoded from the result at the
reduced variance ``sigma_j^2 (1 - rho_ij^2)``.  :func:`run_batch` schedules
that step for a batch of blocks, one row each, and :func:`run_block` is its
batch of one:

* independent: every channel once, from its raw output;
* static: in the plan's order, each channel recycling its plan parent;
* dynamic: every channel from its raw output, then outward from the most
  confident one, each channel recycling its inward neighbour;
* re-recycling (static or dynamic): one more decode of the lead, recycling
  the plan child most correlated with it (static) or the most confident
  non-lead (dynamic).

Noise estimates are always taken against the original channel output, never
against an LLSE-updated signal, so the full (correlated) noise propagates
along recycling chains.  A failed decode leaves no estimate, so a channel
that would recycle it decodes its raw output at its raw noise variance.

The genie switch drops estimates from decodes that disagree with the true
transmission; it exists for validation experiments that need error-free
recycling detection and is off everywhere else.

Each step decodes one channel for a set of rows with one call to the
decoder's ``decode_batch(code, received, variances)``; a decoder from
outside the package that has only ``decode`` is called row by row.  The
step's estimates and LLSE inputs come from
:func:`~noisecycle.recycling.estimate_noise` and
:func:`~noisecycle.recycling.llse_update` on the stacked rows, which are
elementwise, so a row decodes exactly as the same block would alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelModel, ChannelOutput, modulate_bpsk
from .decoders import (METRIC_NOISE_NLL, METRIC_QUERY_COUNT, STATUS_DECODED,
                       DecodeOutcome, SoftBlock, confidence)
from .gf2 import CodeSpec
from .ordering import RecyclingPlan
from .recycling import effective_variance, estimate_noise, llse_update

__all__ = ["PipelineConfig", "BlockResult", "run_block", "run_batch"]

MODE_INDEPENDENT = "independent"
MODE_STATIC = "static"
MODE_DYNAMIC = "dynamic"


@dataclass(frozen=True)
class PipelineConfig:
    """Which decode orchestration to run for each block.

    ``genie`` enables truth-checked estimate dropping (validation only).
    """

    mode: str = MODE_INDEPENDENT
    plan: RecyclingPlan | None = None
    confidence_metric: str | None = None
    rerecycle: bool = False
    genie: bool = False

    def __post_init__(self) -> None:
        if self.mode not in (MODE_INDEPENDENT, MODE_STATIC, MODE_DYNAMIC):
            raise ValueError(f"unknown pipeline mode {self.mode!r}")
        if self.mode == MODE_DYNAMIC:
            if self.confidence_metric not in (METRIC_QUERY_COUNT, METRIC_NOISE_NLL):
                raise ValueError("dynamic mode needs a confidence metric")


@dataclass(frozen=True)
class BlockResult:
    """Per-channel outcomes for one block, with genie-truth bookkeeping."""

    outcomes: tuple[DecodeOutcome, ...]
    correct: tuple[bool, ...]
    lead_channel: int | None  # 0-based channel index, None when no lead exists
    queries_spent: tuple[int, ...]  # total queries across all decode attempts


def _decode_rows(decoder, code: CodeSpec, received: np.ndarray,
                 variances: np.ndarray) -> list[DecodeOutcome]:
    """``decoder.decode_batch`` if it has one, else ``decode`` row by row,
    which only decoders from outside the package need."""
    batch = getattr(decoder, "decode_batch", None)
    if batch is not None:
        return batch(code, received, variances)
    return [decoder.decode(code, SoftBlock(received=y, noise_variance=float(v)))
            for y, v in zip(received, variances)]


class _Batch:
    """The decode state of B blocks, one row each: every channel's latest
    outcome and whether it is correct, the queries spent, which channels
    have a usable noise estimate and the decision it is taken against, and
    the lead (-1 where there is none)."""

    def __init__(self, received: np.ndarray, sent: np.ndarray,
                 codes: Sequence[CodeSpec], decoders: Sequence, model: ChannelModel,
                 genie: bool) -> None:
        rows, m, n = received.shape
        self.received, self.sent = received, sent
        self.codes, self.decoders, self.model, self.genie = codes, decoders, model, genie
        self.outcomes: list[list[DecodeOutcome | None]] = [[None] * rows for _ in range(m)]
        self.correct = np.zeros((rows, m), dtype=bool)
        self.queries = np.zeros((rows, m), dtype=np.int64)
        self.decisions = np.zeros((rows, m, n), dtype=np.uint8)
        self.usable = np.zeros((rows, m), dtype=bool)
        self.lead = np.full(rows, -1, dtype=np.int64)

    def decode(self, j: int, rows: np.ndarray, source: int | None = None) -> None:
        """Decode channel ``j`` of ``rows``, recycling ``source``'s estimate
        in the rows that have one.

        Those rows decode ``y_j - rho'_{source,j} z_hat_source`` at the
        reduced variance, where ``z_hat_source`` is the source's original
        output minus its decision; the others decode ``y_j`` at the raw
        variance.  Each row's outcome, correctness and queries are recorded,
        and its decision becomes j's estimate, or j has none when the decode
        failed or the genie rejected it.
        """
        if not rows.size:
            return
        y = self.received[rows, j]
        sigma2 = float(self.model.sigma2[j])
        variances = np.full(rows.size, sigma2)
        if source is not None:
            hit = self.usable[rows, source]
            if hit.any():
                src = rows[hit]
                estimate = estimate_noise(self.received[src, source],
                                          modulate_bpsk(self.decisions[src, source]), source)
                y[hit] = llse_update(y[hit], estimate, self.model, j)
                variances[hit] = effective_variance(sigma2, float(self.model.corr[source, j]))
        outcomes = _decode_rows(self.decoders[j], self.codes[j], y, variances)
        decoded = np.zeros(rows.size, dtype=bool)
        for i, (row, outcome) in enumerate(zip(rows.tolist(), outcomes)):
            self.outcomes[j][row] = outcome
            self.queries[row, j] += outcome.queries
            decoded[i] = outcome.status == STATUS_DECODED
        words = np.array([o.codeword for o, ok in zip(outcomes, decoded) if ok])
        correct = np.zeros(rows.size, dtype=bool)
        if words.size:
            correct[decoded] = (words == self.sent[rows[decoded], j]).all(axis=1)
        self.correct[rows, j] = correct
        usable = correct if self.genie else decoded
        self.usable[rows, j] = usable
        if usable.any():
            self.decisions[rows[usable], j] = words[usable[decoded]]

    def confidence(self, metric: str) -> np.ndarray:
        """(B, m) confidence of every channel's latest outcome."""
        return np.array([[confidence(self.outcomes[j][row], metric)
                          for j in range(self.model.m)] for row in range(len(self.lead))])

    def result(self, row: int) -> BlockResult:
        lead = int(self.lead[row])
        return BlockResult(outcomes=tuple(outs[row] for outs in self.outcomes),
                           correct=tuple(self.correct[row].tolist()),
                           lead_channel=None if lead < 0 else lead,
                           queries_spent=tuple(self.queries[row].tolist()))


def run_block(config: PipelineConfig, outputs: ChannelOutput,
              codes: Sequence[CodeSpec], decoders: Sequence,
              model: ChannelModel) -> BlockResult:
    """Decode one block under the configured schedule: a batch of one."""
    sent = (outputs.transmitted < 0).astype(np.uint8)
    return run_batch(config, outputs.received[None], sent[None], codes, decoders,
                     model).result(0)


def run_batch(config: PipelineConfig, received: np.ndarray, sent: np.ndarray,
              codes: Sequence[CodeSpec], decoders: Sequence, model: ChannelModel) -> _Batch:
    """Decode B blocks under the configured schedule, one channel of many
    rows per decoder call.  ``received`` holds the (B, m, n) channel outputs
    and ``sent`` the codewords behind them, which only the correctness
    flags and the genie read.

    Dynamic mode leads each block with its most confident decoding (lowest
    metric value, ties to the lowest channel index) and re-decodes the
    others outward from it in index distance (lead+1, lead-1, lead+2, ...).
    A block with every channel undecoded has no lead and nothing is
    re-decoded.  Rows are grouped by lead for the re-decodes, and by lead
    and feedback channel for re-recycling.
    """
    m = model.m
    batch = _Batch(received, sent, codes, decoders, model, config.genie)
    every = np.arange(len(received))
    if config.mode == MODE_INDEPENDENT:
        for j in range(m):
            batch.decode(j, every)
        return batch

    if config.mode == MODE_STATIC:
        plan = config.plan
        if plan is None:
            raise ValueError("static mode needs a recycling plan")
        if plan.m != m:
            raise ValueError("plan size disagrees with channel model")
        for ch in plan.order:
            parent = plan.parent_of(ch)
            batch.decode(ch - 1, every, parent - 1 if parent else None)
        batch.lead[:] = lead = plan.order[0] - 1
        if config.rerecycle:
            feedback = _plan_feedback(plan, model, lead)
            if feedback is not None:
                batch.decode(lead, every[batch.usable[:, feedback]], feedback)
        return batch

    if m < 2:
        raise ValueError("dynamic recycling needs at least two channels")
    for j in range(m):
        batch.decode(j, every)
    conf = batch.confidence(config.confidence_metric)
    led = (conf < math.inf).any(axis=1)
    batch.lead[led] = conf[led].argmin(axis=1)
    for lead in sorted(set(batch.lead[led].tolist())):
        rows = every[batch.lead == lead]
        for step in range(1, max(m - 1 - lead, lead) + 1):
            for target, source in ((lead + step, lead + step - 1),
                                   (lead - step, lead - step + 1)):
                if 0 <= target < m:
                    batch.decode(target, rows, source)
    if config.rerecycle:
        # feedback: the most confident non-lead, ties to the lowest channel
        conf = batch.confidence(config.confidence_metric)
        conf[every[led], batch.lead[led]] = math.inf
        feedback = conf.argmin(axis=1)
        go = led & (feedback != batch.lead) & batch.usable[every, feedback]
        for lead, source in sorted(set(zip(batch.lead[go].tolist(), feedback[go].tolist()))):
            batch.decode(lead, every[go & (batch.lead == lead) & (feedback == source)],
                         source)
    return batch


def _plan_feedback(plan: RecyclingPlan, model: ChannelModel, lead: int) -> int | None:
    """The channel whose estimate static re-recycling feeds back to the
    lead: its plan child with the largest squared correlation to it, ties
    to the lowest channel."""
    children = plan.children_of(lead + 1)
    if not children:
        return None
    return min(children, key=lambda ch: (-model.corr[ch - 1, lead] ** 2, ch)) - 1
