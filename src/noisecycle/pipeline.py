"""End-to-end block decoding: one recycling step under four schedules.

Channels help each other in one way only.  Once channel i is decoded, its
noise estimate ``z_hat_i = y_i - x_hat_i`` is scaled by ``rho'_{i,j}`` and
subtracted from channel j's output, and j is decoded from the result at the
reduced variance ``sigma_j^2 (1 - rho_ij^2)``.  :func:`run_batch` schedules
that step for a batch of blocks, one row each, and :func:`run_block` is its
batch of one:

* independent: every channel once, from its raw output;
* static: in the plan's order, each channel recycling its plan parent;
* dynamic: every channel from its raw output, then the others in the order
  of the plan that the most confident one leads, ``plan_for(model, lead)``,
  each recycling its plan parent;
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
decoder's ``decode_batch(code, received, variances)``, which returns one
``DecodeRecord`` of arrays; a decoder from outside the package that has
only ``decode`` is called row by row and its outcomes gathered into a
record.  Every row names its own source channel, so blocks with different
leads share a call.  The step's estimates and LLSE inputs come from
:func:`~noisecycle.recycling.estimate_noise` and
:func:`~noisecycle.recycling.llse_update` on the stacked rows of each
source, which are elementwise, so a row decodes exactly as the same block
would alone.

The batch keeps its state as arrays: (B, m) status codes, latest query
counts, noise NLLs, correctness, queries spent and usable estimates, and
the (B, m, n) latest words.  So a step stores a record with a few array
assignments, lead and feedback choice read confidences with one
``np.where``, and ``DecodeOutcome`` s are built only when
``result(row)`` is asked for a block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .channel import ChannelModel, ChannelOutput, modulate_bpsk
from .decoders import (ABANDONED, DECODED, METRICS, DecodeOutcome, DecodeRecord,
                       SoftBlock, confidences)
from .gf2 import CodeSpec
from .ordering import RecyclingPlan, plan_for
from .recycling import effective_variance, estimate_noise, llse_update

__all__ = ["PipelineConfig", "BlockResult", "check_model", "run_block", "run_batch"]

MODE_INDEPENDENT = "independent"
MODE_STATIC = "static"
MODE_DYNAMIC = "dynamic"

# mode -> what it reads: PipelineConfig fields, and forced_lead and parents for the plan
MODE_SETTINGS = {
    MODE_INDEPENDENT: (),
    MODE_STATIC: ("rerecycle", "genie", "plan", "forced_lead", "parents"),
    MODE_DYNAMIC: ("rerecycle", "genie", "confidence_metric"),
}


def check_settings(mode: str, names: Sequence[str]) -> None:
    """Raise ``ValueError`` naming those of ``names`` that ``mode`` does not read."""
    if unread := ", ".join(repr(name) for name in names if name not in MODE_SETTINGS[mode]):
        raise ValueError(f"{mode} pipeline does not read key(s) {unread}")


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
        if self.mode not in MODE_SETTINGS:
            raise ValueError(f"unknown pipeline mode {self.mode!r}")
        check_settings(self.mode, [f.name for f in fields(self) if f.name != "mode"
                                   and getattr(self, f.name) is not f.default])
        for flag in ("rerecycle", "genie"):
            if not isinstance(getattr(self, flag), bool):
                raise ValueError(f"{flag} must be true or false, got {getattr(self, flag)!r}")
        if self.mode == MODE_DYNAMIC:
            if self.confidence_metric not in METRICS:
                raise ValueError(f"dynamic mode needs a confidence metric, got "
                                 f"{self.confidence_metric!r}")

    @property
    def label(self) -> str:  # the CSV's mode column
        return self.mode + ("+rr" if self.rerecycle else "") + ("+genie" if self.genie else "")


def check_model(config: PipelineConfig, model: ChannelModel) -> None:
    """Raise ``ValueError`` unless ``config`` can run on ``model``: dynamic mode
    needs two channels, static a plan of m, and recycling no pair at |rho| = 1."""
    if config.mode == MODE_DYNAMIC and model.m < 2:
        raise ValueError("dynamic recycling needs at least two channels")
    if config.mode == MODE_STATIC and getattr(config.plan, "m", None) != model.m:
        raise ValueError(f"static mode needs a recycling plan of {model.m} channels")
    pairs = np.argwhere(np.triu(np.abs(model.corr) >= 1.0, 1)) + 1
    if len(pairs) and config.mode != MODE_INDEPENDENT:
        raise ValueError(f"channels {pairs[0, 0]} and {pairs[0, 1]} have |rho| = 1, "
                         f"which {config.mode} recycling cannot use")


@dataclass(frozen=True)
class BlockResult:
    """Per-channel outcomes for one block, with genie-truth bookkeeping."""

    outcomes: tuple[DecodeOutcome, ...]
    correct: tuple[bool, ...]
    lead_channel: int | None  # 0-based channel index, None when no lead exists
    queries_spent: tuple[int, ...]  # total queries across all decode attempts


def _decode_rows(decoder, code: CodeSpec, received: np.ndarray,
                 variances: np.ndarray) -> DecodeRecord:
    """``decoder.decode_batch`` if it has one, else ``decode`` row by row
    gathered into a record, which only decoders from outside the package
    need."""
    batch = getattr(decoder, "decode_batch", None)
    if batch is not None:
        return batch(code, received, variances)
    return DecodeRecord.of([decoder.decode(code, SoftBlock(received=y, noise_variance=float(v)))
                            for y, v in zip(received, variances)], code.n)


class _Batch:
    """The decode state of B blocks, one row each, as (B, m) arrays: every
    channel's latest status code, query count and noise NLL, whether it is
    correct, the queries spent, and whether the channel has a usable noise
    estimate; the (B, m, n) latest words, which are the decisions those
    estimates are taken against; and the lead (-1 where there is none)."""

    def __init__(self, received: np.ndarray, sent: np.ndarray,
                 codes: Sequence[CodeSpec], decoders: Sequence, model: ChannelModel,
                 genie: bool) -> None:
        rows, m, n = received.shape
        self.received, self.sent = received, sent
        self.codes, self.decoders, self.model, self.genie = codes, decoders, model, genie
        self.status = np.full((rows, m), ABANDONED, dtype=np.int8)
        self.last = np.zeros((rows, m), dtype=np.int64)
        self.noise_nll = np.full((rows, m), math.inf)
        self.words = np.zeros((rows, m, n), dtype=np.uint8)
        self.correct = np.zeros((rows, m), dtype=bool)
        self.queries = np.zeros((rows, m), dtype=np.int64)
        self.usable = np.zeros((rows, m), dtype=bool)
        self.lead = np.full(rows, -1, dtype=np.int64)

    def decode(self, j: int, rows: np.ndarray, sources: int | np.ndarray = -1) -> None:
        """Decode channel ``j`` of ``rows``, each row recycling the estimate of
        its own source channel (an int for all rows, or one per row; -1 for
        none) where that source has one.

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
        sources = np.broadcast_to(sources, rows.shape)
        hit = (sources >= 0) & self.usable[rows, sources]
        for source in sorted(set(sources[hit].tolist())):
            sel = hit & (sources == source)
            src = rows[sel]
            estimate = estimate_noise(self.received[src, source],
                                      modulate_bpsk(self.words[src, source]), source)
            y[sel] = llse_update(y[sel], estimate, self.model, j)
            variances[sel] = effective_variance(sigma2, float(self.model.corr[source, j]))
        record = _decode_rows(self.decoders[j], self.codes[j], y, variances)
        self.status[rows, j], self.last[rows, j] = record.status, record.queries
        self.noise_nll[rows, j], self.words[rows, j] = record.noise_nll, record.words
        self.queries[rows, j] += record.queries
        decoded = record.status == DECODED
        correct = decoded & (record.words == self.sent[rows, j]).all(axis=1)
        self.correct[rows, j] = correct
        self.usable[rows, j] = correct if self.genie else decoded

    def confidence(self, metric: str) -> np.ndarray:
        """(B, m) confidence of every channel's latest outcome."""
        return confidences(self.status, self.last, self.noise_nll, metric)

    def result(self, row: int) -> BlockResult:
        lead = int(self.lead[row])
        record = DecodeRecord(self.status[row], self.last[row], self.words[row].copy(),
                              self.noise_nll[row])
        return BlockResult(outcomes=tuple(record),
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

    Each row walks its plan's decode order: ``config.plan`` from the first
    channel (static), or, after every channel is decoded raw, the plan
    forced to the most confident decoding (lowest metric value, ties to the
    lowest index) from the second (dynamic); a block with no channel
    decoded has no lead and is not re-decoded.  Each position is one call
    per channel, in ascending order, over the rows whose plan puts that
    channel there; re-recycling is one call per lead channel.
    """
    check_model(config, model)
    m = model.m
    batch = _Batch(received, sent, codes, decoders, model, config.genie)
    every = np.arange(len(received))
    if config.mode == MODE_STATIC:
        batch.lead[:] = config.plan.order[0] - 1
        plans, start = {config.plan.order[0] - 1: config.plan}, 0
    else:
        for j in range(m):
            batch.decode(j, every)
        if config.mode == MODE_INDEPENDENT:
            return batch
        conf = batch.confidence(config.confidence_metric)
        led = (conf < math.inf).any(axis=1)
        batch.lead[led] = conf[led].argmin(axis=1)
        plans = {lead: plan_for(model, lead + 1) for lead in set(batch.lead[led].tolist())}
        start = 1
    # [lead, position] -> channel, [lead, channel] -> parent; lead -1 walks nothing
    order, parent = np.full((2, m + 1, m), -1)
    for lead, plan in plans.items():
        order[lead], parent[lead] = np.subtract(plan.order, 1), np.subtract(plan.parent, 1)
    at = order[batch.lead]
    for position in range(start, m):
        for j in range(m):
            rows = every[at[:, position] == j]
            batch.decode(j, rows, parent[batch.lead[rows], j])
    if config.rerecycle:
        feedback = _feedback(config, batch)
        go = (feedback >= 0) & batch.usable[every, feedback]
        for j in range(m):
            rows = every[go & (batch.lead == j)]
            batch.decode(j, rows, feedback[rows])
    return batch


def _feedback(config: PipelineConfig, batch: _Batch) -> np.ndarray:
    """Each row's re-recycling source, -1 for none: the lead's plan child
    most correlated with it (static), or the most confident non-lead
    (dynamic), ties to the lowest channel."""
    if config.mode == MODE_STATIC:
        root = config.plan.order[0]
        corr = batch.model.corr[:, root - 1]
        best = min(config.plan.children_of(root), key=lambda ch: (-corr[ch - 1] ** 2, ch),
                   default=0)
        return np.full(len(batch.lead), best - 1)
    conf = batch.confidence(config.confidence_metric)
    led = batch.lead >= 0
    conf[led, batch.lead[led]] = math.inf
    return np.where(conf.min(axis=1) < math.inf, conf.argmin(axis=1), -1)
