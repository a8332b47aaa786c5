"""End-to-end block decoding: one recycling step under four schedules.

Channels help each other in one way only.  Once channel i is decoded, its
noise estimate ``z_hat_i = y_i - x_hat_i`` is scaled by ``rho'_{i,j}`` and
subtracted from channel j's output, and j is decoded from the result at the
reduced variance ``sigma_j^2 (1 - rho_ij^2)``.  :func:`run_block` schedules
that step:

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
from .recycling import (NoiseEstimate, effective_variance, estimate_noise,
                        llse_update)

__all__ = ["PipelineConfig", "BlockResult", "run_block"]

MODE_INDEPENDENT = "independent"
MODE_STATIC = "static"
MODE_DYNAMIC = "dynamic"


@dataclass(frozen=True)
class PipelineConfig:
    """Which decode orchestration to run for each block.

    ``forced_lead`` (a 1-based channel number) constrains the static plan's
    zero node to a single child; it is resolved when the plan is built.
    ``genie`` enables truth-checked estimate dropping (validation only).
    """

    mode: str = MODE_INDEPENDENT
    plan: RecyclingPlan | None = None
    confidence_metric: str | None = None
    rerecycle: bool = False
    forced_lead: int | None = None
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


class _Block:
    """One block's decode state: latest outcome, queries spent and usable
    noise estimate of every channel."""

    def __init__(self, outputs: ChannelOutput, codes: Sequence[CodeSpec],
                 decoders: Sequence, model: ChannelModel, genie: bool) -> None:
        self.outputs, self.codes, self.decoders = outputs, codes, decoders
        self.model, self.genie = model, genie
        self.outcomes: list[DecodeOutcome | None] = [None] * model.m
        self.queries = [0] * model.m
        self.estimates: list[NoiseEstimate | None] = [None] * model.m

    def correct(self, j: int) -> bool:
        outcome = self.outcomes[j]
        truth = (self.outputs.transmitted[j] < 0).astype(np.uint8)
        return (outcome.status == STATUS_DECODED
                and bool(np.array_equal(outcome.codeword, truth)))

    def decode(self, j: int, source: int | None = None) -> None:
        """Decode channel ``j``, recycling ``source``'s estimate if it has one.

        Records the outcome, adds its queries, and replaces j's estimate
        with one taken against j's original output, or with None when the
        decode failed or the genie rejected it.
        """
        y = self.outputs.received[j]
        sigma2 = float(self.model.sigma2[j])
        est = None if source is None else self.estimates[source]
        if est is None:
            soft = SoftBlock(received=y, noise_variance=sigma2)
        else:
            var = effective_variance(sigma2, float(self.model.corr[source, j]))
            soft = SoftBlock(received=llse_update(y, est, self.model, j),
                             noise_variance=var)
        outcome = self.decoders[j].decode(self.codes[j], soft)
        self.outcomes[j] = outcome
        self.queries[j] += outcome.queries
        usable = (outcome.status == STATUS_DECODED
                  and not (self.genie and not self.correct(j)))
        self.estimates[j] = (estimate_noise(y, modulate_bpsk(outcome.codeword), source=j)
                             if usable else None)

    def result(self, lead: int | None) -> BlockResult:
        return BlockResult(outcomes=tuple(self.outcomes),
                           correct=tuple(self.correct(j) for j in range(self.model.m)),
                           lead_channel=lead, queries_spent=tuple(self.queries))


def run_block(config: PipelineConfig, outputs: ChannelOutput,
              codes: Sequence[CodeSpec], decoders: Sequence,
              model: ChannelModel) -> BlockResult:
    """Decode one block under the configured schedule.

    Dynamic mode leads with the most confident decoding (lowest metric
    value, ties to the lowest channel index) and re-decodes the others
    outward from it in index distance (lead+1, lead-1, lead+2, ...).  With
    every channel undecoded there is no lead and nothing is re-decoded.
    """
    m = model.m
    block = _Block(outputs, codes, decoders, model, config.genie)
    if config.mode == MODE_INDEPENDENT:
        for j in range(m):
            block.decode(j)
        return block.result(None)

    if config.mode == MODE_STATIC:
        plan = config.plan
        if plan is None:
            raise ValueError("static mode needs a recycling plan")
        if plan.m != m:
            raise ValueError("plan size disagrees with channel model")
        for ch in plan.order:
            parent = plan.parent_of(ch)
            block.decode(ch - 1, parent - 1 if parent else None)
        lead = plan.order[0] - 1
    else:
        if m < 2:
            raise ValueError("dynamic recycling needs at least two channels")
        for j in range(m):
            block.decode(j)
        conf = [confidence(o, config.confidence_metric) for o in block.outcomes]
        if all(c == math.inf for c in conf):
            return block.result(None)
        lead = min(range(m), key=lambda i: (conf[i], i))
        for step in range(1, max(m - 1 - lead, lead) + 1):
            for target, source in ((lead + step, lead + step - 1),
                                   (lead - step, lead - step + 1)):
                if 0 <= target < m:
                    block.decode(target, source)

    if config.rerecycle:
        feedback = _feedback_channel(config, block, lead)
        if feedback is not None and block.estimates[feedback] is not None:
            block.decode(lead, feedback)
    return block.result(lead)


def _feedback_channel(config: PipelineConfig, block: _Block, lead: int) -> int | None:
    """The channel whose estimate re-recycling feeds back to the lead.

    Static: the lead's plan child with the largest squared correlation to
    it.  Dynamic: the most confident non-lead.  Ties go to the lowest
    channel.
    """
    if config.mode == MODE_STATIC:
        children = config.plan.children_of(lead + 1)
        if not children:
            return None
        corr = block.model.corr
        return min(children, key=lambda ch: (-corr[ch - 1, lead] ** 2, ch)) - 1
    return min((i for i in range(block.model.m) if i != lead),
               key=lambda i: (confidence(block.outcomes[i], config.confidence_metric), i))
