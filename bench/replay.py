"""Replay a workload's trials through the program's public functions.

A replayed trial does what ``harness.run_trial`` does, one public call at a
time: draw the payloads from ``default_rng((base_seed, point, trial))``,
``gf2.crc_encode`` and ``gf2.encode`` them, ``channel.modulate_bpsk``,
``channel.sample_noise`` and ``channel.transmit``, then ``pipeline.run_block``
with decoders from ``configio.load_decoder`` wrapped so that every decode
call is timed and kept.  With a span list, each of those calls becomes a
span (name, parent, start, end) of the trial.  ``recycling.estimate_noise``
and ``recycling.llse_update`` run inside ``run_block``; they are re-issued
afterwards on the trial's own vectors, timed apart, and the re-issued
update must reproduce the decoder's recycled input bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from noisecycle.channel import modulate_bpsk, sample_noise, transmit
from noisecycle.gf2 import crc_encode, encode
from noisecycle.pipeline import run_block
from noisecycle.recycling import estimate_noise, llse_update

pc = time.perf_counter


@dataclass
class Call:
    channel: int
    received: np.ndarray
    noise_variance: float
    outcome: object
    start: float
    end: float


class TracedDecoder:
    """Wraps a configured decoder; appends a ``Call`` per decode to ``log``."""

    def __init__(self, inner, channel: int) -> None:
        self.inner = inner
        self.channel = channel
        self.log: list[Call] = []

    def decode(self, code, soft):
        t0 = pc()
        out = self.inner.decode(code, soft)
        t1 = pc()
        self.log.append(Call(self.channel, soft.received, soft.noise_variance, out, t0, t1))
        return out


@dataclass
class Replayed:
    key: tuple[int, int, int]   # (base_seed, point, trial)
    messages: list
    codewords: list
    noise: np.ndarray
    outputs: object
    calls: list[Call]
    result: object


class Replayer:
    def __init__(self, world, base_seed: int) -> None:
        self.world = world
        self.base_seed = base_seed
        self.decoders = [TracedDecoder(d, j) for j, d in enumerate(world.decoders)]

    def trial(self, point: int, index: int, spans: list | None = None) -> Replayed:
        world = self.world
        model, codes = world.models[point], world.codes
        log: list[Call] = []
        for d in self.decoders:
            d.log = log
        marks = []   # (name, start, end), turned into spans below

        start = pc()
        rng = np.random.default_rng((self.base_seed, point, index))
        t = pc()
        marks.append(("harness.rng", start, t))
        blocks = np.empty((model.m, world.n))
        messages, codewords = [], []
        for j, code in enumerate(codes):
            t0 = pc()
            payload = rng.integers(0, 2, size=code.payload_bits, dtype=np.uint8)
            t1 = pc()
            message = crc_encode(code.crc, payload) if code.crc else payload
            t2 = pc()
            cw = encode(code, message)
            t3 = pc()
            blocks[j] = modulate_bpsk(cw)
            t4 = pc()
            marks += [("harness.rng", t0, t1), ("gf2.encode", t2, t3),
                      ("channel.modulate_bpsk", t3, t4)]
            if code.crc:
                marks.append(("gf2.crc_encode", t1, t2))
            messages.append(message)
            codewords.append(cw)
        t0 = pc()
        noise = sample_noise(model, world.n, rng)
        t1 = pc()
        outputs = transmit(model, blocks, noise)
        t2 = pc()
        result = run_block(world.pipelines[point], outputs, codes, self.decoders, model)
        end = pc()
        marks += [("channel.sample_noise", t0, t1), ("channel.transmit", t1, t2),
                  ("pipeline.run_block", t2, end)]

        key = (self.base_seed, point, index)
        if spans is not None:
            spans.append((key, "trial", None, start, end))
            for name, a, b in marks:
                spans.append((key, name, "trial", a, b))
            for c in log:
                spans.append((key, "decoders.decode", "pipeline.run_block", c.start, c.end))
        return Replayed(key=key, messages=messages, codewords=codewords, noise=noise.samples,
                        outputs=outputs, calls=log, result=result)

    def reissue_recycling(self, point: int, tr: Replayed, spans: list | None) -> list[str]:
        """Re-run the recycling maths of one trial on its own vectors.

        Each decoded call yields an estimate against its channel's original
        output; each decode whose input differs from the raw output must equal
        ``llse_update`` of some earlier estimate.  Only the matching update is
        timed.
        """
        model = self.world.models[point]
        received = tr.outputs.received
        estimates = []
        problems = []
        for c in tr.calls:
            j = c.channel
            if not np.array_equal(c.received, received[j]):
                for est in reversed(estimates):
                    if est.source_channel == j:
                        continue
                    t0 = pc()
                    updated = llse_update(received[j], est, model, j)
                    t1 = pc()
                    if np.array_equal(updated, c.received):
                        if spans is not None:
                            spans.append((tr.key, "recycling.llse_update", "reissue", t0, t1))
                        break
                else:
                    problems.append(f"ch{j + 1}: recycled input matches no LLSE update")
            if c.outcome.status == "decoded":
                t0 = pc()
                est = estimate_noise(received[j], modulate_bpsk(c.outcome.codeword), source=j)
                t1 = pc()
                estimates.append(est)
                if spans is not None:
                    spans.append((tr.key, "recycling.estimate_noise", "reissue", t0, t1))
        return problems


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


def layer_metrics(spans: list, calls: list[tuple[Call, bool]],
                  untraced_s: list[float]) -> dict[str, float]:
    """Per-layer figures of a traced replay.

    ``calls`` pairs every decode call with whether its word was the sent
    codeword; ``untraced_s`` holds ``run_trial`` times of the same trials.
    """
    total: dict[str, float] = {}
    for _, name, _, a, b in spans:
        total[name] = total.get(name, 0.0) + (b - a)
    trials = sum(1 for s in spans if s[1] == "trial")
    trial_s = total.get("trial", 0.0)
    decode_s = total.get("decoders.decode", 0.0)
    pipeline_self = total.get("pipeline.run_block", 0.0) - decode_s
    per_trial = 1e6 / max(trials, 1)

    queries = [c.outcome.queries for c, _ in calls]
    durations = [(c.end - c.start) * 1e6 for c, _ in calls]
    status = [c.outcome.status for c, _ in calls]
    abandoned_q = sum(q for q, s in zip(queries, status) if s == "abandoned")
    untraced = sum(untraced_s)
    return {
        "decoders.queries_per_s": sum(queries) / decode_s if decode_s else 0.0,
        "decoders.abandoned_query_share": abandoned_q / sum(queries) if queries else 0.0,
        "decoders.decode_us.p50": _pct(durations, 50),
        "decoders.decode_us.p99": _pct(durations, 99),
        "decoders.queries_per_decode.p50": _pct(queries, 50),
        "decoders.queries_per_decode.p99": _pct(queries, 99),
        "decoders.share": decode_s / trial_s if trial_s else 0.0,
        "decoders.decodes_per_trial": len(calls) / max(trials, 1),
        "decoders.decoded_correct": float(sum(1 for _, ok in calls if ok)),
        "decoders.decoded_wrong": float(sum(1 for (c, ok) in calls
                                            if c.outcome.status == "decoded" and not ok)),
        "decoders.crc_failed": float(status.count("crc_failed")),
        "decoders.abandoned": float(status.count("abandoned")),
        "harness.rng_us_per_trial": total.get("harness.rng", 0.0) * per_trial,
        "gf2.encode_us_per_trial": (total.get("gf2.crc_encode", 0.0)
                                    + total.get("gf2.encode", 0.0)) * per_trial,
        "channel.us_per_trial": (total.get("channel.modulate_bpsk", 0.0)
                                 + total.get("channel.sample_noise", 0.0)
                                 + total.get("channel.transmit", 0.0)) * per_trial,
        "recycling.us_per_trial": (total.get("recycling.llse_update", 0.0)
                                   + total.get("recycling.estimate_noise", 0.0)) * per_trial,
        "pipeline.self_us_per_trial": pipeline_self * per_trial,
        "pipeline.share": pipeline_self / trial_s if trial_s else 0.0,
        "harness.trial_us.p50": _pct([s * 1e6 for s in untraced_s], 50),
        "harness.trial_us.p99": _pct([s * 1e6 for s in untraced_s], 99),
        "trace.overhead": untraced / trial_s if trial_s else 0.0,
    }
