"""Deterministic Monte Carlo block-error-rate sweeps.

An experiment fixes codes, decoders, a channel correlation structure, and a
pipeline, then sweeps Eb/N0.  At each point channel j's noise variance is
``factor_j * ebn0_to_sigma2(point, rate_j)`` where the factors come from the
channel descriptor's ``sigma2`` entries (all 1.0 for a homogeneous sweep)
and ``rate_j = k_j / n``.

Every trial draws its random stream from ``(base_seed, point_index,
trial_index)``, and per-point totals are integer sums over a trial prefix
whose length follows a fixed doubling schedule, so results are identical
for any worker count and any scheduling order.  A trial's stream is its
payloads, channel after channel, then its m x n standard normals.  Channel
j's k_j payload bits are ``rng.integers(0, 2, size=k_j, dtype=np.uint8)``:
bit 7 of each byte of its own ceil(k_j / 4) 32-bit words of the generator's
output, low byte and low half first, since numpy draws bytes over a range
of 2 by Lemire's method, which then never rejects.  So one ``random_raw``
read gives a trial's payloads (see :func:`_payload_bits`).  A range of
trials advances in batches of ``BATCH_TRIALS``.  A batch's streams are
seeded at once: ``SeedSequence``'s hashing of every trial's entropy runs
as uint32 array operations and PCG64's seeding step on Python ints (see
:func:`_trial_states`), and one reused generator takes each trial's state
in turn for its raw read and its normal draw.  Then the batch is
correlated, encoded and decoded by whole-batch array operations, so a
trial's result does not depend on its batch; :func:`run_trial` is a batch
of one.  Trials stop once every
channel has accumulated ``min_block_errors`` block errors (or at
``max_trials``).

An :class:`ExperimentConfig` builds everything a trial needs besides the
noise when it is constructed: codes, decoders and, per point, the channel
model, the pipeline with its static plan, and the per-rate noise variances.
So bad input fails there, before any trial runs, and each sweep worker gets
it once, from its pool's initializer (inherited under ``fork``, pickled once
under ``spawn``); a task carries only a point index and a trial range.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import configio
from .channel import ChannelModel, correlate, ebn0_to_sigma2, modulate_bpsk
from .decoders import BpDecoder
from .gf2 import crc_encode, encode
from .ordering import plan_for
from .pipeline import MODE_STATIC, BlockResult, check_model, run_batch

__all__ = [
    "SweepSpec",
    "ExperimentConfig",
    "BlerPoint",
    "run_trial",
    "run_bler_sweep",
    "output_target",
    "emit_csv",
    "wilson_interval",
    "worker_count",
]

WORKERS_ENV = "NOISECYCLE_WORKERS"


@dataclass(frozen=True)
class SweepSpec:
    ebn0_db: tuple[float, ...]
    min_trials: int = 1000
    max_trials: int = 100_000
    min_block_errors: int = 50

    def __post_init__(self) -> None:
        points = configio.checked_list(self.ebn0_db, "ebn0_db", float)
        if not points:
            raise ValueError("sweep needs at least one Eb/N0 point")
        object.__setattr__(self, "ebn0_db", tuple(float(x) for x in points))
        keys = [f"{x:g}" for x in self.ebn0_db]  # each point as the CSV and sidecar print it
        for i, (x, key) in enumerate(zip(self.ebn0_db, keys)):
            if key in keys[:i]:
                raise ValueError(f"ebn0_db entry {x!r} prints as {key}, as the entry "
                                 f"{self.ebn0_db[keys.index(key)]!r} does, so their CSV "
                                 "rows would be alike")
        for name in ("min_trials", "max_trials", "min_block_errors"):
            configio.checked(getattr(self, name), name, int)
        if self.min_block_errors < 1:
            raise ValueError("min_block_errors must be >= 1")
        if not 0 < self.min_trials <= self.max_trials:
            raise ValueError("need 0 < min_trials <= max_trials")


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative experiment: all fields are plain JSON-compatible data."""

    channel: dict
    codes: tuple[dict, ...]
    decoders: tuple[dict, ...]
    pipeline: dict
    sweep: SweepSpec
    base_seed: int = 0
    output_path: str | None = None

    def __post_init__(self) -> None:
        if configio.checked(self.base_seed, "base_seed", int) < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        if self.output_path is not None:
            configio.checked(self.output_path, "output_path", str)
        # The built experiment lives in private attributes, not fields:
        # dataclasses.asdict, and so canonical_json and sha256, sees fields only.
        base = configio.load_channel_model(self.channel)
        if (base.power != 1.0).any():
            raise ValueError("an experiment's channel power must be 1, as its BPSK symbols "
                             f"have unit energy; got power {base.power.tolist()}")
        if len(self.codes) != base.m or len(self.decoders) != base.m:
            raise ValueError("codes and decoders must list one entry per channel")
        codes, decoders = [], []
        for j, (code, decoder) in enumerate(zip(self.codes, self.decoders)):
            try:
                codes.append(configio.load_code(code))
                decoders.append(configio.load_decoder(decoder))
                if isinstance(decoders[-1], BpDecoder) and codes[-1].sparse is None:
                    raise ValueError("a bp decoder needs a code with a sparse parity check")
            except ValueError as exc:
                raise ValueError(f"channel {j + 1}: {exc}") from None
        if len({c.n for c in codes}) != 1:
            raise ValueError("all channels must share one code length")
        pipe = configio.load_pipeline(self.pipeline)
        per_rate = tuple([ebn0_to_sigma2(ebn0, c.rate) for c in codes]
                         for ebn0 in self.sweep.ebn0_db)
        models = tuple(ChannelModel(m=base.m, sigma2=base.sigma2 * rates,
                                    power=base.power, corr=base.corr)
                       for rates in per_rate)
        pipelines = tuple(pipe if pipe.mode != MODE_STATIC else dataclasses.replace(
            pipe, plan=plan_for(model, self.pipeline.get("forced_lead"),
                                self.pipeline.get("parents"))) for model in models)
        for point, model in zip(pipelines, models):
            check_model(point, model)
        built = {"_codes": tuple(codes), "_decoders": tuple(decoders),
                 "_models": models, "_pipelines": pipelines, "_per_rate_sigma2": per_rate,
                 "_sha": hashlib.sha256(self.canonical_json().encode()).hexdigest()}
        for name, value in built.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Build from experiment JSON; a missing or unknown key anywhere in it,
        or a value of the wrong type, raises ``ValueError`` naming the key."""
        configio.check_keys(raw, "experiment",
                            required=("channel", "codes", "decoders", "sweep"),
                            optional=("pipeline", "base_seed", "output_path"))
        sweep = dict(configio.checked(raw["sweep"], "sweep", dict))
        configio.check_keys(sweep, "sweep", *configio.field_keys(SweepSpec))
        return cls(
            channel=dict(configio.checked(raw["channel"], "channel", dict)),
            codes=tuple(map(dict, configio.checked_list(raw["codes"], "codes", dict))),
            decoders=tuple(map(dict, configio.checked_list(raw["decoders"], "decoders", dict))),
            pipeline=dict(configio.checked(raw.get("pipeline", {}), "pipeline", dict)),
            sweep=SweepSpec(**sweep),
            base_seed=raw.get("base_seed", 0),
            output_path=raw.get("output_path"),
        )

    def canonical_json(self) -> str:
        as_dict = dataclasses.asdict(self)
        return json.dumps(as_dict, sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        return self._sha


@dataclass(frozen=True)
class BlerPoint:
    """Aggregated result for one (Eb/N0, channel) pair.

    ``channel`` is reported 1-based.  ``lead_fraction`` is the fraction of
    trials in which this channel led the recycling.
    """

    ebn0_db: float
    channel: int
    mode: str
    trials: int
    block_errors: int
    bler: float
    mean_queries: float
    lead_fraction: float


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------

# Trials advance in batches of this many, one stage at a time.  Each batch
# pays a fixed cost (seeding, one decoder call per channel and step, the
# pipeline's bookkeeping), which at a high-SNR point, where decodes take a
# few queries, was about 40% of a trial in batches of 32.  Batches of 128
# ran the m = 4, n = 128 high-SNR sweep 1.5x faster than batches of 32 and
# raised its peak resident set by 1.9 MB (5%); 256 was no faster and cost
# about 3 MB more.  BP holds at most 32 of a batch's rows at a time, each
# freed slot taken by the next queued row (see decoders), so its message
# buffers do not grow with the batch.
BATCH_TRIALS = 128


def run_trial(config: ExperimentConfig, point_index: int,
              trial_index: int) -> BlockResult:
    """One deterministic block: encode, add correlated noise, run pipeline."""
    return _run_batch(config, point_index, trial_index, trial_index + 1).result(0)


def _raw_count(sizes: Sequence[int]) -> int:
    """The 64-bit raw outputs that payloads of ``sizes`` bits take."""
    return (sum(-(-k // 4) for k in sizes) + 1) // 2


def _payload_bits(raw: np.ndarray, sizes: Sequence[int]) -> list[np.ndarray]:
    """Channel j's ``sizes[j]`` payload bits, read from the last axis of
    ``raw``, which holds a trial's ``_raw_count(sizes)`` 64-bit raw outputs.

    ``Generator.integers(0, 2, size=k, dtype=np.uint8)`` is Lemire's method
    on bytes, which with a range of 2 never rejects and returns bit 7 of
    each byte.  It takes bytes low first from ``ceil(k / 4)`` fresh 32-bit
    words and drops the rest, and ``PCG64`` hands out each 64-bit output as
    two 32-bit words, low half first, keeping a spare half across calls.  So
    channel j's bit i is bit 7 of byte i of its words, which follow those
    of the channels before it; the ``W`` words of all channels are
    ``ceil(W / 2)`` raw outputs, and the generator is left as the
    ``integers`` calls leave it but for the spare half of an odd ``W``,
    which a normal draw never reads.  Shifts rather than a byte view keep
    this independent of the machine's byte order.
    """
    words = [-(-k // 4) for k in sizes]
    first = np.cumsum([0] + words[:-1])  # each channel's first word
    byte = np.concatenate([4 * w + np.arange(k) for w, k in zip(first, sizes)])
    bits = (raw[..., byte // 8] >> (8 * (byte % 8) + 7).astype(np.uint64)) & 1
    return np.split(bits.astype(np.uint8), np.cumsum(sizes)[:-1], axis=-1)


# numpy's SeedSequence (a pool of four 32-bit words) and PCG64's seeding
# step, for the streams of _trial_states
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _int_words(value: int) -> list[int]:
    """``value`` as ``SeedSequence`` reads an int: 32-bit words, low first,
    and 0 as one word."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    # (count + 1, 1) uint32: init, then each times mult, wrapping at 32 bits
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for each row of
    ``entropy``, (B, L) uint32 words, as a (4, B) uint64 array.

    Call i of numpy's ``hashmix`` XORs with the i-th hash constant and
    multiplies by the next, whatever the words are, and the calls that mix
    one word into the other pool words do not read each other.  So each
    such run of calls is one uint32 operation on stacked rows, over every
    row at once, and wraps as the C code's does."""
    rows, length = entropy.shape
    shift = np.uint32(16)
    consts = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * max(0, length - 4))

    def hashmix(values, first):  # calls first, first + 1, ... on the rows of values
        values = (values ^ consts[first:first + len(values)]) * consts[first + 1:][:len(values)]
        return values ^ values >> shift

    def mix(x, y):
        values = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return values ^ values >> shift

    pool = np.zeros((4, rows), dtype=np.uint32)
    pool[:length] = entropy[:, :4].T
    pool = hashmix(pool, 0)
    for src in range(4):  # each other pool word mixes in its own hash of this one
        dst = [i for i in range(4) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[[src] * 3], 4 + 3 * src))
    for src in range(4, length):  # words past the pool mix into every pool word, calls 4 src on
        pool = mix(pool, hashmix(np.broadcast_to(entropy[:, src], (4, rows)), 4 * src))
    # generate_state: eight 32-bit words, from the pool words in turn
    consts = _hash_constants(_INIT_B, _MULT_B, 8)
    words = hashmix(pool[[0, 1, 2, 3] * 2], 0).astype(np.uint64)
    return words[0::2] | words[1::2] << np.uint64(32)  # little-endian pairs


def _trial_states(base_seed: int, point_index: int, start: int,
                  stop: int) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) of ``default_rng((base_seed, point_index, t))``
    for each trial t in [start, stop).

    ``SeedSequence`` reads the tuple as the 32-bit words of its ints in
    turn, hashes them into its pool and draws four 64-bit words from it;
    ``PCG64`` takes the first two as its seed s and the last two as its
    sequence q, sets ``inc = 2 q + 1`` and steps its LCG twice, from state
    0 and then from ``inc + s``.  Trials are grouped by how many words they
    take, so a range across 2^32 gets the same states."""
    prefix = _int_words(base_seed) + _int_words(point_index)
    entropy = [prefix + _int_words(t) for t in range(start, stop)]
    states: list[tuple[int, int]] = [(0, 0)] * len(entropy)
    for length in sorted({len(e) for e in entropy}):
        rows = [row for row, e in enumerate(entropy) if len(e) == length]
        words = _seed_words(np.array([entropy[row] for row in rows], dtype=np.uint32))
        for row, s0, s1, q0, q1 in zip(rows, *(w.tolist() for w in words)):
            inc = (q0 << 65 | q1 << 1 | 1) & _MASK128
            states[row] = (((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128, inc)
    return states


def _run_batch(config: ExperimentConfig, point_index: int, start: int, stop: int):
    """Trials [start, stop) as one pipeline batch, row i being trial start + i.

    Each trial's stream is ``default_rng((base_seed, point_index, trial))``:
    one reused generator takes each trial's PCG64 state from
    :func:`_trial_states`, which seeds the whole batch at once.  From it the
    trial reads all its payload bits with one ``random_raw`` call: channel
    j's bits are bit 7 of the bytes of its own 32-bit words, which is what
    ``rng.integers(0, 2, size=payload_bits_j, dtype=np.uint8)`` draws in
    turn (see :func:`_payload_bits`).  Then it draws its m x n white noise
    with one ``standard_normal`` call.  The batch is correlated by one
    stacked product whose every slice is the one ``sample_noise`` takes,
    and each channel's stacked payloads are encoded together.
    """
    model, codes = config._models[point_index], config._codes
    n, sizes = codes[0].n, [code.payload_bits for code in codes]
    count = _raw_count(sizes)
    raw = np.empty((stop - start, count), dtype=np.uint64)
    white = np.empty((stop - start, model.m, n))
    rng = np.random.Generator(np.random.PCG64(0))
    bits = rng.bit_generator
    for row, (state, inc) in enumerate(_trial_states(config.base_seed, point_index,
                                                     start, stop)):
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        raw[row] = bits.random_raw(count)
        rng.standard_normal(out=white[row])
    received = correlate(model, white)

    sent = np.empty(received.shape, dtype=np.uint8)
    for j, (code, payload) in enumerate(zip(codes, _payload_bits(raw, sizes))):
        sent[:, j] = encode(code, crc_encode(code.crc, payload) if code.crc else payload)
        received[:, j] += modulate_bpsk(sent[:, j])  # float addition commutes: x + noise
    return run_batch(config._pipelines[point_index], received, sent, codes,
                     config._decoders, model)


def _run_range(config: ExperimentConfig, point_index: int, start: int,
               stop: int) -> np.ndarray:
    """Per-channel totals of trials [start, stop): rows errors, queries, leads."""
    m = config._models[point_index].m
    counts = np.zeros((3, m), dtype=np.int64)
    for first in range(start, stop, BATCH_TRIALS):
        batch = _run_batch(config, point_index, first, min(first + BATCH_TRIALS, stop))
        counts[0] += np.logical_not(batch.correct).sum(axis=0)
        counts[1] += batch.queries.sum(axis=0)
        counts[2] += np.bincount(batch.lead[batch.lead >= 0], minlength=m)
        del batch  # or its arrays stay alive while the next batch is built
    return counts


def worker_count(explicit: int | None = None) -> int:
    """``explicit`` if given, else ``$NOISECYCLE_WORKERS``, else 1; a count
    below 1 raises ``ValueError`` naming where it came from."""
    if explicit is not None:
        if explicit < 1:
            raise ValueError(f"workers must be >= 1, got {explicit!r}")
        return explicit
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"{WORKERS_ENV} must be an integer >= 1, got {raw!r}")
    return count


def _chunks(start: int, stop: int, parts: int) -> list[tuple[int, int]]:
    size = stop - start
    parts = min(parts, size) or 1
    bounds = [start + (size * i) // parts for i in range(parts + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(parts)
            if bounds[i] < bounds[i + 1]]


_WORKER_CONFIG: ExperimentConfig | None = None  # set in each sweep worker by _adopt_config


def _adopt_config(config: ExperimentConfig) -> None:
    global _WORKER_CONFIG
    _WORKER_CONFIG = config


def _run_task(point_index: int, start: int, stop: int) -> np.ndarray:
    return _run_range(_WORKER_CONFIG, point_index, start, stop)


def output_target(config: ExperimentConfig,
                  output_path: str | Path | None = None) -> str | Path | None:
    """The CSV path a sweep of ``config`` writes: ``output_path`` if given,
    else the config's; ``ValueError`` naming ``output_path`` if that path or
    its ``.meta.json`` sidecar is a directory, or if the nearest of its
    ancestors that exists is not a directory."""
    target = output_path or config.output_path
    if target is not None:
        for path in (target, f"{target}.meta.json"):
            if Path(path).is_dir():
                raise ValueError(f"output_path {str(path)!r} is a directory")
        # the root exists, so the loop stops
        ancestor = next(path for path in Path(target).absolute().parents if path.exists())
        if not ancestor.is_dir():
            raise ValueError(f"output_path {str(target)!r} lies under {str(ancestor)!r}, "
                             "which is not a directory")
    return target


def run_bler_sweep(config: ExperimentConfig, workers: int | None = None,
                   output_path: str | Path | None = None) -> list[BlerPoint]:
    """Sweep every Eb/N0 point; optionally write the CSV and its sidecar.

    Each point's trial count doubles from ``min_trials`` until every channel
    has ``min_block_errors`` errors or ``max_trials`` is reached.  Every
    point stays in flight: its next segment, one trial range per worker, is
    queued once its current one is tallied; one worker runs the loop inline.
    Totals are integer sums over trial prefixes fixed by the config, whatever
    the worker count or the order in which ranges finish.  An output path
    that names a directory, or lies under a file, is rejected before any
    trial runs.
    """
    nworkers = worker_count(workers)
    target_path = output_target(config, output_path)
    sweep, npoints = config.sweep, len(config._models)
    counts = [np.zeros((3, model.m), dtype=np.int64) for model in config._models]
    trials, targets = [0] * npoints, [sweep.min_trials] * npoints
    pending: dict = {}  # future -> its point
    executor = (ProcessPoolExecutor(max_workers=nworkers, initializer=_adopt_config,
                                    initargs=(config,)) if nworkers > 1 else None)

    def launch(p: int) -> None:
        for start, stop in _chunks(trials[p], targets[p], nworkers):
            if executor is None:
                absorb(p, _run_range(config, p, start, stop))
            else:
                pending[executor.submit(_run_task, p, start, stop)] = p

    def absorb(p: int, part: np.ndarray) -> None:
        counts[p] += part
        if p in pending.values():  # the segment has ranges still out
            return
        trials[p] = targets[p]
        if trials[p] < sweep.max_trials and (counts[p][0] < sweep.min_block_errors).any():
            targets[p] = min(2 * trials[p], sweep.max_trials)
            launch(p)

    try:
        for p in range(npoints):
            launch(p)
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                absorb(pending.pop(future), future.result())
    finally:
        if executor is not None:  # after an error, drop the ranges still queued
            executor.shutdown(cancel_futures=True)

    points = [BlerPoint(ebn0_db=float(ebn0), channel=j + 1, mode=config._pipelines[p].label,
                        trials=trials[p], block_errors=int(errors),
                        bler=float(errors / trials[p]),
                        mean_queries=float(queries / trials[p]),
                        lead_fraction=float(leads / trials[p]))
              for p, ebn0 in enumerate(sweep.ebn0_db)
              for j, (errors, queries, leads) in enumerate(counts[p].T)]

    if target_path is not None:
        emit_csv(points, target_path)
        keys = [f"{ebn0:g}" for ebn0 in config.sweep.ebn0_db]
        sidecar = {
            "config_sha256": config.sha256(),
            "code_labels": [c.label for c in config._codes],
            "sigma2": {key: [float(s) for s in model.sigma2]
                       for key, model in zip(keys, config._models)},
            "ebn0_to_sigma2_by_rate": dict(zip(keys, config._per_rate_sigma2)),
        }
        _atomic_write(Path(f"{target_path}.meta.json"),
                      json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return points


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------

CSV_HEADER = "ebn0_db,channel,mode,trials,block_errors,bler,mean_queries,lead_fraction"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def csv_text(points: Sequence[BlerPoint]) -> str:
    if not points:
        raise ValueError("no points to emit")
    rows = sorted(points, key=lambda p: (p.ebn0_db, p.channel))
    lines = [CSV_HEADER]
    for p in rows:
        lines.append(",".join([
            _fmt(p.ebn0_db), str(p.channel), p.mode, str(p.trials),
            str(p.block_errors), _fmt(p.bler), _fmt(p.mean_queries),
            _fmt(p.lead_fraction),
        ]))
    return "\n".join(lines) + "\n"


def _atomic_write(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_csv(points: Sequence[BlerPoint], path: str | Path) -> Path:
    """Write sorted rows atomically; byte-stable for a given point list."""
    out = Path(path)
    _atomic_write(out, csv_text(points))
    return out


WILSON_Z = 1.96  # the standard normal quantile of a two-sided 95% interval


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    z = WILSON_Z
    if trials <= 0:
        raise ValueError("need at least one trial")
    if not 0 <= errors <= trials:
        raise ValueError(f"errors must lie in [0, {trials}], got {errors}")
    phat = errors / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * np.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)
