"""Deterministic Monte Carlo block-error-rate sweeps.

An experiment fixes codes, decoders, a channel correlation structure, and a
pipeline, then sweeps Eb/N0.  At each point channel j's noise variance is
``factor_j * ebn0_to_sigma2(point, rate_j)`` where the factors come from the
channel descriptor's ``sigma2`` entries (all 1.0 for a homogeneous sweep)
and ``rate_j = k_j / n``.

Every trial draws its random stream from ``(base_seed, point_index,
trial_index)``, and per-point totals are integer sums over a trial prefix
whose length follows a fixed doubling schedule, so results are identical
for any worker count and any scheduling order.  A range of trials advances
in batches of ``BATCH_TRIALS``: the trials draw their streams one by one,
then each channel's messages are encoded together and the pipeline decodes
the whole batch, so a trial's result does not depend on its batch;
:func:`run_trial` is a batch of one.  Trials stop once every
channel has accumulated ``min_block_errors`` block errors (or at
``max_trials``).

An :class:`ExperimentConfig` builds everything a trial needs besides the
noise when it is constructed: codes, decoders and, per point, the channel
model, the pipeline with its static plan, and the per-rate noise variances.
So bad input fails there, before any trial runs, and sweep workers receive
the built experiment by pickling instead of rebuilding it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from . import configio
from .channel import ChannelModel, ebn0_to_sigma2, modulate_bpsk, sample_noise
from .decoders import BpDecoder
from .gf2 import crc_encode, encode
from .ordering import plan_for
from .pipeline import (MODE_DYNAMIC, MODE_INDEPENDENT, MODE_STATIC, BlockResult,
                       PipelineConfig, run_batch)

__all__ = [
    "SweepSpec",
    "ExperimentConfig",
    "BlerPoint",
    "run_trial",
    "run_bler_sweep",
    "emit_csv",
    "parse_csv",
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
        if not self.ebn0_db:
            raise ValueError("sweep needs at least one Eb/N0 point")
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
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        # The built experiment lives in private attributes, not fields:
        # dataclasses.asdict, and so canonical_json and sha256, sees fields only.
        base = configio.load_channel_model(self.channel)
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
        if pipe.mode == MODE_DYNAMIC and base.m < 2:
            raise ValueError("dynamic recycling needs at least two channels")
        if pipe.mode != MODE_INDEPENDENT:
            # recycling across |rho| = 1 would leave zero noise variance
            for i, j in itertools.combinations(range(base.m), 2):
                if abs(base.corr[i, j]) >= 1.0:
                    raise ValueError(f"channels {i + 1} and {j + 1} have |rho| = 1, "
                                     f"which {pipe.mode} recycling cannot use")

        per_rate = tuple([ebn0_to_sigma2(ebn0, c.rate) for c in codes]
                         for ebn0 in self.sweep.ebn0_db)
        models = tuple(ChannelModel(m=base.m, sigma2=base.sigma2 * rates,
                                    power=base.power, corr=base.corr)
                       for rates in per_rate)
        pipelines = (pipe,) * len(models)
        if pipe.mode == MODE_STATIC:
            plans = (plan_for(model, self.pipeline.get("forced_lead"),
                              self.pipeline.get("parents"))
                     for model in models)
            pipelines = tuple(dataclasses.replace(pipe, plan=plan) for plan in plans)
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
        ebn0_db = tuple(float(x) for x in
                        configio.checked_list(sweep.pop("ebn0_db"), "ebn0_db", float))
        return cls(
            channel=dict(configio.checked(raw["channel"], "channel", dict)),
            codes=tuple(map(dict, configio.checked_list(raw["codes"], "codes", dict))),
            decoders=tuple(map(dict, configio.checked_list(raw["decoders"], "decoders", dict))),
            pipeline=dict(configio.checked(raw.get("pipeline", {}), "pipeline", dict)),
            sweep=SweepSpec(ebn0_db, **{k: configio.checked(v, k, int)
                                        for k, v in sweep.items()}),
            base_seed=configio.checked(raw.get("base_seed", 0), "base_seed", int),
            output_path=(None if raw.get("output_path") is None
                         else configio.checked(raw["output_path"], "output_path", str)),
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

# Trials advance in batches of this many, one stage at a time.  Batches of
# 100 were at most 7% faster than batches of 32 at m = 4, n = 128, but their
# arrays raised a sweep's peak resident set by 0.6 MB there and by 1 MB at
# m = 3, n = 256.
BATCH_TRIALS = 32


def run_trial(config: ExperimentConfig, point_index: int,
              trial_index: int) -> BlockResult:
    """One deterministic block: encode, add correlated noise, run pipeline."""
    return _run_batch(config, point_index, trial_index, trial_index + 1).result(0)


def _run_batch(config: ExperimentConfig, point_index: int, start: int, stop: int):
    """Trials [start, stop) as one pipeline batch, row i being trial start + i.

    Each trial draws its payloads, then its noise, from its own
    ``(base_seed, point_index, trial)`` stream; the stacked payloads of each
    channel are then encoded together.
    """
    model, codes = config._models[point_index], config._codes
    n = codes[0].n
    payloads = [np.empty((stop - start, code.payload_bits), dtype=np.uint8) for code in codes]
    received = np.empty((stop - start, model.m, n))
    for row, t in enumerate(range(start, stop)):
        rng = np.random.default_rng((config.base_seed, point_index, t))
        for code, drawn in zip(codes, payloads):
            drawn[row] = rng.integers(0, 2, size=code.payload_bits, dtype=np.uint8)
        received[row] = sample_noise(model, n, rng).samples

    sent = np.empty(received.shape, dtype=np.uint8)
    for j, (code, payload) in enumerate(zip(codes, payloads)):
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


def _mode_label(pipe: PipelineConfig) -> str:
    return pipe.mode + ("+rr" if pipe.rerecycle else "") + ("+genie" if pipe.genie else "")


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


def run_bler_sweep(config: ExperimentConfig, workers: int | None = None,
                   output_path: str | Path | None = None) -> list[BlerPoint]:
    """Sweep every Eb/N0 point; optionally write the CSV and its sidecar.

    The trial count grows by doubling from ``min_trials`` until every
    channel has ``min_block_errors`` errors or ``max_trials`` is reached,
    so the executed trial set is a pure function of the config.
    """
    nworkers = worker_count(workers)
    points: list[BlerPoint] = []
    executor = ProcessPoolExecutor(max_workers=nworkers) if nworkers > 1 else None
    run = executor.map if executor else map
    try:
        for p_idx, ebn0 in enumerate(config.sweep.ebn0_db):
            counts = np.zeros((3, config._models[p_idx].m), dtype=np.int64)
            trials, target = 0, config.sweep.min_trials
            while True:
                starts, stops = zip(*_chunks(trials, target, nworkers))
                counts += sum(run(partial(_run_range, config, p_idx), starts, stops))
                trials = target
                done = (counts[0] >= config.sweep.min_block_errors).all()
                if done or trials >= config.sweep.max_trials:
                    break
                target = min(2 * target, config.sweep.max_trials)

            mode = _mode_label(config._pipelines[p_idx])
            for j, (errors, queries, leads) in enumerate(counts.T):
                points.append(BlerPoint(
                    ebn0_db=float(ebn0),
                    channel=j + 1,
                    mode=mode,
                    trials=trials,
                    block_errors=int(errors),
                    bler=float(errors / trials),
                    mean_queries=float(queries / trials),
                    lead_fraction=float(leads / trials),
                ))
    finally:
        if executor is not None:
            executor.shutdown()

    target_path = output_path or config.output_path
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


def parse_csv(text: str) -> list[BlerPoint]:
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized CSV header")
    points = []
    for ln in lines[1:]:
        cells = ln.split(",")
        points.append(BlerPoint(
            ebn0_db=float(cells[0]), channel=int(cells[1]), mode=cells[2],
            trials=int(cells[3]), block_errors=int(cells[4]), bler=float(cells[5]),
            mean_queries=float(cells[6]), lead_fraction=float(cells[7]),
        ))
    return points


WILSON_Z = 1.96  # the standard normal quantile of a two-sided 95% interval


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    z = WILSON_Z
    if trials <= 0:
        raise ValueError("need at least one trial")
    phat = errors / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * np.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)
