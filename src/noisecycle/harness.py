"""Deterministic Monte Carlo block-error-rate sweeps.

An experiment fixes codes, decoders, a channel correlation structure, and a
pipeline, then sweeps Eb/N0.  At each point channel j's noise variance is
``factor_j * ebn0_to_sigma2(point, rate_j)`` where the factors come from the
channel descriptor's ``sigma2`` entries (all 1.0 for a homogeneous sweep)
and ``rate_j = k_j / n``.

Every trial draws its random stream from ``(base_seed, point_index,
trial_index)``, and per-point totals are integer sums over a trial prefix
whose length follows a fixed doubling schedule, so results are identical
for any worker count and any scheduling order.  Trials stop once every
channel has accumulated ``min_block_errors`` block errors (or at
``max_trials``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import configio
from .channel import ebn0_to_sigma2, modulate_bpsk, sample_noise, transmit, ChannelModel
from .gf2 import crc_encode, encode
from .ordering import plan_for
from .pipeline import MODE_STATIC, BlockResult, run_block

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
        # load every descriptor once, so a bad one fails here, not in a worker
        m = configio.load_channel_model(self.channel).m
        if len(self.codes) != m or len(self.decoders) != m:
            raise ValueError("codes and decoders must list one entry per channel")
        for j, (code, decoder) in enumerate(zip(self.codes, self.decoders)):
            try:
                configio.check_code(code)
                configio.load_decoder(decoder)
            except ValueError as exc:
                raise ValueError(f"channel {j + 1}: {exc}") from None
        configio.load_pipeline(self.pipeline)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Build from experiment JSON; a missing or unknown key anywhere in it
        raises ``ValueError`` naming the key."""
        configio.check_keys(raw, "experiment",
                            required=("channel", "codes", "decoders", "sweep"),
                            optional=("pipeline", "base_seed", "output_path"))
        sweep = dict(raw["sweep"])
        configio.check_keys(sweep, "sweep", *configio.field_keys(SweepSpec))
        ebn0_db = tuple(float(x) for x in sweep.pop("ebn0_db"))
        return cls(
            channel=dict(raw["channel"]),
            codes=tuple(dict(c) for c in raw["codes"]),
            decoders=tuple(dict(d) for d in raw["decoders"]),
            pipeline=dict(raw.get("pipeline", {})),
            sweep=SweepSpec(ebn0_db, **{k: int(v) for k, v in sweep.items()}),
            base_seed=int(raw.get("base_seed", 0)),
            output_path=raw.get("output_path"),
        )

    def canonical_json(self) -> str:
        as_dict = dataclasses.asdict(self)
        return json.dumps(as_dict, sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        cached = getattr(self, "_sha", None)
        if cached is None:
            cached = hashlib.sha256(self.canonical_json().encode()).hexdigest()
            object.__setattr__(self, "_sha", cached)
        return cached


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
# per-point experiment construction (cached per process)
# ---------------------------------------------------------------------------

class _PointSetup:
    def __init__(self, config: ExperimentConfig, point_index: int) -> None:
        self.codes = [configio.load_code(c) for c in config.codes]
        self.decoders = [configio.load_decoder(d) for d in config.decoders]
        lengths = {c.n for c in self.codes}
        if len(lengths) != 1:
            raise ValueError("all channels must share one code length")
        self.n = lengths.pop()

        base = configio.load_channel_model(config.channel)
        ebn0 = config.sweep.ebn0_db[point_index]
        sigma2 = np.array([
            base.sigma2[j] * ebn0_to_sigma2(ebn0, self.codes[j].rate)
            for j in range(base.m)
        ])
        self.model = ChannelModel(m=base.m, sigma2=sigma2, power=base.power,
                                  corr=base.corr)
        self.per_rate_sigma2 = [ebn0_to_sigma2(ebn0, c.rate) for c in self.codes]

        pipe = configio.load_pipeline(config.pipeline)
        if pipe.mode == MODE_STATIC and pipe.plan is None:
            plan = plan_for(self.model, pipe.forced_lead,
                            config.pipeline.get("parents"))
            pipe = dataclasses.replace(pipe, plan=plan)
        self.pipeline = pipe

    def mode_label(self) -> str:
        label = self.pipeline.mode
        if self.pipeline.rerecycle:
            label += "+rr"
        if self.pipeline.genie:
            label += "+genie"
        return label


_SETUP_CACHE: dict[tuple[str, int], _PointSetup] = {}


def _setup(config: ExperimentConfig, point_index: int) -> _PointSetup:
    key = (config.sha256(), point_index)
    found = _SETUP_CACHE.get(key)
    if found is None:
        found = _PointSetup(config, point_index)
        _SETUP_CACHE[key] = found
    return found


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------

def run_trial(config: ExperimentConfig, point_index: int,
              trial_index: int) -> BlockResult:
    """One deterministic block: encode, add correlated noise, run pipeline."""
    setup = _setup(config, point_index)
    rng = np.random.default_rng((config.base_seed, point_index, trial_index))
    model, codes = setup.model, setup.codes

    blocks = np.empty((model.m, setup.n))
    for j, code in enumerate(codes):
        payload = rng.integers(0, 2, size=code.payload_bits, dtype=np.uint8)
        message = crc_encode(code.crc, payload) if code.crc else payload
        blocks[j] = modulate_bpsk(encode(code, message))

    noise = sample_noise(model, setup.n, rng)
    outputs = transmit(model, blocks, noise)
    return run_block(setup.pipeline, outputs, codes, setup.decoders, model)


@dataclass
class _Tally:
    trials: int
    errors: np.ndarray
    queries: np.ndarray
    leads: np.ndarray

    @classmethod
    def zero(cls, m: int) -> "_Tally":
        return cls(0, np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64),
                   np.zeros(m, dtype=np.int64))

    def add(self, other: "_Tally") -> None:
        self.trials += other.trials
        self.errors += other.errors
        self.queries += other.queries
        self.leads += other.leads


def _run_range(config: ExperimentConfig, point_index: int, start: int,
               stop: int) -> _Tally:
    setup = _setup(config, point_index)
    tally = _Tally.zero(setup.model.m)
    for t in range(start, stop):
        result = run_trial(config, point_index, t)
        tally.trials += 1
        for j in range(setup.model.m):
            if not result.correct[j]:
                tally.errors[j] += 1
            tally.queries[j] += result.queries_spent[j]
        if result.lead_channel is not None:
            tally.leads[result.lead_channel] += 1
    return tally


def worker_count(explicit: int | None = None) -> int:
    if explicit is not None:
        return max(1, explicit)
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None


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
    sigma2_table: dict[str, list[float]] = {}
    per_rate_table: dict[str, list[float]] = {}

    executor = ProcessPoolExecutor(max_workers=nworkers) if nworkers > 1 else None
    try:
        for p_idx, ebn0 in enumerate(config.sweep.ebn0_db):
            setup = _setup(config, p_idx)
            m = setup.model.m
            tally = _Tally.zero(m)
            target = config.sweep.min_trials
            while True:
                start, stop = tally.trials, target
                if executor is None:
                    for lo, hi in _chunks(start, stop, 1):
                        tally.add(_run_range(config, p_idx, lo, hi))
                else:
                    futures = [executor.submit(_run_range, config, p_idx, lo, hi)
                               for lo, hi in _chunks(start, stop, nworkers)]
                    for fut in futures:
                        tally.add(fut.result())
                done_errors = bool((tally.errors >= config.sweep.min_block_errors).all())
                if done_errors or tally.trials >= config.sweep.max_trials:
                    break
                target = min(2 * target, config.sweep.max_trials)

            for j in range(m):
                points.append(BlerPoint(
                    ebn0_db=float(ebn0),
                    channel=j + 1,
                    mode=setup.mode_label(),
                    trials=tally.trials,
                    block_errors=int(tally.errors[j]),
                    bler=float(tally.errors[j] / tally.trials),
                    mean_queries=float(tally.queries[j] / tally.trials),
                    lead_fraction=float(tally.leads[j] / tally.trials),
                ))
            sigma2_table[f"{ebn0:g}"] = [float(s) for s in setup.model.sigma2]
            per_rate_table[f"{ebn0:g}"] = list(setup.per_rate_sigma2)
    finally:
        if executor is not None:
            executor.shutdown()

    target_path = output_path or config.output_path
    if target_path is not None:
        emit_csv(points, target_path)
        sidecar = {
            "config_sha256": config.sha256(),
            "code_labels": [c.label for c in _setup(config, 0).codes],
            "sigma2": sigma2_table,
            "ebn0_to_sigma2_by_rate": per_rate_table,
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


def wilson_interval(errors: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """95% (by default) Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("need at least one trial")
    phat = errors / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * np.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)
