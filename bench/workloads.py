"""The benchmark's workloads: experiment descriptors made from a seed.

Each workload is one experiment JSON of the kind ``noisecycle bler`` reads.
Codes, decoders, channel and sweep grid are fixed per workload; the seed
given on the command line only chooses the trial noise and payloads, through
``base_seed``.  A run repeats the workload in rounds, and round ``r`` of seed
``s`` uses ``base_seed = 1000 * s + r``, so the same seed always gives the
same inputs.

This module uses the standard library only, so the orchestrator can read it
without importing the program.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

CRC8 = "100000111"
MAX_ROUNDS = 1000


def _rlc(n: int, k: int, seed: int, **extra) -> dict:
    return {"type": "rlc", "n": n, "k": k, "seed": seed, **extra}


def _ldpc(n: int, seed: int) -> dict:
    return {"type": "ldpc", "n": n, "col_weight": 3, "row_weight": 6, "seed": seed}


@dataclass(frozen=True)
class Workload:
    experiment: dict
    workers: int
    # named checks beyond those every workload gets (see checks.py)
    checks: tuple[str, ...] = ()
    # replay round 0 after the timed rounds of an untraced run
    replay_round0: bool = True


WORKLOADS: dict[str, Workload] = {
    "sweep-orbgrand-static": Workload(
        experiment={
            "channel": {"m": 2, "mode": "gm", "rho": 0.6},
            "codes": [_rlc(128, 110, 21), _rlc(128, 110, 22)],
            "decoders": [{"type": "orbgrand", "max_queries": 40_000}] * 2,
            "pipeline": {"mode": "static"},
            "sweep": {"ebn0_db": [3.5, 3.75, 4.0], "min_trials": 100,
                      "max_trials": 400, "min_block_errors": 50},
        },
        workers=2,
        checks=("recycling_gain",),
        replay_round0=False,
    ),
    "genie-sgrandab-crc": Workload(
        experiment={
            "channel": {"m": 2, "mode": "gm", "rho": 0.6},
            "codes": [_rlc(64, 46, 31, crc_polynomial=CRC8)] * 2,
            "decoders": [{"type": "sgrandab", "max_queries": 8000}] * 2,
            "pipeline": {"mode": "static", "genie": True},
            "sweep": {"ebn0_db": [3.9], "min_trials": 500,
                      "max_trials": 500, "min_block_errors": 50},
        },
        workers=1,
        checks=("crc", "ml", "genie_residual"),
    ),
    "dynamic-bp-ldpc": Workload(
        experiment={
            "channel": {"m": 3, "mode": "gm", "rho": 0.8},
            "codes": [_ldpc(256, 51), _ldpc(256, 52), _ldpc(256, 53)],
            "decoders": [{"type": "bp", "max_iters": 50}] * 3,
            "pipeline": {"mode": "dynamic", "confidence_metric": "noise_nll",
                         "rerecycle": True},
            "sweep": {"ebn0_db": [2.5], "min_trials": 400,
                      "max_trials": 400, "min_block_errors": 50},
        },
        workers=1,
        checks=("sparse_h", "nll_lead"),
    ),
    "highsnr-orbgrand-m4": Workload(
        experiment={
            "channel": {"m": 4, "mode": "gm", "rho": 0.6},
            "codes": [_rlc(128, 110, 21 + j) for j in range(4)],
            "decoders": [{"type": "orbgrand", "max_queries": 40_000}] * 4,
            "pipeline": {"mode": "static"},
            "sweep": {"ebn0_db": [5.5], "min_trials": 2000,
                      "max_trials": 2000, "min_block_errors": 50},
        },
        workers=1,
    ),
}


def experiment(name: str, seed: int, round_index: int) -> dict:
    """The experiment JSON of one round of a workload."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if not 0 <= round_index < MAX_ROUNDS:
        raise ValueError(f"round index must lie in [0, {MAX_ROUNDS})")
    raw = copy.deepcopy(WORKLOADS[name].experiment)
    raw["base_seed"] = MAX_ROUNDS * seed + round_index
    return raw


def doubling_schedule(sweep: dict) -> list[int]:
    """Trial counts at which the harness may stop a point."""
    counts, target = [], int(sweep["min_trials"])
    cap = int(sweep["max_trials"])
    while True:
        counts.append(target)
        if target >= cap:
            return counts
        target = min(2 * target, cap)
