"""JSON descriptors for channel models, codes, decoders, and pipelines.

Channel model: ``{"m": 2, "mode": "gm" | "explicit", "rho": 0.6 |
"corr": [[...]], "sigma2": 1.0 | [..], "power": 1.0 | [..]}``.

Code: ``{"type": "rlc" | "ldpc" | "alist", "n": 128, "k": 110,
"seed": 7, "col_weight": 3, "row_weight": 6, "alist_path": "h.alist",
"crc_polynomial": "100000111", "label": "..."}`` (fields as relevant to
the type; a CRC polynomial may be attached to any type).

Decoder: ``{"type": "orbgrand" | "sgrandab" | "bp",
"max_queries": 100000 | "max_iters": 50}``.

Pipeline: ``{"mode": "independent" | "static" | "dynamic",
"confidence_metric": "query_count" | "noise_nll", "rerecycle": false,
"forced_lead": 1, "genie": false, "parents": [0, 1]}`` where ``parents``
optionally pins the static plan instead of solving for it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .channel import ChannelModel, build_gm_model
from .decoders import BpDecoder, OrbgrandDecoder, SgrandabDecoder
from .gf2 import (CodeSpec, CrcSpec, code_from_parity_check, parse_alist,
                  sample_regular_ldpc, sample_rlc)
from .pipeline import PipelineConfig

__all__ = [
    "load_channel_model",
    "load_code",
    "load_decoder",
    "load_pipeline",
    "read_json",
]


def read_json(path: str | Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _vector(value: Any, m: int, name: str) -> np.ndarray:
    arr = np.full(m, float(value)) if np.isscalar(value) else np.asarray(value, dtype=float)
    if arr.shape != (m,):
        raise ValueError(f"{name} must be a scalar or a length-{m} list")
    return arr


def load_channel_model(spec: Mapping[str, Any]) -> ChannelModel:
    m = int(spec["m"])
    mode = spec.get("mode", "explicit")
    sigma2 = _vector(spec.get("sigma2", 1.0), m, "sigma2")
    power = _vector(spec.get("power", 1.0), m, "power")
    if mode == "gm":
        rho = float(spec["rho"])
        base = build_gm_model(m, rho, 1.0)
        corr = base.corr
    elif mode == "explicit":
        corr = np.asarray(spec["corr"], dtype=float)
    else:
        raise ValueError(f"unknown channel mode {mode!r}")
    return ChannelModel(m=m, sigma2=sigma2, power=power, corr=corr)


def _crc_from_spec(spec: Mapping[str, Any]) -> CrcSpec | None:
    poly = spec.get("crc_polynomial")
    if poly is None:
        return None
    return CrcSpec(degree=len(poly) - 1, polynomial=str(poly))


def load_code(spec: Mapping[str, Any]) -> CodeSpec:
    kind = spec["type"]
    crc = _crc_from_spec(spec)
    label = spec.get("label", "")
    if kind == "rlc":
        return sample_rlc(int(spec["n"]), int(spec["k"]), int(spec["seed"]),
                          crc=crc, label=label)
    if kind == "ldpc":
        return sample_regular_ldpc(int(spec["n"]), int(spec["col_weight"]),
                                   int(spec["row_weight"]), int(spec["seed"]),
                                   crc=crc, label=label)
    if kind == "alist":
        sparse = parse_alist(Path(spec["alist_path"]).read_text(encoding="utf-8"))
        return code_from_parity_check(
            sparse, crc=crc, label=label or (lambda n, k: f"alist[{n},{k}]"))
    raise ValueError(f"unknown code type {kind!r}")


def load_decoder(spec: Mapping[str, Any]):
    kind = spec["type"]
    if kind == "orbgrand":
        return OrbgrandDecoder(max_queries=int(spec["max_queries"]))
    if kind == "sgrandab":
        return SgrandabDecoder(max_queries=int(spec["max_queries"]))
    if kind == "bp":
        return BpDecoder(max_iters=int(spec.get("max_iters", 50)))
    raise ValueError(f"unknown decoder type {kind!r}")


def load_pipeline(spec: Mapping[str, Any]) -> PipelineConfig:
    return PipelineConfig(
        mode=spec.get("mode", "independent"),
        confidence_metric=spec.get("confidence_metric"),
        rerecycle=bool(spec.get("rerecycle", False)),
        forced_lead=spec.get("forced_lead"),
        genie=bool(spec.get("genie", False)),
    )
