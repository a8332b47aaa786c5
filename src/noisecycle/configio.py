"""JSON descriptors for channel models, codes, decoders, and pipelines.

Channel model: ``{"m": 2, "mode": "gm" | "explicit", "rho": 0.6 |
"corr": [[...]], "sigma2": 1.0 | [..], "power": 1.0 | [..]}``.

Code: ``{"type": "rlc" | "ldpc" | "alist", "n": 128, "k": 110,
"seed": 7, "col_weight": 3, "row_weight": 6, "alist_path": "h.alist",
"crc_polynomial": "100000111", "label": "..."}`` (fields as relevant to
the type; a CRC polynomial may be attached to any type).

Decoder: ``{"type": "orbgrand" | "sgrandab" | "bp",
"max_queries": 100000 | "max_iters": 50}``.  The keys besides ``type`` are
the fields of the decoder class; a limit below 1 is rejected.

Pipeline: ``{"mode": "independent" | "static" | "dynamic",
"confidence_metric": "query_count" | "noise_nll", "rerecycle": false,
"forced_lead": 1, "genie": false, "parents": [0, 1]}`` where ``parents``
optionally pins the static plan instead of solving for it.

A missing key, or a key the descriptor does not know, raises ``ValueError``
naming the descriptor and the key: a misspelt key never means its default.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .channel import ChannelModel, build_gm_model
from .decoders import BpDecoder, OrbgrandDecoder, SgrandabDecoder
from .gf2 import (CodeSpec, CrcSpec, code_from_parity_check, parse_alist,
                  sample_regular_ldpc, sample_rlc)
from .pipeline import PipelineConfig

__all__ = [
    "check_keys",
    "field_keys",
    "check_code",
    "load_channel_model",
    "load_code",
    "load_decoder",
    "load_pipeline",
    "read_json",
]


def read_json(path: str | Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_keys(raw: Mapping[str, Any], where: str,
               required: Sequence[str] = (), optional: Sequence[str] = ()) -> None:
    """Raise ``ValueError`` naming ``where`` and the keys when ``raw`` has a
    key outside ``required`` and ``optional`` or lacks a required one."""
    known = [*required, *optional]
    unknown = sorted(set(raw) - set(known), key=str)
    if unknown:
        raise ValueError(f"unknown {where} key(s) {', '.join(map(repr, unknown))}; "
                         f"expected some of {', '.join(known)}")
    missing = [key for key in required if key not in raw]
    if missing:
        raise ValueError(f"{where} is missing key(s) {', '.join(map(repr, missing))}")


def field_keys(cls: type) -> tuple[list[str], list[str]]:
    """(required, optional) keys of a dataclass: fields without/with a default."""
    fields = dataclasses.fields(cls)
    return ([f.name for f in fields if f.default is dataclasses.MISSING],
            [f.name for f in fields if f.default is not dataclasses.MISSING])


def _type_of(spec: Mapping[str, Any], table: Mapping[str, Any], what: str) -> str:
    kind = spec.get("type")
    if kind not in table:
        raise ValueError(f"{what} key 'type' must be one of {', '.join(table)}, got {kind!r}")
    return kind


def _vector(value: Any, m: int, name: str) -> np.ndarray:
    arr = np.full(m, float(value)) if np.isscalar(value) else np.asarray(value, dtype=float)
    if arr.shape != (m,):
        raise ValueError(f"{name} must be a scalar or a length-{m} list")
    return arr


# channel mode -> the key that sets its correlations
_CHANNEL_CORR_KEY = {"gm": "rho", "explicit": "corr"}


def load_channel_model(spec: Mapping[str, Any]) -> ChannelModel:
    mode = spec.get("mode", "explicit")
    if mode not in _CHANNEL_CORR_KEY:
        raise ValueError(f"unknown channel mode {mode!r}")
    check_keys(spec, f"{mode} channel", required=("m", _CHANNEL_CORR_KEY[mode]),
               optional=("mode", "sigma2", "power"))
    m = int(spec["m"])
    sigma2 = _vector(spec.get("sigma2", 1.0), m, "sigma2")
    power = _vector(spec.get("power", 1.0), m, "power")
    if mode == "gm":
        corr = build_gm_model(m, float(spec["rho"]), 1.0).corr
    else:
        corr = np.asarray(spec["corr"], dtype=float)
    return ChannelModel(m=m, sigma2=sigma2, power=power, corr=corr)


def _crc_from_spec(spec: Mapping[str, Any]) -> CrcSpec | None:
    poly = spec.get("crc_polynomial")
    if poly is None:
        return None
    return CrcSpec(degree=len(poly) - 1, polynomial=str(poly))


# code type -> its required keys besides "type"
_CODE_KEYS = {
    "rlc": ("n", "k", "seed"),
    "ldpc": ("n", "col_weight", "row_weight", "seed"),
    "alist": ("alist_path",),
}


def check_code(spec: Mapping[str, Any]) -> str:
    """Check a code descriptor's keys without building it; return its type."""
    kind = _type_of(spec, _CODE_KEYS, "code")
    check_keys(spec, f"{kind} code", required=("type", *_CODE_KEYS[kind]),
               optional=("crc_polynomial", "label"))
    return kind


def load_code(spec: Mapping[str, Any]) -> CodeSpec:
    kind = check_code(spec)
    crc = _crc_from_spec(spec)
    label = spec.get("label", "")
    if kind == "rlc":
        return sample_rlc(int(spec["n"]), int(spec["k"]), int(spec["seed"]),
                          crc=crc, label=label)
    if kind == "ldpc":
        return sample_regular_ldpc(int(spec["n"]), int(spec["col_weight"]),
                                   int(spec["row_weight"]), int(spec["seed"]),
                                   crc=crc, label=label)
    sparse = parse_alist(Path(spec["alist_path"]).read_text(encoding="utf-8"))
    return code_from_parity_check(
        sparse, crc=crc, label=label or (lambda n, k: f"alist[{n},{k}]"))


_DECODERS = {"orbgrand": OrbgrandDecoder, "sgrandab": SgrandabDecoder, "bp": BpDecoder}


def load_decoder(spec: Mapping[str, Any]):
    """The decoder class named by ``type``, built from the other keys, which
    must be fields of that class (all of them integer limits)."""
    kind = _type_of(spec, _DECODERS, "decoder")
    cls = _DECODERS[kind]
    required, optional = field_keys(cls)
    check_keys(spec, f"{kind} decoder", required=("type", *required), optional=optional)
    return cls(**{key: int(value) for key, value in spec.items() if key != "type"})


_PIPELINE_KEYS = ("mode", "confidence_metric", "rerecycle", "forced_lead", "genie",
                 "parents")


def load_pipeline(spec: Mapping[str, Any]) -> PipelineConfig:
    """The pipeline's settings; ``parents`` is read where the plan is built."""
    check_keys(spec, "pipeline", optional=_PIPELINE_KEYS)
    return PipelineConfig(**{key: value for key, value in spec.items()
                             if key != "parents"})
