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
optionally pins the static plan instead of solving for it, and so excludes
``forced_lead``.  Each mode takes only the keys it reads, as the one table
``pipeline.MODE_SETTINGS`` lists them: ``confidence_metric`` is
dynamic-only, ``forced_lead`` and ``parents`` static-only, and an
independent pipeline takes ``mode`` alone.  ``PipelineConfig`` holds the
same rule for its fields.  The model a pipeline runs on is checked by
``pipeline.check_model``, when an experiment is built and again by
``run_block`` and ``run_batch``, which reject a recycling mode on a model
with a channel pair at |rho| = 1.

A missing key, a key the descriptor does not know, or a value of the wrong
type (an integer key given ``2.5`` or ``true``, a flag given ``"false"``, a
number given ``"4"``) raises ``ValueError`` naming the descriptor or the
key: a misspelt key never means its default and a value is never truncated
or coerced.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .channel import ChannelModel, build_gm_model
from .decoders import BpDecoder, OrbgrandDecoder, SgrandabDecoder
from .gf2 import (CodeSpec, CrcSpec, code_from_parity_check, parse_alist,
                  sample_regular_ldpc, sample_rlc)
from .pipeline import MODE_INDEPENDENT, MODE_SETTINGS, PipelineConfig, check_settings

__all__ = [
    "check_keys",
    "field_keys",
    "checked",
    "checked_list",
    "load_channel_model",
    "load_code",
    "load_decoder",
    "load_pipeline",
    "read_json",
]


def read_json(path: str | Path) -> dict:
    """The JSON object in the file at ``path``; ``OSError`` if it cannot be
    read, ``ValueError`` if it is not JSON or not an object."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"expected a JSON object, got {type(raw).__name__}")
    return raw


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


_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string", list: "a list", dict: "an object"}


def checked(value: Any, key: str, kind: type) -> Any:
    """``value`` if it is a ``kind`` (int, float, bool, str or dict), else
    ``ValueError`` naming ``key``.  A bool is not an int here, and a float
    kind means a finite number: an int or a float, but not the ``NaN`` or
    ``Infinity`` that JSON readers accept."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ValueError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return value


def checked_list(value: Any, key: str, kind: type) -> list | tuple:
    """``value`` if it is a list (or tuple) of ``kind`` entries, else
    ``ValueError`` naming ``key``."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key} must be a list, got {value!r}")
    for entry in value:
        checked(entry, f"{key} entry", kind)
    return value


def _one_of(value: Any, table: Mapping[str, Any], what: str) -> str:
    if not isinstance(value, str) or value not in table:
        raise ValueError(f"{what} must be one of {', '.join(table)}, got {value!r}")
    return value


def _vector(value: Any, m: int, name: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)):
        value = [checked(value, name, float)] * m
    arr = np.asarray(checked_list(value, name, float), dtype=float)
    if arr.shape != (m,):
        raise ValueError(f"{name} must be a scalar or a length-{m} list")
    return arr


# channel mode -> the key that sets its correlations
_CHANNEL_CORR_KEY = {"gm": "rho", "explicit": "corr"}


def load_channel_model(spec: Mapping[str, Any]) -> ChannelModel:
    mode = _one_of(spec.get("mode", "explicit"), _CHANNEL_CORR_KEY, "channel key 'mode'")
    check_keys(spec, f"{mode} channel", required=("m", _CHANNEL_CORR_KEY[mode]),
               optional=("mode", "sigma2", "power"))
    m = checked(spec["m"], "m", int)
    sigma2 = _vector(spec.get("sigma2", 1.0), m, "sigma2")
    power = _vector(spec.get("power", 1.0), m, "power")
    if mode == "gm":
        corr = build_gm_model(m, float(checked(spec["rho"], "rho", float)), 1.0).corr
    else:
        rows = checked_list(spec["corr"], "corr", list)
        corr = np.asarray([checked_list(row, "corr", float) for row in rows], dtype=float)
    return ChannelModel(m=m, sigma2=sigma2, power=power, corr=corr)


def _crc_from_spec(spec: Mapping[str, Any]) -> CrcSpec | None:
    poly = spec.get("crc_polynomial")
    if poly is None:
        return None
    checked(poly, "crc_polynomial", str)
    return CrcSpec(poly)


# code type -> its required keys besides "type"
_CODE_KEYS = {
    "rlc": ("n", "k", "seed"),
    "ldpc": ("n", "col_weight", "row_weight", "seed"),
    "alist": ("alist_path",),
}


def load_code(spec: Mapping[str, Any]) -> CodeSpec:
    kind = _one_of(spec.get("type"), _CODE_KEYS, "code key 'type'")
    check_keys(spec, f"{kind} code", required=("type", *_CODE_KEYS[kind]),
               optional=("crc_polynomial", "label"))
    crc = _crc_from_spec(spec)
    label = checked(spec.get("label", ""), "label", str)
    if kind == "alist":
        path = Path(checked(spec["alist_path"], "alist_path", str))
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot read alist_path {str(path)!r}: {exc.strerror}") from None
        return code_from_parity_check(
            parse_alist(text), crc=crc, label=label or (lambda n, k: f"alist[{n},{k}]"))
    build = sample_rlc if kind == "rlc" else sample_regular_ldpc
    # _CODE_KEYS lists the integer keys in the builder's argument order
    return build(*(checked(spec[key], key, int) for key in _CODE_KEYS[kind]),
                 crc=crc, label=label)


_DECODERS = {"orbgrand": OrbgrandDecoder, "sgrandab": SgrandabDecoder, "bp": BpDecoder}


def load_decoder(spec: Mapping[str, Any]):
    """The decoder class named by ``type``, built from the other keys, which
    must be fields of that class (all of them integer limits)."""
    kind = _one_of(spec.get("type"), _DECODERS, "decoder key 'type'")
    cls = _DECODERS[kind]
    required, optional = field_keys(cls)
    check_keys(spec, f"{kind} decoder", required=("type", *required), optional=optional)
    return cls(**{key: checked(value, key, int) for key, value in spec.items()
                  if key != "type"})


def load_pipeline(spec: Mapping[str, Any]) -> PipelineConfig:
    """The pipeline's settings; ``forced_lead`` and ``parents`` are checked
    here and read where the plan is built."""
    keys = sorted({key for names in MODE_SETTINGS.values() for key in names} - {"plan"})
    check_keys(spec, "pipeline", optional=("mode", *keys))
    mode = _one_of(spec.get("mode", MODE_INDEPENDENT), MODE_SETTINGS, "pipeline key 'mode'")
    check_settings(mode, [key for key in spec if key != "mode"])
    checked(spec.get("forced_lead", 1), "forced_lead", int)
    checked_list(spec.get("parents", []), "parents", int)
    return PipelineConfig(**{key: value for key, value in spec.items()
                             if key not in ("forced_lead", "parents")})
