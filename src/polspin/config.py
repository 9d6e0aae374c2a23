"""Run configuration: JSON loading, the paper-design preset, dotted-path
overrides, validation, and the resolved-config echo used for provenance."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from .montecarlo import McConfig
from .params import (
    DESIGN,
    CavityParams,
    LinkParams,
    PdrParams,
    PolarizerParams,
    ProtocolTiming,
    ValidationError,
)
from .sweep import DEFAULT_CONSTRAINTS


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


# Fully-resolved defaults: the paper design point plus the run settings.
# Every key a config file may set appears here, so the resolved echo never
# hides a default.
PRESETS: dict[str, dict[str, Any]] = {
    "paper-design": {
        **DESIGN,
        "f_target": 0.95,
        "constraints": list(DEFAULT_CONSTRAINTS),
        "false_herald_correction": False,
        "mc": asdict(McConfig()),
        "sweep": {
            "kind": "pdr",
            "axis": None,       # optional [start, stop, num, spacing] override
            "second_axis": None,
            "with_mc": False,
        },
    },
}


def _deep_merge(base: dict, extra: dict, path: str = "") -> dict:
    out = dict(base)
    for key, val in extra.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {here}")
        if isinstance(base[key], dict) and isinstance(val, dict):
            out[key] = _deep_merge(base[key], val, here)
        else:
            out[key] = val
    return out


def _parse_override(expr: str) -> tuple[list[str], Any]:
    if "=" not in expr:
        raise ConfigError(f"override must look like key=value, got {expr!r}")
    key, raw = expr.split("=", 1)
    try:
        val = json.loads(raw)
    except json.JSONDecodeError:
        val = raw
    return key.strip().split("."), val


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully-resolved configuration for one CLI run."""

    raw: dict[str, Any]
    cavity: CavityParams
    pdr: PdrParams
    polarizer: PolarizerParams
    link: LinkParams
    timing: ProtocolTiming
    r_cav_h: complex
    f_target: float
    constraints: tuple[float, ...]
    false_herald_correction: bool
    mc: dict[str, Any]
    sweep: dict[str, Any]

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()).hexdigest()[:16]

    def echo_json(self) -> str:
        return json.dumps({"config": self.raw, "config_hash": self.config_hash},
                          indent=2, sort_keys=True)


def _build(raw: dict[str, Any]) -> RunConfig:
    try:
        cavity = CavityParams(**raw["cavity"])
        pdr = PdrParams.from_power(**raw["pdr"])
        polarizer = PolarizerParams(**raw["polarizer"])
        link = LinkParams(**raw["link"])
        timing = ProtocolTiming(**raw["timing"])
    except (ValidationError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    re_im = raw["r_cav_h"]
    if not (isinstance(re_im, list) and len(re_im) == 2):
        raise ConfigError("r_cav_h must be a [re, im] pair")
    f_target = raw["f_target"]
    if not 0 <= f_target <= 1:
        raise ConfigError(f"f_target out of [0,1]: {f_target}")
    for c in raw["constraints"]:
        if not 0 <= c <= 1:
            raise ConfigError(f"constraint out of [0,1]: {c}")
    if raw["sweep"]["kind"] not in ("pdr", "cavity_c", "cavity_coupling",
                                    "rate_vs_loss"):
        raise ConfigError(f"unknown sweep kind: {raw['sweep']['kind']}")
    return RunConfig(
        raw=raw,
        cavity=cavity,
        pdr=pdr,
        polarizer=polarizer,
        link=link,
        timing=timing,
        r_cav_h=complex(re_im[0], re_im[1]),
        f_target=f_target,
        constraints=tuple(raw["constraints"]),
        false_herald_correction=bool(raw["false_herald_correction"]),
        mc=dict(raw["mc"]),
        sweep=dict(raw["sweep"]),
    )


def load_config(
    path: str | Path | None = None,
    overrides: list[str] | None = None,
    preset: str = "paper-design",
) -> RunConfig:
    """Resolve preset -> config file -> --set overrides, then validate.

    The file may be empty or contain a partial JSON object; unknown keys are
    rejected with their full dotted path.
    """
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset: {preset!r} (have {sorted(PRESETS)})")
    raw = json.loads(json.dumps(PRESETS[preset]))  # deep copy
    if path is not None:
        text = Path(path).read_text()
        if text.strip():
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"{path}: parse error at line {exc.lineno}, "
                    f"column {exc.colno}: {exc.msg}") from exc
            if not isinstance(data, dict):
                raise ConfigError(f"{path}: top level must be a JSON object")
            raw = _deep_merge(raw, data)
    for expr in overrides or []:
        keys, val = _parse_override(expr)
        node = raw
        for k in keys[:-1]:
            if not isinstance(node, dict) or k not in node:
                raise ConfigError(f"unknown config key: {'.'.join(keys)}")
            node = node[k]
        if not isinstance(node, dict) or keys[-1] not in node:
            raise ConfigError(f"unknown config key: {'.'.join(keys)}")
        node[keys[-1]] = val
    return _build(raw)
