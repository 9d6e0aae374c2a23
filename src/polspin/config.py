"""Run configuration: the defaults, JSON loading, dotted-path overrides,
validation, and the resolved-config echo used for provenance. It holds the
sweeps' default axes and constraints, and loads no numpy; json loads only
where a value is read or written as JSON."""

from __future__ import annotations

import math
import sys
from pathlib import Path
from typing import Any

from .params import (
    DESIGN,
    POWER_TOL,
    CavityParams,
    LinkParams,
    McConfig,
    PdrParams,
    PolarizerParams,
    ProtocolTiming,
    SweepAxis,
    ValidationError,
    Value,
)

# hashlib loads OpenSSL, several MB of resident memory, for one digest; the
# interpreter's own sha256 module gives the same digest without it. It is
# chosen by version, since a failed import scans sys.path on every set-up.
try:
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:  # an interpreter built without it
    from hashlib import sha256


# The types of a JSON number; type(True) is bool, so a bool is not among them.
_NUMBERS = frozenset((int, float))


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


DEFAULT_CONSTRAINTS = (0.95, 0.97, 0.98, 0.99)


def default_pdr_axes() -> tuple[SweepAxis, SweepAxis]:
    return (SweepAxis("pdr.T_V", 0.5, 1.0, 101),
            SweepAxis("pdr.R_H", 0.0, 0.6, 101))


def default_cooperativity_axis() -> SweepAxis:
    return SweepAxis("cavity.cooperativity", 0.5, 20.0, 101, spacing="log")


def default_coupling_axis() -> SweepAxis:
    return SweepAxis("cavity.coupling_ratio", 0.05, 1.0, 96)


def default_loss_axis() -> SweepAxis:
    return SweepAxis("loss_db", 0.0, 60.0, 121, spacing="db")


# Each sweep kind's default axes, which sweep.axis and sweep.second_axis override.
SWEEP_KINDS: dict[str, tuple[SweepAxis, ...]] = {
    "pdr": default_pdr_axes(),
    "cavity_c": (default_cooperativity_axis(),),
    "cavity_coupling": (default_coupling_axis(),),
    "rate_vs_loss": (default_loss_axis(),),
}


def _jsonable(value: Any) -> Any:
    """value as plain JSON types: value types (params.Value) as dicts of
    their fields in field order, complex numbers as [re, im] pairs, numpy
    values as Python values."""
    np = sys.modules.get("numpy")  # no numpy value exists before numpy is loaded
    if np is not None and isinstance(value, (np.generic, np.ndarray)):
        value = value.tolist()  # a Python scalar, or nested lists of them
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, Value):
        return {name: _jsonable(getattr(value, name)) for name in value._fields}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


# Fully-resolved defaults: the paper design point plus the run settings.
# Every key a config file may set appears here, so the resolved echo never
# hides a default.
DEFAULTS: dict[str, Any] = {
    **DESIGN,
    "f_target": 0.95,
    "constraints": list(DEFAULT_CONSTRAINTS),
    "mc": _jsonable(McConfig()),
    "sweep": {
        "kind": "pdr",
        "axis": None,       # optional [start, stop, num, spacing] override
        "second_axis": None,
        "with_mc": False,
    },
}


def _deep_merge(base: dict, extra: dict, path: str = "") -> dict:
    """base with extra's values written over it, key by key. A mapping merges
    into the mapping it replaces; where base holds a scalar it merges into
    nothing, so its first key is unknown. A scalar never replaces a mapping."""
    out = dict(base)
    for key, val in extra.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {here}")
        if isinstance(val, dict):
            below = base[key] if isinstance(base[key], dict) else {}
            out[key] = _deep_merge(below, val, here)
        elif isinstance(base[key], dict):
            raise ConfigError(f"config key {here} takes a mapping, got {val!r}")
        else:
            out[key] = val
    return out


def _parse_override(expr: str) -> dict[str, Any]:
    """'a.b=v' as {"a": {"b": v}}; v is read as JSON, else kept as text."""
    if "=" not in expr:
        raise ConfigError(f"override must look like key=value, got {expr!r}")
    import json

    key, raw = expr.split("=", 1)
    try:
        val = json.loads(raw)
    except json.JSONDecodeError:
        val = raw
    for k in reversed(key.strip().split(".")):
        val = {k: val}
    return val


class RunConfig(Value):
    """Validated, fully-resolved configuration for one CLI run; axes are
    the sweep kind's axes with sweep.axis and sweep.second_axis applied. It
    holds dicts, so it cannot be hashed."""

    def __init__(self, raw: dict[str, Any], cavity: CavityParams, pdr: PdrParams,
                 polarizer: PolarizerParams, link: LinkParams, timing: ProtocolTiming,
                 r_cav_h: complex, f_target: float, constraints: tuple[float, ...],
                 mc: McConfig, sweep: dict[str, Any], axes: tuple[SweepAxis, ...]) -> None:
        self.__dict__.update(raw=raw, cavity=cavity, pdr=pdr, polarizer=polarizer, link=link,
                             timing=timing, r_cav_h=r_cav_h, f_target=f_target,
                             constraints=constraints, mc=mc, sweep=sweep, axes=axes)

    @property
    def config_hash(self) -> str:
        import json

        return sha256(json.dumps(self.raw, sort_keys=True).encode()).hexdigest()[:16]

    def echo_json(self) -> str:
        import json

        return json.dumps({"config": self.raw, "config_hash": self.config_hash},
                          indent=2, sort_keys=True)


def _axis_from(spec: list | None, default: SweepAxis) -> SweepAxis:
    if spec is None:
        return default
    if not (isinstance(spec, list) and len(spec) in (3, 4)):
        raise ConfigError(
            f"sweep axis must be [start, stop, num] or [start, stop, num, spacing], "
            f"got {spec!r}")
    start, stop, num, *rest = spec
    spacing = rest[0] if rest else default.spacing
    try:
        return SweepAxis(default.path, start, stop, num, spacing)
    except ValidationError as exc:
        raise ConfigError(f"sweep axis {spec!r}: {exc}") from exc


def _build(raw: dict[str, Any]) -> RunConfig:
    try:
        # a text would fail below with a bare TypeError, a bool pass as 0 or 1
        for section in ("cavity", "pdr", "polarizer", "link", "timing"):
            for key, v in raw[section].items():
                if type(v) not in _NUMBERS and not (v is None and key == "xi"):  # link.xi
                    raise ConfigError(f"{section}.{key} must be a number, got {v!r}")
        cavity = CavityParams(**raw["cavity"])
        pdr = PdrParams.from_power(**raw["pdr"])
        polarizer = PolarizerParams(**raw["polarizer"])
        link = LinkParams(**raw["link"])
        timing = ProtocolTiming(**raw["timing"])
        f_target, constraints = raw["f_target"], raw["constraints"]
        if not (isinstance(constraints, list) and constraints):
            raise ConfigError(
                f"constraints must be a non-empty list of numbers, got {constraints!r}")
        for name, v in (("f_target", f_target), *(("constraint", c) for c in constraints)):
            if type(v) not in _NUMBERS:
                raise ConfigError(f"{name} must be a number, got {v!r}")
            if not 0 <= v <= 1:
                raise ConfigError(f"{name} out of [0,1]: {v}")
        mc = McConfig(**raw["mc"])
    except (ValidationError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    with_mc = raw["sweep"]["with_mc"]
    if not isinstance(with_mc, bool):
        raise ConfigError(f"sweep.with_mc must be true or false, got {with_mc!r}")
    re_im = raw["r_cav_h"]
    if not (isinstance(re_im, list) and len(re_im) == 2):
        raise ConfigError("r_cav_h must be a [re, im] pair")
    if not all(type(v) in _NUMBERS and math.isfinite(v) for v in re_im):
        raise ConfigError(f"r_cav_h must hold two finite numbers, got {re_im!r}")
    r_cav_h = complex(re_im[0], re_im[1])
    if abs(r_cav_h) > 1 + POWER_TOL:
        raise ConfigError(f"r_cav_h must be passive, but |r_cav_h| = {abs(r_cav_h)} exceeds 1")
    kind, sweep = raw["sweep"]["kind"], raw["sweep"]
    if not (isinstance(kind, str) and kind in SWEEP_KINDS):
        raise ConfigError(f"unknown sweep kind: {kind}")
    defaults = SWEEP_KINDS[kind]
    # refuse a setting this kind would not read, which still changes the hash
    if len(defaults) == 1 and sweep["second_axis"] is not None:
        raise ConfigError(f"sweep.second_axis applies only to the pdr sweep, not {kind}")
    axes = tuple(_axis_from(spec, default)
                 for spec, default in zip((sweep["axis"], sweep["second_axis"]), defaults))
    return RunConfig(
        raw=raw,
        cavity=cavity,
        pdr=pdr,
        polarizer=polarizer,
        link=link,
        timing=timing,
        r_cav_h=r_cav_h,
        f_target=f_target,
        constraints=tuple(constraints),
        mc=mc,
        sweep=dict(sweep),
        axes=axes,
    )


def load_config(
    path: str | Path | None = None,
    overrides: list[str] | None = None,
) -> RunConfig:
    """Resolve DEFAULTS -> config file -> --set overrides, then validate.

    The file may be empty or contain a partial JSON object; it and each
    override are merged the same way, and unknown keys are rejected with
    their full dotted path.
    """
    # a copy one container level down is deep: DEFAULTS nests no deeper
    raw = {key: type(val)(val) if isinstance(val, (dict, list)) else val
           for key, val in DEFAULTS.items()}
    if path is not None:
        text = Path(path).read_text()
        if text.strip():
            import json

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
        raw = _deep_merge(raw, _parse_override(expr))
    return _build(raw)
