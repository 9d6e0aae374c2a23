"""Command-line entry point and result serialization.

Commands: fidelity, rate, sweep, montecarlo, diagnose. Results are written
as CSV (long format, one row per cell) or JSON (with a full metadata block);
every artifact embeds the resolved-config hash and the resolved config is
echoed to stdout so no default stays silent.

Exit codes: 0 success, 2 validation, 3 infeasible constraint, 4 IO,
5 numerical failure (search cap reached, opaque device, no detection, out of
memory).

device and json load with this module; rate only in the commands that
compute a rate, and numpy, montecarlo and sweep only in those that need arrays.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator

from .config import ConfigError, RunConfig, _jsonable, load_config
from .device import (
    FidelityReport,
    OpaqueDeviceError,
    effective_reflections,
    loss_balance_residual,
    transfer_fidelity,
)
from .params import InfeasibleConstraintError, NoDetectionError, ValidationError

if TYPE_CHECKING:
    from .rate import RateResult
    from .sweep import SweepResult

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4
EXIT_NUMERICAL = 5

# Cells converted to Python values at a time when a sweep is written out.
_ROW_BLOCK = 4096


class NumericalFailure(RuntimeError):
    pass


def _row_of(result: Any) -> dict[str, Any]:
    """A result other than a sweep as its one row, {column: Python value}: a
    numpy scalar's repr under numpy 2, 'np.float64(0.5)', no CSV reader
    parses back."""
    if isinstance(result, FidelityReport):
        result = {"f_avg": result.f_avg,
                  **{f"fidelity_{label}": fid for label, fid in result.per_input}}
    row = _jsonable(result)
    if isinstance(row, dict):
        return row
    raise TypeError(f"cannot tabulate {type(result)!r}")


def _blocks(result: SweepResult | dict, cell: Callable[[list], list]) -> Iterator[list[list]]:
    """A sweep's columns (axes, value, extra columns) a block of _ROW_BLOCK
    flat cells at a time, each as cell(Python values); every axis value goes
    through cell once, however many cells share it. A row is one block."""
    if isinstance(result, dict):
        yield [[v] for v in cell(list(result.values()))]
        return
    import numpy as np

    size, shape = result.values.size, result.values.shape
    axes = [np.array(cell(vals.tolist()), dtype=object) for _, vals in result.axes]
    columns = [result.values.ravel(), *(col.ravel() for col in result.columns.values())]
    for start in range(0, size, _ROW_BLOCK):
        cells = np.unravel_index(np.arange(start, min(start + _ROW_BLOCK, size)), shape)
        yield ([axis[i].tolist() for axis, i in zip(axes, cells)]
               + [cell(col[start:start + _ROW_BLOCK].tolist()) for col in columns])


def _texts(values: list) -> list[str]:
    # what csv.writer writes: repr for a float, which str is, and str otherwise
    return list(map(str, values))


def write_table(result: Any, fmt: str, path: str | Path, config_hash: str,
                metadata: dict[str, Any] | None = None) -> None:
    """Serialize a result to CSV (header row, '.' decimal, newline-terminated
    rows, floats at full precision with NaN as 'nan') or JSON (full
    metadata block, round-trippable at full precision). A sweep is one row
    per cell, written a block of cells at a time; any other result one row."""
    path = Path(path)
    sweep = sys.modules.get("polspin.sweep")  # a SweepResult exists only once it loads
    if sweep is not None and isinstance(result, sweep.SweepResult):
        header = [name for name, _ in result.axes] + [result.quantity] + list(result.columns)
        metadata = {**result.metadata, **(metadata or {})}
    else:
        result = _row_of(result)
        header = list(result)
    header.append("config_hash")
    if fmt == "csv":
        # no field (a column name, a decimal, nan or inf text, True, False or
        # the hex config hash) needs CSV quoting, so rows are joined
        tail = f",{config_hash}\n"
        with path.open("w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for block in _blocks(result, _texts):
                fh.write(tail.join(map(",".join, zip(*block))) + tail)
    elif fmt == "json":
        # the rows hold Python values already (tolist or _jsonable made them)
        payload = {
            "config_hash": config_hash,
            "metadata": _jsonable(metadata or {}),
            "columns": header,
            "rows": [[*fields, config_hash] for block in _blocks(result, list)
                     for fields in zip(*block)],
        }
        path.write_text(json.dumps(payload, indent=2) + "\n")
    else:
        raise ConfigError(f"unknown output format: {fmt!r}")


def _cmd_fidelity(cfg: RunConfig, out: Path, fmt: str) -> None:
    report = transfer_fidelity(cfg.pdr, cfg.polarizer, cfg.cavity,
                               r_cav_h=cfg.r_cav_h)
    write_table(report, fmt, out, cfg.config_hash)


def _rate(cfg: RunConfig) -> RateResult:
    """The analytic rate of the configured run, the one n_max pipeline of
    the rate and montecarlo commands; a constraint that still holds at the
    attempt cap (2**53, about 157 dB of loss at the design point) is a
    failure."""
    from .rate import ATTEMPT_SEARCH_CAP, transfer_rate

    res = transfer_rate(cfg.pdr, cfg.polarizer, cfg.cavity, cfg.link,
                        cfg.timing, cfg.f_target, r_cav_h=cfg.r_cav_h)
    if res.cap_reached:
        raise NumericalFailure(
            f"constraint still holds at the attempt cap {ATTEMPT_SEARCH_CAP}")
    return res


def _cmd_rate(cfg: RunConfig, out: Path, fmt: str) -> None:
    write_table(_rate(cfg), fmt, out, cfg.config_hash)


def _cmd_sweep(cfg: RunConfig, out: Path, fmt: str) -> None:
    from .sweep import sweep_fidelity_cavity, sweep_fidelity_pdr, sweep_rate_vs_loss

    kind, sweep, axes = cfg.sweep["kind"], cfg.sweep, cfg.axes
    # refuse a setting this kind would not read, which still changes the hash
    if kind != "rate_vs_loss" and sweep["with_mc"]:
        raise ConfigError(f"sweep.with_mc applies only to rate_vs_loss, not {kind}")
    if kind == "pdr":
        # the configured losses, not those recomputed from cfg.pdr's amplitudes
        pdr = cfg.raw["pdr"]
        results = {out: sweep_fidelity_pdr(
            *axes, cfg.cavity, cfg.polarizer, zeta_V=pdr["zeta_V"], zeta_H=pdr["zeta_H"],
            r_cav_h=cfg.r_cav_h, reflection_sign=pdr["reflection_sign"])}
    elif kind == "rate_vs_loss":
        names = [f"{out.stem}_f{round(f * 100):02d}{out.suffix}" for f in cfg.constraints]
        if len(set(names)) < len(names):  # refuse before a later file overwrites one
            raise ConfigError(f"constraints {list(cfg.constraints)} would share output "
                              f"files: {', '.join(names)}")
        curves = sweep_rate_vs_loss(
            *axes, cfg.pdr, cfg.polarizer, cfg.cavity, cfg.link, cfg.timing,
            constraints=cfg.constraints,
            mc=cfg.mc if sweep["with_mc"] else None, r_cav_h=cfg.r_cav_h)
        if out.name in ("", ".."):  # with_name raises on "" and replaces ".."
            raise IsADirectoryError(f"output path {str(out)!r} names no file")
        results = {out.with_name(name): res for name, res in zip(names, curves.values())}
    else:
        which = "cooperativity" if kind == "cavity_c" else "coupling"
        results = {out: sweep_fidelity_cavity(*axes, cfg.pdr, cfg.polarizer, cfg.cavity,
                                              which=which, r_cav_h=cfg.r_cav_h)}
    for path, res in results.items():
        write_table(res, fmt, path, cfg.config_hash)


def _cmd_montecarlo(cfg: RunConfig, out: Path, fmt: str) -> None:
    from .montecarlo import simulate_rate
    from .rate import attempt_probabilities

    res = _rate(cfg)
    probs = attempt_probabilities(cfg.pdr, cfg.polarizer, cfg.link)
    est = simulate_rate(probs, res.n_max, cfg.timing, cfg.mc)
    write_table(est, fmt, out, cfg.config_hash,
                metadata={"n_max": res.n_max, "unbounded": res.unbounded})


def _cmd_diagnose(cfg: RunConfig, out: Path, fmt: str) -> None:
    from .rate import attempt_probabilities

    eff = effective_reflections(cfg.pdr, cfg.polarizer, cfg.cavity,
                                r_cav_h=cfg.r_cav_h)
    probs = attempt_probabilities(cfg.pdr, cfg.polarizer, cfg.link)
    row = {
        "loss_balance_residual": loss_balance_residual(eff),
        "p_det": probs.p_det,
        "p_lost": probs.p_lost,
        "p_e_canonical": probs.p_e,
    }
    write_table(row, fmt, out, cfg.config_hash)


_COMMANDS = {
    "fidelity": _cmd_fidelity,
    "rate": _cmd_rate,
    "sweep": _cmd_sweep,
    "montecarlo": _cmd_montecarlo,
    "diagnose": _cmd_diagnose,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polspin",
        description="Heralded photon-to-spin transfer: fidelity and rate modeling")
    parser.add_argument("--command", required=True, choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="dotted-path override, repeatable")
    parser.add_argument("--out", default="result.csv", help="output path")
    parser.add_argument("--format", default="csv", choices=["csv", "json"])
    parser.add_argument("--seed", type=int, default=None, help="Monte Carlo seed")
    parser.add_argument("--trials", type=int, default=None,
                        help="Monte Carlo trial count")
    return parser


def _failure(code: int, kind: str, exc: Exception) -> int:
    print(json.dumps({"error": kind, "detail": str(exc)}), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"mc.seed={args.seed}")
    if args.trials is not None:
        overrides.append(f"mc.trials={args.trials}")
    try:
        cfg = load_config(args.config, overrides)
        print(cfg.echo_json())
        _COMMANDS[args.command](cfg, Path(args.out), args.format)
    except InfeasibleConstraintError as exc:
        return _failure(EXIT_INFEASIBLE, "infeasible", exc)
    except (ConfigError, ValidationError) as exc:
        return _failure(EXIT_VALIDATION, "validation", exc)
    except (NumericalFailure, OpaqueDeviceError, NoDetectionError, MemoryError) as exc:
        return _failure(EXIT_NUMERICAL, "numerical", exc)
    except OSError as exc:
        return _failure(EXIT_IO, "io", exc)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
