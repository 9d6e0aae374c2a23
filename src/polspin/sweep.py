"""Grid evaluation over device and link parameters.

Produces structured result tables for the fidelity maps (reflector power
coefficients, cooperativity, waveguide coupling) and the rate-versus-loss
curve family with the repeaterless bound and optional Monte Carlo estimates.
The fidelity maps evaluate their grids through the device kernel
(polspin.device.fidelity_kernel) on device stand-ins whose varied fields
are arrays, one axis's broadcast against the other's, in blocks of whole
grid rows; a cell is NaN exactly where the scalar transfer_fidelity path
would reject it, and the reason is counted in metadata["nan_reasons"].
Each cell depends on its own inputs alone, not on the blocks.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

# re-exported: the axis type and defaults live in params and config, which load no numpy
from .config import (DEFAULT_CONSTRAINTS, SWEEP_KINDS, _jsonable, default_cooperativity_axis,
                     default_coupling_axis, default_loss_axis, default_pdr_axes)
from .device import OpaqueDeviceError, fidelity_kernel, transfer_fidelity
from .montecarlo import simulate_rate
from .params import (
    DESIGN_R_CAV_H,
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
from .rate import attempt_probabilities, rate_curves

# Cells per device-kernel evaluation in the fidelity sweeps: whole-grid
# temporaries would grow peak memory with the grid, blocks keep it flat.
_BLOCK_CELLS = 4096
# Why a fidelity cell is NaN, in the order the checks run; the first
# failing check names the cell. SweepResult.metadata["nan_reasons"] counts
# the cells per reason.
NAN_REASONS = ("pdr_range", "pdr_complement", "pdr_power_sum", "cavity_range",
               "degenerate_etalon", "non_passive_etalon")


class SweepResult(Value):
    """Axis grids, a value matrix, and full provenance metadata.

    values has shape (len(axes[0]), ...) matching the axis order; NaN marks
    infeasible cells. Extra per-cell quantities live in columns, keyed by
    name with the same shape as values. metadata and columns default to
    new empty dicts.
    """

    def __init__(self, axes: list[tuple[str, np.ndarray]], values: np.ndarray, quantity: str,
                 metadata: dict[str, Any] | None = None,
                 columns: dict[str, np.ndarray] | None = None) -> None:
        metadata = {} if metadata is None else metadata
        columns = {} if columns is None else columns
        shape = tuple(len(v) for _, v in axes)
        if values.shape != shape:
            raise ValidationError(f"values shape {values.shape} does not match axes {shape}")
        for name, col in columns.items():
            if col.shape != shape:
                raise ValidationError(f"column {name} shape mismatch")
        self.__dict__.update(axes=axes, values=values, quantity=quantity, metadata=metadata,
                             columns=columns)


def _fidelity_cells(inputs: Callable, checks: list[tuple]) -> tuple[np.ndarray, dict[str, int]]:
    """Average fidelity over a grid through the device kernel, and the NaN
    count per reason.

    inputs(i, j) gives the kernel's (pdr, polarizer, cavity, r_cav_h) for
    grid rows i and columns j, a field varying along the first axis as
    v[i, None] and along the second as v[None, j]; the kernel broadcasts
    them, so what depends on one axis is computed once per value of it.
    checks are (reason, column mask, row mask) triples, whose masks give the
    grid's shape, in the order the scalar constructors make them; a cell
    fails one where its grid row or grid column does. A cell is NaN exactly
    where the scalar path raises ValidationError, counted under the first
    reason that rejects it. Blocks of whole grid rows, at most _BLOCK_CELLS
    cells each and a longer row in parts, keep the temporaries small.
    """
    n_rows, n_cols = len(checks[0][1]), len(checks[0][2])
    values = np.empty((n_rows, n_cols))
    reasons = dict.fromkeys(NAN_REASONS, 0)
    step_c = min(n_cols, _BLOCK_CELLS)
    step_r = _BLOCK_CELLS // step_c
    for r0 in range(0, n_rows, step_r):
        i = slice(r0, r0 + step_r)
        for c0 in range(0, n_cols, step_c):
            j = slice(c0, c0 + step_c)
            # NaN inputs give NaN cells, silently, as on the scalar path
            with np.errstate(invalid="ignore"):
                k = fidelity_kernel(*inputs(i, j))
            failed = [(reason, in_column[i, None] | in_row[None, j])
                      for reason, in_column, in_row in checks]
            rejected = np.zeros(values[i, j].shape, dtype=bool)
            for reason, bad in failed + [("degenerate_etalon", k.degenerate),
                                         ("non_passive_etalon", k.non_passive)]:
                reasons[reason] += int(np.count_nonzero(bad & ~rejected))
                rejected |= bad
            if np.any(k.opaque & ~rejected):
                raise OpaqueDeviceError("device opaque for some input")
            values[i, j] = np.where(rejected, np.nan, k.f_avg)
    return values, reasons


def _grid(axis: SweepAxis, path: str) -> np.ndarray:
    """The values of an axis that must vary the quantity at path."""
    if axis.path != path:
        raise ValidationError(f"axis {axis.path} cannot be swept as {path}")
    return axis.values()


def sweep_fidelity_pdr(
    tv_axis: SweepAxis,
    rh_axis: SweepAxis,
    cavity: CavityParams,
    polarizer: PolarizerParams,
    zeta_V: float = 0.0,
    zeta_H: float = 0.0,
    r_cav_h: complex = DESIGN_R_CAV_H,
    reflection_sign: float = -1.0,
) -> SweepResult:
    """Average fidelity over a (T_V, R_H) grid at fixed cavity parameters.

    Per cell, R_V = 1 - T_V - zeta_V and T_H = 1 - R_H - zeta_H, with real
    field coefficients as PdrParams.from_power builds them; cells that
    constructor or transfer_fidelity would reject are NaN, not fatal. A
    reflection_sign other than +1 or -1, or axes other than pdr.T_V and
    pdr.R_H, are rejected before any cell.
    """
    if reflection_sign not in (1, -1):
        raise ValidationError(f"reflection_sign must be +1 or -1, got {reflection_sign}")
    tv = _grid(tv_axis, "pdr.T_V")
    rh = _grid(rh_axis, "pdr.R_H")
    # PdrParams.from_power and its checks: V once per T_V, H once per R_H
    R_V = 1.0 - tv - zeta_V
    T_H = 1.0 - rh - zeta_H
    t_H = np.sqrt(np.maximum(T_H, 0.0))
    r_H = reflection_sign * np.sqrt(np.maximum(rh, 0.0))
    t_V = np.sqrt(np.maximum(tv, 0.0))
    r_V = reflection_sign * np.sqrt(np.maximum(R_V, 0.0))
    limit = 1.0 + POWER_TOL
    checks = [
        ("pdr_range", ~((0 <= tv) & (tv <= 1)), ~((0 <= rh) & (rh <= 1))),
        ("pdr_complement", ~(R_V >= -POWER_TOL), ~(T_H >= -POWER_TOL)),
        ("pdr_power_sum", ~(t_V**2 + r_V**2 <= limit), ~(t_H**2 + r_H**2 <= limit)),
    ]
    values, reasons = _fidelity_cells(
        lambda i, j: (SimpleNamespace(t_H=t_H[None, j], r_H=r_H[None, j], t_V=t_V[i, None],
                                      r_V=r_V[i, None]), polarizer, cavity, r_cav_h), checks)
    return SweepResult(
        axes=[(tv_axis.path, tv), (rh_axis.path, rh)],
        values=values,
        quantity="fidelity",
        metadata=_jsonable(dict(
            cavity=cavity, polarizer=polarizer, zeta_V=zeta_V, zeta_H=zeta_H,
            r_cav_h=r_cav_h, reflection_sign=reflection_sign, nan_reasons=reasons)),
    )


def sweep_fidelity_cavity(
    axis: SweepAxis,
    pdr: PdrParams,
    polarizer: PolarizerParams,
    base_cavity: CavityParams,
    which: str = "cooperativity",
    r_cav_h: complex = DESIGN_R_CAV_H,
) -> SweepResult:
    """Average fidelity along a cooperativity or waveguide-coupling axis,
    holding the reflector design and the rest of the base cavity fixed.

    A cooperativity C sets g = sqrt(C kappa gamma / 4); a coupling ratio x
    sets kappa_wg = x kappa. kappa, gamma and both detunings stay those of
    base_cavity. Cells outside C >= 0 or kappa_wg in [0, kappa] are NaN.
    The axis must be cavity.cooperativity or cavity.coupling_ratio, as which
    says.
    """
    paths = {"cooperativity": "cavity.cooperativity", "coupling": "cavity.coupling_ratio"}
    if which not in paths:
        raise ValidationError(f"unknown cavity sweep target: {which}")
    xs = _grid(axis, paths[which])
    cav = base_cavity
    # one grid row: the axis varies along the grid's columns
    if which == "cooperativity":
        field, varied = "g", np.sqrt(np.maximum(xs, 0.0) * cav.kappa * cav.gamma / 4.0)
        bad = ~(xs >= 0)
    else:
        field, varied = "kappa_wg", xs * cav.kappa
        bad = ~((0 <= varied) & (varied <= cav.kappa))
    values, reasons = _fidelity_cells(
        lambda i, j: (pdr, polarizer, SimpleNamespace(**{**vars(cav), field: varied[None, j]}),
                      r_cav_h),
        [("cavity_range", np.zeros(1, dtype=bool), bad)])
    return SweepResult(
        axes=[(axis.path, xs)],
        values=values[0],
        quantity="fidelity",
        metadata=_jsonable(dict(
            pdr=pdr, polarizer=polarizer, base_cavity=base_cavity, which=which,
            r_cav_h=r_cav_h, nan_reasons=reasons)),
    )


def sweep_rate_vs_loss(
    loss_axis: SweepAxis,
    pdr: PdrParams,
    polarizer: PolarizerParams,
    cavity: CavityParams,
    link_template: LinkParams,
    timing: ProtocolTiming,
    constraints: tuple[float, ...] = DEFAULT_CONSTRAINTS,
    mc: McConfig | None = None,
    r_cav_h: complex = DESIGN_R_CAV_H,
) -> dict[float, SweepResult]:
    """Analytic rate (and optional Monte Carlo estimate) versus link loss in
    dB, one result per fidelity constraint, each carrying the repeaterless
    bound, n_max, and regime columns.

    Every constraint's whole loss axis goes through rate.rate_curves in one
    call, which computes each cell as transfer_rate does on link_template
    at that loss, f0 included. A cell is NaN where the constraint exceeds
    the device fidelity f0 ("infeasible_target") or still holds at
    rate.ATTEMPT_SEARCH_CAP attempts ("attempt_cap"), counted per reason in
    metadata["nan_reasons"]; an unbounded cell keeps n_max =
    ATTEMPT_SEARCH_CAP, as transfer_rate reports it. A loss below 0 dB
    (eta_link > 1) is refused with ValidationError. The Monte Carlo columns
    run one simulate_rate per cell with a finite n_max. The metadata
    carries the f0 that every cell shares.
    """
    loss_db = loss_axis.values()
    eta = 10.0 ** (-loss_db / 10.0)
    f0 = transfer_fidelity(pdr, polarizer, cavity, r_cav_h=r_cav_h).f_avg
    curves = rate_curves(pdr, polarizer, link_template, timing, eta, f0, constraints)
    # the metadata all constraints share, converted once, in the JSON's key order
    head = _jsonable(dict(pdr=pdr, polarizer=polarizer, cavity=cavity,
                          link=link_template, timing=timing))
    tail = _jsonable(dict(f0=f0, mc=mc, r_cav_h=r_cav_h))
    results: dict[float, SweepResult] = {}
    for i, f_target in enumerate(constraints):
        columns = {"bound": curves.bound, "n_max": curves.n_max[i],
                   "regime": curves.regime[i]}
        if mc is not None:
            columns["mc_rate"], columns["mc_std_error"] = _mc_columns(
                mc, curves.n_max[i], eta, pdr, polarizer, link_template, timing)
        reasons = {"infeasible_target": int(np.count_nonzero(curves.infeasible[i])),
                   "attempt_cap": int(np.count_nonzero(curves.cap_reached[i]))}
        results[f_target] = SweepResult(
            axes=[(loss_axis.path, loss_db)],
            values=curves.rate[i],
            quantity="rate",
            metadata={**head, "f_target": _jsonable(f_target), **tail, "nan_reasons": reasons},
            columns=columns,
        )
    return results


def _mc_columns(mc: McConfig, n_max: np.ndarray, eta: np.ndarray, pdr: PdrParams,
                polarizer: PolarizerParams, link_template: LinkParams,
                timing: ProtocolTiming) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo rate and standard error at each loss point with a finite
    n_max, one seed per point (mc.seed + index); NaN elsewhere."""
    mc_rate = np.full(eta.size, np.nan)
    mc_se = np.full(eta.size, np.nan)
    for i in np.flatnonzero(np.isfinite(n_max)):
        link = link_template.replace(eta_link=float(eta[i]))
        est = simulate_rate(attempt_probabilities(pdr, polarizer, link), int(n_max[i]),
                            timing, mc.replace(seed=mc.seed + int(i)))
        mc_rate[i] = est.mean_rate
        mc_se[i] = est.std_error
    return mc_rate, mc_se
