"""Independent numpy reference for the heralded device fidelity.

Written from the model's equations rather than from polspin's code, and
vectorized over any broadcastable parameter arrays:

- input-output cavity reflection r = 1 - kappa_wg / (kappa/2 + i delta_c
  + g^2 / (gamma/2 + i delta_a)), with kappa = gamma = 1 and g^2 = C/4;
- the reflector-cavity etalon r + r_cav t^2 / (1 - r_cav r), the transmitted
  power t^2 scaled by the polarizer pass efficiency;
- the half-wave plate H -> (H + V)/sqrt2, V -> (V - H)/sqrt2 after reflection
  off the device with the spin in (|down> + |up>)/sqrt2;
- the Hadamard correction for the H outcome and Hadamard plus a phase flip
  for the V outcome;
- the four cardinal inputs x+, x-, y+, y-.

The heralded fidelity of one input is sum_o |<target|C_o psi_o>|^2 over
sum_o ||psi_o||^2, with psi_o the unnormalized spin branch of outcome o and
C_o its correction. Cells where a reflector complement is negative or some
|r_eff| exceeds 1 (a non-passive etalon) are NaN and flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# |r_eff| may exceed 1 by this much before a cell counts as non-passive; it
# matches the tolerance of the model's own passivity check.
PASSIVITY_TOL = 1e-9
COMPLEMENT_TOL = 1e-12

_S = 1.0 / np.sqrt(2.0)
CARDINAL_INPUTS = ((_S, _S), (_S, -_S), (_S, 1j * _S), (_S, -1j * _S))


@dataclass(frozen=True)
class Design:
    """The paper's design point as plain numbers shared by this
    reference and the oracle (the config preset must resolve to exactly
    these; the workloads check that)."""

    T_V: float = 0.99
    R_H: float = 0.15
    zeta_V: float = 0.0
    zeta_H: float = 0.0
    eta_pol_V: float = 0.989
    eta_pol_H: float = 0.128
    eta_det: float = 0.936
    r_cav_V_avg: float = 0.356
    r_cav_H: float = 0.921
    coupling: float = 0.73
    cooperativity: float = 4.0
    tau_reset: float = 30e-6
    tau_pulse: float = 1.0 / 5.81e6


DESIGN = Design()


def cavity_reflection(coupling, cooperativity, coupled=True,
                      delta_c=0.0, delta_a=0.0):
    """Field reflection of a single-sided cavity with kappa = gamma = 1."""
    g_sq = np.asarray(cooperativity, dtype=float) / 4.0 if coupled else 0.0
    return 1.0 - coupling / (0.5 + 1j * delta_c + g_sq / (0.5 + 1j * delta_a))


def etalon(r_pdr, t_sq, r_cav):
    return r_pdr + r_cav * t_sq / (1.0 - r_cav * r_pdr)


def fidelity_from_reflections(r_H_on, r_H_off, r_V_on, r_V_off):
    """Four-input average heralded fidelity for the given round-trip
    coefficients (on = spin couples to the cavity)."""
    total = 0.0
    for a, b in CARDINAL_INPUTS:
        # branch amplitudes on (spin down, spin up) for each detector outcome
        h_d, h_u = (a * r_H_on - b * r_V_on) / 2, (a * r_H_off - b * r_V_off) / 2
        v_d, v_u = (a * r_H_on + b * r_V_on) / 2, (a * r_H_off + b * r_V_off) / 2
        # corrections: Hadamard for H, Hadamard then Z for V
        hc_d, hc_u = (h_d + h_u) * _S, (h_d - h_u) * _S
        vc_d, vc_u = (v_d + v_u) * _S, -(v_d - v_u) * _S
        ca, cb = np.conj(a), np.conj(b)
        heralded = (np.abs(ca * hc_d + cb * hc_u) ** 2
                    + np.abs(ca * vc_d + cb * vc_u) ** 2)
        norm = (np.abs(h_d) ** 2 + np.abs(h_u) ** 2
                + np.abs(v_d) ** 2 + np.abs(v_u) ** 2)
        total = total + heralded / norm
    return total / len(CARDINAL_INPUTS)


def device_fidelity(T_V, R_H, coupling, cooperativity, eta_pol_V, eta_pol_H,
                    r_cav_h, zeta_V=0.0, zeta_H=0.0):
    """Fidelity over broadcast design arrays.

    Returns (fidelity, invalid): fidelity is NaN where invalid is true, that
    is where R_V = 1 - T_V - zeta_V or T_H = 1 - R_H - zeta_H is negative, or
    where the etalon is non-passive.
    """
    T_V, R_H, coupling, cooperativity = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (T_V, R_H, coupling, cooperativity)))
    R_V = 1.0 - T_V - zeta_V
    T_H = 1.0 - R_H - zeta_H
    bad_complement = (R_V < -COMPLEMENT_TOL) | (T_H < -COMPLEMENT_TOL)
    r_V = -np.sqrt(np.maximum(R_V, 0.0))
    r_H = -np.sqrt(R_H)
    r_H_eff = etalon(r_H, np.maximum(T_H, 0.0) * eta_pol_H, r_cav_h)
    r_V_on = etalon(r_V, T_V * eta_pol_V,
                    cavity_reflection(coupling, cooperativity, coupled=True))
    r_V_off = etalon(r_V, T_V * eta_pol_V,
                     cavity_reflection(coupling, cooperativity, coupled=False))
    non_passive = np.zeros(T_V.shape, dtype=bool)
    for r in (r_H_eff, r_V_on, r_V_off):
        non_passive |= np.abs(r) > 1.0 + PASSIVITY_TOL
    invalid = bad_complement | non_passive
    fid = fidelity_from_reflections(r_H_eff, r_H_eff, r_V_on, r_V_off)
    return np.where(invalid, np.nan, fid), invalid


def mean_v_reflectance(coupling, cooperativity):
    """(|r_on|^2 + |r_off|^2)/2, the spin-averaged V cavity reflectance."""
    return (np.abs(cavity_reflection(coupling, cooperativity, True)) ** 2
            + np.abs(cavity_reflection(coupling, cooperativity, False)) ** 2) / 2


def mismatches(values, ref, tol=1e-12):
    """Indices where values and ref disagree: NaN in one but not the other,
    or an absolute difference above tol."""
    values, ref = np.asarray(values, dtype=float), np.asarray(ref, dtype=float)
    nan_v, nan_r = np.isnan(values), np.isnan(ref)
    with np.errstate(invalid="ignore"):
        far = np.abs(values - ref) > tol
    return np.argwhere((nan_v != nan_r) | (far & ~nan_v & ~nan_r))
