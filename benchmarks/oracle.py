"""60-digit mpmath oracle for the protocol's rate side.

It recomputes, from the design numbers alone, the per-attempt partition
(detected, lost before the spin, unheralded error), the sequence error
probability p_err(n), the protocol fidelity, the expected time per
transferred qubit and the rate. At 60 digits p_e = 1 - p_det - p_lost keeps
about 45 correct digits even at 150 dB, so the oracle does not share the
cancellation that double precision suffers at high loss.

The expected time comes from Wald's identity rather than from the model's
closed form: a trial is a geometric number of sequences (success
probability p_s), each costing tau_reset plus tau_slot times its mean length
p_s/p_det, so E[T] = tau_reset/p_s + tau_slot/p_det.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath

from reference import DESIGN, Design

DPS = 60
BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class Partition:
    p_det: mpmath.mpf
    p_lost: mpmath.mpf
    p_e: mpmath.mpf


def _m(x) -> mpmath.mpf:
    # binary doubles convert exactly, so the oracle sees the model's inputs
    return mpmath.mpf(x)


@mpmath.workdps(DPS)
def partition(eta_link, d: Design = DESIGN) -> Partition:
    """Per-attempt outcome probabilities averaged over H and V inputs.

    A click needs a polarizer-cavity round trip or a direct reflection off
    the reflector. Loss without error is link loss, reflector scatter,
    polarizer absorption and H light that leaves the cavity without
    reaching the spin; with xi at its worst case 1 - r_cav_H that last term
    is zero. Everything else is an unheralded error.
    """
    eta = _m(eta_link)
    T_V, R_H = _m(d.T_V), _m(d.R_H)
    R_V, T_H = 1 - T_V - _m(d.zeta_V), 1 - R_H - _m(d.zeta_H)
    ev, eh = _m(d.eta_pol_V), _m(d.eta_pol_H)
    rv, rh = _m(d.r_cav_V_avg), _m(d.r_cav_H)
    xi = 1 - rh
    p_det = eta / 2 * (T_V**2 * ev**2 * rv + R_V + T_H**2 * eh**2 * rh + R_H) * _m(d.eta_det)
    p_lost = (1 - eta) + eta / 2 * (
        _m(d.zeta_V) + _m(d.zeta_H) + T_V * (1 - ev) + T_H * (1 - eh)
        + T_H * eh * (1 - rh - xi))
    return Partition(p_det, p_lost, 1 - p_det - p_lost)


@mpmath.workdps(DPS)
def sequence_error(n, part: Partition) -> mpmath.mpf:
    """P(click within n attempts and an unheralded error before it):
    P(click within n) minus P(click at m with only clean losses before)."""
    n = _m(n)
    pd, pl = part.p_det, part.p_lost
    return 1 - (1 - pd) ** n - pd * (1 - pl**n) / (1 - pl)


@mpmath.workdps(DPS)
def protocol_fidelity(n, part: Partition, f0) -> mpmath.mpf:
    p = sequence_error(n, part)
    return (1 - p) * _m(f0) + p / 2


@mpmath.workdps(DPS)
def success_probability(n, part: Partition) -> mpmath.mpf:
    return 1 - (1 - part.p_det) ** _m(n)


@mpmath.workdps(DPS)
def conditional_error(n, part: Partition) -> mpmath.mpf:
    """Error probability of the successful sequence, given its click."""
    return sequence_error(n, part) / success_probability(n, part)


@mpmath.workdps(DPS)
def expected_time(n, part: Partition, d: Design = DESIGN) -> mpmath.mpf:
    return (_m(d.tau_reset) / success_probability(n, part)
            + _m(d.tau_pulse) / part.p_det)


@mpmath.workdps(DPS)
def rate(n, part: Partition, d: Design = DESIGN) -> mpmath.mpf:
    return 1 / expected_time(n, part, d)


@mpmath.workdps(DPS)
def repeaterless_bound(eta_link, d: Design = DESIGN) -> mpmath.mpf:
    """PLOB capacity -log2(1 - eta) per slot (Pirandola et al. 2017)."""
    return -mpmath.log(1 - _m(eta_link), 2) / _m(d.tau_pulse)


@mpmath.workdps(DPS)
def regime3(n, d: Design = DESIGN) -> bool:
    """Attempts dominate the sequence: n * tau_slot > tau_reset."""
    return _m(n) * _m(d.tau_pulse) > _m(d.tau_reset)


@mpmath.workdps(DPS)
def boundary_holds(n, f_target, part: Partition, f0, tol=BOUNDARY_TOL) -> bool:
    """n is the fidelity-constrained maximum: F(n) >= target - tol and
    F(n + 1) < target + tol."""
    t = _m(f_target)
    return (protocol_fidelity(n, part, f0) >= t - tol
            and protocol_fidelity(n + 1, part, f0) < t + tol)


@mpmath.workdps(DPS)
def max_attempts(f_target, part: Partition, f0, hi=10**15) -> int:
    """Largest n with F(n) >= f_target, by bisection on the monotone F."""
    t = _m(f_target)
    if protocol_fidelity(1, part, f0) < t:
        raise ValueError("target above the single-attempt fidelity")
    lo = 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if protocol_fidelity(mid, part, f0) >= t:
            lo = mid
        else:
            hi = mid
    return lo


@mpmath.workdps(DPS)
def mean_v_reflectance(coupling, cooperativity) -> mpmath.mpf:
    """Spin-averaged V cavity reflectance at zero detuning, kappa = gamma = 1:
    r_on = 1 - 2 k/(1 + C), r_off = 1 - 2 k."""
    k, c = _m(coupling), _m(cooperativity)
    return ((1 - 2 * k / (1 + c)) ** 2 + (1 - 2 * k) ** 2) / 2
