"""Analytic protocol performance model.

Per-attempt outcome probabilities for both polarizations, the unheralded
error probability of an attempt sequence, the fidelity-constrained maximum
sequence length, expected timing, the average transfer rate, regime
classification, and the repeaterless bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .device import transfer_fidelity
from .params import (
    DESIGN_R_CAV_H,
    CavityParams,
    LinkParams,
    PdrParams,
    PolarizerParams,
    ProtocolTiming,
    ValidationError,
)

ATTEMPT_SEARCH_CAP = 10**9
DEFAULT_REGIME1_THRESHOLD = 3


class InfeasibleConstraintError(ValueError):
    """The fidelity target exceeds what a single attempt can deliver."""


@dataclass(frozen=True)
class AttemptProbabilities:
    """Partition of a single transmission attempt: detected, lost without
    touching the spin, or lost after the spin interaction (unheralded error).
    p_e is defined as 1 - p_det - p_lost so the partition is exact."""

    p_det: float
    p_lost: float

    def __post_init__(self) -> None:
        for name in ("p_det", "p_lost"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise ValidationError(f"{name} out of [0,1]: {v}")
        if self.p_det + self.p_lost > 1 + 1e-12:
            raise ValidationError(
                f"p_det + p_lost = {self.p_det + self.p_lost} exceeds 1")

    @property
    def p_e(self) -> float:
        return max(0.0, 1.0 - self.p_det - self.p_lost)


@dataclass(frozen=True)
class MaxAttempts:
    """Fidelity-constrained sequence length. unbounded means the constraint
    never binds (no unheralded-error channel); cap_reached means the search
    hit ATTEMPT_SEARCH_CAP before the constraint bound."""

    n: int
    unbounded: bool = False
    cap_reached: bool = False


@dataclass(frozen=True)
class RateResult:
    n_max: int
    p_error: float
    p_success: float
    t_failures: float
    t_success: float
    rate: float
    regime: int
    unbounded: bool = False
    cap_reached: bool = False


def attempt_probabilities(
    pdr: PdrParams, polarizer: PolarizerParams, link: LinkParams
) -> AttemptProbabilities:
    """Per-attempt outcome partition averaged over both input polarizations.

    Detection requires either a polarizer-cavity round trip or a direct
    reflection off the reflector; loss-without-error collects link loss,
    reflector scattering, polarizer absorption, and H cavity leakage that
    never reaches the spin.
    """
    ev, eh = polarizer.eta_pol_V, polarizer.eta_pol_H
    T_V, R_V, T_H, R_H = pdr.T_V, pdr.R_V, pdr.T_H, pdr.R_H
    p_det = (link.eta_link / 2.0) * (
        T_V**2 * ev**2 * link.r_cav_V_avg + R_V
        + T_H**2 * eh**2 * link.r_cav_H + R_H
    ) * link.eta_det
    p_lost = (1.0 - link.eta_link) + (link.eta_link / 2.0) * (
        pdr.zeta_V + pdr.zeta_H
        + T_V * (1.0 - ev) + T_H * (1.0 - eh)
        + T_H * eh * (1.0 - link.r_cav_H - link.xi)
    )
    if not (0 <= p_det <= 1 and 0 <= p_lost <= 1 and p_det + p_lost <= 1 + 1e-12):
        raise ValidationError(
            f"inconsistent device parameters: p_det={p_det}, p_lost={p_lost}")
    return AttemptProbabilities(p_det=p_det, p_lost=min(p_lost, 1.0 - p_det))


def explicit_error_probability(
    pdr: PdrParams, polarizer: PolarizerParams, link: LinkParams
) -> float:
    """The long-form unheralded-error expression: V photons lost after the
    cavity interaction plus H photons leaking onto the spin. Diagnostic only;
    the canonical p_e is 1 - p_det - p_lost and the two need not agree when
    detector inefficiency is attributed differently."""
    ev, eh = polarizer.eta_pol_V, polarizer.eta_pol_H
    rv = link.r_cav_V_avg
    return (link.eta_link / 2.0) * (
        pdr.T_V * ev * (1.0 - rv + rv * (1.0 - ev) + rv * ev * pdr.zeta_V)
        + pdr.T_H * eh * link.xi
    )


def error_probability_given_click(m: int, probs: AttemptProbabilities) -> float:
    """Probability that at least one unheralded error preceded a detector
    click on the m-th attempt of a sequence."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if probs.p_det >= 1.0:
        return 0.0
    return 1.0 - (probs.p_lost / (1.0 - probs.p_det)) ** (m - 1)


def sequence_error_probability(n: int, probs: AttemptProbabilities) -> float:
    """Unheralded-error probability of an n-attempt sequence, summed over all
    click positions weighted by the click-position distribution."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return 0.0  # a single attempt has no preceding bins
    pd, pl = probs.p_det, probs.p_lost
    if pl >= 1.0:  # then p_det = 0 and no click can carry an error
        return 0.0
    if pl == 0.0 and pd == 0.0:  # every attempt errors, but nothing clicks
        return 0.0
    val = 1.0 - (1.0 - pd) ** n - pd * (1.0 - pl**n) / (1.0 - pl)
    return min(max(val, 0.0), 1.0)


def protocol_fidelity(n: int, probs: AttemptProbabilities, f0: float) -> float:
    """Transferred-state fidelity after an n-attempt sequence: the device
    fidelity f0 degraded toward the fully mixed value 1/2 by the sequence
    error probability."""
    if not 0 <= f0 <= 1:
        raise ValidationError(f"f0 out of [0,1]: {f0}")
    p_err = sequence_error_probability(n, probs)
    return (1.0 - p_err) * f0 + p_err * 0.5


def max_attempts(
    probs: AttemptProbabilities,
    f0: float,
    f_target: float,
) -> MaxAttempts:
    """Largest sequence length whose protocol fidelity still meets f_target.

    Fidelity is non-increasing in n, so an exponential ramp followed by
    binary search finds the boundary, up to ATTEMPT_SEARCH_CAP. With no
    unheralded-error channel the constraint never binds and the result is
    flagged unbounded.
    """
    if f_target > f0:
        raise InfeasibleConstraintError(
            f"f_target = {f_target} exceeds single-attempt fidelity f0 = {f0}")
    if probs.p_e == 0.0:
        return MaxAttempts(n=ATTEMPT_SEARCH_CAP, unbounded=True)
    hi = 1
    while hi < ATTEMPT_SEARCH_CAP and protocol_fidelity(hi, probs, f0) >= f_target:
        hi *= 2
    if hi >= ATTEMPT_SEARCH_CAP:
        if protocol_fidelity(ATTEMPT_SEARCH_CAP, probs, f0) >= f_target:
            return MaxAttempts(n=ATTEMPT_SEARCH_CAP, cap_reached=True)
        hi = ATTEMPT_SEARCH_CAP
    lo = max(1, hi // 2)  # fidelity(lo) >= f_target by construction
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if protocol_fidelity(mid, probs, f0) >= f_target:
            lo = mid
        else:
            hi = mid
    return MaxAttempts(n=lo)


def success_probability(n_max: int, probs: AttemptProbabilities) -> float:
    """Probability that an n_max-attempt sequence yields at least one click."""
    if probs.p_det <= 0.0:
        return 0.0
    if probs.p_det >= 1.0:
        return 1.0
    return -math.expm1(n_max * math.log1p(-probs.p_det))


def expected_failure_time(
    n_max: int, probs: AttemptProbabilities, timing: ProtocolTiming
) -> float:
    """Mean time spent on clickless sequences (each costs a full sequence
    plus a reset) before the first successful sequence."""
    p_succ = success_probability(n_max, probs)
    if p_succ == 0.0:
        return math.inf
    q_n = (1.0 - probs.p_det) ** n_max
    return (q_n / p_succ) * (n_max * timing.tau_slot + timing.tau_reset)


def expected_success_time(
    n_max: int,
    probs: AttemptProbabilities,
    timing: ProtocolTiming,
    conditional: bool = False,
) -> float:
    """Reset plus click-time term of the successful sequence.

    The default sums the click time over the unconditional click-position
    distribution (closed form of the direct sum); conditional=True divides
    that term by the sequence success probability, giving the true expected
    duration of the successful sequence.
    """
    pd = probs.p_det
    if pd == 0.0:
        return math.inf
    p_succ = success_probability(n_max, probs)
    q_n = (1.0 - pd) ** n_max
    click_term = timing.tau_slot * (p_succ / pd - n_max * q_n)
    if conditional:
        click_term /= p_succ
    return timing.tau_reset + click_term


def repeaterless_bound(eta_link: float, timing: ProtocolTiming) -> float:
    """Secret-key capacity of direct transmission per slot time:
    -log2(1 - eta_link) / tau_slot, approximately 1.44 eta_link / tau_slot
    at high loss."""
    if not 0 <= eta_link <= 1:
        raise ValidationError(f"eta_link out of [0,1]: {eta_link}")
    if eta_link == 1.0:
        return math.inf  # lossless link: the bound diverges
    return -math.log2(1.0 - eta_link) / timing.tau_slot


def classify_regime(n_max: int, timing: ProtocolTiming) -> int:
    """Regime 3 when attempts dominate the sequence (n_max*tau_slot >
    tau_reset), Regime 1 when the fidelity constraint pins n_max at or below
    DEFAULT_REGIME1_THRESHOLD, Regime 2 in between."""
    if n_max * timing.tau_slot > timing.tau_reset:
        return 3
    if n_max <= DEFAULT_REGIME1_THRESHOLD:
        return 1
    return 2


def transfer_rate(
    pdr: PdrParams,
    polarizer: PolarizerParams,
    cavity: CavityParams,
    link: LinkParams,
    timing: ProtocolTiming,
    f_target: float,
    f0: float | None = None,
    r_cav_h: complex = DESIGN_R_CAV_H,
    false_herald_correction: bool = False,
) -> RateResult:
    """Average transfer rate under a fidelity constraint.

    f0 defaults to the device-only transfer fidelity; the optional
    false-herald correction mixes in the uncorrected initial spin state with
    the conditional weight of a V photon reflecting off the reflector
    without touching the cavity. The stored t_success is the conditional
    expected duration of the successful sequence, so the rate equals the
    inverse of the true expected time per transferred qubit.
    """
    if f0 is None:
        f0 = transfer_fidelity(pdr, polarizer, cavity, r_cav_h=r_cav_h).f_avg
    if false_herald_correction:
        ev, eh = polarizer.eta_pol_V, polarizer.eta_pol_H
        det_num = (pdr.T_V**2 * ev**2 * link.r_cav_V_avg + pdr.R_V
                   + pdr.T_H**2 * eh**2 * link.r_cav_H + pdr.R_H)
        p_false = pdr.R_V / det_num
        f0 = (1.0 - p_false) * f0 + p_false * 0.5
    probs = attempt_probabilities(pdr, polarizer, link)
    nm = max_attempts(probs, f0, f_target)
    p_error = sequence_error_probability(nm.n, probs)
    p_succ = success_probability(nm.n, probs)
    t_fail = expected_failure_time(nm.n, probs, timing)
    t_succ = expected_success_time(nm.n, probs, timing, conditional=True)
    total = t_fail + t_succ
    rate = 1.0 / total if math.isfinite(total) and total > 0 else 0.0
    return RateResult(
        n_max=nm.n,
        p_error=p_error,
        p_success=p_succ,
        t_failures=t_fail,
        t_success=t_succ,
        rate=rate,
        regime=classify_regime(nm.n, timing),
        unbounded=nm.unbounded,
        cap_reached=nm.cap_reached,
    )
