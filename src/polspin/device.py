"""Device physics: spin-dependent cavity reflection, etalon algebra between
the polarization-dependent reflector and the cavity, heralded spin
projection, and the four-state average transfer fidelity.

fidelity_kernel computes the etalon coefficients r_H, r_V_on and r_V_off,
the average fidelity and the masks of invalid cells with arithmetic
operators only, so one code path serves scalar calls (transfer_fidelity,
effective_reflections) on the value objects and the broadcast numpy grids
of the sweeps on stand-ins whose varied fields are arrays. The fidelity is
closed form in the three coefficients: each of the four inputs is heralded
with total probability (2|r_H|^2 + |r_V_on|^2 + |r_V_off|^2) / 4 and
transferred with the same fidelity
    F = 1 - (|2 r_H - r_V_off + r_V_on|^2 + |r_V_on + r_V_off|^2)
            / (4 (2|r_H|^2 + |r_V_on|^2 + |r_V_off|^2)),
so F = 1 exactly when r_V_on + r_V_off = 0 and 2 r_H = r_V_off - r_V_on.
evolve_joint_state and herald_spin_state spell out the same physics one
state at a time on value objects; FidelityReport builds its per-input and
per-outcome breakdown with them when it is read.

All operations are pure functions of value inputs.
"""

from __future__ import annotations

import enum
import math
from typing import Any, NamedTuple

from .params import (
    DESIGN_R_CAV_H,
    CavityParams,
    PdrParams,
    PolarizerParams,
    ValidationError,
    Value,
)

_SQRT2 = math.sqrt(2.0)
_DEGENERATE_ETALON_TOL = 1e-12
_DEGENERATE_MSG = f"degenerate resonant etalon: |1 - r_cav*r_pdr| < {_DEGENERATE_ETALON_TOL}"
_PASSIVITY_TOL = 1e-9


class UnheraldableOutcomeError(ValueError):
    """The requested detector outcome carries zero amplitude."""


class OpaqueDeviceError(ValueError):
    """No detector outcome heralds for some input state."""


class HeraldOutcome(enum.Enum):
    H_AFTER_HWP = "H"
    V_AFTER_HWP = "V"


class EffectiveReflections(Value):
    """Round-trip field coefficients seen by each polarization for each
    spin state (on = spin couples to the cavity, off = it does not)."""

    def __init__(self, r_H_on: complex, r_H_off: complex, r_V_on: complex,
                 r_V_off: complex) -> None:
        for name, r in (("r_H_on", r_H_on), ("r_H_off", r_H_off),
                        ("r_V_on", r_V_on), ("r_V_off", r_V_off)):
            mag = abs(r)
            if mag > 1 + _PASSIVITY_TOL:
                raise ValidationError(f"|{name}| = {mag} exceeds 1")
        self.__dict__.update(r_H_on=r_H_on, r_H_off=r_H_off, r_V_on=r_V_on, r_V_off=r_V_off)


IDEAL_REFLECTIONS = EffectiveReflections(
    r_H_on=-1.0, r_H_off=-1.0, r_V_on=1.0, r_V_off=-1.0
)


class PhotonQubit(Value):
    """Polarization qubit alpha|H> + beta|V>, normalized."""

    def __init__(self, alpha: complex, beta: complex) -> None:
        norm = abs(alpha) ** 2 + abs(beta) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValidationError(f"photon qubit norm {norm} != 1")
        self.__dict__.update(alpha=alpha, beta=beta)


class SpinState(Value):
    """Spin amplitudes on (|down>, |up>); possibly unnormalized."""

    def __init__(self, amp_down: complex, amp_up: complex) -> None:
        self.__dict__.update(amp_down=amp_down, amp_up=amp_up)

    @property
    def norm_sq(self) -> float:
        return abs(self.amp_down) ** 2 + abs(self.amp_up) ** 2

    def fidelity(self, other: "SpinState") -> float:
        """|<other|self>|^2 with both states normalized."""
        n1, n2 = self.norm_sq, other.norm_sq
        if n1 == 0 or n2 == 0:
            raise ValidationError("fidelity of a zero-norm spin state")
        ovl = other.amp_down.conjugate() * self.amp_down \
            + other.amp_up.conjugate() * self.amp_up
        return abs(ovl) ** 2 / (n1 * n2)


class JointState(Value):
    """Unnormalized photon (H/V after the half-wave plate) x spin amplitudes.
    Loss only removes amplitude, so the total squared norm is <= 1."""

    def __init__(self, h_down: complex, h_up: complex, v_down: complex,
                 v_up: complex) -> None:
        self.__dict__.update(h_down=h_down, h_up=h_up, v_down=v_down, v_up=v_up)

    @property
    def norm_sq(self) -> float:
        return (abs(self.h_down) ** 2 + abs(self.h_up) ** 2
                + abs(self.v_down) ** 2 + abs(self.v_up) ** 2)


class FidelityReport(Value):
    """Average transfer fidelity and the etalon coefficients it comes from.

    f_avg is fidelity_kernel's closed form in r_H, r_V_on and r_V_off. Every
    input's herald total is (2|r_H|^2 + |r_V_on|^2 + |r_V_off|^2) / 4 and
    its fidelity is f_avg; per_input and per_outcome show it input by input,
    built when read on the state path (evolve_joint_state, herald_spin_state).
    """

    def __init__(self, f_avg: float, r_H: complex, r_V_on: complex, r_V_off: complex) -> None:
        self.__dict__.update(f_avg=f_avg, r_H=r_H, r_V_on=r_V_on, r_V_off=r_V_off)

    @property
    def per_input(self) -> list[tuple[str, float]]:
        """(label, herald-weighted fidelity over both outcomes) per input."""
        out = self.per_outcome
        rows = []
        for label, _, _ in TARGET_STATES:
            pairs = [out[label, outcome] for outcome in HeraldOutcome]
            rows.append((label, sum(p * f for p, f in pairs if p) / sum(p for p, _ in pairs)))
        return rows

    @property
    def per_outcome(self) -> dict[tuple[str, HeraldOutcome], tuple[float, float]]:
        """(label, outcome) -> (herald probability, conditional fidelity of
        the corrected spin state); (0.0, nan) for an outcome never heralded."""
        eff = EffectiveReflections(self.r_H, self.r_H, self.r_V_on, self.r_V_off)
        out = {}
        for label, a, b in TARGET_STATES:
            joint = evolve_joint_state(PhotonQubit(a, b), eff)
            for outcome in HeraldOutcome:
                try:
                    p, spin = herald_spin_state(joint, outcome)
                    out[label, outcome] = (p, spin.fidelity(SpinState(a, b)))
                except UnheraldableOutcomeError:
                    out[label, outcome] = (0.0, math.nan)
        return out


def _cavity_reflections(cavity):
    """(r_on, r_off) of the single-sided cavity, a CavityParams or a stand-in
    as fidelity_kernel takes it, from input-output theory:
    r = 1 - kappa_wg / (dc (1 + g^2 / (dc da))) with dc = kappa/2 + i delta_c
    and da = gamma/2 + i delta_a. The uncoupled spin state sees g = 0, a bare
    cavity; a resonant, critically out-coupled one reflects with a -1 phase.

    CavityParams accepts any cavity whose cooperativity fits a double, but
    on Python scalars g**2 can still overflow and dc da round to 0; such a
    cavity is refused here, where the error is raised, so the accepted
    path pays nothing."""
    kappa, kappa_wg, gamma, g = cavity.kappa, cavity.kappa_wg, cavity.gamma, cavity.g
    dc = 1j * cavity.delta_c + kappa / 2.0
    da = 1j * cavity.delta_a + gamma / 2.0
    try:
        return 1.0 - kappa_wg / (dc * (1.0 + g**2 / (dc * da))), 1.0 - kappa_wg / dc
    except (OverflowError, ZeroDivisionError):
        raise ValidationError(
            f"g, kappa and gamma must keep g^2 and (kappa/2 + i delta_c)(gamma/2 + i delta_a)"
            f" within a double, got g = {g}, kappa = {kappa}, gamma = {gamma}") from None


def cavity_reflection(cavity: CavityParams, coupled: bool = True) -> complex:
    """Single-sided cavity field reflection with the spin coupled (g) or
    uncoupled (g = 0)."""
    return _cavity_reflections(cavity)[0 if coupled else 1]


def effective_reflections(
    pdr: PdrParams,
    polarizer: PolarizerParams,
    cavity: CavityParams,
    r_cav_h: complex = DESIGN_R_CAV_H,
) -> EffectiveReflections:
    """Round-trip coefficients of the reflector-cavity etalon, as
    fidelity_kernel computes them; raises ValidationError for a degenerate
    or non-passive etalon."""
    k = fidelity_kernel(pdr, polarizer, cavity, r_cav_h)
    if k.degenerate:
        raise ValidationError(_DEGENERATE_MSG)
    return EffectiveReflections(k.r_H, k.r_H, k.r_V_on, k.r_V_off)


def evolve_joint_state(photon: PhotonQubit, eff: EffectiveReflections) -> JointState:
    """Joint photon-spin amplitudes after reflection and the half-wave plate.

    The spin starts in (|down> + |up>)/sqrt(2) and the half-wave plate mixes
    H -> (H + V)/sqrt(2), V -> (V - H)/sqrt(2), so every amplitude carries an
    overall factor 1/2. The state is left unnormalized: amplitude damping
    encodes photon loss.
    """
    a, b = photon.alpha, photon.beta
    return JointState(
        h_down=(a * eff.r_H_on - b * eff.r_V_on) / 2.0,
        h_up=(a * eff.r_H_off - b * eff.r_V_off) / 2.0,
        v_down=(a * eff.r_H_on + b * eff.r_V_on) / 2.0,
        v_up=(a * eff.r_H_off + b * eff.r_V_off) / 2.0,
    )


def herald_spin_state(
    joint: JointState, outcome: HeraldOutcome
) -> tuple[float, SpinState]:
    """Project onto the detected photon branch and correct the spin.

    Returns the branch squared norm (herald probability) and the normalized
    spin state after the corrective rotation: a Hadamard for the H outcome,
    Hadamard followed by a pi phase flip for the V outcome. With ideal
    reflection coefficients either outcome then maps (alpha, beta) to
    alpha|down> + beta|up> up to a global phase.
    """
    if outcome is HeraldOutcome.H_AFTER_HWP:
        d, u = joint.h_down, joint.h_up
        flip = False
    else:
        d, u = joint.v_down, joint.v_up
        flip = True
    prob = abs(d) ** 2 + abs(u) ** 2
    if prob == 0.0:
        raise UnheraldableOutcomeError(f"zero-amplitude branch for outcome {outcome}")
    nd = (d + u) / _SQRT2
    nu = (d - u) / _SQRT2
    if flip:
        nu = -nu
    scale = 1.0 / math.sqrt(prob)
    return prob, SpinState(amp_down=nd * scale, amp_up=nu * scale)


# The four target spin states and the photon qubits that should produce them.
_S = 1.0 / _SQRT2
TARGET_STATES: list[tuple[str, complex, complex]] = [
    ("x+", _S, _S),
    ("x-", _S, -_S),
    ("y+", _S, 1j * _S),
    ("y-", _S, -1j * _S),
]


class DeviceKernel(NamedTuple):
    """What fidelity_kernel computes. Each entry is a Python scalar or an
    array of the broadcast input shape."""

    r_H: Any                           # H etalon coefficient, both spin states
    r_V_on: Any                        # V etalon coefficients
    r_V_off: Any
    f_avg: Any                         # every input's fidelity, so their average
    degenerate: Any                    # some |1 - r_cav r_pdr| < 1e-12
    non_passive: Any                   # some |r_eff| > 1 + 1e-9
    opaque: Any                        # no input is ever heralded


def fidelity_kernel(pdr, polarizer, cavity, r_cav_h) -> DeviceKernel:
    """Etalon coefficients and average transfer fidelity.

    Reads pdr.t_H, .r_H, .t_V, .r_V, polarizer.eta_pol_V, .eta_pol_H and
    cavity.kappa, .kappa_wg, .gamma, .g, .delta_c, .delta_a; each, like
    r_cav_h, is a Python number or a numpy array, and they broadcast. The
    scalar path (transfer_fidelity, effective_reflections) passes the value
    types as they are, the sweeps stand-ins (types.SimpleNamespace) whose
    varied fields are arrays. Written with arithmetic operators and abs()
    only, so the same code runs on both: each quantity takes the shape of
    the inputs it depends on, so with one axis's inputs as a column and the
    other's as a row, the etalons are computed once per axis value. Cells
    that are degenerate, non-passive or opaque carry finite placeholder
    values and are flagged in the masks; no division is by zero.

    For each input alpha|H> + beta|V> the device reflects with the spin in
    (|down> + |up>)/sqrt2, the half-wave plate maps H -> (H + V)/sqrt2 and
    V -> (V - H)/sqrt2, and each detector outcome leaves an unnormalized spin
    branch whose squared norm is its herald probability. The branch is
    corrected by a Hadamard for the H outcome and a Hadamard followed by a
    pi phase flip for the V outcome, then overlapped with the target
    alpha|down> + beta|up>. Loss only removes amplitude. For each of the
    four inputs the herald total is D / 4, D = 2|r_H|^2 + |r_V_on|^2 +
    |r_V_off|^2, and the herald-weighted fidelity is
        F = 1 - (|2 r_H - r_V_off + r_V_on|^2 + |r_V_on + r_V_off|^2) / (4 D),
    which is 1 exactly when r_V_on + r_V_off = 0 and 2 r_H = r_V_off - r_V_on.
    Written as 1 minus a ratio of non-negative terms, F <= 1 holds in
    floating point too. The device is opaque where D = 0.
    """
    # The transmitted path crosses the polarizer, so each t_i^2 in the
    # etalon numerator is scaled by eta_pol_i. Only the V mode couples to the
    # spin; the H mode sees a fixed cavity reflection r_cav_h in both spin
    # states (its transition is never resonant). An etalon's round trip is
    # r_pdr + r_cav t^2 / (1 - r_cav r_pdr); a degenerate one, whose value is
    # never used, divides by denominator + 1 so that no division is by zero.
    r_on, r_off = _cavity_reflections(cavity)
    r_H, r_V = pdr.r_H, pdr.r_V
    t_sq_V = pdr.t_V**2 * polarizer.eta_pol_V
    d_H, d_on, d_off = 1.0 - r_cav_h * r_H, 1.0 - r_on * r_V, 1.0 - r_off * r_V
    tol = _DEGENERATE_ETALON_TOL
    deg_H, deg_on, deg_off = abs(d_H) < tol, abs(d_on) < tol, abs(d_off) < tol
    r_H_eff = r_H + r_cav_h * (pdr.t_H**2 * polarizer.eta_pol_H) / (d_H + deg_H)
    r_V_on = r_V + r_on * t_sq_V / (d_on + deg_on)
    r_V_off = r_V + r_off * t_sq_V / (d_off + deg_off)
    degenerate = deg_H | deg_on | deg_off
    limit = 1.0 + _PASSIVITY_TOL
    non_passive = (abs(r_H_eff) > limit) | (abs(r_V_on) > limit) | (abs(r_V_off) > limit)
    # D and the numerator of 1 - F, as in the docstring
    total = 2.0 * abs(r_H_eff) ** 2 + abs(r_V_on) ** 2 + abs(r_V_off) ** 2
    opaque = total == 0.0
    error = abs(2.0 * r_H_eff - r_V_off + r_V_on) ** 2 + abs(r_V_on + r_V_off) ** 2
    f_avg = 1.0 - error / (4.0 * (total + opaque))
    return DeviceKernel(r_H_eff, r_V_on, r_V_off, f_avg, degenerate, non_passive, opaque)


def transfer_fidelity(
    pdr: PdrParams,
    polarizer: PolarizerParams,
    cavity: CavityParams,
    r_cav_h: complex = DESIGN_R_CAV_H,
) -> FidelityReport:
    """Average heralded transfer fidelity over the four cardinal inputs.

    Each input's fidelity is the herald-probability-weighted average over
    the two detector outcomes of the corrected spin state's overlap with the
    matching target, renormalized by the input's total herald probability.
    Detection efficiency and spin gate errors are excluded. Raises
    ValidationError for a degenerate or non-passive etalon and
    OpaqueDeviceError when some input is never heralded.
    """
    k = fidelity_kernel(pdr, polarizer, cavity, r_cav_h)
    if k.degenerate:
        raise ValidationError(_DEGENERATE_MSG)
    if k.non_passive:
        mag = max(abs(k.r_H), abs(k.r_V_on), abs(k.r_V_off))
        raise ValidationError(f"non-passive etalon: |r_eff| = {mag} exceeds 1")
    if k.opaque:  # every input alike, so the first is named
        raise OpaqueDeviceError(f"device opaque for input {TARGET_STATES[0][0]}")
    return FidelityReport(k.f_avg, k.r_H, k.r_V_on, k.r_V_off)


def loss_balance_residual(eff: EffectiveReflections) -> float:
    """How far the device is from balanced losses for the alpha = beta input:
    | |r_H_on - r_V_on| - |r_H_off + r_V_off| |, zero when balanced."""
    return abs(abs(eff.r_H_on - eff.r_V_on) - abs(eff.r_H_off + eff.r_V_off))
