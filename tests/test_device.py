"""Device-physics tests: reflection formulas, etalon algebra, joint-state
evolution, heralding, and the average transfer fidelity.

Non-trivial expected values were computed with an independent scalar
evaluation script (plain arithmetic, no shared code) and frozen here.
"""

import cmath
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polspin as ps
from polspin import device
from polspin.device import (
    IDEAL_REFLECTIONS,
    TARGET_STATES,
    FidelityReport,
    HeraldOutcome,
    fidelity_kernel,
)

SQ2 = math.sqrt(2.0)

# frozen oracle values at the reference design point
# (T_V=0.99, R_H=0.15, C=4, kappa_wg/kappa=0.73, eta_pol=(0.989, 0.128),
#  real coefficients, zero scattering, r_cav_h = -sqrt(0.921))
ORACLE_R_H_ON = -0.5534793946954046
ORACLE_R_V_ON = 0.5473756817332835
ORACLE_R_V_OFF = -0.5721075471698113
ORACLE_RESIDUAL = 0.02473186543652761
ORACLE_F_DESIGN = 0.999845005849864


@pytest.fixture
def design():
    return ps.design_pdr(), ps.design_polarizer(), ps.design_cavity()


class TestCavityReflection:
    def test_bare_critically_outcoupled_mirror(self):
        cav = ps.CavityParams(kappa=1.0, kappa_wg=1.0, gamma=1.0, g=0.0)
        assert ps.cavity_reflection(cav, coupled=True) == pytest.approx(-1.0)

    def test_design_point_average_reflectivity(self):
        cav = ps.design_cavity()
        r_on = ps.cavity_reflection(cav, coupled=True)
        r_off = ps.cavity_reflection(cav, coupled=False)
        assert r_on == pytest.approx(0.708, abs=1e-12)
        assert r_off == pytest.approx(-0.46, abs=1e-12)
        assert (abs(r_on) ** 2 + abs(r_off) ** 2) / 2 == pytest.approx(0.356, abs=2e-3)

    def test_large_cooperativity_limit(self):
        cav = ps.CavityParams.from_ratios(1.0, 1000.0)
        assert abs(ps.cavity_reflection(cav) - 999 / 1001) < 2e-3

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ps.ValidationError):
            ps.CavityParams(kappa=0.0, kappa_wg=0.0, gamma=1.0, g=1.0)
        with pytest.raises(ps.ValidationError):
            ps.CavityParams(kappa=1.0, kappa_wg=0.5, gamma=0.0, g=1.0)

    @given(
        kappa=st.floats(0.1, 10),
        wg_frac=st.floats(0, 1),
        gamma=st.floats(0.01, 10),
        g=st.floats(0, 5),
        dc=st.floats(-20, 20),
        da=st.floats(-20, 20),
        coupled=st.booleans(),
    )
    @settings(max_examples=300)
    def test_passivity(self, kappa, wg_frac, gamma, g, dc, da, coupled):
        cav = ps.CavityParams(kappa, wg_frac * kappa, gamma, g, dc, da)
        assert abs(ps.cavity_reflection(cav, coupled)) <= 1 + 1e-9

    @given(dc=st.floats(-10, 10), da=st.floats(-10, 10))
    @settings(max_examples=100)
    def test_detuning_conjugation_symmetry(self, dc, da):
        r_pos = ps.cavity_reflection(ps.CavityParams(2.0, 1.3, 0.7, 1.1, dc, da))
        r_neg = ps.cavity_reflection(ps.CavityParams(2.0, 1.3, 0.7, 1.1, -dc, -da))
        assert r_pos == pytest.approx(r_neg.conjugate(), abs=1e-12)

    def test_large_c_convergence_is_monotone(self):
        gaps = []
        for c in (10.0, 100.0, 1000.0, 10000.0):
            cav = ps.CavityParams.from_ratios(1.0, c)
            gaps.append(abs(ps.cavity_reflection(cav) - (c - 1) / (c + 1)))
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))


class TestEffectiveReflections:
    def test_transparent_reflector_passes_cavity_through(self):
        pdr = ps.PdrParams(t_H=1.0, r_H=0.0, t_V=1.0, r_V=0.0)
        pol = ps.PolarizerParams(eta_pol_V=1.0, eta_pol_H=1.0)
        cav = ps.design_cavity()
        eff = ps.effective_reflections(pdr, pol, cav, r_cav_h=-1.0)
        assert eff.r_V_on == pytest.approx(ps.cavity_reflection(cav, True), abs=1e-12)
        assert eff.r_V_off == pytest.approx(ps.cavity_reflection(cav, False), abs=1e-12)

    def test_no_cavity_return_leaves_direct_reflection(self):
        pdr = ps.design_pdr()
        pol = ps.design_polarizer()
        cav = ps.CavityParams(kappa=1.0, kappa_wg=0.5, gamma=1.0, g=0.0)
        # kappa_wg/kappa = 0.5 at zero detuning gives zero cavity reflection
        eff = ps.effective_reflections(pdr, pol, cav, r_cav_h=0.0)
        assert eff.r_H_on == pytest.approx(pdr.r_H, abs=1e-12)
        assert eff.r_V_on == pytest.approx(pdr.r_V, abs=1e-9)
        assert eff.r_V_off == pytest.approx(pdr.r_V, abs=1e-9)

    def test_design_point_matches_oracle(self, design):
        pdr, pol, cav = design
        eff = ps.effective_reflections(pdr, pol, cav)
        assert eff.r_H_on == pytest.approx(ORACLE_R_H_ON, abs=1e-9)
        assert eff.r_H_off == pytest.approx(ORACLE_R_H_ON, abs=1e-9)
        assert eff.r_V_on == pytest.approx(ORACLE_R_V_ON, abs=1e-9)
        assert eff.r_V_off == pytest.approx(ORACLE_R_V_OFF, abs=1e-9)

    def test_degenerate_etalon_rejected(self):
        pdr = ps.PdrParams(t_H=0.0, r_H=1.0, t_V=0.0, r_V=1.0)
        pol = ps.PolarizerParams(eta_pol_V=1.0, eta_pol_H=1.0)
        cav = ps.CavityParams(kappa=1.0, kappa_wg=1.0, gamma=1.0, g=0.0)
        with pytest.raises(ps.ValidationError, match="degenerate"):
            ps.effective_reflections(pdr, pol, cav, r_cav_h=1.0)

    def test_non_passive_etalon_rejected(self, design):
        # a polarizer that passes H as well as V: the H etalon gains (|r_H| 1.04)
        pdr, _, cav = design
        pol = ps.PolarizerParams(eta_pol_V=0.989, eta_pol_H=0.5)
        with pytest.raises(ps.ValidationError, match=r"\|r_H_on\| = .* exceeds 1"):
            ps.effective_reflections(pdr, pol, cav)

    def test_are_the_kernel_coefficients(self, design):
        pdr, pol, cav = design
        eff = ps.effective_reflections(pdr, pol, cav)
        k = fidelity_kernel(pdr, pol, cav, ps.params.DESIGN_R_CAV_H)
        assert (eff.r_H_on, eff.r_H_off, eff.r_V_on, eff.r_V_off) \
            == (k.r_H, k.r_H, k.r_V_on, k.r_V_off)


class TestJointStateAndHerald:
    def test_ideal_duan_kimble_v_branch(self):
        photon = ps.PhotonQubit(1 / SQ2, 1 / SQ2)
        joint = ps.evolve_joint_state(photon, IDEAL_REFLECTIONS)
        # V amplitudes proportional to (-1+1, -1-1) = (0, -2), scaled by alpha/2
        assert joint.v_down == pytest.approx(0.0, abs=1e-12)
        assert joint.v_up == pytest.approx(-2 / (2 * SQ2), abs=1e-12)

    def test_total_loss_gives_zero_state(self):
        eff = ps.EffectiveReflections(0.0, 0.0, 0.0, 0.0)
        joint = ps.evolve_joint_state(ps.PhotonQubit(1.0, 0.0), eff)
        assert joint.norm_sq == 0.0

    def test_h_only_input_matches_substitution(self, design):
        pdr, pol, cav = design
        eff = ps.effective_reflections(pdr, pol, cav)
        joint = ps.evolve_joint_state(ps.PhotonQubit(1.0, 0.0), eff)
        assert joint.h_down == pytest.approx(eff.r_H_on / 2, abs=1e-12)
        assert joint.h_up == pytest.approx(eff.r_H_off / 2, abs=1e-12)
        assert joint.v_down == pytest.approx(eff.r_H_on / 2, abs=1e-12)
        assert joint.v_up == pytest.approx(eff.r_H_off / 2, abs=1e-12)

    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (1 / SQ2, 1 / SQ2),
                                            (0.6, 0.8j), (1 / SQ2, -1j / SQ2)])
    @pytest.mark.parametrize("outcome", list(HeraldOutcome))
    def test_ideal_device_transfers_exactly(self, alpha, beta, outcome):
        joint = ps.evolve_joint_state(ps.PhotonQubit(alpha, beta), IDEAL_REFLECTIONS)
        _, spin = ps.herald_spin_state(joint, outcome)
        target = ps.SpinState(alpha, beta)
        assert spin.fidelity(target) == pytest.approx(1.0, abs=1e-12)

    def test_v_outcome_needs_the_phase_flip(self):
        # without the conditional pi flip the V outcome yields alpha|down> - beta|up>
        alpha = beta = 1 / SQ2
        joint = ps.evolve_joint_state(ps.PhotonQubit(alpha, beta), IDEAL_REFLECTIONS)
        d, u = joint.v_down, joint.v_up
        nd, nu = (d + u) / SQ2, (d - u) / SQ2  # Hadamard only
        raw = ps.SpinState(nd, nu)
        assert raw.fidelity(ps.SpinState(alpha, -beta)) == pytest.approx(1.0, abs=1e-12)
        _, corrected = ps.herald_spin_state(joint, HeraldOutcome.V_AFTER_HWP)
        assert corrected.fidelity(ps.SpinState(alpha, beta)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_branch_is_unheraldable(self):
        eff = ps.EffectiveReflections(0.0, 0.0, 0.0, 0.0)
        joint = ps.evolve_joint_state(ps.PhotonQubit(1.0, 0.0), eff)
        with pytest.raises(ps.UnheraldableOutcomeError):
            ps.herald_spin_state(joint, HeraldOutcome.H_AFTER_HWP)

    @given(st.floats(0, 2 * math.pi), st.floats(0.05, 0.95))
    @settings(max_examples=100)
    def test_herald_probabilities_conserve(self, phase, weight):
        pdr, pol, cav = ps.design_pdr(), ps.design_polarizer(), ps.design_cavity()
        eff = ps.effective_reflections(pdr, pol, cav)
        a = math.sqrt(weight)
        b = math.sqrt(1 - weight) * cmath.exp(1j * phase)
        joint = ps.evolve_joint_state(ps.PhotonQubit(a, b), eff)
        total = sum(ps.herald_spin_state(joint, o)[0] for o in HeraldOutcome)
        assert total <= 1 + 1e-12

    def test_lossless_device_conserves_exactly(self):
        joint = ps.evolve_joint_state(ps.PhotonQubit(0.6, 0.8), IDEAL_REFLECTIONS)
        total = sum(ps.herald_spin_state(joint, o)[0] for o in HeraldOutcome)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestTransferFidelity:
    def test_design_point_matches_oracle(self, design):
        report = ps.transfer_fidelity(*design)
        assert report.f_avg == pytest.approx(ORACLE_F_DESIGN, abs=1e-9)
        assert report.f_avg >= 0.999

    def test_fidelities_bounded_and_averaged(self, design):
        report = ps.transfer_fidelity(*design)
        assert all(0 <= f <= 1 for _, f in report.per_input)
        mean = sum(f for _, f in report.per_input) / 4
        assert report.f_avg == pytest.approx(mean, abs=1e-15)

    def test_critical_coupling_degrades(self):
        cav = ps.CavityParams.from_ratios(0.5, 4.0)
        report = ps.transfer_fidelity(ps.design_pdr(), ps.design_polarizer(), cav)
        assert report.f_avg < ps.transfer_fidelity(
            ps.design_pdr(), ps.design_polarizer(), ps.design_cavity()).f_avg

    def test_global_phase_invariance(self, design):
        pdr, pol, cav = design
        eff = ps.effective_reflections(pdr, pol, cav)

        def weighted_fidelity(alpha, beta):
            joint = ps.evolve_joint_state(ps.PhotonQubit(alpha, beta), eff)
            target = ps.SpinState(alpha, beta)
            num = den = 0.0
            for outcome in HeraldOutcome:
                p, spin = ps.herald_spin_state(joint, outcome)
                num += p * spin.fidelity(target)
                den += p
            return num / den

        for label, a, b in TARGET_STATES:
            phased = cmath.exp(0.7j)
            assert weighted_fidelity(a * phased, b * phased) == pytest.approx(
                weighted_fidelity(a, b), abs=1e-12), label

    @pytest.mark.parametrize("pdr,cav", [
        (dict(T_V=0.99, R_H=0.15), dict(coupling_ratio=0.73, cooperativity=4.0)),
        (dict(T_V=0.7, R_H=0.4, zeta_V=0.1), dict(coupling_ratio=0.5, cooperativity=1.5)),
        (dict(T_V=0.9, R_H=0.25, zeta_H=0.2), dict(coupling_ratio=0.6, cooperativity=12.0)),
    ])
    def test_per_outcome_matches_the_state_path(self, pdr, cav):
        # the kernel's closed form against the state path run directly: each
        # input's herald-weighted fidelity is f_avg and its herald total is
        # (2|r_H|^2 + |r_V_on|^2 + |r_V_off|^2) / 4
        pdr = ps.PdrParams.from_power(**pdr)
        pol, cav = ps.design_polarizer(), ps.CavityParams.from_ratios(**cav)
        f_avg = ps.transfer_fidelity(pdr, pol, cav).f_avg
        eff = ps.effective_reflections(pdr, pol, cav)
        total = (abs(eff.r_H_on) ** 2 + abs(eff.r_H_off) ** 2 + abs(eff.r_V_on) ** 2
                 + abs(eff.r_V_off) ** 2) / 4
        for label, a, b in TARGET_STATES:
            joint = ps.evolve_joint_state(ps.PhotonQubit(a, b), eff)
            num = den = 0.0
            for outcome in HeraldOutcome:
                p, spin = ps.herald_spin_state(joint, outcome)
                num += p * spin.fidelity(ps.SpinState(a, b))
                den += p
            assert abs(num / den - f_avg) <= 1e-15, label
            assert den == pytest.approx(total, rel=1e-14), label

    def test_zero_amplitude_outcome_reads_zero_and_nan(self):
        # both polarizations reflect at -1 off the reflector with no
        # transmission, so nothing depends on the spin: x+ never reaches the
        # H detector and x- never reaches the V detector
        pdr = ps.PdrParams.from_power(T_V=0.0, R_H=1.0)
        report = ps.transfer_fidelity(pdr, ps.design_polarizer(), ps.design_cavity())
        per_outcome = report.per_outcome
        for label, outcome in (("x+", HeraldOutcome.H_AFTER_HWP),
                               ("x-", HeraldOutcome.V_AFTER_HWP)):
            p, f = per_outcome[(label, outcome)]
            assert p == 0.0 and math.isnan(f), label
        assert per_outcome[("x+", HeraldOutcome.V_AFTER_HWP)][0] == pytest.approx(1.0)
        assert all(p > 0 for (label, _), (p, _) in per_outcome.items()
                   if label in ("y+", "y-"))

    def test_v_blind_device_gives_the_fully_mixed_fidelity(self, design):
        # T_V = 0: V never enters the cavity, so its only detected light is
        # the reflector's direct reflection, which the kernel adds coherently
        # to both V coefficients; a herald blind to the spin gives F = 1/2
        _, pol, cav = design
        pdr = ps.PdrParams.from_power(T_V=0.0, R_H=0.15)
        k = fidelity_kernel(pdr, pol, cav, ps.params.DESIGN_R_CAV_H)
        assert k.r_V_on == k.r_V_off == pdr.r_V
        assert ps.transfer_fidelity(pdr, pol, cav).f_avg == 0.5

    def test_scattering_only_degrades(self):
        # grow V scattering at fixed R_V: fidelity strictly decreases
        pol, cav = ps.design_polarizer(), ps.design_cavity()
        fs = [ps.transfer_fidelity(
            ps.PdrParams.from_power(T_V=0.99 - z, R_H=0.15, zeta_V=z), pol, cav).f_avg
            for z in np.linspace(0.0, 0.3, 7)]
        assert all(a > b for a, b in zip(fs, fs[1:]))


def _random_devices(rng, shape):
    """Kernel inputs with random complex reflector coefficients (non-passive
    ones included), detunings and a complex r_cav_h; shape () gives scalars."""
    def real(lo, hi):
        v = rng.uniform(lo, hi, shape)
        return float(v) if shape == () else v

    def cplx():
        return real(-0.8, 0.8) + 1j * real(-0.8, 0.8)

    pdr = SimpleNamespace(t_H=cplx(), r_H=cplx(), t_V=cplx(), r_V=cplx())
    pol = SimpleNamespace(eta_pol_V=real(0.0, 1.0), eta_pol_H=real(0.0, 1.0))
    kappa = real(0.1, 2.0)
    cav = SimpleNamespace(kappa=kappa, kappa_wg=kappa * real(0.0, 1.0), gamma=real(0.1, 2.0),
                          g=real(0.0, 3.0), delta_c=real(-1.0, 1.0), delta_a=real(-1.0, 1.0))
    return pdr, pol, cav, cplx()


def _bits(x):
    return np.asarray(x).tobytes()


class TestClosedForm:
    """The kernel's f_avg is closed form in r_H, r_V_on and r_V_off; the
    report's per-input breakdown comes from the state path."""

    def test_every_input_has_the_closed_form_fidelity_and_herald_total(self):
        rng = np.random.default_rng(29)
        reports = []
        while len(reports) < 300:
            k = fidelity_kernel(*_random_devices(rng, ()))
            if not (k.degenerate or k.non_passive or k.opaque):
                reports.append(FidelityReport(k.f_avg, k.r_H, k.r_V_on, k.r_V_off))
        for report in reports:
            total = (2 * abs(report.r_H) ** 2 + abs(report.r_V_on) ** 2
                     + abs(report.r_V_off) ** 2) / 4
            for label, f in report.per_input:
                assert abs(f - report.f_avg) <= 1e-15, (label, f, report.f_avg)
            out = report.per_outcome
            for label, _, _ in TARGET_STATES:
                heralded = sum(out[label, outcome][0] for outcome in HeraldOutcome)
                assert heralded == pytest.approx(total, rel=1e-14), label

    @given(st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))
    @settings(max_examples=300)
    def test_balanced_coefficients_transfer_exactly(self, magnitude, phase):
        # a transparent V reflector (r_V = 0, t_V = 1) passes the cavity's
        # reflections through as r_V_on and r_V_off, and an H one with t_H = 0
        # leaves r_H; the cavity is replaced by the pair (-r, r)
        r = cmath.rect(magnitude, phase)
        pdr = SimpleNamespace(t_H=0.0, r_H=r, t_V=1.0, r_V=0.0)
        pol = SimpleNamespace(eta_pol_V=1.0, eta_pol_H=1.0)
        with mock.patch.object(device, "_cavity_reflections", lambda cavity: (-r, r)):
            k = fidelity_kernel(pdr, pol, None, -1.0)
        assert (k.r_H, k.r_V_on, k.r_V_off) == (r, -r, r)
        assert k.f_avg == 1.0

    @given(*[st.complex_numbers(max_magnitude=1.0)] * 5,
           *[st.floats(0.0, 1.0)] * 3, st.floats(0.01, 2.0), st.floats(0.0, 3.0),
           st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    @settings(max_examples=300)
    def test_f_avg_never_exceeds_one(self, t_H, r_H, t_V, r_V, r_cav_h, eta_V, eta_H,
                                     coupling, gamma, g, delta_c, delta_a):
        pdr = SimpleNamespace(t_H=t_H, r_H=r_H, t_V=t_V, r_V=r_V)
        pol = SimpleNamespace(eta_pol_V=eta_V, eta_pol_H=eta_H)
        cav = SimpleNamespace(kappa=1.0, kappa_wg=coupling, gamma=gamma, g=g,
                              delta_c=delta_c, delta_a=delta_a)
        assert fidelity_kernel(pdr, pol, cav, r_cav_h).f_avg <= 1.0

    def test_all_zero_device_is_opaque(self, design):
        _, pol, cav = design
        pdr = ps.PdrParams.from_power(T_V=0.0, R_H=0.0, zeta_V=1.0, zeta_H=1.0)
        with pytest.raises(ps.OpaqueDeviceError, match=r"^device opaque for input x\+$"):
            ps.transfer_fidelity(pdr, pol, cav)
        with pytest.raises(ps.OpaqueDeviceError):
            ps.sweep_fidelity_pdr(ps.SweepAxis("pdr.T_V", 0.0, 1.0, 2),
                                  ps.SweepAxis("pdr.R_H", 0.0, 1.0, 2), cav, pol,
                                  zeta_V=1.0, zeta_H=1.0)
        with pytest.raises(ps.OpaqueDeviceError):
            ps.sweep_fidelity_cavity(ps.SweepAxis("cavity.cooperativity", 0.0, 1.0, 2),
                                     pdr, pol, cav)


class TestBetaSymmetry:
    """x- and y- are x+ and y+ with beta negated, which swaps the two detector
    outcomes exactly; the report's per-input breakdown, built on the state
    path from the coefficients of each device the kernel accepts, shows it
    bit for bit."""

    @pytest.mark.parametrize("shape", [(), (30, 30)])
    def test_minus_inputs_are_plus_inputs_swapped_bit_for_bit(self, shape):
        rng = np.random.default_rng(17)
        outcomes = list(HeraldOutcome)
        for _ in range(200 if shape == () else 3):
            k = fidelity_kernel(*_random_devices(rng, shape))
            *coefficients, rejected = np.broadcast_arrays(
                k.f_avg, k.r_H, k.r_V_on, k.r_V_off, k.degenerate | k.non_passive)
            for cell in np.ndindex(rejected.shape):
                if rejected[cell]:
                    continue
                f_avg, r_H, r_V_on, r_V_off = (c[cell].item() for c in coefficients)
                report = FidelityReport(f_avg, r_H, r_V_on, r_V_off)
                out = report.per_outcome
                for plus, minus in (("x+", "x-"), ("y+", "y-")):
                    assert [list(map(_bits, out[minus, o])) for o in outcomes] \
                        == [list(map(_bits, out[plus, o])) for o in outcomes[::-1]]
                fidelities = dict(report.per_input)
                assert _bits(fidelities["x-"]) == _bits(fidelities["x+"])
                assert _bits(fidelities["y-"]) == _bits(fidelities["y+"])


def _kernel_bits(k):
    """Every array and scalar of a DeviceKernel, as bytes, in field order."""
    return [_bits(x) for x in k]


class TestKernelInputs:
    """The kernel reads the device's fields as attributes: the value types on
    the scalar path, stand-ins whose varied fields are arrays in the maps."""

    def test_value_objects_equal_stand_ins_bit_for_bit(self, design):
        rng = np.random.default_rng(28)

        def u(lo, hi):
            return float(rng.uniform(lo, hi))

        devices = [(*design, ps.params.DESIGN_R_CAV_H)]
        for _ in range(50):
            kappa = u(0.1, 2.0)
            devices.append((
                ps.PdrParams.from_power(u(0.5, 1.0), u(0.0, 0.6), zeta_V=u(0.0, 0.005)),
                ps.PolarizerParams(1.0, u(0.0, 1.0)),
                ps.CavityParams(kappa, kappa * u(0.0, 1.0), u(0.1, 2.0), u(0.0, 3.0),
                                u(-1.0, 1.0), u(-1.0, 1.0)),
                complex(u(-0.8, 0.8), u(-0.8, 0.8))))
        for pdr, pol, cav, r_cav_h in devices:
            stand_ins = [SimpleNamespace(**vars(obj)) for obj in (pdr, pol, cav)]
            assert _kernel_bits(fidelity_kernel(*stand_ins, r_cav_h)) \
                == _kernel_bits(fidelity_kernel(pdr, pol, cav, r_cav_h))

    def test_polarizer_column_against_cavity_row_matches_scalar_calls(self, design):
        pdr, pol, cav = design
        eta_H = np.linspace(0.0, 0.9, 10)  # the H etalon gains between 0.4 and 0.5
        g = np.linspace(0.0, 2.0, 9)
        column_pol = SimpleNamespace(eta_pol_V=pol.eta_pol_V, eta_pol_H=eta_H[:, None])
        row_cav = SimpleNamespace(**{**vars(cav), "g": g[None, :]})
        k = fidelity_kernel(pdr, column_pol, row_cav, ps.params.DESIGN_R_CAV_H)
        shape = (eta_H.size, g.size)
        assert k.f_avg.shape == shape
        # a mask takes the shape of the inputs it depends on
        degenerate, non_passive, opaque = (np.broadcast_to(m, shape)
                                           for m in (k.degenerate, k.non_passive, k.opaque))
        rejected = degenerate | non_passive
        assert rejected.any() and not rejected.all() and not opaque.any()
        for i, j in np.ndindex(shape):
            cell_pol = ps.PolarizerParams(pol.eta_pol_V, float(eta_H[i]))
            cell_cav = cav.replace(g=float(g[j]))
            cell = fidelity_kernel(pdr, cell_pol, cell_cav, ps.params.DESIGN_R_CAV_H)
            assert (cell.degenerate, cell.non_passive, cell.opaque) \
                == (degenerate[i, j], non_passive[i, j], opaque[i, j])
            try:
                f_avg = ps.transfer_fidelity(pdr, cell_pol, cell_cav).f_avg
            except ps.ValidationError:
                assert rejected[i, j]
                continue
            assert not rejected[i, j]
            assert k.f_avg[i, j] == pytest.approx(f_avg, rel=0, abs=1e-12)


class TestLossBalance:
    def test_ideal_coefficients_balance(self):
        assert ps.loss_balance_residual(IDEAL_REFLECTIONS) == pytest.approx(0.0)

    def test_dead_v_arm_balances_trivially(self):
        eff = ps.EffectiveReflections(-0.7, -0.7, 0.0, 0.0)
        assert ps.loss_balance_residual(eff) == pytest.approx(0.0)

    def test_design_point_residual(self, design):
        eff = ps.effective_reflections(*design)
        assert ps.loss_balance_residual(eff) == pytest.approx(ORACLE_RESIDUAL, abs=1e-9)
