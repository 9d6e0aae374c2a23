"""Rate-model tests: per-attempt probabilities, sequence error probability,
constrained sequence length, expected timing, the average rate, the
repeaterless bound, and regime classification.

Closed forms are checked against term-by-term summation oracles; preset
probability values were frozen from an independent spreadsheet-style
evaluation of the published constants.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polspin as ps
from polspin import rate
from polspin.params import DESIGN
from polspin.rate import ATTEMPT_SEARCH_CAP, success_probability

# frozen oracle values, paper presets at eta_link = 1e-3
ORACLE_P_DET = 0.00023970209226331678
ORACLE_P_LOST = 0.999376045
ORACLE_P_E = 0.00038425290773669296

# frozen independent value of the device fidelity (see test_device oracle)
F0_DESIGN = 0.999845005849864

# 60-digit values from the mpmath oracle in benchmarks/oracle.py (design
# point, eta_link = 10^(-dB/10)), written out so that these tests run without
# mpmath. P_ERR maps (dB, n) to p_err(n); N_MAX_AND_RATE maps dB to the exact
# n_max and the rate there at F >= 0.95 with the program's f0.
ORACLE_P_E_120DB = 3.8425290773668318385e-13
ORACLE_PLOB_120DB = 8.3820581875690686876e-6
ORACLE_P_ERR = {
    (60, 2): 9.2106225942746184784e-14,
    (90, 1000): 4.6007046640119039495e-14,
    (120, 10**12): 0.034816150279695674167,
}
ORACLE_N_MAX_AND_RATE = {
    60: (1908407, 1.3925106745401693347),
    90: (1908407501, 0.0013926689975503602007),
    120: (1908407501620, 1.3926691558913711365e-6),
}
# oracle.max_attempts(F, partition(eta_link), f0, hi=2**54) with the
# program's f0, per dB for each F in ORACLE_TARGETS
ORACLE_TARGETS = (0.95, 0.97, 0.99, 0.9998)
ORACLE_N_MAX_PAST_120DB = {
    121: (2402542699848, 1734447747731, 911809881302, 56022908366),
    122: (3024622057759, 2183540345048, 1147900630296, 70528662985),
    123: (3807773569587, 2748914428058, 1445121273695, 88790326092),
    124: (4793702909111, 3460678228330, 1819299894578, 111780397838),
    125: (6034914408871, 4356735763688, 2290362868959, 140723183379),
    126: (7597507107331, 5484805365379, 2883396017963, 177159991585),
    127: (9564694763706, 6904960853221, 3629980519279, 223031215359),
    128: (12041237294084, 8692830685564, 4569874720039, 280779664639),
    129: (15159019618966, 10943625450481, 5753131413772, 353480654929),
    130: (19084075016203, 13777208176767, 7242763334189, 445005779068),
    131: (24025426998484, 17344477477311, 9118098813022, 560229083664),
    132: (30246220577597, 21835403450478, 11479006302964, 705286629850),
    133: (38077735695869, 27489144280585, 14451212736947, 887903260917),
    134: (47937029091111, 34606782283305, 18192998945786, 1117803978383),
    135: (60349144088716, 43567357636881, 22903628689594, 1407231833791),
    136: (75975071073313, 54848053653795, 28833960179628, 1771599915846),
    137: (95646947637062, 69049608532212, 36299805192795, 2230312153591),
    138: (120412372940843, 86928306855641, 45698747200388, 2807796646389),
    139: (151590196189664, 109436254504808, 57531314137726, 3534806549289),
    140: (190840750162031, 137772081767677, 72427633341896, 4450057790677),
    141: (240254269984843, 173444774773112, 91180988130223, 5602290836635),
    142: (302462205775976, 218354034504787, 114790063029640, 7052866298502),
    143: (380777356958693, 274891442805857, 144512127369468, 8879032609171),
    144: (479370290911117, 346067822833056, 181929989457859, 11178039783834),
    145: (603491440887168, 435673576368816, 229036286895944, 14072318337915),
    146: (759750710733133, 548480536537949, 288339601796283, 17715999158458),
    147: (956469476370619, 690496085322123, 362998051927951, 22303121535907),
    148: (1204123729408438, 869283068556417, 456987472003878, 28077966463887),
    149: (1515901961896645, 1094362545048083, 575313141377257, 35348065492892),
    150: (1908407501620318, 1377720817676770, 724276333418958, 44500577906766),
    151: (2402542699848435, 1734447747731124, 911809881302231, 56022908366354),
    152: (3024622057759759, 2183540345047869, 1147900630296401, 70528662985019),
    153: (3807773569586938, 2748914428058575, 1445121273694686, 88790326091707),
    154: (4793702909111178, 3460678228330567, 1819299894578592, 111780397838340),
    155: (6034914408871682, 4356735763688165, 2290362868959437, 140723183379148),
    156: (7597507107331330, 5484805365379494, 2883396017962828, 177159991584580),
}


def probs_of(p_det, p_lost):
    return ps.AttemptProbabilities(p_det=p_det, p_lost=p_lost)


@st.composite
def probability_triples(draw):
    p_det = draw(st.floats(1e-6, 0.99))
    p_lost = draw(st.floats(0.0, 1.0)) * (1 - p_det)
    return probs_of(p_det, p_lost)


class TestAttemptProbabilities:
    def test_dark_link(self):
        link = ps.design_link(eta_link=0.0)
        probs = ps.attempt_probabilities(ps.design_pdr(), ps.design_polarizer(), link)
        assert probs.p_det == 0.0
        assert probs.p_e == 0.0
        assert probs.p_lost == 1.0

    def test_lossless_everything(self):
        pdr = ps.PdrParams.from_power(T_V=1.0, R_H=1.0)
        pol = ps.PolarizerParams(eta_pol_V=1.0, eta_pol_H=1.0)
        link = ps.LinkParams(eta_link=1.0, eta_det=1.0, r_cav_V_avg=1.0, r_cav_H=1.0)
        probs = ps.attempt_probabilities(pdr, pol, link)
        assert probs.p_det == pytest.approx(1.0, abs=1e-12)
        assert probs.p_lost == pytest.approx(0.0, abs=1e-12)
        assert probs.p_e == pytest.approx(0.0, abs=1e-12)

    def test_paper_presets_match_oracle(self):
        probs = ps.attempt_probabilities(
            ps.design_pdr(), ps.design_polarizer(), ps.design_link(1e-3))
        assert probs.p_det == pytest.approx(ORACLE_P_DET, rel=1e-12)
        assert probs.p_lost == pytest.approx(ORACLE_P_LOST, rel=1e-12)
        assert probs.p_e == pytest.approx(ORACLE_P_E, rel=1e-9)

    @given(st.floats(1e-4, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=500)
    def test_partition_sums_to_one(self, eta_link, det_frac):
        link = ps.LinkParams(eta_link=eta_link, eta_det=det_frac,
                             r_cav_V_avg=0.356, r_cav_H=0.921)
        probs = ps.attempt_probabilities(
            ps.design_pdr(), ps.design_polarizer(), link)
        assert probs.p_det + probs.p_lost + probs.p_e == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("pdr_set,link_set", [
        ({}, {}),
        ({}, {"xi": 0.01}),
        ({"zeta_V": 0.005, "zeta_H": 0.01}, {}),
        ({}, {"eta_det": 0.5}),
    ], ids=["design", "xi", "zeta", "eta_det"])
    def test_error_channels(self, pdr_set, link_set):
        # p_e per unit link transmissivity is the sum of these named channels,
        # each halved for the two input polarizations
        pdr = ps.PdrParams.from_power(**{**DESIGN["pdr"], **pdr_set})
        pol = ps.design_polarizer()
        link = ps.LinkParams(**{**DESIGN["link"], **link_set})
        T_V, T_H, ev, eh = pdr.T_V, pdr.T_H, pol.eta_pol_V, pol.eta_pol_H
        rv, rh = link.r_cav_V_avg, link.r_cav_H
        bracket = T_V**2 * ev**2 * rv + pdr.R_V + T_H**2 * eh**2 * rh + pdr.R_H
        channels = {
            "V lost in the cavity": T_V * ev * (1 - rv),
            "V absorbed on its way back": T_V * ev * rv * (1 - ev),
            "V not transmitted on the way out": T_V * ev**2 * rv * (1 - T_V),
            "H leakage onto the spin": T_H * eh * link.xi,
            "H absorbed on its way back": T_H * eh * rh * (1 - eh),
            "H not transmitted on the way out": T_H * eh**2 * rh * (1 - T_H),
            "detector miss": (1 - link.eta_det) * bracket,
        }
        probs = ps.attempt_probabilities(pdr, pol, link)
        assert probs.p_e / link.eta_link == pytest.approx(
            sum(channels.values()) / 2, abs=1e-15)

    def test_single_polarization_form_recovered(self):
        # with both polarizations identical and no direct reflection,
        # p_det collapses to eta_link * T^2 * eta_pol^2 * R_cav * eta_det
        T, eta_pol, r_cav, eta_det, eta_link = 0.9, 0.95, 0.5, 0.8, 0.3
        pdr = ps.PdrParams(t_H=math.sqrt(T), r_H=0.0, t_V=math.sqrt(T), r_V=0.0)
        pol = ps.PolarizerParams(eta_pol_V=eta_pol, eta_pol_H=eta_pol)
        link = ps.LinkParams(eta_link=eta_link, eta_det=eta_det,
                             r_cav_V_avg=r_cav, r_cav_H=r_cav)
        probs = ps.attempt_probabilities(pdr, pol, link)
        assert probs.p_det == pytest.approx(
            eta_link * T**2 * eta_pol**2 * r_cav * eta_det, rel=1e-12)


def brute_force_sequence_error(n, probs):
    """Term-by-term sum over the click position m of its probability times
    the chance that an error preceded it, 1 - (p_lost / (1 - p_det))^(m - 1)."""
    pd = probs.p_det
    r = probs.p_lost / (1 - pd)
    return sum((1 - r ** (m - 1)) * (1 - pd) ** (m - 1) * pd for m in range(1, n + 1))


class TestSequenceError:
    def test_single_attempt(self):
        assert ps.sequence_error_probability(1, probs_of(0.1, 0.8)) \
            == pytest.approx(0.0, abs=1e-15)

    def test_no_error_channel(self):
        for n in (1, 3, 50):
            assert ps.sequence_error_probability(n, probs_of(0.2, 0.8)) \
                == pytest.approx(0.0, abs=1e-12)

    def test_brute_force_example(self):
        # frozen from term-by-term summation: pd=0.1, pl=0.8, n=5
        assert ps.sequence_error_probability(5, probs_of(0.1, 0.8)) \
            == pytest.approx(0.07334999999999997, rel=1e-12)

    def test_all_lost_limit(self):
        assert ps.sequence_error_probability(10, probs_of(0.0, 1.0)) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 10])
    def test_certain_click_carries_no_error(self, n):
        # p_e = 1e-13 completes p_det = 1 within the partition's tolerance,
        # but the first attempt always clicks, so no error precedes a click
        probs = ps.AttemptProbabilities(p_det=1.0, p_lost=0.0, p_e=1e-13)
        assert ps.sequence_error_probability(n, probs) == 0.0
        assert ps.protocol_fidelity(n, probs, 0.99) == 0.99

    @given(probability_triples(), st.integers(1, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_summation(self, probs, n):
        closed = ps.sequence_error_probability(n, probs)
        brute = brute_force_sequence_error(n, probs)
        assert closed == pytest.approx(brute, rel=1e-12, abs=1e-12)

    @given(probability_triples())
    @settings(max_examples=100)
    def test_vanishes_without_error_channel(self, probs):
        lossy = probs_of(probs.p_det, 1 - probs.p_det)  # p_e -> 0, p_det fixed
        for n in (1, 7, 300):
            assert ps.sequence_error_probability(n, lossy) \
                == pytest.approx(0.0, abs=1e-9)


class TestProtocolFidelity:
    def test_single_attempt_returns_f0(self):
        assert ps.protocol_fidelity(1, probs_of(0.1, 0.8), 0.987) \
            == pytest.approx(0.987, abs=1e-15)

    def test_fully_mixed_limit(self):
        probs = probs_of(1e-3, 0.0)  # nearly every attempt errors
        assert ps.protocol_fidelity(10**6, probs, 1.0) == pytest.approx(0.5, abs=1e-3)

    def test_composed_oracle_example(self):
        # frozen: f0=0.9999, pd=0.01, pl=0.97, n=50 via brute-force Eq sum
        assert ps.protocol_fidelity(50, probs_of(0.01, 0.97), 0.9999) \
            == pytest.approx(0.9327389059166649, rel=1e-12)

    @given(probability_triples(), st.floats(0.5, 1.0))
    @settings(max_examples=100)
    def test_non_increasing_in_n(self, probs, f0):
        fids = [ps.protocol_fidelity(n, probs, f0) for n in (1, 2, 5, 20, 100)]
        assert all(a >= b - 1e-12 for a, b in zip(fids, fids[1:]))


class TestMaxAttempts:
    def test_target_equals_f0(self):
        probs = probs_of(0.1, 0.8)
        assert ps.max_attempts(probs, 0.99, 0.99).n == 1

    def test_unbounded_without_error_channel(self):
        result = ps.max_attempts(probs_of(0.1, 0.9), 0.99, 0.95)
        assert result.unbounded

    def test_infeasible_target(self):
        with pytest.raises(ps.InfeasibleConstraintError):
            ps.max_attempts(probs_of(0.1, 0.8), 0.9, 0.95)

    def test_matches_linear_scan_at_10db(self):
        probs = ps.attempt_probabilities(
            ps.design_pdr(), ps.design_polarizer(), ps.design_link(0.1))
        result = ps.max_attempts(probs, F0_DESIGN, 0.99)
        assert result.n == 7  # frozen from an independent linear scan
        assert ps.protocol_fidelity(result.n, probs, F0_DESIGN) >= 0.99
        assert ps.protocol_fidelity(result.n + 1, probs, F0_DESIGN) < 0.99

    @given(probability_triples(), st.floats(0.6, 0.99), st.floats(0.9, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_boundary_property(self, probs, f_target, f0):
        if f_target > f0 or probs.p_e == 0:
            return
        result = ps.max_attempts(probs, f0, f_target)
        if result.cap_reached or result.unbounded:
            return
        # protocol_fidelity(n) >= f_target solved for p_err, the form the
        # search decides on; the rounded fidelity at n + 1 can round back
        # to f_target where p_err(n + 1) exceeds the budget
        budget = (f0 - f_target) / (f0 - 0.5)
        assert ps.sequence_error_probability(result.n, probs) <= budget
        assert ps.sequence_error_probability(result.n + 1, probs) > budget

    def test_budget_decides_where_the_rounded_fidelity_ties(self):
        # f_target = f0 leaves no budget: p_err(2) = p_det p_e > 0 fails it,
        # though (1 - p_err) f0 + p_err / 2 rounds back to f0
        probs = ps.AttemptProbabilities(p_det=0.5, p_lost=0.5 - 2.0**-54, p_e=2.0**-54)
        assert ps.protocol_fidelity(2, probs, 0.9375) == 0.9375
        assert ps.max_attempts(probs, 0.9375, 0.9375).n == 1

    @pytest.mark.parametrize("eta_link", [1e-200, 1e-310])
    def test_target_equals_f0_where_p_det_p_e_underflows(self, eta_link):
        # no budget fits only n = 1, though p_err(2) = p_det p_e rounds to 0
        pdr, pol, link, timing = (ps.design_pdr(), ps.design_polarizer(),
                                  ps.design_link(eta_link), ps.design_timing())
        f0 = ps.transfer_fidelity(pdr, pol, ps.design_cavity()).f_avg
        probs = ps.attempt_probabilities(pdr, pol, link)
        assert probs.p_det > 0.0 and probs.p_e > 0.0 and probs.p_det * probs.p_e == 0.0
        assert ps.max_attempts(probs, f0, f0) == ps.MaxAttempts(n=1)
        curves = rate.rate_curves(pdr, pol, link, timing, np.array([eta_link]), f0, (f0,))
        assert curves.n_max.tolist() == [[1.0]]
        assert not curves.cap_reached.any() and not curves.infeasible.any()
        res = ps.transfer_rate(pdr, pol, ps.design_cavity(), link, timing, f0)
        assert (res.n_max, res.cap_reached) == (1, False)
        assert curves.rate[0, 0] == res.rate

    def test_certain_click_is_decided_without_a_search(self):
        # p_err is 0 at every n, so every sequence length fits any budget
        probs = ps.AttemptProbabilities(p_det=1.0, p_lost=0.0, p_e=1e-13)
        for f_target in (0.99, 0.99 - 1e-15):
            assert ps.max_attempts(probs, 0.99, f_target) \
                == ps.MaxAttempts(n=ATTEMPT_SEARCH_CAP, cap_reached=True)

    @pytest.mark.parametrize("f_target", [math.nan, -0.1, 1.5])
    def test_target_outside_unit_interval_is_refused(self, f_target):
        # a NaN target once passed as met after one attempt: its budget is
        # NaN, no p_err fits it, and the search stayed at n = 1
        message = f"f_target out of [0,1]: {f_target}"
        with pytest.raises(ps.ValidationError, match=re.escape(message)):
            ps.max_attempts(probs_of(0.1, 0.8), 0.9998, f_target)
        with pytest.raises(ps.ValidationError, match=re.escape(message)):
            ps.transfer_rate(ps.design_pdr(), ps.design_polarizer(), ps.design_cavity(),
                             ps.design_link(1e-3), ps.design_timing(), f_target)

    @pytest.mark.parametrize("f_target", [math.nan, -0.1, 1.5])
    def test_constraint_outside_unit_interval_is_refused_on_arrays(self, f_target):
        pdr, pol, link, timing = (ps.design_pdr(), ps.design_polarizer(),
                                  ps.design_link(1.0), ps.design_timing())
        with pytest.raises(ps.ValidationError,
                           match=re.escape(f"constraint out of [0,1]: {f_target}")):
            rate.rate_curves(pdr, pol, link, timing, np.array([1e-3, 1e-6]), F0_DESIGN,
                             (0.95, f_target))

    @pytest.mark.parametrize("f0", [math.nan, -0.1, 1.5])
    def test_f0_outside_unit_interval_is_refused(self, f0):
        # f0 = NaN once gave n = 1 and f0 = 1.5 unbounded at the cap
        with pytest.raises(ps.ValidationError, match=re.escape(f"f0 out of [0,1]: {f0}")):
            ps.max_attempts(probs_of(0.1, 0.8), f0, 0.9)

    @pytest.mark.parametrize("f0", [math.nan, -0.1, 1.5])
    def test_f0_outside_unit_interval_is_refused_on_arrays(self, f0):
        # f0 = NaN once gave n_max 1 and f0 = 1.5 n_max 11 327 at 30 dB
        with pytest.raises(ps.ValidationError, match=re.escape(f"f0 out of [0,1]: {f0}")):
            rate.rate_curves(ps.design_pdr(), ps.design_polarizer(), ps.design_link(1.0),
                             ps.design_timing(), np.array([1e-3]), f0, (0.95,))

    def test_target_above_f0_inside_unit_interval_stays_infeasible(self):
        with pytest.raises(ps.InfeasibleConstraintError):
            ps.max_attempts(probs_of(0.1, 0.8), 0.9, 1.0)
        curves = rate.rate_curves(ps.design_pdr(), ps.design_polarizer(), ps.design_link(1.0),
                                  ps.design_timing(), np.array([1e-3]), F0_DESIGN, (1.0,))
        assert curves.infeasible.all() and np.isnan(curves.n_max).all()

    def test_f0_of_one_half_is_unbounded(self):
        # every feasible target is met by any sequence; B, which would
        # divide by f0 - 1/2 = 0, is not formed
        assert ps.max_attempts(probs_of(0.1, 0.8), 0.5, 0.4) \
            == ps.MaxAttempts(n=ATTEMPT_SEARCH_CAP, unbounded=True)


class TestExpectedTimes:
    TIMING = ps.ProtocolTiming(tau_reset=2e-5, tau_pulse=1e-7)

    def test_failure_time_zero_when_certain(self):
        assert ps.expected_failure_time(5, probs_of(1.0, 0.0), self.TIMING) == 0.0

    def test_one_expected_failure(self):
        t = ps.expected_failure_time(1, probs_of(0.5, 0.3), self.TIMING)
        assert t == pytest.approx(self.TIMING.tau_slot + self.TIMING.tau_reset,
                                  rel=1e-12)

    def test_success_time_certain_click(self):
        t = ps.expected_success_time(3, probs_of(1.0, 0.0), self.TIMING)
        assert t == pytest.approx(self.TIMING.tau_reset + self.TIMING.tau_slot,
                                  rel=1e-12)

    def test_success_time_single_attempt(self):
        pd = 0.4
        t = ps.expected_success_time(1, probs_of(pd, 0.3), self.TIMING)
        assert t == pytest.approx(self.TIMING.tau_reset + self.TIMING.tau_slot * pd,
                                  rel=1e-12)

    def test_success_time_direct_sum_example(self):
        # frozen direct sum: pd=0.3, N=7, tau_reset=2e-5, tau_slot=1e-7
        t = ps.expected_success_time(7, probs_of(0.3, 0.5), self.TIMING)
        assert t == pytest.approx(2.0248233890000002e-05, rel=1e-12)

    @given(probability_triples(), st.integers(1, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_direct_sum(self, probs, n):
        pd = probs.p_det
        closed = ps.expected_success_time(n, probs, self.TIMING)
        direct = self.TIMING.tau_reset + sum(
            m * self.TIMING.tau_slot * (1 - pd) ** (m - 1) * pd
            for m in range(1, n + 1))
        assert closed == pytest.approx(direct, rel=1e-12)

    def test_conditional_variant_divides_click_term(self):
        # transfer_rate's t_success is the conditional duration of the
        # successful sequence: the click term divided by p_success
        pdr, pol, link = ps.design_pdr(), ps.design_polarizer(), ps.design_link(1e-2)
        res = ps.transfer_rate(pdr, pol, ps.design_cavity(), link, self.TIMING,
                               f_target=0.97)
        probs = ps.attempt_probabilities(pdr, pol, link)
        p_succ = success_probability(res.n_max, probs)
        plain = ps.expected_success_time(res.n_max, probs, self.TIMING)
        click = plain - self.TIMING.tau_reset
        assert res.p_success == p_succ
        assert res.t_success == pytest.approx(self.TIMING.tau_reset + click / p_succ,
                                              rel=1e-12)


def length_calls(probs, timing):
    """The functions that take a sequence length, as functions of it."""
    return {
        "sequence_error_probability": lambda n: ps.sequence_error_probability(n, probs),
        "protocol_fidelity": lambda n: ps.protocol_fidelity(n, probs, 0.99),
        "success_probability": lambda n: success_probability(n, probs),
        "expected_failure_time": lambda n: ps.expected_failure_time(n, probs, timing),
        "expected_success_time": lambda n: ps.expected_success_time(n, probs, timing),
    }


class TestSequenceLength:
    """A sequence length is a whole number >= 1: 2.0 and numpy integers are
    taken as 2, and a fraction or a non-finite n is refused rather than
    truncated."""

    TIMING = ps.ProtocolTiming(tau_reset=2e-5, tau_pulse=1e-7)
    NAMES = sorted(length_calls(None, None))

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("n", [2.5, 0.5, 1e15 + 0.5, np.float64(2.5), math.inf,
                                   -math.inf, np.inf, math.nan, 0, -1, np.int64(0)])
    @pytest.mark.parametrize("p_det", [0.1, 0.0])
    def test_refused(self, name, n, p_det):
        # p_det = 0 takes the dark-link shortcuts, which must not skip the check
        call = length_calls(probs_of(p_det, 0.8), self.TIMING)[name]
        with pytest.raises(ValueError, match="n must be a whole number >= 1"):
            call(n)

    @pytest.mark.parametrize("name", NAMES)
    def test_whole_floats_and_numpy_integers(self, name):
        call = length_calls(probs_of(0.1, 0.8), self.TIMING)[name]
        want = call(2)
        for n in (2.0, np.int64(2), np.float64(2.0)):
            assert call(n) == want


class TestTransferRate:
    def test_headline_30db(self):
        res = ps.transfer_rate(ps.design_pdr(), ps.design_polarizer(),
                               ps.design_cavity(), ps.design_link(1e-3),
                               ps.design_timing(), f_target=0.95)
        assert res.rate >= 1e3

    def test_perfect_device_rate(self):
        pdr = ps.PdrParams.from_power(T_V=1.0, R_H=1.0)
        pol = ps.PolarizerParams(eta_pol_V=1.0, eta_pol_H=1.0)
        link = ps.LinkParams(eta_link=1.0, eta_det=1.0, r_cav_V_avg=1.0, r_cav_H=1.0)
        cav = ps.CavityParams.from_ratios(1.0, 1e9)
        timing = ps.design_timing()
        res = ps.transfer_rate(pdr, pol, cav, link, timing, f_target=0.95)
        assert res.rate == pytest.approx(
            1 / (timing.tau_reset + timing.tau_slot), rel=1e-9)

    def test_rate_invariant_holds(self):
        res = ps.transfer_rate(ps.design_pdr(), ps.design_polarizer(),
                               ps.design_cavity(), ps.design_link(1e-2),
                               ps.design_timing(), f_target=0.97)
        assert res.rate == pytest.approx(1 / (res.t_failures + res.t_success),
                                         rel=1e-12)
        assert res.p_success == pytest.approx(
            1 - (1 - ORACLE_P_DET * 10) ** res.n_max, rel=1e-9)

    def test_monotone_in_f_target(self):
        args = (ps.design_pdr(), ps.design_polarizer(), ps.design_cavity(),
                ps.design_link(1e-2), ps.design_timing())
        rates = [ps.transfer_rate(*args, f_target=f).rate
                 for f in (0.95, 0.97, 0.98, 0.99)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_monotone_in_loss(self):
        rates = []
        for db in (5, 10, 20, 30, 40):
            link = ps.design_link(10 ** (-db / 10))
            rates.append(ps.transfer_rate(
                ps.design_pdr(), ps.design_polarizer(), ps.design_cavity(),
                link, ps.design_timing(), f_target=0.95).rate)
        assert all(a >= b for a, b in zip(rates, rates[1:]))


    @pytest.mark.parametrize("f_target", [0.95, 0.99, 0.9998])
    def test_p_error_is_the_walk_at_n_max(self, f_target):
        # p_error comes from the n_max search's own walk: it must be the
        # bits of a fresh walk, out to the search cap, and at the design
        # point the search walks every n_max itself, save where the exact
        # re-test moves the search's n down; the new n is then walked apart
        moved = {(0.95, 140), (0.95, 156), (0.99, 150)}
        f0 = ps.transfer_fidelity(ps.design_pdr(), ps.design_polarizer(),
                                  ps.design_cavity()).f_avg
        for db in range(0, 157):
            link = ps.design_link(10 ** (-db / 10))
            res = ps.transfer_rate(ps.design_pdr(), ps.design_polarizer(),
                                   ps.design_cavity(), link, ps.design_timing(),
                                   f_target=f_target)
            probs = ps.attempt_probabilities(ps.design_pdr(), ps.design_polarizer(), link)
            assert res.p_error == ps.sequence_error_probability(res.n_max, probs), db
            walked = rate._attempt_limit(probs.p_det, probs.p_e, f0, f_target, rate._PyMath)[3]
            if (f_target, db) in moved:
                assert math.isnan(walked), db
            else:
                assert walked == res.p_error, db

    @pytest.mark.parametrize("db", [30, 60])
    def test_one_walk_per_call(self, monkeypatch, db):
        walks = []
        walk = rate._error_terms
        monkeypatch.setattr(rate, "_error_terms",
                            lambda n, *args: walks.append(n) or walk(n, *args))
        res = ps.transfer_rate(ps.design_pdr(), ps.design_polarizer(), ps.design_cavity(),
                               ps.design_link(10 ** (-db / 10)), ps.design_timing(),
                               f_target=0.95)
        assert walks == [res.n_max]

    def test_p_error_where_the_exact_test_moves_n_max(self):
        # the search ends on 7597387143805503 with its walk there, which
        # reads p_err about 12 ulp of B low, where one attempt moves p_err
        # by a third of an ulp. The exact test moves n down 28 attempts to
        # the 80-digit boundary on both paths and reports NaN for p_err,
        # and _decide_attempts' p_err is then a walk at the new n
        p_det, p_e = 2.1097193042672393e-16, 0.014198005348750957
        f0, f_target = 0.9948660569353225, 0.5996288420986686
        probs = ps.AttemptProbabilities(p_det=p_det, p_lost=1.0 - p_det - p_e, p_e=p_e)
        budget = (f0 - f_target) / (f0 - 0.5)
        assert rate._search(1.0, p_det, p_e, budget, rate._PyMath)[0] == 7597387143805503
        n, _, _, walked = rate._attempt_limit(p_det, p_e, f0, f_target, rate._PyMath)
        assert n == 7597387143805475 and math.isnan(walked)
        on_arrays = rate._attempt_limit(np.array([p_det]), np.array([p_e]), f0,
                                        np.array([f_target]), np)[0]
        assert on_arrays[0] == n
        nm, p_err = rate._decide_attempts(probs, f0, f_target)
        assert nm == ps.max_attempts(probs, f0, f_target)
        assert nm.n == n and p_err == ps.sequence_error_probability(n, probs)

    def test_n_max_within_budget_where_an_increment_admits_a_walked_miss(self):
        # at 133.31 dB, F >= 0.95 the walk at 40895084983292 exceeds B, and
        # the walk one below plus its increment lands on B: n_max is the
        # walked one below (the oracle's), on the scalar and the array path
        pdr, pol, cav, timing = (ps.design_pdr(), ps.design_polarizer(), ps.design_cavity(),
                                 ps.design_timing())
        eta = 10 ** (-133.31 / 10)
        link = ps.design_link(eta)
        f0 = ps.transfer_fidelity(pdr, pol, cav).f_avg
        budget = (f0 - 0.95) / (f0 - 0.5)
        probs = ps.attempt_probabilities(pdr, pol, link)
        p, dp = rate._error_terms(40895084983291.0, probs.p_det, probs.p_e, rate._PyMath)
        assert p + dp <= budget
        assert rate._error_terms(40895084983292.0, probs.p_det, probs.p_e, rate._PyMath)[0] > budget
        res = ps.transfer_rate(pdr, pol, cav, link, timing, f_target=0.95)
        assert res.n_max == 40895084983291
        assert res.p_error <= budget
        curves = rate.rate_curves(pdr, pol, link, timing, np.array([eta]), f0, (0.95,))
        assert curves.n_max[0, 0] == 40895084983291

    @pytest.mark.parametrize("db,j", [(140, 0), (150, 1)])
    def test_transfer_rate_n_max_is_the_oracles_within_budget(self, db, j):
        # at 140 dB, F >= 0.95 the walk at the oracle's n_max + 1 reads
        # p_err 2.4 ulp low, 1 ulp under B, and the exact re-test refuses
        # it; at 150 dB, F >= 0.97 the search's own candidate stands. Either
        # way n_max is the oracle's, its walked p_error fits the budget, and
        # the array path agrees
        f_target = ORACLE_TARGETS[j]
        pdr, pol, cav, timing = (ps.design_pdr(), ps.design_polarizer(), ps.design_cavity(),
                                 ps.design_timing())
        link = ps.design_link(10 ** (-db / 10))
        f0 = ps.transfer_fidelity(pdr, pol, cav).f_avg
        res = ps.transfer_rate(pdr, pol, cav, link, timing, f_target=f_target)
        assert res.n_max == ORACLE_N_MAX_PAST_120DB[db][j]
        assert res.p_error <= (f0 - f_target) / (f0 - 0.5)
        curves = rate.rate_curves(pdr, pol, link, timing, np.array([link.eta_link]), f0,
                                  (f_target,))
        assert curves.n_max[0, 0] == res.n_max

    @pytest.mark.parametrize("xp", [rate._PyMath, np], ids=["scalar", "array"])
    def test_n_max_within_budget_where_a_walk_undoes_an_increment(self, monkeypatch, xp):
        # the walk at n and its increment admit n + 1, whose own walk reads
        # p_err above B (walked after n on the scalar path, before it on the
        # array path): the search ends at n with n's walk, and the exact
        # test moves it up to n + 1, the 80-digit boundary, without a walk
        import mpmath

        p_det, p_e = 7.458849165342574e-16, 1.195686050584729e-15
        f0 = 0.9998450058498642
        budget = (f0 - 0.95) / (f0 - 0.5)
        walks = {}
        walk = rate._error_terms
        monkeypatch.setattr(rate, "_error_terms", lambda n, *args: walks.setdefault(
            float(np.ravel(n)[0]), walk(n, *args)))
        args = (p_det, p_e, f0, 0.95) if xp is rate._PyMath else (
            np.array([p_det]), np.array([p_e]), f0, np.array([0.95]))
        n, _, _, p_err = rate._attempt_limit(*args, xp)
        assert n == 613297387960238 and np.isnan(p_err)
        assert sorted(walks) == [613297387960237, 613297387960238]
        assert walks[613297387960238][0] > budget
        with mpmath.workdps(80):
            pd, pe, f = mpmath.mpf(p_det), mpmath.mpf(p_e), mpmath.mpf(f0)
            exact_budget = (f - mpmath.mpf(0.95)) / (f - mpmath.mpf(0.5))

            def p_err_at(m):
                return 1 - (1 - pd) ** m - pd / (pd + pe) * (1 - (1 - pd - pe) ** m)

            assert p_err_at(613297387960238) <= exact_budget < p_err_at(613297387960239)

    def test_n_max_is_the_boundary_where_the_walk_at_n_max_plus_1_reads_high(self):
        # at 142.27 dB, F >= 0.95 the walk puts p_err(321863044553232) one
        # ulp above B, while its exact value at the same p_det and p_e fits:
        # the exact test moves n_max up to it on both paths
        pdr, pol, cav, timing = (ps.design_pdr(), ps.design_polarizer(), ps.design_cavity(),
                                 ps.design_timing())
        link = ps.design_link(5.929253245799994e-15)
        f0 = ps.transfer_fidelity(pdr, pol, cav).f_avg
        res = ps.transfer_rate(pdr, pol, cav, link, timing, f_target=0.95)
        assert res.n_max == 321863044553232
        curves = rate.rate_curves(pdr, pol, link, timing, np.array([link.eta_link]), f0,
                                  (0.95,))
        assert curves.n_max[0, 0] == res.n_max


def design_probs(db):
    return ps.attempt_probabilities(ps.design_pdr(), ps.design_polarizer(),
                                    ps.design_link(10 ** (-db / 10)))


class TestLossExactKernel:
    """The rate kernel keeps its digits at any link loss: p_e is an exact
    product, p_err a sum of positive terms, and the n_max search has no cap
    below 2**53."""

    def test_error_channel_is_exact_at_high_loss(self):
        assert design_probs(120).p_e == pytest.approx(ORACLE_P_E_120DB, rel=1e-14)

    def test_explicit_p_e_is_checked(self):
        probs = ps.AttemptProbabilities(p_det=0.1, p_lost=0.5, p_e=0.4)
        assert probs.p_e == 0.4
        with pytest.raises(ps.ValidationError):
            ps.AttemptProbabilities(p_det=0.1, p_lost=0.5, p_e=0.3)

    @pytest.mark.parametrize("db,n", sorted(ORACLE_P_ERR))
    def test_sequence_error_matches_oracle(self, db, n):
        assert ps.sequence_error_probability(n, design_probs(db)) \
            == pytest.approx(ORACLE_P_ERR[db, n], rel=1e-14)

    @pytest.mark.parametrize("db", sorted(ORACLE_N_MAX_AND_RATE))
    def test_transfer_rate_matches_oracle(self, db):
        n_max, rate = ORACLE_N_MAX_AND_RATE[db]
        res = ps.transfer_rate(ps.design_pdr(), ps.design_polarizer(),
                               ps.design_cavity(), ps.design_link(10 ** (-db / 10)),
                               ps.design_timing(), f_target=0.95)
        assert (res.n_max, res.cap_reached, res.unbounded) == (n_max, False, False)
        assert res.rate == pytest.approx(rate, rel=1e-12)

    def test_n_max_matches_oracle_past_120_db(self):
        # Where the double cannot order p_err(n) or p_err(n + 1) against
        # the budget B, the exact test decides, so up to 145 dB both paths
        # give the oracle's n_max exactly. From 146 dB one attempt moves p_err by a few ulp of B
        # (about 7e-17 against B near 0.1 at 150 dB), below the rounding of
        # p_det and p_e themselves, and n_max may land up to 2 attempts off;
        # every point is still checked.
        f0 = ps.transfer_fidelity(ps.design_pdr(), ps.design_polarizer(),
                                  ps.design_cavity()).f_avg
        dbs = sorted(ORACLE_N_MAX_PAST_120DB)
        probs = [design_probs(db) for db in dbs]
        p_det, p_e = (np.array([getattr(p, name) for p in probs]) for name in ("p_det", "p_e"))
        for j, f_target in enumerate(ORACLE_TARGETS):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                on_arrays = rate._attempt_limit(p_det, p_e, f0, np.full(len(dbs), f_target), np)[0]
            for db, pr, n in zip(dbs, probs, on_arrays):
                want, slack = ORACLE_N_MAX_PAST_120DB[db][j], 0 if db <= 145 else 2
                for got in (ps.max_attempts(pr, f0, f_target).n, int(n)):
                    assert abs(got - want) <= slack, (db, f_target, got, want)

    def test_bound_keeps_its_digits(self):
        assert ps.repeaterless_bound(1e-12, ps.design_timing()) \
            == pytest.approx(ORACLE_PLOB_120DB, rel=1e-14)

    def test_cap_reached_past_2_to_the_53(self):
        # 170 dB needs about 1.9e17 attempts at F >= 0.95
        res = ps.max_attempts(design_probs(170), F0_DESIGN, 0.95)
        assert res == ps.MaxAttempts(n=ATTEMPT_SEARCH_CAP, cap_reached=True)
        assert ATTEMPT_SEARCH_CAP == 2**53

    def test_unbounded_exactly_when_the_limit_fits(self):
        # p_err rises to p_e / (p_det + p_e) = 0.5; with f0 = 0.9 the budget
        # (0.9 - F) / 0.4 holds it for every F <= 0.7
        probs = probs_of(0.1, 0.8)
        assert ps.max_attempts(probs, 0.9, 0.7) \
            == ps.MaxAttempts(n=ATTEMPT_SEARCH_CAP, unbounded=True)
        bounded = ps.max_attempts(probs, 0.9, 0.71)
        assert not bounded.unbounded and not bounded.cap_reached
        assert ps.protocol_fidelity(bounded.n, probs, 0.9) >= 0.71
        assert ps.protocol_fidelity(bounded.n + 1, probs, 0.9) < 0.71


def floor_divide_walk(n, p_det, p_e, xp):
    """_error_terms with n's leading digits taken by // on either path: the
    reference the kernel's digit arithmetic must match bit for bit."""
    exp, expm1 = xp.exp, xp.expm1
    lq, lr = xp.log1p(-p_det), rate._log_ratio(p_det, p_e, xp)
    inv_s = 1.0 / (p_det + p_e)
    top = math.frexp(float(np.max(n)))[1] - 1
    m, total = n // 2.0**top, 0.0
    for k in range(top - 1, -1, -1):
        a, b = m * lq, m * lr
        q_m, one_less_r_m = exp(a), -expm1(b)
        step = q_m * one_less_r_m
        half = n // 2.0**k
        total = (total * (1.0 + q_m) - step * expm1(a + b) * inv_s
                 + (half - 2.0 * m) * (step * q_m * (2.0 - one_less_r_m)))
        m = half
    return p_det * total, -p_det * exp(n * lq) * expm1(n * lr)


def log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def walk_inputs(seed, draws):
    """n = 1, 2, 2**k - 1, 2**k + 1 and 2**53, then log-uniform whole n up to
    2**53; p_det and p_e log-uniform over [1e-16, 0.9]."""
    rng = np.random.default_rng(seed)
    edges = ([1.0, 2.0, 2.0**53] + [2.0**k - 1 for k in range(2, 54)]
             + [2.0**k + 1 for k in range(1, 53)])
    n = np.concatenate([edges, np.floor(log_uniform(rng, 1.0, 2.0**53, draws))])
    return n, log_uniform(rng, 1e-16, 0.9, n.size), log_uniform(rng, 1e-16, 0.9, n.size)


class TestDigitWalk:
    """p_err's walk reads n's binary digits as floor(n 2**-k) on arrays and
    on Python floats; both must give what // gives, bit for bit, and the
    n_max search must land on the same n on both paths."""

    def test_array_walk_matches_floor_division(self):
        n, p_det, p_e = walk_inputs(1, 4000)
        got, want = rate._error_terms(n, p_det, p_e, np), floor_divide_walk(n, p_det, p_e, np)
        for g, w in zip(got, want):
            assert np.isfinite(w).all()
            assert np.array_equal(g, w)

    def test_array_walk_matches_floor_division_per_magnitude(self):
        # one array per n: the top digit follows each n, not the largest
        n, p_det, p_e = walk_inputs(2, 200)
        for i in range(n.size):
            args = n[i:i + 1], p_det[i:i + 1], p_e[i:i + 1]
            got, want = rate._error_terms(*args, np), floor_divide_walk(*args, np)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("shape", ["ones", "unsorted_repeats", "strided_view",
                                       "infinite_inverse"])
    def test_array_walk_in_its_own_order(self, shape):
        # the array walk orders the points by n, starts each at its own top
        # digit and reuses its buffers: its inputs must come back untouched,
        # and neither all-ones n (no digit to walk), n's order, repeats, a
        # strided view nor a point whose 1 / (p_det + p_e) is inf (NaN in the
        # reference: every point must then walk every digit) may change a bit
        n, p_det, p_e = walk_inputs(6, 300)
        if shape == "ones":
            n = np.ones(n.size)
        elif shape == "unsorted_repeats":
            n = np.random.default_rng(5).permutation(np.repeat(n[::2], 2)[:n.size])
        elif shape == "strided_view":
            n = np.repeat(n, 2)[::2]
            assert not n.flags.c_contiguous
        else:
            p_det[:3] = p_e[:3] = 1e-310
        kept = n.copy(), p_det.copy(), p_e.copy()
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            got = rate._error_terms(n, p_det, p_e, np)
            want = floor_divide_walk(*kept, np)
        for now, before in zip((n, p_det, p_e), kept):
            assert np.array_equal(now, before)
        assert np.isnan(want[0]).any() == (shape == "infinite_inverse")
        for g, w in zip(got, want):
            assert np.array_equal(g, w, equal_nan=True)
        if shape == "ones":
            assert not got[0].any()

    def test_float_walk_matches_floor_division(self):
        n, p_det, p_e = walk_inputs(3, 300)
        for i in range(n.size):
            pd, pe = float(p_det[i]), float(p_e[i])
            for whole in (float(n[i]), int(n[i])):
                assert rate._error_terms(whole, pd, pe, rate._PyMath) \
                    == floor_divide_walk(whole, pd, pe, rate._PyMath)

    @pytest.mark.parametrize("guess_steps", [0, rate._GUESS_STEPS])
    def test_bisection_matches_the_scalar_search(self, monkeypatch, guess_steps):
        # With no Newton step past the first candidate, every later one is
        # the bracket's midpoint, on arrays and on floats alike. The search
        # tests p_err <= B, which is monotone in p_err, and the exact test
        # settles every answer the double cannot order against B, so every
        # path must land on the scalar search's n_max.
        cases = [(db, design_probs(db), f) for db in [*range(0, 121, 5), *range(121, 157)]
                 for f in (0.95, 0.99, 0.9998)]
        rng = np.random.default_rng(4)
        for _ in range(60):
            p_det, p_e = map(float, log_uniform(rng, 1e-8, 0.3, 2))
            probs = ps.AttemptProbabilities(p_det=p_det, p_lost=1.0 - p_det - p_e, p_e=p_e)
            cases.append((0, probs, F0_DESIGN - float(log_uniform(rng, 1e-6, 0.4, 1)[0])))
        want = [ps.max_attempts(probs, F0_DESIGN, f) for _, probs, f in cases]
        monkeypatch.setattr(rate, "_NEWTON_STEPS", 0)
        monkeypatch.setattr(rate, "_GUESS_STEPS", guess_steps)
        on_floats = [ps.max_attempts(probs, F0_DESIGN, f) for _, probs, f in cases]
        p_det, p_e, f_target = (np.array(v) for v in zip(
            *((probs.p_det, probs.p_e, f) for _, probs, f in cases)))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            n, unbounded, cap_reached, _ = rate._attempt_limit(p_det, p_e, F0_DESIGN, f_target, np)
        on_arrays = [ps.MaxAttempts(n=int(n[i]), unbounded=bool(unbounded[i]),
                                    cap_reached=bool(cap_reached[i]))
                     for i in range(len(cases))]
        for got in (on_floats, on_arrays):
            for (db, _, _), g, w in zip(cases, got, want):
                assert (g.unbounded, g.cap_reached) == (w.unbounded, w.cap_reached)
                assert g.n == w.n, (db, g, w)


class TestRepeaterlessBound:
    def test_small_transmissivity_series(self):
        timing = ps.ProtocolTiming(tau_reset=1.0, tau_pulse=1e-7)
        eta = 1e-6
        assert ps.repeaterless_bound(eta, timing) == pytest.approx(
            eta / (math.log(2) * timing.tau_slot), rel=1e-5)

    def test_half_transmissivity(self):
        timing = ps.ProtocolTiming(tau_reset=1.0, tau_pulse=1e-7)
        assert ps.repeaterless_bound(0.5, timing) == pytest.approx(
            1 / timing.tau_slot, rel=1e-12)

    def test_design_slot_example(self):
        timing = ps.ProtocolTiming(tau_reset=1.0, tau_pulse=172e-9)
        assert ps.repeaterless_bound(1e-3, timing) == pytest.approx(8.39e3, rel=1e-2)


class TestRegime:
    TIMING = ps.ProtocolTiming(tau_reset=30e-6, tau_pulse=172e-9)

    def test_tight_constraint_is_regime_1(self):
        assert ps.classify_regime(1, self.TIMING) == 1

    def test_long_sequences_are_regime_3(self):
        n = int(2 * self.TIMING.tau_reset / self.TIMING.tau_slot)
        assert ps.classify_regime(n, self.TIMING) == 3

    def test_intermediate_is_regime_2(self):
        assert ps.classify_regime(50, self.TIMING) == 2
