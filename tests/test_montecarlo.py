"""Monte Carlo tests: determinism, degenerate inputs, statistical agreement
of outcome frequencies with the attempt partition, and rate agreement with
the analytic model."""

import math

import numpy as np
import pytest

import polspin as ps
from polspin.montecarlo import McConfig, NoDetectionError
from polspin.rate import success_probability

TIMING = ps.ProtocolTiming(tau_reset=30e-6, tau_pulse=1 / 5.81e6)


def probs_of(p_det, p_lost):
    return ps.AttemptProbabilities(p_det=p_det, p_lost=p_lost)


class TestSimulateTrial:
    def test_certain_detection(self):
        rng = np.random.default_rng(0)
        res = ps.simulate_trial(probs_of(1.0, 0.0), 5, TIMING, rng)
        assert res.attempts_used == 1
        assert res.sequences_used == 1
        assert not res.error_occurred
        assert res.elapsed == pytest.approx(TIMING.tau_reset + TIMING.tau_slot)

    def test_all_lost_hits_attempt_cap(self):
        rng = np.random.default_rng(0)
        with pytest.raises(NoDetectionError):
            ps.simulate_trial(probs_of(0.0, 1.0), 10, TIMING, rng, attempt_cap=1000)

    def test_attempt_cap_binds_inside_a_sequence(self):
        # an unbounded constraint gives n_max = 2**53: the cap must still end
        # a sequence that never clicks
        rng = np.random.default_rng(0)
        with pytest.raises(NoDetectionError):
            ps.simulate_trial(probs_of(0.0, 1.0), 2**53, TIMING, rng, attempt_cap=1000)

    def test_elapsed_reconstructible_from_counts(self):
        rng = np.random.default_rng(7)
        probs = probs_of(0.05, 0.9)
        for _ in range(20):
            res = ps.simulate_trial(probs, 13, TIMING, rng)
            expect = (res.sequences_used * TIMING.tau_reset
                      + res.attempts_used * TIMING.tau_slot)
            assert res.elapsed == pytest.approx(expect, rel=1e-12)
            assert res.attempts_used > (res.sequences_used - 1) * 13

    def test_seeded_regression(self):
        # golden master from the first verified run at the 20 dB preset
        probs = ps.attempt_probabilities(
            ps.design_pdr(), ps.design_polarizer(), ps.design_link(1e-2))
        res = ps.simulate_trial(probs, 190, TIMING, np.random.default_rng(12345))
        assert (res.attempts_used, res.sequences_used, res.error_occurred) \
            == (187, 1, False)
        assert res.elapsed == pytest.approx(
            TIMING.tau_reset + 187 * TIMING.tau_slot, rel=1e-12)


class TestSimulateRate:
    def test_deterministic_under_fixed_seed(self):
        probs = probs_of(0.02, 0.93)
        cfg = McConfig(trials=50, seed=99)
        a = ps.simulate_rate(probs, 40, TIMING, cfg)
        b = ps.simulate_rate(probs, 40, TIMING, cfg)
        assert a == b

    def test_certain_detection_rate(self):
        est = ps.simulate_rate(probs_of(1.0, 0.0), 3, TIMING,
                               McConfig(trials=25, seed=1))
        assert est.mean_rate == pytest.approx(
            1 / (TIMING.tau_reset + TIMING.tau_slot), rel=1e-12)
        assert est.std_error <= 1e-9  # float roundoff on identical samples
        assert est.error_fraction == 0.0

    def test_outcome_frequencies_match_partition(self):
        # tally raw attempt outcomes with the same classification rule
        probs = probs_of(0.2, 0.5)
        rng = np.random.default_rng(3)
        draws = rng.random(20_000)
        lost = np.mean(draws < probs.p_lost)
        err = np.mean((draws >= probs.p_lost) & (draws < probs.p_lost + probs.p_e))
        det = np.mean(draws >= probs.p_lost + probs.p_e)
        n = draws.size
        for emp, expect in ((lost, probs.p_lost), (err, probs.p_e),
                            (det, probs.p_det)):
            sigma = math.sqrt(expect * (1 - expect) / n)
            assert abs(emp - expect) < 5 * sigma

    def test_agreement_with_analytic_rate(self):
        pdr, pol, cav = ps.design_pdr(), ps.design_polarizer(), ps.design_cavity()
        link = ps.design_link(1e-2)  # 20 dB
        timing = ps.design_timing()
        analytic = ps.transfer_rate(pdr, pol, cav, link, timing, f_target=0.95)
        probs = ps.attempt_probabilities(pdr, pol, link)
        est = ps.simulate_rate(probs, analytic.n_max, timing,
                               McConfig(trials=10_000, seed=42))
        assert abs(est.mean_rate - analytic.rate) / analytic.rate <= 0.05
        assert abs(est.mean_rate - analytic.rate) <= 3 * est.std_error

    def test_error_fraction_matches_sequence_error(self):
        pdr, pol = ps.design_pdr(), ps.design_polarizer()
        link = ps.design_link(1e-2)
        probs = ps.attempt_probabilities(pdr, pol, link)
        n_max = 190
        est = ps.simulate_rate(probs, n_max, ps.design_timing(),
                               McConfig(trials=10_000, seed=7))
        # trials condition on a click, so compare against the per-sequence
        # error probability conditioned on sequence success
        expect = ps.sequence_error_probability(n_max, probs) \
            / success_probability(n_max, probs)
        sigma = math.sqrt(expect * (1 - expect) / est.trials)
        assert abs(est.error_fraction - expect) <= 3 * sigma

    def test_mean_inverse_estimator_option(self):
        probs = probs_of(0.3, 0.5)
        cfg = McConfig(trials=200, seed=5, harmonic_rate=False)
        est = ps.simulate_rate(probs, 10, TIMING, cfg)
        harmonic = ps.simulate_rate(probs, 10, TIMING,
                                    McConfig(trials=200, seed=5))
        # arithmetic mean of rates dominates the harmonic-style estimate
        assert est.mean_rate >= harmonic.mean_rate
