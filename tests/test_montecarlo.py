"""Monte Carlo tests: determinism, degenerate inputs, the reference
sampler's attempt rules and cap on scripted draws, McConfig's checks,
statistical agreement of outcome frequencies with the attempt partition, of
simulate_rate's loop-free sampler with the per-attempt reference sampler,
and rate agreement with the analytic model."""

import math
import re
import warnings

import numpy as np
import pytest

import polspin as ps
from polspin.montecarlo import McConfig, NoDetectionError, _trials
from polspin.params import ValidationError
from polspin.rate import success_probability

TIMING = ps.ProtocolTiming(tau_reset=30e-6, tau_pulse=1 / 5.81e6)


def probs_of(p_det, p_lost):
    return ps.AttemptProbabilities(p_det=p_det, p_lost=p_lost)


def design_point(db):
    """Partition and analytic rate at F >= 0.95 for a link loss in dB."""
    link = ps.design_link(10 ** (-db / 10))
    analytic = ps.transfer_rate(ps.design_pdr(), ps.design_polarizer(),
                                ps.design_cavity(), link, ps.design_timing(),
                                f_target=0.95)
    return ps.attempt_probabilities(ps.design_pdr(), ps.design_polarizer(), link), analytic


class ScriptedRng:
    """Uniform draws read in turn from a fixed list, as numpy's generator reads
    its stream: random() takes the next one (IndexError past the end) and
    random(size) up to size more."""

    def __init__(self, draws):
        self.draws, self.used = list(draws), 0

    def random(self, size=None):
        if size is None:
            self.used += 1
            return self.draws[self.used - 1]
        start, self.used = self.used, min(self.used + size, len(self.draws))
        return np.array(self.draws[start:self.used])


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
    empirical distribution functions, taken at every sample value."""
    a, b = np.sort(a), np.sort(b)
    x = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, x, side="right") / a.size
    cdf_b = np.searchsorted(b, x, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


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
            ps.simulate_trial(probs_of(0.0, 1.0), 10, TIMING, rng, draw_cap=1000)

    def test_attempt_cap_binds_inside_a_sequence(self):
        # an unbounded constraint gives n_max = 2**53: the cap must still end
        # a sequence that never clicks
        rng = np.random.default_rng(0)
        with pytest.raises(NoDetectionError):
            ps.simulate_trial(probs_of(0.0, 1.0), 2**53, TIMING, rng, draw_cap=1000)

    def test_elapsed_reconstructible_from_counts(self):
        rng = np.random.default_rng(7)
        probs = probs_of(0.05, 0.9)
        for _ in range(20):
            res = ps.simulate_trial(probs, 13, TIMING, rng)
            expect = (res.sequences_used * TIMING.tau_reset
                      + res.attempts_used * TIMING.tau_slot)
            assert res.elapsed == pytest.approx(expect, rel=1e-12)
            assert res.attempts_used > (res.sequences_used - 1) * 13

    # p_det = 0.2, p_lost = 0.5, p_e = 0.3: u < 0.5 lost, u < 0.8 error, else a click
    @pytest.mark.parametrize("draws, expect", [
        # an error in a sequence that ends without a click is reset away
        ([0.6, 0.1, 0.9], (3, 2, False)),
        # an error in the clicking sequence flags the trial
        ([0.1, 0.6, 0.6, 0.9], (4, 2, True)),
    ], ids=["error-reset", "error-in-clicking-sequence"])
    def test_scripted_trial(self, draws, expect):
        rng = ScriptedRng(draws)
        res = ps.simulate_trial(probs_of(0.2, 0.5), 2, TIMING, rng)
        assert (res.attempts_used, res.sequences_used, res.error_occurred) == expect
        assert rng.used == len(draws)
        assert res.elapsed == pytest.approx(
            2 * TIMING.tau_reset + expect[0] * TIMING.tau_slot, rel=1e-12)

    def test_no_click_counted_past_the_attempt_cap(self):
        # five lost attempts, one draw each, use up the cap; the click that would follow in
        # the third sequence is never drawn
        rng = ScriptedRng([0.1] * 5 + [0.9])
        probs = probs_of(0.2, 0.5)
        message = f"no detection within 5 draws (p_det = {probs.p_det})"
        with pytest.raises(NoDetectionError, match=re.escape(message)):
            ps.simulate_trial(probs, 2, TIMING, rng, draw_cap=5)
        assert rng.used == 5

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

    def test_one_trial_has_no_standard_error(self):
        # a single time has no spread: the error is unknown, not zero
        est = ps.simulate_rate(probs_of(0.02, 0.93), 40, TIMING, McConfig(trials=1, seed=5))
        assert math.isnan(est.std_error)
        assert est.mean_rate > 0 and est.error_fraction in (0.0, 1.0)

    @pytest.mark.parametrize("trials", [2, 10, 200])
    def test_estimate_is_numpys_mean_and_std_bit_for_bit(self, trials):
        probs = probs_of(0.01, 0.9)
        est = ps.simulate_rate(probs, 60, TIMING, McConfig(trials=trials, seed=trials))
        attempts, sequences, _, errors = _trials(probs, 60, trials,
                                                 np.random.default_rng(trials))
        elapsed = (np.array(sequences, dtype=float) * TIMING.tau_reset
                   + np.array(attempts, dtype=float) * TIMING.tau_slot)
        mean_t = float(np.mean(elapsed))
        se_t = float(np.std(elapsed, ddof=1)) / math.sqrt(trials)
        assert est.mean_rate == 1.0 / mean_t
        assert est.std_error == se_t / mean_t**2
        assert est.error_fraction == float(np.mean(errors))

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


class TestMcConfig:
    @pytest.mark.parametrize("kwargs, message", [
        ({"trials": 2.5}, "mc.trials must be an integer >= 1, got 2.5"),
        ({"trials": True}, "mc.trials must be an integer >= 1, got True"),
        ({"seed": -1}, "mc.seed must be an integer >= 0, got -1"),
    ], ids=["trials-float", "trials-bool", "seed-negative"])
    def test_refuses(self, kwargs, message):
        with pytest.raises(ValidationError) as exc:
            McConfig(**kwargs)
        assert str(exc.value) == message

    def test_accepts_a_numpy_integer(self):
        assert McConfig(seed=np.int64(3)).seed == 3


class TestEventSkipping:
    """simulate_rate draws each trial from two exponentials, skipping every
    attempt before the click; the law must be the per-attempt reference
    sampler's, at any loss."""

    @pytest.mark.parametrize("db, n_max, seeds", [(20, 190, (101, 102)),
                                                  (10, 19, (103, 104)),
                                                  (10, 1, (105, 106))])
    def test_same_law_as_the_reference_sampler(self, db, n_max, seeds):
        # at 10 dB most trials span several sequences, with n_max = 1 about 40
        probs, _ = design_point(db)
        n = 4000
        fields = ("attempts_used", "sequences_used", "error_occurred")
        rng = np.random.default_rng(seeds[0])
        trials = [ps.simulate_trial(probs, n_max, TIMING, rng, 10**8) for _ in range(n)]
        ref = {f: np.array([getattr(t, f) for t in trials]) for f in fields}
        attempts, sequences, _, errors = _trials(probs, n_max, n, np.random.default_rng(seeds[1]))
        skip = dict(zip(fields, (attempts, sequences, errors)))
        assert np.mean(ref["sequences_used"]) > 1.2  # several sequences occur
        # KS at a 0.1% level (conservative for these integer laws)
        d_crit = math.sqrt(-math.log(0.0005) / 2) * math.sqrt(2 / n)
        for field in ("attempts_used", "sequences_used"):
            assert ks_statistic(ref[field], skip[field]) < d_crit, field
        p1, p2 = ref["error_occurred"].mean(), skip["error_occurred"].mean()
        pooled = (p1 + p2) / 2
        assert abs(p1 - p2) <= 4 * math.sqrt(pooled * (1 - pooled) * 2 / n)

    @pytest.mark.parametrize("db, seed", [(60, 160), (90, 190)])
    def test_agreement_with_analytic_at_high_loss(self, db, seed):
        # 90 dB expects about 4e9 attempts per trial, drawn as one number
        probs, analytic = design_point(db)
        est = ps.simulate_rate(probs, analytic.n_max, ps.design_timing(),
                               McConfig(trials=10_000, seed=seed))
        assert abs(est.mean_rate - analytic.rate) <= 4 * est.std_error
        expect = (ps.sequence_error_probability(analytic.n_max, probs)
                  / success_probability(analytic.n_max, probs))
        pull = abs(est.error_fraction - expect) / math.sqrt(expect * (1 - expect) / est.trials)
        assert pull <= 4

    @pytest.mark.parametrize("probs, n_max", [
        # p_e > 0 and no click
        (probs_of(0.0, 0.5), 2**53),
        (probs_of(0.0, 1.0), 10),
    ], ids=["no-click-with-errors", "all-lost"])
    def test_attempt_cap_through_simulate_rate(self, probs, n_max):
        message = f"no detection within 2**62 attempts (p_det = {probs.p_det})"
        with pytest.raises(NoDetectionError, match=re.escape(message)):
            ps.simulate_rate(probs, n_max, TIMING, McConfig(trials=3, seed=0))

    @pytest.mark.parametrize("p_det", [0.0, 1e-300, 5e-324])
    def test_no_click_within_the_attempt_cap(self, p_det):
        # the first click would come past 2**62 attempts, or T would not be
        # finite: refused without an overflow on the way
        probs = probs_of(p_det, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoDetectionError):
                _trials(probs, 19, 200, np.random.default_rng(0))
            with pytest.raises(NoDetectionError):
                ps.simulate_rate(probs, 2**53, TIMING, McConfig(trials=1, seed=0))

    def test_refuses_n_max_below_one(self):
        with pytest.raises(ValueError, match="n_max must be a whole number >= 1"):
            ps.simulate_rate(probs_of(0.5, 0.2), 0, TIMING, McConfig(trials=3, seed=0))

    @pytest.mark.parametrize("n_max", [2.5, math.inf, math.nan, 0])
    def test_refuses_n_max_that_is_not_whole(self, n_max):
        # the rate layer's rule, before any draw: a fraction would give a rate
        # between its neighbours', and the empty script raises IndexError if drawn
        message = re.escape(f"n_max must be a whole number >= 1, got {n_max}")
        with pytest.raises(ValueError, match=message):
            ps.simulate_trial(probs_of(0.5, 0.2), n_max, TIMING, ScriptedRng([]))
        with pytest.raises(ValueError, match=message):
            ps.simulate_rate(probs_of(0.5, 0.2), n_max, TIMING, McConfig(trials=3, seed=0))

    def test_first_trials_do_not_depend_on_the_trial_count(self):
        # row i of the draw is trial i, whatever the number of rows
        probs, _ = design_point(10)
        short, long = (_trials(probs, 1, k, np.random.default_rng(11)) for k in (50, 2000))
        assert short[1].sum() > 100  # several sequences per trial
        for a, b in zip(short, long):
            np.testing.assert_array_equal(a, b[:50])

    @pytest.mark.parametrize("n_max", [1, 7, 2**53, 10**30])
    def test_counts_add_up(self, n_max):
        # failed sequences are n_max attempts each, then the click position;
        # an n_max past the int64 range is one sequence
        attempts, sequences, positions, errors = _trials(
            probs_of(0.05, 0.9), n_max, 2000, np.random.default_rng(8))
        assert attempts.dtype == sequences.dtype == positions.dtype == np.int64
        assert errors.dtype == bool
        assert ((1 <= positions) & (positions <= min(n_max, 2**62))).all()
        np.testing.assert_array_equal(attempts, (sequences - 1) * min(n_max, 2**62) + positions)
        assert not errors[positions == 1].any()  # no attempt before the click
        if n_max >= 2**53:
            assert (sequences == 1).all()

    @pytest.mark.parametrize("p_e", [0.0, 1e-13], ids=["exact", "within-tolerance"])
    def test_certain_detection(self, p_e):
        # one attempt, one sequence, no error, even where p_e completes the
        # partition only within its tolerance
        probs = ps.AttemptProbabilities(p_det=1.0, p_lost=0.0, p_e=p_e)
        attempts, sequences, positions, errors = _trials(probs, 5, 100,
                                                         np.random.default_rng(2))
        assert (attempts == 1).all() and (sequences == 1).all() and (positions == 1).all()
        assert not errors.any()

    def test_no_error_channel_gives_no_errors(self):
        est = ps.simulate_rate(probs_of(0.01, 0.99), 60, TIMING, McConfig(trials=2000, seed=3))
        assert est.error_fraction == 0.0

    def test_every_attempt_before_the_click_an_error(self):
        # p_lost = 0: a clickless attempt is an error, so a trial is flagged
        # exactly when its click is not the first attempt of its sequence
        _, _, positions, errors = _trials(probs_of(0.3, 0.0), 4, 2000, np.random.default_rng(5))
        assert errors.any() and not errors.all()
        np.testing.assert_array_equal(errors, positions > 1)

    def test_one_sequence_of_about_a_billion_attempts(self):
        # an unbounded constraint: every trial is one sequence of about 10^9
        # attempts, drawn as one number
        attempts, sequences, positions, _ = _trials(probs_of(1e-9, 1.0 - 1e-9), 2**53, 2000,
                                                    np.random.default_rng(0))
        assert (sequences == 1).all()
        np.testing.assert_array_equal(positions, attempts)
        mean = attempts.mean()
        assert abs(mean - 1e9) <= 4 * 1e9 / math.sqrt(2000)
