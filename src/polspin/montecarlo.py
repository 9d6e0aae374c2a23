"""Stochastic replication of the transfer protocol.

Each attempt is lost before the spin, lost after it (an unheralded error),
or detected. A sequence ends at detection or after n_max attempts (charging
a spin reset and starting a new sequence); a trial ends at its first
detection. A sequence without a click is exactly n_max attempts, so the
sequences of a trial are back-to-back blocks of one stream of i.i.d.
attempts: the index T of the first click is geometric with p = p_det, the
trial used ceil(T / n_max) sequences, and it clicked at position
k = T - (sequences - 1) * n_max of the last. Its error flag is set if any of
the k - 1 attempts before the click, each an error with chance
p_e / (1 - p_det) given no click, is one. simulate_rate draws T and the flag
by inversion from row i of one rng.standard_exponential((trials, 2)) for
trial i, with no loop over trials, sequences or attempts. That uses only the
per-attempt law and memorylessness, so it is exact in distribution and
independent of the closed forms in rate; its cost does not grow with loss,
and a seeded run's first k trials are those of the same seed's k-trial run.
A first click at attempt 2**62 or later, whose count would not fit the
sampler's integers, raises NoDetectionError (p_det = 0, or far below 1e-18).
simulate_trial is the per-attempt reference sampler, one draw per attempt;
it raises NoDetectionError once draw_cap draws pass without a click.
"""

from __future__ import annotations

import math

import numpy as np

# re-exported: McConfig and NoDetectionError live in params, which loads no numpy
from .params import McConfig, NoDetectionError, ProtocolTiming, Value
from .rate import AttemptProbabilities, _check_length

DEFAULT_DRAW_CAP = 10**8  # simulate_trial's draws, one per attempt
_ATTEMPT_CAP = 2**62  # _trials counts attempts in int64


class TrialResult(Value):
    def __init__(self, elapsed: float, attempts_used: int, sequences_used: int,
                 error_occurred: bool) -> None:
        self.__dict__.update(elapsed=elapsed, attempts_used=attempts_used,
                             sequences_used=sequences_used, error_occurred=error_occurred)


class McRateEstimate(Value):
    def __init__(self, mean_rate: float, std_error: float, error_fraction: float,
                 trials: int) -> None:
        self.__dict__.update(mean_rate=mean_rate, std_error=std_error,
                             error_fraction=error_fraction, trials=trials)


def simulate_trial(
    probs: AttemptProbabilities,
    n_max: int,
    timing: ProtocolTiming,
    rng: np.random.Generator,
    draw_cap: int = DEFAULT_DRAW_CAP,
) -> TrialResult:
    """Run sequences of up to n_max attempts until the first detection: the
    per-attempt reference sampler, a plain loop with one rng.random() per
    attempt, so its cost grows with the attempts it simulates.

    A draw u < p_lost is an attempt lost before the spin, u < p_lost + p_e
    an unheralded error, anything else a click. The error flag reports
    whether any error preceded the click within its own sequence (earlier
    sequences end in a reset and cannot matter). Elapsed time charges a
    reset at the start of every sequence. Raises NoDetectionError once
    draw_cap draws, one per attempt, pass without a click, within a
    sequence too (an unbounded constraint gives n_max = 2**53).
    """
    _check_length(n_max, "n_max")
    p_lost, err_edge = probs.p_lost, probs.p_lost + probs.p_e
    attempts, sequences, pos, error_in_seq = 0, 1, 0, False  # pos: in this sequence
    while attempts < draw_cap:
        if pos == n_max:  # no click within n_max attempts: reset, start anew
            sequences, pos, error_in_seq = sequences + 1, 0, False
        attempts, pos, u = attempts + 1, pos + 1, rng.random()
        if u >= err_edge:
            return TrialResult(sequences * timing.tau_reset + attempts * timing.tau_slot,
                               attempts, sequences, error_in_seq)
        error_in_seq = error_in_seq or u >= p_lost
    raise NoDetectionError(f"no detection within {draw_cap} draws (p_det = {probs.p_det})")


def _trials(probs: AttemptProbabilities, n_max: int, trials: int, rng: np.random.Generator
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Attempts, sequences, click positions (int64) and error flags (bool)
    of `trials` trials of simulate_trial's law, trial i from row i of one
    (trials, 2) draw of standard exponentials (see the module docstring).
    Raises NoDetectionError where a first click comes at _ATTEMPT_CAP or later.
    """
    _check_length(n_max, "n_max")
    p_det, p_e = probs.p_det, probs.p_e
    scale = -math.log1p(-p_det) if p_det < 1 else math.inf  # P(X > scale * t) = (1 - p_det)**t
    x = rng.standard_exponential((trials, 2))
    if not x[:, 0].max() < scale * _ATTEMPT_CAP:  # also p_det = 0; below it, no overflow
        raise NoDetectionError(
            f"no detection within 2**62 attempts (p_det = {p_det})")
    before = (x[:, 0] / scale).astype(np.int64)  # floor: T - 1, the attempts before the click
    # sequences - 1 and k - 1; an n_max past int64 is one sequence, since before < 2**63
    resets, pos = np.divmod(before, min(int(n_max), 2**63 - 1))
    # each of the k - 1 attempts before the click is an error with chance q
    q = p_e / (1 - p_det) if p_det < 1 else 0.0
    errors = pos > 0 if q >= 1 else x[:, 1] < pos * -math.log1p(-q)
    return before + 1, resets + 1, pos + 1, errors


def simulate_rate(
    probs: AttemptProbabilities,
    n_max: int,
    timing: ProtocolTiming,
    cfg: McConfig,
) -> McRateEstimate:
    """Estimate the average transfer rate from cfg.trials independent trials.

    One generator seeded with cfg.seed draws every trial at once (see the
    module docstring), and the cost per trial does not grow with loss. A
    seeded run's first k trials are those of the same seed's k-trial run.
    The estimate is 1/mean(elapsed), the rate the analytic model computes;
    its standard error is propagated from the trial times' spread, nan for one trial.
    """
    attempts, sequences, _, errors = _trials(probs, n_max, cfg.trials,
                                             np.random.default_rng(cfg.seed))
    elapsed = sequences * timing.tau_reset + attempts * timing.tau_slot
    n = cfg.trials
    mean_t = float(np.add.reduce(elapsed) / n)  # np.mean's arithmetic, without its overhead
    d = elapsed - mean_t  # and np.std(ddof=1)'s
    se_t = math.sqrt(np.add.reduce(d * d) / (n - 1)) / math.sqrt(n) if n > 1 else math.nan
    return McRateEstimate(
        mean_rate=1.0 / mean_t,
        std_error=se_t / mean_t**2,  # delta method through 1/x
        error_fraction=int(np.count_nonzero(errors)) / n,
        trials=n,
    )
