"""Stochastic replication of the transfer protocol.

Each attempt is lost before the spin, lost after it (an unheralded error),
or detected. A sequence ends at detection or after n_max attempts (charging
a spin reset and starting a new sequence); a trial ends at its first
detection. simulate_rate skips the lost attempts: the gap to the next one
that is not lost is geometric with p = p_det + p_e, and it clicks with
probability p_det / (p_det + p_e). That uses only memorylessness, so it is
exact in distribution, independent of the closed forms, and its cost does
not grow with loss. simulate_trial is the per-attempt reference sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ProtocolTiming, ValidationError
from .rate import AttemptProbabilities

DEFAULT_ATTEMPT_CAP = 10**8
_DRAW_CHUNK = 1 << 16


class NoDetectionError(RuntimeError):
    """The attempt cap was exhausted without a detector click."""


@dataclass(frozen=True)
class McConfig:
    trials: int = 100
    seed: int = 0
    attempt_cap: int = DEFAULT_ATTEMPT_CAP
    harmonic_rate: bool = True  # 1/mean(elapsed); False averages per-trial rates

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")


@dataclass(frozen=True)
class TrialResult:
    elapsed: float
    attempts_used: int
    sequences_used: int
    error_occurred: bool


@dataclass(frozen=True)
class McRateEstimate:
    mean_rate: float
    std_error: float
    error_fraction: float
    trials: int


def simulate_trial(
    probs: AttemptProbabilities,
    n_max: int,
    timing: ProtocolTiming,
    rng: np.random.Generator,
    attempt_cap: int = DEFAULT_ATTEMPT_CAP,
) -> TrialResult:
    """Run sequences of up to n_max attempts until the first detection: the
    per-attempt reference sampler, one uniform draw per attempt.

    Uniform draws classify each attempt: [0, p_lost) lost before the spin,
    [p_lost, p_lost + p_e) unheralded error, remainder detected. The error
    flag reports whether any error preceded the detecting attempt within
    its own sequence (earlier sequences end in a reset and cannot matter).
    Elapsed time charges a reset at the start of every sequence. Raises
    NoDetectionError once about attempt_cap attempts pass without a click,
    within a sequence too (an unbounded constraint gives n_max = 2**53).
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    p_lost = probs.p_lost
    err_edge = probs.p_lost + probs.p_e
    attempts = 0
    sequences = 0
    while attempts < attempt_cap:
        sequences += 1
        done = 0
        error_in_seq = False
        while done < n_max and attempts + done < attempt_cap:
            block = min(n_max - done, _DRAW_CHUNK)
            draws = rng.random(block)
            clicks = np.flatnonzero(draws >= err_edge)
            if clicks.size:
                m = int(clicks[0])
                # draws before the click are all below err_edge, so a draw
                # at or above p_lost is an unheralded error
                error_in_seq = error_in_seq or bool(np.any(draws[:m] >= p_lost))
                attempts += done + m + 1
                elapsed = (sequences * timing.tau_reset
                           + attempts * timing.tau_slot)
                return TrialResult(
                    elapsed=elapsed,
                    attempts_used=attempts,
                    sequences_used=sequences,
                    error_occurred=error_in_seq,
                )
            error_in_seq = error_in_seq or bool(np.any(draws >= p_lost))
            done += block
        attempts += done
    raise NoDetectionError(
        f"no detection within {attempt_cap} attempts (p_det = {probs.p_det})")


def _skip_trial(probs: AttemptProbabilities, n_max: int, timing: ProtocolTiming,
                rng: np.random.Generator, attempt_cap: int) -> TrialResult:
    """One trial of simulate_trial's law, drawn only at the attempts that
    are not lost; the cap binds once no such attempt falls within it."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if probs.p_det == 0:  # no click ever; stepping through errors to the cap is slow
        raise NoDetectionError("no detection possible (p_det = 0)")
    p_hit = min(1.0, probs.p_det + probs.p_e)
    click_share = probs.p_det / p_hit
    attempts, sequences = 0, 1  # attempts counts the sequences already ended
    pos, error_in_seq = 0, False  # the current sequence
    while True:
        pos += int(rng.geometric(p_hit))
        # past n_max, the next event is in a new sequence, at n_max + 1 or later
        if attempts + min(pos, n_max + 1) > attempt_cap:
            raise NoDetectionError(
                f"no detection within {attempt_cap} attempts (p_det = {probs.p_det})")
        if pos > n_max:  # no click within n_max attempts: reset, start anew
            attempts, sequences, pos, error_in_seq = attempts + n_max, sequences + 1, 0, False
        elif rng.random() >= click_share:
            error_in_seq = True
        else:
            attempts += pos
            return TrialResult(
                elapsed=sequences * timing.tau_reset + attempts * timing.tau_slot,
                attempts_used=attempts,
                sequences_used=sequences,
                error_occurred=error_in_seq,
            )


def simulate_rate(
    probs: AttemptProbabilities,
    n_max: int,
    timing: ProtocolTiming,
    cfg: McConfig,
) -> McRateEstimate:
    """Estimate the average transfer rate from cfg.trials independent trials.

    One generator seeded with cfg.seed draws every trial in turn, skipping
    the lost attempts (see the module docstring), so a trial's draws depend
    on the trials before it and the cost per trial does not grow with loss.
    The default estimator is 1/mean(elapsed); harmonic_rate=False returns
    mean(1/elapsed) instead. The standard error is propagated from the
    spread of the per-trial times (or rates).
    """
    rng = np.random.default_rng(cfg.seed)
    elapsed = np.empty(cfg.trials)
    errors = np.empty(cfg.trials, dtype=bool)
    for i in range(cfg.trials):
        res = _skip_trial(probs, n_max, timing, rng, cfg.attempt_cap)
        elapsed[i] = res.elapsed
        errors[i] = res.error_occurred
    n = cfg.trials
    if cfg.harmonic_rate:
        mean_t = float(np.mean(elapsed))
        mean_rate = 1.0 / mean_t
        se_t = float(np.std(elapsed, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
        std_error = se_t / mean_t**2  # delta method through 1/x
    else:
        rates = 1.0 / elapsed
        mean_rate = float(np.mean(rates))
        std_error = float(np.std(rates, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return McRateEstimate(
        mean_rate=mean_rate,
        std_error=std_error,
        error_fraction=float(np.mean(errors)),
        trials=n,
    )
