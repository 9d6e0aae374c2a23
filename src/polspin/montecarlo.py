"""Stochastic replication of the transfer protocol.

Each trial draws one uniform per attempt to partition the outcome into
lost-before-spin, lost-after-spin (unheralded error), or detected. A
sequence ends at detection or after n_max attempts (charging a spin reset
and starting a new sequence); a trial ends at its first detection.
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
    """Run sequences of up to n_max attempts until the first detection.

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


def simulate_rate(
    probs: AttemptProbabilities,
    n_max: int,
    timing: ProtocolTiming,
    cfg: McConfig,
) -> McRateEstimate:
    """Estimate the average transfer rate from cfg.trials independent trials.

    Per-trial generators are spawned from the master seed, so results do not
    depend on execution order. The default estimator is 1/mean(elapsed);
    harmonic_rate=False returns mean(1/elapsed) instead. The standard error
    is propagated from the spread of the per-trial times (or rates).
    """
    seqs = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    elapsed = np.empty(cfg.trials)
    errors = np.empty(cfg.trials, dtype=bool)
    for i, ss in enumerate(seqs):
        res = simulate_trial(probs, n_max, timing,
                             np.random.default_rng(ss), attempt_cap=cfg.attempt_cap)
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
