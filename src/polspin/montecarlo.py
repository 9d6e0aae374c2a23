"""Stochastic replication of the transfer protocol.

Each attempt is lost before the spin, lost after it (an unheralded error),
or detected. A sequence ends at detection or after n_max attempts (charging
a spin reset and starting a new sequence); a trial ends at its first
detection. simulate_rate skips the lost attempts: the gap to the next one
that is not lost is geometric with p = p_det + p_e, and it clicks with
probability p_det / (p_det + p_e). That uses only memorylessness, so it is
exact in distribution, independent of the closed forms, and its cost does
not grow with loss. It takes the gaps and the click uniforms from one
generator in blocks of _BLOCK (256) each, refilled as they run out, and
walks the trials through them in plain Python: a seeded run's draws depend
on the block size and on the trials before each one, not on those after.
simulate_trial is the per-attempt reference sampler, one draw per attempt.
Both raise NoDetectionError once a trial has taken draw_cap draws without a
click: a cap on the sampler's work, not on the attempts a trial simulates.
"""

from __future__ import annotations

import math

import numpy as np

# re-exported: McConfig and NoDetectionError live in params, which loads no numpy
from .params import DEFAULT_DRAW_CAP, McConfig, NoDetectionError, ProtocolTiming, Value
from .rate import AttemptProbabilities, _check_length

_BLOCK = 256  # draws per refill in _walk; fixed, so seeded runs do not depend on trials


class TrialResult(Value):
    _fields = ("elapsed", "attempts_used", "sequences_used", "error_occurred")

    def __init__(self, elapsed: float, attempts_used: int, sequences_used: int,
                 error_occurred: bool) -> None:
        self.__dict__.update(elapsed=elapsed, attempts_used=attempts_used,
                             sequences_used=sequences_used, error_occurred=error_occurred)


class McRateEstimate(Value):
    _fields = ("mean_rate", "std_error", "error_fraction", "trials")

    def __init__(self, mean_rate: float, std_error: float, error_fraction: float,
                 trials: int) -> None:
        self.__dict__.update(mean_rate=mean_rate, std_error=std_error,
                             error_fraction=error_fraction, trials=trials)


def _cap_exhausted(draw_cap: int, probs: AttemptProbabilities) -> NoDetectionError:
    return NoDetectionError(f"no detection within {draw_cap} draws (p_det = {probs.p_det})")


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
    raise _cap_exhausted(draw_cap, probs)


def _walk(probs: AttemptProbabilities, n_max: int, trials: int,
          rng: np.random.Generator, draw_cap: int
          ) -> tuple[list[int], list[int], list[bool]]:
    """Attempts, sequences and error flags of `trials` successive trials of
    simulate_trial's law, drawn only at the attempts that are not lost.

    Gaps and uniforms come from rng in blocks of _BLOCK, each refilled only
    when used up, so a trial's draws do not depend on how many trials follow
    it. A trial may take draw_cap gaps, one per attempt that is not lost or
    per sequence that ends without a click, however many attempts they span.
    """
    _check_length(n_max, "n_max")
    if probs.p_det == 0:  # no click ever; stepping through errors to the cap is slow
        raise NoDetectionError("no detection possible (p_det = 0)")
    p_hit = min(1.0, probs.p_det + probs.p_e)
    click_share = probs.p_det / p_hit
    attempts_out: list[int] = []
    sequences_out: list[int] = []
    errors_out: list[bool] = []
    gaps: list[int] = []
    uniforms: list[float] = []
    gi = ui = _BLOCK  # both blocks empty: fill on first use
    for _ in range(trials):
        attempts, sequences = 0, 1  # attempts counts the sequences already ended
        pos, error_in_seq = 0, False  # the current sequence
        stop = gi + draw_cap  # gi at which this trial's draws run out, block-relative
        while True:
            if gi == _BLOCK:
                gaps, gi, stop = rng.geometric(p_hit, size=_BLOCK).tolist(), 0, stop - _BLOCK
            if gi == stop:
                raise _cap_exhausted(draw_cap, probs)
            pos += gaps[gi]
            gi += 1
            if pos > n_max:  # no click within n_max attempts: reset, start anew
                attempts, sequences, pos, error_in_seq = attempts + n_max, sequences + 1, 0, False
                continue
            if ui == _BLOCK:
                uniforms, ui = rng.random(_BLOCK).tolist(), 0
            u = uniforms[ui]
            ui += 1
            if u < click_share:
                break
            error_in_seq = True
        attempts_out.append(attempts + pos)
        sequences_out.append(sequences)
        errors_out.append(error_in_seq)
    return attempts_out, sequences_out, errors_out


def simulate_rate(
    probs: AttemptProbabilities,
    n_max: int,
    timing: ProtocolTiming,
    cfg: McConfig,
) -> McRateEstimate:
    """Estimate the average transfer rate from cfg.trials independent trials.

    One generator seeded with cfg.seed draws every trial in turn, skipping
    the lost attempts in blocks of draws (see the module docstring), and the
    cost per trial does not grow with loss. A seeded run's first k trials
    are those of the same seed's k-trial run.
    The estimate is 1/mean(elapsed), the rate the analytic model computes;
    its standard error is propagated from the trial times' spread, nan for one trial.
    """
    attempts, sequences, errors = _walk(probs, n_max, cfg.trials,
                                        np.random.default_rng(cfg.seed), cfg.draw_cap)
    elapsed = (np.array(sequences, dtype=float) * timing.tau_reset
               + np.array(attempts, dtype=float) * timing.tau_slot)
    n = cfg.trials
    mean_t = float(np.add.reduce(elapsed) / n)  # np.mean's arithmetic, without its overhead
    d = elapsed - mean_t  # and np.std(ddof=1)'s
    se_t = math.sqrt(np.add.reduce(d * d) / (n - 1)) / math.sqrt(n) if n > 1 else math.nan
    return McRateEstimate(
        mean_rate=1.0 / mean_t,
        std_error=se_t / mean_t**2,  # delta method through 1/x
        error_fraction=sum(errors) / n,
        trials=n,
    )
