"""Analytic protocol performance model.

Per-attempt outcome probabilities for both polarizations, the unheralded
error probability of an attempt sequence, the fidelity-constrained maximum
sequence length, expected timing, the average transfer rate, regime
classification, and the repeaterless bound.

The error probability, the n_max search and the timing form one rate kernel
written against a few numpy function names (exp, expm1, log1p, where, ...),
so the same code runs on Python floats (transfer_rate, through _PyMath) and
on numpy arrays (rate_curves). The error probability's digit walk has a
form per path. On floats a plain loop reads the binary digits of int(n)
and adds a digit's term only where the digit is 1; on arrays _array_walk
reads them as floor(n 2**-k) and multiplies the term by the digit, in
reused buffers, each point taking only its own digits. Each form gives the
bits of the same recurrence with the digits taken by floor division on its
own path; the two paths differ only where numpy's exp, expm1 or log1p
rounds differently from math's. rate_curves and _array_walk are the only
functions that import numpy. The kernel keeps its accuracy at any link
loss: p_det and p_e are each an exact product of eta_link and a device-only
fraction, and the error probability is a sum of positive terms.

transfer_rate does each piece of work once: one pass over the device's
powers gives the partition at eta_link and at eta_link = 1, and the n_max
search reports p_err(n_max) from its own walk. rate_curves needs no p_err,
so on arrays a cell whose n_max the closed form p_err(n) = 1 - q^n - w (1 -
p_lost^n) decides within its error bound is never walked.

n_max is decided on the error budget alone: the largest n with p_err(n) <=
B = (f0 - f_target) / (f0 - 1/2), a test monotone in p_err. The search
orders p_err against B in double precision, whose walk can read a few ulp
off. Where the walk at its answer n puts p_err(n), or p_err(n) plus the
increment, within _TIE of B, the exact p_err at the same p_det and p_e, in
decimal arithmetic, settles both sides: n moves down until it fits or up
until n + 1 does not. n_max is then the exact boundary at the program's own
p_det and p_e on either path. From about 146 dB at the design point one
attempt moves p_err by less than the rounding of p_det and p_e themselves,
and the 60-digit oracle, which computes them from the design numbers, may
put n_max one or two attempts away. The rounded fidelity (1 - p_err) f0 +
p_err / 2 is only reported, by protocol_fidelity.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING

from .device import transfer_fidelity
# re-exported: InfeasibleConstraintError lives in params, which the CLI loads without rate
from .params import (
    DESIGN_R_CAV_H,
    CavityParams,
    InfeasibleConstraintError,
    LinkParams,
    PdrParams,
    PolarizerParams,
    ProtocolTiming,
    ValidationError,
    Value,
)

if TYPE_CHECKING:
    import numpy as np

# The largest n_max a float column holds exactly; a constraint that still
# holds there is reported as cap_reached.
ATTEMPT_SEARCH_CAP = 2**53
_CAP = float(ATTEMPT_SEARCH_CAP)
DEFAULT_REGIME1_THRESHOLD = 3
# The largest double below 1: log1p(-x) of a ratio clipped to it is finite.
_BELOW_ONE = 1.0 - 2.0**-53
# Newton steps of the n_max search before it only bisects, which bounds the
# search at this many plus 53 steps.
_NEWTON_STEPS = 16
# Newton steps on the closed form of p_err that place the search's first
# candidate.
_GUESS_STEPS = 5
# How many digits early a point joins _array_walk's tail: each join costs a
# few slices, each early digit a few element operations.
_JOIN_DIGITS = 4
# An n_max whose walked p_err, or p_err plus the increment, lies within this
# fraction of B from B is settled exactly: the double walk reads p_err up to
# about 12 ulp from its exact value (5 at the design point), and this allows
# 32 to 64.
_TIE = 2.0**-47
# K eps of _closed_form's error bound; its error against 80-digit arithmetic
# stays below 1.07 eps (T1 + T2)(1 + x).
_CLOSED_FORM_ERR = 8.0 * 2.0**-52


class _PyMath:
    """The numpy functions the rate kernel calls, for Python floats."""

    exp = staticmethod(math.exp)
    expm1 = staticmethod(math.expm1)
    sqrt = staticmethod(math.sqrt)
    floor = staticmethod(math.floor)
    logical_not = staticmethod(operator.not_)

    # min and max of two, each returning a where neither argument is
    # smaller or larger, as the builtins do at over twice the cost
    @staticmethod
    def minimum(a, b):
        return b if b < a else a

    @staticmethod
    def maximum(a, b):
        return b if b > a else a

    @staticmethod
    def log1p(x):
        # numpy's -inf at -1 (p_det = 1), where math.log1p raises
        return -math.inf if x == -1.0 else math.log1p(x)

    @staticmethod
    def where(cond, a, b):
        return a if cond else b


class AttemptProbabilities(Value):
    """Partition of a single transmission attempt: detected, lost without
    touching the spin, or lost after the spin interaction (unheralded error).
    p_e defaults to 1 - p_det - p_lost; attempt_probabilities supplies it
    exactly, since that difference cancels when p_lost is close to 1."""

    def __init__(self, p_det: float, p_lost: float, p_e: float | None = None) -> None:
        for name, v in (("p_det", p_det), ("p_lost", p_lost)):
            if not 0 <= v <= 1:
                raise ValidationError(f"{name} out of [0,1]: {v}")
        if p_det + p_lost > 1 + 1e-12:
            raise ValidationError(f"p_det + p_lost = {p_det + p_lost} exceeds 1")
        if p_e is None:
            p_e = max(0.0, 1.0 - p_det - p_lost)
        elif not (0 <= p_e <= 1 and abs(p_det + p_lost + p_e - 1.0) <= 1e-12):
            raise ValidationError(
                f"p_e = {p_e} does not complete p_det = {p_det} and p_lost = {p_lost} to 1")
        self.__dict__.update(p_det=p_det, p_lost=p_lost, p_e=p_e)


class MaxAttempts(Value):
    """Fidelity-constrained sequence length. unbounded means the constraint
    never binds (the error probability's limit p_e / (p_det + p_e) meets
    it); cap_reached means it still holds at ATTEMPT_SEARCH_CAP."""

    def __init__(self, n: int, unbounded: bool = False, cap_reached: bool = False) -> None:
        self.__dict__.update(n=n, unbounded=unbounded, cap_reached=cap_reached)


class RateResult(Value):
    def __init__(self, n_max: int, p_error: float, p_success: float, t_failures: float,
                 t_success: float, rate: float, regime: int, unbounded: bool = False,
                 cap_reached: bool = False) -> None:
        self.__dict__.update(n_max=n_max, p_error=p_error, p_success=p_success,
                             t_failures=t_failures, t_success=t_success, rate=rate,
                             regime=regime, unbounded=unbounded, cap_reached=cap_reached)


def _partition_terms(pdr: PdrParams, polarizer: PolarizerParams, link: LinkParams):
    """The device-only sums of the partition, each power of the reflector
    read once: the detection bracket T_V^2 eta_V^2 r_cav_V_avg + R_V + T_H^2
    eta_H^2 r_cav_H + R_H, twice p_det on a lossless link with a perfect
    detector, and the loss sum, twice the loss without error on a lossless
    link."""
    ev, eh = polarizer.eta_pol_V, polarizer.eta_pol_H
    T_H, R_H, T_V, R_V = pdr.T_H, pdr.R_H, pdr.T_V, pdr.R_V
    bracket = T_V**2 * ev**2 * link.r_cav_V_avg + R_V + T_H**2 * eh**2 * link.r_cav_H + R_H
    # zeta_V + zeta_H, as PdrParams computes them
    loss = (max(0.0, 1.0 - T_V - R_V) + max(0.0, 1.0 - T_H - R_H)
            + T_V * (1.0 - ev) + T_H * (1.0 - eh)
            + T_H * eh * (1.0 - link.r_cav_H - link.xi))
    return bracket, loss


def _detected_and_lost(bracket, loss, link: LinkParams, eta):
    """p_det and p_lost at link transmissivity eta, a float or an array,
    from _partition_terms' sums."""
    return (eta / 2.0) * bracket * link.eta_det, (1.0 - eta) + (eta / 2.0) * loss


def attempt_probabilities(
    pdr: PdrParams, polarizer: PolarizerParams, link: LinkParams
) -> AttemptProbabilities:
    """Per-attempt outcome partition averaged over both input polarizations.

    Detection requires either a polarizer-cavity round trip or a direct
    reflection off the reflector; loss-without-error collects link loss,
    reflector scattering, polarizer absorption, and H cavity leakage that
    never reaches the spin. The unheralded-error probability p_e is
    eta_link times the device-only fraction 1 - p_det - p_lost at
    eta_link = 1, an exact product at any link loss.
    """
    terms = _partition_terms(pdr, polarizer, link)
    p_det, p_lost = _detected_and_lost(*terms, link, link.eta_link)
    if not (0 <= p_det <= 1 and 0 <= p_lost <= 1 and p_det + p_lost <= 1 + 1e-12):
        raise ValidationError(
            f"inconsistent device parameters: p_det={p_det}, p_lost={p_lost}")
    unit_det, unit_lost = _detected_and_lost(*terms, link, 1.0)
    return AttemptProbabilities(
        p_det=p_det, p_lost=min(p_lost, 1.0 - p_det),
        p_e=link.eta_link * max(0.0, 1.0 - unit_det - unit_lost))


def _log_ratio(p_det, p_e, xp):
    """log r, r = p_lost / (1 - p_det) the chance that a clickless attempt
    is clean, from the error side so that r close to 1 keeps its digits."""
    return xp.log1p(-xp.minimum(p_e / (1.0 - p_det), _BELOW_ONE))


def _error_terms(n, p_det, p_e, xp):
    """p_err(n), the unheralded-error probability of an n-attempt sequence,
    and the increment p_err(n + 1) - p_err(n), from positive terms only.

    p_err(n) = p_det S(n) with S(n) = sum_{k<n} (q^k - p_lost^k), q = 1 -
    p_det. With r = p_lost / q and G(m) = sum_{k<m} p_lost^k, S follows the
    binary digits of n from S(0) = 0:
        S(2m) = S(m) (1 + q^m) + q^m (1 - r^m) G(m)
        S(m + 1) = S(m) + q^m (1 - r^m)
    where q^m, 1 - r^m and (1 - p_lost^m) = (p_det + p_e) G(m) each come
    from exp or expm1 of m times a log1p, so no step subtracts. n holds
    whole numbers up to ATTEMPT_SEARCH_CAP (ints, floats or a float array);
    needs 0 < p_det + p_e and p_det < 1.

    Each digit of n below the top one takes m, the digits above it, to 2m
    plus the digit, and adds the digit times q^2m (1 - r^2m) to S(2m). On
    Python floats the loop below reads the digits from int(n) and keeps
    m a float, which doubling and adding 1 leave exact below 2**53; it adds
    the term only where the digit is 1, since elsewhere the term is +0.0 and
    S(2m) is never -0.0, so adding it would change no bit. numpy arrays take
    _array_walk.
    """
    if xp is not _PyMath:
        return _array_walk(n, p_det, p_e)
    exp, expm1 = math.exp, math.expm1
    lq, lr = xp.log1p(-p_det), _log_ratio(p_det, p_e, xp)
    inv_s = 1.0 / (p_det + p_e)
    m, total = 1.0, 0.0  # the top digit; S(0) = S(1) = 0
    for digit in bin(int(n))[3:]:
        a, b = m * lq, m * lr
        q_m, one_less_r_m = exp(a), -expm1(b)
        step = q_m * one_less_r_m
        total = total * (1.0 + q_m) - step * expm1(a + b) * inv_s
        m += m
        if digit == "1":  # q^2m (1 - r^2m) = q_m^2 (1 - r^m)(1 + r^m)
            total += step * q_m * (2.0 - one_less_r_m)
            m += 1.0
    return p_det * total, -p_det * exp(n * lq) * expm1(n * lr)


def _array_walk(n, p_det, p_e):
    """_error_terms on flat numpy arrays of one size, every step written
    into buffers made once. It reads n's leading digits as m = floor(n
    2**-k): numpy's float floor division costs over ten multiplies, and
    since multiplying a whole number below 2**53 by a power of two is exact,
    the floor is the same whole number as n // 2**k. The digit, half - 2m,
    multiplies the digit's term, which is exact for a digit of 0.0 or 1.0.

    -step and the products built from it are kept negated, which only flips
    signs, so every rounding is that of the recurrence as _error_terms
    writes it, on numpy's functions. The points are walked in order
    of n, and digit k touches only a tail that holds those with n >= 2**(k
    + 1), the points whose m is not 0. A digit with m = 0 leaves S = +0.0
    exactly while log q, log r and 1 / (p_det + p_e) are finite, so a point
    may join the tail at any earlier digit; it joins with m = n // 2**(k +
    1) up to _JOIN_DIGITS digits early, which makes the tail grow in fewer
    steps. Where one of the three is not finite every point walks every
    digit below the largest n's top digit."""
    import numpy as np

    multiply, add, subtract, exp, expm1, floor = (
        np.multiply, np.add, np.subtract, np.exp, np.expm1, np.floor)
    lq, lr = np.log1p(-p_det), _log_ratio(p_det, p_e, np)
    inv_s = 1.0 / (p_det + p_e)
    size, order = n.size, np.argsort(n)
    ns, lq_s, lr_s, inv_s_s = n[order], lq[order], lr[order], inv_s[order]
    top = math.frexp(ns[-1])[1] - 1  # a NaN sorts last, as np.max returns it
    # not finite where one of the three is not; an overflow only costs the ordering
    if math.isfinite(lq.sum() + lr.sum() + inv_s.sum()):
        # digit k needs the tail from start[k], where ns >= 2**(k + 1)
        start = np.searchsorted(ns, 2.0 ** np.arange(1, top + 1)).tolist()
    else:
        start = [0] * top
    # S, m, the next m and four scratch rows; S(0) = S(1) = 0
    full = [*np.zeros((7, size)), ns, lq_s, lr_s, inv_s_s]
    at = size
    for k in range(top - 1, -1, -1):
        if start[k] < at:
            # take in the points whose m leaves 0 within _JOIN_DIGITS digits
            j = start[max(k - _JOIN_DIGITS, 0)]
            joining = full[1][j:at]
            floor(multiply(ns[j:at], 2.0**(-k - 1), joining), joining)
            at = j
            t, m, half, a, b, q_m, c, nk, lqk, lrk, ik = (v[at:] for v in full)
        multiply(m, lqk, a)
        multiply(m, lrk, b)
        exp(a, q_m)
        add(a, b, a)
        expm1(a, a)
        expm1(b, b)            # -(1 - r^m)
        multiply(q_m, b, c)    # -step
        multiply(c, a, a)
        multiply(a, ik, a)     # -step expm1(a + b) / (p_det + p_e)
        multiply(c, q_m, c)    # -step q^m
        add(q_m, 1.0, q_m)
        multiply(t, q_m, t)
        add(t, a, t)
        add(b, 2.0, b)         # 2 - (1 - r^m)
        multiply(c, b, c)
        floor(multiply(nk, 2.0**-k, half), half)
        multiply(m, 2.0, m)
        subtract(half, m, m)   # the digit
        multiply(m, c, c)
        subtract(t, c, t)
        m, half = half, m      # the next digit's m
        full[1], full[2] = full[2], full[1]
    walked = np.empty(size)
    walked[order] = full[0]
    return p_det * walked, -p_det * exp(n * lq) * expm1(n * lr)


def _check_length(n, name: str = "n") -> None:
    """Refuse a sequence length that is not a finite whole number >= 1;
    2.0 and numpy integers are accepted."""
    if not (1 <= n < math.inf and n % 1 == 0):
        raise ValueError(f"{name} must be a whole number >= 1, got {n}")


def sequence_error_probability(n: int, probs: AttemptProbabilities) -> float:
    """Unheralded-error probability of an n-attempt sequence, summed over all
    click positions weighted by the click-position distribution."""
    _check_length(n)
    # nothing clicks, no error, or the first attempt always clicks
    if probs.p_det == 0.0 or probs.p_e == 0.0 or probs.p_det == 1.0:
        return 0.0
    return _error_terms(n, probs.p_det, probs.p_e, _PyMath)[0]


def protocol_fidelity(n: int, probs: AttemptProbabilities, f0: float) -> float:
    """Transferred-state fidelity after an n-attempt sequence: the device
    fidelity f0 degraded toward the fully mixed value 1/2 by the sequence
    error probability."""
    if not 0 <= f0 <= 1:
        raise ValidationError(f"f0 out of [0,1]: {f0}")
    p_err = sequence_error_probability(n, probs)
    return (1.0 - p_err) * f0 + p_err * 0.5


def _closed_form_logs(p_det, p_e, xp):
    """log q, log p_lost and w = p_det / (p_det + p_e), for _closed_form."""
    lq = xp.log1p(-p_det)
    return lq, lq + _log_ratio(p_det, p_e, xp), p_det / (p_det + p_e)


def _closed_form(n, lq, ls, w, xp):
    """p_err(n) = 1 - q^n - w (1 - p_lost^n) = T1 - T2, T1 = -expm1(n lq) and
    T2 = -w expm1(n ls), and its error bound K eps (T1 + T2)(1 + x), x = -n
    ls: T1 and T2 cancel where n (p_det + p_e) is small."""
    t1, t2 = -xp.expm1(n * lq), -w * xp.expm1(n * ls)
    return t1 - t2, _CLOSED_FORM_ERR * (t1 + t2) * (1.0 - n * ls)


def _first_guess(p_det, p_e, budget, lq, ls, w, xp):
    """The search's first candidate before rounding: p_err(x) = budget
    solved by _GUESS_STEPS Newton steps from the small-n root sqrt(2 budget
    / (p_det p_e)) on the closed form, from _closed_form_logs. On arrays
    _search takes it as n_max where _closed_form's bound decides so."""
    exp, expm1, minimum, maximum = xp.exp, xp.expm1, xp.minimum, xp.maximum
    x = xp.sqrt(2.0 * budget / p_det / p_e)
    w_ls = w * ls
    for _ in range(_GUESS_STEPS):
        a, b = x * ls, x * lq
        g, slope = w * expm1(a) - expm1(b), w_ls * exp(a) - lq * exp(b)
        x = minimum(maximum(x - (g - budget) / maximum(slope, 5e-324), 1.0), _CAP)
    return x


def _unbounded(p_det, p_e, f0, f_target):
    """Every sequence length meets f_target <= f0: p_err rises to its limit
    p_e / (p_det + p_e), and that limit fits the error budget
    (f0 - f_target) / (f0 - 1/2), or f0 <= 1/2."""
    return p_e * (f0 - 0.5) <= (f0 - f_target) * (p_det + p_e)


def _search(lo, p_det, p_e, budget, xp):
    """Largest n in [lo, ATTEMPT_SEARCH_CAP] whose error probability p_err(n)
    fits the error budget, for lo = 1, and the walk at n: p_err(n) and the
    increment p_err(n + 1) - p_err(n). An n of ATTEMPT_SEARCH_CAP means the
    cap fits the budget too. A point with lo at the cap is done from the
    start and carries NaN.

    The bracket [lo, hi) holds the answer: lo's walk fits the budget and
    hi's does not. lo = 1 starts unwalked, since p_err(1) = 0 and p_err(2) =
    p_det p_e; hi starts past the cap, at ATTEMPT_SEARCH_CAP + 2 (a float
    holds it exactly). Each step walks a candidate c in (lo, hi). Where c
    fits it becomes lo, and where its increment also refuses c + 1, hi
    becomes c + 1; where c does not fit it becomes hi. The search ends
    where hi = lo + 1, so it always returns the walk at its answer. The
    first candidate comes from _first_guess and usually ends the search.
    Later candidates are Newton steps on the exact p_err with the increment
    as slope. One outside the bracket by more than a step, or any after
    _NEWTON_STEPS steps, is replaced by the bracket's midpoint. Needs 0 <
    p_det < 1, p_e > 0 and budget >= 0 wherever lo is below the cap. On
    numpy, lo, p_det, p_e and budget are flat arrays of one size, and each
    step walks only the points still searching. There, before any walk, a
    point ends at c = floor(first candidate) < ATTEMPT_SEARCH_CAP, carrying
    NaN, where _closed_form and its bound put p_err(c) (0 at c = 1) and
    p_err(c + 1) on either side of B by more than _TIE of B.
    """
    floor, where, minimum, maximum = xp.floor, xp.where, xp.minimum, xp.maximum
    hi = _CAP + 2.0 + 0.0 * lo
    p, dp = where(lo == 1.0, 0.0, math.nan), p_det * p_e  # the walk at lo
    if xp is not _PyMath:
        found, at = xp.empty((3, lo.size)), xp.arange(lo.size)  # n, p_err and increment
    t, steps = 0.0 * lo, 0
    while True:
        active = (hi - lo > 1) & (lo < ATTEMPT_SEARCH_CAP)
        if xp is not _PyMath:  # set the finished points aside
            found[:, at] = lo, p, dp
            at, lo, hi, p, dp, t, p_det, p_e, budget = (
                a[active] for a in (at, lo, hi, p, dp, t, p_det, p_e, budget))
            if at.size == 0:
                return found
        elif not active:
            return lo, p, dp
        if steps == 0:
            logs = _closed_form_logs(p_det, p_e, xp)
            t, newton = _first_guess(p_det, p_e, budget, *logs, xp), True
            if xp is not _PyMath:  # set aside, unwalked, the points the closed form settles
                c, tie = floor(t), budget * _TIE
                (p_c, err_c), (p_next, err_next) = (_closed_form(m, *logs, xp) for m in (c, c + 1))
                settled = ((c == 1.0) | (p_c + err_c + tie < budget)) & (
                    p_next - err_next - tie > budget) & (c < _CAP)
                found[0, at[settled]], found[1:, at[settled]] = c[settled], math.nan
                at, lo, hi, p, dp, t, p_det, p_e, budget = (
                    a[~settled] for a in (at, lo, hi, p, dp, t, p_det, p_e, budget))
                if at.size == 0:
                    return found
        else:
            newton = steps < _NEWTON_STEPS
        # a Newton step near the bracket, else lo + (hi - lo) // 2 without
        # float floor division: hi - lo is whole, so its half is exact, and
        # the inner floor keeps the sum exact above 2**52
        near = (lo - 1 < t) & (t < hi + 1) & newton
        c = minimum(maximum(floor(where(near, t, lo + floor((hi - lo) * 0.5))), lo + 1), hi - 1)
        p_c, dp_c = _error_terms(c, p_det, p_e, xp)
        fits = p_c <= budget
        lo, hi, p, dp = (where(fits, c, lo),
                         where(fits, where(p_c + dp_c > budget, c + 1, hi), c),
                         where(fits, p_c, p), where(fits, dp_c, dp))
        steps += 1
        t = c + (budget - p_c) / maximum(dp_c, 5e-324)


def _exact_limit(n, p_err, p_det: float, p_e: float, f0: float, f_target: float):
    """The largest m <= ATTEMPT_SEARCH_CAP whose exact p_err(m) at these
    p_det and p_e fits the budget of f0 and f_target, for an n whose walk
    put p_err(n) or p_err(n + 1) near it, and p_err(m): the given p_err
    where m = n, else the exact one rounded to the nearest double, which
    fits B wherever B is correctly rounded. p_err = 1 - q^m - w (1 -
    p_lost^m), w = p_det / (p_det + p_e) and p_lost = 1 - p_det - p_e
    clipped at 0, as _log_ratio clips r, is evaluated in decimal arithmetic
    with 30 digits beyond those that 1 - p_det and the cancellation down to
    B take, and tested as p_err (f0 - 1/2) <= f0 - f_target, so the budget
    is not rounded either. p_err(n + 1) comes from n's powers, q^(n + 1) =
    q^n q. From n the steps double down until an m fits (p_err(1) = 0
    always does) or up until one does not, and the gap left is bisected.
    Needs 0 < p_det < 1, p_e >= 0 and B > 0."""
    from decimal import Decimal, localcontext

    budget = (f0 - f_target) / (f0 - 0.5)
    with localcontext() as ctx:
        ctx.prec = 30 + math.ceil(-math.log10(p_det) - math.log10(budget))
        pd, pe, f0, one = Decimal(p_det), Decimal(p_e), Decimal(f0), Decimal(1)
        q, p_lost = one - pd, (one - pd - pe).max(0 * one)
        lq, ll, w = q.ln(), p_lost.ln(), pd / (pd + pe)
        slack, scale = f0 - Decimal(f_target), f0 - Decimal(0.5)

        def fits(q_m, l_m):  # p_err(m) <= B from q^m and p_lost^m
            return (one - q_m - w * (one - l_m)) * scale <= slack

        def fits_at(m):
            return m <= ATTEMPT_SEARCH_CAP and fits((m * lq).exp(), (m * ll).exp())

        k = int(n)
        q_k, l_k = (k * lq).exp(), (k * ll).exp()
        up = fits(q_k, l_k)
        if up and not (k < ATTEMPT_SEARCH_CAP and fits(q_k * q, l_k * p_lost)):
            return n, p_err
        # from k + 1, which fits, or k, which does not, the steps double away
        # from k while the test keeps its answer; p_err(1) = 0 always fits
        m, step = (k + 1, 1) if up else (k, -1)
        while fits_at(max(m + step, 1)) == up:
            m, step = m + step, 2 * step
        lo, hi = sorted((m, max(m + step, 1)))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if fits_at(mid) else (lo, mid)
        p = one - (lo * lq).exp() - w * (one - (lo * ll).exp())
        return float(lo), float(max(p, 0))  # p_err(1) = 0 may round below 0


def _attempt_limit(p_det, p_e, f0, f_target, xp):
    """max_attempts' decision, point by point: n_max, unbounded (n_max =
    ATTEMPT_SEARCH_CAP), cap_reached, and p_err(n_max): the search's walk,
    _exact_limit's value where it moved n_max, NaN where the search did
    not run or, on arrays, where the closed form settled n_max unwalked.
    n_max is the largest n with p_err(n) <= B, B = (f0 - f_target) / (f0 -
    1/2), which is protocol_fidelity(n) >= f_target solved for p_err.
    Unlike the rounded fidelity, which is not monotone in p_err, this test
    leaves the search's path no say in n_max. The search's answer n is
    settled by _exact_limit wherever its walked p_err(n), or p_err(n) plus
    the increment, lies within _TIE of B, and the closed form settles a
    point only outside that window, so n_max is the exact boundary at the
    program's own p_det and p_e on either path. A point whose f_target
    exceeds f0 is not searched and carries n_max = ATTEMPT_SEARCH_CAP with
    neither flag; max_attempts refuses such a target before it gets here."""
    infeasible, unbounded = f_target > f0, _unbounded(p_det, p_e, f0, f_target)
    # B only matters where f0 > 1/2: below, every feasible point is unbounded
    budget = (f0 - f_target) / (f0 - 0.5) if f0 > 0.5 else 0.0 * f_target
    # with p_det = 0 nothing clicks, and with p_det = 1 the first attempt
    # does, so no sequence carries an error. Past about 3080 dB 1 / (p_det +
    # p_e) overflows and p_err's walk is NaN, but wherever p_det + p_e <
    # 2**-1022, p_err(n) <= n^2 p_det p_e is below 2**-1900 at the cap: any
    # B > 0 still holds there, so such points are decided as reaching the
    # cap rather than searched.
    errorless = (p_det == 0.0) | (p_det == 1.0)
    # B = 0 (f_target = f0) fits only n = 1, as p_err(1) = 0 < p_err(2) =
    # p_det p_e: decided here, since past about 1600 dB at the design point
    # p_det p_e underflows and the search would read p_err = 0 as fitting.
    one = (budget == 0.0) & (p_e > 0.0) & xp.logical_not(unbounded | infeasible | errorless)
    skip = (unbounded | infeasible | errorless | one
            | ((p_det + p_e < 2.0**-1022) & (budget > 0.0)))
    n, p_err, dp = _search(xp.where(skip, _CAP, 1.0), p_det, p_e, budget, xp)
    n = xp.where(one, 1.0, n)
    # NaN at the points not searched, which no comparison selects
    tie = (p_err > budget - budget * _TIE) | (abs(p_err + dp - budget) < budget * _TIE)
    if xp is not _PyMath:
        for i in xp.flatnonzero(tie):
            n[i], p_err[i] = _exact_limit(n[i], p_err[i], p_det[i], p_e[i], f0, f_target[i])
    elif tie:
        n, p_err = _exact_limit(n, p_err, p_det, p_e, f0, f_target)
    return n, unbounded, (n == _CAP) & xp.logical_not(unbounded | infeasible), p_err


def _decide_attempts(probs: AttemptProbabilities, f0: float, f_target: float):
    """max_attempts' result and p_err(n_max), walked where the search did not run."""
    if not 0 <= f0 <= 1:  # NaN too: f0 = NaN would give n_max = 1, f0 = 1.5 unbounded
        raise ValidationError(f"f0 out of [0,1]: {f0}")
    if not 0 <= f_target <= 1:  # NaN too: its budget would fit no p_err, and n_max would be 1
        raise ValidationError(f"f_target out of [0,1]: {f_target}")
    if f_target > f0:
        raise InfeasibleConstraintError(
            f"f_target = {f_target} exceeds single-attempt fidelity f0 = {f0}")
    n, unbounded, cap_reached, p_err = _attempt_limit(probs.p_det, probs.p_e, f0, f_target,
                                                      _PyMath)
    n = int(n)
    if p_err != p_err:  # NaN: unbounded, errorless, or B = 0 (n = 1)
        p_err = sequence_error_probability(n, probs)
    return MaxAttempts(n=n, unbounded=unbounded, cap_reached=cap_reached), p_err


def max_attempts(
    probs: AttemptProbabilities,
    f0: float,
    f_target: float,
) -> MaxAttempts:
    """Largest sequence length whose protocol fidelity still meets f_target.

    The error probability rises monotonically with n toward p_e / (p_det +
    p_e); when that limit meets the constraint it never binds and the result
    is flagged unbounded. Otherwise the rate kernel's search finds the
    boundary up to ATTEMPT_SEARCH_CAP.
    """
    return _decide_attempts(probs, f0, f_target)[0]


def _clicks(n, p_det, xp):
    """Click probability of an n-attempt sequence and its complement q^n."""
    a = n * xp.log1p(-p_det)
    return -xp.expm1(a), xp.exp(a)


def _sequence_timing(n, p_det, timing: ProtocolTiming, xp):
    """Click probability of an n-attempt sequence, the mean time spent on
    clickless sequences (each a full sequence plus a reset) before the
    first clicking one, and the clicking sequence's click-time term summed
    over the unconditional click-position distribution. Needs p_det > 0."""
    p_succ, q_n = _clicks(n, p_det, xp)
    t_fail = (q_n / p_succ) * (n * timing.tau_slot + timing.tau_reset)
    click = timing.tau_slot * (p_succ / p_det - n * q_n)
    return p_succ, t_fail, click


def _rate_terms(n, p_det, timing: ProtocolTiming, xp):
    """transfer_rate's p_success, t_failures, t_success (the conditional
    duration of the successful sequence) and rate at sequence length n.
    Needs p_det > 0."""
    p_succ, t_fail, click = _sequence_timing(n, p_det, timing, xp)
    t_succ = timing.tau_reset + click / p_succ
    return p_succ, t_fail, t_succ, 1.0 / (t_fail + t_succ)


def success_probability(n_max: int, probs: AttemptProbabilities) -> float:
    """Probability that an n_max-attempt sequence yields at least one click."""
    _check_length(n_max)
    return _clicks(n_max, probs.p_det, _PyMath)[0] if probs.p_det > 0.0 else 0.0


def expected_failure_time(
    n_max: int, probs: AttemptProbabilities, timing: ProtocolTiming
) -> float:
    """Mean time spent on clickless sequences (each costs a full sequence
    plus a reset) before the first successful sequence."""
    _check_length(n_max)
    if probs.p_det <= 0.0:
        return math.inf
    return _sequence_timing(n_max, probs.p_det, timing, _PyMath)[1]


def expected_success_time(
    n_max: int,
    probs: AttemptProbabilities,
    timing: ProtocolTiming,
) -> float:
    """Reset plus click-time term of the successful sequence, the click
    time summed over the unconditional click-position distribution (closed
    form of the direct sum). transfer_rate's t_success, the true expected
    duration, divides the click term by the sequence success probability."""
    _check_length(n_max)
    if probs.p_det == 0.0:
        return math.inf
    return timing.tau_reset + _sequence_timing(n_max, probs.p_det, timing, _PyMath)[2]


def _plob(eta, tau_slot, xp):
    return -xp.log1p(-eta) / (math.log(2.0) * tau_slot)


def repeaterless_bound(eta_link: float, timing: ProtocolTiming) -> float:
    """Secret-key capacity of direct transmission per slot time:
    -log2(1 - eta_link) / tau_slot, approximately 1.44 eta_link / tau_slot
    at high loss (Pirandola, Laurenza, Ottaviani and Banchi, Nat. Commun.
    8, 15043, 2017). Computed through log1p, so it keeps its digits at any
    loss."""
    if not 0 <= eta_link <= 1:
        raise ValidationError(f"eta_link out of [0,1]: {eta_link}")
    if eta_link == 1.0:
        return math.inf  # lossless link: the bound diverges
    return _plob(eta_link, timing.tau_slot, _PyMath)


def _regime(n, timing: ProtocolTiming, xp):
    return xp.where(n * timing.tau_slot > timing.tau_reset, 3,
                    xp.where(n <= DEFAULT_REGIME1_THRESHOLD, 1, 2))


def classify_regime(n_max: int, timing: ProtocolTiming) -> int:
    """Regime 3 when attempts dominate the sequence (n_max*tau_slot >
    tau_reset), Regime 1 when the fidelity constraint pins n_max at or below
    DEFAULT_REGIME1_THRESHOLD, Regime 2 in between."""
    return _regime(n_max, timing, _PyMath)


def transfer_rate(
    pdr: PdrParams,
    polarizer: PolarizerParams,
    cavity: CavityParams,
    link: LinkParams,
    timing: ProtocolTiming,
    f_target: float,
    r_cav_h: complex = DESIGN_R_CAV_H,
) -> RateResult:
    """Average transfer rate under a fidelity constraint, at the
    single-attempt fidelity f0 = transfer_fidelity(...).f_avg of the
    device. The stored t_success is the conditional expected duration of
    the successful sequence, so the rate equals the inverse of the true
    expected time per transferred qubit."""
    f0 = transfer_fidelity(pdr, polarizer, cavity, r_cav_h=r_cav_h).f_avg
    probs = attempt_probabilities(pdr, polarizer, link)
    nm, p_error = _decide_attempts(probs, f0, f_target)
    if probs.p_det == 0.0:  # nothing clicks: no sequence ever succeeds
        p_succ, t_fail, t_succ, rate = 0.0, math.inf, math.inf, 0.0
    else:
        p_succ, t_fail, t_succ, rate = _rate_terms(nm.n, probs.p_det, timing, _PyMath)
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


class RateCurves(Value):
    """transfer_rate's n_max, rate and regime on a grid of constraints (rows)
    and link transmissivities (columns), NaN where the constraint exceeds f0
    (infeasible) or still holds at ATTEMPT_SEARCH_CAP (cap_reached), and the
    repeaterless bound per transmissivity."""

    def __init__(self, n_max: np.ndarray, rate: np.ndarray, regime: np.ndarray,
                 bound: np.ndarray, infeasible: np.ndarray, cap_reached: np.ndarray) -> None:
        self.__dict__.update(n_max=n_max, rate=rate, regime=regime, bound=bound,
                             infeasible=infeasible, cap_reached=cap_reached)


def rate_curves(
    pdr: PdrParams,
    polarizer: PolarizerParams,
    link: LinkParams,
    timing: ProtocolTiming,
    eta: np.ndarray,
    f0: float,
    f_targets: tuple[float, ...],
) -> RateCurves:
    """The rate kernel on numpy arrays: every constraint at every link
    transmissivity in eta in one search, with the partition, the error
    probability, the search and the timing of transfer_rate, so each cell
    matches a transfer_rate call at that eta_link (link.eta_link is not
    read). eta must lie in [0, 1]. The device is checked once, at eta_link
    = 1, where its losses are largest. An unbounded cell has n_max =
    ATTEMPT_SEARCH_CAP, as in transfer_rate."""
    import numpy as np

    eta = np.asarray(eta, dtype=float)
    outside = ~((eta >= 0.0) & (eta <= 1.0))
    if outside.any():
        raise ValidationError(f"eta_link out of [0,1]: {eta[outside][0]}")
    if not 0 <= f0 <= 1:
        raise ValidationError(f"f0 out of [0,1]: {f0}")
    for c in f_targets:
        if not 0 <= c <= 1:
            raise ValidationError(f"constraint out of [0,1]: {c}")
    unit = attempt_probabilities(pdr, polarizer, link.replace(eta_link=1.0))
    target = np.asarray(f_targets, dtype=float).reshape(-1, 1)
    shape = (target.size, eta.size)
    p_det, p_e, f_target = (
        np.broadcast_to(a, shape).ravel()
        for a in (_detected_and_lost(*_partition_terms(pdr, polarizer, link), link, eta)[0],
                  eta * unit.p_e, target))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        n, _, cap_reached, _ = _attempt_limit(p_det, p_e, f0, f_target, np)
        # nothing clicks where p_det = 0 (eta = 0): rate 0, as in transfer_rate
        rate = np.where(p_det == 0.0, 0.0, _rate_terms(n, p_det, timing, np)[3])
        bound = _plob(eta, timing.tau_slot, np)
    infeasible = f_target > f0
    nan = infeasible | cap_reached

    def grid(values):
        return np.where(nan, np.nan, values).reshape(shape)

    return RateCurves(
        n_max=grid(n), rate=grid(rate), regime=grid(_regime(n, timing, np)),
        bound=bound, infeasible=infeasible.reshape(shape),
        cap_reached=cap_reached.reshape(shape))
