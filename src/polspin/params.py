"""Parameter types for the photon-to-spin transfer model and its runs.

All types are immutable value objects validated at construction. Field
amplitudes are plain Python complex numbers; power quantities (transmissivity,
reflectivity, efficiencies) are dimensionless probabilities in [0, 1].
Value, the base of every value type in the package, lives here too.
"""

from __future__ import annotations

import math
from numbers import Integral, Real
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    import numpy as np


# Tolerance on power sums above 1 and on negative power complements.
POWER_TOL = 1e-12


class ValidationError(ValueError):
    """A parameter violates one of its declared invariants."""


def _check(cond: bool, fmt: str, *args: Any) -> None:
    """Raise ValidationError(fmt.format(*args)) unless cond holds. The message
    is formatted only on failure; "{}".format(x) renders as f"{x}" does."""
    if not cond:
        raise ValidationError(fmt.format(*args))


class Value:
    """Base of the immutable value types. A subclass's fields are its
    constructor's positional parameters, in order: its own __init__
    validates the arguments and writes them into self.__dict__, and the
    class's _fields is read from that __init__ once, when the class is
    made, unless the class sets _fields itself. Value gives it the repr of
    a dataclass, equality within one class, a hash of the field values
    (a field that cannot be hashed makes the object unhashable), no
    assignment or deletion, and replace.

    There are no __slots__: copy and pickle then restore an object's
    __dict__ without calling __setattr__.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__ and "__init__" in cls.__dict__:
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1:code.co_argcount]

    def _field_values(self) -> tuple:
        d = self.__dict__
        return tuple([d[name] for name in self._fields])

    def __repr__(self) -> str:
        d = self.__dict__
        return f"{type(self).__qualname__}({', '.join(f'{f}={d[f]!r}' for f in self._fields)})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._field_values() == other._field_values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._field_values())

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes: Any) -> Any:
        """A copy with the given fields changed, built through the
        constructor, so that its checks run again."""
        d = self.__dict__
        return type(self)(**{**{name: d[name] for name in self._fields}, **changes})


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _power_sum(a: complex, b: complex) -> float:
    """|a|^2 + |b|^2 of finite coefficients, inf where it overflows."""
    try:
        return abs(a) ** 2 + abs(b) ** 2
    except OverflowError:
        return math.inf


class CavityParams(Value):
    """Atom-cavity rates defining the spin-dependent reflection.

    Rates are angular frequencies in consistent (arbitrary) units; only
    ratios enter the reflection coefficient at zero detuning: kappa is the
    total cavity decay, kappa_wg the decay into the waveguide, gamma the atom
    relaxation, g the atom-cavity coupling, delta_c the cavity detuning
    (omega_c - omega) and delta_a the atom detuning (omega_a - omega).
    """

    def __init__(self, kappa: float, kappa_wg: float, gamma: float, g: float,
                 delta_c: float = 0.0, delta_a: float = 0.0) -> None:
        self.__dict__.update(kappa=kappa, kappa_wg=kappa_wg, gamma=gamma, g=g,
                             delta_c=delta_c, delta_a=delta_a)
        # one test that implies every check below, which run, in their order,
        # only if it fails: rates in (1e-50, 1e50) keep the cooperativity below 4e200
        if (1e-50 < kappa < 1e50 and 1e-50 < gamma < 1e50 and 0 <= g < 1e50
                and 0 <= kappa_wg <= kappa
                and math.isfinite(delta_c) and math.isfinite(delta_a)):
            return
        _check(kappa > 0, "kappa must be > 0, got {}", kappa)
        _check(gamma > 0, "gamma must be > 0, got {}", gamma)
        _check(g >= 0, "g must be >= 0, got {}", g)
        _check(0 <= kappa_wg <= kappa, "kappa_wg must lie in [0, kappa], got {}", kappa_wg)
        _check(math.isfinite(delta_c), "delta_c must be finite, got {}", delta_c)
        _check(math.isfinite(delta_a), "delta_a must be finite, got {}", delta_a)
        for name, v in (("kappa", kappa), ("gamma", gamma), ("g", g)):
            _check(v < math.inf, "{} must be finite, got {}", name, v)
        _check(self.cooperativity < math.inf,
               "g, kappa and gamma must give a finite cooperativity 4 g^2 / (kappa gamma), "
               "got g = {}, kappa = {}, gamma = {}", g, kappa, gamma)

    @property
    def cooperativity(self) -> float:
        """4 g^2 / (kappa gamma), as 4 r r with r = g / (sqrt(kappa)
        sqrt(gamma)): g**2 raises OverflowError past the largest double and
        kappa gamma can round to 0, but this form is inf only where the
        cooperativity does not fit a double, and its divisor is never 0."""
        r = self.g / (math.sqrt(self.kappa) * math.sqrt(self.gamma))
        return 4.0 * r * r

    @classmethod
    def from_ratios(cls, coupling_ratio: float, cooperativity: float) -> "CavityParams":
        """Build from kappa_wg/kappa and C with kappa = gamma = 1, no detuning."""
        if not cooperativity >= 0:
            raise ValidationError("cooperativity must be >= 0")
        return cls(1.0, coupling_ratio, 1.0, math.sqrt(cooperativity / 4))


class PdrParams(Value):
    """Complex field coefficients of the polarization-dependent reflector.

    Per polarization i, power transmissivity T_i = |t_i|^2 and reflectivity
    R_i = |r_i|^2 must satisfy T_i + R_i <= 1; the deficit is scattering loss.
    """

    def __init__(self, t_H: complex, r_H: complex, t_V: complex, r_V: complex) -> None:
        self.__dict__.update(t_H=t_H, r_H=r_H, t_V=t_V, r_V=r_V)
        try:  # accept first: both power sums in bounds imply finite coefficients
            if (abs(t_H) ** 2 + abs(r_H) ** 2 <= 1 + POWER_TOL
                    and abs(t_V) ** 2 + abs(r_V) ** 2 <= 1 + POWER_TOL):
                return
        except (OverflowError, TypeError):  # the ordered checks below raise
            pass
        for name, z in (("t_H", t_H), ("r_H", r_H), ("t_V", t_V), ("r_V", r_V)):
            _check(_finite(z), "{} must be finite", name)
        sum_H = _power_sum(t_H, r_H)
        _check(sum_H <= 1 + POWER_TOL, "T_H + R_H = {} exceeds 1", sum_H)
        sum_V = _power_sum(t_V, r_V)
        _check(sum_V <= 1 + POWER_TOL, "T_V + R_V = {} exceeds 1", sum_V)

    @property
    def T_H(self) -> float:
        return abs(self.t_H) ** 2

    @property
    def R_H(self) -> float:
        return abs(self.r_H) ** 2

    @property
    def T_V(self) -> float:
        return abs(self.t_V) ** 2

    @property
    def R_V(self) -> float:
        return abs(self.r_V) ** 2

    @property
    def zeta_H(self) -> float:
        return max(0.0, 1.0 - self.T_H - self.R_H)

    @property
    def zeta_V(self) -> float:
        return max(0.0, 1.0 - self.T_V - self.R_V)

    @classmethod
    def from_power(cls, T_V: float, R_H: float, zeta_V: float = 0.0,
                   zeta_H: float = 0.0, reflection_sign: float = -1.0) -> "PdrParams":
        """Construct real field coefficients from power values.

        R_V and T_H are the complements after scattering loss. Reflections
        carry a mirror-like pi phase by default (reflection_sign = -1); the
        sign is exposed because only power values are physically pinned, and
        any value other than +1 or -1 is rejected.
        """
        if reflection_sign != -1 and reflection_sign != 1:
            raise ValidationError(f"reflection_sign must be +1 or -1, got {reflection_sign}")
        R_V = 1.0 - T_V - zeta_V
        T_H = 1.0 - R_H - zeta_H
        if not (0 <= T_V <= 1 and 0 <= R_H <= 1 and R_V >= -POWER_TOL and T_H >= -POWER_TOL):
            _check(0 <= T_V <= 1 and 0 <= R_H <= 1, "T_V and R_H must lie in [0, 1]")
            _check(R_V >= -POWER_TOL, "R_V = 1 - T_V - zeta_V is negative ({})", R_V)
            _check(T_H >= -POWER_TOL, "T_H = 1 - R_H - zeta_H is negative ({})", T_H)
        return cls(complex(math.sqrt(T_H if T_H >= 0.0 else 0.0)),
                   complex(reflection_sign * math.sqrt(R_H)),
                   complex(math.sqrt(T_V)),
                   complex(reflection_sign * math.sqrt(R_V if R_V >= 0.0 else 0.0)))


class PolarizerParams(Value):
    """Pass efficiencies of the V-pass polarizer, per polarization."""

    def __init__(self, eta_pol_V: float, eta_pol_H: float) -> None:
        _check(0 <= eta_pol_V <= 1, "eta_pol_V out of [0,1]: {}", eta_pol_V)
        _check(0 <= eta_pol_H <= 1, "eta_pol_H out of [0,1]: {}", eta_pol_H)
        _check(eta_pol_V >= eta_pol_H, "a V-pass polarizer requires eta_pol_V >= eta_pol_H")
        self.__dict__.update(eta_pol_V=eta_pol_V, eta_pol_H=eta_pol_H)


class LinkParams(Value):
    """Link and detection-path efficiencies for the rate model: the link
    transmissivity eta_link, the detection-path efficiency eta_det, the
    average V cavity power reflectivity r_cav_V_avg (spin on and off), the
    H cavity power reflectivity r_cav_H, and the probability xi of the H
    photon reaching the spin."""

    def __init__(self, eta_link: float, eta_det: float, r_cav_V_avg: float,
                 r_cav_H: float, xi: float | None = None) -> None:
        for name, v in (("eta_link", eta_link), ("eta_det", eta_det),
                        ("r_cav_V_avg", r_cav_V_avg), ("r_cav_H", r_cav_H)):
            _check(0 <= v <= 1, "{} out of [0,1]: {}", name, v)
        if xi is None:
            # worst case: all non-reflected H light reaches the spin
            xi = 1.0 - r_cav_H
        _check(0 <= xi <= 1, "xi out of [0,1]: {}", xi)
        _check(xi <= 1 - r_cav_H + POWER_TOL, "xi = {} exceeds 1 - r_cav_H = {}", xi, 1 - r_cav_H)
        self.__dict__.update(eta_link=eta_link, eta_det=eta_det, r_cav_V_avg=r_cav_V_avg,
                             r_cav_H=r_cav_H, xi=xi)


class ProtocolTiming(Value):
    """Per-attempt slot and spin re-initialization times, in seconds."""

    def __init__(self, tau_reset: float, tau_pulse: float,
                 pulse_multiplier: float = 1.0) -> None:
        _check(tau_reset > 0, "tau_reset must be > 0, got {}", tau_reset)
        _check(tau_pulse > 0, "tau_pulse must be > 0, got {}", tau_pulse)
        _check(pulse_multiplier > 0, "pulse_multiplier must be > 0, got {}", pulse_multiplier)
        self.__dict__.update(tau_reset=tau_reset, tau_pulse=tau_pulse,
                             pulse_multiplier=pulse_multiplier)
        for name, v in (("tau_reset", tau_reset), ("tau_pulse", tau_pulse),
                        ("pulse_multiplier", pulse_multiplier), ("tau_slot", self.tau_slot)):
            _check(v < math.inf, "{} must be finite, got {}", name, v)

    @property
    def tau_slot(self) -> float:
        return self.pulse_multiplier * self.tau_pulse


class NoDetectionError(RuntimeError):
    """A Monte Carlo sampler reached its cap without a detector click."""


class InfeasibleConstraintError(ValueError):
    """The fidelity target exceeds what a single attempt can deliver."""


class McConfig(Value):
    def __init__(self, trials: int = 100, seed: int = 0) -> None:
        # the one place the mc rules are written; config builds its mc section here
        for key, v, least in (("trials", trials, 1), ("seed", seed, 0)):
            # int before Integral: a plain int then skips the slower ABC check
            if isinstance(v, bool) or not isinstance(v, (int, Integral)) or v < least:
                raise ValidationError(f"mc.{key} must be an integer >= {least}, got {v!r}")
        self.__dict__.update(trials=trials, seed=seed)


class SweepAxis(Value):
    """One sweep dimension: a parameter path and its grid, with spacing
    linear, log or db."""

    def __init__(self, path: str, start: float, stop: float, num: int,
                 spacing: str = "linear") -> None:
        # the one place the axis rules are written; config builds its axes here
        if any(isinstance(v, bool) or not isinstance(v, Real) for v in (start, stop)):
            raise ValidationError(f"axis {path}: start and stop must be numbers, "
                                  f"got {start!r} and {stop!r}")
        if isinstance(num, bool) or not isinstance(num, Integral):
            raise ValidationError(f"axis {path}: num must be an integer, got {num!r}")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValidationError(f"axis {path}: start and stop must be finite")
        if num < 2:
            raise ValidationError(f"axis {path}: need >= 2 points")
        if start >= stop:
            raise ValidationError(f"axis {path}: start must be < stop")
        if spacing not in ("linear", "log", "db"):
            raise ValidationError(f"axis {path}: unknown spacing {spacing}")
        if spacing == "log" and start <= 0:
            raise ValidationError(f"axis {path}: a log axis needs start > 0")
        if spacing == "db" and path != "loss_db":
            raise ValidationError(f"axis {path}: db spacing applies only to loss_db")
        self.__dict__.update(path=path, start=start, stop=stop, num=num, spacing=spacing)

    def values(self) -> np.ndarray:
        import numpy as np  # only here: the scalar paths never load numpy

        if self.spacing == "log":
            return np.logspace(math.log10(self.start), math.log10(self.stop), self.num)
        # db axes are linear in dB; conversion to transmissivity is the
        # consumer's job (loss_db -> eta_link = 10**(-loss_db/10))
        return np.linspace(self.start, self.stop, self.num)


# Reference design point, in the format of a run config's device sections;
# config.DEFAULTS is this plus the run settings. g = 1 with
# kappa = gamma = 1 gives C = 4. The H mode sees an effectively fixed cavity
# reflection behind the reflector stopband; its field value r_cav_h
# ([re, im]) is pinned to the design power reflectivity r_cav_H with
# mirror-like phase.
DESIGN: dict[str, Any] = {
    "cavity": {"kappa": 1.0, "kappa_wg": 0.73, "gamma": 1.0, "g": 1.0,
               "delta_c": 0.0, "delta_a": 0.0},
    "pdr": {"T_V": 0.99, "R_H": 0.15, "zeta_V": 0.0, "zeta_H": 0.0,
            "reflection_sign": -1.0},
    "polarizer": {"eta_pol_V": 0.989, "eta_pol_H": 0.128},
    "link": {"eta_link": 1e-3, "eta_det": 0.936, "r_cav_V_avg": 0.356,
             "r_cav_H": 0.921, "xi": None},
    "timing": {"tau_reset": 30e-6, "tau_pulse": 1.0 / 5.81e6, "pulse_multiplier": 1.0},
}
DESIGN["r_cav_h"] = [-math.sqrt(DESIGN["link"]["r_cav_H"]), 0.0]
DESIGN_R_CAV_H = complex(*DESIGN["r_cav_h"])


def design_cavity() -> CavityParams:
    return CavityParams(**DESIGN["cavity"])


def design_pdr() -> PdrParams:
    return PdrParams.from_power(**DESIGN["pdr"])


def design_polarizer() -> PolarizerParams:
    return PolarizerParams(**DESIGN["polarizer"])


def design_link(eta_link: float = DESIGN["link"]["eta_link"]) -> LinkParams:
    return LinkParams(**{**DESIGN["link"], "eta_link": eta_link})


def design_timing() -> ProtocolTiming:
    return ProtocolTiming(**DESIGN["timing"])
