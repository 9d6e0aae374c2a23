"""Every check of the parameter types, triggered once: each must raise
ValidationError with exactly the message pinned here."""

import math

import numpy as np
import pytest

import polspin as ps
from polspin.params import ValidationError

NAN = float("nan")
INF = float("inf")


def _cavity(**kw):
    return ps.CavityParams(**{"kappa": 1.0, "kappa_wg": 0.5, "gamma": 1.0, "g": 1.0, **kw})


def _pdr(**kw):
    return ps.PdrParams(**{"t_H": 0.5, "r_H": -0.5, "t_V": 0.5, "r_V": -0.5, **kw})


def _link(**kw):
    return ps.LinkParams(**{"eta_link": 0.5, "eta_det": 0.5, "r_cav_V_avg": 0.5,
                            "r_cav_H": 0.75, **kw})


def _timing(**kw):
    return ps.ProtocolTiming(**{"tau_reset": 1e-5, "tau_pulse": 1e-7, **kw})


CASES = [
    # CavityParams
    (lambda: _cavity(kappa=0.0), "kappa must be > 0, got 0.0"),
    (lambda: _cavity(kappa=NAN), "kappa must be > 0, got nan"),
    (lambda: _cavity(gamma=-0.5), "gamma must be > 0, got -0.5"),
    (lambda: _cavity(g=-1.0), "g must be >= 0, got -1.0"),
    (lambda: _cavity(kappa_wg=1.5), "kappa_wg must lie in [0, kappa], got 1.5"),
    (lambda: _cavity(kappa_wg=-0.25), "kappa_wg must lie in [0, kappa], got -0.25"),
    (lambda: _cavity(delta_c=NAN), "delta_c must be finite, got nan"),
    (lambda: _cavity(delta_c=-INF), "delta_c must be finite, got -inf"),
    (lambda: _cavity(delta_a=INF), "delta_a must be finite, got inf"),
    (lambda: _cavity(kappa=INF), "kappa must be finite, got inf"),
    (lambda: _cavity(gamma=INF), "gamma must be finite, got inf"),
    # 4 g^2 / (kappa gamma) past the largest double: g**2 would overflow, or
    # a subnormal rate would give NaN reflections
    (lambda: _cavity(g=1e200), "g, kappa and gamma must give a finite cooperativity "
                               "4 g^2 / (kappa gamma), got g = 1e+200, kappa = 1.0, gamma = 1.0"),
    (lambda: _cavity(g=1e155), "g, kappa and gamma must give a finite cooperativity "
                               "4 g^2 / (kappa gamma), got g = 1e+155, kappa = 1.0, gamma = 1.0"),
    (lambda: _cavity(gamma=1e-310), "g, kappa and gamma must give a finite cooperativity "
                                    "4 g^2 / (kappa gamma), got g = 1.0, kappa = 1.0, "
                                    "gamma = 1e-310"),
    # a cooperativity that fits a double, with g**2 past the largest double
    # or dc da rounding to 0: refused where the reflection is computed
    (lambda: ps.cavity_reflection(_cavity(kappa=1e10, gamma=1e10, g=1e155)),
     "g, kappa and gamma must keep g^2 and (kappa/2 + i delta_c)(gamma/2 + i delta_a) "
     "within a double, got g = 1e+155, kappa = 10000000000.0, gamma = 10000000000.0"),
    (lambda: ps.cavity_reflection(
        _cavity(kappa=1e-300, gamma=1e-300, g=1e-300, kappa_wg=1e-300)),
     "g, kappa and gamma must keep g^2 and (kappa/2 + i delta_c)(gamma/2 + i delta_a) "
     "within a double, got g = 1e-300, kappa = 1e-300, gamma = 1e-300"),
    # CavityParams.from_ratios
    (lambda: ps.CavityParams.from_ratios(0.5, -1.0), "cooperativity must be >= 0"),
    (lambda: ps.CavityParams.from_ratios(0.5, 1e320), "g must be finite, got inf"),
    # PdrParams
    (lambda: _pdr(t_H=complex(NAN, 0.0)), "t_H must be finite"),
    (lambda: _pdr(r_H=complex(0.0, INF)), "r_H must be finite"),
    (lambda: _pdr(t_V=-INF), "t_V must be finite"),
    (lambda: _pdr(r_V=NAN), "r_V must be finite"),
    (lambda: _pdr(t_H=1.0, r_H=0.5), "T_H + R_H = 1.25 exceeds 1"),
    (lambda: _pdr(t_V=0.5j, r_V=-1.0), "T_V + R_V = 1.25 exceeds 1"),
    # finite coefficients whose power overflows: the sum is inf, not an OverflowError
    (lambda: _pdr(t_H=1e200, r_H=0, t_V=0, r_V=0), "T_H + R_H = inf exceeds 1"),
    (lambda: _pdr(t_H=complex(1.5e308, 1.5e308)), "T_H + R_H = inf exceeds 1"),
    (lambda: _pdr(r_V=1e200), "T_V + R_V = inf exceeds 1"),
    # PdrParams.from_power
    (lambda: ps.PdrParams.from_power(0.5, 0.5, reflection_sign=0.5),
     "reflection_sign must be +1 or -1, got 0.5"),
    (lambda: ps.PdrParams.from_power(1.5, 0.5), "T_V and R_H must lie in [0, 1]"),
    (lambda: ps.PdrParams.from_power(0.5, -0.5), "T_V and R_H must lie in [0, 1]"),
    (lambda: ps.PdrParams.from_power(0.75, 0.5, zeta_V=0.5),
     "R_V = 1 - T_V - zeta_V is negative (-0.25)"),
    (lambda: ps.PdrParams.from_power(0.5, 0.5, zeta_H=0.75),
     "T_H = 1 - R_H - zeta_H is negative (-0.25)"),
    # PolarizerParams
    (lambda: ps.PolarizerParams(eta_pol_V=1.5, eta_pol_H=0.5), "eta_pol_V out of [0,1]: 1.5"),
    (lambda: ps.PolarizerParams(eta_pol_V=0.5, eta_pol_H=-0.5), "eta_pol_H out of [0,1]: -0.5"),
    (lambda: ps.PolarizerParams(eta_pol_V=0.25, eta_pol_H=0.5),
     "a V-pass polarizer requires eta_pol_V >= eta_pol_H"),
    # LinkParams
    (lambda: _link(eta_link=1.5), "eta_link out of [0,1]: 1.5"),
    (lambda: _link(eta_det=-0.5), "eta_det out of [0,1]: -0.5"),
    (lambda: _link(r_cav_V_avg=2), "r_cav_V_avg out of [0,1]: 2"),
    (lambda: _link(r_cav_H=NAN), "r_cav_H out of [0,1]: nan"),
    (lambda: _link(xi=1.5), "xi out of [0,1]: 1.5"),
    (lambda: _link(xi=0.5), "xi = 0.5 exceeds 1 - r_cav_H = 0.25"),
    # ProtocolTiming
    (lambda: _timing(tau_reset=0.0), "tau_reset must be > 0, got 0.0"),
    (lambda: _timing(tau_pulse=-1e-6), "tau_pulse must be > 0, got -1e-06"),
    (lambda: _timing(tau_reset=INF), "tau_reset must be finite, got inf"),
    (lambda: _timing(tau_pulse=INF), "tau_pulse must be finite, got inf"),
]


# Two checks broken at once: the accepting test fails on the later one, and
# the message must still be the first check's, in the order above.
TWO_FAULTS = [
    (lambda: _cavity(kappa=-1.0, kappa_wg=0.5), "kappa must be > 0, got -1.0"),
    (lambda: _cavity(gamma=NAN, g=-1.0), "gamma must be > 0, got nan"),
    (lambda: _cavity(g=NAN, kappa_wg=2.0), "g must be >= 0, got nan"),
    (lambda: _cavity(kappa_wg=NAN, delta_c=NAN), "kappa_wg must lie in [0, kappa], got nan"),
    (lambda: _cavity(delta_c=INF, delta_a=NAN), "delta_c must be finite, got inf"),
    (lambda: _cavity(delta_a=NAN, g=INF), "delta_a must be finite, got nan"),
    (lambda: _cavity(kappa=INF, gamma=INF), "kappa must be finite, got inf"),
    (lambda: _cavity(g=INF, gamma=1e-310), "g must be finite, got inf"),
    (lambda: _pdr(t_H=1.0, r_H=0.5, r_V=NAN), "r_V must be finite"),
    (lambda: _pdr(t_H=INF, r_V=complex(NAN, INF)), "t_H must be finite"),
    (lambda: _pdr(t_H=1e200, r_H=NAN), "r_H must be finite"),  # T_H would overflow
    (lambda: _pdr(t_H=1.0, r_H=0.75, t_V=1.0, r_V=1.0), "T_H + R_H = 1.5625 exceeds 1"),
    (lambda: ps.PdrParams.from_power(NAN, 0.5, reflection_sign=NAN),
     "reflection_sign must be +1 or -1, got nan"),
    (lambda: ps.PdrParams.from_power(NAN, 0.5, zeta_V=2.0), "T_V and R_H must lie in [0, 1]"),
    (lambda: ps.PdrParams.from_power(0.5, 0.5, zeta_V=1.0, zeta_H=0.75),
     "R_V = 1 - T_V - zeta_V is negative (-0.5)"),
    (lambda: _timing(tau_reset=INF, tau_pulse=-1e-6), "tau_pulse must be > 0, got -1e-06"),
]


@pytest.mark.parametrize(
    "build,message", CASES + TWO_FAULTS,
    ids=[m for _, m in CASES] + [f"{m} (two faults)" for _, m in TWO_FAULTS])
def test_each_check_raises_its_message(build, message):
    with pytest.raises(ValidationError) as exc:
        build()
    assert str(exc.value) == message


# The refusals of the two constructors that skip the dataclass checks on the
# accept path: each input, one or two faults at a time, in check order.
FROM_POWER_AND_RATIOS = [
    ("from_ratios(0.5, nan)", lambda: ps.CavityParams.from_ratios(0.5, NAN),
     "cooperativity must be >= 0"),
    ("from_ratios(nan, 4)", lambda: ps.CavityParams.from_ratios(NAN, 4.0),
     "kappa_wg must lie in [0, kappa], got nan"),
    ("from_ratios(1.5, 4)", lambda: ps.CavityParams.from_ratios(1.5, 4.0),
     "kappa_wg must lie in [0, kappa], got 1.5"),
    ("from_ratios(nan, -1)", lambda: ps.CavityParams.from_ratios(NAN, -1.0),
     "cooperativity must be >= 0"),
    ("from_power sign nan", lambda: ps.PdrParams.from_power(0.5, 0.5, reflection_sign=NAN),
     "reflection_sign must be +1 or -1, got nan"),
    ("from_power sign 0", lambda: ps.PdrParams.from_power(0.5, 0.5, reflection_sign=0),
     "reflection_sign must be +1 or -1, got 0"),
    ("from_power sign 1j", lambda: ps.PdrParams.from_power(0.5, 0.5, reflection_sign=1j),
     "reflection_sign must be +1 or -1, got 1j"),
    ("from_power(nan, 0.5)", lambda: ps.PdrParams.from_power(NAN, 0.5),
     "T_V and R_H must lie in [0, 1]"),
    ("from_power(0.5, nan)", lambda: ps.PdrParams.from_power(0.5, NAN),
     "T_V and R_H must lie in [0, 1]"),
    ("from_power(-inf, 0.5)", lambda: ps.PdrParams.from_power(-INF, 0.5),
     "T_V and R_H must lie in [0, 1]"),
    ("from_power(1.5, 0.5) sign 2", lambda: ps.PdrParams.from_power(1.5, 0.5, reflection_sign=2.0),
     "reflection_sign must be +1 or -1, got 2.0"),
    ("from_power(0.5, nan) zeta_H 2", lambda: ps.PdrParams.from_power(0.5, NAN, zeta_H=2.0),
     "T_V and R_H must lie in [0, 1]"),
]


@pytest.mark.parametrize("build,message", [c[1:] for c in FROM_POWER_AND_RATIOS],
                         ids=[c[0] for c in FROM_POWER_AND_RATIOS])
def test_from_power_and_from_ratios_refuse(build, message):
    with pytest.raises(ValidationError) as exc:
        build()
    assert str(exc.value) == message


def test_valid_inputs_pass_every_check():
    _cavity(), _pdr(), _link(), _timing()
    _cavity(delta_c=-2.5, delta_a=1e300)
    # a cooperativity that fits a double, though g**2 or kappa gamma would not
    assert _cavity(kappa=1e300, kappa_wg=0.5, gamma=1e300, g=1e300).cooperativity == pytest.approx(4.0, rel=1e-15)
    assert _cavity(kappa=1e-300, kappa_wg=0.0, gamma=1e-300, g=1e-300).cooperativity == pytest.approx(4.0, rel=1e-15)
    ps.CavityParams.from_ratios(0.5, 0.0)
    ps.PdrParams.from_power(0.5, 0.5, zeta_V=0.5, zeta_H=0.5, reflection_sign=1)
    ps.PolarizerParams(eta_pol_V=0.5, eta_pol_H=0.5)
    assert _link().xi == 0.25
    # a power sum within POWER_TOL of 1 passes
    pdr = _pdr(t_H=math.sqrt(0.5), r_H=math.sqrt(0.5))
    assert pdr.zeta_H == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("sign", [True, 1, 1.0, -1, -1.0, np.float64(-1.0)])
def test_from_power_accepts_a_unit_sign(sign):
    pdr = ps.PdrParams.from_power(0.64, 0.25, zeta_V=0.11, zeta_H=0.15, reflection_sign=sign)
    assert pdr == ps.PdrParams(complex(math.sqrt(0.6)), complex(sign * 0.5),
                               complex(0.8), complex(sign * math.sqrt(1.0 - 0.64 - 0.11)))


def test_from_power_clamps_a_complement_within_tolerance():
    # R_V and T_H a little below 0 but within POWER_TOL: their coefficients
    # are zeros, with the sign of the reflection kept on r_V
    pdr = ps.PdrParams.from_power(0.75, 1.0, zeta_V=0.25 + 1e-13, zeta_H=1e-13)
    assert pdr == ps.PdrParams(0j, complex(-1.0), complex(math.sqrt(0.75)), complex(-0.0))
    assert math.copysign(1.0, pdr.t_H.real) == 1.0
    assert math.copysign(1.0, pdr.r_V.real) == -1.0


def test_from_ratios_builds_the_unit_cavity():
    cav = ps.CavityParams.from_ratios(0.73, 4.0)
    assert cav == ps.CavityParams(kappa=1.0, kappa_wg=0.73, gamma=1.0, g=1.0,
                                  delta_c=0.0, delta_a=0.0)
    assert ps.CavityParams.from_ratios(0.5, 0.0).g == 0.0
