"""The value types' contract: each of the package's 20 value types has the
repr of a dataclass, compares and hashes by its field values within its own
class, refuses assignment and deletion, rebuilds through its constructor in
replace, and survives copy.deepcopy and pickle."""

import copy
import inspect
import pickle

import numpy as np
import pytest

import polspin as ps
from polspin import config, device, montecarlo, params, rate, sweep
from polspin.params import ValidationError, Value

# Each type's fields in constructor order, as its repr lists them.
FIELDS = {
    params.CavityParams: ("kappa", "kappa_wg", "gamma", "g", "delta_c", "delta_a"),
    params.PdrParams: ("t_H", "r_H", "t_V", "r_V"),
    params.PolarizerParams: ("eta_pol_V", "eta_pol_H"),
    params.LinkParams: ("eta_link", "eta_det", "r_cav_V_avg", "r_cav_H", "xi"),
    params.ProtocolTiming: ("tau_reset", "tau_pulse", "pulse_multiplier"),
    params.McConfig: ("trials", "seed"),
    params.SweepAxis: ("path", "start", "stop", "num", "spacing"),
    device.EffectiveReflections: ("r_H_on", "r_H_off", "r_V_on", "r_V_off"),
    device.PhotonQubit: ("alpha", "beta"),
    device.SpinState: ("amp_down", "amp_up"),
    device.JointState: ("h_down", "h_up", "v_down", "v_up"),
    device.FidelityReport: ("f_avg", "r_H", "r_V_on", "r_V_off"),
    config.RunConfig: ("raw", "cavity", "pdr", "polarizer", "link", "timing", "r_cav_h",
                       "f_target", "constraints", "mc", "sweep", "axes"),
    rate.AttemptProbabilities: ("p_det", "p_lost", "p_e"),
    rate.MaxAttempts: ("n", "unbounded", "cap_reached"),
    rate.RateResult: ("n_max", "p_error", "p_success", "t_failures", "t_success", "rate",
                      "regime", "unbounded", "cap_reached"),
    rate.RateCurves: ("n_max", "rate", "regime", "bound", "infeasible", "cap_reached"),
    montecarlo.TrialResult: ("elapsed", "attempts_used", "sequences_used", "error_occurred"),
    montecarlo.McRateEstimate: ("mean_rate", "std_error", "error_fraction", "trials"),
    sweep.SweepResult: ("axes", "values", "quantity", "metadata", "columns"),
}

# Types holding a dict or an array, which cannot be hashed.
UNHASHABLE = {config.RunConfig, rate.RateCurves, sweep.SweepResult}


def sample(cls):
    """A fresh instance of cls; two calls give equal, distinct objects."""
    cfg = config.load_config()
    probs = rate.attempt_probabilities(cfg.pdr, cfg.polarizer, cfg.link)
    half = 2**-0.5
    built = {
        params.CavityParams: ps.design_cavity,
        params.PdrParams: ps.design_pdr,
        params.PolarizerParams: ps.design_polarizer,
        params.LinkParams: ps.design_link,
        params.ProtocolTiming: ps.design_timing,
        params.McConfig: lambda: params.McConfig(trials=7, seed=3),
        params.SweepAxis: lambda: params.SweepAxis("cavity.cooperativity", 0.5, 20.0, 5, "log"),
        device.EffectiveReflections: lambda: device.effective_reflections(
            cfg.pdr, cfg.polarizer, cfg.cavity),
        device.PhotonQubit: lambda: device.PhotonQubit(half, 1j * half),
        device.SpinState: lambda: device.SpinState(0.6 + 0j, -0.8j),
        device.JointState: lambda: device.JointState(0.5, -0.5j, 0.25, 0.125 + 0.5j),
        device.FidelityReport: lambda: device.transfer_fidelity(
            cfg.pdr, cfg.polarizer, cfg.cavity),
        config.RunConfig: lambda: cfg,
        rate.AttemptProbabilities: lambda: probs,
        rate.MaxAttempts: lambda: rate.max_attempts(probs, 0.999, 0.95),
        rate.RateResult: lambda: rate.transfer_rate(
            cfg.pdr, cfg.polarizer, cfg.cavity, cfg.link, cfg.timing, 0.95),
        rate.RateCurves: lambda: rate.rate_curves(
            cfg.pdr, cfg.polarizer, cfg.link, cfg.timing, np.array([1e-2, 1e-3]), 0.999,
            (0.95, 0.99)),
        montecarlo.TrialResult: lambda: montecarlo.TrialResult(1.5e-3, 17, 2, False),
        montecarlo.McRateEstimate: lambda: montecarlo.McRateEstimate(250.0, 12.5, 0.1, 40),
        sweep.SweepResult: lambda: sweep.SweepResult(
            [("loss_db", np.array([0.0, 10.0]))], np.array([2.0, 1.0]), "rate",
            {"f_target": 0.95}, {"n_max": np.array([3.0, 30.0])}),
    }
    return built[cls]()


# Constructor checks that replace must run again: a field and a value it refuses.
INVALID = {
    params.CavityParams: ("kappa", -1.0),
    params.PdrParams: ("t_H", 2.0),
    params.PolarizerParams: ("eta_pol_H", 1.5),
    params.LinkParams: ("eta_link", 1.5),
    params.ProtocolTiming: ("tau_reset", 0.0),
    params.McConfig: ("trials", 0),
    params.SweepAxis: ("num", 1),
    device.EffectiveReflections: ("r_V_on", 2.0),
    device.PhotonQubit: ("beta", 1.0),
    rate.AttemptProbabilities: ("p_det", 1.5),
    sweep.SweepResult: ("values", np.zeros(3)),
}

TYPES = pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)


def test_every_value_type_is_covered():
    assert len(FIELDS) == 20
    for cls in FIELDS:
        assert issubclass(cls, Value)
    defined = {obj for module in (params, device, rate, montecarlo, sweep, config)
               for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, Value) and obj is not Value}
    assert defined == set(FIELDS)


@TYPES
def test_fields_are_the_constructors_positional_parameters(cls):
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    names = tuple(name for name, p in inspect.signature(cls).parameters.items()
                  if p.kind in positional)
    assert cls._fields == names == FIELDS[cls]
    assert "_fields" in vars(cls)  # read from the class's own __init__


def test_fields_come_from_the_classs_own_constructor():
    class Point(Value):
        def __init__(self, x, y=0.0, *rest, scale=1.0, **extra):
            self.__dict__.update(x=x, y=y)

    class Labelled(Point):  # no __init__: Point's constructor and fields
        pass

    class Named(Value):  # sets _fields itself, which is kept
        _fields = ("name",)

        def __init__(self, **values):
            self.__dict__.update(values)

    assert Point._fields == ("x", "y")
    assert repr(Point(1.0)) == f"{Point.__qualname__}(x=1.0, y=0.0)"
    assert Labelled._fields == ("x", "y") and "_fields" not in vars(Labelled)
    assert Named._fields == ("name",)
    assert repr(Named(name="a")) == f"{Named.__qualname__}(name='a')"
    assert Value._fields == ()


def test_design_reprs_are_the_dataclass_reprs():
    assert repr(ps.design_cavity()) == (
        "CavityParams(kappa=1.0, kappa_wg=0.73, gamma=1.0, g=1.0, delta_c=0.0, delta_a=0.0)")
    assert repr(ps.design_pdr()) == (
        "PdrParams(t_H=(0.9219544457292888+0j), r_H=(-0.3872983346207417+0j), "
        "t_V=(0.99498743710662+0j), r_V=(-0.10000000000000005+0j))")
    assert repr(params.McConfig()) == "McConfig(trials=100, seed=0)"
    assert repr(rate.MaxAttempts(5)) == "MaxAttempts(n=5, unbounded=False, cap_reached=False)"


@TYPES
def test_repr_lists_the_fields_in_order(cls):
    value = sample(cls)
    body = ", ".join(f"{name}={getattr(value, name)!r}" for name in FIELDS[cls])
    assert repr(value) == f"{cls.__name__}({body})"


@TYPES
def test_equal_values_compare_and_hash_equal(cls):
    a, b = sample(cls), sample(cls)
    if cls in (rate.RateCurves, sweep.SweepResult):
        # arrays compare element by element; equal fields are the same arrays
        b = cls(**{name: getattr(a, name) for name in FIELDS[cls]})
    assert a is not b
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1


@TYPES
def test_another_class_with_the_same_values_is_not_equal(cls):
    fields = FIELDS[cls]

    class Twin(Value):
        _fields = fields

        def __init__(self, **values):
            self.__dict__.update(values)

    value = sample(cls)
    twin = Twin(**{name: getattr(value, name) for name in fields})
    assert value.__eq__(twin) is NotImplemented
    assert value != twin and twin != value
    assert value != tuple(getattr(value, name) for name in fields)


def test_value_types_with_the_same_values_are_not_equal():
    r = 0.6 + 0j
    assert device.SpinState(r, 0.8j) != device.PhotonQubit(r, 0.8j)
    assert device.JointState(r, r, r, r) != device.EffectiveReflections(r, r, r, r)


@TYPES
def test_assignment_and_deletion_raise(cls):
    value = sample(cls)
    before = repr(value)
    for name in (*FIELDS[cls], "not_a_field"):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(value, name, 0.5)
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(value, name)
    assert repr(value) == before


@TYPES
def test_replace_without_changes_rebuilds_an_equal_copy(cls):
    value = sample(cls)
    name = FIELDS[cls][-1]
    new = value.replace(**{name: getattr(value, name)})
    assert type(new) is cls and new is not value
    assert repr(new) == repr(value)
    with pytest.raises(TypeError):
        value.replace(not_a_field=1)


@pytest.mark.parametrize("cls", list(INVALID), ids=lambda cls: cls.__name__)
def test_replace_with_an_invalid_value_raises(cls):
    name, bad = INVALID[cls]
    with pytest.raises(ValidationError):
        sample(cls).replace(**{name: bad})


def test_replace_keeps_the_other_fields():
    link = ps.design_link().replace(eta_link=0.5)
    assert link == ps.design_link(0.5)
    assert params.McConfig().replace(seed=9) == params.McConfig(seed=9)


@TYPES
@pytest.mark.parametrize("how", ["deepcopy", "pickle"])
def test_copy_and_pickle_round_trip(cls, how):
    value = sample(cls)
    if how == "deepcopy":
        back = copy.deepcopy(value)
    else:
        back = pickle.loads(pickle.dumps(value))
    assert type(back) is cls and back is not value
    assert repr(back) == repr(value)
    if cls not in UNHASHABLE:
        assert back == value and hash(back) == hash(value)
    with pytest.raises(AttributeError):
        setattr(back, FIELDS[cls][0], None)
