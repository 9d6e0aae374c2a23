"""Simulator and analysis library for heralded polarization-to-spin quantum
state transfer through an imperfect nanophotonic device: device fidelity
from cavity and reflector physics, and the rate-fidelity trade-off over a
lossy link, with analytic closed forms cross-validated by Monte Carlo."""

from importlib import import_module

__version__ = "0.1.0"

# Every submodule and its names load on first use (PEP 562), so `import
# polspin` runs no submodule, `from polspin import config` loads params and
# config only (no device or rate), and no numpy loads before an array path
# needs it.
_LAZY = {
    "device": ("IDEAL_REFLECTIONS", "TARGET_STATES", "EffectiveReflections", "FidelityReport",
               "HeraldOutcome", "JointState", "OpaqueDeviceError", "PhotonQubit", "SpinState",
               "UnheraldableOutcomeError", "cavity_reflection", "effective_reflections",
               "evolve_joint_state", "herald_spin_state", "loss_balance_residual",
               "transfer_fidelity"),
    "params": ("CavityParams", "InfeasibleConstraintError", "LinkParams", "McConfig",
               "NoDetectionError", "PdrParams", "PolarizerParams", "ProtocolTiming",
               "SweepAxis", "ValidationError", "design_cavity", "design_link", "design_pdr",
               "design_polarizer", "design_timing"),
    "rate": ("AttemptProbabilities", "MaxAttempts", "RateResult", "attempt_probabilities",
             "classify_regime", "expected_failure_time", "expected_success_time",
             "max_attempts", "protocol_fidelity", "repeaterless_bound",
             "sequence_error_probability", "transfer_rate"),
    "montecarlo": ("McRateEstimate", "TrialResult", "simulate_rate", "simulate_trial"),
    "sweep": ("SweepResult", "sweep_fidelity_cavity", "sweep_fidelity_pdr",
              "sweep_rate_vs_loss"),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    module = name if name in _LAZY else _MODULE_OF.get(name)  # polspin.sweep too
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = import_module(f".{module}", __name__)
    return loaded if module == name else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted([*globals(), *_MODULE_OF])
