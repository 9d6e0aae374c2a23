"""Simulator and analysis library for heralded polarization-to-spin quantum
state transfer through an imperfect nanophotonic device: device fidelity
from cavity and reflector physics, and the rate-fidelity trade-off over a
lossy link, with analytic closed forms cross-validated by Monte Carlo."""

from .device import (
    IDEAL_REFLECTIONS,
    TARGET_STATES,
    EffectiveReflections,
    FidelityReport,
    HeraldOutcome,
    JointState,
    OpaqueDeviceError,
    PhotonQubit,
    SpinState,
    UnheraldableOutcomeError,
    cavity_reflection,
    effective_reflections,
    evolve_joint_state,
    herald_spin_state,
    loss_balance_residual,
    transfer_fidelity,
)
from .montecarlo import McConfig, McRateEstimate, NoDetectionError, TrialResult, simulate_rate, simulate_trial
from .params import (
    CavityParams,
    LinkParams,
    PdrParams,
    PolarizerParams,
    ProtocolTiming,
    ValidationError,
    design_cavity,
    design_link,
    design_pdr,
    design_polarizer,
    design_timing,
)
from .rate import (
    AttemptProbabilities,
    InfeasibleConstraintError,
    MaxAttempts,
    RateResult,
    attempt_probabilities,
    classify_regime,
    expected_failure_time,
    expected_success_time,
    max_attempts,
    protocol_fidelity,
    repeaterless_bound,
    sequence_error_probability,
    transfer_rate,
)
from .sweep import (
    SweepAxis,
    SweepResult,
    sweep_fidelity_cavity,
    sweep_fidelity_pdr,
    sweep_rate_vs_loss,
)

__version__ = "0.1.0"
