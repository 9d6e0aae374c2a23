"""The package loads numpy only on the array paths: `import polspin`, the
config and the scalar CLI commands run without it, and without the
standard dataclasses and inspect modules. Every submodule and its names
resolve on first use, so the config loads no device, rate or json, and
fidelity no rate."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polspin

# Every name the package exports, by the module that defines it (or, for
# InfeasibleConstraintError, re-exports it from params).
EXPORTS = {
    "device": ["IDEAL_REFLECTIONS", "TARGET_STATES", "EffectiveReflections", "FidelityReport",
               "HeraldOutcome", "JointState", "OpaqueDeviceError", "PhotonQubit", "SpinState",
               "UnheraldableOutcomeError", "cavity_reflection", "effective_reflections",
               "evolve_joint_state", "herald_spin_state", "loss_balance_residual",
               "transfer_fidelity"],
    "params": ["CavityParams", "LinkParams", "McConfig", "NoDetectionError", "PdrParams",
               "PolarizerParams", "ProtocolTiming", "SweepAxis", "ValidationError",
               "design_cavity", "design_link", "design_pdr", "design_polarizer",
               "design_timing"],
    "rate": ["AttemptProbabilities", "InfeasibleConstraintError", "MaxAttempts", "RateResult",
             "attempt_probabilities", "classify_regime", "expected_failure_time",
             "expected_success_time", "max_attempts", "protocol_fidelity",
             "repeaterless_bound", "sequence_error_probability", "transfer_rate"],
    "montecarlo": ["McRateEstimate", "TrialResult", "simulate_rate", "simulate_trial"],
    "sweep": ["SweepResult", "sweep_fidelity_cavity", "sweep_fidelity_pdr",
              "sweep_rate_vs_loss"],
}

# Run in a fresh interpreter: after each step, whether numpy is loaded,
# which of dataclasses and inspect are, which polspin submodules are and
# whether json is.
# json is read before the script imports it for its own report.
_STEPS = """
import os, sys
steps = []
def step(name, ok=True):
    steps.append([name, ok and "numpy" in sys.modules,
                  sorted({"dataclasses", "inspect"} & set(sys.modules)),
                  sorted(m for m in sys.modules if m.startswith("polspin.")),
                  "json" in sys.modules])
import polspin
step("import polspin")
from polspin import config
config.load_config()
step("load_config")
from polspin import cli
for command in ("fidelity", "rate", "diagnose"):
    for fmt in ("csv", "json"):
        out = os.path.join(sys.argv[1], f"{command}.{fmt}")
        code = cli.main(["--command", command, "--format", fmt, "--out", out])
        step(f"{command} {fmt} (exit {code})")
montecarlo = polspin.montecarlo  # a lazy module loads on first use, and numpy
step("polspin.montecarlo", montecarlo is sys.modules["polspin.montecarlo"])
sweep = polspin.sweep_fidelity_pdr  # and so does a lazy name's module
step("polspin.sweep_fidelity_pdr", sweep is sys.modules["polspin.sweep"].sweep_fidelity_pdr)
import json
print(json.dumps(steps), file=sys.stderr)
"""

# The steps that load neither numpy, dataclasses nor inspect.
_SCALAR_STEPS = ["import polspin", "load_config",
                 *(f"{command} {fmt} (exit 0)"
                   for command in ("fidelity", "rate", "diagnose") for fmt in ("csv", "json"))]


def test_scalar_paths_do_not_load_numpy(tmp_path):
    src = str(Path(polspin.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", _STEPS, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stderr.strip().splitlines()[-1])
    loaded = {step: numpy for step, numpy, *_ in steps}
    assert loaded == {
        "import polspin": False,
        "load_config": False,
        **{f"{command} {fmt} (exit 0)": False
           for command in ("fidelity", "rate", "diagnose") for fmt in ("csv", "json")},
        "polspin.montecarlo": True,
        "polspin.sweep_fidelity_pdr": True,
    }
    # no value type builds on dataclasses, whose import pulls in inspect, and
    # none reads its fields with inspect
    introspection = {step: mods for step, _, mods, *_ in steps if step in _SCALAR_STEPS}
    assert introspection == dict.fromkeys(_SCALAR_STEPS, [])
    # set-up compiles only what it runs: no submodule on import, no device,
    # rate or json for the config, and no rate for the fidelity command
    modules = {step: set(names) for step, _, _, names, _ in steps}
    json_loaded = {step: js for step, *_, js in steps}
    assert modules["import polspin"] == set()
    assert modules["load_config"] == {"polspin.config", "polspin.params"}
    assert not json_loaded["load_config"]
    for fmt in ("csv", "json"):
        assert "polspin.rate" not in modules[f"fidelity {fmt} (exit 0)"]


# Run in a fresh interpreter: the names set-up asks the import system for.
_ASKED = """
import json, sys
asked = []
class Recorder:
    @staticmethod
    def find_spec(name, path=None, target=None):
        asked.append(name)
sys.meta_path.insert(0, Recorder)
from polspin import config
config.load_config()
print(json.dumps(asked), file=sys.stderr)
"""


def test_set_up_asks_only_for_its_versions_sha256_module():
    # _sha2 exists from Python 3.12 and _sha256 below it: a failed import
    # would scan sys.path on every set-up
    src = str(Path(polspin.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", _ASKED], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    asked = json.loads(proc.stderr.strip().splitlines()[-1])
    assert "polspin.config" in asked
    missing, present = ("_sha2", "_sha256") if sys.version_info < (3, 12) else ("_sha256", "_sha2")
    assert missing not in asked
    assert present in asked and "hashlib" not in asked


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_exported_name_is_the_defining_modules_object(module, name):
    assert getattr(polspin, name) is getattr(importlib.import_module(f"polspin.{module}"), name)
    assert name in dir(polspin)


def test_moved_names_stay_importable_from_their_old_modules():
    from polspin import config, montecarlo, params, rate, sweep

    for old, new, names in [
        (rate, params, ["InfeasibleConstraintError"]),
        (montecarlo, params, ["McConfig", "NoDetectionError"]),
        (sweep, params, ["SweepAxis"]),
        (sweep, config, ["DEFAULT_CONSTRAINTS", "SWEEP_KINDS", "_jsonable", "default_pdr_axes",
                         "default_cooperativity_axis", "default_coupling_axis",
                         "default_loss_axis"]),
    ]:
        for name in names:
            assert getattr(old, name) is getattr(new, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        polspin.no_such_name
